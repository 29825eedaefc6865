"""The application program of the pipe_primefactors workload: the
paper's prime-factor program (Figure 5) with the benchmark's inputs.

Phase 2 builds the widget tree over the pipe; phase 3 answers every
number the frontend echoes with ``%sV`` label updates, all in one line
so that one op is always one read on the frontend side.  The reply also
clears the input field, ready for the next number.
"""

import sys


def factor(n):
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def main():
    out = sys.stdout
    out.write(
        "%form top topLevel\n"
        "%asciiText input top editType edit width 200\n"
        "%action input override {<Key>Return: exec(echo [gV input string])}\n"
        "%label result top label {} width 200 fromVert input\n"
        "%command quit top fromVert result callback quit\n"
        "%label info top fromVert result fromHoriz quit label {}"
        " borderWidth 0 width 150\n"
        "%realize\n")
    out.flush()
    for line in sys.stdin:
        number = int(line)
        factors = factor(number)
        out.write("%%sV result label {%s}; sV info label {%d: %d factors}; "
                  "sV input string {}\n"
                  % ("*".join(str(f) for f in factors), number, len(factors)))
        out.flush()


if __name__ == "__main__":
    main()
