"""Seeded input generators, each paired with an independent reference.

Every generator takes a ``random.Random`` built from the benchmark's
``--seed`` and returns the inputs Wafe (or its client) receives together
with the reply a correct Wafe must produce, computed here in Python
without consulting the program under test.

Op mixes are fixed by position, never drawn from the seed: the seed only
chooses the arguments.  Each class of op has the same amount of work
whatever the seed, so the percentiles of two runs with different seeds
sit on the same op class.
"""

import collections

# -- pipe_primefactors ------------------------------------------------------

#: Every number typed is the product of three primes from this range, so
#: it always has seven digits and its factor string always has eleven
#: characters: the repaint work per op does not depend on the seed.
FACTOR_PRIMES = [p for p in range(101, 212)
                 if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def primefactor_inputs(rng, count):
    """``count`` (number, sorted factors) pairs."""
    out = []
    for __ in range(count):
        factors = sorted(rng.choice(FACTOR_PRIMES) for __ in range(3))
        out.append((factors[0] * factors[1] * factors[2], factors))
    return out


def primefactor_labels(number, factors):
    """The (result, info) label texts the backend must produce."""
    return "*".join(str(f) for f in factors), "%d: %d factors" % (
        number, len(factors))


# -- socket_tcl_logic -------------------------------------------------------

#: Iterations of the proc's ``expr`` loop.  At 300 a traced run puts
#: ``tcl.eval`` self time at 92% of the op's wall time in the Wafe
#: process (about 1900 Tcl commands per op; the rest is dispatch, the
#: socket channel and waiting for the client), so the Tcl VM is most of
#: the op while the channel still runs once per op.
LOGIC_LOOP = 300
LOGIC_MODULUS = 1000003
WORDS = ("apple", "pear", "fig", "kiwi", "plum", "lime", "date", "peach",
         "grape", "melon", "mango", "olive", "lemon", "quince", "cherry",
         "guava")

#: The application's logic: an ``expr`` loop, then list, string and
#: array work on a word list.  One line, because every protocol line is
#: one complete script.
LOGIC_PROC = (
    "%proc logic {a b words} {"
    "set acc $b; "
    "for {set i 0} {$i < " + str(LOGIC_LOOP) + "} {incr i} "
    "{set acc [expr {($acc * 31 + $a + $i) % " + str(LOGIC_MODULUS) + "}]}; "
    "set sorted [lsort $words]; "
    "set joined [join $sorted -]; "
    "foreach w $words {if {[info exists cnt($w)]} {incr cnt($w)} "
    "else {set cnt($w) 1}}; "
    "set out {}; "
    "foreach k [lsort [array names cnt]] {lappend out $k=$cnt($k)}; "
    'return "$acc [string length $joined] '
    '[string toupper [lindex $sorted 0]] [join $out ,]"}'
)

#: Widgets that are created but never realized: the resource ops read
#: and write them through the Xt resource layer without any repaint.
RESOURCE_WIDGETS = ("r0", "r1", "r2", "r3")
#: What a session runs before its first op; the last line's reply,
#: LOGIC_READY, tells the client the session is set up.
LOGIC_READY = "ready"
LOGIC_SETUP = ([LOGIC_PROC]
               + ["%%label %s topLevel" % name for name in RESOURCE_WIDGETS]
               + ["%echo " + LOGIC_READY])

#: Every RESOURCE_EVERY-th op also sets and reads back a resource.  The
#: resource ops are a quarter of the mix, so neither p50 nor p99 sits
#: on the border between the two classes.
RESOURCE_EVERY = 4


def logic_reference(a, b, words):
    """Python port of LOGIC_PROC."""
    acc = b
    for i in range(LOGIC_LOOP):
        acc = (acc * 31 + a + i) % LOGIC_MODULUS
    ordered = sorted(words)
    counts = collections.Counter(words)
    tally = ",".join("%s=%d" % (w, counts[w]) for w in sorted(counts))
    return "%d %d %s %s" % (acc, len("-".join(ordered)), ordered[0].upper(),
                            tally)


def tcl_logic_ops(rng, count):
    """``count`` {"line", "expect"} ops."""
    ops = []
    for index in range(count):
        a = rng.randrange(1, 100000)
        b = rng.randrange(0, LOGIC_MODULUS)
        words = [rng.choice(WORDS) for __ in range(8)]
        call = "logic %d %d {%s}" % (a, b, " ".join(words))
        expect = logic_reference(a, b, words)
        if index % RESOURCE_EVERY == RESOURCE_EVERY - 1:
            widget = RESOURCE_WIDGETS[(index // RESOURCE_EVERY)
                                      % len(RESOURCE_WIDGETS)]
            value = "%s%d" % (rng.choice(WORDS), rng.randrange(10000))
            line = "%%sV %s label %s; echo [%s] [gV %s label]" % (
                widget, value, call, widget)
            expect = "%s %s" % (expect, value)
        else:
            line = "%%echo [%s]" % call
        ops.append({"line": line, "expect": expect})
    return ops


# -- socket_session_churn ---------------------------------------------------

COLORS = ("red", "blue", "navy", "gray", "yellow", "white", "black",
          "cyan", "magenta", "green")


def churn_sessions(rng, count):
    """``count`` session scripts.  Each merges a seeded Xrm resource set,
    builds and realizes a ten-widget Form/Label/Command/List/Scrollbar/
    AsciiText tree, and reads back the title label, whose only source is
    the merged database."""
    sessions = []
    for __ in range(count):
        title = "%s%d" % (rng.choice(WORDS), rng.randrange(100000))
        xrm = [
            ("*title.label", title),
            ("*ok.label", rng.choice(WORDS)),
            ("*cancel.label", rng.choice(WORDS)),
            ("*status.label", rng.choice(WORDS)),
            ("*Command.foreground", rng.choice(COLORS)),
            ("*Label.background", rng.choice(COLORS)),
            ("*Form.background", rng.choice(COLORS)),
            ("*Scrollbar.thickness", str(rng.randrange(10, 20))),
        ]
        items = " ".join(rng.choice(WORDS) for __ in range(6))
        lines = [
            "%mergeResources " + " ".join(
                "%s {%s}" % pair for pair in xrm),
            "%form f topLevel",
            "%label title f",
            "%command ok f fromVert title",
            "%command cancel f fromVert title fromHoriz ok",
            "%%list items f fromVert ok list {%s}" % items,
            "%scrollbar sb f fromVert ok fromHoriz items length 60",
            "%%asciiText ed f fromVert items width 160 string {%s}"
            % rng.choice(WORDS),
            "%label status f fromVert ed",
            "%command help f fromVert ed fromHoriz status",
            "%label footer f fromVert status",
            "%realize",
            "%echo [gV title label]",
        ]
        sessions.append({"script": "\n".join(lines) + "\n",
                         "expect": title})
    return sessions
