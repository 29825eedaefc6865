"""The load driver for the socket workloads: one process, at most two
connections to a Wafe session server on a Unix socket.

It imports nothing from Wafe.  The first line on stdin is the plan the
benchmark generated (the op lines with their expected replies); every
later line is one command, answered by one JSON line on stdout:

``{"cmd": "setup", "path": P}``
    Connect and complete the workload's first verified reply, then
    disconnect.  Answers ``{"ok": bool, "detail": str}``.
``{"cmd": "open", "path": P}``
    Open the connections a run needs (socket_tcl_logic: two sessions
    that have run the plan's setup lines).  Answers ``{"ok": true}``.
``{"cmd": "run", "path": P, "seconds": S}``
    Closed loop for S seconds on the open connections: send one op,
    wait for its reply, check it, send the next.  Answers with the
    per-op latencies and the attempted/failed counts.  Successive runs
    continue through the plan where the last one stopped.
``{"cmd": "close"}``
    Close the connections.  Answers ``{"ok": true}``.
``{"cmd": "exit"}``
    Quit.

An op fails when its reply differs from the expected one (an ``error:``
reply included) or does not arrive within ``REPLY_TIMEOUT`` seconds; a
timeout also ends the run and closes the connections, because the
stream is out of step after it, so every later op fails too.
"""

import json
import socket
import sys
import time

REPLY_TIMEOUT = 10.0


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REPLY_TIMEOUT)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")
        greeting = self.readline()
        if not greeting.startswith("wafe server "):
            raise ConnectionError("unexpected greeting %r" % greeting)

    def send(self, text):
        self.sock.sendall(text.encode())

    def readline(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line.decode().rstrip("\n")

    def close(self):
        self.reader.close()
        self.sock.close()


class Outcome:
    """Latencies and failures of one closed-loop run."""

    def __init__(self):
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.started = time.perf_counter()

    def record(self, started, reply, expect):
        self.latencies_ms.append(round((time.perf_counter() - started)
                                       * 1000.0, 4))
        self.check(reply, expect)

    def check(self, reply, expect):
        if reply != expect:
            self.fail("expected %r, got %r" % (expect, reply))

    def fail(self, detail):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(detail)

    def report(self):
        return {"latencies_ms": self.latencies_ms,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors,
                "elapsed": time.perf_counter() - self.started}


class Driver:
    """The plan, the cursor into it, and the open connections."""

    def __init__(self, plan):
        self.plan = plan
        self.next_op = 0
        self.conns = []

    def close(self):
        for conn in self.conns:
            conn.close()
        self.conns = []

    def setup(self, path):
        outcome = Outcome()
        self.first_reply(path, outcome)
        return {"ok": outcome.failed == 0,
                "detail": "; ".join(outcome.errors)}

    def open(self, path):
        return {"ok": True}

    def run(self, path, seconds):
        outcome = Outcome()
        deadline = outcome.started + seconds
        try:
            while time.perf_counter() < deadline:
                outcome.attempted += 1
                self.op(path, self.next_op, outcome)
                self.next_op += 1
        except (OSError, ConnectionError) as exc:
            outcome.fail("op %d: %s" % (self.next_op, exc))
            self.close()
        return outcome.report()


class LogicDriver(Driver):
    """socket_tcl_logic: two sessions, ops alternate between them."""

    def open(self, path):
        """Connect both sessions and wait until each has run the setup
        lines, so no session work is left to spill into a run."""
        self.conns = [Connection(path) for __ in range(2)]
        for conn in self.conns:
            conn.send("".join(line + "\n"
                              for line in self.plan["setup_lines"]))
        for conn in self.conns:
            reply = conn.readline()
            if reply != self.plan["ready"]:
                raise ConnectionError("session setup answered %r" % reply)
        return {"ok": True}

    def first_reply(self, path, outcome):
        self.open(path)
        try:
            for index, conn in enumerate(self.conns):
                op = self.plan["ops"][index]
                conn.send(op["line"] + "\n")
                outcome.check(conn.readline(), op["expect"])
        finally:
            self.close()

    def op(self, path, index, outcome):
        if not self.conns:
            raise ConnectionError("closed after an earlier failure")
        ops = self.plan["ops"]
        op = ops[index % len(ops)]
        conn = self.conns[index % 2]
        started = time.perf_counter()
        conn.send(op["line"] + "\n")
        outcome.record(started, conn.readline(), op["expect"])


class ChurnDriver(Driver):
    """socket_session_churn: one op is one session lifetime."""

    def session(self, path, session, outcome):
        started = time.perf_counter()
        conn = Connection(path)
        try:
            conn.send(session["script"])
            outcome.record(started, conn.readline(), session["expect"])
        finally:
            conn.close()

    def first_reply(self, path, outcome):
        self.session(path, self.plan["sessions"][0], outcome)

    def op(self, path, index, outcome):
        sessions = self.plan["sessions"]
        self.session(path, sessions[index % len(sessions)], outcome)


DRIVERS = {
    "socket_tcl_logic": LogicDriver,
    "socket_session_churn": ChurnDriver,
}


def main():
    plan = json.loads(sys.stdin.readline())
    driver = DRIVERS[plan["workload"]](plan)
    while True:
        command = json.loads(sys.stdin.readline() or '{"cmd": "exit"}')
        if command["cmd"] == "exit":
            break
        if command["cmd"] == "close":
            driver.close()
            answer = {"ok": True}
        elif command["cmd"] in ("setup", "open"):
            try:
                answer = getattr(driver, command["cmd"])(command["path"])
            except (OSError, ConnectionError) as exc:
                answer = {"ok": False, "detail": str(exc)}
        else:
            answer = driver.run(command["path"], command["seconds"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    driver.close()


if __name__ == "__main__":
    main()
