"""The three workloads.  Wafe runs in this process through its public
entry points; the load comes from one generated peer process.

Each workload offers the same small interface to ``run.py``:

``launch()``
    A fresh Wafe instance, up to its first verified reply; returns it.
``stop(instance)``
    Tear an instance down and stop the processes it started.
``begin(instance)`` / ``end(instance)``
    Open and close what a stretch of timed loop runs on (the driver's
    connections, on the socket workloads).
``run(instance, seconds, tick)``
    The closed loop on ``instance`` for ``seconds``, calling ``tick()``
    between units of work (the harness samples RSS there).  Returns an
    :class:`Outcome`.
``ops_done()``
    Ops completed so far, counted on the Wafe side, over every run.
``channels(instance)``
    (channel, interp, display) of every live Wafe world of an instance,
    for the per-layer counters.
``close()``
    Stop the peer process, if the workload keeps one.
"""

import json
import os
import subprocess
import sys
import time
import weakref

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
#: Peers run isolated from the user's site packages and environment, so
#: their start-up cost does not depend on the host's Python setup.
PEER = [sys.executable, "-I", "-S", "-u"]
REPLY_TIMEOUT = 10.0


class BenchError(Exception):
    """The workload could not be driven (a peer died or hung)."""


class Outcome:
    def __init__(self, latencies_ms=(), attempted=0, failed=0, errors=(),
                 elapsed=0.0):
        self.latencies_ms = list(latencies_ms)
        self.attempted = attempted
        self.failed = failed
        self.errors = list(errors)
        self.elapsed = elapsed
        #: Wall time before scaling, summed by :meth:`extend`.
        self.wall = 0.0

    def extend(self, other, scale=1.0):
        """Add ``other``'s ops, its times multiplied by ``scale``."""
        self.latencies_ms += [latency * scale
                              for latency in other.latencies_ms]
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]
        self.elapsed += other.elapsed * scale
        self.wall += other.elapsed


# -- pipe_primefactors ------------------------------------------------------

class PipeInstance:
    """One frontend-mode Wafe with its backend, on its own display."""

    def __init__(self, display_name):
        from repro.core import make_wafe
        from repro.core.frontend import Frontend

        self.display_name = display_name
        self.wafe = make_wafe(display_name=display_name)
        self.frontend = Frontend(
            self.wafe, PEER + [os.path.join(HERE, "backend.py")])
        widgets = self.wafe.widgets
        self.pump(lambda: "info" in widgets
                  and widgets["info"].window is not None)
        self.text = widgets["input"]
        self.result = widgets["result"]
        self.info = widgets["info"]
        self.display = self.wafe.app.default_display

    def pump(self, done):
        app = self.wafe.app
        deadline = time.perf_counter() + REPLY_TIMEOUT
        while not done():
            if time.perf_counter() > deadline or self.frontend.eof_seen:
                raise BenchError("no reply from the backend")
            app.process_one(block=True)

    def op(self, number, factors):
        """Type one number and press Return; wait until the backend's
        reply has cleared the input field and every repaint it caused
        has been dispatched.  Returns (latency_ms, ok, detail)."""
        text = self.text.resources
        app = self.wafe.app
        started = time.perf_counter()
        self.display.type_string(self.text.window, "%d\r" % number)
        self.pump(lambda: text["string"] == "" and not app.pending())
        latency = (time.perf_counter() - started) * 1000.0
        result, info = gen.primefactor_labels(number, factors)
        shown = (self.result.resources["label"], self.info.resources["label"])
        product = 1
        for factor in shown[0].split("*"):
            product *= int(factor) if factor.isdigit() else 0
        ok = shown == (result, info) and product == number
        return latency, ok, "typed %d, labels show %r" % (number, shown)

    def close(self):
        from repro.xlib import close_display

        self.frontend.close()
        self.wafe.app.shutdown()
        close_display(self.display_name)


class PipePrimefactors:
    """Frontend mode (the paper's Figure 5): Wafe spawns the backend,
    the simulated user types numbers, the backend replies with labels."""

    name = "pipe_primefactors"
    INPUTS = 4096

    def __init__(self, rng):
        self.inputs = gen.primefactor_inputs(rng, self.INPUTS)
        self.next_input = 0
        self.completed = 0
        self.launches = 0

    def _op(self, instance):
        number, factors = self.inputs[self.next_input % self.INPUTS]
        self.next_input += 1
        return instance.op(number, factors)

    def launch(self):
        self.launches += 1
        instance = PipeInstance(":%d" % self.launches)
        try:
            __, ok, detail = self._op(instance)
            if not ok:
                raise BenchError("first reply wrong: %s" % detail)
        except BaseException:
            instance.close()
            raise
        return instance

    def stop(self, instance):
        instance.close()

    def begin(self, instance):
        pass

    def end(self, instance):
        pass

    def run(self, instance, seconds, tick):
        outcome = Outcome()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            latency, ok, detail = self._op(instance)
            self.completed += 1
            outcome.latencies_ms.append(latency)
            if not ok:
                outcome.failed += 1
                outcome.errors.append(detail)
            tick()
        outcome.attempted = len(outcome.latencies_ms)
        outcome.errors = outcome.errors[:5]
        outcome.elapsed = time.perf_counter() - started
        return outcome

    def ops_done(self):
        return self.completed

    def channels(self, instance):
        return [(instance.frontend, instance.wafe.interp, instance.display)]

    def close(self):
        pass


# -- the socket workloads ---------------------------------------------------

class ServerInstance:
    """A Wafe session server listening on a fresh Unix socket path."""

    def __init__(self, path):
        from repro.server import WafeServer

        self.path = path
        self.server = WafeServer()
        self.server.listen_unix(path)


class SocketWorkload:
    """A Wafe session server in this process, loaded by ``driver.py``.

    The driver's stdout is watched on the server's own event core, so
    the loop wakes the moment the driver answers."""

    def __init__(self, plan):
        self.launches = 0
        self.driver = subprocess.Popen(
            PEER + [os.path.join(HERE, "driver.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        os.set_blocking(self.driver.stdout.fileno(), False)
        # The plan lives in the driver from here on; keeping it would
        # add the benchmark's own data to the Wafe process's heap.
        self._tell(plan)

    def _tell(self, message):
        self.driver.stdin.write((json.dumps(message) + "\n").encode())
        self.driver.stdin.flush()

    def _ask(self, instance, message, tick=None, limit=REPLY_TIMEOUT):
        """Send a command to the driver and run the instance's server
        until the driver's one-line JSON answer arrives."""
        chunks = []
        answered = []

        def readable(fileobj):
            try:
                data = os.read(fileobj.fileno(), 1 << 20)
            except BlockingIOError:
                return
            if not data:
                answered.append(None)
                return
            chunks.append(data)
            if data.endswith(b"\n"):
                answered.append(json.loads(b"".join(chunks)))

        server = instance.server
        watch = server.core.add_reader(self.driver.stdout, readable,
                                       label="benchmark driver")
        self._tell(message)
        deadline = time.perf_counter() + limit
        try:
            while not answered:
                if time.perf_counter() > deadline:
                    raise BenchError("driver did not answer %s" % message)
                server.run_once(timeout=0.05)
                if tick is not None:
                    tick()
        finally:
            server.core.remove_watch(watch)
        if answered[0] is None:
            raise BenchError("driver exited")
        return answered[0]

    def launch(self):
        self.launches += 1
        instance = ServerInstance(os.path.relpath(os.path.join(
            HERE, ".run-%d-%d.sock" % (os.getpid(), self.launches))))
        try:
            answer = self._ask(instance, {"cmd": "setup",
                                          "path": instance.path})
            if not answer["ok"]:
                raise BenchError("first reply wrong: %s" % answer["detail"])
        except BaseException:
            self.stop(instance)
            raise
        return instance

    def stop(self, instance):
        instance.server.shutdown()

    def begin(self, instance):
        opened = self._ask(instance, {"cmd": "open", "path": instance.path})
        if not opened["ok"]:
            raise BenchError("could not connect: %s" % opened["detail"])

    def end(self, instance):
        self._ask(instance, {"cmd": "close"})

    def run(self, instance, seconds, tick):
        def each_pass():
            self.observe(instance.server)
            tick()

        answer = self._ask(instance, {"cmd": "run", "path": instance.path,
                                      "seconds": seconds},
                           tick=each_pass, limit=seconds + 60)
        return Outcome(answer["latencies_ms"], answer["attempted"],
                       answer["failed"], answer["errors"], answer["elapsed"])

    def observe(self, server):
        """Called on every loop pass during a run."""

    def channels(self, instance):
        return [(s, s.wafe.interp, s.wafe.app.default_display)
                for s in instance.server.sessions.values()]

    def close(self):
        if self.driver.poll() is None:
            try:
                self._tell({"cmd": "exit"})
                self.driver.stdin.close()
            except OSError:
                pass
        try:
            self.driver.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.driver.kill()
            self.driver.wait()
        self.driver.stdout.close()


class SocketTclLogic(SocketWorkload):
    """Two sessions on one Unix socket; the driver alternates ops between
    them.  Each op is Tcl application logic, every fourth one also a
    resource write and read-back on an unrealized widget."""

    name = "socket_tcl_logic"
    OPS = 8192

    def __init__(self, rng):
        super().__init__({"workload": self.name,
                          "setup_lines": gen.LOGIC_SETUP,
                          "ready": gen.LOGIC_READY,
                          "ops": gen.tcl_logic_ops(rng, self.OPS)})
        self._live = {}
        self._ended_ops = 0

    def _ops(self, session):
        return max(0, session.commands_run - len(gen.LOGIC_SETUP))

    def observe(self, server):
        for sid, session in server.sessions.items():
            self._live.setdefault(sid, session)
        for sid, session in list(self._live.items()):
            if session.ended:
                self._ended_ops += self._ops(session)
                del self._live[sid]

    def ops_done(self):
        return self._ended_ops + sum(self._ops(s)
                                     for s in self._live.values())


class SocketSessionChurn(SocketWorkload):
    """Sessions back to back: connect, merge resources, build and realize
    a ten-widget tree, read one value back, disconnect."""

    name = "socket_session_churn"
    SESSIONS = 4096
    #: How often the ended-but-unreclaimed session count is sampled.
    SAMPLE_EVERY = 0.05

    def __init__(self, rng):
        super().__init__({"workload": self.name,
                          "sessions": gen.churn_sessions(rng, self.SESSIONS)})
        self._seen = weakref.WeakSet()
        self._accepted = 0
        self.unreclaimed_peak = 0
        self._next_sample = 0.0

    def observe(self, server):
        for session in server.sessions.values():
            self._seen.add(session)
        self._accepted = server.counters["accepted"]
        now = time.perf_counter()
        if now >= self._next_sample:
            self._next_sample = now + self.SAMPLE_EVERY
            ended = sum(1 for s in list(self._seen) if s.ended)
            self.unreclaimed_peak = max(self.unreclaimed_peak, ended)

    def ops_done(self):
        return self._accepted


WORKLOADS = {cls.name: cls for cls in
             (PipePrimefactors, SocketTclLogic, SocketSessionChurn)}
