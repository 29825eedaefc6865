"""Per-layer tracing from outside the program: spans around Wafe's
public functions, installed by attribute replacement and removed again.

Nothing under ``src/`` is touched.  A span records calls, inclusive time
and self time (inclusive minus the time of spans nested inside it).
Spans are aggregated per name in memory as they close: a pipe op makes
hundreds of ``fill_rectangle`` calls, so keeping each one would cost
more memory than the workload itself.
"""

import importlib
import time

#: (span name, module, class or None for a module function, attribute).
#: ``core.parse`` wraps ``split_lines_tolerant``, which every caller
#: reaches (``split_lines`` only delegates to it).  ``channel.flush``
#: covers both ``send`` and ``flush``; writes the event core retries
#: later from a writable watch are not in it.
#: ``eventcore.handler`` wraps the one place the event core calls a
#: ready watch's handler; it is not reported itself, but subtracting it
#: from ``eventcore.poll`` leaves the time spent waiting on the peer.
TARGETS = (
    ("core.command", "repro.core.wafe", "Wafe", "run_command_line"),
    ("core.wafe_init", "repro.core.wafe", "Wafe", "__init__"),
    ("xt.create_widget", "repro.core.wafe", "Wafe", "create_widget"),
    ("core.parse", "repro.core.channel", "LineParser",
     "split_lines_tolerant"),
    ("channel.flush", "repro.core.channel", "OutboundChannel", "send"),
    ("channel.flush", "repro.core.channel", "OutboundChannel", "flush"),
    ("tcl.eval", "repro.tcl.interp", "Interp", "eval"),
    ("tcl.compile", "repro.tcl.interp", "Interp", "compile_script"),
    ("xt.dispatch_event", "repro.xt.app", "XtAppContext", "dispatch_event"),
    ("xt.query_resource", "repro.xt.app", "XtAppContext", "query_resource"),
    ("xt.handle_expose", "repro.xt.widget", "Widget", "handle_expose"),
    ("eventcore.poll", "repro.xt.eventcore", "EventCore", "poll"),
    ("eventcore.handler", "repro.xt.eventcore", "EventCore",
     "_dispatch_watch"),
    ("eventcore.accept", "repro.xt.eventcore", "EventCore",
     "accept_connection"),
    ("xlib.draw_string", "repro.xlib.graphics", None, "draw_string"),
    ("xlib.fill_rectangle", "repro.xlib.graphics", None, "fill_rectangle"),
    ("xlib.flush_damage", "repro.xlib.display", "Display", "flush_damage"),
    ("server.session_init", "repro.server.session", "Session", "__init__"),
    ("server.session_end", "repro.server.session", "Session", "end"),
)


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs the spans of :data:`TARGETS` while :meth:`install` is in
    effect; :meth:`uninstall` puts every original back."""

    def __init__(self):
        self.stats = {name: SpanStats() for name, *__ in TARGETS}
        #: Inclusive time of spans entered with no span open: the part
        #: of the traced wall time that some span accounts for.
        self.top_time = 0.0
        #: Called with each Session after its traced ``end`` returns, so
        #: the counters of sessions that die inside a window are kept.
        self.on_session_end = None
        self._stack = []
        self._saved = []

    def install(self):
        for name, module_name, class_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapper = self._span(name, original)
            if name == "server.session_end" and self.on_session_end:
                wrapper = self._after(wrapper, self.on_session_end)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span(self, name, func):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_time += elapsed

        return span

    @staticmethod
    def _after(wrapper, hook):
        def end(session, *args, **kwargs):
            try:
                return wrapper(session, *args, **kwargs)
            finally:
                hook(session)

        return end


#: Spans each workload must exercise (zero calls fails the self-check).
#: ``xlib.flush_damage`` is also the event queue's flush point, checked
#: on every ``pending()``, so it runs even where nothing is drawn.
PREDICTED_NONZERO = {
    "pipe_primefactors": (
        "core.command", "core.parse", "channel.flush", "tcl.eval",
        "tcl.compile", "xt.dispatch_event", "xt.handle_expose",
        "eventcore.poll", "eventcore.handler", "xlib.draw_string",
        "xlib.fill_rectangle", "xlib.flush_damage"),
    "socket_tcl_logic": (
        "core.command", "core.parse", "channel.flush", "tcl.eval",
        "tcl.compile", "eventcore.poll", "eventcore.handler",
        "xlib.flush_damage"),
    "socket_session_churn": (
        "core.command", "core.parse", "channel.flush", "tcl.eval",
        "tcl.compile", "xt.dispatch_event", "xt.handle_expose",
        "xt.query_resource", "xt.create_widget", "eventcore.poll",
        "eventcore.handler", "eventcore.accept", "xlib.draw_string",
        "xlib.fill_rectangle", "xlib.flush_damage", "server.session_init",
        "core.wafe_init", "server.session_end"),
}

#: Spans that must stay at zero calls: nothing is drawn on
#: socket_tcl_logic, and the pipe workload has no server.
PREDICTED_ZERO = {
    "pipe_primefactors": ("server.session_init", "server.session_end",
                          "eventcore.accept"),
    "socket_tcl_logic": ("xlib.draw_string", "xlib.fill_rectangle",
                         "server.session_init"),
    "socket_session_churn": (),
}


#: Workloads that draw: the pixel counter must move on these and only
#: these.
DRAWS = ("pipe_primefactors", "socket_session_churn")


def self_check(workload, tracer, metrics):
    """Problems with the trace of one run; empty when it passes."""
    problems = []
    pixels = metrics["xlib.drawn_pixels_per_op"]
    if (pixels != 0) != (workload in DRAWS):
        problems.append("xlib.drawn_pixels_per_op is %g, predicted %s"
                        % (pixels, "non-zero" if workload in DRAWS
                           else "zero"))
    for name in PREDICTED_NONZERO[workload]:
        if tracer.stats[name].calls == 0:
            problems.append("span %s recorded no calls" % name)
    for name in PREDICTED_ZERO[workload]:
        if tracer.stats[name].calls != 0:
            problems.append("span %s recorded %d calls, predicted none"
                            % (name, tracer.stats[name].calls))
    return problems
