"""Wafe's end-to-end benchmark, with a traced mode for per-layer numbers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipe_primefactors --seed 1 \\
        --seconds 30 --trace 0

Wafe runs in this process, imported from ``src/``, and it and its peer
process share one CPU and a fixed string hash seed.  A run launches one long-lived instance and drives
the closed loop on it for ``--seconds`` in ``SEGMENTS`` parts; before
each part it times fresh launches of other instances, each up to its
first verified reply.  Every op's reply is checked against a reference
the generator computed from the seed.

The host changes speed by up to twice in spells of a second or less, and
drifts over minutes.  So the loop runs in chunks of ``CHUNK`` seconds
with a fixed pure-Python probe loop timed between them, and every launch
between two probes, and each time is calibrated: multiplied by
``PROBE_REF_MS`` over the mean of the probes around it.  The reported
times are those of a host on which the probe takes ``PROBE_REF_MS``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the
same loop into alternating untraced and traced windows and prints the
per-layer metrics: span times and counter deltas per op from the traced
windows, the tracing overhead from comparing the two kinds of window,
and a self-check that every span predicted to fire did and every span
predicted to stay silent did.

Human-readable lines come first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op was verified (and, traced, the
self-check passed).
"""

import argparse
import gc
import json
import math
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: The timed loop runs in SEGMENTS equal parts on one long-lived
#: instance; before each part, LAUNCHES_PER_SEGMENT fresh instances are
#: launched and timed for ``setup_s``, so the launches spread over the
#: whole run.
SEGMENTS = 8
LAUNCHES_PER_SEGMENT = 8
#: Seconds of timed loop between two host probes.
CHUNK = 0.1
#: The host probe: PROBE_LOOPS turns of a fixed pure-Python loop, which
#: took PROBE_REF_MS (the median over a run) on the host the benchmark
#: was tuned on, an Intel Xeon virtual machine with two CPUs.
PROBE_LOOPS = 16000
PROBE_REF_MS = 3.0
#: RSS is sampled this often during the timed loop; ``rss_peak_mb`` is
#: the median over RSS_SLICE-second slices of each slice's largest
#: sample.  Ended sessions wait for the cyclic collector, so the
#: process's RSS saw-tooths; a slice peak catches each tooth, and the
#: median keeps the rare tooth that outgrows the rest from deciding the
#: value of a whole run.
RSS_EVERY = 0.01
RSS_SLICE = 1.0
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
#: Every run, and the peer it starts, hashes strings with this seed.
HASH_SEED = "0"
#: A traced run alternates this many untraced and traced windows,
#: starting untraced, so both kinds span the host's slow and fast spells.
TRACE_WINDOWS = 10


def pin_to_one_cpu():
    """Run this process, and the peer it starts, on one CPU.  Each op is
    a closed-loop exchange, so only one of the two runs at a time; on
    one CPU no op waits for the other CPU to wake, and the host probe
    times the CPU that does all of the work."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list, and how many samples
    lie beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class _Counter:
    """The probe loop's object: a method call, string formatting and an
    ``len`` per turn, the kind of work Wafe's interpreter does most."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def step(self, x):
        return self.base + x + len(str(x % 1000))


class HostProbe:
    """Times the probe loop and turns wall times into calibrated ones."""

    def __init__(self):
        self.samples_ms = []

    def probe(self):
        started = time.perf_counter()
        counter = _Counter(3)
        total = 0
        for i in range(PROBE_LOOPS):
            total = counter.step(i) % 100003
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    @staticmethod
    def scale(before_ms, after_ms):
        """Factor from wall time to calibrated time for work done
        between probes that took ``before_ms`` and ``after_ms``."""
        return PROBE_REF_MS / ((before_ms + after_ms) / 2.0)

    def median_ms(self):
        return statistics.median(self.samples_ms)


def timed_launches(workload, host):
    """Launch, time up to the first verified reply, and stop
    LAUNCHES_PER_SEGMENT fresh instances; returns their calibrated
    setup times."""
    samples = []
    for __ in range(LAUNCHES_PER_SEGMENT):
        before = host.probe()
        started = time.perf_counter()
        instance = workload.launch()
        took = time.perf_counter() - started
        samples.append(took * host.scale(before, host.probe()))
        workload.stop(instance)
        # Ended instances hold cycles (and a framebuffer each); left to
        # the collector, their memory and their collection would be
        # counted in the timed loop.
        gc.collect()
    return samples


def timed_loop(workload, instance, seconds, windows, host, outcome):
    """``seconds`` of closed loop on ``instance`` in CHUNK-second pieces,
    probing the host between pieces; adds the calibrated ops to
    ``outcome``.  Only the pieces count in ``windows``."""
    workload.begin(instance)
    before = host.probe()
    spent = 0.0
    while spent < seconds:
        windows.resume()
        piece = workload.run(instance, min(CHUNK, seconds - spent),
                             windows.tick)
        windows.pause()
        after = host.probe()
        scale = host.scale(before, after)
        windows.calibrate(scale)
        outcome.extend(piece, scale)
        spent += piece.elapsed
        before = after
    workload.end(instance)


def rss_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


def channel_counters(channel, interp, display):
    """The public counters of one Wafe instance."""
    caches = interp.cache_stats()
    hits = sum(caches[k]["hits"] for k in ("parse", "compile", "bytecode"))
    misses = sum(caches[k]["misses"]
                 for k in ("parse", "compile", "bytecode"))
    return {"writes": channel.stats["pipe_writes"],
            "bytes": channel.stats["bytes_written"],
            "cmds": interp.eval_stats()["cmd_count"],
            "cache_hits": hits,
            "cache_lookups": hits + misses,
            "pixels": display.render_stats["drawn_pixels"]}


def add_into(total, counters, sign=1):
    for key, value in counters.items():
        total[key] = total.get(key, 0) + sign * value


class Windows:
    """Accounts wall time, CPU time, ops and counters per kind of window
    (False: untraced, True: traced) and switches tracing between them.

    The timed loop opens a window for each piece of loop and closes it
    before probing the host.  The kind switches only between pieces,
    once the current kind has run for its share of the loop, so each
    piece is wholly traced or wholly untraced and its calibration
    applies to one kind."""

    def __init__(self, workload, instance, tracer, seconds):
        self.workload = workload
        self.instance = instance
        self.tracer = tracer
        self.length = seconds / TRACE_WINDOWS if tracer else math.inf
        self.wall = {False: 0.0, True: 0.0}
        self.calibrated = {False: 0.0, True: 0.0}
        self.cpu = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self.counters = {}
        self.rss_peaks = {}
        self.next_rss = 0.0
        self.traced = False
        self.in_kind = 0.0
        self.loop_time = 0.0
        if tracer is not None:
            tracer.on_session_end = self._session_ended

    def _session_ended(self, session):
        add_into(self.counters, channel_counters(
            session, session.wafe.interp, session.wafe.app.default_display))

    def _live_counters(self, sign):
        for channel in self.workload.channels(self.instance):
            add_into(self.counters, channel_counters(*channel), sign)

    def resume(self):
        if self.in_kind >= self.length:
            self.traced = not self.traced
            self.in_kind = 0.0
        self.opened = time.perf_counter()
        self.ops_at_open = self.workload.ops_done()
        self.cpu_at_open = time.process_time()
        if self.traced:
            self._live_counters(-1)
            self.tracer.install()

    def pause(self):
        if self.traced:
            self.tracer.uninstall()
            self._live_counters(+1)
        self.last = time.perf_counter() - self.opened
        self.wall[self.traced] += self.last
        self.in_kind += self.last
        self.loop_time += self.last
        self.cpu[self.traced] += time.process_time() - self.cpu_at_open
        self.ops[self.traced] += self.workload.ops_done() - self.ops_at_open

    def calibrate(self, scale):
        """Calibrate the piece just closed by ``scale``."""
        self.calibrated[self.traced] += self.last * scale

    def tick(self):
        now = time.perf_counter()
        if now >= self.next_rss:
            self.next_rss = now + RSS_EVERY
            slice_ = int((self.loop_time + now - self.opened) / RSS_SLICE)
            self.rss_peaks[slice_] = max(self.rss_peaks.get(slice_, 0.0),
                                         rss_mb())


def end_to_end(outcome, setup_samples, rss_peaks):
    ordered = sorted(outcome.latencies_ms)
    p99, beyond = percentile(ordered, 99)
    verified = outcome.attempted - outcome.failed
    n = len(ordered)
    rows = [
        ("setup_s", statistics.median(setup_samples), "s",
         "median of %d fresh starts" % len(setup_samples)),
        ("ops_per_s", verified / outcome.elapsed, "1/s",
         "%d verified ops over %.2f s, %.1f/s uncalibrated"
         % (verified, outcome.wall, verified / outcome.wall)),
        ("op_p50_ms", statistics.median(ordered), "ms", "n=%d" % n),
        ("op_p99_ms", p99, "ms", "n=%d, %d samples beyond" % (n, beyond)),
        ("rss_peak_mb", statistics.median(rss_peaks), "MB",
         "RSS of the Wafe process: median of %d per-second peaks"
         % len(rss_peaks)),
    ]
    if beyond < 10:
        print("warning: only %d samples beyond p99" % beyond)
    return rows


def per_layer(tracer, windows, unreclaimed_peak):
    stats = tracer.stats
    ops = max(1, windows.ops[True])
    counters = windows.counters

    def calls(span):
        return (span + ".calls", stats[span].calls / ops, "calls/op")

    def self_ms(span, metric=None):
        return ((metric or span + ".self_ms"),
                stats[span].self_time * 1000.0 / ops, "ms/op")

    def per_op(metric, key, unit):
        return (metric, counters.get(key, 0) / ops, unit)

    lookups = counters.get("cache_lookups", 0)
    untraced_rate = windows.ops[False] / max(windows.calibrated[False], 1e-9)
    traced_rate = windows.ops[True] / max(windows.calibrated[True], 1e-9)
    rows = [
        calls("core.command"),
        ("core.command.ms", stats["core.command"].total * 1000.0 / ops,
         "ms/op"),
        self_ms("core.parse"),
        self_ms("channel.flush"),
        per_op("channel.writes_per_op", "writes", "writes/op"),
        per_op("channel.bytes_per_op", "bytes", "B/op"),
        calls("tcl.eval"),
        self_ms("tcl.eval"),
        per_op("tcl.cmds_per_op", "cmds", "cmds/op"),
        calls("tcl.compile"),
        self_ms("tcl.compile"),
        ("tcl.cache_hit_ratio",
         counters.get("cache_hits", 0) / lookups if lookups else 0.0,
         "ratio"),
        calls("xt.dispatch_event"),
        self_ms("xt.dispatch_event"),
        self_ms("xt.handle_expose"),
        calls("xt.query_resource"),
        self_ms("xt.query_resource"),
        self_ms("xt.create_widget"),
        calls("eventcore.poll"),
        self_ms("eventcore.poll", "eventcore.wait_ms"),
        calls("eventcore.accept"),
        calls("xlib.draw_string"),
        self_ms("xlib.draw_string"),
        calls("xlib.fill_rectangle"),
        self_ms("xlib.flush_damage"),
        per_op("xlib.drawn_pixels_per_op", "pixels", "px/op"),
        self_ms("server.session_init"),
        self_ms("core.wafe_init"),
        self_ms("server.session_end"),
        ("server.unreclaimed_sessions_peak", unreclaimed_peak, "count"),
        ("trace.unattributed_ratio",
         1.0 - tracer.top_time / max(windows.wall[True], 1e-9), "ratio"),
        ("trace.overhead_ratio", untraced_rate / max(traced_rate, 1e-9),
         "ratio"),
        ("host.cpu_ms_per_op",
         windows.cpu[False] * 1000.0 / max(1, windows.ops[False]), "ms/op"),
    ]
    return rows


def print_spans(tracer, windows):
    """Each span's inclusive and self time per op, and as a share of the
    traced op's wall time."""
    ops = max(1, windows.ops[True])
    op_ms = windows.wall[True] * 1000.0 / ops
    print("  spans per op (traced op wall time %.4g ms):" % op_ms)
    for name, stats in tracer.stats.items():
        total, own = stats.total * 1000.0 / ops, stats.self_time * 1000.0 / ops
        print("    %-24s %9.4g ms incl %5.1f%%  %9.4g ms self %5.1f%%"
              % (name, total, 100.0 * total / op_ms, own,
                 100.0 * own / op_ms))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no Wafe sources under %s\n" % SRC)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes, and with them dict and set layouts, would
        # otherwise differ from run to run; the peers inherit the seed.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    pin_to_one_cpu()
    host = HostProbe()
    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    tracer = tracing.Tracer() if args.trace else None
    outcome = workloads.Outcome()
    setup_samples = []
    instance = None
    try:
        # The long-lived instance doubles as the warm-up launch: imports
        # and process-wide caches are paid by it, not by a timed launch.
        instance = workload.launch()
        windows = Windows(workload, instance, tracer, args.seconds)
        for __ in range(SEGMENTS):
            setup_samples += timed_launches(workload, host)
            timed_loop(workload, instance, args.seconds / SEGMENTS, windows,
                       host, outcome)
    except workloads.BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        if instance is not None:
            workload.stop(instance)
        workload.close()
    probe = host.median_ms()
    problems = ["%d of %d ops failed: %s" % (outcome.failed, outcome.attempted,
                                             "; ".join(outcome.errors))
                ] if outcome.failed else []
    if tracer is not None:
        rows = per_layer(tracer, windows,
                         getattr(workload, "unreclaimed_peak", 0))
        rows.append(("host.probe_ms", probe, "ms"))
        values = {row[0]: row[1] for row in rows}
        problems += tracing.self_check(args.workload, tracer, values)
    else:
        rows = end_to_end(outcome, setup_samples,
                          list(windows.rss_peaks.values()))
    print("%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for row in rows:
        note = "  (%s)" % row[3] if len(row) > 3 else ""
        print("  %-34s %14.6g %-9s%s" % (row[0], row[1], row[2], note))
    print("  %-34s %14.6g %-9s  (%d of %d ops)" % (
        "failed_ratio", outcome.failed / max(1, outcome.attempted), "ratio",
        outcome.failed, outcome.attempted))
    if tracer is not None:
        print_spans(tracer, windows)
    else:
        print("  %-34s %14.6g %-9s  (median of %d)" % (
            "host.probe_ms", probe, "ms", len(host.samples_ms)))
    for problem in problems:
        print("FAIL: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {row[0]: {"value": row[1], "unit": row[2]}
                    for row in rows},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
