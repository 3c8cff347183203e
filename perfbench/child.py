"""Run one workload's commands through inglenook.cli.run in this process.

Started by run.py, which writes the run's settings to stdin as JSON.  This
process holds only the program and the input generator, so its peak RSS
is the program's.  Each round is written to stdout as one JSON line as soon
as it ends, and the last line is a summary:

  {"phase": "plain" | "traced", "round": i, "ops": [[exit code, seconds, stdout], ...],
   "spans": [[start, end], ...]}
  {"summary": {...}}

With tracing off, a probe (Probe below) times a fixed piece of the
benchmark's own work every PROBE_PERIOD_S, interleaved with the program's,
so that run.py can correct each command's time for the host's speed at
that moment; an op's seconds leave out the probe's own time.  With tracing
on there is no probe: the rounds that fit in half the run are made untraced
and then made again, with the same inputs, traced; the ratio of the two is
the tracing overhead.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import resource
import signal
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


PROBE_PERIOD_S = 0.5


class Probe:
    """Sorts a fixed list of 10,000 tuples every PROBE_PERIOD_S from a
    timer signal, so it runs in this process, on whatever core the program
    runs on, between the program's bytecodes.  Sorting follows pointers
    through about 0.7 MB of objects, so it slows down as the program does
    when the host's other tenants crowd the core and its caches.  Only the
    second of two sorts is timed: the first brings the list back into the
    caches the program has just used, so the timed one does not depend on
    how much of them the program's own work evicted."""

    def __init__(self):
        rng = random.Random(0)
        self.rows = [(rng.randrange(8), rng.randrange(8), i) for i in range(10000)]
        rng.shuffle(self.rows)
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.spent = 0.0    # seconds inside the handler, overhead included

    def _tick(self, signum, frame) -> None:
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        sorted(self.rows)
        start = perf_counter()
        sorted(self.rows)
        self.samples.append((start, perf_counter() - start))
        if collecting:
            gc.enable()
        self.spent += perf_counter() - entered

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    settings = json.loads(sys.stdin.read())
    out = sys.stdout
    sys.path.insert(0, str(ROOT / "src"))
    started = perf_counter()
    from inglenook import cli
    import_s = perf_counter() - started

    from inputs import Bench, round_ops
    from rules import parse_position

    bench = Bench.from_json(settings["bench"])
    source = parse_position(bench.plan, settings["source"])
    workload, seed = settings["workload"], settings["seed"]
    summary = {"import_s": import_s}

    def run_round(i: int, phase: str) -> float:
        ops, spans = [], []
        for op in round_ops(bench, workload, seed, i, source):
            first = "rss_before_kb" not in summary
            if first:
                summary["rss_before_kb"] = rss_kb()
            buf = io.StringIO()
            probed = probe.spent
            start = perf_counter()
            try:
                with redirect_stdout(buf):
                    code = cli.run(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
            end = perf_counter()
            probed = probe.spent - probed
            ops.append([code, end - start - probed, buf.getvalue()])
            spans.append([start, end])
            if first:
                summary["maxrss_after_first_kb"] = peak_kb()
        out.write(json.dumps({"phase": phase, "round": i, "ops": ops, "spans": spans}) + "\n")
        out.flush()
        return sum(op[1] for op in ops)

    summary["ready"] = perf_counter()
    probe = Probe()
    if not settings["trace"]:
        probe.start()
    began = perf_counter()
    budget = settings["seconds"] / (2 if settings["trace"] else 1)
    rounds = 0
    plain_s = 0.0
    while rounds == 0 or perf_counter() - began < budget:
        plain_s += run_round(rounds, "plain")
        rounds += 1
    if not settings["trace"]:
        probe.stop()
        summary["probes"] = probe.samples
    summary["maxrss_kb"] = peak_kb()

    if settings["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced_s = sum(run_round(i, "traced") for i in range(rounds))
        summary["layers"] = tracer.report()
        summary["overhead_ratio"] = traced_s / plain_s
    out.write(json.dumps({"summary": summary}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
