"""comdb benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fact_olap --seed 1 --seconds 45 --trace 0

Builds nothing: it imports comdb from ``src/`` of the checkout it sits in,
and ``tests/oracle.py`` for the ``hard_shapes`` answers.  Inputs are made
from ``--seed`` under ``.perfbench/`` at the checkout root and removed again.

``--trace 0`` runs the workload's ops for ``--seconds`` with no
instrumentation, setting up ``setup_repeats`` times along the way (the
median is ``setup_s``), and prints the end-to-end metrics.  ``--trace 1`` sets up once, runs the ops untraced
for a third of ``--seconds``, then wraps comdb's public functions
(``tracing.py``), sets up and runs the same ops again, and prints the
per-layer metrics; ``runtime.tracing_overhead`` is the traced ops' cost over
the untraced ones', in ``ref`` units.  Both modes check every answer after
the timed loop, and the last line of stdout is one JSON object.

Op times are reported in ``ref`` units.  The host this runs on is shared,
and its speed drifts by a quarter either way over 10-20 s phases; comdb's
ops slow down with it.  So between ops, at most every ``REF_EVERY``
seconds, the loop times ``reference()``, a fixed pure-Python loop of about
7 ms, and each op's time is divided by the median of the ``REF_NEAR``
reference timings nearest to it.  A change that makes comdb faster lowers
its cost in ``ref``; a busy neighbour does not raise it.  The wall-clock
figures are printed beside them, ungated.

End-to-end metrics, in the JSON line (every workload reports all of them):

* ``setup_s``: median over ``setup_repeats`` set-ups of schema load, CSV load
  of the initial collections and product registration, in seconds; the
  set-ups come in ``SEGMENTS`` groups spread over the timed loop;
* ``ops_per_kref``: ops completed per 1000 ``ref`` of op time;
* ``peak_rss_mb``: ``ru_maxrss`` of this process, one workload per process;
* ``<class>_p50_ref`` / ``<class>_p90_ref``: per-class query cost, query
  plus table rendering, for the classes star, infer, scan, agg and join.

Printed in the report only:

* ``error_rate``: failed or wrong ops over ops attempted (rejected CSV rows
  that were planted do not count).  It is 0 when the program is right, so
  it cannot be a bounded ratio; the JSON carries it as ``failed`` and
  ``attempted``.
* the reference loop's median time, ``ops_per_s`` and each class's p50 and
  p90 in ms: wall clock, so they move with the host's speed;
* ``insert_rows_per_s``: rows accepted per second of ingest calls; for the
  read-only workloads, rows loaded by set-up per second of ``setup_s``.
  ``ingest_mix`` (``--workload ingest_mix``) measures it under writes but
  is not in BENCHMARK.json (see ``STEADINESS.md``).

The default seed is 1; seed 7919 is held out, for confirming a claimed gain
on inputs not used while the change was written.  Exit code 2: comdb or the
oracle could not be imported from this checkout; nothing else is printed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
CLIENTS = 1
PERCENTILES = (50, 90)
TRACE_SHARE = 3  # the traced mode's untraced pass gets 1/TRACE_SHARE of --seconds
SEGMENTS = 5     # the plain run's set-ups come in this many groups spread over the run
REF_EVERY = 0.05  # seconds between timings of the reference loop, at least
REF_NEAR = 3      # an op is scaled by the median of this many nearest reference timings

sys.path.insert(0, str(HERE))
from workloads import CLASSES, WORKLOADS  # noqa: E402


def import_comdb():
    """comdb and the oracle from this checkout, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(src))
    try:
        from comdb import engine
        import oracle
    except ImportError as e:
        print(f"perfbench: cannot import comdb and tests/oracle.py from {ROOT}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(engine.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: comdb imported from {engine.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)
    return engine, oracle


def reference(n: int = 20_000) -> int:
    """The fixed reference loop: tuple-keyed dict inserts and str building.

    Its time tracks the host's speed at the moment, the same way comdb's set
    and dict work does; an op's time divided by the reference time measured
    next to it is the op's cost in ``ref`` units.
    """
    d = {}
    for i in range(n):
        d[(i, i & 7)] = str(i)
    return sum(len(v) for v in d.values())


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Clock:
    """Timings of the reference loop, taken between ops, and costs scaled by them."""

    def __init__(self):
        self.ref_t = []   # start of each reference timing
        self.ref_s = []   # and its seconds
        self.last = 0.0

    def calibrate(self, times: int = 1) -> None:
        """Times the reference loop; collector pauses count, as they do for the ops."""
        for _ in range(times):
            t0 = perf_counter()
            reference()
            dt = perf_counter() - t0
            self.ref_t.append(t0)
            self.ref_s.append(dt)
            self.last = t0 + dt

    def due(self) -> bool:
        return perf_counter() - self.last >= REF_EVERY

    def ref_at(self, t: float) -> float:
        """Median of the REF_NEAR reference timings nearest to time ``t``."""
        i = bisect.bisect_left(self.ref_t, t)
        lo = max(0, min(i - REF_NEAR // 2, len(self.ref_t) - REF_NEAR))
        return statistics.median(self.ref_s[lo:lo + REF_NEAR])

    def cost(self, samples) -> list[float]:
        """Each (start, seconds) sample in ``ref`` units."""
        return [dt / self.ref_at(t) for t, dt in samples]


class Loop:
    """Runs ops in a closed loop and keeps what each returned, for checking later."""

    def __init__(self, engine, workload, clock: Clock):
        self.engine = engine
        self.wl = workload
        self.clock = clock
        self.records = []    # (op, outcome); outcome ("error", msg) on exception
        self.latency = {c: [] for c in CLASSES}  # (start, seconds) per query op
        self.ingest = []                          # (start, seconds) per write op
        self.ref_s = 0.0  # reference timings inside the loop, left out of ``wall``
        self.ingest_s = 0.0
        self.rows_in = 0
        self.wall = 0.0
        self.ops = 0
        self.pos = 0  # the next op of a read-only workload's schedule
        self.query_ops = 0
        self.db = None

    def total_cost(self) -> float:
        """All ops' time in ``ref`` units."""
        samples = [s for c in CLASSES for s in self.latency[c]] + self.ingest
        return sum(self.clock.cost(samples))

    def run_op(self, db, op):
        cls, kind, payload = op
        engine = self.engine
        if self.clock.due():
            t = perf_counter()
            self.clock.calibrate()
            self.ref_s += perf_counter() - t
        t0 = perf_counter()
        try:
            if kind == "query":
                rs = db.query(payload[0])
                text = engine.render(rs, "table")
                dt = perf_counter() - t0
                n = len(rs)
                outcome = (rs.identities, rs.rows[:1], text.count("\n") == n + 2
                           and text.endswith(f"({n} row{'' if n == 1 else 's'})"))
            elif kind == "csv":
                report = engine.load_csv(db, "Facts", payload[0])
                dt = perf_counter() - t0
                outcome = (report.inserted, len(report.rejected))
                self.rows_in += report.inserted
            else:
                db.insert("Facts", payload[0], payload[1])
                dt = perf_counter() - t0
                outcome = 1
                self.rows_in += 1
        except Exception as e:  # a failed op is counted, reported, and the loop goes on
            dt = perf_counter() - t0
            outcome = ("error", f"{type(e).__name__}: {e}")
        self.ops += 1
        if kind == "query":
            self.query_ops += 1
            self.latency[cls].append((t0, dt))
        else:
            self.ingest.append((t0, dt))
            self.ingest_s += dt
        self.records.append((op, outcome))

    def run(self, db, seconds: float | None = None, ops: int | None = None,
            rounds: int | None = None):
        """Until ``seconds`` pass, or for ``ops`` ops / ``rounds`` whole rounds.

        Read-only workloads stop after whole template cycles, and a later
        call goes on from the op where this one stopped.  Workloads that
        write run whole rounds, each on a freshly set-up database; the
        set-up between rounds is not timed.
        """
        wl = self.wl
        done_rounds = 0
        self.clock.calibrate(REF_NEAR // 2 + 1)  # the first ops' neighbours
        start = perf_counter()
        ref_s = self.ref_s
        deadline = start + seconds if seconds is not None else None
        reset_s = 0.0
        if wl.writes:
            while True:
                for op in wl.ops:
                    self.run_op(db, op)
                done_rounds += 1
                if ((rounds is None or done_rounds >= rounds)
                        and (deadline is None or perf_counter() >= deadline)):
                    break
                t = perf_counter()
                db = None
                gc.collect()
                db = wl.setup(self.engine)
                reset_s += perf_counter() - t
        else:
            while True:
                self.run_op(db, wl.ops[self.pos % len(wl.ops)])
                self.pos += 1
                if self.pos % wl.cycle:
                    continue
                if ops is not None and self.ops >= ops:
                    break
                if deadline is not None and perf_counter() >= deadline:
                    break
        self.wall += perf_counter() - start - reset_s - (self.ref_s - ref_s)
        self.clock.calibrate(REF_NEAR // 2 + 1)  # and the last ops'
        self.db = db
        return max(done_rounds, 1)


class TracedLoop(Loop):
    """A loop that tags each op's spans with the op's number."""

    def __init__(self, engine, workload, clock, tracer):
        super().__init__(engine, workload, clock)
        self.tracer = tracer

    def run_op(self, db, op):
        self.tracer.op = self.ops
        super().run_op(db, op)


def check(workload, records) -> tuple[int, list]:
    """Compare every outcome with the workload's own answer; returns (failed, notes)."""
    failed = 0
    notes = []
    cache = {}
    for op, outcome in records:
        cls, kind, payload = op
        err = None
        if isinstance(outcome, tuple) and outcome and outcome[0] == "error":
            err = outcome[1]
        elif kind == "query":
            key = id(op) if workload.writes else payload[0]
            want = cache.get(key)
            if want is None:
                want = cache[key] = payload[1]()
            got_ids, got_first, rendered = outcome
            want_ids, want_rows = want if isinstance(want, tuple) else (want, None)
            if got_ids != want_ids:
                err = f"{len(got_ids)} rows, expected {len(want_ids)}"
            elif want_rows is not None and got_first != want_rows:
                err = f"row {got_first} != {want_rows}"
            elif not rendered:
                err = "rendered table does not match the result"
        elif kind == "csv":
            if outcome != (payload[1], payload[2]):
                err = f"inserted/rejected {outcome}, planted {payload[1:]}"
        if err is not None:
            failed += 1
            if len(notes) < 10:
                label = payload[0] if kind != "insert" else f"insert {payload[0]}"
                notes.append(f"{cls} {label}: {err}")
    return failed, notes


def setup_times(workload, engine, repeats: int):
    times = []
    db = None
    for _ in range(repeats):
        db = None
        gc.collect()
        t0 = perf_counter()
        db = workload.setup(engine)
        times.append(perf_counter() - t0)
    return db, times


def element_counts(db) -> dict:
    return {name: len(coll) for name, coll in sorted(db.collections.items())}


def end_to_end(workload, loop: Loop, setup: list) -> tuple[dict, list]:
    """The gated metrics, and report lines for those that are printed only."""
    clock = loop.clock
    setup_s = statistics.median(setup)
    costs = {cls: clock.cost(loop.latency[cls]) for cls in CLASSES}
    if workload.writes:
        rows_per_s = loop.rows_in / loop.ingest_s
    else:
        rows_per_s = workload.rows / setup_s
    m = {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (1e3 * loop.ops / loop.total_cost(), "ops/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for cls in CLASSES:
        for p in PERCENTILES:
            m[f"{cls}_p{p}_ref"] = (percentile(costs[cls], p), "ref")
    lines = [f"{'reference loop':28s} {1e3 * statistics.median(clock.ref_s):.6g} ms median "
             f"of {len(clock.ref_s)} timings (1 ref = its time next to the op)",
             f"{'ops_per_s':28s} {loop.ops / loop.wall:.6g} ops/s"]
    for cls in CLASSES:
        for p in PERCENTILES:
            ms = 1e3 * percentile([dt for _, dt in loop.latency[cls]], p)
            lines.append(f"{f'{cls}_p{p}_ms':28s} {ms:.6g} ms")
    lines.append(f"{'insert_rows_per_s':28s} {rows_per_s:.6g} rows/s")
    return m, ["printed, not gated (wall clock, moves with the host's speed):"] + [
        "  " + line for line in lines]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    engine, oracle = import_comdb()

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        t0 = perf_counter()
        wl = WORKLOADS[args.workload](args.seed, workdir)
        gen_s = perf_counter() - t0
        if args.trace:
            result = run_traced(wl, engine, oracle, args.seconds)
        else:
            result = run_plain(wl, engine, oracle, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loops, metrics, counts, extra = result
    records = [r for lp in loops for r in lp.records]
    failed, notes = check(wl, records)
    attempted = len(records)
    samples = {c: sum(len(lp.latency[c]) for lp in loops) for c in CLASSES}
    print(f"workload {wl.name}  seed {args.seed} (default {DEFAULT_SEED}, "
          f"held out {HELD_OUT_SEED})  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"clients {CLIENTS} (closed loop)  inputs made in {gen_s:.2f} s")
    print("elements: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print("samples per class: " + ", ".join(f"{c} {n}" for c, n in samples.items())
          + f"; percentiles reported p{PERCENTILES[0]} and p{PERCENTILES[1]}")
    print(f"{'error_rate':28s} {failed / attempted:.6f} ratio  ({failed} of {attempted} ops, "
          "printed, not gated)")
    for line in extra:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for note in notes:
        print(f"wrong: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_plain(wl, engine, oracle, seconds: float):
    # The set-ups come in SEGMENTS groups spread over the run, so that their
    # median samples the host's speed at several times; the last database of
    # each group serves the next stretch of the timed loop.
    assert wl.setup_repeats >= SEGMENTS
    loop = Loop(engine, wl, Clock())
    setup = []
    for k in range(SEGMENTS):
        loop.db = None
        db, times = setup_times(wl, engine, len(range(k, wl.setup_repeats, SEGMENTS)))
        setup += times
        if k == 0 and hasattr(wl, "bind_oracle"):
            wl.bind_oracle(db, oracle)
        gc.collect()
        loop.run(db, seconds=(k + 1) * seconds / SEGMENTS - loop.wall)
        db = None
    counts = element_counts(loop.db)
    loop.db = None
    metrics, extra = end_to_end(wl, loop, setup)
    return [loop], metrics, counts, extra


def run_traced(wl, engine, oracle, seconds: float):
    import tracing

    clock = Clock()
    db, _ = setup_times(wl, engine, 1)
    if hasattr(wl, "bind_oracle"):
        wl.bind_oracle(db, oracle)
    gc.collect()
    plain = Loop(engine, wl, clock)
    rounds = plain.run(db, seconds=seconds / TRACE_SHARE)
    db = None
    gc.collect()

    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    tracer.watch_gc(True)
    start = perf_counter()
    try:
        tracer.op = -1
        db = wl.setup(engine)
        traced = TracedLoop(engine, wl, clock, tracer)
        if wl.writes:
            traced.run(db, rounds=rounds)
        else:
            traced.run(db, ops=plain.ops)
    finally:
        wall = perf_counter() - start
        tracer.watch_gc(False)
        tracing.restore(patches)
    out = ROOT / ".perfbench" / f"trace-{wl.name}.json"
    tracer.dump(out)
    overhead = traced.total_cost() / plain.total_cost()  # the same ops, in ref units
    counts = element_counts(traced.db)
    metrics = tracing.layer_metrics(tracer, traced.query_ops, wall, overhead)
    extra = [f"traced {traced.ops} ops in {traced.wall:.2f} s after {plain.ops} untraced "
             f"in {plain.wall:.2f} s; {len(tracer.spans)} spans written to {out.name}",
             f"largest star step: {tracer.count.get('plan_paths_max', 0):.0f} planned paths, "
             f"{tracer.count.get('path_walks_max', 0):.0f} path walks",
             "self time (s), dearest first:"]
    for name, calls, total, self_s in tracer.self_times()[:12]:
        extra.append(f"  {name:36s} {calls:9d} calls  {total:8.3f} total  {self_s:8.3f} self")
    return [plain, traced], metrics, counts, extra


if __name__ == "__main__":
    sys.exit(main())
