"""Spans around comdb's public functions, recorded from outside the package.

``instrument`` wraps every public module-level function of ``coql.parser``,
``coql.resolver``, ``algebra``, ``engine`` and ``model`` (plus the public
methods of ``engine.Database``) and rebinds each wrapper wherever a comdb
module holds the original, so calls made through ``from x import f`` names
are seen too.  Nothing under ``src/`` changes; ``restore`` undoes it.

Each call becomes a span: function name, start, end, parent span and the id
of the benchmark op it belongs to.  Spans stay in memory until ``dump``.
Per-element functions (``evaluate`` once per candidate, ``insert_element``
once per row) would make millions of spans, so under any one parent span
only the first ``FOLD_AFTER`` calls of a function get their own span; later
calls fold into one aggregate span that keeps their count and summed
duration.  Call counts and times per function are exact either way.

A function's self time is its duration minus the time its child spans
cover.  Its time is summed over outermost calls only, so recursion (the
predicate interpreter, ``star_deproject`` into a product) is not counted
twice.
"""

from __future__ import annotations

import gc
import inspect
import json
import sys
from time import perf_counter

MODULES = ("comdb.coql.parser", "comdb.coql.resolver", "comdb.algebra",
           "comdb.engine", "comdb.model")
FOLD_AFTER = 64
STAR = ("algebra.star_project", "algebra.star_deproject")
WALKS = ("algebra.project", "algebra.deproject")
STEP_OPS = ("algebra.project", "algebra.project_values", "algebra.deproject",
            "algebra.star_project", "algebra.star_deproject", "algebra.infer")


class Frame:
    __slots__ = ("name", "start", "busy", "child", "span", "top", "walks", "rows")

    def __init__(self, name, start, span, top):
        self.name = name
        self.start = start
        self.busy = 0.0
        self.child = 0.0
        self.span = span
        self.top = top
        self.walks = 0   # star steps: project/deproject calls made, rows they returned
        self.rows = 0


class Tracer:
    def __init__(self):
        # span: [name, parent span, op id, start, end, calls, busy seconds]
        self.spans: list[list] = []
        self.stack: list[Frame] = []
        self.fanout: dict[tuple, int] = {}
        self.folded: dict[tuple, int] = {}
        self.depth: dict[str, int] = {}
        # name -> [calls, outermost calls, outermost seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.count: dict[str, float] = {}
        self.op = -1
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    # --- span bookkeeping ---

    def enter(self, name: str) -> Frame:
        stack = self.stack
        parent = stack[-1].span if stack else -1
        key = (parent, name)
        k = self.fanout.get(key, 0)
        self.fanout[key] = k + 1
        if k < FOLD_AFTER:
            span = len(self.spans)
            self.spans.append([name, parent, self.op, 0.0, 0.0, 0, 0.0])
        else:
            span = self.folded.get(key)
            if span is None:
                span = self.folded[key] = len(self.spans)
                self.spans.append([name, parent, self.op, 0.0, 0.0, 0, 0.0])
        d = self.depth.get(name, 0)
        self.depth[name] = d + 1
        frame = Frame(name, 0.0, span, d == 0)
        stack.append(frame)
        frame.start = t = perf_counter()
        rec = self.spans[span]
        if rec[5] == 0:
            rec[3] = t
        return frame

    def pause(self, frame: Frame) -> None:
        """Stop the clock on a frame (a generator handing out an item)."""
        t = perf_counter()
        dur = t - frame.start
        frame.busy += dur
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dur
        self.spans[frame.span][4] = t

    def resume(self, frame: Frame) -> None:
        self.stack.append(frame)
        frame.start = perf_counter()

    def close(self, frame: Frame) -> float:
        """Count a finished call whose clock is stopped; returns its busy time."""
        rec = self.spans[frame.span]
        rec[5] += 1
        rec[6] += frame.busy
        self.depth[frame.name] -= 1
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = [0, 0, 0.0, 0.0]
        st[0] += 1
        st[3] += frame.busy - frame.child
        if frame.top:
            st[1] += 1
            st[2] += frame.busy
        return frame.busy

    def leave(self, frame: Frame) -> float:
        self.pause(frame)
        return self.close(frame)

    def add(self, counter: str, value: float) -> None:
        self.count[counter] = self.count.get(counter, 0.0) + value

    def peak(self, counter: str, value: float) -> None:
        self.count[counter] = max(self.count.get(counter, 0.0), value)

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    # --- garbage collector ---

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def watch_gc(self, on: bool) -> None:
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)

    # --- results ---

    def top(self, name: str) -> tuple[int, float]:
        st = self.stats.get(name)
        return (st[1], st[2]) if st else (0, 0.0)

    def mean_ms(self, name: str) -> float:
        n, t = self.top(name)
        return 1e3 * t / n if n else 0.0

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, outermost seconds, self seconds), dearest self time first."""
        rows = [(n, s[0], s[2], s[3]) for n, s in self.stats.items()]
        return sorted(rows, key=lambda r: -r[3])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["name", "parent", "op", "start", "end", "calls", "busy_s"],
                "spans": self.spans,
                "self_time": [list(r) for r in self.self_times()],
            }, fh, separators=(",", ":"))


# --- per-function observations -----------------------------------------------------------


def _observe(tracer: Tracer, frame: Frame, args, result, dur: float) -> None:
    """Counts taken where the work happens; called after a span closes."""
    name = frame.name
    parent = tracer.parent_name()
    if name in WALKS and parent in STAR:
        tracer.add("path_walks", 1)
        tracer.stack[-1].walks += 1
        tracer.stack[-1].rows += len(result)
    if name in STAR and frame.walks:
        tracer.peak("path_walks_max", frame.walks)
        tracer.add("walking_star_calls", 1)
        tracer.add("star_path_rows", frame.rows)
        tracer.add("star_union_rows", len(result))
    if name in STEP_OPS and parent == "engine.execute":
        tracer.add("steps", 1)
        tracer.add("rows_in", len(args[1]))
        tracer.add("rows_out", len(result))
    if name == "coql.resolver.resolve":
        for step in result.steps:
            legs = [getattr(step, "paths", ())]
            for route in getattr(step, "routes", ()):
                legs += [route.down_paths, route.up_paths]
            for leg in legs:
                if leg:
                    tracer.peak("plan_paths_max", len(leg))
                    tracer.add("planned_star_steps", 1)
                    tracer.add("plan_paths", len(leg))
    elif name == "engine.load_csv":
        tracer.add("csv_rows", result.inserted + len(result.rejected))
    elif name == "model.insert_element" and parent == "engine.load_csv":
        tracer.add("insert_in_csv", dur)


def _pairs_examined(db, product, restrict) -> int:
    n = 1
    for alias, cname in product.factors:
        keys = db.collections[cname].elements.keys()
        n *= len(keys & restrict[alias]) if restrict and alias in restrict else len(keys)
    return n


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # the span covers the time spent producing items, not the consumer's
        def traced_gen(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                if name == "algebra.iter_members":
                    restrict = args[2] if len(args) > 2 else kwargs.get("restrict")
                    tracer.add("pairs_examined", _pairs_examined(args[0], args[1], restrict))
                gen = fn(*args, **kwargs)
            finally:
                tracer.pause(frame)
            emitted = 0
            try:
                while True:
                    tracer.resume(frame)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.pause(frame)
                    emitted += 1
                    yield item
            finally:
                tracer.close(frame)
                if name == "algebra.iter_members":
                    tracer.add("pairs_emitted", emitted)

        traced_gen.__wrapped__ = fn
        return traced_gen

    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.leave(frame)
        _observe(tracer, frame, args, result, dur)
        return result

    traced.__wrapped__ = fn
    return traced


def instrument(tracer: Tracer) -> list:
    """Wrap the public functions; returns the patches ``restore`` undoes."""
    wrappers: dict[int, object] = {}
    patches = []
    for modname in MODULES:
        mod = sys.modules[modname]
        short = modname.removeprefix("comdb.")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{short}.{attr}", obj))
    db_class = sys.modules["comdb.engine"].Database
    for attr, obj in list(vars(db_class).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            patches.append((db_class, attr, obj))
            setattr(db_class, attr, _wrap(tracer, f"engine.Database.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "comdb" and not modname.startswith("comdb."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return patches


def restore(patches: list) -> None:
    for owner, attr, obj in reversed(patches):
        setattr(owner, attr, obj)


def layer_metrics(tr: Tracer, query_ops: int, wall_s: float, overhead: float) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    c = tr.count.get

    def ratio(a, b):
        return a / b if b else 0.0

    evals, eval_s = tr.top("coql.resolver.evaluate")
    csv_n, csv_s = tr.top("engine.load_csv")
    ins_n, ins_s = tr.top("model.insert_element")
    parse_n, parse_s = tr.top("coql.parser.parse_query")
    res_n, res_s = tr.top("coql.resolver.resolve")
    return {
        "coql.parse_us": (ratio(1e6 * parse_s, parse_n), "us"),
        "resolver.resolve_us": (ratio(1e6 * res_s, res_n), "us"),
        "resolver.plan_paths": (ratio(c("plan_paths", 0), c("planned_star_steps", 0)), "paths/step"),
        "algebra.path_walks": (ratio(c("path_walks", 0), c("walking_star_calls", 0)), "walks/step"),
        "algebra.star_overlap": (ratio(c("star_path_rows", 0), c("star_union_rows", 0)), "ratio"),
        "algebra.star_project_ms": (tr.mean_ms("algebra.star_project"), "ms"),
        "algebra.star_deproject_ms": (tr.mean_ms("algebra.star_deproject"), "ms"),
        "algebra.project_ms": (tr.mean_ms("algebra.project"), "ms"),
        "algebra.deproject_ms": (tr.mean_ms("algebra.deproject"), "ms"),
        "algebra.infer_ms": (tr.mean_ms("algebra.infer"), "ms"),
        "algebra.rows_in": (ratio(c("rows_in", 0), c("steps", 0)), "rows/step"),
        "algebra.rows_out": (ratio(c("rows_out", 0), c("steps", 0)), "rows/step"),
        "resolver.eval_calls": (ratio(evals, query_ops), "calls/op"),
        "resolver.eval_ms": (ratio(1e3 * eval_s, query_ops), "ms/op"),
        "algebra.iter_members_ms": (tr.mean_ms("algebra.iter_members"), "ms"),
        "algebra.pairs_examined": (ratio(c("pairs_examined", 0),
                                         tr.top("algebra.iter_members")[0]), "pairs/call"),
        "algebra.pairs_emitted": (ratio(c("pairs_emitted", 0),
                                        tr.top("algebra.iter_members")[0]), "pairs/call"),
        "algebra.pair_yield": (ratio(c("pairs_emitted", 0), c("pairs_examined", 0)), "ratio"),
        "engine.execute_ms": (tr.mean_ms("engine.execute"), "ms"),
        "engine.build_result_ms": (tr.mean_ms("engine.build_result"), "ms"),
        "engine.render_ms": (tr.mean_ms("engine.render"), "ms"),
        "engine.csv_decode_us": (ratio(1e6 * (csv_s - c("insert_in_csv", 0)), c("csv_rows", 0)),
                                 "us/row"),
        "model.insert_us": (ratio(1e6 * ins_s, ins_n), "us"),
        "runtime.gc_ms": (ratio(1e3 * tr.gc_seconds, wall_s), "ms/s"),
        "runtime.gc_gen2": (ratio(tr.gc_gen2, wall_s), "1/s"),
        "runtime.tracing_overhead": (overhead, "ratio"),
    }
