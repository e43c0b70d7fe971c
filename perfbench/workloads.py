"""The benchmark's three workloads: seeded inputs, op schedules, expected answers.

Every input comes from one ``random.Random(seed)``; nothing reads the clock or
depends on hash order, so a seed always yields the same schema text, CSV
files, insert calls and query texts.  The program sees only those inputs.

A workload builds its database with ``setup(engine)`` and lists its ops in
``ops``, which the runner plays in a closed loop (one client, no threads).
Read-only workloads cycle through ``ops`` until time is up; a workload that
``writes`` plays ``ops`` as whole rounds, each on a fresh ``setup``.  An op
is ``(cls, kind, payload)``:

* ``query``:  ``Database.query(text)`` then ``engine.render(rs, "table")``;
  payload ``(text, answer)``;
* ``csv``:    ``engine.load_csv(db, "Facts", path)``, a batch of rows;
  payload ``(path, rows it must insert, planted bad rows it must reject)``;
* ``insert``: ``Database.insert("Facts", identity, entity)``.

``cls`` is the latency class the op is reported under (star, infer, scan,
agg, join) or ``ingest``.  Each class is split into three query templates in
equal shares, ordered roughly by cost, so the class median falls inside the
middle template and the p90 inside the dearest one rather than on a step
between two of them.  A read-only schedule is a repeated cycle in which each
template of class c runs ``weights[c]`` times; the runner stops only at the
end of a cycle, so every template keeps its share.  Template parameters are
drawn stratified, in blocks of ``BLOCK`` occurrences, and references are laid
out with fixed fan-in counts (``spread``), so every seed sees the same spread
of selectivities and costs.

``answer()`` recomputes a query's expected identities from the generator's
own knowledge (for the ``hard_shapes`` ladder, from the brute-force oracle
in ``tests/oracle.py``); the runner calls it after the timed loop.
"""

from __future__ import annotations

import bisect
import csv
import random
from decimal import Decimal
from pathlib import Path

CLASSES = ("star", "infer", "scan", "agg", "join")
TEMPLATES = 3  # query templates per class
BLOCK = 12


def strata(rng: random.Random):
    """Endless numbers in [0, 1): each block of BLOCK holds one per stratum."""
    while True:
        block = [(k + rng.random()) / BLOCK for k in range(BLOCK)]
        rng.shuffle(block)
        yield from block


class Params:
    """Per-template stratified parameter streams."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.streams: dict[str, object] = {}

    def u(self, template: str) -> float:
        s = self.streams.get(template)
        if s is None:
            s = self.streams[template] = strata(random.Random(self.rng.random()))
        return next(s)

    def pick(self, template: str, lo: int, hi: int) -> int:
        """A stratified integer in [lo, hi)."""
        return lo + int(self.u(template) * (hi - lo))


def spread(rng: random.Random, sources: int, fanins, dests: int | None = None) -> list[int]:
    """A seeded map of ``sources`` onto destinations with fixed fan-in counts.

    Destination k receives ``fanins[k % len(fanins)]`` sources (destinations
    are shuffled first), so counts, image sizes and hence per-op costs are
    the same under every seed; only which element goes where changes.
    """
    dests = sources if dests is None else dests
    counts = [fanins[k % len(fanins)] for k in range(dests)]
    if sum(counts) != sources:
        raise ValueError(f"fan-ins {fanins} do not map {sources} onto {dests}")
    order = list(range(dests))
    rng.shuffle(order)
    out = [d for d, c in zip(order, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cents_text(c: int) -> str:
    return f"{c // 100}.{c % 100:02d}"


def ids(members) -> list:
    """Identity tuples of single-INT-identity elements, sorted."""
    return sorted((m,) for m in members)


# --- the star schema shared by fact_olap and ingest_mix -------------------------------

STAR_SCHEMA = """
CONCEPT X2 IDENTITY id INT ENTITY tag CHAR(8);
CONCEPT Y2 IDENTITY id INT ENTITY tag CHAR(8);
CONCEPT X1 IDENTITY id INT ENTITY x2 X2 NOT NULL;
CONCEPT Y1 IDENTITY id INT ENTITY y2 Y2 NOT NULL;
CONCEPT Facts IDENTITY id INT
  ENTITY x1 X1 NOT NULL, y1 Y1 NOT NULL, amount DECIMAL(10,2);
"""
XY_PRODUCT = "XY = (X2 x, Y2 y | x.tag == y.tag)"
DIM = 1000
TAGS = 40
FACTS = 100_000


class StarData:
    """The star schema's generated contents, and answers derived from them."""

    def __init__(self, rng: random.Random):
        r = rng.randrange
        self.x2_tag = [f"t{t % TAGS:02d}" for t in spread(rng, DIM, (1,))]
        self.y2_tag = [f"t{t % TAGS:02d}" for t in spread(rng, DIM, (1,))]
        self.x1_x2 = spread(rng, DIM, (0, 2, 1, 1))
        self.y1_y2 = spread(rng, DIM, (0, 2, 1, 1))
        self.f_x1 = spread(rng, FACTS, (80, 120, 90, 110), DIM)
        self.f_y1 = spread(rng, FACTS, (80, 120, 90, 110), DIM)
        self.f_cents = [r(100_000) for _ in range(FACTS)]
        self.tags = sorted(set(self.x2_tag) & set(self.y2_tag))
        self.facts_by_x1: list[list[int]] = [[] for _ in range(DIM)]
        for f, a in enumerate(self.f_x1):
            self.facts_by_x1[a].append(f)  # ascending fact ids
        self.x1s_by_x2: list[list[int]] = [[] for _ in range(DIM)]
        for a, x in enumerate(self.x1_x2):
            self.x1s_by_x2[x].append(a)

    def write_dims(self, d: Path) -> None:
        write_csv(d / "X2.csv", ["id", "tag"], enumerate(self.x2_tag))
        write_csv(d / "Y2.csv", ["id", "tag"], enumerate(self.y2_tag))
        write_csv(d / "X1.csv", ["id", "x2"], enumerate(self.x1_x2))
        write_csv(d / "Y1.csv", ["id", "y2"], enumerate(self.y1_y2))

    def fact_row(self, f: int):
        return (f, self.f_x1[f], self.f_y1[f], cents_text(self.f_cents[f]))

    # answers over the facts with id < bound
    def facts_under_x2(self, xs, bound: int) -> list:
        out = []
        for x in xs:
            for a in self.x1s_by_x2[x]:
                fl = self.facts_by_x1[a]
                out.extend(fl[: bisect.bisect_left(fl, bound)])
        return ids(out)

    def y1s_under_x1(self, xs, bound: int) -> list:
        out = set()
        for a in xs:
            fl = self.facts_by_x1[a]
            out.update(self.f_y1[f] for f in fl[: bisect.bisect_left(fl, bound)])
        return ids(out)

    def y2s_under_x2(self, xs, bound: int) -> list:
        y1s = self.y1s_under_x1([a for x in xs for a in self.x1s_by_x2[x]], bound)
        return ids({self.y1_y2[b] for (b,) in y1s})

    def fact_count(self, a: int, bound: int) -> int:
        return bisect.bisect_left(self.facts_by_x1[a], bound)

    def xy_pairs(self, xs=None, ys=None) -> list:
        xs = range(DIM) if xs is None else xs
        ys = range(DIM) if ys is None else ys
        return sorted(((x,), (y,)) for x in xs for y in ys if self.x2_tag[x] == self.y2_tag[y])


def query(cls: str, text: str, expect):
    return (cls, "query", (text, expect))


def cycle_len(weights: dict) -> int:
    """Ops in one cycle of a read-only schedule: each template of class c runs weights[c] times."""
    return TEMPLATES * sum(weights.values())


# --- fact_olap --------------------------------------------------------------------------


class FactOlap:
    """100k facts under two two-level dimensions, read by seeded query templates."""

    name = "fact_olap"
    writes = False
    setup_repeats = 5
    ops_per_round = 6000
    # a scan takes 50-75 ref against 1-15 for the others: more of those per
    # cycle gives their percentiles more samples
    weights = {"star": 2, "infer": 2, "scan": 1, "agg": 3, "join": 3}
    cycle = cycle_len(weights)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.data = d = StarData(rng)
        self.dir = workdir / "data"
        self.dir.mkdir(parents=True, exist_ok=True)
        d.write_dims(self.dir)
        write_csv(self.dir / "Facts.csv", ["id", "x1", "y1", "amount"],
                  (d.fact_row(f) for f in range(FACTS)))
        self.rows = FACTS + 4 * DIM
        self.ops = self._schedule(Params(rng), rng)

    def setup(self, engine):
        db = engine.Database()
        engine.load_schema(db, STAR_SCHEMA)
        engine.load_data_dir(db, self.dir, strict=True)
        engine.execute_statement(db, XY_PRODUCT)
        return db

    def _schedule(self, p: Params, rng: random.Random) -> list:
        d = self.data
        all_facts = 1 << 62
        tag = lambda: rng.choice(d.tags)  # noqa: E731
        n = {c: 0 for c in CLASSES}

        def star():
            k = n["star"] % TEMPLATES
            if k == 0:
                t = tag()
                return query("star", f"'{t}' <- tag <- (X2) <-* (Facts)",
                             lambda: d.facts_under_x2(
                                 [x for x in range(DIM) if d.x2_tag[x] == t], all_facts))
            if k == 1:
                w = p.pick("star.range", 35, 61)
                a = rng.randrange(DIM - w)
                return query("star", f"(X2 | id >= {a} AND id < {a + w}) <-* (Facts)",
                             lambda: d.facts_under_x2(range(a, a + w), all_facts))
            side = "X2" if n["star"] % 2 else "Y2"
            return query("star", f"(Facts) *-> ({side})", lambda: ids(
                {d.x1_x2[a] for a in d.f_x1} if side == "X2"
                else {d.y1_y2[b] for b in d.f_y1}))

        def infer():
            k = n["infer"] % TEMPLATES
            if k == 0:
                t = tag()
                return query("infer", f"'{t}' <- tag <- (X2) <-*-> (Y2)",
                             lambda: d.y2s_under_x2(
                                 [x for x in range(DIM) if d.x2_tag[x] == t], all_facts))
            if k == 1:
                w = p.pick("infer.x1", 30, 91)
                a = rng.randrange(DIM - w)
                return query("infer", f"(X1 | id >= {a} AND id < {a + w}) <-*-> (Y1)",
                             lambda: d.y1s_under_x1(range(a, a + w), all_facts))
            k2 = p.pick("infer.x2", 300, 901)
            return query("infer", f"(X2 | id < {k2}) <-*-> (Y2)",
                         lambda: d.y2s_under_x2(range(k2), all_facts))

        def scan():
            k = n["scan"] % TEMPLATES
            if k == 0:
                f = p.pick("scan.point", 0, FACTS)
                return query("scan", f"(Facts | id == {f}) -> x1 -> x2",
                             lambda: [(d.x1_x2[d.f_x1[f]],)])
            if k == 1:
                c = p.pick("scan.amount", 100, 1001)
                return query("scan", f"(Facts | amount < {cents_text(c)})",
                             lambda: ids(f for f in range(FACTS) if d.f_cents[f] < c))
            t = tag()
            c = p.pick("scan.dotted", 90_000, 99_000)
            return query("scan", f"(Facts | x1.x2.tag == '{t}' AND amount >= {cents_text(c)})",
                         lambda: ids(f for f in range(FACTS)
                                     if d.x2_tag[d.x1_x2[d.f_x1[f]]] == t
                                     and d.f_cents[f] >= c))

        def agg():
            k = n["agg"] % TEMPLATES
            if k == 0:
                c = p.pick("agg.x2", 0, 3)
                return query("agg", f"(X2 | COUNT(x2 <- (X1)) > {c})",
                             lambda: ids(x for x in range(DIM) if len(d.x1s_by_x2[x]) > c))
            if k == 1:
                m = p.pick("agg.count", 200, 601)
                c = p.pick("agg.count_c", 90, 111)
                return query("agg", f"(X1 | id < {m} AND COUNT(x1 <- (Facts)) > {c})",
                             lambda: ids(a for a in range(m) if len(d.facts_by_x1[a]) > c))
            m = p.pick("agg.sum", 50, 151)
            v = p.pick("agg.sum_v", 4_800_000, 5_200_000)
            return query("agg", f"(X1 | id < {m} AND SUM(x1 <- (Facts).amount) > {cents_text(v)})",
                         lambda: ids(a for a in range(m)
                                     if sum(d.f_cents[f] for f in d.facts_by_x1[a]) > v))

        def join():
            k = n["join"] % TEMPLATES
            if k == 0:
                x = rng.randrange(DIM)
                return query("join", f"(X2 | id == {x}) <-* (XY)", lambda: d.xy_pairs(xs=[x]))
            if k == 1:
                w = p.pick("join.y2", 2, 5)
                b = rng.randrange(DIM - w)
                return query("join", f"(Y2 | id >= {b} AND id < {b + w}) <-* (XY)",
                             lambda: d.xy_pairs(ys=range(b, b + w)))
            w = p.pick("join.x2", 5, 10)
            a = rng.randrange(DIM - w)
            return query("join", f"(X2 | id >= {a} AND id < {a + w}) <-* (XY)",
                         lambda: d.xy_pairs(xs=range(a, a + w)))

        makers = {"star": star, "infer": infer, "scan": scan, "agg": agg, "join": join}
        ops = []
        while len(ops) < self.ops_per_round or len(ops) % self.cycle:
            for cls in CLASSES:
                for _ in range(self.weights[cls]):
                    ops.append(makers[cls]())
                    n[cls] += 1
        return ops


# --- ingest_mix -------------------------------------------------------------------------


class IngestMix:
    """Facts grow from empty to 100k rows in CSV batches and inserts, read as they land."""

    name = "ingest_mix"
    writes = True
    setup_repeats = 10
    batches = 40
    csv_good = 2250
    csv_bad = 25
    inserts = 250

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.data = d = StarData(rng)
        self.dir = workdir / "data"
        self.dir.mkdir(parents=True, exist_ok=True)
        d.write_dims(self.dir)
        self.rows = 4 * DIM
        p = Params(rng)
        per_batch = self.csv_good + self.inserts
        assert per_batch * self.batches == FACTS
        self.ops = []
        for b in range(self.batches):
            base = b * per_batch
            path = self.dir / f"batch{b:03d}.csv"
            rows = [d.fact_row(f) for f in range(base, base + self.csv_good)]
            for j in range(self.csv_bad):
                ghost = 10 * FACTS + b * self.csv_bad + j  # never a valid id
                if j % 2:
                    bad = (ghost, DIM + rng.randrange(DIM), rng.randrange(DIM), "1.00")
                else:
                    bad = (ghost, rng.randrange(DIM), rng.randrange(DIM), "1.0x")
                rows.insert(rng.randrange(len(rows) + 1), bad)
            write_csv(path, ["id", "x1", "y1", "amount"], rows)
            self.ops.append(("ingest", "csv", (str(path), self.csv_good, self.csv_bad)))
            for f in range(base + self.csv_good, base + per_batch):
                entity = {"x1": d.f_x1[f], "y1": d.f_y1[f],
                          "amount": Decimal(cents_text(d.f_cents[f]))}
                self.ops.append(("ingest", "insert", (f, entity)))
            self.ops.extend(self._reads(p, rng, base, base + per_batch))

    def setup(self, engine):
        db = engine.Database()
        engine.load_schema(db, STAR_SCHEMA)
        engine.load_data_dir(db, self.dir, strict=True)
        engine.execute_statement(db, XY_PRODUCT)
        return db

    def _reads(self, p: Params, rng: random.Random, lo: int, hi: int) -> list:
        """One read of each class against the rows of the batch just written."""
        d = self.data
        f = lo + p.pick("fresh", 0, hi - lo)
        row = {"id": f, "x1": (d.f_x1[f],), "y1": (d.f_y1[f],),
               "amount": Decimal(cents_text(d.f_cents[f]))}
        a = min(d.f_x1[f], DIM - 20)
        x = min(d.x1_x2[d.f_x1[f]], DIM - 8)
        c = max(0, hi // DIM - 2 + p.pick("agg.c", 0, 5))
        return [
            query("scan", f"(Facts | id == {f})", lambda: ([(f,)], [row])),
            query("infer", f"(X1 | id >= {a} AND id < {a + 20}) <-*-> (Y1)",
                  lambda: d.y1s_under_x1(range(a, a + 20), hi)),
            query("agg", f"(X1 | id >= {a} AND id < {a + 20} AND COUNT(x1 <- (Facts)) >= {c})",
                  lambda: ids(b for b in range(a, a + 20) if d.fact_count(b, hi) >= c)),
            query("star", f"(X2 | id >= {x} AND id < {x + 8}) <-* (Facts)",
                  lambda: d.facts_under_x2(range(x, x + 8), hi)),
            query("join", f"(X2 | id >= {x} AND id < {x + 3}) <-* (XY)",
                  lambda: d.xy_pairs(xs=range(x, x + 3))),
        ]


# --- hard_shapes ------------------------------------------------------------------------

RUNGS = 10
LADDER = 200
PQ = 200


def ladder_schema() -> str:
    out = [f"CONCEPT N{RUNGS} IDENTITY id INT ENTITY v INT;",
           "CONCEPT S IDENTITY id INT ENTITY v INT;"]
    for i in range(RUNGS - 1, -1, -1):
        for side in ("L", "R"):
            out.append(f"CONCEPT {side}{i} IDENTITY id INT ENTITY v INT, n N{i + 1} NOT NULL;")
        extra = ", s S NOT NULL" if i == 0 else ""
        out.append(f"CONCEPT N{i} IDENTITY id INT "
                   f"ENTITY v INT, l L{i} NOT NULL, r R{i} NOT NULL{extra};")
    out.append("CONCEPT P IDENTITY id INT ENTITY b INT, v INT;")
    out.append("CONCEPT Q IDENTITY id INT ENTITY b INT, v INT;")
    return "\n".join(out)


D_PRODUCT = "D = (P p, Q q | p.b == q.b)"


class HardShapes:
    """A 2^10-path diamond ladder and 200x200 products: expensive shapes, small data."""

    name = "hard_shapes"
    writes = False
    setup_repeats = 30
    ops_per_round = 6000
    # the scan and agg templates take 2-10 ms against 60-470 ms for the others:
    # more of them per cycle gives their percentiles enough samples at little cost
    weights = {"star": 1, "infer": 1, "scan": 6, "agg": 6, "join": 1}
    cycle = cycle_len(weights)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.dir = workdir / "data"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.v: dict[str, list[int]] = {}
        self.refs: dict[str, dict[str, list[int]]] = {}
        names = [f"N{RUNGS}", "S"] + [f"{s}{i}" for i in range(RUNGS) for s in ("L", "R")]
        names += [f"N{i}" for i in range(RUNGS)]
        for c in names:
            self.v[c] = spread(rng, LADDER, (1,))
            refs = {}
            if c[0] in "LR":
                refs["n"] = spread(rng, LADDER, (1,))
            elif c[0] == "N" and int(c[1:]) < RUNGS:
                refs["l"] = spread(rng, LADDER, (1,))
                refs["r"] = spread(rng, LADDER, (1,))
                if c == "N0":
                    refs["s"] = spread(rng, LADDER, (0, 2, 1, 1))
            self.refs[c] = refs
            header = ["id", "v", *refs]
            write_csv(self.dir / f"{c}.csv", header,
                      ([i, self.v[c][i], *(col[i] for col in refs.values())]
                       for i in range(LADDER)))
        self.pq = {}
        for c in ("P", "Q"):
            rows = list(zip(range(PQ), spread(rng, PQ, (1,)), spread(rng, PQ, (1,))))
            self.pq[c] = rows
            write_csv(self.dir / f"{c}.csv", ["id", "b", "v"], rows)
        self.rows = len(names) * LADDER + 2 * PQ
        self.schema_text = ladder_schema()
        self.ops = self._schedule()
        self._oracle = self._reach = None

    def setup(self, engine):
        db = engine.Database()
        engine.load_schema(db, self.schema_text)
        engine.load_data_dir(db, self.dir, strict=True)
        engine.execute_statement(db, D_PRODUCT)
        return db

    def bind_oracle(self, db, oracle) -> None:
        """Answers for the ladder come from the brute-force oracle on the loaded data."""
        self._oracle = (db, oracle)
        self._reach = None

    def _ask(self):
        db, oracle = self._oracle
        if self._reach is None:
            self._reach = oracle.reach_closure(db)
        return db, oracle, self._reach

    # helpers over generated data
    def _walk(self, c: str, i: int, dims: str):
        for dim in dims.split("."):
            i = self.refs[c][dim][i]
            c = {"l": "L", "r": "R"}.get(dim, "N") + str(int(c[1:]) + (dim == "n"))
        return c, i

    def _val(self, c: str, i: int, path: str):
        if path == "v":
            return self.v[c][i]
        c, i = self._walk(c, i, path[: -len(".v")])
        return self.v[c][i]

    def _lessers(self, src: str, dim: str, dest_id: int) -> list[int]:
        return [i for i in range(LADDER) if self.refs[src][dim][i] == dest_id]

    def _star(self, kind: str, source: str, members, target: str):
        def answer():
            db, oracle, reach = self._ask()
            fn = oracle.o_star_project if kind == "up" else oracle.o_star_deproject
            return ids(m for (m,) in fn(db, reach, source, {(m,) for m in members}, target))
        return answer

    def _infer(self, source: str, members, target: str):
        def answer():
            db, oracle, reach = self._ask()
            got, warned = oracle.o_infer(db, reach, source, {(m,) for m in members}, target)
            assert not warned
            return ids(m for (m,) in got)
        return answer

    def _pairs(self, first: str, second: str, keep) -> list:
        a, b = self.pq[first], self.pq[second]
        return sorted(((x[0],), (y[0],)) for x in a for y in b if x[1] == y[1] and keep(x, y))

    def _filter(self, c: str, predicate: str, keep):
        return query("scan", f"({c} | {predicate})", lambda: ids(i for i in range(LADDER) if keep(i)))

    def _schedule(self) -> list:
        v = self.v
        val = self._val
        n = RUNGS

        def deep(sides: str) -> str:
            """An 8-hop path up the ladder, alternating through the given sides."""
            return ".".join(f"{sides[k % len(sides)]}.n" for k in range(8)) + ".v"

        L = range(LADDER)
        p_low = [i for i, _, pv in self.pq["P"] if pv < 60]
        p_b = {b for i, b, pv in self.pq["P"] if pv < 60}
        templates = {
            "star": [
                query("star", f"(N{n} | id < 40) <-* (N0)",
                      self._star("down", f"N{n}", range(40), "N0")),
                query("star", f"(N0 | v < 100) *-> (N{n})",
                      self._star("up", "N0", [i for i in L if v["N0"][i] < 100], f"N{n}")),
                query("star", f"(N0) *-> (N{n})", self._star("up", "N0", L, f"N{n}")),
            ],
            "infer": [
                query("infer", "(P | v < 60) <-* (D) *-> (Q)",
                      lambda: ids(i for i, b, _ in self.pq["Q"] if b in p_b)),
                query("infer", f"(L{n - 1} | id < 40) <-*-> (R0)",
                      self._infer(f"L{n - 1}", range(40), "R0")),
                query("infer", f"(N{n} | id < 40) <-*-> (S)",
                      self._infer(f"N{n}", range(40), "S")),
            ],
            "scan": [
                self._filter("N2", "NOT (l.n.l.n.v < 50 OR r.n.r.n.v > 150) AND v != 7",
                             lambda i: not (val("N2", i, "l.n.l.n.v") < 50
                                            or val("N2", i, "r.n.r.n.v") > 150)
                             and v["N2"][i] != 7),
                self._filter("N0", f"{deep('l')} < 100 OR {deep('r')} >= 150 "
                                   f"OR {deep('lr')} < {deep('rl')}",
                             lambda i: val("N0", i, deep("l")) < 100
                             or val("N0", i, deep("r")) >= 150
                             or val("N0", i, deep("lr")) < val("N0", i, deep("rl"))),
                self._filter("N0", f"{deep('lr')} == {deep('rl')} OR {deep('l')} < {deep('r')} "
                                   f"AND {deep('rr')} >= {deep('ll')}",
                             lambda i: val("N0", i, deep("lr")) == val("N0", i, deep("rl"))
                             or val("N0", i, deep("l")) < val("N0", i, deep("r"))
                             and val("N0", i, deep("rr")) >= val("N0", i, deep("ll"))),
            ],
            "agg": [
                query("agg", "(S | COUNT(s <- (N0)) > 1)",
                      lambda: ids(i for i in L if len(self._lessers("N0", "s", i)) > 1)),
                query("agg", f"(S | SUM(s <- (N0 | {deep('l')} < 150).v) >= 150)",
                      lambda: ids(i for i in L
                                  if sum(v["N0"][j] for j in self._lessers("N0", "s", i)
                                         if val("N0", j, deep("l")) < 150) >= 150)),
                query("agg", f"(S | COUNT(s <- (N0 | {deep('r')} < 100 OR {deep('lr')} < 50)) > 0 "
                             "AND COUNT(s <- (N0)) > 1)",
                      lambda: ids(i for i in L
                                  if any(val("N0", j, deep("r")) < 100
                                         or val("N0", j, deep("lr")) < 50
                                         for j in self._lessers("N0", "s", i))
                                  and len(self._lessers("N0", "s", i)) > 1)),
            ],
            "join": [
                query("join", "(P p, Q q | p.b == q.b AND p.v < 100)",
                      lambda: self._pairs("P", "Q", lambda x, y: x[2] < 100)),
                query("join", "(Q q, P p | q.b == p.b AND q.v >= 100)",
                      lambda: self._pairs("Q", "P", lambda x, y: x[2] >= 100)),
                query("join", "(P p, Q q | p.b == q.b)",
                      lambda: self._pairs("P", "Q", lambda x, y: True)),
            ],
        }
        assert p_low  # the product route has a non-empty anchor
        ops = []
        k = 0
        while len(ops) < self.ops_per_round or len(ops) % self.cycle:
            for cls in CLASSES:
                ops.extend([templates[cls][k % TEMPLATES]] * self.weights[cls])
            k += 1
        return ops


WORKLOADS = {w.name: w for w in (FactOlap, HardShapes, IngestMix)}
