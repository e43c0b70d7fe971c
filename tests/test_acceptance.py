"""The eight behaviours the engine is accepted on, one test (and one
pass/fail line) per criterion.  Randomized criteria run on fixed seeds;
timed criteria measure the best of several runs against their budget."""

import random
import time

import pytest

import oracle
from ast_strategies import rand_statement
from comdb import algebra, engine
from comdb.algebra import ElementSet, INDEPENDENT_WARNING
from comdb.coql.parser import parse_statement
from comdb.coql.printer import print_statement
from comdb.errors import ComdbError


def best_of(n, fn):
    out = None
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# --- 1: constrained star projection, golden --------------------------------------


def test_criterion_1_star_projection_golden(colors_db):
    rs = colors_db.query("(X | name == 'red') <-*-> (Y)")
    got = {i[0] for i in rs.identities}
    assert got == {"low", "mid"}
    assert "high" not in got
    elapsed, _ = best_of(5, lambda: colors_db.query("(X | name == 'red') <-*-> (Y)"))
    assert elapsed < 0.010
    print(f"criterion 1: {{low, mid}} in {elapsed * 1000:.2f} ms")


# --- 2: explain lists every hop ----------------------------------------------------


def test_criterion_2_explain_hop_listing(library_db):
    text = library_db.explain("(Writers | age < 30) <-*-> (Addresses) -> countries")
    assert text.splitlines() == [
        "(Writers | age < 30)",
        "<- writer <- (WriterBooks)",
        "-> book -> (Books)",
        "-> publisher -> (Publishers)",
        "-> address -> (Addresses)",
        "-> countries",
    ]
    # and the plan it describes produces the young writer's country
    rs = library_db.query("(Writers | age < 30) <-*-> (Addresses) -> countries")
    assert [r["countries"] for r in rs.rows] == ["DE"]
    print("criterion 2: explain lists all four hops plus the field step")


# --- 3: independence needs background knowledge -------------------------------------


def test_criterion_3_independent_collections_and_bottom(market_db):
    db = market_db
    # ten elements: two each of writers, books, writer-books, shops, sellers
    assert sum(len(c) for c in db.collections.values()) == 10

    unrouted = db.query("(Writers | age < 30) <-*-> (Shops)")
    assert {i[0] for i in unrouted.identities} == {"s1", "s2"}
    assert unrouted.warnings == (INDEPENDENT_WARNING,)

    kind, deals = engine.execute_statement(
        db, "Deals = (WriterBooks wb, Sellers s | wb.book == s.book)"
    )
    assert kind == "product"
    db.register_product(deals)
    routed = db.query("(Writers | age < 30) <-* (Deals) *-> (Shops)")
    assert {i[0] for i in routed.identities} == {"s1"}
    assert routed.warnings == ()

    # the programmatic route through the same bottom agrees
    young = ElementSet("Writers", frozenset({("w1",)}))
    via = algebra.infer(db, young, "Shops", via=deals)
    assert {i[0] for i in via.members} == {"s1"}
    print("criterion 3: full Shops + warning without bottom, {s1} with it")


# --- 4: the engine agrees with a brute-force oracle ----------------------------------


def _random_up_names(rng, db, source, max_len=3):
    names = []
    cur = source
    for _ in range(rng.randint(1, max_len)):
        refs = oracle.o_references(db.schema.concepts[cur])
        if not refs:
            break
        f = rng.choice(refs)
        names.append(f.name)
        cur = f.type
    return names, cur


def test_criterion_4_oracle_equivalence():
    rng = random.Random(404)
    checks = {"project": 0, "deproject": 0, "star_up": 0, "star_down": 0,
              "intersect": 0, "infer": 0}

    for _ in range(500):
        db = oracle.random_db(rng)
        reach = oracle.reach_closure(db)
        rel = oracle.concept_below(db)
        names = list(db.schema.concepts)

        for _ in range(3):
            src = rng.choice(names)
            path_names, dest = _random_up_names(rng, db, src)
            if not path_names:
                continue
            members = oracle.random_members(rng, db, src)
            want_dest, want = oracle.o_project(db, src, members, path_names)
            got = algebra.project(db, ElementSet(src, members),
                                  db.schema.path(src, *path_names))
            assert (got.domain, got.members) == (want_dest, want)
            checks["project"] += 1

            upper_members = oracle.random_members(rng, db, dest)
            want_down = oracle.o_deproject(db, dest, upper_members, path_names, src)
            got_down = algebra.deproject(db, ElementSet(dest, upper_members),
                                         db.schema.path(src, *path_names))
            assert (got_down.domain, got_down.members) == (src, want_down)
            checks["deproject"] += 1

        for _ in range(3):
            src = rng.choice(names)
            ups = sorted(rel["above"][src])
            if ups:
                target = rng.choice(ups)
                members = oracle.random_members(rng, db, src)
                want = oracle.o_star_project(db, reach, src, members, target)
                got = algebra.star_project(db, ElementSet(src, members), target)
                assert got.members == want
                checks["star_up"] += 1
            downs = sorted(rel["below"][src])
            if downs:
                target = rng.choice(downs)
                members = oracle.random_members(rng, db, src)
                want = oracle.o_star_deproject(db, reach, src, members, target)
                got = algebra.star_deproject(db, ElementSet(src, members), target)
                assert got.members == want
                checks["star_down"] += 1

        for low in names:
            uppers = sorted(rel["above"][low])
            if len(uppers) >= 2:
                a, b = rng.sample(uppers, 2)
                sa = oracle.random_members(rng, db, a)
                sb = oracle.random_members(rng, db, b)
                down_a = algebra.star_deproject(db, ElementSet(a, sa), low)
                down_b = algebra.star_deproject(db, ElementSet(b, sb), low)
                got = algebra.intersect_deprojections([down_a, down_b])
                want = (oracle.o_star_deproject(db, reach, a, sa, low)
                        & oracle.o_star_deproject(db, reach, b, sb, low))
                assert got.members == want
                checks["intersect"] += 1
                break

        for _ in range(3):
            src, target = rng.choice(names), rng.choice(names)
            members = oracle.random_members(rng, db, src)
            want, want_warn = oracle.o_infer(db, reach, src, members, target)
            warnings: list = []
            got = algebra.infer(db, ElementSet(src, members), target, warnings=warnings)
            assert got.members == want
            assert (INDEPENDENT_WARNING in warnings) == want_warn
            checks["infer"] += 1

    assert checks["project"] >= 500 and checks["deproject"] >= 500
    assert checks["star_up"] >= 500 and checks["star_down"] >= 500
    assert checks["infer"] >= 1000 and checks["intersect"] >= 100
    print(f"criterion 4: 500 databases, zero mismatches {checks}")


# --- 5: algebra properties ------------------------------------------------------------


def _pool(seed, count, **kw):
    rng = random.Random(seed)
    return [oracle.random_db(rng, **kw) for _ in range(count)]


@pytest.fixture(scope="module")
def dbs_any():
    return _pool(505, 40)


@pytest.fixture(scope="module")
def dbs_total():
    # every reference set: projection along any path is a total map
    return _pool(606, 40, nullable_refs=False)


def _star_pair(rng, db):
    rel = oracle.concept_below(db)
    options = [(s, t) for s in db.schema.concepts for t in sorted(rel["above"][s])]
    if not options:
        return None
    return rng.choice(options)


def test_criterion_5_algebra_property_suite(dbs_any, dbs_total):
    rng = random.Random(555)
    done = dict.fromkeys(
        ["monotone", "union", "compose", "adjoint", "neutral", "bounded"], 0
    )
    goal = 1000

    while done["monotone"] < goal:
        db = rng.choice(dbs_any)
        pair = _star_pair(rng, db)
        if pair is None:
            continue
        s, t = pair
        small = oracle.random_members(rng, db, s)
        big = small | oracle.random_members(rng, db, s)
        up_small = algebra.star_project(db, ElementSet(s, small), t)
        up_big = algebra.star_project(db, ElementSet(s, big), t)
        assert up_small.members <= up_big.members
        done["monotone"] += 1

    while done["union"] < goal:
        db = rng.choice(dbs_any)
        pair = _star_pair(rng, db)
        if pair is None:
            continue
        s, t = pair
        a = oracle.random_members(rng, db, s)
        b = oracle.random_members(rng, db, s)
        lhs = algebra.star_project(db, ElementSet(s, a | b), t)
        rhs = (algebra.star_project(db, ElementSet(s, a), t).members
               | algebra.star_project(db, ElementSet(s, b), t).members)
        assert lhs.members == rhs
        done["union"] += 1

    while done["compose"] < goal:
        db = rng.choice(dbs_any)
        s = rng.choice(list(db.schema.concepts))
        names, _ = _random_up_names(rng, db, s, max_len=3)
        if len(names) < 2:
            continue
        cut = rng.randint(1, len(names) - 1)
        members = oracle.random_members(rng, db, s)
        whole = algebra.project(db, ElementSet(s, members), db.schema.path(s, *names))
        first = algebra.project(db, ElementSet(s, members),
                                db.schema.path(s, *names[:cut]))
        second = algebra.project(db, first,
                                 db.schema.path(first.domain, *names[cut:]))
        assert second.members == whole.members and second.domain == whole.domain
        done["compose"] += 1

    while done["adjoint"] < goal:
        db = rng.choice(dbs_total)
        s = rng.choice(list(db.schema.concepts))
        names, dest = _random_up_names(rng, db, s)
        if not names:
            continue
        path = db.schema.path(s, *names)
        lower = ElementSet(s, oracle.random_members(rng, db, s))
        upper = ElementSet(dest, oracle.random_members(rng, db, dest))
        # project(deproject(T)) <= T, and S <= deproject(project(S)) on total maps
        back_up = algebra.project(db, algebra.deproject(db, upper, path), path)
        assert back_up.members <= upper.members
        back_down = algebra.deproject(db, algebra.project(db, lower, path), path)
        assert lower.members <= back_down.members
        done["adjoint"] += 1

    while done["neutral"] < goal:
        db = rng.choice(dbs_any)
        names = list(db.schema.concepts)
        a, b = rng.choice(names), rng.choice(names)
        if a == b:
            # the constraint already sits on the target, nothing to propagate
            continue
        sample = oracle.random_members(rng, db, a)
        if not sample:
            continue
        # a bottom with no predicate carries no knowledge: any non-empty
        # source propagates to the whole target
        free = algebra.make_product("free", [("fa", a), ("fb", b)])
        got = algebra.infer(db, ElementSet(a, sample), b, via=free)
        assert got.members == frozenset(db.collections[b].elements)
        done["neutral"] += 1

    while done["bounded"] < goal:
        db = rng.choice(dbs_any)
        names = list(db.schema.concepts)
        src, target = rng.choice(names), rng.choice(names)
        members = oracle.random_members(rng, db, src)
        got = algebra.infer(db, ElementSet(src, members), target)
        assert got.members <= frozenset(db.collections[target].elements)
        same = algebra.infer(db, ElementSet(src, members), src)
        assert same.members == members
        done["bounded"] += 1

    assert all(v == goal for v in done.values())
    print(f"criterion 5: six properties x {goal} cases")


# --- 6: grammar round-trips and fuzzing ---------------------------------------------


def test_criterion_6_round_trip_and_fuzz():
    rng = random.Random(616)
    trips = 0
    for _ in range(1200):
        node = rand_statement(rng)
        assert parse_statement(print_statement(node)) == node
        trips += 1
    assert trips >= 1000

    crashes = 0
    fuzzed = 0
    for _ in range(10_000):
        n = rng.randint(0, 60)
        data = bytes(rng.randrange(256) for _ in range(n))
        text = data.decode("utf-8", errors="replace")
        try:
            parse_statement(text)
        except ComdbError:
            pass
        except Exception:
            crashes += 1
        fuzzed += 1
    assert fuzzed == 10_000 and crashes == 0
    print(f"criterion 6: {trips} round-trips, {fuzzed} fuzz inputs, {crashes} crashes")


# --- 7: performance floor --------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_db():
    db = engine.Database()
    engine.load_schema(db, """
        CONCEPT X2 IDENTITY id INT;
        CONCEPT Y2 IDENTITY id INT;
        CONCEPT X1 IDENTITY id INT ENTITY x2 X2 NOT NULL;
        CONCEPT Y1 IDENTITY id INT ENTITY y2 Y2 NOT NULL;
        CONCEPT Facts IDENTITY id INT ENTITY x1 X1 NOT NULL, y1 Y1 NOT NULL;
    """)
    rng = random.Random(707)
    for i in range(1000):
        db.insert("X2", i)
        db.insert("Y2", i)
    for i in range(1000):
        db.insert("X1", i, {"x2": rng.randrange(1000)})
        db.insert("Y1", i, {"y2": rng.randrange(1000)})
    for i in range(100_000):
        db.insert("Facts", i, {"x1": rng.randrange(1000), "y1": rng.randrange(1000)})
    return db


def test_criterion_7_performance_floor(wide_db):
    db = wide_db
    assert len(db.collections["Facts"]) == 100_000

    infer_time, rs = best_of(3, lambda: db.query("(X2 | id < 500) <-*-> (Y2)"))
    assert rs.identities and len(rs.identities) <= 1000
    assert infer_time < 1.0

    star_time, rs2 = best_of(3, lambda: db.query("(Facts) *-> (X2)"))
    referenced = {db.collections["X1"].element(x1).entity["x2"]
                  for x1 in (f.entity["x1"] for f in oracle.views(db, "Facts").values())}
    assert frozenset(rs2.members.members) == referenced
    assert star_time < 0.100
    print(f"criterion 7: inference {infer_time * 1000:.0f} ms, "
          f"star projection {star_time * 1000:.0f} ms")


# --- 8: aggregate thresholds -------------------------------------------------------------


def test_criterion_8_aggregate_threshold():
    db = engine.Database()
    engine.load_schema(db, """
        CONCEPT Publishers IDENTITY name CHAR(40);
        CONCEPT Books IDENTITY isbn CHAR(13) ENTITY publisher Publishers;
    """)
    db.insert("Publishers", "Big House")
    db.insert("Publishers", "Small Press")
    for i in range(11):
        db.insert("Books", f"big-{i:02d}", {"publisher": "Big House"})
    for i in range(9):
        db.insert("Books", f"small-{i:02d}", {"publisher": "Small Press"})

    rs = db.query("(Publishers | COUNT(publisher <- (Books)) > 10)")
    assert [i[0] for i in rs.identities] == ["Big House"]
    both = db.query("(Publishers | COUNT(publisher <- (Books)) > 8)")
    assert {i[0] for i in both.identities} == {"Big House", "Small Press"}
    print("criterion 8: 11-book publisher clears the >10 threshold, 9-book does not")
