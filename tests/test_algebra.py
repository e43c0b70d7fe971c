"""Projection, de-projection, star forms, products, and inference routing."""

import itertools
import random

import pytest

import oracle
from comdb import algebra, model
from comdb.algebra import ElementSet, INDEPENDENT_WARNING
from comdb.errors import NoPath, PathNotComposable, ViaNotCommonLesser


def members(eset: ElementSet) -> set:
    return set(eset.members)


def collection_set(db, name, *idents) -> ElementSet:
    concept = db.schema.concept(name)
    made = frozenset(model.make_identity(concept, i) for i in idents)
    return ElementSet(name, made)


# --- projection and de-projection -------------------------------------------


def test_project_deduplicates(colors_db):
    db = colors_db
    src = collection_set(db, "Z", 1, 2)
    up = algebra.project(db, src, db.schema.path("Z", "x"))
    assert up.domain == "X"
    assert members(up) == {("red",)}


def test_project_drops_null_hops(catalog_db):
    db = catalog_db
    src = algebra.full_set(db, "Books")
    up = algebra.project(db, src, db.schema.path("Books", "publisher"))
    # b4 has no publisher and contributes nothing
    assert members(up) == {("Springer",), ("Wiley",), ("Hanser",)}


def test_project_composes_along_a_path(catalog_db):
    db = catalog_db
    src = collection_set(db, "Books", "b1", "b3")
    up = algebra.project(db, src, db.schema.path("Books", "publisher", "address"))
    assert members(up) == {(1,), (2,)}


def test_deproject_fans_out(colors_db):
    db = colors_db
    src = collection_set(db, "X", "red")
    down = algebra.deproject(db, src, db.schema.path("Z", "x"))
    assert down.domain == "Z"
    assert members(down) == {(1,), (2,)}


def test_deproject_never_matches_null(catalog_db):
    db = catalog_db
    everyone = algebra.full_set(db, "Publishers")
    down = algebra.deproject(db, everyone, db.schema.path("Books", "publisher"))
    assert ("b4",) not in members(down)
    assert members(down) == {("b1",), ("b2",), ("b3",), ("b5",)}


def test_deproject_along_two_segments(catalog_db):
    db = catalog_db
    src = collection_set(db, "Addresses", 1)
    down = algebra.deproject(db, src, db.schema.path("Books", "publisher", "address"))
    # address 1 holds Springer, which published b1 and b2
    assert members(down) == {("b1",), ("b2",)}


def test_empty_set_stays_empty(colors_db):
    db = colors_db
    empty = ElementSet("Z", frozenset())
    p = db.schema.path("Z", "x")
    assert members(algebra.project(db, empty, p)) == set()
    up_empty = ElementSet("X", frozenset())
    assert members(algebra.deproject(db, up_empty, p)) == set()


def test_project_rejects_a_set_of_primitive_values(catalog_db):
    db = catalog_db
    values = algebra.deproject_values(db, "Addresses", "country", ["DE"])
    country = db.schema.concept("Addresses").field("country")
    countries = algebra.project_values(db, values, (), country)
    with pytest.raises(PathNotComposable, match="cannot project a set of primitive values"):
        algebra.project(db, countries, db.schema.path("Books", "publisher"))


def test_project_path_must_start_at_the_set(catalog_db):
    db = catalog_db
    books = algebra.full_set(db, "Books")
    with pytest.raises(PathNotComposable,
                       match="path 'Publishers.address' does not start at collection 'Books'"):
        algebra.project(db, books, db.schema.path("Publishers", "address"))


def test_project_from_a_product_starts_at_a_factor_alias(market_db):
    db = market_db
    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")])
    everyone = algebra.product_members(db, deals)
    # a hop that starts at a collection, not at the product
    with pytest.raises(PathNotComposable,
                       match="'WriterBooks.book' does not start at product 'Deals'"):
        algebra.project(db, everyone, db.schema.path("WriterBooks", "book"))
    # an unknown alias, and a known alias that arrives at the wrong factor
    for hop in (model.Dimension("x", "Deals", "WriterBooks"),
                model.Dimension("wb", "Deals", "Sellers")):
        with pytest.raises(PathNotComposable, match=f"'{hop}' does not start at product 'Deals'"):
            algebra.project(db, everyone, model.DimensionPath((hop,)))


def test_project_rejects_a_dimension_outside_the_schema(catalog_db):
    db = catalog_db
    books = algebra.full_set(db, "Books")
    bogus = model.Dimension("editor", "Books", "Publishers")
    with pytest.raises(PathNotComposable,
                       match="'Books.editor' does not start at collection 'Books'"):
        algebra.project(db, books, model.DimensionPath((bogus,)))


def test_deproject_starts_from_a_collection(catalog_db, market_db):
    values = algebra.deproject_values(catalog_db, "Addresses", "country", ["DE"])
    countries = algebra.project_values(catalog_db, values, (),
                                       catalog_db.schema.concept("Addresses").field("country"))
    with pytest.raises(PathNotComposable, match="cannot de-project from 'Addresses.country'"):
        algebra.deproject(catalog_db, countries, catalog_db.schema.path("Publishers", "address"))
    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")])
    everyone = algebra.product_members(market_db, deals)
    with pytest.raises(PathNotComposable, match="cannot de-project from 'Deals'"):
        algebra.deproject(market_db, everyone, market_db.schema.path("WriterBooks", "book"))


def test_deproject_path_must_arrive_at_the_set(catalog_db):
    db = catalog_db
    books = algebra.full_set(db, "Books")
    with pytest.raises(PathNotComposable,
                       match="path 'Books.publisher' does not arrive at collection 'Books'"):
        algebra.deproject(db, books, db.schema.path("Books", "publisher"))


def test_deproject_rejects_a_dimension_outside_the_schema(catalog_db):
    db = catalog_db
    publishers = algebra.full_set(db, "Publishers")
    bogus = model.Dimension("editor", "Books", "Publishers")
    with pytest.raises(PathNotComposable,
                       match="'Books.editor' is not a dimension arriving at 'Publishers'"):
        algebra.deproject(db, publishers, model.DimensionPath((bogus,)))


def test_project_values_reaches_a_field(catalog_db):
    db = catalog_db
    src = collection_set(db, "Books", "b1")
    dims = (
        db.schema.dimension("Books", "publisher"),
        db.schema.dimension("Publishers", "address"),
    )
    fld = db.schema.concept("Addresses").field("country")
    vals = algebra.project_values(db, src, dims, fld)
    assert str(vals.domain) == "Addresses.country"
    assert members(vals) == {"DE"}


def test_deproject_values_finds_owners(catalog_db):
    db = catalog_db
    eset = algebra.deproject_values(db, "Books", "title", ["Alpha", "Beta", "Nope"])
    assert members(eset) == {("b1",), ("b2",)}
    by_id = algebra.deproject_values(db, "Books", "isbn", ["b5"])
    assert members(by_id) == {("b5",)}


def test_intersect_deprojections(colors_db):
    db = colors_db
    a = collection_set(db, "Z", 1, 2, 3)
    b = collection_set(db, "Z", 2, 3, 4)
    both = algebra.intersect_deprojections([a, b])
    assert members(both) == {(2,), (3,)}


# --- routing -----------------------------------------------------------------


def test_route_keeps_parallel_dimensions_apart(parallel_db):
    schema = parallel_db.schema
    ((_, _, leg),) = algebra.route_star_project(schema, "Reviews", "Grades").ways
    assert [d.name for d in leg.edges] == ["first", "second"]
    assert leg.paths == 2
    ((_, _, stay),) = algebra.route_star_project(schema, "Grades", "Grades").ways
    assert stay.edges == () and stay.paths == 1


def test_route_holds_the_dimensions_on_some_path(royalties_db):
    schema = royalties_db.schema
    ((_, _, leg),) = algebra.route_star_project(schema, "WriterBooks", "Publishers").ways
    assert [str(d) for d in leg.edges] == ["WriterBooks.book", "Books.publisher"]
    assert leg.paths == 1
    with pytest.raises(NoPath):
        algebra.route_star_project(schema, "Books", "Writers")


def test_product_route_starts_at_every_factor_reaching_the_target(market_db):
    schema = market_db.schema
    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")])
    ((_, _, to_books),) = algebra.route_star_project(schema, deals, "Books").ways
    assert [str(d) for d in to_books.factors] == ["Deals.wb", "Deals.s"]
    assert sorted(str(d) for d in to_books.edges) == ["Sellers.book", "WriterBooks.book"]
    assert to_books.paths == 2
    ((_, _, to_shops),) = algebra.route_star_project(schema, deals, "Shops").ways
    assert [str(d) for d in to_shops.factors] == ["Deals.s"]


# --- star forms --------------------------------------------------------------


def test_star_project_unions_parallel_paths(parallel_db):
    db = parallel_db
    one = collection_set(db, "Reviews", 1)
    up = algebra.star_project(db, one, "Grades")
    assert members(up) == {("a",), ("b",)}
    three = collection_set(db, "Reviews", 3)
    up3 = algebra.star_project(db, three, "Grades")
    assert members(up3) == {("c",)}


def test_star_deproject_unions_parallel_paths(parallel_db):
    db = parallel_db
    b = collection_set(db, "Grades", "b")
    down = algebra.star_deproject(db, b, "Reviews")
    assert members(down) == {(1,), (2,)}


def _ladder_paths(rungs: int) -> list[list[str]]:
    """The dimension names of every path from N0 up an oracle.ladder_db."""
    return [[name for side in sides for name in (side, "n")]
            for sides in itertools.product("lr", repeat=rungs)]


def test_star_forms_use_every_path_of_a_ladder():
    # each path links its own bottom and top element, so a route that
    # skipped any edge or path would change all three answers
    rungs = 3
    db = oracle.ladder_db(rungs, paths_apart=True)
    top = f"N{rungs}"
    bottoms = frozenset(db.collections["N0"].elements)
    tops = frozenset(db.collections[top].elements)
    ups, downs, sides = [], [], []
    for names in _ladder_paths(rungs):
        ups.append(oracle.o_project(db, "N0", bottoms, names)[1])
        downs.append(oracle.o_deproject(db, top, tops, names, "N0"))
        sides.append(oracle.o_project(db, "N0", downs[-1], ["s"])[1])
    for per_path in (ups, downs, sides):
        assert all(len(got) == 1 for got in per_path)
        assert len(frozenset().union(*per_path)) == 2 ** rungs
    for text, per_path in ((f"(N0) *-> ({top})", ups), (f"({top}) <-* (N0)", downs),
                           (f"({top}) <-*-> (S)", sides)):
        assert frozenset(db.query(text).identities) == frozenset().union(*per_path)


def test_twenty_rung_ladder_routes_in_linear_size_and_matches_the_oracle():
    rungs = 20
    rng = random.Random(2020)
    db = oracle.ladder_db(rungs, rng=rng)
    reach = oracle.reach_closure(db)
    top = f"N{rungs}"
    for text in (f"(N0) *-> ({top})", f"({top}) <-* (N0)", f"({top}) <-*-> (S)"):
        (step,) = db.plan(text).steps
        legs = [leg for way in step.route.ways for leg in way[1:] if leg is not None]
        assert max(leg.paths for leg in legs) == 2 ** rungs
        assert sum(len(leg.edges) for leg in legs) <= 4 * rungs + 1
    reached = 0
    for _ in range(20):
        low = oracle.random_members(rng, db, "N0")
        high = oracle.random_members(rng, db, top)
        up = algebra.star_project(db, ElementSet("N0", low), top)
        assert up.members == oracle.o_star_project(db, reach, "N0", low, top)
        down = algebra.star_deproject(db, ElementSet(top, high), "N0")
        assert down.members == oracle.o_star_deproject(db, reach, top, high, "N0")
        side = algebra.infer(db, ElementSet(top, high), "S")
        assert side.members == oracle.o_infer(db, reach, top, high, "S")[0]
        reached += len(up) + len(down) + len(side)
    assert reached


def test_star_project_of_whole_collections_matches_the_oracle():
    # a whole collection's image along a dimension is read off the reverse
    # index, which never holds NULL; these references are often NULL
    rng = random.Random(808)
    checked = 0
    for _ in range(150):
        db = oracle.random_db(rng, nullable_refs=True)
        reach = oracle.reach_closure(db)
        rel = oracle.concept_below(db)
        for src in db.schema.concepts:
            everyone = algebra.full_set(db, src)
            for target in sorted(rel["above"][src]):
                got = algebra.star_project(db, everyone, target)
                want = oracle.o_star_project(db, reach, src, everyone.members, target)
                assert got.members == want
                checked += 1
    assert checked >= 300


def test_star_project_requires_a_path(market_db):
    db = market_db
    shops = algebra.full_set(db, "Shops")
    with pytest.raises(NoPath) as exc:
        algebra.star_project(db, shops, "Writers")
    assert "<-*->" in str(exc.value)


# --- products ----------------------------------------------------------------


def test_make_product_needs_two_factors():
    with pytest.raises(PathNotComposable):
        algebra.make_product("P", [("a", "A")])


def same_book(db, bound):
    """A product predicate over {alias: row}: the writer's book is the one sold."""
    wb = model.Element(db.collections["WriterBooks"], bound["wb"])
    s = model.Element(db.collections["Sellers"], bound["s"])
    return wb.entity["book"] == s.entity["book"]


def test_product_members_and_restrict(market_db):
    db = market_db

    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")], same_book)
    everyone = algebra.product_members(db, deals)
    assert members(everyone) == {((1,), (10,)), ((2,), (20,))}

    # the runner's form: restrict and members are in factor rows
    rows = [db.collections[c].elements for _, c in deals.factors]
    only_wb1 = set(algebra.iter_members(db, deals, {"wb": {rows[0][(1,)]}}))
    assert only_wb1 == {(rows[0][(1,)], rows[1][(10,)])}


def test_star_project_from_product(market_db):
    db = market_db

    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")], same_book)
    all_deals = algebra.product_members(db, deals)
    shops = algebra.star_project(db, all_deals, "Shops")
    assert members(shops) == {("s1",), ("s2",)}


def test_product_members_not_stored_are_dropped(market_db):
    # as a collection ElementSet drops an identity that is not stored, a
    # product ElementSet drops a member holding one
    db = market_db
    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")])
    some = ElementSet(deals, frozenset({((1,), (99,)), ((1,), (10,))}))
    assert members(algebra.star_project(db, some, "Shops")) == {("s1",)}
    assert members(algebra.infer(db, some, "Shops")) == {("s1",)}


def test_star_deproject_into_product(market_db):
    db = market_db

    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")], same_book)
    young = collection_set(db, "Writers", "w1")
    down = algebra.star_deproject(db, young, deals)
    assert members(down) == {((1,), (10,))}


# --- common lesser collections and inference ---------------------------------


def test_common_lessers_picks_maximal_ones(royalties_db):
    db = royalties_db
    got = algebra.common_lesser_collections(db.schema, "Writers", "Publishers")
    # Books is below Publishers only; WriterBooks and Royalties are below both
    assert got == ["Royalties", "WriterBooks"]


def test_common_lessers_empty_for_independent(market_db):
    db = market_db
    assert algebra.common_lesser_collections(db.schema, "Writers", "Shops") == []


def test_infer_identity_when_target_is_source(royalties_db):
    db = royalties_db
    src = collection_set(db, "Writers", "w1")
    out = algebra.infer(db, src, "Writers")
    assert members(out) == {("w1",)}


def test_infer_degenerates_to_star_ops(royalties_db):
    db = royalties_db
    src = collection_set(db, "Writers", "w1")
    down = algebra.infer(db, src, "WriterBooks")
    assert members(down) == {(1,)}
    back = algebra.infer(db, collection_set(db, "WriterBooks", 1), "Writers")
    assert members(back) == {("w1",)}


def test_infer_unions_over_every_maximal_route(royalties_db):
    db = royalties_db
    w1 = collection_set(db, "Writers", "w1")
    pubs = algebra.infer(db, w1, "Publishers")
    # WriterBooks route gives p1, Royalties route gives p3
    assert members(pubs) == {("p1",), ("p3",)}
    w2 = collection_set(db, "Writers", "w2")
    assert members(algebra.infer(db, w2, "Publishers")) == {("p2",)}


def test_infer_via_narrows_to_one_route(royalties_db):
    db = royalties_db
    w1 = collection_set(db, "Writers", "w1")
    only_books = algebra.infer(db, w1, "Publishers", via="WriterBooks")
    assert members(only_books) == {("p1",)}
    only_royalties = algebra.infer(db, w1, "Publishers", via="Royalties")
    assert members(only_royalties) == {("p3",)}


def test_infer_via_must_be_a_common_lesser(royalties_db):
    db = royalties_db
    w1 = collection_set(db, "Writers", "w1")
    with pytest.raises(ViaNotCommonLesser):
        algebra.infer(db, w1, "Publishers", via="Books")


def test_infer_via_product_bottom(market_db):
    db = market_db

    deals = algebra.make_product("Deals", [("wb", "WriterBooks"), ("s", "Sellers")], same_book)
    young = collection_set(db, "Writers", "w1")
    shops = algebra.infer(db, young, "Shops", via=deals)
    assert members(shops) == {("s1",)}


def test_infer_independent_returns_full_target_with_warning(market_db):
    db = market_db
    young = collection_set(db, "Writers", "w1")
    warnings: list = []
    shops = algebra.infer(db, young, "Shops", warnings=warnings)
    assert members(shops) == {("s1",), ("s2",)}
    assert warnings == [INDEPENDENT_WARNING]


def test_infer_empty_source_still_routes(royalties_db):
    db = royalties_db
    empty = ElementSet("Writers", frozenset())
    assert members(algebra.infer(db, empty, "Publishers")) == set()

