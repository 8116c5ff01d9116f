import functools
import itertools

from phl import core
from phl.core import PresheafMap, extend_along, fin_graph, fin_set, identity, search_maps
from phl.equivalence import alternative_we_check, is_t_weak_equivalence
from phl.fixtures import (
    chain2_category,
    corpus_categories,
    corpus_graphs,
    corpus_monoids,
    discrete2_category,
    groupoid_interval,
    terminal_category,
    we_algebras,
    z2_category,
)
from phl.homotopy import homotopy_classes
from phl.lifting import generate_anodyne, has_rlp, is_naively_fibrant_upto
from phl.monads import FreeCategoryMonad, FreeMonoidMonad

from conftest import enumerate_homs, mono_unit, to_terminal


def strongly_connected_looped():
    graphs = corpus_graphs()
    cycle = fin_graph(
        ["a", "b"],
        [("e", "a", "b"), ("f", "b", "a"), ("la", "a", "a"), ("lb", "b", "b")],
    )
    return [graphs["loop"], graphs["two_loops"], cycle]


def find_homotopy_inverse(instance, f):
    """A g with g∘f and f∘g in the classes of the identities, or None."""
    x, y = f.domain, f.codomain
    cx, cy = homotopy_classes(instance, x, x), homotopy_classes(instance, y, y)
    return next((g for g in search_maps(y, x)
                 if cx.class_of(f.then(g)) == cx.class_of(identity(x))
                 and cy.class_of(g.then(f)) == cy.class_of(identity(y))), None)


def unit_square_commutes(monad, f):
    """Naturality of the unit at f: eta∘f = T(f)∘eta."""
    return f.then(mono_unit(monad, f.codomain)) == mono_unit(monad, f.domain).then(monad.on_map(f))


class TestIsTWeakEquivalence:
    def test_identity(self, graph_instance):
        x = corpus_graphs()["loop"]
        verdict = is_t_weak_equivalence(graph_instance, identity(x), we_algebras("graph"))
        assert verdict.ok
        assert "supplied family" in verdict.caveat

    def test_sets_always(self, set_instance):
        x, y = fin_set(["a", "b"]), fin_set(["p"])
        for f in enumerate_homs(x, y):
            assert is_t_weak_equivalence(set_instance, f, we_algebras("set")).ok

    def test_endpoint_inclusion_against_small_categories(self, graph_instance):
        # oracle: full class enumeration per algebra, frozen outcome
        x = fin_graph(["0"], [])
        cyl = graph_instance.cylinder(x)
        verdict = is_t_weak_equivalence(graph_instance, cyl.d0, we_algebras("graph"))
        assert verdict.ok

    def test_non_symmetric_algebra_detects(self, graph_instance):
        # against the 2-chain category the vertex inclusion into the
        # disconnected looped pair is not an equivalence
        x = fin_graph(["p"], [])
        y = corpus_graphs()["looped_pair"]
        f = PresheafMap(x, y, {"vertex": {"p": "p"}, "edge": {}})
        verdict = is_t_weak_equivalence(graph_instance, f, [chain2_category()])
        assert not verdict.ok


class TestAlternativeWeCheck:
    def test_identity_found(self, graph_instance):
        monad = FreeCategoryMonad(2)
        x = corpus_graphs()["loop"]
        report = alternative_we_check(graph_instance, monad, identity(x))
        assert report.found
        assert report.inverse is not None

    def test_set_maps_found(self, set_instance):
        # oracle: exhaustive scan over truncated algebra maps plus the
        # homotopy matrix; in sets both searches always succeed
        monad = FreeMonoidMonad(2)
        for x in (fin_set(["a"]), fin_set(["a", "b"])):
            for y in (fin_set(["p"]), fin_set(["p", "q"])):
                for f in enumerate_homs(x, y):
                    assert alternative_we_check(set_instance, monad, f).found

    def test_negative_fixture(self, graph_instance):
        # chosen by the oracle outcome: the free functor cannot invert the
        # inclusion into a disconnected component
        monad = FreeCategoryMonad(2)
        x = corpus_graphs()["loop"]
        y = corpus_graphs()["looped_pair"]
        f = PresheafMap(x, y, {"vertex": {"a": "p"}, "edge": {"l": "lp"}})
        report = alternative_we_check(graph_instance, monad, f)
        assert not report.found

    def test_biconditional_on_documented_corpora(self, graph_instance, set_instance):
        monad = FreeCategoryMonad(2)
        family = we_algebras("graph")
        pool = strongly_connected_looped()
        for x in pool:
            for y in pool:
                for f in enumerate_homs(x, y):
                    we = is_t_weak_equivalence(graph_instance, f, family).ok
                    alt = alternative_we_check(graph_instance, monad, f).found
                    assert we == alt
        smonad = FreeMonoidMonad(2)
        sfamily = we_algebras("set")
        sets = [fin_set([]), fin_set(["a"]), fin_set(["a", "b"])]
        for x in sets:
            for y in sets:
                for f in enumerate_homs(x, y):
                    we = is_t_weak_equivalence(set_instance, f, sfamily).ok
                    alt = alternative_we_check(set_instance, smonad, f).found
                    assert we == alt

    def test_family_relative_gap_is_visible(self, graph_instance):
        # frozen counterexample for the untruncated reading: relative to a
        # fibrant family the empty inclusion is a "weak equivalence", yet
        # the free functor has no homotopy inverse
        monad = FreeCategoryMonad(2)
        f = PresheafMap(core.empty_object(core.GRAPH_SIGNATURE), corpus_graphs()["loop"], {})
        assert is_t_weak_equivalence(graph_instance, f, we_algebras("graph")).ok
        assert not alternative_we_check(graph_instance, monad, f).found


class TestM3Sample:
    def test_monoids_against_set_corners(self, set_instance):
        family = generate_anodyne(set_instance, [], depth=0)
        for monoid in corpus_monoids():
            assert is_naively_fibrant_upto(monoid.carrier(), family).ok, monoid.name

    def test_fibrant_categories_with_lift_cross_check(self, graph_instance):
        from phl.cylinder import corner_endpoint
        from phl.lifting import solve_lift
        from phl.witnesses import explicit_lift_category

        family = generate_anodyne(graph_instance, [], depth=0)
        algebras = [terminal_category(), groupoid_interval()]
        for algebra in algebras:
            assert is_naively_fibrant_upto(algebra.carrier(), family).ok, algebra.name
        # cross-check one corner via the explicit construction
        k = fin_graph(["a"], [("la", "a", "a")])
        l = fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {"la": "la"}})
        corner = corner_endpoint(graph_instance, j, 0)
        for algebra in algebras:
            for top in enumerate_homs(corner.domain, algebra.underlying_graph()):
                explicit = explicit_lift_category(corner, top, algebra)
                oracle = solve_lift(to_terminal(corner.arrow, top))
                assert (explicit is not None) == (oracle is not None)

    def test_corpus_categories_at_depth_one(self, graph_instance):
        # every row but z2_loop's is also in reach of the exhaustive walk,
        # which never finishes the 67,109,924 squares of z2_loop
        family = generate_anodyne(graph_instance, [], depth=1)
        rows = {c.name: is_naively_fibrant_upto(c.carrier(), family) for c in corpus_categories()}
        assert rows["z2_loop"].ok
        assert rows["z2_loop"].squares_checked == 67_109_924
        for category in corpus_categories():
            if category.name != "z2_loop":
                assert rows[category.name] == has_rlp(core.bang(category.carrier()), family)
        assert {name for name, verdict in rows.items() if not verdict.ok} == {
            "chain2", "parallel_pair", "discrete2",
        }

    def test_non_algebra_probe_fails(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=0)
        verdict = is_naively_fibrant_upto(corpus_graphs()["chain2"], family)
        assert not verdict.ok
        assert verdict.counterexample is not None


class TestNaturalityAndMinimality:
    def test_unit_square_exact_on_corpus(self, graph_instance):
        monad = FreeCategoryMonad(2)
        graphs = list(corpus_graphs().values())
        maps = []
        for x in graphs[:6]:
            for y in graphs[:6]:
                maps.extend(enumerate_homs(x, y)[:4])
        for f in maps:
            assert unit_square_commutes(monad, f)

    def test_suite_on_loop_corpus(self, graph_instance):
        # on each map the unit square commutes and a map that the family
        # accepts has a homotopy-inverse factorization through T; on each
        # composable pair the verdicts satisfy three-for-two
        monad = FreeCategoryMonad(2)
        pool = strongly_connected_looped()
        maps = [f for x in pool for y in pool for f in enumerate_homs(x, y)]
        pairs = itertools.islice(((f, g) for f in maps for g in maps if f.codomain == g.domain), 12)
        we = functools.cache(lambda f: is_t_weak_equivalence(graph_instance, f,
                                                             we_algebras("graph")).ok)
        for f in maps[:20]:
            assert unit_square_commutes(monad, f)
            assert not we(f) or alternative_we_check(graph_instance, monad, f).found
        for f, g in pairs:
            assert [we(f), we(g), we(f.then(g))].count(True) != 2

    def test_collapse_past_the_connected_pool_is_a_known_gap(self, graph_instance):
        # the collapse of two looped vertices onto one loop leaves the
        # strongly connected pool: the family accepts it, but the free
        # functor has no homotopy inverse.  A genuine gap of the
        # family-relative reading, kept visible as a negative control
        graphs = corpus_graphs()
        f = PresheafMap(graphs["looped_pair"], graphs["loop"],
                        {"vertex": {"p": "a", "q": "a"}, "edge": {"lp": "l", "lq": "l"}})
        monad = FreeCategoryMonad(2)
        assert unit_square_commutes(monad, f)
        assert is_t_weak_equivalence(graph_instance, f, we_algebras("graph")).ok
        assert not alternative_we_check(graph_instance, monad, f).found

    def test_identity_trivially_passes(self, set_instance):
        monad = FreeMonoidMonad(2)
        f = identity(fin_set(["a"]))
        assert unit_square_commutes(monad, f)
        assert is_t_weak_equivalence(set_instance, f, we_algebras("set")).ok
        assert alternative_we_check(set_instance, monad, f).found


class TestRetraction:
    def test_every_corpus_algebra_retracts(self):
        # the least alpha : T(A) -> A with alpha∘eta = id, the lift of the
        # identity of A along eta
        cases = [(algebra, FreeMonoidMonad(2)) for algebra in corpus_monoids()]
        cases += [(algebra, FreeCategoryMonad(2)) for algebra in (
            terminal_category(), groupoid_interval(), chain2_category(), z2_category(),
            discrete2_category())]
        for algebra, monad in cases:
            carrier = algebra.carrier()
            eta = mono_unit(monad, carrier)
            alpha = extend_along([(eta, identity(carrier))], carrier)
            assert alpha is not None
            assert eta.then(alpha) == identity(carrier)


class TestHomotopyEquivalencesAreWe:
    def test_on_corpus(self, graph_instance):
        pool = strongly_connected_looped()
        family = we_algebras("graph")
        for x in pool:
            for y in pool:
                for f in enumerate_homs(x, y):
                    if find_homotopy_inverse(graph_instance, f) is not None:
                        assert is_t_weak_equivalence(graph_instance, f, family).ok
