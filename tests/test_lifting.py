import dataclasses
from contextlib import contextmanager
from functools import lru_cache
from math import prod
from unittest import mock

import pytest

from phl import core, lifting
from phl.core import (
    PresheafMap,
    ValidationError,
    arrows_isomorphic,
    bang,
    empty_object,
    fin_graph,
    fin_set,
    identity,
    is_mono,
)
from phl.cylinder import corner_endpoint, corner_full, get_instance
from phl.fixtures import (
    all_small_graphs,
    chain2_category,
    corpus_categories,
    corpus_graphs,
    corpus_monoids,
    corpus_sets,
    discrete2_category,
    groupoid_interval,
    parallel_category,
    terminal_category,
    z2_category,
)
from phl.lifting import (
    AnodyneFamily,
    FamilyEntry,
    LiftingProblem,
    default_generating_monos,
    generate_anodyne,
    has_rlp,
    is_naively_fibrant_upto,
    solve_lift,
)
from phl.monads import FiniteCategory
from phl.simplicial import boundary_inclusion, delta, horn_inclusion, nerve

from conftest import (
    assignment_tuple,
    brute_force_homs,
    enumerate_homs,
    inverse,
    one_step_relation,
    reference_arrows_isomorphic,
    relation_properties,
    to_terminal,
)


def brute_force_lift(problem):
    """Independent oracle: scan every raw assignment for a diagonal."""
    for d in brute_force_homs(problem.left.codomain, problem.right.domain):
        if problem.left.then(d) == problem.top and d.then(problem.right) == problem.bottom:
            return d
    return None


class TestSolveLift:
    def test_left_iso(self):
        x, y = fin_set(["a", "b"]), fin_set(["p", "q", "r"])
        i = identity(x)
        for p in enumerate_homs(x, y):
            for u in enumerate_homs(x, x):
                problem = LiftingProblem(i, p, u, u.then(p))
                assert solve_lift(problem) == u.then(inverse(i))

    def test_right_iso(self):
        x, y = fin_set(["a"]), fin_set(["p", "q"])
        p = identity(y)
        for i in enumerate_homs(x, y):
            for v in enumerate_homs(y, y):
                problem = LiftingProblem(i, p, i.then(v), v)
                assert solve_lift(problem) == v.then(inverse(p))

    def test_agrees_with_brute_force(self, graph_instance):
        k = fin_graph(["a"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {}})
        corner = corner_endpoint(graph_instance, j, 0)
        c = groupoid_interval().underlying_graph()
        for top in enumerate_homs(corner.domain, c):
            problem = to_terminal(corner.arrow, top)
            fast = solve_lift(problem)
            slow = brute_force_lift(problem)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast == slow  # both are lexicographically least

    def test_returns_least_diagonal(self, set_instance):
        j = PresheafMap(empty_object(core.SET_SIGNATURE), fin_set(["p"]), {})
        corner = corner_endpoint(set_instance, j, 0)
        a = fin_set(["0", "1"])
        top = enumerate_homs(corner.domain, a)[0]
        d = solve_lift(to_terminal(corner.arrow, top))
        all_diagonals = [
            m
            for m in brute_force_homs(corner.codomain, a)
            if corner.arrow.then(m) == top
        ]
        assert d == min(all_diagonals, key=assignment_tuple)


class TestHasRlp:
    def test_identity_always_lifts(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=1)
        a = corpus_graphs()["chain2"]
        assert has_rlp(identity(a), family).ok

    def test_monoid_carrier_against_set_corners(self, set_instance):
        # any set lifts against the endpoint corners; the monoid structure
        # is never needed
        family = generate_anodyne(set_instance, [], depth=0)
        for carrier in (fin_set(["e"]), fin_set(["0", "1"]), fin_set(["e", "a"])):
            assert has_rlp(bang(carrier), family).ok

    def test_general_right_map(self, graph_instance):
        # the cylinder projection lifts against the endpoint corners; the
        # bottom maps are genuinely enumerated here, not forced

        loop = corpus_graphs()["loop"]
        cyl = graph_instance.cylinder(loop)
        point = fin_graph(["v"], [])
        j = PresheafMap(empty_object(core.GRAPH_SIGNATURE), point, {})
        family = generate_anodyne(graph_instance, [], [j], depth=0)
        verdict = has_rlp(cyl.sigma, family)
        assert verdict.ok
        assert verdict.squares_checked > 1

    def test_chain_fails_with_counterexample(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=0)
        verdict = has_rlp(bang(corpus_graphs()["chain2"]), family)
        assert not verdict.ok
        provenance, top, bottom = verdict.counterexample
        entry = next(e for e in family.entries if e.provenance == provenance)
        problem = LiftingProblem(entry.arrow, bang(corpus_graphs()["chain2"]), top, bottom)
        assert brute_force_lift(problem) is None


class TestGenerateAnodyne:
    def test_single_generator_two_endpoint_corners(self, graph_instance):
        k = fin_graph(["a", "b"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a", "b": "b"}, "edge": {}})
        family = generate_anodyne(graph_instance, [], [j], depth=0)
        assert family.pre_dedup_counts[0] == 2
        # the two endpoint corners are isomorphic arrows, so dedup keeps one
        assert len([entry for entry in family.entries if entry.depth == 0]) == 1

    def test_count_is_seeds_plus_twice_generators(self, graph_instance, set_instance):
        for instance in (graph_instance, set_instance):
            gens = default_generating_monos(instance)
            seeds = [gens[0]]
            family = generate_anodyne(instance, seeds, gens, depth=0)
            assert family.pre_dedup_counts[0] == len(seeds) + 2 * len(gens)

    def test_depth_one_entries_are_full_corners(self, graph_instance):
        # oracle: corner_full applied by hand to each kept depth-0 entry
        point = fin_graph(["v"], [])
        j = PresheafMap(empty_object(core.GRAPH_SIGNATURE), point, {})
        family = generate_anodyne(graph_instance, [], [j], depth=1)
        kept0 = [entry for entry in family.entries if entry.depth == 0]
        expected = [corner_full(graph_instance, entry.arrow).arrow for entry in kept0]
        produced = [entry.arrow for entry in family.entries if entry.depth == 1]
        for arrow in produced:
            assert any(arrows_isomorphic(arrow, exp) for exp in expected)
        assert family.pre_dedup_counts[1] == len(kept0)

    def test_all_entries_are_mono(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=1)
        assert all(is_mono(entry.arrow) for entry in family.entries)

    def test_rejects_non_mono_seed(self, set_instance):
        collapse = PresheafMap(
            fin_set(["x", "y"]), fin_set(["p"]), {"element": {"x": "p", "y": "p"}}
        )
        with pytest.raises(ValidationError):
            generate_anodyne(set_instance, [collapse], depth=0)


class TestArrowsIsomorphic:
    """The one search of codomains against the two nested searches of
    ``conftest.reference_arrows_isomorphic``."""

    @pytest.mark.parametrize("instance, cap, depth", [
        ("set2", None, 4),
        ("graphI", None, 3),
        ("sset-jinf", 1, 2),
        ("sset-jinf", 2, 2),
        ("sset-delta1", 1, 2),
        ("sset-delta1", 2, 2),
    ])
    def test_agrees_on_every_pair_the_dedup_compares(self, instance, cap, depth):
        pairs = []

        def recording(m1, m2, guard=None):
            pairs.append((m1, m2))
            return arrows_isomorphic(m1, m2, guard=guard)

        with mock.patch("phl.lifting.arrows_isomorphic", recording):
            family = generate_anodyne(get_instance(instance, cap), [], depth=depth)
        verdicts = [arrows_isomorphic(m1, m2) for m1, m2 in pairs]
        assert verdicts == [reference_arrows_isomorphic(m1, m2) for m1, m2 in pairs]
        assert sum(family.pre_dedup_counts.values()) - len(family.entries) == sum(verdicts)

    def test_agrees_on_every_pair_of_small_graph_monos(self):
        graphs = all_small_graphs(2, 2)
        monos = [f for a in graphs for b in graphs for f in enumerate_homs(a, b) if is_mono(f)]
        verdicts = {True: 0, False: 0}
        for m1 in monos:
            for m2 in monos:
                verdict = arrows_isomorphic(m1, m2)
                assert verdict == reference_arrows_isomorphic(m1, m2), (m1, m2)
                verdicts[verdict] += 1
        assert verdicts[True] > len(monos) and verdicts[False]

    def test_refuses_a_map_that_is_not_mono(self):
        k, l = fin_set(["x", "y"]), fin_set(["p", "q"])
        collapse = PresheafMap(k, l, {"element": {"x": "p", "y": "p"}})
        mono = PresheafMap(k, l, {"element": {"x": "p", "y": "q"}})
        for m1, m2 in ((collapse, mono), (mono, collapse), (collapse, collapse)):
            with pytest.raises(ValidationError, match="monomorphisms"):
                arrows_isomorphic(m1, m2)
        # arrows of unequal cell counts are told apart before the check
        point = PresheafMap(fin_set(["x"]), l, {"element": {"x": "p"}})
        assert not arrows_isomorphic(collapse, point)


@lru_cache(maxsize=None)
def family_of(instance, depth, cap=None):
    return generate_anodyne(get_instance(instance, cap), [], depth=depth)


def cyclic_rank(k, p):
    """The rank over F_p of the equations x(s0_0 v) = 0, one per vertex v
    of K, and x(d2_1 s) - x(d2_2 s) - x(d2_0 s) = 0, one per 2-simplex s,
    in unknowns x on the 1-simplices of K: a row echelon form keeps one
    row per pivot, the least column of the row, scaled to 1 there."""
    column = {cell: n for n, cell in enumerate(k.cells["1"])}
    rows = [{column[k.ops["s0_0"][v]]: 1} for v in k.cells["0"]]
    for s in k.cells["2"]:
        row = {}
        for face, sign in (("d2_1", 1), ("d2_2", -1), ("d2_0", -1)):
            c = column[k.ops[face][s]]
            row[c] = row.get(c, 0) + sign
        rows.append(row)
    echelon = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            pivot = min(row)
            if pivot not in echelon:
                scale = pow(row[pivot], -1, p)
                echelon[pivot] = {c: v * scale % p for c, v in row.items()}
                break
            factor = row[pivot]
            for c, v in echelon[pivot].items():
                row[c] = (row.get(c, 0) - factor * v) % p
                if not row[c]:
                    del row[c]
    return len(echelon)


def assert_agrees_with_reference(a, family):
    assert is_naively_fibrant_upto(a, family) == has_rlp(bang(a), family)


@contextmanager
def recorded_walks():
    """The frames of the walks that start under it, each readable, locals
    and all, once its walk is done."""
    walk, frames = core._walk, []

    def recorded(*args):
        started = walk(*args)
        frames.append(started.gi_frame)
        return started

    with mock.patch.object(core, "_walk", recorded):
        yield frames


class TestCountedVerdict:
    """The counted verdict against the exhaustive square walk of has_rlp:
    the same ok, count, entry, top and bottom."""

    @pytest.mark.parametrize("depth", range(3))
    def test_sets_and_monoid_carriers(self, depth):
        family = family_of("set2", depth)
        for a in corpus_sets() + [m.carrier() for m in corpus_monoids()]:
            assert_agrees_with_reference(a, family)

    @pytest.mark.parametrize("depth", range(2))
    def test_corpus_categories(self, depth):
        family = family_of("graphI", depth)
        for category in corpus_categories():
            if (category.name, depth) != ("z2_loop", 1):
                assert_agrees_with_reference(category.underlying_graph(), family)

    @pytest.mark.parametrize("depth", range(2))
    def test_small_graphs(self, depth):
        family = family_of("graphI", depth)
        for a in all_small_graphs(3, 3):
            if len(a.cells["vertex"]) >= 2:
                assert_agrees_with_reference(a, family)

    @pytest.mark.parametrize("instance", ["sset-jinf", "sset-delta1"])
    @pytest.mark.parametrize("depth", range(2))
    def test_cap_one_nerves(self, instance, depth):
        family = family_of(instance, depth, cap=1)
        for category in corpus_categories():
            if (category.name, depth) != ("z2_loop", 1):
                assert_agrees_with_reference(nerve(category, 1), family)

    def test_split_of_each_base(self):
        # sets split before their first cell and cap-1 nerves after their
        # 0-simplices.  Graphs split after their vertices, except where
        # neither K nor L has an edge (the corners of the point), so that
        # no vertex bounds anything and K is counted whole
        for entry in family_of("set2", 1).entries:
            assert core._split(entry.arrow)[0] == 0
        for entry in family_of("graphI", 1).entries:
            k, l = entry.arrow.domain, entry.arrow.codomain
            edges = len(k.cells["edge"]) + len(l.cells["edge"])
            assert core._split(entry.arrow)[0] == (len(k.cells["vertex"]) if edges else 0)
        for entry in family_of("sset-jinf", 1, cap=1).entries:
            assert core._split(entry.arrow)[0] == len(entry.arrow.domain.cells["0"])

    def test_isolated_vertex_bounding_an_unpinned_edge_stays_in_the_prefix(self):
        # K is a lone vertex whose image in L bounds the edge outside it:
        # a lift exists for some vertices of A and not for others, so the
        # vertex must be walked, not counted
        k = fin_graph(["a"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        i = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {}})
        assert core._split(i)[0] == 1
        family = AnodyneFamily("hand", (FamilyEntry(i, 0, "vertex-into-edge"),), 0, 0, 0, {})
        a = fin_graph(["p", "q"], [("e", "p", "q")])
        verdict = is_naively_fibrant_upto(a, family)
        assert verdict == has_rlp(bang(a), family)
        assert (verdict.ok, verdict.squares_checked) == (False, 2)

    def test_residual_checks_bound_the_suffix_counts(self):
        # sets with an endomap: a fixed point of K is constrained only by
        # itself, so it joins the suffix and may take only fixed points of A
        sig = core.Signature("endo", ("element",), (("f", "element", "element"),))

        def endo(table):
            return core.PresheafObject(sig, {"element": tuple(table)}, {"f": table})

        k = endo({"x": "x"})
        l = endo({"x": "x", "y": "y"})
        i = PresheafMap(k, l, {"element": {"x": "x"}})
        assert core._split(i)[0] == 0
        family = AnodyneFamily("hand", (FamilyEntry(i, 0, "fixed-point"),), 0, 0, 0, {})
        for a in (endo({"p": "p", "q": "p", "r": "r"}), endo({"p": "q", "q": "p"})):
            assert_agrees_with_reference(a, family)
        verdict = is_naively_fibrant_upto(endo({"p": "p", "q": "p", "r": "r"}), family)
        assert (verdict.ok, verdict.squares_checked) == (True, 2)

    def test_guard_trips_inside_the_suffix_count(self):
        # a set entry splits at 0, so its prefix walk draws no candidate and
        # the guard trips while the suffix cells' candidates are counted
        family = family_of("set2", 0)
        assert core._split(family.entries[0].arrow)[0] == 0
        with pytest.raises(core.GuardExceeded) as raised:
            is_naively_fibrant_upto(fin_set("abc"), family, guard=2)
        assert str(raised.value) == "hom search exceeded the guard of 2 candidates"

    def test_guard_trips_inside_the_checked_suffix_count(self):
        # sets with an endomap split at 0, and the fixed point x of K is a
        # suffix cell with a residual check: its three candidates are
        # counted at once, before the check admits p and r
        sig = core.Signature("endo", ("element",), (("f", "element", "element"),))

        def endo(table):
            return core.PresheafObject(sig, {"element": tuple(table)}, {"f": table})

        k, l = endo({"x": "x"}), endo({"x": "x", "y": "y"})
        i = PresheafMap(k, l, {"element": {"x": "x"}})
        family = AnodyneFamily("hand", (FamilyEntry(i, 0, "fixed-point"),), 0, 0, 0, {})
        a = endo({"p": "p", "q": "p", "r": "r"})
        assert is_naively_fibrant_upto(a, family, guard=3).ok
        with pytest.raises(core.GuardExceeded) as raised:
            is_naively_fibrant_upto(a, family, guard=2)
        assert str(raised.value) == "hom search exceeded the guard of 2 candidates"

    def test_each_part_is_searched_once_per_boundary_values(self, monkeypatch):
        # outside K = {a, b, c, z} the codomain L has two parts: the new
        # vertex d with the edge c -> d, bounded by c, and the edge a -> b,
        # bounded by a and b.  In A every vertex has an outgoing edge
        # but q -> p is missing, so the second part always extends and the
        # first only for some values of a and b.  z bounds nothing: it is
        # counted, two tops per class
        k = fin_graph(["a", "b", "c", "z"], [])
        l = fin_graph(["a", "b", "c", "d", "z"], [("e", "a", "b"), ("f", "c", "d")])
        i = PresheafMap(k, l, {"vertex": {v: v for v in "abcz"}, "edge": {}})
        a = fin_graph(["p", "q"], [("pp", "p", "p"), ("pq", "p", "q"), ("qq", "q", "q")])
        cut, parts = core._split(i)
        assert [pins for _, pins in parts] == [(2,), (0, 1)]
        assert cut == 3
        family = AnodyneFamily("hand", (FamilyEntry(i, 0, "two-parts"),), 0, 0, 0, {})
        walks = []
        walk = core._walk
        monkeypatch.setattr(core, "_walk", lambda *args: walks.append(args[-1]) or walk(*args))
        verdict = is_naively_fibrant_upto(a, family)
        monkeypatch.undo()
        assert verdict == has_rlp(bang(a), family)
        # a = p: four classes of two tops extend; (a, b, c) = (q, p, p) fails
        assert (verdict.ok, verdict.squares_checked) == (False, 9)
        assert verdict.counterexample[1].on["vertex"] == {"a": "q", "b": "p", "c": "p", "z": "p"}
        # one prefix walk, cut after c, then one search per part and
        # boundary values: p, (p, p), q, (p, q) and the failing (q, p)
        assert walks == [3] + [core.DEFAULT_GUARD] * 5

    @pytest.mark.parametrize("target", [
        "chain2", "z2_loop", "groupoid_interval", "parallel_pair", "delta2", "boundary2", "horn20",
    ])
    def test_bucket_lookups_drop_only_prefixes_without_maps(self, target):
        # the classes, counts and failures are those of the walk without
        # lookups.  Each walk with no pin looks up the keyed cells that
        # :func:`core._triggers` lists at the steps of its prefix, later
        # cells included, less those whose bucket is total
        shapes = {
            "delta2": delta(2, 2),
            "boundary2": boundary_inclusion(2, 2).domain,
            "horn20": horn_inclusion(2, 0, 2).domain,
        }
        categories = {c.name: c for c in corpus_categories()}
        a = shapes[target] if target in shapes else nerve(categories[target], 2)
        walks = []
        for entry in family_of("sset-jinf", 0, cap=2).entries:
            with mock.patch.object(core, "_triggers", lambda plan: [()] * len(plan.steps)):
                unwatched = list(core.extension_classes(entry.arrow, a))
            with recorded_walks() as frames:
                assert list(core.extension_classes(entry.arrow, a)) == unwatched
            walks += [frame.f_locals for frame in frames]
        assert any(walk["watch"] is not None for walk in walks)
        for walk in walks:
            plan, cod, watch = walk["plan"], walk["cod"], walk["watch"]
            if any(value is not None for value in walk["pinned"]):
                assert watch is None
                continue
            total = [len(core.buckets(cod, sort, names))
                     == prod(len(cod.cells[t]) for name, _, t in cod.signature.ops if name in names)
                     for sort, names in plan.bucket_keys]
            lookups = [[getter for kid, getter in triggers if not total[kid]]
                       for triggers in core._triggers(plan)[:walk["n"]]]
            assert [[getter for _, getter in step] for step in watch or ()] == (
                lookups if any(lookups) else [])

    @pytest.mark.parametrize("carrier, watched", [("groupoid_interval", False), ("parallel_pair", True)])
    def test_a_total_bucket_is_not_looked_up(self, carrier, watched):
        # graphI's prefix walks assign vertices and count the later edges,
        # whose buckets are keyed by their endpoints, so every lookup they
        # make is a later edge's.  groupoid_interval's carrier has an edge
        # from every vertex to every vertex, so no lookup could miss;
        # parallel_pair's has no edge B -> A
        a = {c.name: c for c in corpus_categories()}[carrier].underlying_graph()
        family = family_of("graphI", 1)
        reference = has_rlp(bang(a), family)
        with recorded_walks() as frames:
            assert is_naively_fibrant_upto(a, family) == reference
        walks = [frame.f_locals for frame in frames if frame.f_locals["stop"] is not None]
        assert walks and any(walk["watch"] is not None for walk in walks) == watched

    def test_cap_two_nerves_finish_within_the_default_guard(self):
        # at cap 2 and depth 1 the prefix walks over these nerves reach
        # edge triples that bound no 2-simplex of A; the bucket lookups
        # reject them as soon as the triple is assigned
        family = family_of("sset-jinf", 1, cap=2)
        for category, squares in ((parallel_category(), 24), (z2_category(), 2_225)):
            verdict = is_naively_fibrant_upto(nerve(category, 2), family)
            assert (verdict.ok, verdict.squares_checked) == (True, squares)

    def test_cap_two_nerves_at_depth_one_within_a_small_guard(self):
        # the prefix walks look a 2-simplex's face triple up as soon as its
        # last edge is assigned, not when they reach the 2-simplex, so most
        # edge pairs die before any later edge is drawn.  Without these
        # lookups each case exceeded a guard of 10^6 candidates
        objects = ("X", "Y", "Z")
        identities = {o: f"i{o}" for o in objects}
        discrete3 = FiniteCategory(
            objects, [(i, o, o) for o, i in identities.items()], identities,
            {i: {i: i} for i in identities.values()}, name="discrete3",
        )
        for category, instance, squares in ((chain2_category(), "sset-jinf", 38),
                                            (discrete3, "sset-jinf", 18),
                                            (discrete3, "sset-delta1", 30)):
            family = family_of(instance, 1, cap=2)
            verdict = is_naively_fibrant_upto(nerve(category, 2), family, guard=10_000)
            assert (verdict.ok, verdict.squares_checked) == (True, squares)

    def test_cap_two_nerves_at_depth_two_within_the_default_guard(self):
        # these exceeded the default guard before the walk looked up its
        # own keyed cells
        family = family_of("sset-jinf", 2, cap=2)
        for category, squares in ((discrete2_category(), 18), (chain2_category(), 57)):
            verdict = is_naively_fibrant_upto(nerve(category, 2), family)
            assert (verdict.ok, verdict.squares_checked) == (True, squares)


class TestFibrancy:
    def test_terminal_always_fibrant(self, graph_instance):
        one = core.terminal_object(core.GRAPH_SIGNATURE)
        for depth in (0, 1):
            family = generate_anodyne(graph_instance, [], depth=depth)
            assert is_naively_fibrant_upto(one, family).ok

    def test_nonempty_sets_fibrant(self, set_instance):
        family = generate_anodyne(set_instance, [], depth=1)
        for n in (1, 2, 3):
            a = fin_set([f"x{i}" for i in range(n)])
            verdict = is_naively_fibrant_upto(a, family)
            assert verdict.ok
            assert "depth 1" in verdict.caveat

    def test_symmetric_category_fibrant_at_depth_one(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=1)
        for algebra in (terminal_category(), groupoid_interval()):
            assert is_naively_fibrant_upto(algebra.underlying_graph(), family).ok

    def test_z2_fibrant_at_depth_zero(self, graph_instance):
        # parallel loops blow up the square count at depth 1 (every corner
        # edge is unconstrained); the exhaustive walk of has_rlp reaches
        # only depth 0, the counted verdict also the siblings below
        family = generate_anodyne(graph_instance, [], depth=0)
        assert is_naively_fibrant_upto(z2_category().underlying_graph(), family).ok

    @pytest.mark.parametrize("depth, squares", [
        (1, 67_109_924),
        (2, 83_076_749_736_557_242_060_991_540_962_001_957),
    ])
    def test_z2_fibrant_at_depth(self, depth, squares):
        # one vertex with two loops: each top map is constant on vertices
        # and picks either loop for every edge of the entry's domain
        family = family_of("graphI", depth)
        verdict = is_naively_fibrant_upto(z2_category().underlying_graph(), family)
        assert verdict.ok
        assert verdict.squares_checked == squares == sum(
            2 ** len(entry.arrow.domain.cells["edge"]) for entry in family.entries
        )

    def test_groupoid_interval_fibrant_at_depth_two(self, monkeypatch):
        # the carrier has one edge from every vertex to every vertex, so a
        # top map is any map on the vertices of the entry's domain.  Its
        # 131,619 classes are counted in about a second, since each later
        # edge is recounted only when a vertex it reads changes, and
        # remembering which part boundaries extend leaves 25 searches
        family, a = family_of("graphI", 2), groupoid_interval().underlying_graph()
        classes, searches = [], []
        extension_classes, search_maps = core.extension_classes, core.search_maps

        def counted(*args, **kwargs):
            for found in extension_classes(*args, **kwargs):
                classes.append(found)
                yield found

        monkeypatch.setattr(lifting, "extension_classes", counted)
        monkeypatch.setattr(core, "search_maps",
                            lambda *args, **kwargs: searches.append(args) or search_maps(*args, **kwargs))
        verdict = is_naively_fibrant_upto(a, family)
        assert (verdict.ok, verdict.squares_checked) == (True, 131_890)
        assert verdict.squares_checked == sum(
            2 ** len(entry.arrow.domain.cells["vertex"]) for entry in family.entries
        )
        assert (len(classes), len(searches)) == (131_619, 25)

    @pytest.mark.parametrize("instance, squares", [
        ("sset-delta1", 262_162),
        ("sset-jinf", 17_179_869_281),
    ])
    def test_z2_nerve_fibrant_at_depth_one(self, instance, squares):
        # the cap-1 nerve has one vertex, its degeneracy and the loop g:
        # a top map sends each degenerate 1-simplex to the degeneracy and
        # picks either 1-simplex for every other one
        family = family_of(instance, 1, cap=1)
        verdict = is_naively_fibrant_upto(nerve(z2_category(), 1), family)
        assert verdict.ok
        assert verdict.squares_checked == squares == sum(
            2 ** (len(k.cells["1"]) - len(set(k.ops["s0_0"].values())))
            for k in (entry.arrow.domain for entry in family.entries)
        )

    @pytest.mark.parametrize("instance, squares", [
        ("sset-delta1", 8_868),
        ("sset-jinf", 4_450),
    ])
    def test_groupoid_interval_nerve_fibrant_at_depth_one(self, instance, squares):
        # the codiscrete groupoid on two objects has one arrow between any
        # two, so its cap-2 nerve is 0-coskeletal: a top map is any map on
        # the vertices of the entry's domain, and the simplices above follow
        family = family_of(instance, 1, cap=2)
        verdict = is_naively_fibrant_upto(nerve(groupoid_interval(), 2), family)
        assert verdict.ok
        assert verdict.squares_checked == squares == sum(
            2 ** len(entry.arrow.domain.cells["0"]) for entry in family.entries
        )

    @pytest.mark.parametrize("p, entries, instance, squares", [
        (2, None, "sset-jinf", 2_225),
        (2, None, "sset-delta1", 4_434),
        (3, 5, "sset-jinf", 2_485),
        (3, 5, "sset-delta1", 299),
    ])
    def test_cyclic_group_nerve_fibrant_at_depth_one(self, p, entries, instance, squares):
        # a map from K to the cap-2 nerve of Z/p sends every vertex to the
        # one object and is fixed by its values x(e) in Z/p on the
        # 1-simplices, subject to x(s0_0 v) = 0 for each vertex v and
        # x(d2_1 s) = x(d2_2 s) + x(d2_0 s) for each 2-simplex s: so there
        # are p^(|K_1| - r) of them, r the rank of those equations over
        # F_p.  Z/3 is checked on the first five entries of its family,
        # whose last one alone takes most of a minute
        if p == 2:
            category = z2_category()
        else:
            category = FiniteCategory(
                ["*"], [(str(g), "*", "*") for g in range(p)], {"*": "0"},
                {str(g): {str(h): str((g + h) % p) for h in range(p)} for g in range(p)},
                name=f"z{p}",
            )
        family = family_of(instance, 1, cap=2)
        family = dataclasses.replace(family, entries=family.entries[:entries])
        verdict = is_naively_fibrant_upto(nerve(category, 2), family)
        assert verdict.ok
        assert verdict.squares_checked == squares == sum(
            p ** (len(k.cells["1"]) - cyclic_rank(k, p))
            for k in (entry.arrow.domain for entry in family.entries)
        )

    def test_discrete_category_fails_thread_corner(self, graph_instance):
        # the corner over the discrete pair demands connector morphisms the
        # discrete category does not have; a genuine gap of the strict
        # product reading, kept visible as a negative control
        family = generate_anodyne(graph_instance, [], depth=0)
        verdict = is_naively_fibrant_upto(discrete2_category().underlying_graph(), family)
        assert not verdict.ok

    def test_depth_monotone_verdicts(self, graph_instance):
        family0 = generate_anodyne(graph_instance, [], depth=0)
        family1 = generate_anodyne(graph_instance, [], depth=1)
        probes = [
            corpus_graphs()["chain2"],
            corpus_graphs()["loop"],
            groupoid_interval().underlying_graph(),
            core.terminal_object(core.GRAPH_SIGNATURE),
        ]
        for a in probes:
            v0 = is_naively_fibrant_upto(a, family0).ok
            v1 = is_naively_fibrant_upto(a, family1).ok
            if v1:
                assert v0

    def test_fibrant_implies_equivalence_relation(self, graph_instance):
        # fibrant targets collapse the closure to one step
        family = generate_anodyne(graph_instance, [], depth=1)
        probes = [corpus_graphs()["vertex"], corpus_graphs()["loop"], corpus_graphs()["edge"]]
        for algebra in (terminal_category(), groupoid_interval()):
            a = algebra.underlying_graph()
            if is_naively_fibrant_upto(a, family).ok:
                for x in probes:
                    _, related = one_step_relation(graph_instance, x, a)
                    assert all(relation_properties(related))
