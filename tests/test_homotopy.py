import pytest

from phl.core import PresheafMap, fin_graph, fin_set, identity
from phl.cylinder import CylinderData, get_instance
from phl.homotopy import find_homotopy, homotopy_classes, induced_class_map
from phl.fixtures import chain2_category, corpus_categories, corpus_graphs, groupoid_interval
from phl.simplicial import delta, nerve

from conftest import (
    assignment_tuple, brute_force_homs, enumerate_homs, one_step_relation, relation_properties,
)


def one_step_matrix(instance, x, a):
    """Independent oracle: the full pairwise homotopy matrix computed by
    scanning every candidate cylinder map."""
    homs = brute_force_homs(x, a)
    cyl = instance.cylinder(x)
    thetas = brute_force_homs(cyl.obj, a)
    matrix = {}
    for f in homs:
        for g in homs:
            matrix[(f, g)] = any(
                cyl.d0.then(t) == f and cyl.d1.then(t) == g for t in thetas
            )
    return homs, matrix


class TestFindHomotopy:
    def test_constant_homotopy(self, graph_instance):
        loop = fin_graph(["a"], [("l", "a", "a")])
        f = enumerate_homs(loop, corpus_graphs()["two_loops"])[0]
        found = find_homotopy(graph_instance, f, f)
        assert found is not None
        cyl = graph_instance.cylinder(loop)
        assert found == cyl.sigma.then(f)

    def test_sets_always_homotopic(self, set_instance):
        x, y = fin_set(["a", "b"]), fin_set(["p", "q", "r"])
        for f in enumerate_homs(x, y):
            for g in enumerate_homs(x, y):
                assert find_homotopy(set_instance, f, g) is not None

    def test_disconnected_loops_not_homotopic(self, graph_instance):
        # oracle: every (l, u) image needs an edge between the two loop
        # vertices, and there is none
        loop = fin_graph(["a"], [("l", "a", "a")])
        y = corpus_graphs()["looped_pair"]
        f = PresheafMap(loop, y, {"vertex": {"a": "p"}, "edge": {"l": "lp"}})
        g = PresheafMap(loop, y, {"vertex": {"a": "q"}, "edge": {"l": "lq"}})
        assert find_homotopy(graph_instance, f, g) is None
        _, matrix = one_step_matrix(graph_instance, loop, y)
        assert not matrix[(f, g)]

    def test_matches_oracle(self, graph_instance):
        x = corpus_graphs()["edge"]
        a = groupoid_interval().underlying_graph()
        homs, matrix = one_step_matrix(graph_instance, x, a)
        for f in homs:
            for g in homs:
                assert (find_homotopy(graph_instance, f, g) is not None) == matrix[(f, g)]


class TestHomotopyClasses:
    def test_sets_single_class(self, set_instance):
        classes = homotopy_classes(set_instance, fin_set(["a", "b"]), fin_set(["p", "q"]))
        assert classes.class_count == 1

    def test_vertex_into_interval(self, graph_instance):
        # oracle: two maps, the free thread connects them
        classes = homotopy_classes(
            graph_instance, fin_graph(["a"], []), graph_instance.interval
        )
        assert len(classes.homs) == 2
        assert classes.class_count == 1

    def test_loop_into_disconnected_loops(self, graph_instance):
        classes = homotopy_classes(
            graph_instance, fin_graph(["a"], [("l", "a", "a")]), corpus_graphs()["looped_pair"]
        )
        assert len(classes.homs) == 2
        assert classes.class_count == 2

    def test_representative_is_least(self, graph_instance):
        classes = homotopy_classes(
            graph_instance, fin_graph(["a"], []), graph_instance.interval
        )
        rep = classes.representatives()[0]
        keys = [assignment_tuple(h) for h in classes.homs]
        assert assignment_tuple(rep) == min(keys)


class TestInducedClassMap:
    def test_identity_is_bijective(self, graph_instance):
        x = corpus_graphs()["loop"]
        a = corpus_graphs()["two_loops"]
        induced = induced_class_map(graph_instance, identity(x), a)
        assert induced.bijective

    def test_sets_singleton_to_singleton(self, set_instance):
        f = PresheafMap(fin_set(["a"]), fin_set(["p", "q"]), {"element": {"a": "q"}})
        induced = induced_class_map(set_instance, f, fin_set(["m", "n"]))
        assert induced.bijective

    def test_endpoint_inclusion_into_interval(self, graph_instance):
        # oracle: enumerate both hom-sets and quotient them directly
        x = fin_graph(["0"], [])
        cyl = graph_instance.cylinder(x)
        a = groupoid_interval().underlying_graph()
        induced = induced_class_map(graph_instance, cyl.d0, a)
        assert induced.well_defined
        src = homotopy_classes(graph_instance, cyl.obj, a)
        tgt = homotopy_classes(graph_instance, x, a)
        mapping = [tgt.class_of(cyl.d0.then(src.homs[members[0]])) for members in src.classes]
        assert (induced.injective, induced.surjective) == (
            src.class_count >= tgt.class_count and len(set(mapping)) == len(mapping),
            set(mapping) == set(range(tgt.class_count)),
        )


class TestEquivalenceRelation:
    def test_sets_total_relation(self, set_instance):
        _, related = one_step_relation(set_instance, fin_set(["a", "b"]), fin_set(["p"]))
        assert all(relation_properties(related))

    def test_symmetric_category_passes(self, graph_instance):
        a = groupoid_interval().underlying_graph()
        for x in (corpus_graphs()["loop"], corpus_graphs()["edge"], corpus_graphs()["vertex"]):
            _, related = one_step_relation(graph_instance, x, a)
            assert all(relation_properties(related)), x.cells

    def test_graph_one_step_is_always_symmetric(self, graph_instance):
        # the interval swap is an automorphism, so one-step homotopy can
        # never fail symmetry in this instance; the 2-chain passes
        chain = corpus_graphs()["chain2"]
        for x in (corpus_graphs()["vertex"], corpus_graphs()["edge"], corpus_graphs()["loop"]):
            _, related = one_step_relation(graph_instance, x, chain)
            reflexive, symmetric, transitive = relation_properties(related)
            assert symmetric
            assert reflexive and transitive

    def test_directed_interval_breaks_symmetry(self):
        # the simplicial 1-simplex is not symmetric; homotopy along it is
        # directed and the 2-chain nerve exhibits the failure
        instance = get_instance("sset-delta1", cap=2)
        a = nerve(chain2_category(), 2)
        _, related = one_step_relation(instance, delta(0, 2), a)
        reflexive, symmetric, _ = relation_properties(related)
        assert reflexive
        assert not symmetric

    def test_fibrant_target_collapses_closure(self, graph_instance):
        # over targets passing the depth-1 fibrancy check, one step already
        # equals the closure, for every probe in the corpus
        from phl.fixtures import terminal_category
        from phl.lifting import generate_anodyne, is_naively_fibrant_upto

        family = generate_anodyne(graph_instance, [], depth=1)
        targets = [
            groupoid_interval().underlying_graph(),
            terminal_category().underlying_graph(),
        ]
        probes = [
            corpus_graphs()["vertex"], corpus_graphs()["edge"], corpus_graphs()["loop"]
        ]
        for a in targets:
            assert is_naively_fibrant_upto(a, family).ok
            for x in probes:
                classes = homotopy_classes(graph_instance, x, a)
                homs, matrix = one_step_matrix(graph_instance, x, a)
                for f in homs:
                    for g in homs:
                        same_class = classes.class_of(f) == classes.class_of(g)
                        assert matrix[(f, g)] == same_class


class TestCongruence:
    def test_closure_respects_composition(self, graph_instance):
        x = corpus_graphs()["vertex"]
        y = corpus_graphs()["loop"]
        z = corpus_graphs()["two_loops"]
        classes_xy = homotopy_classes(graph_instance, x, y)
        for f in classes_xy.homs:
            for g in classes_xy.homs:
                if classes_xy.class_of(f) != classes_xy.class_of(g):
                    continue
                for h in enumerate_homs(y, z):
                    classes_xz = homotopy_classes(graph_instance, x, z)
                    assert classes_xz.class_of(f.then(h)) == classes_xz.class_of(g.then(h))


def closure_classes(related):
    """Classes of the equivalence the relation generates, by graph search:
    index tuples ordered by least member."""
    n = len(related)
    seen, classes = set(), []
    for start in range(n):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if (related[i][j] or related[j][i]) and j not in component:
                    component.add(j)
                    frontier.append(j)
        seen |= component
        classes.append(tuple(sorted(component)))
    return tuple(classes)


class TestSharedCylinder:
    """One cylinder per class computation agrees with a cylinder per pair."""

    def _agree(self, instance, x, a):
        homs, related = one_step_relation(instance, x, a)
        classes = homotopy_classes(instance, x, a)
        assert classes.homs == tuple(homs)
        assert classes.classes == closure_classes(related)

    @pytest.mark.parametrize("x", sorted(corpus_graphs()))
    def test_corpus_graphs_under_graph_interval(self, graph_instance, x):
        graphs = corpus_graphs()
        for a in graphs.values():
            self._agree(graph_instance, graphs[x], a)

    # the directed sset-delta1 gives relations that are not symmetric
    @pytest.mark.parametrize("name", ["sset-jinf", "sset-delta1"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_cap2_nerves(self, name, k):
        instance = get_instance(name, cap=2)
        for category in corpus_categories():
            self._agree(instance, delta(k, 2), nerve(category, 2))

    def test_one_cylinder_per_class_computation(self, graph_instance, monkeypatch):
        built = []
        make = CylinderData.cylinder

        def counted(self, x):
            built.append(x)
            return make(self, x)

        monkeypatch.setattr(CylinderData, "cylinder", counted)
        x, a = corpus_graphs()["edge"], corpus_graphs()["looped_edge"]
        classes = homotopy_classes(graph_instance, x, a)
        assert len(classes.homs) > 2
        assert built == [x]
