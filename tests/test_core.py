import pytest
from hypothesis import given, strategies as st

from phl import core
from phl.core import (
    PresheafMap,
    ValidationError,
    coproduct_of,
    fin_graph,
    fin_set,
    identity,
    is_mono,
    product,
    pushout,
    terminal_object,
)

from phl.documents import parse_document

from conftest import brute_force_homs, enumerate_homs, reference_plan


def vertex_map(dom, cod, vertices, edges=None):
    return PresheafMap(dom, cod, {"vertex": vertices, "edge": edges or {}})


class TestBuildObject:
    def test_one_vertex_graph(self):
        g = parse_document({"kind": "graph", "vertices": ["a"], "edges": []})
        assert g.cells["vertex"] == ("a",)
        assert g.cells["edge"] == ()

    def test_two_element_set(self):
        s = parse_document({"kind": "set", "elements": ["x", "y"]})
        assert s.cells["element"] == ("x", "y")

    def test_dangling_endpoint(self):
        with pytest.raises(ValidationError, match="dangling|not a declared vertex"):
            parse_document({"kind": "graph", "vertices": ["a"], "edges": [["e", "a", "b"]]})

    def test_duplicate_label(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_document({"kind": "set", "elements": ["x", "x"]})

    def test_unknown_sort(self):
        with pytest.raises(ValidationError, match="unknown sort"):
            parse_document({"kind": "widget"})

    def test_enumeration_order_is_sorted(self):
        s = parse_document({"kind": "set", "elements": ["c", "a", "b"]})
        assert s.cells["element"] == ("a", "b", "c")


class TestIsMono:
    def test_identity_is_mono(self):
        g = fin_graph(["a", "b"], [("e", "a", "b")])
        assert is_mono(identity(g))

    def test_constant_collapse_is_not(self):
        two = fin_set(["x", "y"])
        one = fin_set(["p"])
        f = PresheafMap(two, one, {"element": {"x": "p", "y": "p"}})
        assert not is_mono(f)

    def test_edge_collapse_with_injective_vertices(self):
        # oracle: a direct injectivity scan on the edge sort
        par = fin_graph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
        single = fin_graph(["a", "b"], [("e", "a", "b")])
        collapse = vertex_map(par, single, {"a": "a", "b": "b"}, {"e": "e", "f": "e"})
        edge_images = [collapse.on["edge"][e] for e in par.cells["edge"]]
        assert len(set(edge_images)) < len(edge_images)
        assert not is_mono(collapse)
        vertex_images = [collapse.on["vertex"][v] for v in par.cells["vertex"]]
        assert len(set(vertex_images)) == len(vertex_images)


class TestCoproduct:
    def test_points(self):
        obj, _ = coproduct_of(core.SET_SIGNATURE, [("l:", fin_set(["p"])), ("r:", fin_set(["p"]))])
        assert len(obj.cells["element"]) == 2

    def test_unit_law_up_to_relabelling(self):
        x = fin_graph(["a", "b"], [("e", "a", "b")])
        empty = core.empty_object(x.signature)
        obj, (inl, _) = coproduct_of(x.signature, [("l:", x), ("r:", empty)])
        assert core.is_iso(inl)

    def test_loop_plus_vertex(self):
        obj, _ = coproduct_of(
            core.GRAPH_SIGNATURE,
            [("l:", fin_graph(["a"], [("l", "a", "a")])), ("r:", fin_graph(["b"], []))],
        )
        assert len(obj.cells["vertex"]) == 2
        assert len(obj.cells["edge"]) == 1

    def test_no_summands_give_the_empty_object(self):
        sig = fin_graph([], []).signature
        obj, injections = coproduct_of(sig, [])
        assert obj == core.empty_object(sig)
        assert injections == []

    def test_n_ary_labels_and_disjoint_covering_injections(self):
        summands = [
            ("0/", fin_graph(["a", "b"], [("e", "a", "b")])),
            ("1/", fin_graph(["a"], [("e", "a", "a")])),
            ("2/", fin_graph([], [])),
        ]
        obj, injections = coproduct_of(summands[0][1].signature, summands)
        assert len(injections) == len(summands)
        for (prefix, x), inj in zip(summands, injections):
            assert inj.domain == x and inj.codomain == obj
            for sort, cell in x.cell_items():
                assert inj(sort, cell) == prefix + cell
            assert is_mono(inj)
        for sort in obj.signature.sorts:
            images = [c for inj in injections for c in inj.on[sort].values()]
            assert sorted(images) == list(obj.cells[sort])
        assert obj.op("src", "1/e") == "1/a" and obj.op("tgt", "0/e") == "0/b"

    def test_colliding_prefixes_are_refused(self):
        with pytest.raises(ValidationError):
            coproduct_of(core.SET_SIGNATURE, [("", fin_set(["a"])), ("", fin_set(["a"]))])


class TestPushout:
    def test_absorption(self):
        a = fin_graph(["a", "b"], [("e", "a", "b")])
        po = pushout(identity(a), identity(a))
        assert core.is_iso(po.left)
        assert core.is_iso(po.right)

    def test_wedge_of_two_edges(self):
        # oracle: the quotient of 4 vertices by one identification has 3
        # vertices; no edge identifications happen
        pt = fin_graph(["p"], [])
        e1 = fin_graph(["p", "q"], [("e", "p", "q")])
        e2 = fin_graph(["p", "r"], [("f", "p", "r")])
        po = pushout(vertex_map(pt, e1, {"p": "p"}), vertex_map(pt, e2, {"p": "p"}))
        assert len(po.apex.cells["vertex"]) == 3
        assert len(po.apex.cells["edge"]) == 2

    def test_glued_interval_is_two_edge_chain(self):
        # pushout of {1} -> [1-chain] against {0} -> [1-chain]
        pt = fin_graph(["x"], [])
        chain = fin_graph(["0", "1"], [("e", "0", "1")])
        po = pushout(
            vertex_map(pt, chain, {"x": "1"}), vertex_map(pt, chain, {"x": "0"})
        )
        apex = po.apex
        assert len(apex.cells["vertex"]) == 3
        assert len(apex.cells["edge"]) == 2
        sources = {apex.op("src", e) for e in apex.cells["edge"]}
        targets = {apex.op("tgt", e) for e in apex.cells["edge"]}
        # a genuine chain: one shared middle vertex
        assert len(sources & targets) == 1

    def test_mediating_map_is_unique(self):
        # oracle: enumerate all maps out of the apex and count the ones
        # that satisfy both triangles
        pt = fin_set(["x"])
        b = fin_set(["x", "y"])
        c = fin_set(["x", "z"])
        f = PresheafMap(pt, b, {"element": {"x": "x"}})
        g = PresheafMap(pt, c, {"element": {"x": "x"}})
        po = pushout(f, g)
        z = fin_set(["0", "1", "2"])
        for p in enumerate_homs(b, z):
            for q in enumerate_homs(c, z):
                mediating = po.mediate(p, q)
                candidates = [
                    m
                    for m in brute_force_homs(po.apex, z)
                    if po.left.then(m) == p and po.right.then(m) == q
                ]
                if f.then(p) == g.then(q):
                    assert mediating is not None
                    assert candidates == [mediating]
                else:
                    assert mediating is None
                    assert not candidates

    def test_pushout_of_mono_is_mono_exhaustive(self):
        # adhesivity at desk scale, over spans on <= 3 cells per sort
        a = fin_set(["x"])
        b = fin_set(["x", "y"])
        cs = [fin_set([]), fin_set(["p"]), fin_set(["p", "q"])]
        monos = [m for m in enumerate_homs(a, b) if is_mono(m)]
        for c in cs:
            for g in enumerate_homs(a, c):
                for f in monos:
                    po = pushout(f, g)
                    assert is_mono(po.right)


class TestProduct:
    def test_unit_graph(self):
        x = fin_graph(["a"], [("l", "a", "a")])
        one = terminal_object(x.signature)
        obj, pr1, _ = product(x, one)
        assert core.is_iso(pr1)

    def test_two_by_two(self):
        obj, _, _ = product(fin_set(["a", "b"]), fin_set(["0", "1"]))
        assert len(obj.cells["element"]) == 4

    def test_vertex_times_interval_has_no_edges(self, graph_instance):
        # componentwise pair enumeration: the left factor has no edges
        v = fin_graph(["a"], [])
        obj, _, _ = product(v, graph_instance.interval)
        assert len(obj.cells["vertex"]) == 2
        assert len(obj.cells["edge"]) == 0


class TestSearchPlan:
    """The plan compiled per operator against the per-cell reference."""

    @staticmethod
    def _domains(group):
        from phl import fixtures, simplicial

        if group == "corpus":
            return (fixtures.corpus_sets() + list(fixtures.corpus_graphs().values())
                    + [simplicial.nerve(c, cap) for c in fixtures.corpus_categories()
                       for cap in range(4)])
        if group == "cylinders":
            return [simplicial.jinf_instance(cap).cylinder(simplicial.nerve(c, cap)).obj
                    for c in fixtures.corpus_categories() for cap in (4, 5)]
        if group == "horns":
            return [simplicial._nondegenerate_horn(n, k) for n in range(6) for k in range(n + 1)]
        if group == "small-graphs":
            return list(fixtures.all_small_graphs(3, 3))
        # operators within a sort, fixing cells or moving them either way
        endo = core.Signature("endo", ("a", "b"), (("f", "a", "a"), ("g", "b", "a"),
                                                   ("h", "b", "b")))
        cells = {"a": ("a0", "a1", "a2"), "b": ("b0", "b1")}
        return [core.PresheafObject(endo, cells, {"f": dict(zip(cells["a"], images)),
                                                  "g": {"b0": "a2", "b1": "a0"},
                                                  "h": {"b0": "b1", "b1": "b1"}})
                for images in (("a0", "a1", "a2"), ("a2", "a0", "a0"), ("a1", "a2", "a0"))]

    @pytest.mark.parametrize("group", ["corpus", "cylinders", "horns", "small-graphs",
                                       "endomaps"])
    def test_compiles_as_the_per_cell_reference(self, group):
        domains = self._domains(group)
        assert domains
        for dom in domains:
            plan = core._SearchPlan(dom)
            steps = [step[:3] + ((step[3][0], step[3][1].__reduce__()[1]),) + step[4:]
                     if step[2] == core._KEYED else step for step in plan.steps]
            assert (plan.positions, plan.spans, plan.bucket_keys, steps) == reference_plan(dom)


class TestEnumerateHoms:
    def test_point_into_n_points(self):
        for n in range(1, 5):
            target = fin_set([f"x{i}" for i in range(n)])
            assert len(enumerate_homs(fin_set(["p"]), target)) == n

    def test_vertex_into_interval(self, graph_instance):
        assert len(enumerate_homs(fin_graph(["a"], []), graph_instance.interval)) == 2

    def test_loop_into_double_loop(self):
        loop = fin_graph(["a"], [("l", "a", "a")])
        double = fin_graph(["v"], [("p", "v", "v"), ("q", "v", "v")])
        assert len(enumerate_homs(loop, double)) == 2

    def test_matches_brute_force(self, graph_instance):
        loop = fin_graph(["a"], [("l", "a", "a")])
        chain = fin_graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        for dom, cod in [
            (loop, graph_instance.interval),
            (chain, graph_instance.interval),
            (graph_instance.interval, chain),
            (fin_set(["a", "b"]), fin_set(["0", "1", "2"])),
        ]:
            fast = enumerate_homs(dom, cod)
            slow = brute_force_homs(dom, cod)
            assert fast == slow

    def test_lexicographic_order(self):
        maps = enumerate_homs(fin_set(["a", "b"]), fin_set(["0", "1"]))
        keys = [m.assignment_tuple() for m in maps]
        assert keys == sorted(keys)

    def test_guard_fails_loudly(self):
        big = fin_set([f"x{i}" for i in range(6)])
        with pytest.raises(core.GuardExceeded):
            enumerate_homs(big, big, guard=10)

    def test_guard_counts_indexed_graph_candidates(self):
        # one vertex candidate, then each loop draws the 3 loops over it:
        # 1 + 3 + 3 * 3 = 13 candidates for the 9 maps
        two = fin_graph(["a"], [("l", "a", "a"), ("m", "a", "a")])
        three = fin_graph(["v"], [("p", "v", "v"), ("q", "v", "v"), ("r", "v", "v")])
        assert len(enumerate_homs(two, three, guard=13)) == 9
        with pytest.raises(core.GuardExceeded, match="guard of 12 candidates"):
            enumerate_homs(two, three, guard=12)

    def test_guard_counts_a_forced_cell_as_one(self):
        from phl.fixtures import chain2_category
        from phl.simplicial import delta, nerve

        # the degenerate edge 00 of the point is forced by its vertex
        point, target = delta(0, 1), nerve(chain2_category(), 1)
        assert len(enumerate_homs(point, target, guard=6)) == 3
        with pytest.raises(core.GuardExceeded):
            enumerate_homs(point, target, guard=5)

    @pytest.mark.parametrize("pin, message", [
        ({"element": {"b": "x"}}, "pin sends element 'b' to 'x': the domain has no such element"),
        ({"vertex": {"a": "x"}}, "pin sends vertex 'a' to 'x': the domain has no such vertex"),
        ({"element": {"a": "zzz"}}, "pin sends element 'a' to 'zzz': the codomain has no such element"),
    ], ids=["cell-of-no-domain", "sort-of-no-domain", "value-of-no-codomain"])
    def test_refuses_a_pin_that_is_not_a_map(self, pin, message):
        # a pin names a cell of the domain and a cell of the codomain of its
        # sort; anything else would be dropped or yield a map into nothing
        with pytest.raises(ValidationError) as raised:
            list(core.search_maps(fin_set("a"), fin_set("xy"), pin=pin))
        assert str(raised.value) == message


@st.composite
def small_set_maps(draw):
    sizes = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    a, b, c = (fin_set([f"x{i}" for i in range(n)]) for n in sizes)
    f_idx = draw(st.integers(0, len(enumerate_homs(a, b)) - 1))
    g_idx = draw(st.integers(0, len(enumerate_homs(b, c)) - 1))
    return enumerate_homs(a, b)[f_idx], enumerate_homs(b, c)[g_idx]


@given(small_set_maps())
def test_mono_composition_closed(pair):
    f, g = pair
    if is_mono(f) and is_mono(g):
        assert is_mono(f.then(g))
