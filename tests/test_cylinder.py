import pytest

from phl import core
from phl.core import (
    PresheafMap,
    ValidationError,
    fin_graph,
    fin_set,
    identity,
    is_iso,
    is_mono,
    pair_label,
)
from phl.cylinder import (
    Cylinder,
    corner_endpoint,
    corner_full,
    get_instance,
    verify_ehd,
)
from phl.fixtures import all_small_graphs, corpus_monos_graph, corpus_monos_set, corpus_spans_graph, corpus_spans_set
from phl.lifting import default_generating_monos, generate_anodyne

from conftest import enumerate_homs, inverse


class TestCylinderOf:
    def test_set_cylinder_is_product_with_two(self, set_instance):
        x = fin_set(["x", "y"])
        cyl = set_instance.cylinder(x)
        assert len(cyl.obj.cells["element"]) == 4
        assert cyl.d0.on["element"]["x"] == pair_label("x", "0")

    def test_loop_cylinder_edges(self, graph_instance):
        # oracle: componentwise edge pairs (l, -) over the 4 interval edges
        loop = fin_graph(["a"], [("l", "a", "a")])
        cyl = graph_instance.cylinder(loop)
        assert len(cyl.obj.cells["vertex"]) == 2
        expected = {pair_label("l", j) for j in ("u", "d", "l0", "l1")}
        assert set(cyl.obj.cells["edge"]) == expected

    def test_sigma_section(self, graph_instance):
        for g in all_small_graphs(2, 2)[:20]:
            cyl = graph_instance.cylinder(g)
            assert cyl.d0.then(cyl.sigma) == identity(g)
            assert cyl.d1.then(cyl.sigma) == identity(g)

    def test_base_mismatch(self, set_instance):
        with pytest.raises(core.MismatchError):
            set_instance.cylinder(fin_graph(["a"], []))


def _copair_mono(cyl):
    for sort in cyl.base.signature.sorts:
        images = [cyl.d0.on[sort][c] for c in cyl.base.cells[sort]]
        images += [cyl.d1.on[sort][c] for c in cyl.base.cells[sort]]
        if len(set(images)) != len(images):
            return False
    return True


def test_endpoint_copair_is_mono_everywhere(graph_instance, set_instance):
    for g in all_small_graphs(3, 3):
        assert _copair_mono(graph_instance.cylinder(g))
    for n in range(4):
        assert _copair_mono(set_instance.cylinder(fin_set([f"x{i}" for i in range(n)])))


class TestCornerFull:
    def test_identity_seed_is_iso(self, graph_instance):
        # K = L makes the union all of L x I
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        corner = corner_full(graph_instance, identity(l))
        assert is_iso(corner.arrow)

    def test_empty_seed_gives_boundary_inclusion(self, graph_instance):
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(core.empty_object(core.GRAPH_SIGNATURE), l, {})
        corner = corner_full(graph_instance, j)
        assert len(corner.domain.cells["vertex"]) == 4
        assert len(corner.domain.cells["edge"]) == 2
        assert is_mono(corner.arrow)
        assert not is_iso(corner.arrow)

    def test_point_seed_in_sets_is_iso(self, set_instance):
        # oracle: {pt} x {0,1} inside {pt} x 2 is everything
        j = PresheafMap(core.empty_object(core.SET_SIGNATURE), fin_set(["p"]), {})
        corner = corner_full(set_instance, j)
        assert is_iso(corner.arrow)

    def test_vertex_into_edge(self, graph_instance):
        # oracle: the explicit pushout K x I + L x dI over K x dI
        k = fin_graph(["a"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {}})
        corner = corner_full(graph_instance, j)
        assert len(corner.domain.cells["vertex"]) == 4
        # L x dI contributes the two level edges of e
        assert len(corner.domain.cells["edge"]) == 2

    def test_rejects_non_mono(self, set_instance):
        two, one = fin_set(["x", "y"]), fin_set(["p"])
        collapse = PresheafMap(two, one, {"element": {"x": "p", "y": "p"}})
        with pytest.raises(ValidationError):
            corner_full(set_instance, collapse)


class TestCornerEndpoint:
    def test_identity_seed_is_iso(self, graph_instance):
        l = fin_graph(["a"], [("l", "a", "a")])
        corner = corner_endpoint(graph_instance, identity(l), 0)
        assert is_iso(corner.arrow)

    def test_empty_seed_gives_endpoint_inclusion(self, graph_instance):
        l = fin_graph(["a"], [("l", "a", "a")])
        j = PresheafMap(core.empty_object(core.GRAPH_SIGNATURE), l, {})
        corner = corner_endpoint(graph_instance, j, 0)
        assert len(corner.domain.cells["vertex"]) == 1
        assert len(corner.domain.cells["edge"]) == 1
        assert not is_iso(corner.arrow)

    def test_point_endpoint_in_sets(self, set_instance):
        j = PresheafMap(core.empty_object(core.SET_SIGNATURE), fin_set(["p"]), {})
        corner = corner_endpoint(set_instance, j, 0)
        assert len(corner.domain.cells["element"]) == 1
        assert len(corner.codomain.cells["element"]) == 2

    def test_discrete_pair_into_edge(self, graph_instance):
        # oracle: K x I has the four thread vertices and no edges; L x {0}
        # adds the single level-0 edge
        k = fin_graph(["a", "b"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a", "b": "b"}, "edge": {}})
        corner = corner_endpoint(graph_instance, j, 0)
        assert len(corner.domain.cells["vertex"]) == 4
        assert len(corner.domain.cells["edge"]) == 1
        level0 = sorted(corner.arrow.on["edge"].values())
        assert level0 == [pair_label("e", "l0")]

    def test_corners_always_mono(self, graph_instance):
        for j in corpus_monos_graph():
            for e in (0, 1):
                assert is_mono(corner_endpoint(graph_instance, j, e).arrow)
            assert is_mono(corner_full(graph_instance, j).arrow)


def reference_corner(instance, j, endpoint):
    """The corner as a subobject of L⊗I renamed by an iso: the product,
    the subobject on the cells over j's image or over S, the relabelling
    l:/r:, and the inverse of the relabelling followed by the inclusion."""
    ends = instance.const_targets if endpoint is None else (instance.const_targets[endpoint],)
    l_cyl, over_l, over_i = core.product(j.codomain, instance.interval)
    s_cells = {sort: {targets[sort] for targets in ends} for sort in l_cyl.signature.sorts}
    k_of = {sort: {image: cell for cell, image in table.items()} for sort, table in j.on.items()}
    sub, incl = core.subobject_from_cells(l_cyl, {
        sort: [
            cell for cell in l_cyl.cells[sort]
            if over_l.on[sort][cell] in k_of[sort] or over_i.on[sort][cell] in s_cells[sort]
        ]
        for sort in l_cyl.signature.sorts
    })

    def name(sort, cell):
        k = k_of[sort].get(over_l.on[sort][cell])
        return "r:" + cell if k is None else "l:" + pair_label(k, over_i.on[sort][cell])

    return inverse(core.relabel(sub, name)[1]).then(incl)


def assert_corners_match_reference(instance, j):
    for endpoint in (None, 0, 1):
        if endpoint is None:
            arrow = corner_full(instance, j).arrow
        else:
            arrow = corner_endpoint(instance, j, endpoint).arrow
        expected = reference_corner(instance, j, endpoint)
        assert arrow == expected
        assert arrow.domain.cells == expected.domain.cells
        assert arrow.domain.ops == expected.domain.ops
        assert arrow.on == expected.on


class TestCornerAgainstReference:
    @pytest.mark.parametrize("name", ["set2", "graphI", "sset-jinf", "sset-delta1"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_default_generators(self, name, cap):
        instance = get_instance(name, cap)
        for j in default_generating_monos(instance):
            assert_corners_match_reference(instance, j)

    def test_graph_family_to_depth_three(self, graph_instance):
        family = generate_anodyne(graph_instance, [], depth=3)
        assert [entry.depth for entry in family.entries].count(3) > 0
        for entry in family.entries:
            assert_corners_match_reference(graph_instance, entry.arrow)


class TestFunctoriality:
    def test_tensor_preserves_composition(self, graph_instance):
        g1 = fin_graph(["a"], [("l", "a", "a")])
        g2 = fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b")])
        g3 = fin_graph(["v"], [("m", "v", "v")])
        for f in enumerate_homs(g1, g2):
            for g in enumerate_homs(g2, g3):
                lhs = graph_instance.tensor_map(f.then(g))
                rhs = graph_instance.tensor_map(f).then(graph_instance.tensor_map(g))
                assert lhs == rhs

    def test_naturality_of_endpoints_and_projection(self, graph_instance):
        g1 = fin_graph(["a"], [("l", "a", "a")])
        g2 = fin_graph(["v", "w"], [("m", "v", "v"), ("e", "v", "w")])
        cyl1 = graph_instance.cylinder(g1)
        cyl2 = graph_instance.cylinder(g2)
        for f in enumerate_homs(g1, g2):
            tensored = graph_instance.tensor_map(f)
            assert cyl1.d0.then(tensored) == f.then(cyl2.d0)
            assert cyl1.d1.then(tensored) == f.then(cyl2.d1)
            assert tensored.then(cyl2.sigma) == cyl1.sigma.then(f)


class TestVerifyEhd:
    def test_set_battery_green(self, set_instance):
        report = verify_ehd(set_instance, corpus_monos_set(), corpus_spans_set())
        assert report.ok, report

    def test_graph_battery_green(self, graph_instance):
        report = verify_ehd(graph_instance, corpus_monos_graph(), corpus_spans_graph())
        assert report.ok, report

    def test_corrupted_instance_is_flagged(self, graph_instance):
        class Corrupted:
            name = "corrupted"

            def cylinder(self, x):
                good = graph_instance.cylinder(x)
                broken = {
                    sort: {c: good.base.cells[sort][0] for c in good.obj.cells[sort]}
                    for sort in good.base.signature.sorts
                    if good.base.cells[sort]
                }
                if not broken.get("vertex"):
                    return good
                sigma = PresheafMap(good.obj, good.base, {
                    "vertex": broken.get("vertex", {}),
                    "edge": broken.get("edge", {}),
                })
                # d1 = d0, so the copairing [d0, d1] is not mono
                return Cylinder(good.base, good.obj, good.d0, good.d0, sigma)

            def tensor_map(self, f):
                return graph_instance.tensor_map(f)

        g = fin_graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b")])
        j = PresheafMap(fin_graph(["a"], [("la", "a", "a")]), g,
                        {"vertex": {"a": "a"}, "edge": {"la": "la"}})
        report = verify_ehd(Corrupted(), [j], [])
        failed = [c for c in report.checks if not c.ok]
        assert failed
        assert any("sigma" in c.subject for c in failed)
        assert any(c.subject.startswith("[d0,d1] mono") for c in failed)

    def test_all_set_monos_up_to_three(self, set_instance):
        # oracle: the pullback check is a direct fiber computation on pairs
        sets = [core.fin_set([f"x{i}" for i in range(n)]) for n in range(4)]
        monos = [
            f
            for dom in sets
            for cod in sets
            for f in enumerate_homs(dom, cod)
            if is_mono(f)
        ]
        report = verify_ehd(set_instance, monos, [])
        assert report.ok, report

    def test_sset_battery_green(self):
        from phl.simplicial import boundary_inclusion

        instance = get_instance("sset-jinf", cap=2)
        monos = [boundary_inclusion(n, 2) for n in (0, 1)]
        report = verify_ehd(instance, monos, [])
        assert report.ok, report
