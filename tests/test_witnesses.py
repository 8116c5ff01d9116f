import random
from dataclasses import replace

import pytest

from phl import core
from phl.core import (
    PresheafMap,
    fin_graph,
    fin_set,
    identity,
)
from phl.cylinder import corner_endpoint
from phl.fixtures import chain2_category, corpus_graphs, groupoid_interval, terminal_category, z2_category
from phl.lifting import solve_lift
from phl.monads import FreeCategoryMonad, FreeMonoidMonad, linear_chain
from phl.witnesses import (
    LiftConstructionError,
    ProvenanceError,
    SaturationStep,
    explicit_lift_category,
    explicit_lift_monoid,
    finite_subset_pairs,
    m2_retract_set,
    m2_tower_graph,
    validate_saturation,
)

from conftest import enumerate_homs, to_terminal


class TestRetractWitness:
    def test_singleton_component_formula(self):
        # s(x) picks the ({x}, !) component at index 0
        w = m2_retract_set(fin_set(["x"]), cap=2)
        assert w.s.on["element"]["x"] == "{x}|x/0"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_retract_identities(self, n):
        x = fin_set([f"x{i}" for i in range(n)])
        w = m2_retract_set(x, cap=3)
        assert w.s.then(w.r) == identity(x)
        assert w.u.then(w.v) == identity(w.u.domain)
        assert w.s.then(w.middle) == w.eta.then(w.u)
        assert w.r.then(w.eta) == w.middle.then(w.v)

    def test_u_transports_letterwise(self):
        # oracle: chase the definitions through (S, sigma) by hand for "xy"
        x = fin_set(["x", "y"])
        w = m2_retract_set(x, cap=2)
        monad = FreeMonoidMonad(2)
        tx = monad.apply(x)
        label = tx.encode[None, None, ("x", "y")]
        assert w.u.on["element"][label] == "{x,y}|x,y/[0,1]"
        assert w.v.on["element"][w.u.on["element"][label]] == label

    def test_all_sigma_choices_are_present(self):
        pairs = finite_subset_pairs(fin_set(["x", "y"]))
        # 1 empty + 2 singletons + 2 orderings of the pair
        assert len(pairs) == 5

    def test_size_guard(self):
        with pytest.raises(core.ValidationError):
            m2_retract_set(fin_set(["a", "b", "c", "d", "e"]), cap=2)

    def test_saturation_tags_verify(self):
        w = m2_retract_set(fin_set(["x", "y"]), cap=2)
        assert validate_saturation(w.steps)
        rules = [s.rule for s in w.steps]
        assert rules == ["coproduct", "retract"]


def _swap_codomain_embedding(components):
    """The components with the codomain embedding of the ({x}, x) one
    exchanging the image of its cell with another codomain cell."""
    comp, dom_embed, cod_embed = components[1]
    image = comp.on["element"][comp.domain.cells["element"][0]]
    other = next(cell for cell in comp.codomain.cells["element"] if cell != image)
    table = dict(cod_embed["element"])
    table[image], table[other] = table[other], table[image]
    return components[:1] + ((comp, dom_embed, {"element": table}),) + components[2:]


class TestSaturationChecker:
    """One corrupted piece of a real witness's evidence fails its step."""

    @pytest.fixture(scope="class")
    def retract(self):
        return m2_retract_set(fin_set(["x", "y"]), cap=2)

    @pytest.fixture(scope="class")
    def tower(self):
        return m2_tower_graph(corpus_graphs()["loop"], n_max=2, cap=2)

    @staticmethod
    def _refuses(step, evidence):
        assert step.verify()
        return not validate_saturation([replace(step, evidence=evidence)])

    # components[0] is the empty subset's: no domain cells, one codomain cell
    @pytest.mark.parametrize("corrupt", [
        _swap_codomain_embedding,
        lambda components: components[:1] + components[2:],
        lambda components: components + components[1:2],
        lambda components: components + components[:1],
        lambda components: components[1:],
    ], ids=["swapped-codomain-embedding", "dropped-component", "repeated-component",
            "repeated-empty-component", "dropped-empty-component"])
    def test_coproduct(self, retract, corrupt):
        step = retract.steps[0]
        arrow, components = step.evidence
        assert self._refuses(step, (arrow, corrupt(components)))

    def test_pushout_with_a_wrong_apex(self, tower):
        step = next(step for step in tower.steps if step.rule == "pushout")
        span_f, span_g, _, left = step.evidence
        assert self._refuses(step, (span_f, span_g, fin_graph(["z"], []), left))

    def test_composite_with_a_wrong_composite(self, tower):
        step = next(step for step in tower.steps if step.rule == "composite")
        arrows, composite = step.evidence
        assert self._refuses(step, (arrows, identity(composite.domain)))

    def test_retract_with_a_wrong_r(self, retract):
        step = retract.steps[1]
        outer, inner, i0, i1, r0, r1 = step.evidence
        constant = {"element": {cell: "x" for cell in r0.domain.cells["element"]}}
        wrong = PresheafMap(r0.domain, r0.codomain, constant)
        assert self._refuses(step, (outer, inner, i0, i1, wrong, r1))

    def test_unknown_rule(self):
        assert not validate_saturation([SaturationStep("union", "not a saturation rule")])


class TestTowerWitness:
    def test_point_graph(self):
        w = m2_tower_graph(fin_graph(["a"], []), n_max=0, cap=2)
        assert w.section.on["vertex"] == {"a": "a"}
        assert w.section.then(w.k_maps[-1]) == w.probe_inclusion

    def test_single_edge_chain(self):
        # oracle: explicit pushout bookkeeping; the singleton path lands on
        # the original edge through the stage-1 identification
        g = linear_chain(1)
        w = m2_tower_graph(g, n_max=1, cap=2)
        assert w.section.on["edge"]["[f1]"] == "f1"
        assert w.section.then(w.k_maps[-1]) == w.probe_inclusion

    def test_loop_composites(self):
        g = corpus_graphs()["loop"]
        w = m2_tower_graph(g, n_max=2, cap=2)
        assert w.section.on["edge"]["[l,l]"].startswith("g2.")
        assert w.section.then(w.k_maps[-1]) == w.probe_inclusion

    def test_tower_compatibilities(self):
        g = corpus_graphs()["two_loops"]
        w = m2_tower_graph(g, n_max=2, cap=3)
        eta = FreeCategoryMonad(3).unit(g)
        assert w.h_maps[0].then(w.k_maps[0]) == eta
        for n in range(1, w.n_max + 1):
            assert w.h_maps[n].then(w.k_maps[n]) == w.k_maps[n - 1]

    def test_stage_maps_carry_saturation_tags(self):
        w = m2_tower_graph(corpus_graphs()["loop"], n_max=2, cap=2)
        rules = [s.rule for s in w.steps]
        assert rules.count("pushout") == 3  # one per stage
        assert rules.count("coproduct") == 3
        assert "composite" in rules and "retract" in rules
        assert validate_saturation(w.steps)

    def test_shortfall_is_reported_not_fatal(self):
        g = corpus_graphs()["loop"]
        w = m2_tower_graph(g, n_max=1, cap=3)
        assert w.shortfall is not None
        assert "[l,l]" not in w.section.on["edge"]


def random_endpoint_corner_problems(instance, categories, rng, count, applicable_only=True):
    """Sample corner problems over random monos j : K -> L with K spanned
    by looped vertices, so the thread connectors exist."""
    graphs = corpus_graphs()
    pool = [
        graphs["loop"],
        graphs["looped_edge"],
        graphs["two_loops"],
        fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b"), ("f", "b", "a")]),
        graphs["looped_pair"],
    ]
    problems = []
    while len(problems) < count:
        l_obj = rng.choice(pool)
        looped = sorted(
            v
            for v in l_obj.cells["vertex"]
            if any(
                l_obj.op("src", e) == v and l_obj.op("tgt", e) == v
                for e in l_obj.cells["edge"]
            )
        )
        keep_v = sorted(rng.sample(looped, rng.randint(0, len(looped))))
        keep_e = sorted(
            e
            for e in l_obj.cells["edge"]
            if l_obj.op("src", e) in keep_v and l_obj.op("tgt", e) in keep_v
            and (not applicable_only or l_obj.op("src", e) == l_obj.op("tgt", e) or rng.random() < 0.5)
        )
        if applicable_only:
            # every kept vertex must keep one loop
            ok = all(
                any(l_obj.op("src", e) == v and l_obj.op("tgt", e) == v for e in keep_e)
                for v in keep_v
            )
            if not ok:
                continue
        k_obj = fin_graph(keep_v, [(e, l_obj.op("src", e), l_obj.op("tgt", e)) for e in keep_e])
        j = PresheafMap(
            k_obj, l_obj,
            {"vertex": {v: v for v in keep_v}, "edge": {e: e for e in keep_e}},
        )
        e = rng.choice((0, 1))
        corner = corner_endpoint(instance, j, e)
        category = rng.choice(categories)
        tops = enumerate_homs(corner.domain, category.underlying_graph())
        if not tops:
            continue
        problems.append((corner, rng.choice(tops), category))
    return problems


class TestExplicitLiftMonoid:
    def test_identity_corner_copies_top(self, set_instance):
        l = fin_set(["p", "q"])
        corner = corner_endpoint(set_instance, identity(l), 0)
        a = fin_set(["0", "1"])
        for top in enumerate_homs(corner.domain, a):
            d = explicit_lift_monoid(corner, top)
            assert corner.arrow.then(d) == top

    def test_agrees_with_oracle(self, set_instance):
        k = fin_set(["p"])
        l = fin_set(["p", "q", "r"])
        j = PresheafMap(k, l, {"element": {"p": "q"}})
        for e in (0, 1):
            corner = corner_endpoint(set_instance, j, e)
            a = fin_set(["0", "1", "2"])
            for top in enumerate_homs(corner.domain, a):
                d = explicit_lift_monoid(corner, top)
                assert corner.arrow.then(d) == top
                assert solve_lift(to_terminal(corner.arrow, top)) is not None

    def test_never_consults_any_table(self, set_instance):
        # the codomain is a bare set with no structure at all
        j = PresheafMap(fin_set(["p"]), fin_set(["p", "q"]), {"element": {"p": "p"}})
        corner = corner_endpoint(set_instance, j, 1)
        bare = fin_set(["arbitrary"])
        top = enumerate_homs(corner.domain, bare)[0]
        assert explicit_lift_monoid(corner, top) is not None

    def test_provenance_check(self, set_instance, graph_instance):
        j = PresheafMap(fin_graph(["a"], []), fin_graph(["a", "b"], []), {"vertex": {"a": "a"}, "edge": {}})
        corner = corner_endpoint(graph_instance, j, 0)
        top = enumerate_homs(corner.domain, fin_graph(["v"], []))[0]
        with pytest.raises(ProvenanceError):
            explicit_lift_monoid(corner, top)


class TestExplicitLiftCategory:
    def test_level_loop_uses_both_connectors(self, graph_instance):
        # the missing same-level edge over two K-vertices composes down,
        # across, then up
        k = fin_graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b")])
        l = fin_graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b"), ("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a", "b": "b"}, "edge": {"la": "la", "lb": "lb"}})
        corner = corner_endpoint(graph_instance, j, 0)
        gpd = groupoid_interval()
        uc = gpd.underlying_graph()
        for top in enumerate_homs(corner.domain, uc):
            d = explicit_lift_category(corner, top, gpd)
            assert corner.arrow.then(d) == top
            cell = core.pair_label("e", "l1")
            fixed = core.pin_along([(corner.arrow, top)])["edge"]
            down = fixed[core.pair_label("la", "d")]
            base = fixed[core.pair_label("e", "l0")]
            up = fixed[core.pair_label("lb", "u")]
            assert d.on["edge"][cell] == gpd.then(gpd.then(down, base), up)

    def test_outside_loop_goes_to_identity(self, graph_instance):
        k = fin_graph([], [])
        l = corpus_graphs()["loop"]
        j = PresheafMap(k, l, {"vertex": {}, "edge": {}})
        corner = corner_endpoint(graph_instance, j, 0)
        gpd = groupoid_interval()
        for top in enumerate_homs(corner.domain, gpd.underlying_graph()):
            d = explicit_lift_category(corner, top, gpd)
            anchor = d.on["vertex"][core.pair_label("a", "0")]
            for jj in ("u", "d", "l1"):
                assert d.on["edge"][core.pair_label("l", jj)] == gpd.identity(anchor)

    def test_randomized_agreement_with_oracle(self, graph_instance):
        rng = random.Random(7)
        categories = [groupoid_interval(), terminal_category(), z2_category(), chain2_category()]
        problems = random_endpoint_corner_problems(graph_instance, categories, rng, 50)
        for corner, top, category in problems:
            d = explicit_lift_category(corner, top, category)
            assert corner.arrow.then(d) == top
            assert solve_lift(to_terminal(corner.arrow, top)) is not None

    def test_mirrored_endpoint(self, graph_instance):
        k = fin_graph(["a"], [("la", "a", "a")])
        l = fin_graph(["a", "b"], [("la", "a", "a"), ("e", "b", "a")])
        j = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {"la": "la"}})
        corner = corner_endpoint(graph_instance, j, 1)
        gpd = groupoid_interval()
        for top in enumerate_homs(corner.domain, gpd.underlying_graph()):
            d = explicit_lift_category(corner, top, gpd)
            assert corner.arrow.then(d) == top

    def test_loopless_k_vertex_refuses(self, graph_instance):
        k = fin_graph(["a", "b"], [])
        l = fin_graph(["a", "b"], [("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a", "b": "b"}, "edge": {}})
        corner = corner_endpoint(graph_instance, j, 0)
        gpd = groupoid_interval()
        refused = 0
        for top in enumerate_homs(corner.domain, gpd.underlying_graph()):
            with pytest.raises(LiftConstructionError):
                explicit_lift_category(corner, top, gpd)
            refused += 1
        assert refused > 0

    def test_composition_lookup_failure_names_the_table(self, graph_instance):
        # a "category" whose composition table is silently wrong would be
        # caught by the graph-map validation of the produced diagonal
        k = fin_graph(["a"], [("la", "a", "a")])
        l = fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b")])
        j = PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {"la": "la"}})
        corner = corner_endpoint(graph_instance, j, 0)
        gpd = groupoid_interval()
        broken = groupoid_interval()
        broken.compose["u"].pop("d")  # mutilate after validation
        raised = 0
        for top in enumerate_homs(corner.domain, gpd.underlying_graph()):
            try:
                explicit_lift_category(corner, top, broken)
            except core.ValidationError as exc:
                assert "composition lookup failure" in str(exc)
                raised += 1
        assert raised > 0
