"""The acceptance suite: one test per criterion, exact checks, no tolerances.

Each test prints a single pass/fail line (visible with -s or on failure).
The corpora are the documented fixture sets; every expected value was
computed by the independent oracles in the per-module test files before
being frozen here.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import phl
from phl import core
from phl.core import (
    PresheafMap,
    fin_graph,
    fin_set,
    identity,
    is_mono,
)
from phl.cylinder import (
    corner_endpoint,
    get_instance,
    graph_instance,
    set_instance,
    verify_ehd,
)
from phl.equivalence import alternative_we_check, is_t_weak_equivalence
from phl.fixtures import (
    all_small_graphs,
    chain2_category,
    corpus_categories,
    corpus_graphs,
    corpus_monoids,
    corpus_monos_graph,
    corpus_monos_set,
    corpus_spans_graph,
    corpus_spans_set,
    discrete2_category,
    groupoid_interval,
    terminal_category,
    we_algebras,
    z2_category,
)
from phl.homotopy import find_homotopy, homotopy_classes
from phl.lifting import (
    default_generating_monos,
    generate_anodyne,
    is_naively_fibrant_upto,
    solve_lift,
)
from phl.monads import FreeCategoryMonad, FreeMonoidMonad
from phl.simplicial import delta, nerve, tau0_classes, horn_filler
from phl.witnesses import (
    explicit_lift_category,
    explicit_lift_monoid,
    m2_retract_set,
    m2_tower_graph,
    validate_saturation,
)

from conftest import (
    enumerate_homs,
    loop_complete_graphs,
    mono_unit,
    one_step_relation,
    relation_properties,
    to_terminal,
)
from test_witnesses import probe_inclusion, random_endpoint_corner_problems

SET2 = set_instance()
GRAPHI = graph_instance()


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def small_sets(max_size=3, nonempty=False):
    lo = 1 if nonempty else 0
    return [fin_set([f"x{i}" for i in range(n)]) for n in range(lo, max_size + 1)]


def test_c01_cylinder_axioms():
    checked = 0
    for obj in small_sets(3):
        cyl = SET2.cylinder(obj)
        assert cyl.d0.then(cyl.sigma) == identity(obj)
        assert cyl.d1.then(cyl.sigma) == identity(obj)
        checked += 1
    for obj in all_small_graphs(3, 3):
        cyl = GRAPHI.cylinder(obj)
        assert cyl.d0.then(cyl.sigma) == identity(obj)
        assert cyl.d1.then(cyl.sigma) == identity(obj)
        for sort in obj.signature.sorts:
            images = [cyl.d0.on[sort][c] for c in obj.cells[sort]]
            images += [cyl.d1.on[sort][c] for c in obj.cells[sort]]
            assert len(set(images)) == len(images)
        checked += 1
    # every mono between the tiny graphs joins the pullback battery
    tiny = all_small_graphs(2, 2)
    exhaustive_monos = [
        f
        for dom in tiny
        for cod in tiny
        if sum(map(len, dom.cells.values())) <= 3 and sum(map(len, cod.cells.values())) <= 3
        for f in enumerate_homs(dom, cod)
        if is_mono(f)
    ]
    set_report = verify_ehd(SET2, corpus_monos_set(), corpus_spans_set())
    graph_report = verify_ehd(
        GRAPHI, corpus_monos_graph() + exhaustive_monos, corpus_spans_graph()
    )
    ok = set_report.ok and graph_report.ok
    report(
        "C1 cylinder axioms", ok,
        f"{checked} objects, {len(set_report.checks) + len(graph_report.checks)} ehd checks green",
    )


def _one_step_properties(instance, x, a):
    return relation_properties(one_step_relation(instance, x, a)[1])


def test_c02_homotopy_closure():
    probes_set = small_sets(2, nonempty=True)
    count = 0
    for monoid in corpus_monoids():
        for x in probes_set:
            assert all(_one_step_properties(SET2, x, monoid.carrier()))
            count += 1
    graphs = corpus_graphs()
    probes_graph = [
        graphs["vertex"], graphs["two_vertices"], graphs["edge"],
        graphs["loop"], graphs["parallel"],
    ]
    symmetric_algebras = [
        terminal_category(), groupoid_interval(), z2_category(), discrete2_category()
    ]
    for algebra in symmetric_algebras:
        a = algebra.underlying_graph()
        for x in probes_graph:
            assert all(_one_step_properties(GRAPHI, x, a))
            count += 1
    # negative control: the 2-chain under the directed simplicial interval
    instance = get_instance("sset-delta1", cap=2)
    reflexive, symmetric, _ = _one_step_properties(
        instance, delta(0, 2), nerve(chain2_category(), 2)
    )
    assert reflexive and not symmetric
    report(
        "C2 homotopy closure", True,
        f"{count} positive pairs, negative control fails symmetry",
    )


def test_c03_anodyne_generation():
    gens = default_generating_monos(GRAPHI)
    single = [gens[1]]
    seeded = [gens[0]]
    configurations = [
        ([], gens),
        ([], single),
        (seeded, gens),
    ]
    for seeds, mono_family in configurations:
        family = generate_anodyne(GRAPHI, seeds, mono_family, depth=0)
        expected = len(seeds) + 2 * len(mono_family)
        assert family.pre_dedup_counts[0] == expected
        assert all(is_mono(entry.arrow) for entry in family.entries)
    family0 = generate_anodyne(GRAPHI, [], depth=0)
    family1 = generate_anodyne(GRAPHI, [], depth=1)
    assert all(is_mono(entry.arrow) for entry in family1.entries)
    probes = [
        core.terminal_object(core.GRAPH_SIGNATURE),
        groupoid_interval().underlying_graph(),
        corpus_graphs()["chain2"],
        corpus_graphs()["loop"],
    ]
    monotone = 0
    for a in probes:
        v0 = is_naively_fibrant_upto(a, family0).ok
        v1 = is_naively_fibrant_upto(a, family1).ok
        assert v0 or not v1  # depth-1 verdict implies depth-0
        monotone += 1
    report(
        "C3 anodyne generation", True,
        f"3 configurations counted exactly, {monotone} depth-monotone probes",
    )


def test_c04_unit_and_action_monos():
    smonad = FreeMonoidMonad(3)
    failures = 0
    checked = 0
    sets = small_sets(3)
    for x in sets:
        if not is_mono(smonad.unit(x)):
            failures += 1
        checked += 1
    for x in sets:
        for y in sets:
            for f in enumerate_homs(x, y):
                if is_mono(f) and not is_mono(smonad.on_map(f)):
                    failures += 1
                checked += 1
    gmonad = FreeCategoryMonad(3)
    graphs = [
        g for g in corpus_graphs().values()
        if len(g.cells["vertex"]) <= 2 and len(g.cells["edge"]) <= 2
    ]
    for g in graphs:
        if not is_mono(gmonad.unit(g)):
            failures += 1
        checked += 1
    for x in graphs:
        for y in graphs:
            for f in enumerate_homs(x, y):
                if is_mono(f) and not is_mono(gmonad.on_map(f)):
                    failures += 1
                checked += 1
    report("C4 unit and action monomorphisms", failures == 0, f"{checked} checks, {failures} failures")


def test_c05_retract_and_tower_witnesses():
    count = 0
    for n in range(4):
        x = fin_set([f"x{i}" for i in range(n)])
        witness = m2_retract_set(x, cap=3)
        assert witness.s.then(witness.r) == identity(x)
        assert witness.u.then(witness.v) == identity(witness.u.domain)
        assert validate_saturation(witness.steps)
        count += 1
    graphs = [
        g for g in corpus_graphs().values()
        if len(g.cells["vertex"]) <= 2 and len(g.cells["edge"]) <= 2
    ]
    for g in graphs:
        witness = m2_tower_graph(g, n_max=3, cap=3)
        assert witness.section.then(witness.k_maps[-1]) == probe_inclusion(g, witness)
        assert witness.shortfall is None
        assert validate_saturation(witness.steps)
        count += 1
    report("C5 retract and tower witnesses", True, f"{count} witnesses verified with saturation tags")


def test_c06_explicit_lifts():
    rng = random.Random(2024)
    sets = small_sets(3, nonempty=True)
    monoid_problems = 0
    while monoid_problems < 100:
        l_obj = rng.choice(sets)
        keep = sorted(rng.sample(l_obj.cells["element"],
                                 rng.randint(0, len(l_obj.cells["element"]))))
        k_obj = fin_set(keep)
        j = PresheafMap(k_obj, l_obj, {"element": {x: x for x in keep}})
        corner = corner_endpoint(SET2, j, rng.choice((0, 1)))
        carrier = rng.choice(corpus_monoids()).carrier()
        tops = enumerate_homs(corner.domain, carrier)
        if not tops:
            continue
        top = rng.choice(tops)
        diagonal = explicit_lift_monoid(corner, top)
        assert corner.arrow.then(diagonal) == top
        assert solve_lift(to_terminal(corner.arrow, top)) is not None
        monoid_problems += 1
    categories = [groupoid_interval(), terminal_category(), z2_category(), chain2_category()]
    problems = random_endpoint_corner_problems(GRAPHI, categories, rng, 100)
    for corner, top, category in problems:
        diagonal = explicit_lift_category(corner, top, category)
        assert corner.arrow.then(diagonal) == top
        assert solve_lift(to_terminal(corner.arrow, top)) is not None
    report(
        "C6 explicit lifts", True,
        f"{monoid_problems}+{len(problems)} randomized problems, zero disagreements",
    )


def test_c07_homotopy_preserved_by_t():
    gmonad = FreeCategoryMonad(2)
    confirmed = 0
    graphs = [g for g in loop_complete_graphs().values() if sum(map(len, g.cells.values())) <= 5]
    for x in graphs:
        for y in graphs:
            homs = enumerate_homs(x, y)
            for f in homs:
                for g in homs:
                    if find_homotopy(GRAPHI, f, g) is None:
                        continue
                    tf, tg = gmonad.on_map(f), gmonad.on_map(g)
                    assert find_homotopy(GRAPHI, tf, tg) is not None
                    confirmed += 1
    smonad = FreeMonoidMonad(2)
    sets = small_sets(3, nonempty=True)
    for x in sets:
        for y in sets:
            homs = enumerate_homs(x, y)
            for f in homs:
                for g in homs:
                    if find_homotopy(SET2, f, g) is None:
                        continue
                    assert find_homotopy(SET2, smonad.on_map(f), smonad.on_map(g)) is not None
                    confirmed += 1
    report("C7 homotopy preserved by T", True, f"{confirmed} homotopic pairs confirmed")


def test_c08_alternative_characterization():
    gmonad = FreeCategoryMonad(2)
    family = we_algebras("graph")
    cycle = fin_graph(
        ["a", "b"],
        [("e", "a", "b"), ("f", "b", "a"), ("la", "a", "a"), ("lb", "b", "b")],
    )
    pool = [corpus_graphs()["loop"], corpus_graphs()["two_loops"], cycle]
    violations = 0
    checked = 0
    for x in pool:
        for y in pool:
            for f in enumerate_homs(x, y):
                we = is_t_weak_equivalence(GRAPHI, f, family).ok
                alt = alternative_we_check(GRAPHI, gmonad, f).found
                checked += 1
                if we != alt:
                    violations += 1
    smonad = FreeMonoidMonad(2)
    sfamily = we_algebras("set")
    for x in small_sets(2):
        for y in small_sets(2):
            for f in enumerate_homs(x, y):
                we = is_t_weak_equivalence(SET2, f, sfamily).ok
                alt = alternative_we_check(SET2, smonad, f).found
                checked += 1
                if we != alt:
                    violations += 1
    report(
        "C8 alternative characterization", violations == 0,
        f"{checked} maps, both directions, {violations} violations",
    )


def test_c09_unit_naturality_and_retractions():
    gmonad = FreeCategoryMonad(2)
    smonad = FreeMonoidMonad(2)
    checked = 0
    graphs = [g for g in corpus_graphs().values() if sum(map(len, g.cells.values())) <= 4]
    for x in graphs:
        for y in graphs:
            for f in enumerate_homs(x, y):
                assert f.then(mono_unit(gmonad, y)) == mono_unit(gmonad, x).then(gmonad.on_map(f))
                checked += 1
    for x in small_sets(3):
        for y in small_sets(3):
            for f in enumerate_homs(x, y):
                assert f.then(mono_unit(smonad, y)) == mono_unit(smonad, x).then(smonad.on_map(f))
                checked += 1
    retractions = 0
    # the retraction alpha : T(A) -> A is the lift of the identity of A
    # along the unit
    cases = [(a, smonad) for a in corpus_monoids()] + [(c, gmonad) for c in corpus_categories()]
    for algebra, monad in cases:
        carrier = algebra.carrier()
        eta = mono_unit(monad, carrier)
        alpha = core.extend_along([(eta, identity(carrier))], carrier)
        assert alpha is not None
        assert eta.then(alpha) == identity(carrier)
        retractions += 1
    report(
        "C9 unit naturality and retractions", True,
        f"{checked} exact squares, {retractions} retractions found",
    )


def test_c10_set_degeneracy():
    family = corpus_monoids()
    sets = [fin_set([f"x{i}" for i in range(n)]) for n in range(1, 5)]
    # the forcing fact: every class set into a monoid carrier is a singleton
    for x in sets:
        for monoid in family:
            classes = homotopy_classes(SET2, x, monoid.carrier())
            assert classes.class_count == 1
    # and the verdict itself on every map between the small ones
    verdicts = 0
    for x in sets[:2]:
        for y in sets[:2]:
            for f in enumerate_homs(x, y):
                assert is_t_weak_equivalence(SET2, f, family).ok
                verdicts += 1
    total_maps = sum(
        len(y.cells["element"]) ** len(x.cells["element"]) for x in sets for y in sets
    )
    report(
        "C10 set degeneracy", True,
        f"singleton classes force bijectivity for all {total_maps} maps; {verdicts} verdicts run",
    )


def test_c11_simplicial():
    for category in corpus_categories():
        x = nerve(category, 3)
        for n in (2, 3):
            for k in range(1, n):
                assert horn_filler(x, n, k, guard=20_000_000).all_fill, (category.name, n, k)
    kan = nerve(groupoid_interval(), 3)
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert horn_filler(kan, n, k).all_fill
    chain_nerve = nerve(chain2_category(), 3)
    assert not horn_filler(chain_nerve, 2, 0).all_fill
    d0 = delta(0, 2)
    assert tau0_classes(d0, nerve(groupoid_interval(), 2)).class_count == 1
    assert tau0_classes(d0, nerve(discrete2_category(), 2)).class_count == 2
    report("C11 simplicial", True, "inner horns, Kan property, outer failure, tau0 counts")


def test_c12_determinism(tmp_path):
    # The children import the same phl as this process, whether it comes
    # from a source tree or an installed copy.
    import_path = str(Path(phl.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        import_path += os.pathsep + inherited

    def run(args, hashseed):
        env = {
            "PYTHONHASHSEED": hashseed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": import_path,
        }
        result = subprocess.run(
            [sys.executable, "-m", "phl.cli", *args],
            capture_output=True, text=True, env=env, check=False,
        )
        # A run that fails or prints nothing must not pass as "identical".
        assert result.returncode == 0, (args, hashseed, result.stderr)
        assert result.stdout.endswith("\n"), (args, hashseed, result.stderr)
        return result

    from phl.fixtures import emit_fixture_corpus

    corpus = tmp_path / "corpus"
    emit_fixture_corpus(corpus)
    invocations = [
        ["verify"],
        ["anodyne", "--instance", "graphI", "--depth", "1"],
        ["classes", str(corpus / "graph_vertex.json"),
         str(corpus / "graph_looped_pair.json"), "--instance", "graphI"],
        ["check-ehd", "--instance", "graphI"],
    ]
    compared = 0
    for args in invocations:
        outputs = {run(args, seed).stdout for seed in ("0", "42")}
        outputs.add(run(args, "0").stdout)
        assert len(outputs) == 1
        compared += 1
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for seed, path in (("0", out_a), ("7", out_b)):
        run(["anodyne", "--instance", "graphI", "--depth", "1", "--out", str(path)], seed)
    assert out_a.read_bytes() == out_b.read_bytes()
    report(
        "C12 determinism", True,
        f"{compared} commands byte-identical across runs and hash seeds",
    )
