"""Property-based checks over randomly drawn small structures."""

import functools
import itertools
import json
import os
import stat
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from phl import core
from phl.core import (
    PresheafMap,
    fin_graph,
    fin_set,
    identity,
    is_mono,
    product,
    pushout,
)
from phl.cylinder import get_instance, graph_instance, set_instance
from phl.documents import canonical_json, family_to_document, write_document
from phl.fixtures import (
    all_small_graphs,
    chain2_category,
    corpus_categories,
    corpus_graphs,
    z2_category,
)
from phl.homotopy import find_homotopy
from phl.lifting import (
    AnodyneFamily,
    FamilyEntry,
    generate_anodyne,
    has_rlp,
    is_naively_fibrant_upto,
)
from phl.monads import FreeCategoryMonad, FreeMonoidMonad, check_monad_laws
from phl.simplicial import (
    boundary_inclusion,
    delta,
    groupoid_interval,
    horn_filler,
    horn_inclusion,
    nerve,
)

from conftest import (
    brute_force_homs,
    enumerate_homs,
    reference_map_refusal,
    reference_object_refusal,
)
from test_monads import _reference_laws

GRAPHI = graph_instance()
SET2 = set_instance()


@st.composite
def small_graphs(draw, max_vertices=2, max_edges=2):
    nv = draw(st.integers(0, max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    if nv:
        ne = draw(st.integers(0, max_edges))
        for i in range(ne):
            a = draw(st.sampled_from(vertices))
            b = draw(st.sampled_from(vertices))
            edges.append((f"e{i}", a, b))
    return fin_graph(vertices, edges)


@st.composite
def graph_spans(draw):
    a = draw(small_graphs(1, 1))
    b = draw(small_graphs(2, 2))
    c = draw(small_graphs(2, 2))
    fs = enumerate_homs(a, b)
    gs = enumerate_homs(a, c)
    if not fs or not gs:
        return None
    f = fs[draw(st.integers(0, len(fs) - 1))]
    g = gs[draw(st.integers(0, len(gs) - 1))]
    return f, g


FAMILIES = [generate_anodyne(GRAPHI, [], depth=d) for d in (0, 1)]


@given(small_graphs(3, 3), st.sampled_from(FAMILIES))
def test_counted_fibrancy_agrees_with_the_square_walk(a, family):
    # two loops at one vertex put the depth-1 square count out of the
    # exhaustive walk's reach (2^26 tops for one entry alone)
    loops = [a.op("src", e) for e in a.cells["edge"] if a.op("src", e) == a.op("tgt", e)]
    assume(family.depth == 0 or len(set(loops)) == len(loops))
    assert is_naively_fibrant_upto(a, family) == has_rlp(core.bang(a), family)


@st.composite
def subgraph_inclusions(draw):
    """The inclusion of a drawn subgraph K into a drawn graph L."""
    l = draw(small_graphs(3, 3))
    edges = [e for e in l.cells["edge"] if draw(st.booleans())]
    vertices = {v for v in l.cells["vertex"] if draw(st.booleans())}
    vertices |= {l.op(name, e) for e in edges for name in ("src", "tgt")}
    return core.subobject_from_cells(l, {"vertex": vertices, "edge": edges})[1]


@given(subgraph_inclusions(), small_graphs(3, 3))
def test_counted_fibrancy_agrees_with_the_square_walk_on_drawn_entries(i, a):
    # L's parts outside K come in every number and shape: none, isolated
    # new vertices, edges between old vertices, new vertices with edges
    family = AnodyneFamily("drawn", (FamilyEntry(i, 0, "drawn"),), 0, 0, 0, {})
    assert is_naively_fibrant_upto(a, family) == has_rlp(core.bang(a), family)


@given(subgraph_inclusions(), small_graphs(3, 3))
def test_bucket_lookups_drop_only_prefixes_without_maps(i, a):
    with _unwatched():
        unwatched = list(core.extension_classes(i, a))
    assert list(core.extension_classes(i, a)) == unwatched


ENDO = core.Signature("endo", ("element",), (("f", "element", "element"),))


@st.composite
def endomaps(draw, max_size):
    """A set of at most ``max_size`` elements with an endomap f, which
    fixes about half of them."""
    cells = [f"c{n}" for n in range(draw(st.integers(0, max_size)))]
    table = {c: draw(st.one_of(st.just(c), st.sampled_from(cells))) for c in cells}
    return core.PresheafObject(ENDO, {"element": cells}, {"f": table})


@st.composite
def endo_inclusions(draw):
    """The inclusion of a drawn K into K and up to two new cells, which f
    sends into K or to each other."""
    k = draw(endomaps(3))
    cells = k.cells["element"] + tuple(f"n{n}" for n in range(draw(st.integers(0, 2))))
    table = {c: draw(st.sampled_from(cells)) for c in cells[len(k.cells["element"]):]}
    l = core.PresheafObject(ENDO, {"element": cells}, {"f": {**k.ops["f"], **table}})
    return PresheafMap(k, l, {"element": {c: c for c in k.cells["element"]}})


@given(st.lists(endo_inclusions(), min_size=1, max_size=2), endomaps(3))
def test_counted_fibrancy_agrees_with_the_square_walk_on_endomaps(entries, a):
    # a fixed point of K that no new cell reaches is a suffix cell with a
    # check of its own, so the suffix count filters its candidates: with
    # two fixed points in A, a failure shows which one it took.  On a
    # pass, every map K -> A is one square
    family = AnodyneFamily(
        "drawn", tuple(FamilyEntry(i, 0, f"drawn{n}") for n, i in enumerate(entries)),
        0, 0, 0, {},
    )
    verdict = is_naively_fibrant_upto(a, family)
    assert verdict == has_rlp(core.bang(a), family)
    if verdict.ok:
        assert verdict.squares_checked == sum(
            len(brute_force_homs(i.domain, a)) for i in entries
        )


@given(graph_spans())
def test_pushout_universal_property(span):
    if span is None:
        return
    f, g = span
    po = pushout(f, g)
    z = fin_graph(["z0", "z1"], [("w", "z0", "z1"), ("l", "z0", "z0")])
    for p in enumerate_homs(f.codomain, z):
        for q in enumerate_homs(g.codomain, z):
            mediating = po.mediate(p, q)
            commutes = f.then(p) == g.then(q)
            assert (mediating is not None) == commutes
            if mediating is not None:
                assert po.left.then(mediating) == p
                assert po.right.then(mediating) == q


@given(graph_spans())
def test_tensor_preserves_pushouts(span):
    if span is None:
        return
    f, g = span
    po = pushout(f, g)
    po_tensor = pushout(GRAPHI.tensor_map(f), GRAPHI.tensor_map(g))
    comparison = po_tensor.mediate(
        GRAPHI.tensor_map(po.left), GRAPHI.tensor_map(po.right)
    )
    assert comparison is not None
    assert core.is_iso(comparison)


@given(small_graphs(2, 2), small_graphs(2, 2))
def test_endpoint_squares_are_pullbacks(k, l):
    # oracle: compute the pullback of the cospan directly over pairs
    for j in enumerate_homs(k, l):
        if not is_mono(j):
            continue
        tensored = GRAPHI.tensor_map(j)
        l_cyl = GRAPHI.cylinder(l)
        image = core.image_cells(tensored)
        for incl in (l_cyl.d0, l_cyl.d1):
            for sort in l.signature.sorts:
                fiber = {c for c in l.cells[sort] if incl.on[sort][c] in image[sort]}
                assert fiber == set(j.on[sort].values())


@given(small_graphs(2, 2), small_graphs(2, 2))
def test_homotopy_is_reflexive_and_symmetric(x, y):
    homs = enumerate_homs(x, y)
    for f in homs[:4]:
        assert find_homotopy(GRAPHI, f, f) is not None
    for f in homs[:3]:
        for g in homs[:3]:
            forward = find_homotopy(GRAPHI, f, g) is not None
            backward = find_homotopy(GRAPHI, g, f) is not None
            # the interval swap makes one-step homotopy symmetric here
            assert forward == backward


@given(small_graphs(2, 2))
def test_category_monad_laws_hold(g):
    assert check_monad_laws(FreeCategoryMonad(2), g).ok


@given(small_graphs(2, 2), st.integers(2, 3))
def test_monad_laws_agree_with_the_exhaustive_walk(g, cap):
    monad = FreeCategoryMonad(cap)
    assert check_monad_laws(monad, g) == _reference_laws(monad, g)[0]


@given(st.integers(0, 3), st.integers(1, 3))
def test_monoid_monad_laws_hold(size, cap):
    x = fin_set([f"x{i}" for i in range(size)])
    assert check_monad_laws(FreeMonoidMonad(cap), x).ok


@given(small_graphs(2, 2), small_graphs(2, 2))
def test_unit_naturality_random(x, y):
    monad = FreeCategoryMonad(2)
    for f in enumerate_homs(x, y)[:6]:
        lhs = f.then(monad.unit(y))
        rhs = monad.unit(x).then(monad.on_map(f))
        assert lhs == rhs


@given(st.integers(1, 3), st.integers(1, 3))
def test_set_products_count(n, m):
    x = fin_set([f"x{i}" for i in range(n)])
    y = fin_set([f"y{i}" for i in range(m)])
    obj, p1, p2 = product(x, y)
    assert len(obj.cells["element"]) == n * m
    # universal property on the points: h -> (h∘p1, h∘p2) is a bijection
    # from Hom(1, X×Y) onto Hom(1, X) × Hom(1, Y), which has n·m elements
    legs = {(h.then(p1), h.then(p2)) for h in enumerate_homs(fin_set(["a"]), obj)}
    assert len(legs) == n * m


# ---------------------------------------------------------------------------
# Bulk validation against the per-cell reference
# ---------------------------------------------------------------------------

@functools.cache
def _validation_pool():
    """Corpus graphs, Δⁿ and corpus nerves at caps 2-5, and maps between
    them: graph homs, Δ¹ and Δ² into the nerves, the face complexes of Δ²
    and Δ³, and identities."""
    graphs = list(corpus_graphs().values())
    objects = graphs + [delta(n, cap) for n in range(4) for cap in range(2, 6)]
    maps = [f for x in graphs for y in graphs[3:6] for f in itertools.islice(core.search_maps(x, y), 2)]
    for cap in range(2, 6):
        nerves = [nerve(category, cap) for category in corpus_categories()]
        objects += nerves
        maps += [f for n in (1, 2) for y in nerves
                 for f in itertools.islice(core.search_maps(delta(n, cap), y), 2)]
        maps += [boundary_inclusion(3, cap), horn_inclusion(2, 1, cap), identity(nerves[2])]
    return objects, maps


@st.composite
def corrupted_builds(draw):
    """``(make, args, refusal)``: a constructor and its arguments, a pool
    object's or map's data with one kind of corruption, and the reference's
    refusal of that data (None if it accepts).  An object gets labels of
    one sort duplicated, or entries of one operator table removed, added or
    redirected; a map gets images of one sort redirected, removed or
    added.  One or two cells are corrupted, so that the first bad cell of
    two is the one named.  Either may also name one or two sorts (or, for
    an object, operators) that its signature lacks, so that a corrupt table
    and an unknown name are refused in the reference's order."""
    objects, maps = _validation_pool()
    kind = draw(st.sampled_from(["duplicate", "remove", "add", "redirect", "map-redirect",
                                 "map-remove", "map-add"]))
    unknown = draw(st.lists(st.sampled_from(["unknown-a", "unknown-b"]), max_size=2, unique=True))
    if kind.startswith("map"):
        f = draw(st.sampled_from([f for f in maps if any(f.domain.cells.values())]))
        on = {sort: dict(table) for sort, table in f.on.items()}
        sort = draw(st.sampled_from([s for s in f.domain.signature.sorts if f.domain.cells[s]]))
        table, domain, targets = on[sort], f.domain.cells[sort], f.codomain.cells[sort] + ("new",)
        make, args, refusal = PresheafMap, (f.domain, f.codomain, on), reference_map_refusal
        named = on
    else:
        x = draw(st.sampled_from([x for x in objects if x.ops and any(x.ops.values())]))
        cells = {sort: list(labels) for sort, labels in x.cells.items()}
        ops = {name: dict(table) for name, table in x.ops.items()}
        make, args = core.PresheafObject, (x.signature, cells, ops)
        refusal = reference_object_refusal
        named = draw(st.sampled_from([cells, ops]))
        if kind == "duplicate":
            sort = draw(st.sampled_from([s for s in x.signature.sorts if cells[s]]))
            cells[sort] += draw(st.lists(st.sampled_from(cells[sort]), min_size=1, max_size=2))
        else:
            name, s_sort, t_sort = draw(st.sampled_from([op for op in x.signature.ops
                                                         if x.ops[op[0]]]))
            table, domain, targets = ops[name], x.cells[s_sort], x.cells[t_sort] + ("new",)
    if kind != "duplicate":
        chosen = draw(st.lists(st.sampled_from(domain), min_size=1, max_size=2, unique=True))
        for n, cell in enumerate(chosen):
            if kind.endswith("remove"):
                del table[cell]
            else:
                table[f"new{n}" if kind.endswith("add") else cell] = draw(st.sampled_from(targets))
    named.update(dict.fromkeys(unknown, {}))
    return make, args, refusal(*args)


@settings(max_examples=300)
@given(corrupted_builds())
def test_bulk_validation_refuses_as_the_per_cell_reference(case):
    make, args, refusal = case
    try:
        make(*args)
        found = None
    except core.ValidationError as exc:
        found = str(exc)
    assert found == refusal


# ---------------------------------------------------------------------------
# The hom-search engine against the brute-force oracle
# ---------------------------------------------------------------------------

NERVES = [nerve(c, 2) for c in (chain2_category(), z2_category(), groupoid_interval())]
SSET_SHAPES = [
    delta(0, 2), delta(1, 2), delta(2, 2),
    boundary_inclusion(2, 2).domain, horn_inclusion(2, 0, 2).domain,
]


def _fresh(obj):
    """An equal object with empty caches."""
    return core.PresheafObject(obj.signature, obj.cells, obj.ops)


@given(small_graphs(2, 2), small_graphs(2, 2))
def test_oracle_is_the_raw_assignment_scan(x, y):
    cells = list(x.cell_items())
    raw = []
    for values in itertools.product(*(y.cells[sort] for sort, _ in cells)):
        on = {sort: {} for sort in x.signature.sorts}
        for (sort, cell), value in zip(cells, values):
            on[sort][cell] = value
        if all(
            on[t_sort][x.op(name, cell)] == y.op(name, on[s_sort][cell])
            for name, s_sort, t_sort in x.signature.ops
            for cell in x.cells[s_sort]
        ):
            raw.append(PresheafMap(x, y, on))
    assert brute_force_homs(x, y) == raw


@given(small_graphs(3, 3), small_graphs(3, 3))
def test_graph_homs_agree_with_brute_force(x, y):
    assert enumerate_homs(x, y) == brute_force_homs(x, y)


@given(st.sampled_from(SSET_SHAPES + NERVES[:2]), st.sampled_from(NERVES))
def test_sset_homs_agree_with_brute_force(x, y):
    assert enumerate_homs(x, y) == brute_force_homs(x, y)


def _draw_pin(draw, x, y):
    """Pins on a few cells: the images under some map x -> y when there is
    one and the draw asks for it, else arbitrary cells of y."""
    cells = [(sort, cell) for sort, cell in x.cell_items() if y.cells[sort]]
    if not cells:
        return {}
    homs = brute_force_homs(x, y)
    source = draw(st.sampled_from(homs)) if homs and draw(st.booleans()) else None
    pin = {}
    for sort, cell in draw(st.lists(st.sampled_from(cells), unique=True, max_size=3)):
        value = source.on[sort][cell] if source else draw(st.sampled_from(y.cells[sort]))
        pin.setdefault(sort, {})[cell] = value
    return pin


@st.composite
def constrained_searches(draw):
    """A graph pair with a random pin, cell filter and injectivity flag."""
    x = draw(small_graphs(3, 3))
    y = draw(small_graphs(3, 3))
    triples = [(s, c, v) for s, c in x.cell_items() for v in y.cells[s]]
    banned = set(draw(st.lists(st.sampled_from(triples), max_size=3))) if triples else set()
    return x, y, _draw_pin(draw, x, y), banned, draw(st.booleans())


@st.composite
def twice_pinned(draw):
    x = draw(small_graphs(3, 3))
    y = draw(small_graphs(3, 3))
    return x, y, _draw_pin(draw, x, y), _draw_pin(draw, x, y)


@settings(max_examples=150)
@given(constrained_searches())
def test_pin_filter_injective_agree_with_filtered_brute_force(case):
    x, y, pin, banned, injective = case

    def allowed(sort, cell, value):
        return (sort, cell, value) not in banned

    matching = [
        f for f in brute_force_homs(x, y)
        if all(f.on[s][c] == v for s, table in pin.items() for c, v in table.items())
        and all(allowed(s, c, f.on[s][c]) for s, c in x.cell_items())
    ]
    expected = [f for f in matching if not injective or is_mono(f)]
    found = list(core.search_maps(x, y, pin=pin, cell_filter=allowed, injective=injective))
    assert found == expected
    first = next(core.search_maps(x, y, pin=pin, cell_filter=allowed), None)
    assert first == (matching[0] if matching else None)


@st.composite
def subobjects(draw, l):
    """The inclusion of a subgraph of ``l``, with a vertex if ``l`` has one."""
    vertices = set()
    if l.cells["vertex"]:
        vertices = draw(st.sets(st.sampled_from(l.cells["vertex"]), min_size=1))
    edges = {
        e for e in l.cells["edge"]
        if {l.op("src", e), l.op("tgt", e)} <= vertices and draw(st.booleans())
    }
    return core.subobject_from_cells(l, {"vertex": vertices, "edge": edges})[1]


@st.composite
def extension_problems(draw):
    """Graphs L and Y with one or two legs (i, u): the inclusion i of a
    subgraph of L, which the second leg may share with the first, and a
    map u from it to Y, drawn as the restriction of a map L -> Y or as any
    map, so that two legs may conflict."""
    l = draw(small_graphs(3, 3))
    y = draw(small_graphs(2, 3))
    homs = brute_force_homs(l, y)
    legs = []
    for _ in range(draw(st.integers(1, 2))):
        i = legs[0][0] if legs and draw(st.booleans()) else draw(subobjects(l))
        if homs and draw(st.booleans()):
            u = i.then(draw(st.sampled_from(homs)))
        else:
            tops = brute_force_homs(i.domain, y)
            assume(tops)
            u = draw(st.sampled_from(tops))
        legs.append((i, u))
    return legs, y


@settings(max_examples=100)
@given(extension_problems())
def test_extend_along_is_the_least_restricting_hom(problem):
    legs, y = problem
    restricting = [
        d for d in brute_force_homs(legs[0][0].codomain, y)
        if all(i.then(d) == u for i, u in legs)
    ]
    found = core.extend_along(legs, y)
    assert found == (restricting[0] if restricting else None)
    if core.pin_along(legs) is None:
        assert found is None


@given(twice_pinned())
def test_cached_plans_give_the_results_of_fresh_objects(case):
    x, y, pin_a, pin_b = case
    runs = [
        lambda d, c: list(core.search_maps(d, c, pin=pin_a)),
        lambda d, c: list(core.search_maps(d, c, pin=pin_b)),
        lambda d, c: enumerate_homs(d, c),
    ]
    for run in runs:
        assert run(x, y) == run(_fresh(x), _fresh(y))
    plan = x._plan
    assert plan is not None
    enumerate_homs(x, y)
    assert x._plan is plan


def test_horn_pins_agree_with_filtered_brute_force():
    for k in range(3):
        incl = horn_inclusion(2, k, 2)
        for y in NERVES:
            everything = brute_force_homs(incl.codomain, y)
            for top in enumerate_homs(incl.domain, y):
                pin = {
                    sort: {incl.on[sort][c]: v for c, v in top.on[sort].items()}
                    for sort in incl.domain.signature.sorts
                }
                expected = [f for f in everything if incl.then(f) == top]
                assert list(core.search_maps(incl.codomain, y, pin=pin)) == expected


# ---------------------------------------------------------------------------
# The walk's lookups of its own keyed cells against the walk without them
# ---------------------------------------------------------------------------

CAP2_SHAPES = (
    [delta(n, 2) for n in range(4)]
    + [boundary_inclusion(n, 2).domain for n in (2, 3)]
    + [horn_inclusion(n, k, 2).domain for n in (2, 3) for k in range(n + 1)]
)
CAP2_NERVES = [nerve(c, 2) for c in corpus_categories()]
CAP2_ENTRIES = [entry for name in ("sset-jinf", "sset-delta1")
                for entry in generate_anodyne(get_instance(name, 2), [], depth=1).entries]


def _unwatched():
    """The walk with no lookups."""
    return mock.patch.object(core, "_triggers", lambda plan: [()] * len(plan.steps))


@st.composite
def sub_ssets(draw, pool):
    """An object of ``pool``, or its part that a few drawn cells generate
    under the faces and degeneracies."""
    whole = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        return whole
    keep = {sort: set() for sort in whole.signature.sorts}
    todo = draw(st.lists(st.sampled_from(list(whole.cell_items())), max_size=3))
    while todo:
        sort, cell = todo.pop()
        if cell not in keep[sort]:
            keep[sort].add(cell)
            todo += [(t, whole.ops[name][cell]) for name, s, t in whole.signature.ops if s == sort]
    return core.subobject_from_cells(whole, keep)[0]


@given(sub_ssets(CAP2_SHAPES + CAP2_NERVES), sub_ssets(CAP2_SHAPES + CAP2_NERVES))
def test_drawn_sset_homs_agree_with_brute_force(x, y):
    assert enumerate_homs(x, y) == brute_force_homs(x, y)


@given(sub_ssets(CAP2_SHAPES + CAP2_NERVES), st.sampled_from(CAP2_ENTRIES))
def test_walk_lookups_drop_only_prefixes_without_maps(a, entry):
    # the guard keeps out the carriers whose walk without the lookups is
    # slow; the lookups only drop candidates, so the watched walk
    # finishes within it too
    try:
        with _unwatched():
            unwatched = list(core.extension_classes(entry.arrow, a, guard=10**5))
    except core.GuardExceeded:
        assume(False)
    assert list(core.extension_classes(entry.arrow, a, guard=10**5)) == unwatched


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_horn_fillers_are_those_of_the_walk_without_lookups(cap):
    for category in corpus_categories():
        x = nerve(category, cap)
        for n in range(1, cap + 1):
            for k in range(n + 1):
                with _unwatched():
                    unwatched = horn_filler(x, n, k)
                assert horn_filler(x, n, k) == unwatched


# ---------------------------------------------------------------------------
# The counted walk's per-level tallies against a count of every later step
# ---------------------------------------------------------------------------

def _recounted():
    """The counted walk that counts every later step afresh for each prefix
    assignment."""
    return mock.patch.object(core, "_attached", lambda plan, stop: (None, None))


def _classes(i, a, guard):
    """The yields of ``extension_classes(i, a)`` under ``guard``, or None
    when it exceeds the guard."""
    try:
        return list(core.extension_classes(i, a, guard=guard))
    except core.GuardExceeded:
        return None


CAP2_TARGETS = (CAP2_NERVES + [delta(2, 2), boundary_inclusion(2, 2).domain]
                + [horn_inclusion(2, k, 2).domain for k in range(3)])
COUNTED_CASES = st.one_of(
    st.tuples(st.sampled_from([e.arrow for family in FAMILIES for e in family.entries]),
              st.sampled_from(all_small_graphs(3, 3))),
    st.tuples(st.sampled_from([e.arrow for name in ("sset-jinf", "sset-delta1")
                               for e in generate_anodyne(get_instance(name, 2), [], depth=0).entries]),
              st.sampled_from(CAP2_TARGETS)),
    st.tuples(endo_inclusions(), endomaps(3)),
)


@settings(max_examples=300)
@given(COUNTED_CASES)
def test_level_tallies_count_as_every_later_step_does(case):
    # graphI entries into small graphs and cap-2 entries into Δ², ∂Δ², Λ²ₖ
    # and the corpus nerves recount keyed later cells, and endomap entries
    # later cells with checks of their own.  The yields, and the least
    # guard they finish under, are those of the recount
    i, a = case
    with _recounted():
        guard = 1
        while _classes(i, a, guard) is None:
            guard *= 2
        failing = guard // 2 if guard > 1 else -1
        while failing + 1 < guard:
            mid = (failing + guard) // 2
            if _classes(i, a, mid) is None:
                failing = mid
            else:
                guard = mid
        recounted = _classes(i, a, guard)
    assert _classes(i, a, guard) == recounted
    assert guard == 0 or _classes(i, a, guard - 1) is None


# strings that exercise every escape: quotes, backslashes, control
# characters, non-ASCII letters, a line separator and an astral character
JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                                 st.characters()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**63, 2**100),
              st.integers(-(2**100), -(2**63)), JSON_STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_VALUES)
def test_canonical_json_is_sorted_indented_dumps(tmp_path, value):
    text = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert canonical_json(value) == text
    write_document(tmp_path / "value.json", value)
    assert (tmp_path / "value.json").read_bytes() == text.encode("utf-8")


def test_written_family_is_the_canonical_text_in_many_chunks(tmp_path):
    document = family_to_document(generate_anodyne(GRAPHI, [], depth=5))
    text = canonical_json(document)
    chunks = []
    assert canonical_json(document, chunks.append) is None
    assert len(chunks) > 50 and "".join(chunks) == text
    write_document(tmp_path / "family.json", document)
    assert (tmp_path / "family.json").read_bytes() == text.encode("utf-8")


def test_a_float_past_the_first_chunk_is_refused(tmp_path):
    value = {"a": [[str(i)] for i in range(3000)], "b": [0.5]}
    chunks = []
    with pytest.raises(TypeError):
        canonical_json(value, chunks.append)
    assert chunks  # the float came after text was handed over
    path = tmp_path / "value.json"
    path.write_text("old contents", encoding="utf-8")
    with pytest.raises(TypeError):
        write_document(path, value)
    # the text went to a new file beside the old one, which is removed with
    # the chunks handed over before the float: the old contents survive
    assert path.read_text(encoding="utf-8") == "old contents"
    assert list(tmp_path.iterdir()) == [path]


def test_write_document_writes_through_a_link_and_keeps_the_mode(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old contents", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    write_document(link, {"a": "b"})
    assert link.is_symlink() and target.read_text(encoding="utf-8") == canonical_json({"a": "b"})
    assert target.stat().st_mode & 0o777 == 0o640
    fresh = tmp_path / "fresh.json"
    write_document(fresh, {})
    umask = os.umask(0o22)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "link.json", "target.json"]


def test_write_document_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text(encoding="utf-8")),
                              daemon=True)
    reader.start()
    write_document(fifo, {"a": ["b"]})
    reader.join(timeout=10)
    assert read == [canonical_json({"a": ["b"]})]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_canonical_json_of_empty_and_nested_containers():
    for value in ({}, [], (), {"a": {}, "b": [[], {}], "c": ((),)}, [[[{"x": [None]}]]]):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "a"}, {"a": {None: 1}}, {True: 0}])
def test_canonical_json_refuses_floats_and_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        canonical_json(value)
