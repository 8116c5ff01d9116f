import itertools

import pytest
from hypothesis import HealthCheck, settings

from phl import core, fixtures
from phl.lifting import LiftingProblem

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def mono_unit(monad, x):
    """The unit of ``monad`` at ``x``, asserted to be a monomorphism."""
    eta = monad.unit(x)
    assert core.is_mono(eta), "unit failed to be a monomorphism"
    return eta


def inverse(f):
    """The inverse of an isomorphism, read off its cell tables."""
    assert core.is_iso(f), "map is not invertible"
    on = {
        sort: {value: cell for cell, value in f.on[sort].items()}
        for sort in f.domain.signature.sorts
    }
    return core.PresheafMap(f.codomain, f.domain, on)


def assignment_tuple(f):
    """Images in canonical cell order: the key of the lexicographic order
    in which a search yields maps."""
    return tuple(f.on[sort][cell] for sort, cell in f.domain.cell_items())


def to_terminal(left, top):
    """The lifting square of ``left`` against A -> 1, where A is the
    codomain of ``top``."""
    return LiftingProblem(left, core.bang(top.codomain), top, core.bang(left.codomain))


def enumerate_homs(dom, cod, guard=None):
    """All maps ``dom -> cod`` in the engine's lexicographic order."""
    return list(core.search_maps(dom, cod, guard=guard))


def one_step_relation(instance, x, a):
    """The homs X -> A and the one-step relation between them, one
    ``find_homotopy`` (and so one cylinder) per ordered pair."""
    from phl.homotopy import find_homotopy

    homs = enumerate_homs(x, a)
    related = [[find_homotopy(instance, f, g) is not None for g in homs] for f in homs]
    return homs, related


def relation_properties(related):
    """``(reflexive, symmetric, transitive)`` of a relation given as a
    square boolean matrix."""
    n = range(len(related))
    reflexive = all(related[i][i] for i in n)
    symmetric = all(related[j][i] for i in n for j in n if related[i][j])
    transitive = all(
        related[i][k] for i in n for j in n for k in n if related[i][j] and related[j][k]
    )
    return reflexive, symmetric, transitive


def loop_complete_graphs():
    """Corpus graphs in which every vertex carries a loop; on these the
    interval completion models thread connectors faithfully."""
    out = {}
    for name, g in fixtures.corpus_graphs().items():
        looped = {g.op("src", e) for e in g.cells["edge"] if g.op("src", e) == g.op("tgt", e)}
        if set(g.cells["vertex"]) == looped:
            out[name] = g
    return out


def _reference_colors(obj, init):
    """1-WL colors of ``obj``'s cells, seeded by sort and ``init(sort, cell)``."""
    colors = {(sort, cell): (sort,) + tuple(init(sort, cell)) for sort, cell in obj.cell_items()}
    canon = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    colors = {k: canon[v] for k, v in colors.items()}
    while True:
        contributions = {key: [] for key in colors}
        for name, s_sort, t_sort in obj.signature.ops:
            for cell in obj.cells[s_sort]:
                target = obj.op(name, cell)
                contributions[(s_sort, cell)].append((name, "out", colors[(t_sort, target)]))
                contributions[(t_sort, target)].append((name, "in", colors[(s_sort, cell)]))
        combined = {key: (colors[key], tuple(sorted(contributions[key]))) for key in colors}
        canon = {c: i for i, c in enumerate(sorted(set(combined.values())))}
        refined = {key: canon[combined[key]] for key in combined}
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _histogram(colors):
    out = {}
    for (sort, _), color in colors.items():
        out[(sort, color)] = out.get((sort, color), 0) + 1
    return out


def reference_arrows_isomorphic(m1, m2):
    """Isomorphism in the arrow category by two nested searches: isos phi
    of the domains, and for each, isos psi of the codomains with
    psi∘m1 = m2∘phi, both pruned by colors (the codomain's seeded by image
    membership, the domain's by the codomain color of each cell's image).
    Any two arrows, monos or not."""
    if m1.domain.signature.name != m2.domain.signature.name:
        return False
    for sort in m1.domain.signature.sorts:
        if len(m1.domain.cells[sort]) != len(m2.domain.cells[sort]):
            return False
        if len(m1.codomain.cells[sort]) != len(m2.codomain.cells[sort]):
            return False

    def decorate(m):
        image = core.image_cells(m)
        cod_colors = _reference_colors(m.codomain, lambda sort, cell: (cell in image[sort],))
        dom_colors = _reference_colors(
            m.domain, lambda sort, cell: (cod_colors[(sort, m.on[sort][cell])],)
        )
        return dom_colors, cod_colors

    dom1, cod1 = decorate(m1)
    dom2, cod2 = decorate(m2)
    if _histogram(dom1) != _histogram(dom2) or _histogram(cod1) != _histogram(cod2):
        return False

    def dom_filter(sort, cell, value):
        return dom1[(sort, cell)] == dom2[(sort, value)]

    def cod_filter(sort, cell, value):
        return cod1[(sort, cell)] == cod2[(sort, value)]

    for phi in core.search_maps(m1.domain, m2.domain, injective=True, cell_filter=dom_filter):
        pin = core.pin_along([(m1, phi.then(m2))])
        if pin is None:
            continue
        for _psi in core.search_maps(m1.codomain, m2.codomain, pin=pin, injective=True,
                                     cell_filter=cod_filter):
            return True
    return False


def brute_force_homs(dom, cod):
    """Independent hom-set oracle: a plain scan with no index, no plan and
    no code shared with the search engine.

    Sorts are assigned in signature order.  Within a sort, each cell's
    candidates are the codomain cells, in sorted order, that satisfy every
    constraint linking the cell to a cell of an earlier sort; the product of
    those lists is then filtered by the constraints inside the sort.  This
    yields exactly the raw assignments that satisfy every constraint, in
    lexicographic order, while staying small enough for simplicial shapes.
    """
    sorts = dom.signature.sorts
    rank = {sort: r for r, sort in enumerate(sorts)}
    constraints = [
        (name, (s_sort, cell), (t_sort, dom.op(name, cell)))
        for name, s_sort, t_sort in dom.signature.ops
        for cell in dom.cells[s_sort]
    ]
    linked = {(sort, cell): [] for sort in sorts for cell in dom.cells[sort]}
    inside = {sort: [] for sort in sorts}
    for c in constraints:
        (s_sort, _), (t_sort, _) = c[1], c[2]
        if s_sort == t_sort:
            inside[s_sort].append(c)
        else:
            linked[max(c[1], c[2], key=lambda sc: rank[sc[0]])].append(c)

    def holds(assignment, name, source, target):
        return cod.op(name, assignment[source]) == assignment[target]

    def extend(r, assignment):
        if r == len(sorts):
            on = {sort: {} for sort in sorts}
            for (sort, cell), value in assignment.items():
                on[sort][cell] = value
            yield core.PresheafMap(dom, cod, on)
            return
        sort = sorts[r]
        choices = []
        for cell in dom.cells[sort]:
            allowed = []
            for value in cod.cells[sort]:
                trial = dict(assignment)
                trial[(sort, cell)] = value
                if all(holds(trial, *c) for c in linked[(sort, cell)]):
                    allowed.append(value)
            choices.append(allowed)
        for values in itertools.product(*choices):
            trial = dict(assignment)
            trial.update(((sort, cell), v) for cell, v in zip(dom.cells[sort], values))
            if all(holds(trial, *c) for c in inside[sort]):
                yield from extend(r + 1, trial)

    return list(extend(0, {}))


def _reference_unknown(where, noun, given, known, signature):
    extra = sorted(set(given) - set(known))
    if extra:
        return f"{where} names the {noun} {extra[0]!r}, which the base {signature.name!r} does not have"
    return None


def reference_object_refusal(signature, cells, ops):
    """The text of the ``ValidationError`` that
    ``PresheafObject(signature, cells, ops)`` raises, or None: a per-cell
    scan of its labels and operator tables, as an object built unchecked
    keeps them, and then of the sorts and operators named that the
    signature lacks.  Kept as the reference for the bulk checks of
    ``PresheafObject``."""
    obj = core.PresheafObject(signature, cells, ops, _validated=True)
    for sort in obj.signature.sorts:
        labels = obj.cells[sort]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            return f"duplicate {sort} label {dup!r}"
        for label in labels:
            if not isinstance(label, str):
                return f"{sort} label {label!r} is not a string"
    for name, s_sort, t_sort in obj.signature.ops:
        table = obj.ops[name]
        src_cells = set(obj.cells[s_sort])
        tgt_cells = set(obj.cells[t_sort])
        if set(table) != src_cells:
            missing = sorted(src_cells - set(table)) + sorted(set(table) - src_cells)
            return f"operator {name!r} table does not match {s_sort} cells: {missing}"
        for cell, value in table.items():
            if value not in tgt_cells:
                return f"operator {name!r} sends {cell!r} to undeclared {t_sort} {value!r}"
    return (_reference_unknown("object 'cells'", "sort", cells, obj.cells, signature)
            or _reference_unknown("object 'ops'", "operator", ops, obj.ops, signature))


def reference_map_refusal(domain, codomain, on):
    """The text of the ``ValidationError`` that
    ``PresheafMap(domain, codomain, on)`` raises, or None: a per-cell scan
    of its assignment and of commutation, as a map built unchecked keeps
    them, and then of the sorts named that the base lacks.  Kept as the
    reference for the bulk checks of ``PresheafMap``."""
    f = core.PresheafMap(domain, codomain, on, _validated=True)
    for sort in f.domain.signature.sorts:
        assignment = f.on[sort]
        for cell in f.domain.cells[sort]:
            if cell not in assignment:
                return f"map is missing the {sort} cell {cell!r}"
        for cell, value in assignment.items():
            if cell not in f.domain.cells[sort]:
                return f"map assigns undeclared {sort} cell {cell!r}"
            if value not in f.codomain.cells[sort]:
                return f"map sends {sort} {cell!r} to undeclared cell {value!r}"
    for name, s_sort, t_sort in f.domain.signature.ops:
        for cell in f.domain.cells[s_sort]:
            left = f.on[t_sort][f.domain.op(name, cell)]
            right = f.codomain.op(name, f.on[s_sort][cell])
            if left != right:
                return f"map does not commute with {name!r} at {s_sort} {cell!r}"
    return _reference_unknown("map 'on'", "sort", on, f.on, domain.signature)


def reference_plan(dom):
    """``(positions, spans, bucket_keys, steps)`` of ``dom``'s search plan,
    compiled cell by cell: each constraint is classified at its own two
    positions.  A keyed step's getter is given as its index tuple."""
    order = list(dom.cell_items())
    positions = {sort: {} for sort in dom.signature.sorts}
    for i, (sort, cell) in enumerate(order):
        positions[sort][cell] = i
    spans, lo = [], 0
    for sort in dom.signature.sorts:
        cells = dom.cells[sort]
        spans.append((sort, cells, lo, lo + len(cells)))
        lo += len(cells)
    forcing, keyed, residual = ([[] for _ in order] for _ in range(3))
    for name, s_sort, t_sort in dom.signature.ops:
        for cell in dom.cells[s_sort]:
            s = positions[s_sort][cell]
            t = positions[t_sort][dom.ops[name][cell]]
            at = residual if s == t else forcing if t > s else keyed
            at[max(s, t)].append((name, s, t))
    bucket_keys, steps = [], []
    for i, (sort, cell) in enumerate(order):
        all_checks = tuple(forcing[i] + keyed[i] + residual[i])
        if forcing[i]:
            name, s, _ = forcing[i][0]
            mode, gen, own = core._FORCED, (name, s), all_checks[1:]
        elif keyed[i]:
            key = (sort, tuple(name for name, _, _ in keyed[i]))
            if key not in bucket_keys:
                bucket_keys.append(key)
            reads = tuple(t for _, _, t in keyed[i])
            mode, gen, own = core._KEYED, (bucket_keys.index(key), reads), tuple(residual[i])
        else:
            mode, gen, own = core._FREE, None, tuple(residual[i])
        steps.append((sort, cell, mode, gen, own, all_checks))
    return positions, spans, bucket_keys, steps


@pytest.fixture(scope="session")
def set_instance():
    from phl.cylinder import set_instance as make

    return make()


@pytest.fixture(scope="session")
def graph_instance():
    from phl.cylinder import graph_instance as make

    return make()
