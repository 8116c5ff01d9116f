import itertools

import pytest
from hypothesis import HealthCheck, settings

from phl import core

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


@pytest.fixture(scope="session")
def set_instance():
    from phl.cylinder import set_instance as make

    return make()


@pytest.fixture(scope="session")
def graph_instance():
    from phl.cylinder import graph_instance as make

    return make()
