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
