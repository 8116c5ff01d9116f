"""Finite presheaf-like carriers and the (co)limits everything else consumes.

A carrier is described by a :class:`Signature`: a list of cell sorts plus
unary structure operators between sorts (``src``/``tgt`` for graphs, the
face and degeneracy tables for truncated simplicial sets, nothing for
sets).  Objects are immutable after construction, every operation is pure,
and every enumeration order is fixed: signature sort order first, then
sorted cell labels.  That ordering is a contract; golden files and the
deduplication logic depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from math import inf, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional


class Error(Exception):
    """Base class for all library errors."""


class ValidationError(Error):
    """A document or structure failed validation."""


class MismatchError(Error):
    """Operands live in different base categories."""


class GuardExceeded(Error):
    """An enumeration exceeded the configured resource guard."""


class CapError(Error):
    """A truncation cap was violated or too small for the request."""


#: Default budget for exhaustive searches, counted in candidate cell
#: assignments examined.  Exceeding it raises, never degrades.
DEFAULT_GUARD = 10_000_000


@dataclass(frozen=True)
class Signature:
    """Cell sorts and unary structure operators of a base category.

    ``ops`` entries are ``(name, source_sort, target_sort)``; a map between
    objects must commute with every operator.
    """

    name: str
    sorts: tuple
    ops: tuple


SET_SIGNATURE = Signature("set", ("element",), ())

GRAPH_SIGNATURE = Signature(
    "graph",
    ("vertex", "edge"),
    (("src", "edge", "vertex"), ("tgt", "edge", "vertex")),
)


def _refuse_unknown(where, noun, given, known, signature):
    """Refuse a key of ``given`` that ``known``, which is keyed by the
    signature's names, lacks: one comparison of the two key sets."""
    if not given <= known.keys():
        raise ValidationError(f"{where} names the {noun} {min(given - known.keys())!r}, "
                              f"which the base {signature.name!r} does not have")


class PresheafObject:
    """A finite object: labelled cells per sort plus operator tables."""

    # ``_cell_sets``, ``_plan`` and ``_index`` are caches filled on first
    # use: per-sort label sets, the search plan of this object as a domain,
    # and its candidate buckets as a codomain.
    __slots__ = ("signature", "cells", "ops", "_key", "_cell_sets", "_plan", "_index")

    def __init__(self, signature: Signature, cells, ops, _validated=False):
        self.signature = signature
        self.cells = {sort: tuple(sorted(cells.get(sort, ()))) for sort in signature.sorts}
        self.ops = {name: dict(ops.get(name, {})) for name, _, _ in signature.ops}
        self._key = self._cell_sets = self._plan = self._index = None
        if not _validated:
            self._validate(cells.keys(), ops.keys())

    def _validate(self, sorts, names):
        """Each sort's labels and each operator's table are checked whole,
        with set comparisons; the first bad cell is looked up on failure.
        Then a sort or operator that the signature lacks is refused."""
        self._cell_sets = sets = {}
        for sort in self.signature.sorts:
            labels = self.cells[sort]
            sets[sort] = frozenset(labels)
            if len(sets[sort]) != len(labels):
                dup = next(l for l in labels if labels.count(l) > 1)
                raise ValidationError(f"duplicate {sort} label {dup!r}")
            if not all(map(isinstance, labels, repeat(str))):
                label = next(l for l in labels if not isinstance(l, str))
                raise ValidationError(f"{sort} label {label!r} is not a string")
        for name, s_sort, t_sort in self.signature.ops:
            table, src_cells, tgt_cells = self.ops[name], sets[s_sort], sets[t_sort]
            if table.keys() != src_cells:
                missing = sorted(src_cells - table.keys()) + sorted(table.keys() - src_cells)
                raise ValidationError(f"operator {name!r} table does not match {s_sort} cells: {missing}")
            if not tgt_cells.issuperset(table.values()):
                cell, value = next((c, v) for c, v in table.items() if v not in tgt_cells)
                raise ValidationError(
                    f"operator {name!r} sends {cell!r} to undeclared {t_sort} {value!r}"
                )
        _refuse_unknown("object 'cells'", "sort", sorts, self.cells, self.signature)
        _refuse_unknown("object 'ops'", "operator", names, self.ops, self.signature)

    def op(self, name: str, cell: str) -> str:
        return self.ops[name][cell]

    def cell_set(self, sort: str) -> frozenset:
        if self._cell_sets is None:
            self._cell_sets = {}
        labels = self._cell_sets.get(sort)
        if labels is None:
            labels = self._cell_sets[sort] = frozenset(self.cells[sort])
        return labels

    def cell_items(self):
        """All (sort, label) pairs in the canonical enumeration order."""
        for sort in self.signature.sorts:
            for label in self.cells[sort]:
                yield sort, label

    def _structure(self):
        """The structural key that equality and hashing compare, built on
        first use: nothing changes ``cells`` or ``ops`` after construction."""
        if self._key is None:
            self._key = (
                self.signature.name,
                tuple((sort, self.cells[sort]) for sort in self.signature.sorts),
                tuple((name, tuple(sorted(self.ops[name].items())))
                      for name, _, _ in self.signature.ops),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, PresheafObject) and self._structure() == other._structure()

    def __hash__(self):
        return hash(self._structure())

    def __repr__(self):
        counts = ", ".join(f"{len(self.cells[s])} {s}" for s in self.signature.sorts)
        return f"<{self.signature.name} object: {counts}>"


def fin_set(elements: Iterable[str]) -> PresheafObject:
    """Finite set with distinct string labels."""
    return PresheafObject(SET_SIGNATURE, {"element": tuple(elements)}, {})


def fin_graph(vertices: Iterable[str], edges: Iterable) -> PresheafObject:
    """Directed multigraph; ``edges`` is an iterable of (label, src, tgt)."""
    vertices = tuple(vertices)
    edges = [tuple(e) for e in edges]
    vset = set(vertices)
    labels, src, tgt = [], {}, {}
    for label, a, b in edges:
        if a not in vset:
            raise ValidationError(f"edge {label!r} endpoint {a!r} is not a declared vertex")
        if b not in vset:
            raise ValidationError(f"edge {label!r} endpoint {b!r} is not a declared vertex")
        labels.append(label)
        src[label] = a
        tgt[label] = b
    return PresheafObject(
        GRAPH_SIGNATURE,
        {"vertex": vertices, "edge": tuple(labels)},
        {"src": src, "tgt": tgt},
    )


def empty_object(signature: Signature) -> PresheafObject:
    return PresheafObject(signature, {}, {})


def terminal_object(signature: Signature) -> PresheafObject:
    """One cell per sort, all operators constant.  Product unit in each base."""
    cells = {sort: ("*",) for sort in signature.sorts}
    ops = {name: {"*": "*"} for name, _, _ in signature.ops}
    return PresheafObject(signature, cells, ops)


class PresheafMap:
    """A cell-wise assignment between objects, validated against structure."""

    __slots__ = ("domain", "codomain", "on", "_key")

    def __init__(self, domain: PresheafObject, codomain: PresheafObject, on, _validated=False):
        if domain.signature.name != codomain.signature.name:
            raise MismatchError(
                f"map between different bases: {domain.signature.name} vs {codomain.signature.name}"
            )
        self.domain = domain
        self.codomain = codomain
        self.on = {sort: dict(on.get(sort, {})) for sort in domain.signature.sorts}
        self._key = None
        if not _validated:
            self._validate(on.keys())

    def _validate(self, sorts):
        """Each sort's assignment is checked whole, with set comparisons, and
        looked into only when it fails; commutation is checked cell by cell
        in one loop per operator.  Then a sort that the base lacks is
        refused."""
        dom, cod, on = self.domain, self.codomain, self.on
        for sort in dom.signature.sorts:
            assignment, cells, targets = on[sort], dom.cell_set(sort), cod.cell_set(sort)
            if assignment.keys() != cells or not targets.issuperset(assignment.values()):
                for cell in dom.cells[sort]:
                    if cell not in assignment:
                        raise ValidationError(f"map is missing the {sort} cell {cell!r}")
                cell, value = next((c, v) for c, v in assignment.items()
                                   if c not in cells or v not in targets)
                if cell not in cells:
                    raise ValidationError(f"map assigns undeclared {sort} cell {cell!r}")
                raise ValidationError(f"map sends {sort} {cell!r} to undeclared cell {value!r}")
        for name, s_sort, t_sort in dom.signature.ops:
            # a plain loop over the tables beats lists built by ``map`` here
            dom_op, cod_op, source, target = dom.ops[name], cod.ops[name], on[s_sort], on[t_sort]
            for cell in dom.cells[s_sort]:
                if target[dom_op[cell]] != cod_op[source[cell]]:
                    raise ValidationError(f"map does not commute with {name!r} at {s_sort} {cell!r}")
        _refuse_unknown("map 'on'", "sort", sorts, on, dom.signature)

    def then(self, other: "PresheafMap") -> "PresheafMap":
        """Composite ``self`` followed by ``other``."""
        if self.codomain != other.domain:
            raise MismatchError("maps are not composable")
        on = {
            sort: {cell: other.on[sort][value] for cell, value in self.on[sort].items()}
            for sort in self.domain.signature.sorts
        }
        return PresheafMap(self.domain, other.codomain, on, _validated=True)

    def _structure(self):
        """The structural key, built on first use as for objects."""
        if self._key is None:
            self._key = (
                self.domain._structure(),
                self.codomain._structure(),
                tuple((sort, tuple(sorted(self.on[sort].items())))
                      for sort in self.domain.signature.sorts),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, PresheafMap) and self._structure() == other._structure()

    def __hash__(self):
        return hash(self._structure())

    def __repr__(self):
        return f"<map {self.domain!r} -> {self.codomain!r}>"


def identity(obj: PresheafObject) -> PresheafMap:
    on = {sort: {cell: cell for cell in obj.cells[sort]} for sort in obj.signature.sorts}
    return PresheafMap(obj, obj, on, _validated=True)


def bang(obj: PresheafObject) -> PresheafMap:
    """The unique map to the terminal object of the same base."""
    one = terminal_object(obj.signature)
    on = {sort: {cell: "*" for cell in obj.cells[sort]} for sort in obj.signature.sorts}
    return PresheafMap(obj, one, on, _validated=True)


def is_mono(f: PresheafMap) -> bool:
    """Cell-wise injectivity on every sort; equals categorical mono here."""
    for sort in f.domain.signature.sorts:
        values = list(f.on[sort].values())
        if len(set(values)) != len(values):
            return False
    return True


def is_iso(f: PresheafMap) -> bool:
    if not is_mono(f):
        return False
    return all(
        len(f.domain.cells[sort]) == len(f.codomain.cells[sort])
        for sort in f.domain.signature.sorts
    )


def relabel(obj: PresheafObject, rename: Callable[[str, str], str]):
    """Rename cells with ``rename(sort, label)``; returns (object, iso to it)."""
    cells = {}
    ops = {}
    fwd = {}
    for sort in obj.signature.sorts:
        table = {cell: rename(sort, cell) for cell in obj.cells[sort]}
        if len(set(table.values())) != len(table):
            raise ValidationError(f"relabelling is not injective on sort {sort!r}")
        fwd[sort] = table
        cells[sort] = tuple(table.values())
    for name, s_sort, t_sort in obj.signature.ops:
        ops[name] = {
            fwd[s_sort][cell]: fwd[t_sort][value] for cell, value in obj.ops[name].items()
        }
    new_obj = PresheafObject(obj.signature, cells, ops, _validated=True)
    iso = PresheafMap(obj, new_obj, fwd, _validated=True)
    return new_obj, iso


def subobject_from_cells(obj: PresheafObject, keep) -> tuple:
    """Subobject spanned by ``keep`` (sort -> iterable of labels); must be
    closed under the operators.  Returns (subobject, inclusion)."""
    keep = {sort: set(keep.get(sort, ())) for sort in obj.signature.sorts}
    for sort, labels in keep.items():
        for label in labels:
            if label not in obj.cell_set(sort):
                raise ValidationError(f"subobject names undeclared {sort} cell {label!r}")
    for name, s_sort, t_sort in obj.signature.ops:
        for cell in keep[s_sort]:
            if obj.op(name, cell) not in keep[t_sort]:
                raise ValidationError(
                    f"cells are not closed under {name!r}: {cell!r} escapes"
                )
    cells = {sort: tuple(sorted(keep[sort])) for sort in obj.signature.sorts}
    ops = {
        name: {cell: obj.op(name, cell) for cell in keep[s_sort]}
        for name, s_sort, t_sort in obj.signature.ops
    }
    sub = PresheafObject(obj.signature, cells, ops, _validated=True)
    incl = PresheafMap(
        sub, obj, {sort: {c: c for c in cells[sort]} for sort in obj.signature.sorts},
        _validated=True,
    )
    return sub, incl


def image_cells(f: PresheafMap):
    """Image of a map as a sort -> set of labels dictionary."""
    return {
        sort: set(f.on[sort].values()) for sort in f.domain.signature.sorts
    }


# ---------------------------------------------------------------------------
# Coproducts, pushouts, products
# ---------------------------------------------------------------------------

def coproduct_of(signature: Signature, summands):
    """Disjoint union of the ``(prefix, object)`` summands, each cell c of a
    summand labelled ``prefix + c``; no summands give the empty object.

    Returns (object, list of the injections in summand order).
    """
    cells = {sort: [] for sort in signature.sorts}
    ops = {name: {} for name, _, _ in signature.ops}
    tables = []
    for prefix, x in summands:
        if x.signature.name != signature.name:
            raise MismatchError("coproduct of objects in different bases")
        on = {sort: {c: prefix + c for c in x.cells[sort]} for sort in signature.sorts}
        for sort in signature.sorts:
            cells[sort].extend(on[sort].values())
        for name, s_sort, t_sort in signature.ops:
            ops[name].update((on[s_sort][c], on[t_sort][v]) for c, v in x.ops[name].items())
        tables.append((x, on))
    for sort, labels in cells.items():
        if len(set(labels)) != len(labels):
            raise ValidationError(f"coproduct {sort} labels collide; choose distinct prefixes")
    obj = PresheafObject(signature, cells, ops, _validated=True)
    return obj, [PresheafMap(x, obj, on, _validated=True) for x, on in tables]


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, k):
        self.parent.setdefault(k, k)

    def find(self, k):
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # lexicographically least label wins; keeps apex labels canonical
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class PushoutResult:
    """Pushout apex with its two injections and a mediating-map solver."""

    apex: PresheafObject
    left: PresheafMap   # B -> apex
    right: PresheafMap  # C -> apex

    def mediate(self, p: PresheafMap, q: PresheafMap) -> Optional[PresheafMap]:
        """The unique map m with m∘left = p and m∘right = q, or None if
        (p, q) is not a commuting cocone on the span."""
        if p.domain != self.left.domain or q.domain != self.right.domain:
            raise MismatchError("cocone legs do not match the pushout span")
        if p.codomain != q.codomain:
            raise MismatchError("cocone legs have different codomains")
        # left and right cover the apex, and they force one image on a cell
        # exactly when p∘f = q∘g
        on = pin_along([(self.left, p), (self.right, q)])
        if on is None:
            return None
        return PresheafMap(self.apex, p.codomain, on, _validated=True)


def pushout(f: PresheafMap, g: PresheafMap) -> PushoutResult:
    """Pushout of B <- A -> C, computed per sort by union-find on B + C.

    Apex cells are the lexicographically least members of their classes.
    """
    if f.domain != g.domain:
        raise MismatchError("pushout legs must share their domain")
    a = f.domain
    b, c = f.codomain, g.codomain
    cop, _ = coproduct_of(b.signature, [("l:", b), ("r:", c)])
    uf = {sort: UnionFind() for sort in cop.signature.sorts}
    for sort in cop.signature.sorts:
        for cell in cop.cells[sort]:
            uf[sort].add(cell)
        for cell in a.cells[sort]:
            uf[sort].union("l:" + f.on[sort][cell], "r:" + g.on[sort][cell])
    rep = {sort: {cell: uf[sort].find(cell) for cell in cop.cells[sort]} for sort in cop.signature.sorts}
    cells = {sort: tuple(sorted(set(rep[sort].values()))) for sort in cop.signature.sorts}
    ops = {}
    for name, s_sort, t_sort in cop.signature.ops:
        table = {}
        for cell in cop.cells[s_sort]:
            r = rep[s_sort][cell]
            value = rep[t_sort][cop.op(name, cell)]
            if table.setdefault(r, value) != value:
                raise ValidationError(f"pushout operator table for {name!r} is inconsistent")
            # inconsistency is impossible for congruence-generated quotients;
            # the check guards against malformed inputs
        ops[name] = table
    apex = PresheafObject(cop.signature, cells, ops, _validated=True)
    left = PresheafMap(
        b, apex,
        {sort: {cell: rep[sort]["l:" + cell] for cell in b.cells[sort]} for sort in b.signature.sorts},
        _validated=True,
    )
    right = PresheafMap(
        c, apex,
        {sort: {cell: rep[sort]["r:" + cell] for cell in c.cells[sort]} for sort in c.signature.sorts},
        _validated=True,
    )
    return PushoutResult(apex, left, right)


def pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def product(x: PresheafObject, y: PresheafObject):
    """Cartesian product with componentwise operators.

    Returns (object, first projection, second projection).
    """
    if x.signature.name != y.signature.name:
        raise MismatchError("product of objects in different bases")
    sig = x.signature
    cells, ops, pr1, pr2 = {}, {}, {}, {}
    grid = {}  # sort -> a -> b -> the label of (a, b)
    for sort in sig.sorts:
        rows = grid[sort] = {a: {b: pair_label(a, b) for b in y.cells[sort]} for a in x.cells[sort]}
        pr1[sort] = {label: a for a, row in rows.items() for label in row.values()}
        pr2[sort] = {label: b for row in rows.values() for b, label in row.items()}
        if len(pr1[sort]) != len(x.cells[sort]) * len(y.cells[sort]):
            raise ValidationError("product labels collide; rename input cells")
        cells[sort] = tuple(pr1[sort])
    for name, s_sort, t_sort in sig.ops:
        x_op, y_op, target = x.ops[name], y.ops[name], grid[t_sort]
        table = ops[name] = {}
        for a, row in grid[s_sort].items():
            t_row = target[x_op[a]]
            for b, label in row.items():
                table[label] = t_row[y_op[b]]
    obj = PresheafObject(sig, cells, ops, _validated=True)
    p1 = PresheafMap(obj, x, pr1, _validated=True)
    p2 = PresheafMap(obj, y, pr2, _validated=True)
    return obj, p1, p2


def product_map(f: PresheafMap, g: PresheafMap) -> PresheafMap:
    """The map f x g between the corresponding products."""
    dom = product(f.domain, g.domain)[0]
    cod = product(f.codomain, g.codomain)[0]
    on = {}
    for sort in dom.signature.sorts:
        on[sort] = {
            pair_label(a, b): pair_label(f.on[sort][a], g.on[sort][b])
            for a in f.domain.cells[sort]
            for b in g.domain.cells[sort]
        }
    return PresheafMap(dom, cod, on, _validated=True)


# ---------------------------------------------------------------------------
# Exhaustive hom enumeration
# ---------------------------------------------------------------------------
#
# A hom search assigns the domain's cells in canonical order.  Each operator
# constraint ``op(name, source) = target`` is checked at the later of its two
# cells, and its role there decides how that cell finds candidates:
#
# - forcing: the target comes later, so its image is ``cod.op(name, image of
#   source)`` -- one candidate (degeneracies of simplicial sets);
# - keyed: the source comes later, so its candidates are the codomain cells
#   whose images under those operators are the images already assigned --
#   graph edges by (src, tgt), n-simplices by their face tuple;
# - residual: an operator from a cell to itself, checked on each candidate;
# - watched: a keyed cell without residual checks is also looked up at the
#   last cell its key reads, when that is not the cell just before it and
#   its bucket does not hold every key, and a missing key rejects that
#   cell's value early (:func:`_triggers`).
#
# Buckets list codomain cells in sorted order, so the candidates of a cell
# are exactly the full scan's survivors of its keyed constraints, in the
# same order: hom-sets still come out in lexicographic order.

_FREE, _FORCED, _KEYED = 0, 1, 2


class _SearchPlan:
    """Compiled search order of one domain object.

    ``steps[i]`` is ``(sort, cell, mode, gen, own_checks, all_checks)``:
    ``gen`` is ``(name, source position)`` for a forced cell and ``(bucket
    key id, image getter)`` for a keyed one; checks are ``(name, s, t)``
    triples meaning ``cod.op(name, image at s) == image at t``.  An unpinned
    cell runs ``own_checks`` (the constraints its candidates do not already
    satisfy); a pinned cell runs ``all_checks``.  ``first_trigger`` is the
    least watched step (:func:`_triggers`), or the number of steps.
    """

    __slots__ = ("positions", "spans", "steps", "bucket_keys", "first_trigger", "triggers",
                 "attached")

    def __init__(self, dom: PresheafObject):
        sorts = dom.signature.sorts
        self.positions, self.spans, lo = {}, [], 0
        for sort in sorts:
            cells = dom.cells[sort]
            self.positions[sort] = dict(zip(cells, range(lo, lo + len(cells))))
            self.spans.append((sort, cells, lo, lo + len(cells)))
            lo += len(cells)
        forcing, keyed, residual = ([[] for _ in range(lo)] for _ in range(3))
        for name, s_sort, t_sort in dom.signature.ops:
            # positions are sort-major: an operator between two sorts forces
            # at every cell or is keyed at every cell
            table, sources, targets = dom.ops[name], self.positions[s_sort], self.positions[t_sort]
            if s_sort == t_sort:
                for cell, s in sources.items():
                    t = targets[table[cell]]
                    (residual if s == t else forcing if t > s else keyed)[max(s, t)].append((name, s, t))
            elif sorts.index(t_sort) > sorts.index(s_sort):
                for cell, s in sources.items():
                    t = targets[table[cell]]
                    forcing[t].append((name, s, t))
            else:
                for cell, s in sources.items():
                    keyed[s].append((name, s, targets[table[cell]]))
        self.bucket_keys, self.first_trigger, self.triggers, self.attached = [], lo, None, None
        key_ids = {}
        self.steps = []
        for sort, cells, lo, _ in self.spans:
            for i, cell in enumerate(cells, lo):
                all_checks = tuple(forcing[i] + keyed[i] + residual[i])
                if forcing[i]:
                    name, s, _ = forcing[i][0]
                    mode, gen, own = _FORCED, (name, s), all_checks[1:]
                elif keyed[i]:
                    names, _, reads = zip(*keyed[i])
                    if (sort, names) not in key_ids:
                        key_ids[sort, names] = len(self.bucket_keys)
                        self.bucket_keys.append((sort, names))
                    mode, gen = _KEYED, (key_ids[sort, names], itemgetter(*reads))
                    own = tuple(residual[i])
                    if i < self.first_trigger and not own and max(reads) < i - 1:
                        self.first_trigger = i
                else:
                    mode, gen, own = _FREE, None, tuple(residual[i])
                self.steps.append((sort, cell, mode, gen, own, all_checks))

    @staticmethod
    def of(dom: PresheafObject) -> "_SearchPlan":
        if dom._plan is None:
            dom._plan = _SearchPlan(dom)
        return dom._plan


def buckets(cod: PresheafObject, sort: str, names: tuple) -> dict:
    """Cells of ``sort`` grouped by their images under ``names``, cached on
    ``cod``; a single name keys by the bare image, like ``itemgetter``."""
    if cod._index is None:
        cod._index = {}
    found = cod._index.get((sort, names))
    if found is None:
        tables = [cod.ops[name] for name in names]
        grouped = {}
        for cell in cod.cells[sort]:
            images = tuple(table[cell] for table in tables)
            grouped.setdefault(images[0] if len(images) == 1 else images, []).append(cell)
        found = cod._index[(sort, names)] = {k: tuple(v) for k, v in grouped.items()}
    return found


def search_maps(
    dom: PresheafObject,
    cod: PresheafObject,
    pin=None,
    cell_filter=None,
    injective=False,
    guard: Optional[int] = None,
) -> Iterator[PresheafMap]:
    """All structure-preserving maps dom -> cod in lexicographic order.

    ``pin`` forces images for some cells (sort -> {cell: image}),
    ``cell_filter(sort, cell, value)`` prunes candidates, ``injective``
    restricts to cell-wise injective maps.  The guard (``DEFAULT_GUARD`` if
    None) counts candidate assignments examined -- a pinned or forced cell
    counts as one -- and raises :class:`GuardExceeded` loudly.
    """
    if dom.signature.name != cod.signature.name:
        raise MismatchError("hom enumeration between different bases")
    plan = _SearchPlan.of(dom)
    pinned = [None] * len(plan.steps)
    for sort, table in (pin or {}).items():
        positions = plan.positions.get(sort, {})
        targets = cod.cell_set(sort) if sort in cod.cells else frozenset()
        if not (positions.keys() >= table.keys() and targets.issuperset(table.values())):
            cell, value = next((c, v) for c, v in table.items()
                               if c not in positions or v not in targets)
            side = "domain" if cell not in positions else "codomain"
            raise ValidationError(
                f"pin sends {sort} {cell!r} to {value!r}: the {side} has no such {sort}")
        for cell, value in table.items():
            pinned[positions[cell]] = value
    budget = DEFAULT_GUARD if guard is None else guard
    return _walk(dom, cod, plan, pinned, cell_filter, injective, budget)


def _shape(obj: PresheafObject, cells) -> tuple:
    """The part of ``obj`` that the distinct ``(sort, cell)`` pairs generate
    under its operators, numbered in the order a walk along them from the
    pairs reaches its cells, so that the pairs are 0, 1, ...

    Returns ``(shape, order)``: the shape is the numbered cells' sorts, per
    operator its table of number pairs, and the pairs' numbers; ``order``
    lists the ``(sort, cell)`` pairs by number.  Parts of equal shape are
    isomorphic by their numbering (:func:`_shaped`)."""
    number, order = {}, []

    def visit(key):
        if key not in number:
            number[key] = len(order)
            order.append(key)
        return number[key]

    ops = obj.signature.ops
    gens = tuple(visit(key) for key in cells)
    tables = {name: [] for name, _, _ in ops}
    for sort, cell in order:
        for name, s_sort, t_sort in ops:
            if s_sort == sort:
                tables[name].append((number[(sort, cell)], visit((t_sort, obj.ops[name][cell]))))
    return (tuple(sort for sort, _ in order), tuple(map(tuple, tables.values())), gens), order


def _shaped(signature: Signature, shape) -> PresheafObject:
    """The object a shape of :func:`_shape` under ``signature.ops``
    describes, its cell number n named ``str(n)``."""
    sorts, tables, _ = shape
    cells = {}
    for n, sort in enumerate(sorts):
        cells.setdefault(sort, []).append(str(n))
    ops = {name: {str(a): str(b) for a, b in table}
           for (name, _, _), table in zip(signature.ops, tables)}
    return PresheafObject(signature, cells, ops, _validated=True)


def _split(i: PresheafMap) -> tuple:
    """``(cut, parts)`` for a mono i: K -> L, from one scan of the operators
    on L's cells outside the image of i.

    ``cut`` is the length of the shortest prefix of K's search order after
    which every cell of K is constrained only by prefix cells or by itself,
    and maps into L onto no face of a cell outside the image of i.  A
    diagonal L -> A reads a map K -> A only on the faces of the cells it
    chooses, so whether the map extends along i depends on the prefix
    alone.  Sets split at 0 and graphs after their last vertex that bounds
    an edge or whose image does.

    ``parts`` are the parts of L on which a map K -> A extends along i
    independently.  L's cells outside the image of i fall into connected
    components under the operators.  A part is a component's closure: the
    subobject of L on the component and every cell the operators reach
    from it, whose other cells, its boundary, are in the image of i.  A map
    extends along i iff, for every part, it extends onto the closure from
    the boundary.  Per part, in the order of the components' first cells,
    ``(shape, pins)``: the closure's :func:`_shape` from the component, and
    the positions in K's search order of the preimages of the boundary
    cells, in the order of their numbers.
    """
    l = i.codomain
    ops = l.signature.ops
    image = image_cells(i)
    free = [(sort, cell) for sort, cell in l.cell_items() if cell not in image[sort]]
    faces, uf = set(), UnionFind()
    for key in free:
        uf.add(key)
    for name, s_sort, t_sort in ops:
        for cell, target in l.ops[name].items():
            if cell not in image[s_sort]:
                faces.add((t_sort, target))
                if target not in image[t_sort]:
                    uf.union((s_sort, cell), (t_sort, target))
    plan = _SearchPlan.of(i.domain)
    cut = 0
    for at, (sort, cell, _, _, _, checks) in enumerate(plan.steps):
        if (sort, i.on[sort][cell]) in faces:
            cut = at + 1
        for _, s, t in checks:
            if s != t:
                cut = max(cut, min(s, t) + 1)
    components = {}
    for key in free:
        components.setdefault(uf.find(key), []).append(key)
    preimage = {sort: {v: c for c, v in i.on[sort].items()} for sort in l.signature.sorts}
    parts = []
    for members in components.values():
        shape, order = _shape(l, members)
        pins = tuple(plan.positions[sort][preimage[sort][cell]] for sort, cell in order[len(members):])
        parts.append((shape, pins))
    return cut, parts


def extension_classes(i: PresheafMap, cod: PresheafObject,
                      guard: Optional[int] = None) -> Iterator[tuple]:
    """The maps K -> cod, for a mono i: K -> L, grouped by their values on
    the prefix of K's search order that ends at the cut of :func:`_split`,
    so that all maps of a group extend along i or none does.

    Yields ``(count, failure)`` per prefix assignment that extends to a map
    K -> cod, in lexicographic order: the number of its maps and, unless
    they extend along i, the least of them (else None).  Every later cell
    reads only the prefix and itself, so a group's maps number the product
    of the later cells' candidate counts.  A group extends iff it extends
    onto each part of :func:`_split`.  That is decided by one pinned
    search on the part's closure per shape of the part and values on its
    boundary, remembered for the rest of the call.  The guard counts the
    prefix walk's candidates and, per prefix assignment that the walk's
    bucket lookups keep (see :func:`_walk`), every candidate of every later
    cell.  That count is unchanged by the walk counting a later cell only
    when a prefix cell it reads changes; a lookup counts nothing, and each
    search on a closure gets the guard afresh.
    """
    dom = i.domain
    if dom.signature.name != cod.signature.name:
        raise MismatchError("hom enumeration between different bases")
    plan = _SearchPlan.of(dom)
    budget = DEFAULT_GUARD if guard is None else guard
    cut, split = _split(i)
    searches, parts = {}, []
    for shape, pins in split:
        if shape not in searches:
            sorts, _, members = shape
            boundary = [(sorts[n], str(n)) for n in range(len(members), len(sorts))]
            searches[shape] = (_shaped(dom.signature, shape), boundary, {})
        parts.append((itemgetter(*pins) if pins else lambda vals: (), searches[shape]))
    for count, vals in _walk(dom, cod, plan, [None] * len(plan.steps), None, False, budget, cut):
        for read, (closure, boundary, memo) in parts:
            key = read(vals)
            extends = memo.get(key)
            if extends is None:
                pin = {}
                for (sort, cell), value in zip(boundary, (key,) if len(boundary) == 1 else key):
                    pin.setdefault(sort, {})[cell] = value
                lifts = search_maps(closure, cod, pin=pin, guard=guard)
                extends = memo[key] = next(lifts, None) is not None
            if not extends:
                yield count, _assemble(dom, cod, plan, vals)
                break
        else:
            yield count, None


def _assemble(dom, cod, plan, vals):
    on = {sort: dict(zip(cells, vals[lo:hi])) for sort, cells, lo, hi in plan.spans}
    return PresheafMap(dom, cod, on, _validated=True)


def _exceeded(budget):
    return GuardExceeded(f"hom search exceeded the guard of {budget} candidates")


def _triggers(plan):
    """Per step m, the ``(bucket key id, key getter)`` of each keyed step j
    without residual checks whose key reads m last, when m < j - 1.
    Built on the first walk that watches the plan and kept on it."""
    if plan.triggers is None:
        plan.triggers = [[] for _ in plan.steps]
        start = plan.first_trigger
        for j, (_, _, mode, gen, own, checks) in enumerate(plan.steps[start:], start):
            if mode == _KEYED and not own:
                m = max(t for _, _, t in checks)
                if m < j - 1:
                    plan.triggers[m].append(gen)
    return plan.triggers


# A counted walk groups its later steps (:func:`_attached`) once it has
# counted this many prefix assignments one step at a time: grouping costs
# about as much as a few such counts, which a walk with fewer would not repay
_COUNTS_BEFORE_GROUPING = 4


def _attached(plan, stop):
    """For a counted walk that stops at ``stop``, ``(groups, below)``:
    ``groups`` splits the later steps by the last prefix step they read
    through their forcing source, key or checks, in the order of that step,
    those that read none first, and ``below[m]`` is the number of groups
    that read only steps before m.  ``groups`` is None when all later steps
    read step ``stop - 1``, so that no count could be kept for another
    prefix assignment.  Built on the first counted walk of the plan that
    groups and kept on the plan."""
    if plan.attached is None:
        plan.attached = {}
    found = plan.attached.get(stop)
    if found is None:
        groups = {}
        for j in range(stop, len(plan.steps)):
            last = -1
            for _, s, t in plan.steps[j][5]:
                # a later step's check pairs it with the prefix step s + t - j
                if s != t and s + t - j > last:
                    last = s + t - j
            groups.setdefault(last, []).append(j)
        reads = sorted(groups)
        if reads in ([], [stop - 1]):
            found = None, None
        else:
            below, g = [], 0
            for m in range(stop):
                while g < len(reads) and reads[g] < m:
                    g += 1
                below.append(g)
            found = [groups[m] for m in reads], below
        plan.attached[stop] = found
    return found


def _walk(dom, cod, plan, pinned, cell_filter, injective, budget, stop=None):
    """Depth-first walk of the search plan, yielding every map in order.

    With ``stop`` (and no pin, filter or injectivity) the walk ends at that
    step: per prefix assignment it counts the admitted candidates of each
    later step, which must read only the prefix and themselves, and yields
    ``(product, values)`` unless the product is 0.  The first
    ``_COUNTS_BEFORE_GROUPING`` prefix assignments count their later steps
    one by one, each adding all its candidates to the guard's count before
    its checks filter them, up to the first that admits none.  After them
    a later step is counted once per value of the last prefix step it reads
    (:func:`_attached`): per prefix step that later steps read last, the
    walk keeps the candidates and the product of the later steps read up
    to it, as they stand for its current value, so a prefix assignment
    recounts only the later steps of the prefix steps that changed; one
    that changed them all is counted one by one as above.  One whose
    product is nonzero then adds all its later candidates to the guard's
    count at once, and one whose product is 0 counts its later steps one
    by one.  So the guard's count is unchanged from a count of every later
    step per prefix assignment, and the guard trips on the prefix
    assignment where that count would.  The values hold each later step at
    its least admitted candidate.  The value vector is the walk's own and
    changes as the walk goes on.

    Without pin, filter or injectivity, a keyed step of :func:`_triggers`,
    of the walk or after ``stop``, has its key looked up as soon as the
    step it reads last is assigned, and a missing key rejects that
    assignment: no completion of it has a map, or a nonzero product.  A
    later step reads only the prefix, so :func:`_triggers` lists it at a
    prefix step unless it directly follows the step it reads last; then it
    is the step at ``stop``, whose empty bucket the count finds at once.  A
    step is not looked up when its bucket is total, holding a key for every
    choice of the codomain's cells that it reads: that lookup could reject
    nothing.  The lookup draws no candidate, so the guard does not count
    it, and a walk can finish where one without lookups would exceed the
    guard.
    """
    steps = plan.steps
    n = len(steps) if stop is None else stop
    cod_ops, cod_cells = cod.ops, cod.cells
    indexes = [None] * len(plan.bucket_keys)

    def bucket(kid):
        if indexes[kid] is None:
            indexes[kid] = buckets(cod, *plan.bucket_keys[kid])
        return indexes[kid]

    watch = None
    if (cell_filter is None and not injective and plan.first_trigger < len(steps)
            and pinned.count(None) == len(pinned)):
        size = {name: len(cod_cells[t_sort]) for name, _, t_sort in dom.signature.ops}
        watch = [[(bucket(kid), getter) for kid, getter in triggers
                  if len(bucket(kid)) < prod(size[name] for name in plan.bucket_keys[kid][1])]
                 for triggers in _triggers(plan)[:n]]
        if not any(watch):
            watch = None
    used = {sort: set() for sort in dom.signature.sorts}
    vals = [None] * len(steps)
    pending = [None] * n
    count = 0

    def candidates(i):
        if pinned[i] is not None:
            return (pinned[i],), steps[i][5]
        sort, _, mode, gen, own, _ = steps[i]
        if mode == _FORCED:
            name, s = gen
            return (cod_ops[name][vals[s]],), own
        if mode == _KEYED:
            kid, getter = gen
            return bucket(kid).get(getter(vals), ()), own
        return cod_cells[sort], own

    def tally(runs, drawn, product, limit, record=None):
        # adds the candidates of each run's later steps to ``drawn`` and
        # multiplies their admitted counts into ``product``, leaving each
        # step at its least, up to the first step that admits none; appends
        # both to ``record`` after each run.  ``drawn`` is passed in and
        # handed back rather than shared, so that the guard's count stays a
        # fast local of the walk's per-candidate loop
        for run in runs:
            for j in run:
                sort, _, mode, gen, checks, _ = steps[j]
                if mode == _KEYED:
                    kid, getter = gen
                    cands = (indexes[kid] or bucket(kid)).get(getter(vals), ())
                elif mode == _FORCED:
                    name, s = gen
                    cands = (cod_ops[name][vals[s]],)
                else:
                    cands = cod_cells[sort]
                drawn += len(cands)
                if drawn > limit:
                    raise _exceeded(budget)
                if checks:
                    admitted = []
                    for value in cands:
                        vals[j] = value
                        for name, s, t in checks:
                            if cod_ops[name][vals[s]] != vals[t]:
                                break
                        else:
                            admitted.append(value)
                    cands = admitted
                if not cands:
                    product = 0
                    break
                vals[j] = cands[0]
                product *= len(cands)
            if record is not None:
                record.append((drawn, product))
            if not product:
                break
        return drawn, product

    if stop is not None:
        later, groups, counted = (range(n, len(steps)),), None, 0
    if n == 0:
        if stop is None:
            yield _assemble(dom, cod, plan, vals)
        else:
            product = tally(later, count, 1, budget)[1]
            if product:
                yield product, vals
        return
    # the least level assigned since the last prefix assignment was counted
    low = n - 1
    i = 0
    cands, checks = candidates(0)
    it = iter(cands)
    while True:
        sort, cell = steps[i][0], steps[i][1]
        for value in it:
            count += 1
            if count > budget:
                raise _exceeded(budget)
            if injective and value in used[sort]:
                continue
            if cell_filter is not None and not cell_filter(sort, cell, value):
                continue
            vals[i] = value
            for name, s, t in checks:
                if cod_ops[name][vals[s]] != vals[t]:
                    break
            else:
                if watch is None:
                    break
                for keys, getter in watch[i]:
                    if getter(vals) not in keys:
                        break
                else:
                    break
        else:
            # level i is exhausted: resume level i - 1 after its current value
            vals[i] = None
            i -= 1
            if i < 0:
                return
            if i < low:
                low = i
            it, checks = pending[i]
            if injective:
                used[steps[i][0]].discard(vals[i])
            continue
        if i + 1 == n:
            if stop is None:
                yield _assemble(dom, cod, plan, vals)
                continue
            product = 0
            if groups is not None:
                # keep the tallies of the groups whose prefix steps stand.
                # When none does, count one by one, which costs less than
                # counting by groups and keeping the tallies, and count the
                # groups afresh at the next assignment that keeps some
                kept, low = below[low] + 1, i
                del tallies[kept:]
                if kept > 1:
                    drawn, product = tallies[-1]
                    if product and len(tallies) <= len(groups):
                        drawn, product = tally(islice(groups, len(tallies) - 1, None), drawn,
                                               product, inf, tallies)
                    if product:
                        count += drawn
                        if count > budget:
                            raise _exceeded(budget)
            if not product:
                count, product = tally(later, count, 1, budget)
                if groups is None:
                    counted += 1
                    if counted == _COUNTS_BEFORE_GROUPING:
                        # tallies[g] is (candidates, product) over the later
                        # steps of the first g groups, as they stand for the
                        # current prefix
                        groups, below = _attached(plan, n)
                        tallies = [(0, 1)]
            if product:
                yield product, vals
            continue
        if injective:
            used[sort].add(value)
        pending[i] = (it, checks)
        i += 1
        cands, checks = candidates(i)
        it = iter(cands)


def pin_along(legs) -> Optional[dict]:
    """The assignment that the legs force on the common codomain of their
    inclusions: a ``pin`` for a search from it or, when the inclusions
    cover it, the table of the copairing or mediating map they determine.

    Each leg ``(incl, f)`` forces the image of ``incl(c)``, for every cell c
    of the domain of incl and f, to be ``f(c)``; a leg ``(i, u.then(p))``
    pins the bottoms of the squares over p with top u.  Returns None when
    two cells force different images on one cell.
    """
    pin = {sort: {} for sort in legs[0][0].codomain.signature.sorts} if legs else {}
    for incl, f in legs:
        for sort, forced in pin.items():
            image = f.on[sort]
            for cell, target in incl.on[sort].items():
                if forced.setdefault(target, image[cell]) != image[cell]:
                    return None
    return pin


def extend_along(legs, cod: PresheafObject, cell_filter=None, guard=None) -> Optional[PresheafMap]:
    """The lexicographically least map to ``cod`` from the common codomain
    of the legs' inclusions that restricts to each leg's map along its
    inclusion (see :func:`pin_along`) and passes ``cell_filter``, or None,
    also when the legs conflict.  A lift against A -> 1 is one leg's."""
    pin = pin_along(legs)
    if pin is None:
        return None
    return next(search_maps(legs[0][0].codomain, cod, pin=pin, cell_filter=cell_filter,
                            guard=guard), None)


def refine_colors(obj: PresheafObject, marked):
    """Stable colors under structure-aware refinement (1-WL style).

    Isomorphic cells get equal colors, so color histograms are a sound
    necessary condition for isomorphism and colors prune iso searches.
    The colors are seeded by sort and by membership in ``marked`` (sort ->
    set of cells); each round orders the new colors by the old ones first.
    """
    colors = {(sort, cell): (sort, cell in marked[sort]) for sort, cell in obj.cell_items()}
    canon = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    colors = {k: canon[v] for k, v in colors.items()}
    while True:
        contributions = {key: [] for key in colors}
        for name, s_sort, t_sort in obj.signature.ops:
            for cell in obj.cells[s_sort]:
                target = obj.op(name, cell)
                contributions[(s_sort, cell)].append((name, "out", colors[(t_sort, target)]))
                contributions[(t_sort, target)].append((name, "in", colors[(s_sort, cell)]))
        combined = {
            key: (colors[key], tuple(sorted(contributions[key]))) for key in colors
        }
        canon = {c: i for i, c in enumerate(sorted(set(combined.values())))}
        refined = {key: canon[combined[key]] for key in combined}
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _color_histogram(colors):
    out = {}
    for (sort, _), color in colors.items():
        out[(sort, color)] = out.get((sort, color), 0) + 1
    return out


def arrows_isomorphic(m1: PresheafMap, m2: PresheafMap, guard=None) -> bool:
    """Whether two monos are isomorphic in the arrow category: whether an
    iso psi of their codomains carries the image of m1 onto that of m2
    (phi is then psi restricted to the images).

    One search for psi, pruned by the codomains' colors seeded by image
    membership.  Equal cell counts of monos give both seedings the same
    colors, and refinement orders colors by their seeds, so with equal
    histograms a psi that keeps colors carries image onto image.  Arrows
    of unequal cell counts are not isomorphic; equal ones that are not
    both mono are refused with :class:`ValidationError`.
    """
    if m1.domain.signature.name != m2.domain.signature.name:
        return False
    for sort in m1.domain.signature.sorts:
        if len(m1.domain.cells[sort]) != len(m2.domain.cells[sort]):
            return False
        if len(m1.codomain.cells[sort]) != len(m2.codomain.cells[sort]):
            return False
    if not (is_mono(m1) and is_mono(m2)):
        raise ValidationError("arrows_isomorphic compares monomorphisms only")
    colors1 = refine_colors(m1.codomain, image_cells(m1))
    colors2 = refine_colors(m2.codomain, image_cells(m2))
    if _color_histogram(colors1) != _color_histogram(colors2):
        return False

    def same_color(sort, cell, value):
        return colors1[(sort, cell)] == colors2[(sort, value)]

    psi = search_maps(m1.codomain, m2.codomain, injective=True, cell_filter=same_color,
                      guard=guard)
    return next(psi, None) is not None
