"""Truncated simplicial sets: standard shapes, nerves, horns, and classes.

Everything lives below an explicit cap dimension and every claim is
cap-relative.  Cells are labelled deterministically: standard simplices by
nondecreasing digit strings, nerves by chains of morphism labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .core import (
    CapError,
    PresheafMap,
    PresheafObject,
    Signature,
    ValidationError,
    buckets,
    search_maps,
    subobject_from_cells,
)
from .cylinder import CylinderData
from .homotopy import HomClasses, homotopy_classes
from .monads import FiniteCategory


def _face_ops(top: int) -> list:
    return [(f"d{n}_{i}", str(n), str(n - 1)) for n in range(1, top + 1) for i in range(n + 1)]


def sset_signature(cap: int) -> Signature:
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    sorts = tuple(str(n) for n in range(cap + 1))
    ops = _face_ops(cap)
    for n in range(cap):
        for i in range(n + 1):
            ops.append((f"s{n}_{i}", str(n), str(n + 1)))
    return Signature(f"sset@{cap}", sorts, tuple(ops))


def sset_cap(obj: PresheafObject) -> int:
    return len(obj.signature.sorts) - 1


def _check_simplicial_identities(obj: PresheafObject, cap: int):
    """Every simplicial identity on every cell below the cap.

    Each identity is compared across all cells of its dimension at once, as
    two image lists.  A failure names the first cell at which any identity
    of its family (d∘d, then s∘s, then d∘s) fails, dimensions in order and
    cells in their stored order, and at that cell the first identity in the
    order (j, then i) of the loops below.
    """
    d = {(n, i): obj.ops[f"d{n}_{i}"].__getitem__ for n in range(1, cap + 1) for i in range(n + 1)}
    s = {(n, i): obj.ops[f"s{n}_{i}"].__getitem__ for n in range(cap) for i in range(n + 1)}

    def first_failure(n, cells, identities):
        worst = None  # (cell position, identity name)
        for name, lhs, rhs in identities:
            if lhs != rhs:
                at = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                if worst is None or at < worst[0]:
                    worst = (at, name)
        if worst is not None:
            raise ValidationError(
                f"simplicial identity {worst[1]} fails at {cells[worst[0]]!r} in dimension {n}"
            )

    for n in range(2, cap + 1):
        cells = list(obj.cells[str(n)])
        faces = [list(map(d[n, i], cells)) for i in range(n + 1)]
        first_failure(n, cells, (
            (f"d{i} d{j}", list(map(d[n - 1, i], faces[j])), list(map(d[n - 1, j - 1], faces[i])))
            for j in range(n + 1) for i in range(j)
        ))
    for n in range(cap - 1):
        cells = list(obj.cells[str(n)])
        degens = [list(map(s[n, i], cells)) for i in range(n + 1)]
        first_failure(n, cells, (
            (f"s{i} s{j}", list(map(s[n + 1, i], degens[j])), list(map(s[n + 1, j + 1], degens[i])))
            for j in range(n + 1) for i in range(j + 1)
        ))
    for n in range(cap):
        cells = list(obj.cells[str(n)])
        faces = [list(map(d[n, i], cells)) for i in range(n + 1)] if n else []
        degens = [list(map(s[n, j], cells)) for j in range(n + 1)]

        def expected(i, j):
            if i == j or i == j + 1:
                return cells
            if i < j:
                return list(map(s[n - 1, j - 1], faces[i]))
            return list(map(s[n - 1, j], faces[i - 1]))

        first_failure(n, cells, (
            (f"d{i} s{j}", list(map(d[n + 1, i], degens[j])), expected(i, j))
            for j in range(n + 1) for i in range(n + 2)
        ))


def trunc_sset(cap: int, cells, faces, degeneracies) -> PresheafObject:
    """A truncated simplicial set from per-dimension cell lists and tables.

    ``faces[(n, i)]`` and ``degeneracies[(n, i)]`` are cell dictionaries.
    Every simplicial identity is checked on every object at construction,
    program-built ones (Δⁿ, nerves) included.
    """
    sig = sset_signature(cap)
    ops = {}
    for n in range(1, cap + 1):
        for i in range(n + 1):
            ops[f"d{n}_{i}"] = dict(faces.get((n, i), {}))
    for n in range(cap):
        for i in range(n + 1):
            ops[f"s{n}_{i}"] = dict(degeneracies.get((n, i), {}))
    obj = PresheafObject(sig, {str(n): tuple(cells.get(n, ())) for n in range(cap + 1)}, ops)
    _check_simplicial_identities(obj, cap)
    return obj


# ---------------------------------------------------------------------------
# Standard shapes
# ---------------------------------------------------------------------------

def _monotone_strings(n: int, length: int):
    return (
        "".join(str(v) for v in word)
        for word in itertools.combinations_with_replacement(range(n + 1), length)
    )


def delta(n: int, cap: int) -> PresheafObject:
    """The standard n-simplex truncated at the cap; cells are monotone maps
    encoded as nondecreasing digit strings."""
    if n > 9:
        raise ValidationError("simplex dimension above 9 would break digit labels")
    if n < 0 or cap < 0:
        raise ValidationError("dimensions must be nonnegative")
    cells, faces, degens = {}, {}, {}
    for m in range(cap + 1):
        cells[m] = tuple(_monotone_strings(n, m + 1))
    for m in range(1, cap + 1):
        for i in range(m + 1):
            faces[(m, i)] = {c: c[:i] + c[i + 1:] for c in cells[m]}
    for m in range(cap):
        for i in range(m + 1):
            degens[(m, i)] = {c: c[:i] + c[i] + c[i:] for c in cells[m]}
    return trunc_sset(cap, cells, faces, degens)


def _face_complex(n: int, cap: int, k: Optional[int] = None) -> PresheafMap:
    """The inclusion into Δⁿ of its simplices that miss some vertex other
    than k: ∂Δⁿ without k, Λⁿₖ with it."""
    amb = delta(n, cap)
    others = {str(v) for v in range(n + 1) if v != k}
    keep = {s: {c for c in amb.cells[s] if not others <= set(c)} for s in amb.signature.sorts}
    return subobject_from_cells(amb, keep)[1]


def boundary_inclusion(n: int, cap: int) -> PresheafMap:
    """The inclusion of the boundary of the n-simplex."""
    return _face_complex(n, cap)


def horn_inclusion(n: int, k: int, cap: int) -> PresheafMap:
    """The inclusion of the k-th horn of the n-simplex."""
    if not (0 <= k <= n):
        raise ValidationError("horn index out of range")
    return _face_complex(n, cap, k)


# ---------------------------------------------------------------------------
# Nerves
# ---------------------------------------------------------------------------

def _chain_label(chain) -> str:
    return "|".join(chain)


def nerve(category: FiniteCategory, cap: int) -> PresheafObject:
    """The nerve of a finite category, truncated at the cap.

    n-cells are composable chains of n morphisms (identities included); the
    inner faces compose, the outer faces drop, degeneracies insert
    identities.
    """
    cells = {0: tuple(category.objects)}
    decode = {0: {obj: (obj, obj, ()) for obj in category.objects}}
    chains = [(category.src[g], category.tgt[g], (g,)) for g in category.morphisms]
    for m in range(1, cap + 1):
        if m > 1:
            chains = [
                (src, category.tgt[g], chain + (g,))
                for src, tgt, chain in chains
                for g in category.morphisms
                if category.src[g] == tgt
            ]
        labels = tuple(_chain_label(chain) for _, _, chain in chains)
        if len(set(labels)) != len(labels):
            raise ValidationError("nerve labels collide; rename the morphisms")
        cells[m] = labels
        decode[m] = dict(zip(labels, chains))
    faces, degens = {}, {}
    for m in range(1, cap + 1):
        for i in range(m + 1):
            table = {}
            for label, (src, tgt, chain) in decode[m].items():
                if m == 1:
                    table[label] = category.tgt[chain[0]] if i == 0 else category.src[chain[0]]
                    continue
                if i == 0:
                    new = chain[1:]
                elif i == m:
                    new = chain[:-1]
                else:
                    new = chain[: i - 1] + (category.then(chain[i - 1], chain[i]),) + chain[i + 1:]
                table[label] = _chain_label(new)
            faces[(m, i)] = table
    for m in range(cap):
        for i in range(m + 1):
            table = {}
            for label, (src, tgt, chain) in decode[m].items():
                if m == 0:
                    table[label] = _chain_label((category.identity(label),))
                    continue
                if i == 0:
                    anchor = category.src[chain[0]]
                else:
                    anchor = category.tgt[chain[i - 1]]
                new = chain[:i] + (category.identity(anchor),) + chain[i:]
                table[label] = _chain_label(new)
            degens[(m, i)] = table
    return trunc_sset(cap, cells, faces, degens)


def groupoid_interval() -> FiniteCategory:
    """Two objects with a single inverse pair of morphisms between them."""
    return FiniteCategory(
        ["bot", "top"],
        [("ib", "bot", "bot"), ("it", "top", "top"),
         ("u", "bot", "top"), ("d", "top", "bot")],
        {"bot": "ib", "top": "it"},
        {
            "ib": {"ib": "ib", "u": "u"},
            "it": {"it": "it", "d": "d"},
            "u": {"it": "u", "d": "ib"},
            "d": {"ib": "d", "u": "it"},
        },
        name="groupoid_interval",
    )


# ---------------------------------------------------------------------------
# Cylinder instances
# ---------------------------------------------------------------------------

def delta1_instance(cap: int) -> CylinderData:
    """Simplicial sets with product by the 1-simplex, truncated."""
    interval = delta(1, cap)
    targets0 = {str(m): "0" * (m + 1) for m in range(cap + 1)}
    targets1 = {str(m): "1" * (m + 1) for m in range(cap + 1)}
    return CylinderData("sset-delta1", f"sset@{cap}", interval, (targets0, targets1))


def jinf_instance(cap: int) -> CylinderData:
    """Simplicial sets with product by the truncated classifying interval:
    the nerve of the groupoid interval."""
    interval = nerve(groupoid_interval(), cap)
    targets0 = {"0": "bot"}
    targets1 = {"0": "top"}
    for m in range(1, cap + 1):
        targets0[str(m)] = _chain_label(("ib",) * m)
        targets1[str(m)] = _chain_label(("it",) * m)
    return CylinderData("sset-jinf", f"sset@{cap}", interval, (targets0, targets1))


# ---------------------------------------------------------------------------
# Horn filling and class computations
# ---------------------------------------------------------------------------

def _face_signature(top: int) -> Signature:
    """Dimensions 0..top with their face maps only."""
    return Signature(f"faces@{top}", tuple(str(m) for m in range(top + 1)), tuple(_face_ops(top)))


def _nondegenerate_horn(n: int, k: int) -> PresheafObject:
    """The nondegenerate simplices of Λⁿₖ with their faces: the strictly
    increasing digit strings of {0..n} below dimension max(n − 1, 0),
    except those that contain every vertex but k; dᵢ drops the i-th digit."""
    if not (0 <= k <= n):
        raise ValidationError("horn index out of range")
    if n > 9:
        raise ValidationError("simplex dimension above 9 would break digit labels")
    top = max(n - 1, 0)
    others = {str(v) for v in range(n + 1) if v != k}
    cells = {
        str(m): [c for c in map("".join, itertools.combinations(
            "0123456789"[:n + 1], m + 1)) if not others <= set(c)]
        for m in range(top + 1)
    }
    ops = {
        f"d{m}_{i}": {c: c[:i] + c[i + 1:] for c in cells[str(m)]}
        for m in range(1, top + 1) for i in range(m + 1)
    }
    return PresheafObject(_face_signature(top), cells, ops)


@dataclass(frozen=True)
class HornReport:
    """Per horn instance, in the search order of its tops, the pair (top,
    filler).  A top is a map from the nondegenerate simplices of Λⁿₖ into
    X that commutes with the faces; by Eilenberg–Zilber it is the horn map
    Λⁿₖ -> X.  The filler is the n-simplex of X that the least extension to
    Δⁿ sends the top cell to, or None; by Yoneda that simplex is the map.
    ``first_failure`` is the first top without a filler as the whole map
    Λⁿₖ -> X up to the cap, or None."""

    n: int
    k: int
    instances: tuple  # (top, n-simplex label or None)
    first_failure: Optional[PresheafMap]
    caveat: str

    @property
    def all_fill(self) -> bool:
        return all(filler is not None for _, filler in self.instances)


def horn_filler(x: PresheafObject, n: int, k: int, guard=None) -> HornReport:
    """Filling verdicts for every horn instance, enumerated exhaustively.

    The tops are walked from the nondegenerate simplices of Λⁿₖ, all below
    dimension n, into X's face tables: every higher cell of the horn is a
    degeneracy and forced, so this walk meets the horn maps in the order of
    the walk over the whole horn.  A top fills iff X has an n-simplex whose
    faces dᵢ, i ≠ k, are the top's values on those faces of Δⁿ; X's
    n-simplices are grouped by these faces once, in core's face index.  In
    Δⁿ's search order the free cells are dₖ and then the top cell, and
    every higher cell is forced, so the least extension takes the bucket
    member whose dₖ face comes first in X, ties broken by X's cell order.

    Only the first failing top is rebuilt as a map from the horn up to the
    cap, by one search pinned to it.  The guard bounds the walk over the
    tops and, on its own, that rebuild, which counts one candidate per cell.
    """
    cap = sset_cap(x)
    if n > cap:
        raise CapError(f"horn dimension {n} exceeds the object's cap {cap}")
    horn = _nondegenerate_horn(n, k)
    simplex = "".join(str(v) for v in range(n + 1))
    faces = [i for i in range(n + 1) if i != k]
    by_faces = buckets(x, str(n), tuple(f"d{n}_{i}" for i in faces))
    if n:
        rank = {cell: r for r, cell in enumerate(x.cells[str(n - 1)])}
        missing = x.ops[f"d{n}_{k}"]
        fill = {key: min(cells, key=lambda c: rank[missing[c]]) for key, cells in by_faces.items()}
        on_faces = itemgetter(*(simplex[:i] + simplex[i + 1:] for i in faces))
        sort = str(n - 1)
    else:
        fill = {key: cells[0] for key, cells in by_faces.items()}
    x_faces = PresheafObject(horn.signature, x.cells, x.ops, _validated=True)
    instances = tuple(
        (top, fill.get(on_faces(top.on[sort]) if n else ()))
        for top in search_maps(horn, x_faces, guard=guard)
    )
    failing = next((top for top, filler in instances if filler is None), None)
    if failing is not None:
        failing = next(search_maps(horn_inclusion(n, k, cap).domain, x, pin=failing.on, guard=guard))
    return HornReport(n, k, instances, failing, f"cells above dimension {cap} are not represented")


def tau0_classes(x: PresheafObject, a: PresheafObject, guard=None) -> HomClasses:
    """Hom(X, A) modulo the relation induced by the classifying interval
    along the two endpoint inclusions at X's cap; cap-relative by construction."""
    cap = sset_cap(x)
    if sset_cap(a) != cap:
        raise CapError("tau0 needs both objects at the stated cap")
    instance = jinf_instance(cap)
    return homotopy_classes(
        instance, x, a, guard=guard,
        caveat=f"relative to the dimension cap {cap}",
    )
