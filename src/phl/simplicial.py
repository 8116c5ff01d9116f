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

    All identities are compared at once, as one list of left-hand images
    against one of right-hand images.  The lists run in groups, a family
    (d∘d, then s∘s, then d∘s) at one dimension each, in that order and
    dimensions in order, and a group holds one run over the dimension's
    cells per identity.  A failure names the first group that differs, its
    first cell, in stored order, at which any identity differs, and at
    that cell the first identity in the order (j, then i) of the loops.
    """
    ops, cells = obj.ops, [obj.cells[str(n)] for n in range(cap + 1)]
    d = [[ops[f"d{n}_{i}"].__getitem__ for i in range(n + 1)] if n else [] for n in range(cap + 1)]
    s = [[ops[f"s{n}_{i}"].__getitem__ for i in range(n + 1)] for n in range(cap)]
    faces = [[list(map(f, cells[n])) for f in d[n]] for n in range(cap + 1)]
    degens = [[list(map(f, cells[n])) for f in s[n]] for n in range(cap)]
    groups, lhs, rhs = [], [], []  # groups: (identity form, n, [(i, j)])
    for n in range(2, cap + 1):
        pairs = [(i, j) for j in range(n + 1) for i in range(j)]
        for i, j in pairs:
            lhs += map(d[n - 1][i], faces[n][j])
            rhs += map(d[n - 1][j - 1], faces[n][i])
        groups.append(("d{} d{}", n, pairs))
    for n in range(cap - 1):
        pairs = [(i, j) for j in range(n + 1) for i in range(j + 1)]
        for i, j in pairs:
            lhs += map(s[n + 1][i], degens[n][j])
            rhs += map(s[n + 1][j + 1], degens[n][i])
        groups.append(("s{} s{}", n, pairs))
    for n in range(cap):
        pairs = [(i, j) for j in range(n + 1) for i in range(n + 2)]
        for i, j in pairs:
            lhs += map(d[n + 1][i], degens[n][j])
            rhs += (cells[n] if i == j or i == j + 1 else map(s[n - 1][j - 1], faces[n][i]) if i < j
                    else map(s[n - 1][j], faces[n][i - 1]))
        groups.append(("d{} s{}", n, pairs))
    if lhs == rhs:
        return
    at = 0
    for form, n, pairs in groups:
        size = len(cells[n])
        end = at + size * len(pairs)
        if lhs[at:end] != rhs[at:end]:
            for k, cell in enumerate(cells[n]):
                for r, (i, j) in enumerate(pairs):
                    if lhs[at + r * size + k] != rhs[at + r * size + k]:
                        raise ValidationError(f"simplicial identity {form.format(i, j)} fails "
                                              f"at {cell!r} in dimension {n}")
        at = end


def trunc_sset(cap: int, cells, faces, degeneracies) -> PresheafObject:
    """A truncated simplicial set from per-dimension cell lists and tables.

    ``faces[(n, i)]`` and ``degeneracies[(n, i)]`` are cell dictionaries.
    Every simplicial identity is checked on every object at construction,
    program-built ones (Δⁿ, nerves) included.
    """
    sig = sset_signature(cap)
    # the tables are handed over uncopied: the object copies them
    ops = {}
    for n in range(1, cap + 1):
        for i in range(n + 1):
            ops[f"d{n}_{i}"] = faces.get((n, i), {})
    for n in range(cap):
        for i in range(n + 1):
            ops[f"s{n}_{i}"] = degeneracies.get((n, i), {})
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
    identities.  Each table is built in one pass over its dimension's chains.
    """
    src, tgt, then, identity = category.src, category.tgt, category.then, category.identity
    join = "|".join  # _chain_label, called without a Python frame per chain
    cells, chains = {0: tuple(category.objects)}, {1: [(g,) for g in category.morphisms]}
    for m in range(1, cap + 1):
        if m > 1:
            chains[m] = [c + (g,) for c in chains[m - 1] for g in category.morphisms
                         if src[g] == tgt[c[-1]]]
        cells[m] = [join(c) for c in chains[m]]
        if len(set(cells[m])) != len(cells[m]):
            raise ValidationError("nerve labels collide; rename the morphisms")
    faces = {(1, 0): dict(zip(category.morphisms, map(tgt.__getitem__, category.morphisms))),
             (1, 1): dict(zip(category.morphisms, map(src.__getitem__, category.morphisms)))}
    for m in range(2, cap + 1):
        faces[m, 0] = dict(zip(cells[m], [join(c[1:]) for c in chains[m]]))
        faces[m, m] = dict(zip(cells[m], [join(c[:-1]) for c in chains[m]]))
        for i in range(1, m):
            faces[m, i] = dict(zip(cells[m], [
                join(c[:i - 1] + (then(c[i - 1], c[i]),) + c[i + 1:]) for c in chains[m]]))
    degens = {(0, 0): {obj: identity(obj) for obj in cells[0]}}
    for m in range(1, cap):
        for i in range(m + 1):
            degens[m, i] = dict(zip(cells[m], [
                join(c[:i] + (identity(tgt[c[i - 1]] if i else src[c[0]]),) + c[i:])
                for c in chains[m]]))
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
