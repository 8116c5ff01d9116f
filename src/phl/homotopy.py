"""The homotopy relation, its generated equivalence, and class computations.

A one-step homotopy from f to g is a map theta off the cylinder restricting
to f and g at the endpoints.  The closure is always computed by union-find;
that one step already suffices over fibrant targets is something the test
suite checks, never an assumption made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    MismatchError, PresheafMap, PresheafObject, _UnionFind, extend_along, search_maps,
)
from .cylinder import Cylinder, CylinderData


def find_homotopy(instance: CylinderData, f: PresheafMap, g: PresheafMap,
                  guard=None) -> Optional[PresheafMap]:
    """Lexicographically least one-step homotopy from f to g: a map
    theta : X⊗I -> Y with theta∘d0 = f and theta∘d1 = g, or None."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise MismatchError("homotopy endpoints must be parallel maps")
    return _homotopy_off(instance.cylinder(f.domain), f, g, guard)


def _homotopy_off(cyl: Cylinder, f: PresheafMap, g: PresheafMap, guard) -> Optional[PresheafMap]:
    """The least homotopy from f to g off a cylinder built on their domain."""
    return extend_along([(cyl.d0, f), (cyl.d1, g)], f.codomain, guard=guard)


@dataclass(frozen=True)
class HomClasses:
    """Hom(X, Y) partitioned by the equivalence generated by one-step homotopy.

    ``homs`` is the full hom list in enumeration order; classes are tuples of
    indices into it, ordered by least member; the representative of a class
    is its lexicographically least map.
    """

    source: PresheafObject
    target: PresheafObject
    homs: tuple
    classes: tuple
    caveat: Optional[str] = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def representatives(self):
        return tuple(self.homs[cls[0]] for cls in self.classes)

    def class_of(self, f: PresheafMap) -> int:
        idx = self.homs.index(f)
        for c, members in enumerate(self.classes):
            if idx in members:
                return c
        raise ValueError("map escaped its own partition")


def homotopy_classes(instance: CylinderData, x: PresheafObject, y: PresheafObject,
                     guard=None, caveat=None) -> HomClasses:
    """Classes of Hom(X, Y) under the generated equivalence relation.

    One-step homotopies are searched exhaustively in both directions; the
    zig-zag closure is the union-find of those edges.  One cylinder X⊗I,
    with its compiled search plan, serves every pair.
    """
    homs = tuple(search_maps(x, y, guard=guard))
    cyl = instance.cylinder(x) if len(homs) > 1 else None
    linked = _UnionFind()
    for i in range(len(homs)):
        linked.add(i)
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            if linked.find(i) == linked.find(j):
                continue
            if (_homotopy_off(cyl, homs[i], homs[j], guard) is not None
                    or _homotopy_off(cyl, homs[j], homs[i], guard) is not None):
                linked.union(i, j)
    buckets = {}
    for i in range(len(homs)):
        buckets.setdefault(linked.find(i), []).append(i)
    classes = tuple(tuple(buckets[root]) for root in sorted(buckets))
    return HomClasses(x, y, homs, classes, caveat=caveat)


@dataclass(frozen=True)
class InducedClassMap:
    """Precomposition [Y,A] -> [X,A] along f with its bijectivity verdict."""

    f: PresheafMap
    source_classes: HomClasses  # [Y, A]
    target_classes: HomClasses  # [X, A]
    mapping: tuple              # class index in [Y,A] -> class index in [X,A]
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.well_defined and self.injective and self.surjective


def induced_class_map(instance: CylinderData, f: PresheafMap, a: PresheafObject,
                      guard=None) -> InducedClassMap:
    """The map of partitions [Y,A] -> [X,A] induced by precomposition with f.

    Well-definedness is checked member by member instead of assumed.
    """
    from_y = homotopy_classes(instance, f.codomain, a, guard=guard)
    from_x = homotopy_classes(instance, f.domain, a, guard=guard)
    mapping = []
    well_defined = True
    for members in from_y.classes:
        images = {from_x.class_of(f.then(from_y.homs[i])) for i in members}
        if len(images) != 1:
            well_defined = False
        mapping.append(min(images))
    injective = len(set(mapping)) == len(mapping)
    surjective = set(mapping) == set(range(from_x.class_count))
    return InducedClassMap(
        f, from_y, from_x, tuple(mapping), well_defined, injective, surjective
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Whether one-step homotopy is an equivalence relation on Hom(X, A)."""

    hom_count: int
    reflexive: bool
    symmetric: bool
    transitive: bool
    counterexample: Optional[tuple] = None

    @property
    def is_equivalence(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive


def check_equivalence_relation(instance: CylinderData, x: PresheafObject,
                               a: PresheafObject) -> EquivalenceReport:
    """Full one-step relation matrix on Hom(X, A) plus the three scans.

    The counterexample names the property and the offending map indices.
    One cylinder X⊗I serves every pair.
    """
    homs = tuple(search_maps(x, a))
    n = len(homs)
    cyl = instance.cylinder(x) if homs else None
    matrix = [
        [_homotopy_off(cyl, homs[i], homs[j], None) is not None for j in range(n)]
        for i in range(n)
    ]
    reflexive = all(matrix[i][i] for i in range(n))
    counterexample = None
    if not reflexive:
        i = next(i for i in range(n) if not matrix[i][i])
        counterexample = ("reflexive", i)
    symmetric = True
    for i in range(n):
        for j in range(n):
            if matrix[i][j] and not matrix[j][i]:
                symmetric = False
                if counterexample is None:
                    counterexample = ("symmetric", i, j)
    transitive = True
    for i in range(n):
        for j in range(n):
            if not matrix[i][j]:
                continue
            for k in range(n):
                if matrix[j][k] and not matrix[i][k]:
                    transitive = False
                    if counterexample is None:
                        counterexample = ("transitive", i, j, k)
    return EquivalenceReport(n, reflexive, symmetric, transitive, counterexample)
