"""The homotopy relation, its generated equivalence, and class computations.

A one-step homotopy from f to g is a map theta off the cylinder restricting
to f and g at the endpoints.  The closure is always computed by union-find;
that one step already suffices over fibrant targets is something the test
suite checks, never an assumption made here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import MismatchError, PresheafMap, PresheafObject, UnionFind, search_maps
from .cylinder import CylinderData


def find_homotopy(instance: CylinderData, f: PresheafMap, g: PresheafMap,
                  guard=None) -> Optional[PresheafMap]:
    """Lexicographically least one-step homotopy from f to g: a map
    theta : X⊗I -> Y with theta∘d0 = f and theta∘d1 = g, or None."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise MismatchError("homotopy endpoints must be parallel maps")
    return instance.cylinder(f.domain).homotopy(f, g, guard)


@dataclass(frozen=True)
class HomClasses:
    """Hom(X, Y) partitioned by the equivalence generated by one-step homotopy.

    ``homs`` is the full hom list in enumeration order; classes are tuples of
    indices into it, ordered by least member; the representative of a class
    is its lexicographically least map.  ``class_by_hom`` sends each map of
    ``homs`` to the index of its class; it is filled on the first
    :meth:`class_of`, since hashing the maps builds the structural key of
    their codomain, which ``tau0`` and ``classes`` never read.
    """

    homs: tuple
    classes: tuple
    caveat: Optional[str] = None
    class_by_hom: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def representatives(self):
        return tuple(self.homs[cls[0]] for cls in self.classes)

    def class_of(self, f: PresheafMap) -> int:
        if not self.class_by_hom:
            self.class_by_hom.update(
                (self.homs[i], c) for c, members in enumerate(self.classes) for i in members)
        return self.class_by_hom[f]


def homotopy_classes(instance: CylinderData, x: PresheafObject, y: PresheafObject,
                     guard=None, caveat=None) -> HomClasses:
    """Classes of Hom(X, Y) under the generated equivalence relation.

    One-step homotopies are searched exhaustively in both directions; the
    zig-zag closure is the union-find of those edges.  One cylinder X⊗I,
    with its compiled search plan, serves every pair.
    """
    homs = tuple(search_maps(x, y, guard=guard))
    cyl = instance.cylinder(x) if len(homs) > 1 else None
    linked = UnionFind()
    for i in range(len(homs)):
        linked.add(i)
    for i in range(len(homs)):
        for j in range(i + 1, len(homs)):
            if linked.find(i) == linked.find(j):
                continue
            if (cyl.homotopy(homs[i], homs[j], guard) is not None
                    or cyl.homotopy(homs[j], homs[i], guard) is not None):
                linked.union(i, j)
    buckets = {}
    for i in range(len(homs)):
        buckets.setdefault(linked.find(i), []).append(i)
    classes = tuple(tuple(buckets[root]) for root in sorted(buckets))
    return HomClasses(homs, classes, caveat=caveat)


def induced_class_map(instance: CylinderData, f: PresheafMap, a: PresheafObject,
                      guard=None) -> tuple:
    """Whether the map of partitions [Y,A] -> [X,A] induced by
    precomposition with f is well defined, injective and surjective.

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
    return well_defined, injective, surjective
