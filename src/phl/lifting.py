"""Lifting verdicts and depth-bounded anodyne generation.

``has_rlp`` decides the right lifting property of a general map by walking
every commuting square.  ``is_naively_fibrant_upto``, the case A -> 1,
builds no squares: a lift there extends the top map along the entry, and
whether it exists depends only on a prefix of the top's values, so the
rest are counted, and it is decided per connected part of the entry's
codomain outside the image, once per part and boundary values.  Both
return the same verdict, count and counterexample.

Membership in the full saturated anodyne class is out of reach at this
scale, so every verdict here is a necessary condition at an explicit depth
and is labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    MismatchError,
    PresheafMap,
    PresheafObject,
    ValidationError,
    arrows_isomorphic,
    bang,
    empty_object,
    extend_along,
    extension_classes,
    fin_graph,
    fin_set,
    is_mono,
    pin_along,
    search_maps,
)
from .cylinder import CylinderData, corner_endpoint, corner_full
from .simplicial import boundary_inclusion, sset_cap


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square: left i, right p, top u, bottom v."""

    left: PresheafMap
    right: PresheafMap
    top: PresheafMap
    bottom: PresheafMap

    def __post_init__(self):
        if self.top.domain != self.left.domain:
            raise MismatchError("top map must start at the left map's domain")
        if self.bottom.domain != self.left.codomain:
            raise MismatchError("bottom map must start at the left map's codomain")
        if self.top.codomain != self.right.domain:
            raise MismatchError("top map must land in the right map's domain")
        if self.bottom.codomain != self.right.codomain:
            raise MismatchError("bottom map must land in the right map's codomain")
        for sort, left in self.left.on.items():
            bottom, top, right = self.bottom.on[sort], self.top.on[sort], self.right.on[sort]
            for cell, image in left.items():
                if bottom[image] != right[top[cell]]:
                    raise ValidationError("lifting square does not commute")


def solve_lift(problem: LiftingProblem, guard=None) -> Optional[PresheafMap]:
    """Lexicographically least diagonal, or None: the least extension of
    the top map along the left map whose cells the bottom triangle admits."""
    i, p, v = problem.left, problem.right, problem.bottom

    def triangle(sort, cell, value):
        return p.on[sort][value] == v.on[sort][cell]

    return extend_along([(i, problem.top)], p.domain, cell_filter=triangle, guard=guard)


@dataclass(frozen=True)
class FamilyEntry:
    arrow: PresheafMap
    depth: int
    provenance: str


@dataclass(frozen=True)
class AnodyneFamily:
    """Depth-tagged generated monos approximating the anodyne class.

    ``pre_dedup_counts[n]`` records how many arrows depth n produced before
    deduplication up to isomorphism of arrows.
    """

    instance_name: str
    entries: tuple
    depth: int
    seed_count: int
    generator_count: int
    pre_dedup_counts: dict = field(compare=False)


def default_generating_monos(instance: CylinderData):
    """Per-instance default for M, the monos generating all monos.

    Graphs add the single-edge inclusion into the parallel pair so the
    family can see parallel-edge collapses.
    """
    if instance.base == "set":
        return [
            PresheafMap(empty_object(fin_set([]).signature), fin_set(["*"]), {}),
        ]
    if instance.base == "graph":
        point = fin_graph(["v"], [])
        edge = fin_graph(["a", "b"], [("e", "a", "b")])
        two = fin_graph(["a", "b"], [])
        parallel = fin_graph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
        return [
            PresheafMap(empty_object(point.signature), point, {}),
            PresheafMap(two, edge, {"vertex": {"a": "a", "b": "b"}, "edge": {}}),
            PresheafMap(edge, parallel, {"vertex": {"a": "a", "b": "b"}, "edge": {"e": "e"}}),
        ]
    if instance.base.startswith("sset@"):
        cap = sset_cap(instance.interval)
        monos = []
        for n in range(cap + 1):
            monos.append(boundary_inclusion(n, cap))
        return monos
    raise ValidationError(f"no default generators for base {instance.base!r}")


def generate_anodyne(instance: CylinderData, seeds, generators=None, depth=0,
                     guard=None) -> AnodyneFamily:
    """The depth-stratified family: seeds and endpoint corners at depth 0,
    then full corners of the previous depth, deduplicated up to isomorphism
    of arrows."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    seeds = list(seeds)
    for s in seeds:
        if not is_mono(s):
            raise ValidationError("anodyne seeds must be monomorphisms")
    if generators is None:
        generators = default_generating_monos(instance)
    for m in generators:
        if not is_mono(m):
            raise ValidationError("generating maps must be monomorphisms")

    entries = []
    pre_dedup = {}

    def push(candidates, level):
        pre_dedup[level] = len(candidates)
        for arrow, provenance in candidates:
            if any(arrows_isomorphic(arrow, kept.arrow, guard=guard) for kept in entries):
                continue
            entries.append(FamilyEntry(arrow, level, provenance))

    level0 = [(s, f"seed[{idx}]") for idx, s in enumerate(seeds)]
    for idx, m in enumerate(generators):
        for e in (0, 1):
            level0.append(
                (corner_endpoint(instance, m, e).arrow, f"endpoint-corner[{idx},e={e}]")
            )
    push(level0, 0)
    for level in range(1, depth + 1):
        previous = [entry for entry in entries if entry.depth == level - 1]
        batch = [
            (corner_full(instance, entry.arrow).arrow, f"corner({entry.provenance})")
            for entry in previous
        ]
        push(batch, level)
    return AnodyneFamily(
        instance.name, tuple(entries), depth, len(seeds), len(generators), pre_dedup
    )


@dataclass(frozen=True)
class RlpVerdict:
    """A verdict against a family bounded at ``depth``: a necessary
    condition there, never a claim about the full saturated class."""

    ok: bool
    depth: int
    squares_checked: int
    counterexample: Optional[tuple] = None  # (entry provenance, top, bottom)

    @property
    def caveat(self) -> str:
        return f"necessary-condition at depth {self.depth}"


def has_rlp(p: PresheafMap, family: AnodyneFamily) -> RlpVerdict:
    """Whether p lifts against every family entry, over every commuting
    square, enumerated exhaustively; the first failure in enumeration order
    is returned as the counterexample.  The bottoms of a top u are pinned
    along the entry to u then p.  Each top, bottom and lift search runs
    under the default guard.  This is the test reference for the
    squareless verdict of :func:`is_naively_fibrant_upto`."""
    checked = 0
    for entry in family.entries:
        i = entry.arrow
        for top in search_maps(i.domain, p.domain):
            pin = pin_along([(i, top.then(p))])
            if pin is None:
                continue
            for bottom in search_maps(i.codomain, p.codomain, pin=pin):
                checked += 1
                problem = LiftingProblem(i, p, top, bottom)
                if solve_lift(problem) is None:
                    return RlpVerdict(False, family.depth, checked, (entry.provenance, top, bottom))
    return RlpVerdict(True, family.depth, checked)


def is_naively_fibrant_upto(a: PresheafObject, family: AnodyneFamily,
                            guard=None) -> RlpVerdict:
    """RLP of A -> 1 against the family, with the verdict, square count and
    counterexample of :func:`has_rlp`.

    A square over A -> 1 is its top u : K -> A, and it lifts when u
    extends along the entry K -> L.  :func:`core.extension_classes` groups
    the tops into classes that lift together and decides each class.  If
    it extends, all of the class's tops count as checked squares; if not,
    its least top and L -> 1 are the first failing square in enumeration
    order.  The guard bounds each entry's classes and each search on a part
    of L, as :func:`core.extension_classes` counts them.
    """
    checked = 0
    for entry in family.entries:
        i = entry.arrow
        for count, failure in extension_classes(i, a, guard=guard):
            if failure is not None:
                counterexample = (entry.provenance, failure, bang(i.codomain))
                return RlpVerdict(False, family.depth, checked + 1, counterexample)
            checked += count
    return RlpVerdict(True, family.depth, checked)
