"""Weak-equivalence checking against algebra families and the related suites.

A verdict here is never absolute: it is relative to the supplied algebra
family and the truncation caps, and carries that caveat explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import PresheafMap, extend_along, identity, search_maps
from .cylinder import CylinderData
from .homotopy import find_homotopy, homotopy_classes, induced_class_map
from .lifting import AnodyneFamily, RlpVerdict, is_naively_fibrant_upto
from .monads import extend_to_free


@dataclass(frozen=True)
class AlgebraRecord:
    name: str
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.well_defined and self.injective and self.surjective


@dataclass(frozen=True)
class WeVerdict:
    """Per-algebra bijectivity of the induced class map, conjoined."""

    f: PresheafMap
    records: tuple
    caveat: str

    @property
    def ok(self) -> bool:
        return all(record.bijective for record in self.records)


def is_t_weak_equivalence(instance: CylinderData, f: PresheafMap, algebras,
                          guard=None) -> WeVerdict:
    """Whether precomposition with f is a bijection on classes into every
    supplied algebra carrier."""
    records = []
    for algebra in algebras:
        carrier = algebra.carrier()
        induced = induced_class_map(instance, f, carrier, guard=guard)
        records.append(
            AlgebraRecord(
                algebra.name, induced.well_defined, induced.injective, induced.surjective
            )
        )
    return WeVerdict(f, tuple(records), "relative to the supplied family and caps")


@dataclass(frozen=True)
class AltWeReport:
    """Search for an algebra-homomorphism homotopy inverse of T(f)."""

    found: bool
    restriction: Optional[PresheafMap]   # the map Y -> T(X) generating the inverse
    inverse: Optional[PresheafMap]       # T(Y) -> T(X)
    caveat: str


def alternative_we_check(instance: CylinderData, monad, f: PresheafMap,
                         guard=None) -> AltWeReport:
    """Search truncated algebra homomorphisms fbar : T(Y) -> T(X) with
    T(f)∘fbar and fbar∘T(f) one-step homotopic to the identities.

    Candidates are generated through their restrictions along the unit,
    which enumerates exactly the truncated algebra homomorphisms; the two
    homotopies are searched independently.
    """
    tx = monad.apply(f.domain)
    ty = monad.apply(f.codomain)
    tf = monad.on_map(f)
    caveat = f"relative to cap {monad.cap}"
    for h in search_maps(f.codomain, tx.obj, guard=guard):
        fbar = extend_to_free(monad, h, ty, tx)
        if fbar is None:
            continue
        if find_homotopy(instance, fbar.then(tf), identity(ty.obj), guard=guard) is None:
            continue
        if find_homotopy(instance, tf.then(fbar), identity(tx.obj), guard=guard) is None:
            continue
        return AltWeReport(True, h, fbar, caveat)
    return AltWeReport(False, None, None, caveat)


@dataclass(frozen=True)
class M3Row:
    name: str
    verdict: RlpVerdict


@dataclass(frozen=True)
class M3Report:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(row.verdict.ok for row in self.rows)


def check_m3_sample(algebras, family: AnodyneFamily) -> M3Report:
    """RLP of every algebra carrier against the generated family."""
    rows = []
    for algebra in algebras:
        carrier = algebra.carrier()
        rows.append(M3Row(algebra.name, is_naively_fibrant_upto(carrier, family)))
    return M3Report(tuple(rows))


def find_retraction(algebra, monad) -> Optional[PresheafMap]:
    """The least map alpha : T(A) -> A with alpha∘eta = id, or None: the
    lift of the identity of A along eta against A -> 1, on the truncated
    free object."""
    carrier = algebra.carrier()
    return extend_along([(monad.unit(carrier), identity(carrier))], carrier)


def find_homotopy_inverse(instance: CylinderData, f: PresheafMap) -> Optional[PresheafMap]:
    """A g with g∘f and f∘g in the classes of the identities, or None."""
    x, y = f.domain, f.codomain
    classes_x = homotopy_classes(instance, x, x)
    classes_y = homotopy_classes(instance, y, y)
    id_x = classes_x.class_of(identity(x))
    id_y = classes_y.class_of(identity(y))
    for g in search_maps(y, x):
        if classes_x.class_of(f.then(g)) != id_x:
            continue
        if classes_y.class_of(g.then(f)) != id_y:
            continue
        return g
    return None


@dataclass(frozen=True)
class SuiteReport:
    """The checkable fragment: unit naturality, the factorization through
    T, and three-for-two on sampled composable pairs."""

    naturality_failures: tuple
    factorization_failures: tuple
    three_for_two_failures: tuple
    checked: tuple  # (naturality count, factorization count, pairs count)

    @property
    def ok(self) -> bool:
        return not (
            self.naturality_failures
            or self.factorization_failures
            or self.three_for_two_failures
        )


def naturality_and_minimality_suite(instance: CylinderData, monad, maps,
                                    algebras, composable_pairs=()) -> SuiteReport:
    """(a) the unit square commutes exactly for every map; (b) every map
    the family accepts admits the homotopy-inverse factorization; (c) the
    verdicts satisfy three-for-two on the sampled composable pairs."""
    maps = list(maps)
    composable_pairs = list(composable_pairs)
    naturality_failures = []
    factorization_failures = []
    verdict_cache = {}

    def verdict(g):
        if g not in verdict_cache:
            verdict_cache[g] = is_t_weak_equivalence(instance, g, algebras).ok
        return verdict_cache[g]

    for f in maps:
        eta_x = monad.unit(f.domain)
        eta_y = monad.unit(f.codomain)
        if f.then(eta_y) != eta_x.then(monad.on_map(f)):
            naturality_failures.append(f)
    checked_fact = 0
    for f in maps:
        if verdict(f):
            checked_fact += 1
            if not alternative_we_check(instance, monad, f).found:
                factorization_failures.append(f)
    three_failures = []
    for f, g in composable_pairs:
        composite = f.then(g)
        flags = (verdict(f), verdict(g), verdict(composite))
        if sum(flags) == 2 and not all(flags):
            three_failures.append((f, g))
    return SuiteReport(
        tuple(naturality_failures),
        tuple(factorization_failures),
        tuple(three_failures),
        (len(maps), checked_fact, len(composable_pairs)),
    )
