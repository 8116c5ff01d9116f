"""Weak-equivalence checking against algebra families, and the alternative check through T.

A verdict here is never absolute: it is relative to the supplied algebra
family and the truncation caps, and carries that caveat explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import PresheafMap, identity, search_maps
from .cylinder import CylinderData
from .homotopy import find_homotopy, induced_class_map
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
