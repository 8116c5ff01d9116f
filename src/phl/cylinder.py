"""Elementary homotopy data instances and the corner-map constructors.

Each instance tensors with a fixed interval object by cartesian product.
The graph interval carries two level loops l0, l1 besides the crossing
edges u, d; without them the endpoint inclusions would not be graph maps
(an edge of X has to land on an edge over each endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    MismatchError,
    PresheafMap,
    PresheafObject,
    ValidationError,
    coproduct_of,
    extend_along,
    fin_graph,
    fin_set,
    identity,
    image_cells,
    is_iso,
    is_mono,
    pair_label,
    pin_along,
    product,
    product_map,
    pushout,
)


@dataclass(frozen=True)
class Cylinder:
    """The tuple (X ⊗ I, endpoint inclusions, projection) over a base object."""

    base: PresheafObject
    obj: PresheafObject
    d0: PresheafMap
    d1: PresheafMap
    sigma: PresheafMap

    def homotopy(self, f: PresheafMap, g: PresheafMap, guard=None) -> Optional[PresheafMap]:
        """The lexicographically least map theta off X ⊗ I with theta∘d0 = f
        and theta∘d1 = g, or None."""
        return extend_along([(self.d0, f), (self.d1, g)], f.codomain, guard=guard)


@dataclass(frozen=True)
class CylinderData:
    """Per-base elementary homotopy data: the interval and its endpoints.

    ``const_targets[e]`` names, per sort, the interval cell every cell of
    that sort is sent to by the endpoint-e inclusion.
    """

    name: str
    base: str
    interval: PresheafObject
    const_targets: tuple  # (targets for e=0, targets for e=1), each sort -> cell

    def check_base(self, obj: PresheafObject):
        if obj.signature.name != self.base:
            raise MismatchError(
                f"instance {self.name!r} acts on {self.base!r}, got {obj.signature.name!r}"
            )

    def cylinder(self, x: PresheafObject) -> Cylinder:
        """X ⊗ I = X x I, whose d_e sends a cell c to (c, the endpoint-e
        target of its sort); d_e commutes iff the targets do."""
        self.check_base(x)
        obj, pr1, _ = product(x, self.interval)
        d0, d1 = (PresheafMap(x, obj, {s: {c: pair_label(c, ends[s]) for c in x.cells[s]}
                                       for s in x.signature.sorts})
                  for ends in self.const_targets)
        return Cylinder(x, obj, d0, d1, pr1)

    def tensor_map(self, f: PresheafMap) -> PresheafMap:
        """Functorial action f ⊗ I = f x id."""
        self.check_base(f.domain)
        return product_map(f, identity(self.interval))


def set_instance() -> CylinderData:
    """Sets with cartesian product by the two-point classifier {0, 1}."""
    interval = fin_set(["0", "1"])
    return CylinderData(
        "set2", "set", interval, ({"element": "0"}, {"element": "1"})
    )


def graph_instance() -> CylinderData:
    """Graphs with product by the interval graph 0 ⇄ 1 plus level loops."""
    interval = fin_graph(
        ["0", "1"],
        [("u", "0", "1"), ("d", "1", "0"), ("l0", "0", "0"), ("l1", "1", "1")],
    )
    return CylinderData(
        "graphI",
        "graph",
        interval,
        ({"vertex": "0", "edge": "l0"}, {"vertex": "1", "edge": "l1"}),
    )


def get_instance(name: str, cap: Optional[int] = None) -> CylinderData:
    """Instance registry: set2, graphI, sset-delta1, sset-jinf."""
    if name == "set2":
        return set_instance()
    if name == "graphI":
        return graph_instance()
    if name in ("sset-delta1", "sset-jinf"):
        if cap is None:
            raise ValidationError(f"instance {name!r} needs an explicit cap")
        from . import simplicial

        if name == "sset-delta1":
            return simplicial.delta1_instance(cap)
        return simplicial.jinf_instance(cap)
    raise ValidationError(f"unknown instance {name!r}")


@dataclass(frozen=True)
class CornerMap:
    """The inclusion K⊗I ∪ L⊗∂I -> L⊗I (or the one-endpoint variant).

    ``arrow`` is the carried mono; the explicit lifts read a top map on
    L⊗I through ``pin_along([(arrow, top)])``.
    """

    arrow: PresheafMap
    instance_name: str
    j: PresheafMap
    endpoint: Optional[int]  # None for the full corner

    @property
    def domain(self) -> PresheafObject:
        return self.arrow.domain

    @property
    def codomain(self) -> PresheafObject:
        return self.arrow.codomain


def _corner(instance: CylinderData, j: PresheafMap, endpoint: Optional[int]) -> CornerMap:
    """K⊗I ∪ L⊗S -> L⊗I for a mono j : K -> L, where S is the subobject of
    the interval on the images of the endpoint inclusions at the terminal
    object: ∂I when ``endpoint`` is None, else {endpoint}.

    A union of subobjects is their pushout over the intersection, so the
    corner is the subobject of L⊗I on the cells over j's image or over S,
    named as the pushout of K⊗I <- K⊗S -> L⊗S names them: over j's image
    ``l:`` and the K⊗I label, elsewhere ``r:`` and the cell's own label.
    One scan of L⊗I's cells picks and names them; the corner and its arrow
    are built once, closed under the operators because j's image and S are.
    """
    if not is_mono(j):
        raise ValidationError("corner seeds must be monomorphisms")
    instance.check_base(j.domain)
    ends = instance.const_targets if endpoint is None else (instance.const_targets[endpoint],)
    l_cyl, over_l, over_i = product(j.codomain, instance.interval)
    sig = l_cyl.signature
    names, on = {}, {}
    for sort in sig.sorts:
        k_of = {image: cell for cell, image in j.on[sort].items()}
        s_cells = {targets[sort] for targets in ends}
        i_of = over_i.on[sort]
        named = names[sort] = {}
        for cell, a in over_l.on[sort].items():
            k = k_of.get(a)
            if k is not None:
                named[cell] = "l:" + pair_label(k, i_of[cell])
            elif i_of[cell] in s_cells:
                named[cell] = "r:" + cell
        if len(set(named.values())) != len(named):
            raise ValidationError(f"corner labels collide on sort {sort!r}; rename input cells")
        on[sort] = {name: cell for cell, name in named.items()}
    ops = {
        op: {name: names[t_sort][l_cyl.ops[op][cell]] for cell, name in names[s_sort].items()}
        for op, s_sort, t_sort in sig.ops
    }
    corner = PresheafObject(sig, {sort: tuple(on[sort]) for sort in sig.sorts}, ops, _validated=True)
    arrow = PresheafMap(corner, l_cyl, on, _validated=True)
    return CornerMap(arrow, instance.name, j, endpoint)


def corner_full(instance: CylinderData, j: PresheafMap) -> CornerMap:
    """K⊗I ∪ L⊗∂I -> L⊗I for a mono j : K -> L."""
    return _corner(instance, j, None)


def corner_endpoint(instance: CylinderData, j: PresheafMap, e: int) -> CornerMap:
    """K⊗I ∪ L⊗{e} -> L⊗I for a mono j : K -> L and endpoint e."""
    if e not in (0, 1):
        raise ValidationError("endpoint must be 0 or 1")
    return _corner(instance, j, e)


@dataclass(frozen=True)
class EhdCheck:
    kind: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class EhdReport:
    instance_name: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def _describe(obj: PresheafObject) -> str:
    return "/".join(",".join(obj.cells[s]) for s in obj.signature.sorts)


def verify_ehd(instance, monos, spans) -> EhdReport:
    """Check the elementary-homotopy-data axioms on supplied samples.

    For each object appearing: sigma∘d_e = id and [d0, d1] mono.  For each
    sample mono: tensoring preserves it and the endpoint squares are
    pullbacks.  For each sample span: tensoring preserves its pushout.
    Failures become report entries, never exceptions.
    """
    checks = []
    cylinders = {}  # in first-seen order
    for f in list(monos) + [leg for pair in spans for leg in pair]:
        for obj in (f.domain, f.codomain):
            if obj not in cylinders:
                cylinders[obj] = instance.cylinder(obj)
    for obj, cyl in cylinders.items():
        for e, incl in ((0, cyl.d0), (1, cyl.d1)):
            ok = incl.then(cyl.sigma) == identity(obj)
            checks.append(EhdCheck("cylinder-axiom", f"sigma∘d{e} = id on {_describe(obj)}", ok))
        ends, into = coproduct_of(obj.signature, [("0:", obj), ("1:", obj)])
        copair = PresheafMap(ends, cyl.obj, pin_along(list(zip(into, (cyl.d0, cyl.d1)))))
        checks.append(EhdCheck("cylinder-axiom", f"[d0,d1] mono on {_describe(obj)}", is_mono(copair)))
    for j in monos:
        tensored = instance.tensor_map(j)
        checks.append(
            EhdCheck("mono-preservation", f"j⊗I mono for j into {_describe(j.codomain)}", is_mono(tensored))
        )
        image = image_cells(tensored)
        l = j.codomain
        l_cyl = cylinders[l]
        for e, incl in ((0, l_cyl.d0), (1, l_cyl.d1)):
            fiber = {
                sort: {c for c in l.cells[sort] if incl.on[sort][c] in image[sort]}
                for sort in l.signature.sorts
            }
            expected = image_cells(j)
            ok = fiber == expected
            checks.append(
                EhdCheck(
                    "pullback",
                    f"d{e}-square is a pullback for j into {_describe(l)}",
                    ok,
                    "" if ok else f"fiber {fiber} != image {expected}",
                )
            )
    for f, g in spans:
        po = pushout(f, g)
        tf = instance.tensor_map(f)
        tg = instance.tensor_map(g)
        po_tensor = pushout(tf, tg)
        comparison = po_tensor.mediate(
            instance.tensor_map(po.left), instance.tensor_map(po.right)
        )
        ok = comparison is not None and is_iso(comparison)
        checks.append(
            EhdCheck(
                "pushout-preservation",
                f"(-⊗I) preserves the pushout of {_describe(f.codomain)} <- {_describe(f.domain)} -> {_describe(g.codomain)}",
                ok,
            )
        )
    return EhdReport(instance.name, tuple(checks))
