"""Explicit retract and tower witnesses, and the explicit lifts.

Every witness is verified structurally before it is returned; the
constructors refuse to hand back anything whose identities fail.  Each
construction step carries a saturation-rule tag (coproduct, pushout,
composite, retract) with enough evidence to re-check the step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    CapError,
    Error,
    PresheafMap,
    PresheafObject,
    ValidationError,
    coproduct_of,
    fin_set,
    identity,
    pair_label,
    pin_along,
    pushout,
    relabel,
    subobject_from_cells,
)
from .cylinder import CornerMap, graph_instance
from .monads import (
    FiniteCategory,
    FreeCategoryMonad,
    FreeMonoidMonad,
    extend_to_free,
    linear_chain,
    word_label,
)


class WitnessError(Error):
    """A witness failed its construction-time verification."""


class ProvenanceError(Error):
    """A lift was asked for a corner it was not built from."""


class LiftConstructionError(Error):
    """The explicit lift has no data to build from on this input."""


#: The largest set whose retract witness is built: the middle map has one
#: component per ordered subset, which is exponential in |X|.
RETRACT_MAX_ELEMENTS = 4
#: The largest graph, as (vertices, edges), whose tower witness is built.
TOWER_MAX_SIZE = (2, 2)


@dataclass(frozen=True)
class SaturationStep:
    """One saturation rule application with re-checkable evidence."""

    rule: str
    description: str
    evidence: tuple = field(repr=False, default=())

    def verify(self) -> bool:
        if self.rule == "coproduct":
            (arrow, components) = self.evidence
            return _verify_coproduct(arrow, components)
        if self.rule == "pushout":
            (span_f, span_g, apex, left) = self.evidence
            po = pushout(span_f, span_g)
            return po.apex == apex and po.left == left
        if self.rule == "composite":
            (arrows, composite) = self.evidence
            out = arrows[0]
            for nxt in arrows[1:]:
                out = out.then(nxt)
            return out == composite
        if self.rule == "retract":
            (outer, inner, i0, i1, r0, r1) = self.evidence
            return (
                i0.then(inner) == outer.then(i1)
                and r0.then(outer) == inner.then(r1)
                and i0.then(r0) == identity(outer.domain)
                and i1.then(r1) == identity(outer.codomain)
            )
        return False


def _verify_coproduct(arrow, components) -> bool:
    """The arrow decomposes as the coproduct of the recorded components.

    Each component carries embeddings of its domain and codomain cells; the
    embeddings must be disjoint, jointly exhaustive, and intertwine the
    arrow with the component map.
    """
    sig = arrow.domain.signature
    dom_seen = {sort: set() for sort in sig.sorts}
    cod_seen = {sort: set() for sort in sig.sorts}
    for comp_map, dom_embed, cod_embed in components:
        for sort in sig.sorts:
            for cell in comp_map.domain.cells[sort]:
                target = dom_embed[sort][cell]
                if target in dom_seen[sort]:
                    return False
                dom_seen[sort].add(target)
                if arrow.on[sort][target] != cod_embed[sort][comp_map.on[sort][cell]]:
                    return False
            for cell in comp_map.codomain.cells[sort]:
                target = cod_embed[sort][cell]
                if target in cod_seen[sort]:
                    return False
                cod_seen[sort].add(target)
    for sort in sig.sorts:
        if dom_seen[sort] != set(arrow.domain.cells[sort]):
            return False
        if cod_seen[sort] != set(arrow.codomain.cells[sort]):
            return False
    return True


def validate_saturation(steps) -> bool:
    return all(step.verify() for step in steps)


# ---------------------------------------------------------------------------
# The retract witness for the free-monoid unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetractWitness:
    """eta_X exhibited as a retract of a coproduct of generator units."""

    x: PresheafObject
    cap: int
    eta: PresheafMap        # X -> T(X)
    middle: PresheafMap     # c : P -> Q
    s: PresheafMap          # X -> P
    r: PresheafMap          # P -> X
    u: PresheafMap          # T(X) -> Q
    v: PresheafMap          # Q -> T(X)
    steps: tuple


def _component_tag(subset, sigma) -> str:
    return "{" + ",".join(subset) + "}|" + ",".join(sigma)


def finite_subset_pairs(x: PresheafObject):
    """All pairs (S, sigma) with S a subset of X and sigma an ordering of S,
    i.e. a bijection from the canonical |S|-element set."""
    letters = x.cells["element"]
    pairs = []
    for k in range(len(letters) + 1):
        for subset in itertools.combinations(letters, k):
            for sigma in itertools.permutations(subset):
                pairs.append((subset, sigma))
    return pairs


def m2_retract_set(x: PresheafObject, cap: int) -> RetractWitness:
    """The explicit retract exhibiting the free-monoid unit of X.

    The middle map is the coproduct, over all (S, sigma), of the units of
    the canonical |S|-element sets; s picks the singleton components, u
    transports a word into the component of its letter set along the
    order-induced sigma (letterwise through sigma inverse, the only reading
    that makes v∘u the identity).
    """
    if cap < 1:
        raise CapError("retract witness needs cap >= 1")
    letters = x.cells["element"]
    if len(letters) > RETRACT_MAX_ELEMENTS:
        raise ValidationError(
            f"retract witness is exponential in |X|; {len(letters)} exceeds the guard "
            f"{RETRACT_MAX_ELEMENTS}"
        )
    monad = FreeMonoidMonad(cap)
    tx = monad.apply(x)
    eta = monad.unit(x)
    pairs = finite_subset_pairs(x)

    # per (S, sigma): the unit of the canonical |S|-element set and sigma
    # read as a map from that set to X
    units, sigmas = [], []
    for subset, sigma in pairs:
        canonical = fin_set([str(i) for i in range(len(subset))])
        units.append(monad.unit(canonical))
        sigmas.append(PresheafMap(
            canonical, x, {"element": {str(i): letter for i, letter in enumerate(sigma)}}
        ))
    tags = [_component_tag(subset, sigma) + "/" for subset, sigma in pairs]
    p, into_p = coproduct_of(x.signature, [(tag, e.domain) for tag, e in zip(tags, units)])
    q, into_q = coproduct_of(x.signature, [(tag, e.codomain) for tag, e in zip(tags, units)])
    c = PresheafMap(p, q, pin_along([(i, e.then(j)) for i, e, j in zip(into_p, units, into_q)]))
    r = PresheafMap(p, x, pin_along(list(zip(into_p, sigmas))))
    v = PresheafMap(
        q, tx.obj, pin_along([(j, monad.on_map(sigma)) for j, sigma in zip(into_q, sigmas)])
    )
    components = [(e, i.on, j.on) for e, i, j in zip(units, into_p, into_q)]

    s_on = {}
    for letter in letters:
        tag = _component_tag((letter,), (letter,))
        s_on[letter] = f"{tag}/0"
    s = PresheafMap(x, p, {"element": s_on})

    u_on = {}
    for wlabel, (_, _, word) in tx.decode.items():
        subset = tuple(sorted(set(word)))
        sigma = subset  # the order-induced bijection
        tag = _component_tag(subset, sigma)
        digits = tuple(str(sigma.index(letter)) for letter in word)
        u_on[wlabel] = f"{tag}/{word_label(digits)}"
    u = PresheafMap(tx.obj, q, {"element": u_on})

    steps = (
        SaturationStep(
            "coproduct",
            "middle map is the coproduct of generator units over all (S, sigma)",
            (c, tuple(components)),
        ),
        SaturationStep(
            "retract",
            "eta_X is a retract of the coproduct of generator units",
            (eta, c, s, u, r, v),
        ),
    )
    if not validate_saturation(steps):
        raise WitnessError("saturation evidence failed to verify")
    return RetractWitness(x, cap, eta, c, s, r, u, v, steps)


# ---------------------------------------------------------------------------
# The pushout tower for the free-category unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerWitness:
    """The stage-wise pushout tower with comparison maps and section."""

    n_max: int
    cap: int
    stages: tuple            # G~(0) .. G~(n_max)
    h_maps: tuple            # G -> G~(0), then G~(i-1) -> G~(i)
    k_maps: tuple            # G~(i) -> T(G)
    section: PresheafMap     # probed part of T(G) -> G~(n_max)
    shortfall: Optional[str]
    steps: tuple


def _glue_maps(stage_obj, n, g, tg):
    """Glue family for stage n: the length-n paths of the base graph, the
    empty path at each vertex for n = 0, read as chain maps into the
    current stage, which are every map the section needs."""
    chain = linear_chain(n)
    maps = []
    for label in tg.obj.cells["edge"]:
        a, _, edges = tg.decode[label]
        if len(edges) != n:
            continue
        verts = [a] + [g.op("tgt", e) for e in edges]
        on = {
            "vertex": {str(i): verts[i] for i in range(n + 1)},
            "edge": {f"f{i}": edges[i - 1] for i in range(1, n + 1)},
        }
        maps.append(PresheafMap(chain, stage_obj, on))
    return maps


def m2_tower_graph(g: PresheafObject, n_max: int, cap: int) -> TowerWitness:
    """Stage-wise tower exhibiting the free-category unit of a graph.

    Stage 0 glues the free category on a point onto every vertex; stage
    n+1 glues T[n+1] along chain maps.  The comparison maps satisfy
    k_{n+1}∘h_{n+1} = k_n read as maps into T(G); the section sends a path
    to the composite edge its own glued copy created.
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if n_max > cap:
        raise CapError("n_max beyond the cap would create composites the comparison cannot name")
    max_v, max_e = TOWER_MAX_SIZE
    if len(g.cells["vertex"]) > max_v or len(g.cells["edge"]) > max_e:
        raise ValidationError(f"tower guard: graph exceeds {max_v} vertices / {max_e} edges")
    monad = FreeCategoryMonad(cap)
    tg = monad.apply(g)
    eta = monad.unit(g)

    stages, h_maps, k_maps, steps = [], [], [], []
    current, k_prev = g, eta
    composite_cell = {}  # T(G) path label -> cell of the current stage

    for n in range(0, n_max + 1):
        chain = linear_chain(n)
        t_chain = monad.apply(chain)
        unit = monad.unit(chain)
        glue_maps = _glue_maps(current, n, g, tg)

        # span: coproduct of chain copies -> current, and -> coproduct of T[n] copies
        tags = [f"{idx}/" for idx in range(len(glue_maps))]
        a_obj, into_a = coproduct_of(g.signature, [(tag, chain) for tag in tags])
        b_obj, into_b = coproduct_of(g.signature, [(tag, t_chain.obj) for tag in tags])
        left = PresheafMap(a_obj, current, pin_along(list(zip(into_a, glue_maps))))
        right = PresheafMap(
            a_obj, b_obj, pin_along([(i, unit.then(j)) for i, j in zip(into_a, into_b)])
        )
        components = [(unit, i.on, j.on) for i, j in zip(into_a, into_b)]
        po = pushout(left, right)

        def rename(sort, label):
            if label.startswith("l:"):
                return label[2:]
            return f"g{n}." + label[2:].replace("/", ".", 1)

        stage_obj, iso = relabel(po.apex, rename)
        h_n = po.left.then(iso)
        glued = po.right.then(iso)
        stages.append(stage_obj)
        h_maps.append(h_n)
        steps.append(
            SaturationStep(
                "coproduct",
                f"stage {n}: coproduct of {len(glue_maps)} unit copies of the length-{n} chain",
                (right, tuple(components)),
            )
        )
        steps.append(
            SaturationStep(
                "pushout",
                f"stage {n}: h_{n} is the pushout of that coproduct along the glue maps",
                (left, right, po.apex, po.left),
            )
        )

        # k_n is k_{n-1} on the old stage and, on each glued copy of T[n],
        # the free extension of the glue map read in T(G), whose full path
        # is the composite cell of its glued copy; composites recorded at
        # earlier stages keep their labels (originals are stable)
        legs = [(h_n, k_prev)]
        full_cell = t_chain.encode[("0", str(n), tuple(f"f{i}" for i in range(1, n + 1)))]
        for j, c_map in zip(into_b, glue_maps):
            extended = extend_to_free(monad, c_map.then(k_prev), t_chain, tg)
            if extended is None:
                raise CapError(
                    f"stage-{n} composite flattens past the cap; lower n_max or raise cap"
                )
            copy = j.then(glued)
            legs.append((copy, extended))
            composite_cell[extended.on["edge"][full_cell]] = copy.on["edge"][full_cell]
        k_on = pin_along(legs)
        if k_on is None:
            raise WitnessError(f"k_{n} is not well defined on the stage-{n} pushout")
        k_prev = PresheafMap(stage_obj, tg.obj, k_on)
        k_maps.append(k_prev)
        current = stage_obj

    # verify the tower compatibilities
    if h_maps[0].then(k_maps[0]) != eta:
        raise WitnessError("k_0∘h_0 = eta failed")
    for n in range(1, n_max + 1):
        if h_maps[n].then(k_maps[n]) != k_maps[n - 1]:
            raise WitnessError(f"k_{n}∘h_{n} = k_{n - 1} failed")

    # section on paths up to the probed bound n_max
    longest = max((len(tg.decode[e][2]) for e in tg.obj.cells["edge"]), default=0)
    shortfall = None
    if longest > n_max:
        shortfall = (
            f"paths of length up to {longest} exist but only lengths <= {n_max} are probed"
        )
    probe_edges = [e for e in tg.obj.cells["edge"] if len(tg.decode[e][2]) <= n_max]
    probe, probe_incl = subobject_from_cells(
        tg.obj, {"vertex": tg.obj.cells["vertex"], "edge": probe_edges}
    )
    final = stages[-1]
    s_on = {"vertex": {}, "edge": {}}
    # cells of G keep their labels through every stage
    for v in g.cells["vertex"]:
        s_on["vertex"][v] = v
    for label in probe_edges:
        cell = composite_cell.get(label)
        if cell is None:
            raise WitnessError(f"no glued composite recorded for {label!r}")
        s_on["edge"][label] = cell
    section = PresheafMap(probe, final, s_on)
    if section.then(k_maps[-1]) != probe_incl:
        raise WitnessError("k∘s = id failed on the probed paths")

    h_total = h_maps[0]
    for h_n in h_maps[1:]:
        h_total = h_total.then(h_n)
    steps.append(
        SaturationStep(
            "composite",
            f"h is the composite of the {n_max + 1} stage maps",
            (tuple(h_maps), h_total),
        )
    )
    # the retract square needs eta corestricted to the probed part and k
    # corestricted likewise; both are label-identical corestrictions
    if all(eta.on["edge"][e] in set(probe_edges) for e in g.cells["edge"]):
        eta_probe = PresheafMap(g, probe, {s: dict(eta.on[s]) for s in ("vertex", "edge")})
        k_probe_on = {s: dict(k_maps[-1].on[s]) for s in ("vertex", "edge")}
        k_probe = PresheafMap(final, probe, k_probe_on)
        steps.append(
            SaturationStep(
                "retract",
                "the unit is a retract of the tower composite via the section",
                (eta_probe, h_total, identity(g), section, identity(g), k_probe),
            )
        )
    steps = tuple(steps)
    if not validate_saturation(steps):
        raise WitnessError("saturation evidence failed to verify")
    return TowerWitness(
        n_max, cap, tuple(stages), tuple(h_maps), tuple(k_maps), section, shortfall, steps,
    )


# ---------------------------------------------------------------------------
# Explicit lifts
# ---------------------------------------------------------------------------

def explicit_lift_monoid(corner: CornerMap, top: PresheafMap) -> PresheafMap:
    """The restriction-extension diagonal for a set endpoint corner.

    Every point outside the corner copies the corner value at its own base
    point over the marked endpoint; no monoid structure is consulted, so
    the codomain may be any set.
    """
    if corner.endpoint is None or corner.instance_name != "set2":
        raise ProvenanceError("monoid lift needs an endpoint corner in the set instance")
    if top.domain != corner.domain:
        raise ProvenanceError("top map does not start at the corner object")
    e_label = str(corner.endpoint)
    fixed = pin_along([(corner.arrow, top)])["element"]
    on = {"element": {}}
    for x in corner.j.codomain.cells["element"]:
        for t in ("0", "1"):
            cell = pair_label(x, t)
            source = cell if cell in fixed else pair_label(x, e_label)
            on["element"][cell] = fixed[source]
    diagonal = PresheafMap(corner.codomain, top.codomain, on)
    if corner.arrow.then(diagonal) != top:
        raise WitnessError("monoid lift failed its triangle")
    return diagonal


def explicit_lift_category(corner: CornerMap, top: PresheafMap,
                           category: FiniteCategory) -> PresheafMap:
    """The diagonal for a graph endpoint corner into a category.

    Cells in the corner are copied and a vertex outside it copies its
    given-level twin.  An edge outside it, from level s to level t, takes
    the image of its given-level copy, preceded by the thread connector at
    its source when s is the other level and the source lies in K, and
    followed by the connector at its target when t is the other level and
    the target lies in K; a loop at a vertex outside K goes to the
    identity instead.  A connector at x is the image of the thread of the
    least loop of K at x, and a vertex of K without one is refused.
    """
    if corner.endpoint is None or corner.instance_name != "graphI":
        raise ProvenanceError("category lift needs an endpoint corner in the graph instance")
    if top.domain != corner.domain:
        raise ProvenanceError("top map does not start at the corner object")
    if top.codomain != category.underlying_graph():
        raise ProvenanceError("top map does not land in the category's underlying graph")
    given, other = str(corner.endpoint), str(1 - corner.endpoint)
    interval = graph_instance().interval
    # edges are visited in this order, so a refusal names the same vertex
    levels = {i: (interval.op("src", i), interval.op("tgt", i)) for i in ("u", "d", "l0", "l1")}
    between = {ends: i for i, ends in levels.items()}
    j = corner.j
    l_obj = j.codomain
    kv = set(j.on["vertex"].values())
    ke = set(j.on["edge"].values())
    fixed = pin_along([(corner.arrow, top)])

    def compose(f, g):
        try:
            return category.then(f, g)
        except KeyError:
            raise ValidationError(
                f"composition lookup failure on ({f!r},{g!r}); the table is not a category"
            )

    def connector(x, s, t):
        loops = sorted(l for l in ke if l_obj.op("src", l) == x == l_obj.op("tgt", l))
        if not loops:
            raise LiftConstructionError(
                f"vertex {x!r} of K carries no loop; the thread connector is unavailable"
            )
        return fixed["edge"][pair_label(loops[0], between[s, t])]

    on = {"vertex": {}, "edge": {}}
    for x in l_obj.cells["vertex"]:
        for t in ("0", "1"):
            cell = pair_label(x, t)
            source = cell if cell in fixed["vertex"] else pair_label(x, given)
            on["vertex"][cell] = fixed["vertex"][source]
    for edge in l_obj.cells["edge"]:
        a, b = l_obj.op("src", edge), l_obj.op("tgt", edge)
        for i, (s, t) in levels.items():
            cell = pair_label(edge, i)
            if cell in fixed["edge"]:
                value = fixed["edge"][cell]
            elif a == b and a not in kv:
                value = category.identity(fixed["vertex"][pair_label(a, given)])
            else:
                value = fixed["edge"][pair_label(edge, between[given, given])]
                if s == other and a in kv:
                    value = compose(connector(a, other, given), value)
                if t == other and b in kv:
                    value = compose(value, connector(b, given, other))
            on["edge"][cell] = value
    diagonal = PresheafMap(corner.codomain, top.codomain, on)
    if corner.arrow.then(diagonal) != top:
        raise WitnessError("category lift failed its triangle")
    return diagonal
