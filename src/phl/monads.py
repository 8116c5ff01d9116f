"""Truncation-capped free-category monad, its free-monoid restriction, and algebras.

T(X) at cap L is a genuine finite object; multiplication is partial where
flattening would exceed the cap, and every law check quantifies only over
elements whose full expansion stays inside the cap and says so.

A set is read as the graph with one vertex and one loop per element, so the
free-monoid monad is the free-category monad on one-vertex graphs and a
finite monoid is a one-object finite category.  That vertex, like the one
object of a monoid, carries no label: it is ``None``.  Every construction
below has one body; the monads differ only in how they read an object or a
map of their base as a graph and write the result back (``_graph``,
``_tables``, ``_object``, ``_on``).  A decoded element has one shape for
both, the path ``(source, target, edges)``; a word is the path
``(None, None, letters)``.  Labels follow one rule too: a path is named by
its letters, ``[a,b]``, and the empty path is ``[]@v`` at a vertex v but
``[]`` on the unlabelled vertex.

A map X -> T(Y) extends uniquely along the unit to an algebra map
T(X) -> T(Y), and T(f) and the multiplication are such extensions: of
eta∘f, and of the identity of T(X).  One body, ``_extend``, builds them
and ``extend_to_free``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    DEFAULT_GUARD,
    CapError,
    GuardExceeded,
    PresheafMap,
    PresheafObject,
    ValidationError,
    fin_graph,
    fin_set,
)


def linear_chain(n: int) -> PresheafObject:
    """The chain graph 0 -> 1 -> ... -> n with edges f1 ... fn."""
    if n < 0:
        raise ValidationError("chain length must be nonnegative")
    vertices = [str(i) for i in range(n + 1)]
    edges = [(f"f{i}", str(i - 1), str(i)) for i in range(1, n + 1)]
    return fin_graph(vertices, edges)


def word_label(letters) -> str:
    return "[" + ",".join(letters) + "]"


def path_label(vertex, edges) -> str:
    if edges or vertex is None:
        return word_label(edges)
    return f"[]@{vertex}"


@dataclass(frozen=True)
class TObject:
    """A truncated free object together with its decode tables."""

    obj: PresheafObject
    decode: dict = field(repr=False)    # cell label -> (source, target, edges) path
    encode: dict = field(repr=False)    # path -> cell label


@dataclass(frozen=True)
class MultData:
    """The partial multiplication T(T(X)) -> T(X) at the cap.

    ``defined`` maps in-cap cells; the cells whose flattening would exceed
    the cap are left out.
    """

    domain: PresheafObject
    codomain: PresheafObject
    defined: dict


class FreeCategoryMonad:
    """Paths of length at most ``cap`` in a finite directed multigraph."""

    name, noun, cell_noun = "free category", "path", "cells"  # for messages

    def __init__(self, cap: int):
        if cap < 0:
            raise ValidationError("cap must be nonnegative")
        self.cap = cap
        self._cache = {}

    # -- the graph view of the base ---------------------------------------

    @staticmethod
    def _graph(g: PresheafObject):
        """Vertices, and the (source, target) of each edge in label order."""
        return g.cells["vertex"], {e: (g.op("src", e), g.op("tgt", e)) for e in g.cells["edge"]}

    @staticmethod
    def _tables(on):
        """Vertex and edge assignments of a map's ``on`` table."""
        return on["vertex"], on["edge"]

    @staticmethod
    def _object(vertices, paths) -> PresheafObject:
        return fin_graph(vertices, [(label, a, b) for label, (a, b, _) in paths.items()])

    @staticmethod
    def _on(vertex_on, edge_on):
        return {"vertex": vertex_on, "edge": edge_on}

    # -- the monad ---------------------------------------------------------

    def apply(self, x: PresheafObject) -> TObject:
        """Vertices of X with all composable paths of length at most the cap,
        the empty path at each vertex included, shortest first and each
        length in lexicographic order of its edges; more than
        ``DEFAULT_GUARD`` cells raise."""
        if x in self._cache:
            return self._cache[x]
        vertices, ends = self._graph(x)
        leaving = {v: [] for v in vertices}
        for e, (a, _b) in ends.items():
            leaving[a].append(e)
        decode, encode = {}, {}
        layer = [(v, v, ()) for v in vertices]
        for length in range(self.cap + 1):
            for path in layer:
                if len(decode) >= DEFAULT_GUARD:
                    raise GuardExceeded(f"{self.name} enumeration exceeded the guard")
                label = path_label(path[0], path[2])
                if label in decode:
                    raise ValidationError(
                        f"{self.noun} labels collide; rename input {self.cell_noun}"
                    )
                decode[label] = path
                encode[path] = label
            if length == 0:  # every edge in label order, not grouped by source
                layer = [(a, b, (e,)) for e, (a, b) in ends.items()]
            elif length < self.cap:
                layer = [
                    (a, ends[e][1], edges + (e,)) for a, b, edges in layer for e in leaving[b]
                ]
        result = TObject(self._object(vertices, decode), decode, encode)
        self._cache[x] = result
        return result

    def unit(self, x: PresheafObject) -> PresheafMap:
        if self.cap < 1:
            raise CapError(f"unit needs cap >= 1 to form singleton {self.noun}s")
        tx = self.apply(x)
        vertices, ends = self._graph(x)
        edge_on = {e: tx.encode[a, b, (e,)] for e, (a, b) in ends.items()}
        return PresheafMap(x, tx.obj, self._on({v: v for v in vertices}, edge_on))

    def _extend(self, source: TObject, target: TObject, vertex_on, words, stop=False):
        """The algebra map out of ``source`` that sends each edge e to the
        path of edges ``words[e]`` in ``target``: every path is replaced
        edge by edge and flattened.  Returns its table and the labels whose
        flattening passes the cap, which stay out of the table; with
        ``stop`` the walk ends at the first of them."""
        image, overflow = {}, []
        for label, (a, b, edges) in source.decode.items():
            flat = tuple(itertools.chain.from_iterable(words[e] for e in edges))
            if len(flat) > self.cap:
                overflow.append(label)
                if stop:
                    break
            else:
                image[label] = target.encode[vertex_on[a], vertex_on[b], flat]
        return image, overflow

    def on_map(self, f: PresheafMap) -> PresheafMap:
        """T(f), the extension of the unit after f."""
        tx, ty = self.apply(f.domain), self.apply(f.codomain)
        vertex_on, edge_on = self._tables(f.on)
        words = {e: (image,) for e, image in edge_on.items()}
        image, _ = self._extend(tx, ty, vertex_on, words)
        return PresheafMap(tx.obj, ty.obj, self._on(dict(vertex_on), image), _validated=True)

    def mult(self, x: PresheafObject) -> MultData:
        """The extension of the identity of T(X), partial past the cap."""
        tx = self.apply(x)
        ttx = self.apply(tx.obj)
        vertex_on = {v: v for v in self._graph(tx.obj)[0]}
        words = {label: edges for label, (_, _, edges) in tx.decode.items()}
        defined, _ = self._extend(ttx, tx, vertex_on, words)
        return MultData(ttx.obj, tx.obj, self._on(vertex_on, defined))


class FreeMonoidMonad(FreeCategoryMonad):
    """Words of length at most ``cap`` over a finite set: the free-category
    monad on the set read as a one-vertex graph."""

    name, noun, cell_noun = "free monoid", "word", "elements"

    # The same bodies, named in this class too: bench/spans.py traces these
    # three methods per monad class.
    apply = FreeCategoryMonad.apply
    on_map = FreeCategoryMonad.on_map
    mult = FreeCategoryMonad.mult

    @staticmethod
    def _graph(x: PresheafObject):
        return (None,), dict.fromkeys(x.cells["element"], (None, None))

    @staticmethod
    def _tables(on):
        return {None: None}, on["element"]

    @staticmethod
    def _object(vertices, paths) -> PresheafObject:
        return fin_set(paths)

    @staticmethod
    def _on(vertex_on, edge_on):
        return {"element": edge_on}


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------

class FiniteCategory:
    """A finite category given by explicit identity and composition tables.

    ``compose[f][g]`` is the composite "f then g", defined exactly when the
    target of f equals the source of g.
    """

    def __init__(self, objects, morphisms, identities, compose, name="category"):
        self.name = name
        self.objects = tuple(sorted(objects))
        mor = [tuple(m) for m in morphisms]
        self.morphisms = tuple(label for label, _, _ in mor)
        if len(set(self.morphisms)) != len(self.morphisms):
            raise ValidationError("morphism labels must be distinct")
        self.src = {label: a for label, a, _ in mor}
        self.tgt = {label: b for label, _, b in mor}
        for label in self.morphisms:
            if self.src[label] not in self.objects or self.tgt[label] not in self.objects:
                raise ValidationError(f"morphism {label!r} has undeclared endpoints")
        self.identities = dict(identities)
        for obj in self.objects:
            ident = self.identities.get(obj)
            if ident is None:
                raise ValidationError(f"object {obj!r} has no identity")
            if not self._is_morphism(ident, obj, obj):
                raise ValidationError(
                    f"identity {ident!r} of {obj!r} is not a morphism from {obj!r} to itself"
                )
        self.compose = {f: dict(compose.get(f, {})) for f in self.morphisms}
        for f in self.morphisms:
            for g in self.morphisms:
                composable = self.tgt[f] == self.src[g]
                present = g in self.compose[f]
                if composable and not present:
                    raise ValidationError(f"composition is missing the pair ({f!r},{g!r})")
                if not composable and present:
                    raise ValidationError(
                        f"composition is defined on the non-composable pair ({f!r},{g!r})"
                    )
                if present and not self._is_morphism(self.compose[f][g], self.src[f], self.tgt[g]):
                    raise ValidationError(f"composite of ({f!r},{g!r}) has wrong endpoints")
        for f in self.morphisms:
            if self.then(self.identities[self.src[f]], f) != f:
                raise ValidationError(f"left identity law fails at {f!r}")
            if self.then(f, self.identities[self.tgt[f]]) != f:
                raise ValidationError(f"right identity law fails at {f!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.tgt[f] != self.src[g]:
                    continue
                for h in self.morphisms:
                    if self.tgt[g] != self.src[h]:
                        continue
                    if self.then(self.then(f, g), h) != self.then(f, self.then(g, h)):
                        raise ValidationError(
                            f"associativity fails at the triple ({f!r},{g!r},{h!r})"
                        )

    def _is_morphism(self, label, a, b) -> bool:
        return label in self.morphisms and self.src[label] == a and self.tgt[label] == b

    def then(self, f, g):
        """Composite of f followed by g."""
        return self.compose[f][g]

    def identity(self, obj):
        return self.identities[obj]

    def underlying_graph(self) -> PresheafObject:
        """Objects and all morphisms, identities included."""
        return fin_graph(
            self.objects,
            [(m, self.src[m], self.tgt[m]) for m in self.morphisms],
        )

    def carrier(self) -> PresheafObject:
        """The object of the monad's base that the algebra acts on."""
        return self.underlying_graph()


class FiniteMonoid(FiniteCategory):
    """A finite monoid: a category with one unlabelled object, ``None``.

    It is read through the category names only: its elements, in sorted
    order, are ``morphisms``, its unit is ``identity(None)`` and a*b is
    ``then(a, b)``, or ``compose[a][b]``.  Its carrier is the set of its
    elements, the loops of the one vertex.
    """

    def __init__(self, elements, unit, table, name="monoid"):
        loops = [(e, None, None) for e in sorted(elements)]
        super().__init__((None,), loops, {None: unit}, table, name=name)

    def carrier(self) -> PresheafObject:
        return fin_set(self.morphisms)


def extend_to_free(monad, h: PresheafMap, source_t: TObject, target_t: TObject
                   ) -> Optional[PresheafMap]:
    """Extend h : Y -> T(X) to the truncated algebra map T(Y) -> T(X).

    Returns None when some in-cap element of T(Y) would flatten past the
    cap; the extension is an algebra homomorphism wherever it is defined,
    so totality is exactly the cap condition.
    """
    vertex_on, edge_on = monad._tables(h.on)
    words = {e: target_t.decode[image][2] for e, image in edge_on.items()}
    on, overflow = monad._extend(source_t, target_t, vertex_on, words, stop=True)
    if overflow:
        return None
    return PresheafMap(source_t.obj, target_t.obj, monad._on(dict(vertex_on), on))


# ---------------------------------------------------------------------------
# Monad laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawReport:
    unit_left_ok: bool
    unit_right_ok: bool
    assoc_ok: bool
    assoc_checked: int
    skipped_count: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.unit_left_ok and self.unit_right_ok and self.assoc_ok


def check_monad_laws(monad, x: PresheafObject, guard=None) -> LawReport:
    """Monad laws checked through the actual unit and multiplication tables.

    The unit triangles cover every in-cap element of T(X).  Associativity is
    checked on every triple-nested element for which both evaluation orders
    are defined at the cap; elements where either side overflows (attempted
    up to one letter past the cap) are counted as skipped rather than
    silently ignored: all nested elements within the cap less those
    checked.  A step of the walk does not visit its cells whose outer two
    levels flatten past the cap: they and their extensions can only be
    skipped.  Each sequence carries path one's flattening and the products
    of its entries down the walk.  Nothing reads ``guard``;
    ``bench/workloads.py`` passes it.
    """
    cap = monad.cap
    failures = []
    tx = monad.apply(x)
    mu = monad.mult(x)
    ttx = monad.apply(tx.obj)

    unit_left_ok = True
    unit_right_ok = True
    if cap >= 1:
        eta_tx = monad.unit(tx.obj)
        t_eta = monad.on_map(monad.unit(x))
        for sort, cell in tx.obj.cell_items():
            if mu.defined[sort].get(eta_tx.on[sort][cell]) != cell:
                unit_left_ok = False
                failures.append(("mu∘etaT", sort, cell))
            if mu.defined[sort].get(t_eta.on[sort][cell]) != cell:
                unit_right_ok = False
                failures.append(("mu∘Teta", sort, cell))

    _, mu_on = monad._tables(mu.defined)
    t_decode, tt_decode = tx.decode, ttx.decode

    def tt_encode(entries, vertex):
        """The T(T(X))-cell of a tuple of T(X)-cells, or None."""
        a = t_decode[entries[0]][0] if entries else vertex
        b = t_decode[entries[-1]][1] if entries else vertex
        return ttx.encode.get((a, b, entries))

    # triple-nested elements: composable sequences of T(T(X))-cells, outer
    # length <= cap, total expansion <= cap.  Inside that domain a side can
    # still overflow (empty-word padding inflates intermediate lengths);
    # those elements are skipped instead of being checked.
    length = {label: len(edges) for label, (_, _, edges) in t_decode.items()}
    expansion = {
        label: sum(map(length.__getitem__, entries))
        for label, (_, _, entries) in tt_decode.items()
    }
    tt_cells = [label for label in tt_decode if expansion[label] <= cap]
    # the cells a frame chooses from, in decode order: every cell for the
    # empty prefix, and otherwise those leaving the prefix's end vertex
    # whose expansion fits in the room that the prefix leaves
    start = object()
    fitting = {(start, cap): tt_cells}
    leaving = {}
    for label in tt_cells:
        leaving.setdefault(tt_decode[label][0], []).append(label)
    for vertex, cells in leaving.items():
        for room in range(cap + 1):
            fitting[vertex, room] = [label for label in cells if expansion[label] <= room]

    @functools.cache
    def below(vertex, room, entries):
        """How many sequences extend a prefix ending at ``vertex`` by one to
        ``entries`` more T(T(X))-cells of total expansion at most ``room``."""
        if entries == 0:
            return 0
        return sum(
            1 + below(tt_decode[label][1], room - expansion[label], entries - 1)
            for label in fitting.get((vertex, room), ())
        )

    @functools.cache
    def walkable(vertex, room, width):
        """A frame's cells whose entries fit in the ``width`` T(X)-cells that
        path one has left, in decode order."""
        return [label for label in fitting.get((vertex, room), ())
                if len(tt_decode[label][2]) <= width]

    assoc_ok = True
    checked = 0

    def classify(anchor, outer, concat, inner):
        """Check one sequence, given path one's flattening ``concat`` and
        path two's products of the entries ``inner`` (None if one is
        undefined)."""
        nonlocal assoc_ok, checked
        first = second = None
        # path one: flatten the outer two levels, which the walk keeps
        # within the cap, then multiply
        middle = tt_encode(concat, anchor)
        if middle is not None:
            first = mu_on.get(middle)
        if inner is not None:  # path two: multiply each entry, then the result
            middle = tt_encode(inner, anchor)
            if middle is not None:
                second = mu_on.get(middle)
        if first is None or second is None:
            return
        checked += 1
        if first != second:
            assoc_ok = False
            failures.append(("assoc", anchor, outer))

    def walk(vertex, anchor, outer, concat, inner, room):
        # Depth-first in T(T(X)) decode order.  Past the cap, path one is
        # undefined on a sequence and on every extension of it, whatever the
        # multiplication holds, so a frame walks only the cells that path
        # one has room for.
        for label in walkable(vertex, room, cap - len(concat)):
            source, end, entries = tt_decode[label]
            flat = concat + entries
            left = room - expansion[label]
            sequence = outer + (label,)
            start_at = anchor if outer else source
            value = None if inner is None else mu_on.get(label)
            products = None if value is None else inner + (value,)
            classify(start_at, sequence, flat, products)
            if len(sequence) < cap:
                walk(end, start_at, sequence, flat, products, left)

    vertices = monad._graph(tx.obj)[0]
    for vertex in vertices:
        classify(vertex, (), (), ())
    walk(start, None, (), (), (), cap)
    # every walked sequence is checked or skipped; the walk visits
    # one-entry sequences even at cap 0
    skipped_count = len(vertices) + below(start, cap, max(cap, 1)) - checked
    return LawReport(unit_left_ok, unit_right_ok, assoc_ok, checked, skipped_count, tuple(failures))
