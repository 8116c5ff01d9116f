"""The canonical fixture corpus: small sets, graphs, monoids, categories.

Tests and the acceptance suite draw from these; ``emit_fixture_corpus``
writes them as documents so the CLI can round-trip them.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from .core import (
    PresheafMap, ValidationError, empty_object, fin_graph, fin_set, GRAPH_SIGNATURE, SET_SIGNATURE,
)
from .cylinder import graph_instance, set_instance
from .documents import (
    algebra_to_document,
    family_to_document,
    map_to_document,
    object_to_document,
    write_document,
)
from .lifting import default_generating_monos, generate_anodyne
from .monads import FiniteCategory, FiniteMonoid, linear_chain
from .simplicial import groupoid_interval


def corpus_sets():
    return [
        fin_set([]),
        fin_set(["a"]),
        fin_set(["a", "b"]),
        fin_set(["a", "b", "c"]),
        fin_set(["a", "b", "c", "d"]),
    ]


def corpus_graphs():
    """Graphs of at most 3 vertices and 3 edges covering the shapes the
    suites need: discrete, chains, loops, parallel edges, cycles."""
    return {
        "empty": fin_graph([], []),
        "vertex": fin_graph(["a"], []),
        "two_vertices": fin_graph(["a", "b"], []),
        "edge": fin_graph(["a", "b"], [("e", "a", "b")]),
        "loop": fin_graph(["a"], [("l", "a", "a")]),
        "two_loops": fin_graph(["a"], [("l", "a", "a"), ("m", "a", "a")]),
        "looped_pair": fin_graph(
            ["p", "q"], [("lp", "p", "p"), ("lq", "q", "q")]
        ),
        "chain2": fin_graph(
            ["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")]
        ),
        "parallel": fin_graph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]),
        "cycle2": fin_graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")]),
        "looped_edge": fin_graph(
            ["a", "b"], [("la", "a", "a"), ("lb", "b", "b"), ("e", "a", "b")]
        ),
    }


def corpus_monoids():
    return [
        FiniteMonoid(["e"], "e", {"e": {"e": "e"}}, name="trivial"),
        FiniteMonoid(
            ["0", "1"], "0",
            {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "0"}},
            name="z2",
        ),
        FiniteMonoid(
            ["e", "a"], "e",
            {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "a"}},
            name="idempotent",
        ),
    ]


def terminal_category():
    return FiniteCategory(
        ["*"], [("i", "*", "*")], {"*": "i"}, {"i": {"i": "i"}}, name="terminal"
    )


def chain2_category():
    """The poset 0 < 1 < 2 as a category; its hom-sets are not symmetric."""
    return FiniteCategory(
        ["0", "1", "2"],
        [("i0", "0", "0"), ("i1", "1", "1"), ("i2", "2", "2"),
         ("a", "0", "1"), ("b", "1", "2"), ("c", "0", "2")],
        {"0": "i0", "1": "i1", "2": "i2"},
        {
            "i0": {"i0": "i0", "a": "a", "c": "c"},
            "i1": {"i1": "i1", "b": "b"},
            "i2": {"i2": "i2"},
            "a": {"i1": "a", "b": "c"},
            "b": {"i2": "b"},
            "c": {"i2": "c"},
        },
        name="chain2",
    )


def parallel_category():
    """Two objects with two parallel non-identity arrows."""
    return FiniteCategory(
        ["A", "B"],
        [("iA", "A", "A"), ("iB", "B", "B"), ("f", "A", "B"), ("g", "A", "B")],
        {"A": "iA", "B": "iB"},
        {
            "iA": {"iA": "iA", "f": "f", "g": "g"},
            "iB": {"iB": "iB"},
            "f": {"iB": "f"},
            "g": {"iB": "g"},
        },
        name="parallel_pair",
    )


def z2_category():
    """The two-element group as a one-object groupoid."""
    return FiniteCategory(
        ["*"],
        [("e", "*", "*"), ("a", "*", "*")],
        {"*": "e"},
        {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}},
        name="z2_loop",
    )


def discrete2_category():
    return FiniteCategory(
        ["X", "Y"],
        [("ix", "X", "X"), ("iy", "Y", "Y")],
        {"X": "ix", "Y": "iy"},
        {"ix": {"ix": "ix"}, "iy": {"iy": "iy"}},
        name="discrete2",
    )


def corpus_categories():
    return [
        terminal_category(),
        chain2_category(),
        groupoid_interval(),
        parallel_category(),
        z2_category(),
        discrete2_category(),
    ]


def we_algebras(base: str):
    """The probe family for weak-equivalence verdicts.

    For sets every corpus monoid qualifies.  For graphs the family is the
    corpus categories whose carriers actually lift against the generated
    corners under this interval (symmetric hom-inhabitation); the others
    are kept in the corpus as negative controls.
    """
    if base == "set":
        return corpus_monoids()
    if base == "graph":
        return [terminal_category(), groupoid_interval(), z2_category()]
    raise ValueError(f"no probe family for base {base!r}")


def corpus_monos_set():
    sets = corpus_sets()
    a1, a2 = sets[1], sets[2]
    return [
        PresheafMap(empty_object(SET_SIGNATURE), a1, {}),
        PresheafMap(a1, a2, {"element": {"a": "a"}}),
        PresheafMap(a1, a2, {"element": {"a": "b"}}),
        PresheafMap(a2, sets[3], {"element": {"a": "a", "b": "c"}}),
    ]


def corpus_monos_graph():
    g = corpus_graphs()
    return [
        PresheafMap(empty_object(GRAPH_SIGNATURE), g["vertex"], {}),
        PresheafMap(g["vertex"], g["edge"], {"vertex": {"a": "a"}, "edge": {}}),
        PresheafMap(
            g["two_vertices"], g["edge"], {"vertex": {"a": "a", "b": "b"}, "edge": {}}
        ),
        PresheafMap(
            g["edge"], g["parallel"],
            {"vertex": {"a": "a", "b": "b"}, "edge": {"e": "e"}},
        ),
        PresheafMap(
            g["loop"], g["two_loops"], {"vertex": {"a": "a"}, "edge": {"l": "l"}}
        ),
    ]


def corpus_spans_set():
    sets = corpus_sets()
    a1, a2 = sets[1], sets[2]
    f = PresheafMap(a1, a2, {"element": {"a": "a"}})
    g = PresheafMap(a1, a2, {"element": {"a": "b"}})
    return [(f, g), (f, f)]


def corpus_spans_graph():
    g = corpus_graphs()
    pt = g["vertex"]
    into_edge_a = PresheafMap(pt, g["edge"], {"vertex": {"a": "a"}, "edge": {}})
    into_edge_b = PresheafMap(pt, g["edge"], {"vertex": {"a": "b"}, "edge": {}})
    into_loop = PresheafMap(pt, g["loop"], {"vertex": {"a": "a"}, "edge": {}})
    return [
        (into_edge_a, into_edge_b),
        (into_edge_b, into_edge_a),
        (into_edge_a, into_loop),
    ]


def all_small_graphs(max_vertices=3, max_edges=3):
    """Every multigraph on the fixed vertex labels up to the given size, up
    to edge labelling; the generator for exhaustive cylinder checks."""
    out = []
    for nv in range(max_vertices + 1):
        vertices = [f"v{i}" for i in range(nv)]
        pairs = [(a, b) for a in vertices for b in vertices]
        for ne in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, ne):
                edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(combo)]
                out.append(fin_graph(vertices, edges))
    return out


def emit_fixture_corpus(target_dir) -> list:
    """Write the corpus as documents; returns the list of paths written."""
    target = Path(target_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{target} cannot be made a directory: {exc.strerror}") from None
    written = []

    def emit(name, doc):
        path = target / f"{name}.json"
        write_document(path, doc)
        written.append(path)

    for i, obj in enumerate(corpus_sets()):
        emit(f"set{i}", object_to_document(obj))
    for name, obj in corpus_graphs().items():
        emit(f"graph_{name}", object_to_document(obj))
    for n in range(4):
        emit(f"linchain{n}", object_to_document(linear_chain(n)))
    for monoid in corpus_monoids():
        emit(f"monoid_{monoid.name}", algebra_to_document(monoid))
    for category in corpus_categories():
        emit(f"cat_{category.name}", algebra_to_document(category))
    for instance in (set_instance(), graph_instance()):
        gens = default_generating_monos(instance)
        emit(
            f"seeds_{instance.name}",
            {
                "kind": "seeds",
                "instance": instance.name,
                "seeds": [],
                "generators": [map_to_document(m) for m in gens],
            },
        )
    family = generate_anodyne(graph_instance(), [], depth=1)
    emit("family_graphI_d1", family_to_document(family))
    return written
