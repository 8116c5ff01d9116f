"""Independent oracles over raw JSON documents.

Nothing here imports phl: every expected value is computed from the
documents' dictionaries by counting formulas or raw assignment scans, so a
fault in the library's search, construction or serialization code cannot
hide by agreeing with itself.
"""

from __future__ import annotations

import itertools


def sorts_of(doc):
    """Cell lists per sort of a ``set`` or ``graph`` document."""
    if doc["kind"] == "set":
        return {"element": list(doc["elements"])}
    if doc["kind"] == "graph":
        return {"vertex": list(doc["vertices"]), "edge": [e[0] for e in doc["edges"]]}
    raise ValueError(f"oracles cover set and graph documents, not {doc['kind']!r}")


def _ends(graph_doc):
    return {label: (src, tgt) for label, src, tgt in graph_doc["edges"]}


def _edge_multiplicity(graph_doc):
    count = {}
    for _, src, tgt in graph_doc["edges"]:
        count[(src, tgt)] = count.get((src, tgt), 0) + 1
    return count


def hom_count(k_doc, a_doc):
    """|Hom(K, A)|: |A|^|K| for sets; for graphs the sum over vertex maps
    phi of the product over edges e of |A(phi src e, phi tgt e)|."""
    if k_doc["kind"] == "set":
        return len(a_doc["elements"]) ** len(k_doc["elements"])
    mult = _edge_multiplicity(a_doc)
    vertices = k_doc["vertices"]
    total = 0
    for images in itertools.product(a_doc["vertices"], repeat=len(vertices)):
        phi = dict(zip(vertices, images))
        ways = 1
        for _, src, tgt in k_doc["edges"]:
            ways *= mult.get((phi[src], phi[tgt]), 0)
            if not ways:
                break
        total += ways
    return total


def squares_over_family(family_doc, a_doc):
    """Commuting squares of every family entry against A -> 1: one per map
    from the entry's domain into A, since the bottom map into 1 is unique."""
    return sum(
        hom_count(entry["arrow"]["domain"], a_doc) for entry in family_doc["entries"]
    )


def map_problems(map_doc):
    """Why a map document is not a structure-preserving total map, or []."""
    dom, cod, on = map_doc["domain"], map_doc["codomain"], map_doc["on"]
    dom_cells, cod_cells = sorts_of(dom), sorts_of(cod)
    problems = []
    for sort, cells in dom_cells.items():
        table = on.get(sort, {})
        if sorted(table) != sorted(cells):
            problems.append(f"{sort} assignment does not cover the domain")
            continue
        for cell in cells:
            if table[cell] not in cod_cells[sort]:
                problems.append(f"{sort} {cell!r} lands outside the codomain")
    if problems or dom["kind"] != "graph":
        return problems
    dom_ends, cod_ends = _ends(dom), _ends(cod)
    for edge, (src, tgt) in dom_ends.items():
        image = cod_ends[on["edge"][edge]]
        if image != (on["vertex"][src], on["vertex"][tgt]):
            problems.append(f"edge {edge!r} does not commute with src/tgt")
    return problems


def all_maps(dom_doc, cod_doc):
    """Every structure-preserving map as a document, by raw assignment."""
    dom_cells, cod_cells = sorts_of(dom_doc), sorts_of(cod_doc)
    slots = [(sort, cell) for sort, cells in dom_cells.items() for cell in cells]
    maps = []
    for values in itertools.product(*(cod_cells[sort] for sort, _ in slots)):
        on = {sort: {} for sort in dom_cells}
        for (sort, cell), value in zip(slots, values):
            on[sort][cell] = value
        doc = {"kind": "map", "domain": dom_doc, "codomain": cod_doc, "on": on}
        if not map_problems(doc):
            maps.append(doc)
    return maps


def is_injective(map_doc):
    return all(
        len(set(table.values())) == len(table) for table in map_doc["on"].values()
    )


def compose(first, second):
    """Raw composite "first then second" of two map tables."""
    return {
        sort: {cell: second[sort][value] for cell, value in table.items()}
        for sort, table in first.items()
    }


def is_identity_table(table):
    return all(cell == value for per_sort in table.values() for cell, value in per_sort.items())


def has_diagonal(i_doc, top_doc, a_doc):
    """Whether some d : L -> A satisfies d∘i = top, by scanning every raw
    vertex assignment of the cells i does not pin (A -> 1 makes the lower
    triangle automatic).  For graphs, once vertices are fixed each free edge
    needs only one parallel edge of A between the image vertices."""
    pin = {}
    for sort, table in i_doc["on"].items():
        for cell, target in table.items():
            value = top_doc["on"][sort][cell]
            if pin.setdefault((sort, target), value) != value:
                return False
    l_doc = i_doc["codomain"]
    if l_doc["kind"] == "set":
        free = [c for c in l_doc["elements"] if ("element", c) not in pin]
        return not free or bool(a_doc["elements"])
    mult = _edge_multiplicity(a_doc)
    a_ends = _ends(a_doc)
    free_vertices = [v for v in l_doc["vertices"] if ("vertex", v) not in pin]
    for images in itertools.product(a_doc["vertices"], repeat=len(free_vertices)):
        phi = {v: pin[("vertex", v)] for v in l_doc["vertices"] if ("vertex", v) in pin}
        phi.update(zip(free_vertices, images))
        ok = True
        for label, src, tgt in l_doc["edges"]:
            pinned = pin.get(("edge", label))
            if pinned is not None:
                ok = a_ends[pinned] == (phi[src], phi[tgt])
            else:
                ok = mult.get((phi[src], phi[tgt]), 0) > 0
            if not ok:
                break
        if ok:
            return True
    return False


def counterexample_problems(family_doc, a_doc, counterexample):
    """Re-check a reported fibrancy counterexample: the top and bottom maps
    are valid, the square over A -> 1 commutes, and no diagonal exists."""
    entry = next(
        (e for e in family_doc["entries"] if e["provenance"] == counterexample["entry"]),
        None,
    )
    if entry is None:
        return [f"counterexample names unknown entry {counterexample['entry']!r}"]
    arrow, top, bottom = entry["arrow"], counterexample["top"], counterexample["bottom"]
    problems = map_problems(top) + map_problems(bottom)
    if top["domain"] != arrow["domain"] or bottom["domain"] != arrow["codomain"]:
        problems.append("square maps do not start at the entry's domain and codomain")
    carrier = {sort: sorted(cells) for sort, cells in sorts_of(a_doc).items()}
    if {s: sorted(c) for s, c in sorts_of(top["codomain"]).items()} != carrier:
        problems.append("top map does not land in the carrier")
    if problems:
        return problems
    terminal = {sort: {c: "*" for c in cells} for sort, cells in sorts_of(a_doc).items()}
    if compose(arrow["on"], bottom["on"]) != compose(top["on"], terminal):
        problems.append("counterexample square does not commute")
    if has_diagonal(arrow, top, a_doc):
        problems.append("counterexample square has a diagonal")
    return problems


# ---------------------------------------------------------------------------
# Categories, read off their composition tables
# ---------------------------------------------------------------------------

def chain_counts(category_doc, cap):
    """Composable chains of m morphisms (identities included), m = 0..cap."""
    src = {m: s for m, s, _ in category_doc["morphisms"]}
    tgt = {m: t for m, _, t in category_doc["morphisms"]}
    counts = [len(category_doc["objects"])]
    ending = {m: 1 for m in src}
    for m in range(1, cap + 1):
        if m > 1:
            ending = {
                g: sum(n for f, n in ending.items() if tgt[f] == src[g]) for g in src
            }
        counts.append(sum(ending.values()))
    return counts


def iso_class_count(category_doc):
    """Objects up to isomorphism: x ~ y when some f : x -> y and g : y -> x
    compose to the identities in both orders."""
    objects = category_doc["objects"]
    ids = category_doc["identities"]
    comp = category_doc["compose"]
    ends = {m: (s, t) for m, s, t in category_doc["morphisms"]}
    classes = []
    for x in objects:
        for cls in classes:
            y = cls[0]
            if any(
                ends[f] == (x, y) and ends[g] == (y, x)
                and comp[f][g] == ids[x] and comp[g][f] == ids[y]
                for f in ends for g in ends
            ):
                cls.append(x)
                break
        else:
            classes.append([x])
    return len(classes)


# ---------------------------------------------------------------------------
# Closed forms for the truncated free objects
# ---------------------------------------------------------------------------

def free_monoid_size(letters, cap):
    """Words of length at most cap: sum over k of n^k."""
    return sum(letters ** k for k in range(cap + 1))


def free_category_edges(graph_doc, cap):
    """Paths of length at most cap (empty paths included): the sum of all
    entries of A^0 + A^1 + ... + A^cap for the adjacency count matrix A."""
    vertices = graph_doc["vertices"]
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adjacency = [[0] * n for _ in range(n)]
    for _, src, tgt in graph_doc["edges"]:
        adjacency[index[src]][index[tgt]] += 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = 0
    for _ in range(cap + 1):
        total += sum(map(sum, power))
        power = [
            [sum(power[i][k] * adjacency[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return total
