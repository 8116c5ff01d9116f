"""The benchmark's workloads: input documents, operations and their checks.

``build(name, phl, seed, workdir)`` writes a workload's input documents
under ``workdir`` and returns its operations in their fixed order.  An
operation either runs a ``phl`` subcommand in-process through
``phl.cli.main`` with every parameter it reads passed explicitly, or makes
one public library call.  ``run`` is the timed part; ``settle`` turns its
raw result into an :class:`Outcome` and ``check`` judges the outcome
against the oracles in :mod:`oracles`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import oracles

WORKLOADS = ("fibrancy", "horns", "algebra")

#: Guard for every operation that must not hit it.
GUARD = 10_000_000

#: Guard of the one operation that fails today: ``phl fibrant`` of the z2
#: loop carrier against the graphI depth-1 family.  has_rlp enumerates all
#: 67,109,924 top maps one by one and the guard bounds each nested search,
#: not the verdict, so any guard fails it; this one fails in about 0.4 s.
#: Once it succeeds, its check holds squares_checked to the oracle's count.
FAULT_GUARD = 2_000

#: Depths of the set2 family each set and monoid carrier is checked at.
#: A depth-d entry has a domain of 2^(d+1) elements, so an n-element
#: carrier costs about n^(2^(d+1)) squares; the largest verdict here is the
#: 3-element set at depth 2 (6,645 squares).  The next size up, a 2-element
#: carrier at depth 3 or a 4-element one at depth 2, is about 65,800
#: squares and 9-13 s alone, which would leave room for one round a run.
SET_DEPTHS = {"set1": range(4), "set2": range(3), "set3": range(3), "set4": range(2)}
MONOID_DEPTHS = {"trivial": range(4), "z2": range(3), "idempotent": range(3)}

#: Seeded share of the fibrancy workload: up to this many graphs of each
#: size (vertices, edges), drawn from the graphs of
#: fixtures.all_small_graphs(3, 3) with 2 or 3 vertices.  Drawing per size
#: keeps the cost of a round nearly the same on every seed.  One-vertex
#: graphs are left out: those with two or three loops hit the same blow-up
#: as the failing z2 operation at depth 1.
GRAPHS_PER_SIZE = 3

#: Looped graphs of the C8 acceptance criterion (the cycle gets its loops
#: so every vertex carries one).  One map is drawn for each ordered pair:
#: maps of one pair cost the same, so a round's cost is seed-independent.
C8_GRAPHS = ("loop", "two_loops", "looped_cycle")


class Outcome(NamedTuple):
    failed: bool
    summary: object  # compared between rounds
    value: object    # handed to the check


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    settle: Callable[[object], Outcome]
    check: Callable[[object], list]
    expected_failure: bool = False


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cli_op(phl, name, argv, check, out=None, expected_failure=False):
    """A subcommand run through phl.cli.main with stdout captured.  Exit
    code 2 (usage or resource error) is a failed operation."""

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = phl.cli.main(argv)
        return code, buffer.getvalue()

    def written():
        if out is None:
            return None
        with open(out, encoding="utf-8") as handle:
            return handle.read()

    def settle(raw):
        code, stdout = raw
        text = written() if code != 2 else None
        digest = hashlib.sha256(repr((code, stdout, text)).encode()).hexdigest()
        return Outcome(code == 2, digest, raw)

    def check_report(raw):
        # every round rewrote --out with the same bytes, so read it back now
        code, stdout = raw
        return check((code, json.loads(stdout), written()))

    return Op(name, run, settle, check_report, expected_failure)


def library_op(phl, name, call, summarize, check):
    """One public library call; a phl error is a failed operation."""

    def run():
        try:
            return call(), None
        except phl.core.Error as exc:
            return None, exc

    def settle(raw):
        value, error = raw
        if error is not None:
            return Outcome(True, repr(error), error)
        return Outcome(False, summarize(value), value)

    return Op(name, run, settle, check)


def carrier_doc(doc):
    """The set or graph a document's fibrancy verdict is about."""
    if doc["kind"] == "monoid":
        return {"kind": "set", "elements": sorted(doc["elements"])}
    if doc["kind"] == "category":
        return {"kind": "graph", "vertices": sorted(doc["objects"]), "edges": doc["morphisms"]}
    return doc


def _exit_code(code, allowed):
    return [] if code in allowed else [f"exit code {code}"]


# ---------------------------------------------------------------------------
# fibrancy
# ---------------------------------------------------------------------------

def _fibrancy_check(family_path, object_path, must_pass):
    def check(value):
        code, report, _ = value
        problems = _exit_code(code, (0, 1))
        if problems:
            return problems
        body = report["report"]
        family, carrier = _read_json(family_path), carrier_doc(_read_json(object_path))
        expected = oracles.squares_over_family(family, carrier)
        if code == 0:
            if not body["fibrant_upto_depth"]:
                problems.append("exit 0 without a fibrant verdict")
            if body["squares_checked"] != expected:
                problems.append(f"squares_checked {body['squares_checked']} != oracle {expected}")
        else:
            if must_pass:
                problems.append("carrier must be fibrant")
            if body["squares_checked"] > expected:
                problems.append(f"squares_checked {body['squares_checked']} exceeds oracle {expected}")
            problems += oracles.counterexample_problems(family, carrier, body["counterexample"])
        return problems

    return check


def _fibrancy(phl, seed, workdir):
    corpus = workdir / "corpus"
    phl.fixtures.emit_fixture_corpus(corpus)
    families = {}
    for instance, depths in (("set2", 4), ("graphI", 2)):
        for depth in range(depths):
            family = phl.lifting.generate_anodyne(
                phl.cylinder.get_instance(instance), [], depth=depth, guard=GUARD
            )
            families[instance, depth] = _write(
                workdir / f"family_{instance}_d{depth}.json",
                phl.documents.canonical_json(phl.documents.family_to_document(family)),
            )
    by_size = {}
    for graph in phl.fixtures.all_small_graphs(3, 3):
        size = (len(graph.cells["vertex"]), len(graph.cells["edge"]))
        if size[0] >= 2:
            by_size.setdefault(size, []).append(graph)
    rng = random.Random(seed)
    samples = []
    for (nv, ne), graphs in sorted(by_size.items()):
        for idx in sorted(rng.sample(range(len(graphs)), min(GRAPHS_PER_SIZE, len(graphs)))):
            label = f"graph{nv}v{ne}e_{idx}"
            samples.append((label, _write(
                workdir / f"sample_{label}.json",
                phl.documents.canonical_json(phl.documents.object_to_document(graphs[idx])),
            )))

    ops = []

    def verdict(label, path, instance, depth, must_pass=False, guard=GUARD):
        argv = [
            "fibrant", path, "--family", families[instance, depth],
            "--instance", instance, "--depth", str(depth), "--guard", str(guard),
        ]
        check = _fibrancy_check(families[instance, depth], path, must_pass)
        ops.append(cli_op(
            phl, f"fibrant {label} {instance}@{depth}", argv, check,
            expected_failure=guard == FAULT_GUARD,
        ))

    for name, depths in SET_DEPTHS.items():
        for depth in depths:
            verdict(name, str(corpus / f"{name}.json"), "set2", depth, must_pass=True)
    for name, depths in MONOID_DEPTHS.items():
        for depth in depths:
            verdict(name, str(corpus / f"monoid_{name}.json"), "set2", depth, must_pass=True)
    for category in phl.fixtures.corpus_categories():
        path = str(corpus / f"cat_{category.name}.json")
        for depth in range(2):
            faulty = category.name == "z2_loop" and depth == 1
            verdict(
                category.name, path, "graphI", depth,
                must_pass=category.name == "terminal",
                guard=FAULT_GUARD if faulty else GUARD,
            )
    for label, path in samples:
        for depth in range(2):
            verdict(label, path, "graphI", depth)
    return ops


# ---------------------------------------------------------------------------
# horns
# ---------------------------------------------------------------------------

GROUPOIDS = ("terminal", "z2_loop", "groupoid_interval")

#: Horn dimensions per nerve cap.  4-horns run on the cap-4 nerves only:
#: at cap 5 they cost about 15 s a round more and ask the same question,
#: since every 4-horn instance is a composable 4-chain either way.
HORN_DIMS = {4: range(2, 5), 5: range(2, 4)}


def _horns(phl, seed, workdir):
    corpus = workdir / "corpus"
    phl.fixtures.emit_fixture_corpus(corpus)
    simplices = {
        (n, cap): _write(
            workdir / f"delta{n}_cap{cap}.json",
            phl.documents.canonical_json(
                phl.documents.object_to_document(phl.simplicial.delta(n, cap))
            ),
        )
        for n in (0, 1) for cap in (4, 5)
    }
    arrow_classes = {}
    ops = []
    for category in phl.fixtures.corpus_categories():
        cat_path = str(corpus / f"cat_{category.name}.json")
        doc = _read_json(cat_path)
        for cap in (4, 5):
            chains = oracles.chain_counts(doc, cap)
            nerve_path = str(workdir / f"nerve_{category.name}_cap{cap}.json")

            def nerve_check(value, chains=chains):
                code, report, _ = value
                cells = report["report"]["cells"]
                expected = {str(m): count for m, count in enumerate(chains)}
                problems = _exit_code(code, (0,))
                if cells != expected:
                    problems.append(f"nerve cells {cells} != chain counts {expected}")
                return problems

            ops.append(cli_op(
                phl, f"nerve {category.name} cap{cap}",
                ["nerve", cat_path, "--cap", str(cap), "--guard", str(GUARD), "--out", nerve_path],
                nerve_check, out=nerve_path,
            ))
            for n in HORN_DIMS[cap]:
                for k in range(n + 1):
                    must_fill = 0 < k < n or category.name in GROUPOIDS

                    def horn_check(value, n=n, must_fill=must_fill, chains=chains):
                        code, report, _ = value
                        body = report["report"]
                        problems = _exit_code(code, (0, 1))
                        if must_fill and not body["all_fill"]:
                            problems.append("a horn that must fill does not")
                        if (code == 0) != body["all_fill"]:
                            problems.append("exit code disagrees with all_fill")
                        if n == 4 and body["instances"] != chains[4]:
                            problems.append(
                                f"{body['instances']} horn instances != {chains[4]} 4-chains"
                            )
                        return problems

                    ops.append(cli_op(
                        phl, f"horn-fill {category.name} cap{cap} n{n} k{k}",
                        ["horn-fill", nerve_path, "--n", str(n), "--k", str(k),
                         "--cap", str(cap), "--guard", str(GUARD)],
                        horn_check,
                    ))
            for n in (0, 1):

                def tau0_check(value, n=n, name=category.name, cap=cap, doc=doc):
                    code, report, _ = value
                    count = report["report"]["class_count"]
                    problems = _exit_code(code, (0,))
                    if n == 0 and count != oracles.iso_class_count(doc):
                        problems.append(f"{count} classes != {oracles.iso_class_count(doc)} iso classes")
                    if n == 1:
                        if not 1 <= count <= len(doc["morphisms"]):
                            problems.append(f"{count} arrow classes out of range")
                        if arrow_classes.setdefault(name, count) != count:
                            problems.append(f"arrow classes differ between caps at cap {cap}")
                    return problems

                ops.append(cli_op(
                    phl, f"tau0 delta{n} {category.name} cap{cap}",
                    ["tau0", simplices[n, cap], nerve_path, "--cap", str(cap), "--guard", str(GUARD)],
                    tau0_check,
                ))
    return ops


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

#: (monad, input document, cap): the free category on a loop and on the
#: 2-cycle at cap 4, the free monoid on one letter at cap 4 and on two
#: letters at cap 3.  The free monoid on one letter at cap 5 materialises
#: every triple and needs more than 4 GB, so it is left out.
LAW_CASES = (
    ("category", "graph_loop", 4),
    ("category", "graph_cycle2", 4),
    ("monoid", "set1", 4),
    ("monoid", "set2", 3),
)
RETRACT_CASES = ((4, 3), (3, 4))  # (elements, cap)
TOWER_GRAPHS = (
    "vertex", "two_vertices", "edge", "loop", "two_loops", "looped_pair", "parallel", "cycle2",
)
#: n_max = cap of the towers.  The 16 towers (5-15 ms each) and one C8 map
#: per pair put the median operation of a round inside a cluster of
#: similar 8-10 ms costs.  With 8 towers and three maps per pair, the
#: median fell between the 1-3 ms C8 calls and the 8 ms ones, and it
#: jumped between the two from run to run.
TOWER_DEPTHS = (2, 3)
ANODYNE_DEPTH = 5


def _free_size_problems(phl, monad, doc, cap):
    if monad == "monoid":
        tx = phl.monads.FreeMonoidMonad(cap).apply(phl.documents.parse_document(doc))
        size = len(tx.obj.cells["element"])
        expected = oracles.free_monoid_size(len(doc["elements"]), cap)
    else:
        tx = phl.monads.FreeCategoryMonad(cap).apply(phl.documents.parse_document(doc))
        size = len(tx.obj.cells["edge"])
        expected = oracles.free_category_edges(doc, cap)
    return [] if size == expected else [f"free object has {size} cells, closed form {expected}"]


def _steps_problems(phl, witness, document):
    problems = []
    if not phl.witnesses.validate_saturation(witness.steps):
        problems.append("saturation steps do not re-verify")
    steps = [{"rule": s.rule, "description": s.description} for s in witness.steps]
    if document["steps"] != steps:
        problems.append("reported steps differ from the re-built witness")
    return problems


def _algebra(phl, seed, workdir):
    corpus = workdir / "corpus"
    phl.fixtures.emit_fixture_corpus(corpus)
    parse = phl.documents.parse_document
    heavy, light = [], []  # operations, and units of light operations

    for monad, name, cap in LAW_CASES:
        doc = _read_json(corpus / f"{name}.json")
        x = parse(doc)
        monad_cls = phl.monads.FreeMonoidMonad if monad == "monoid" else phl.monads.FreeCategoryMonad

        def laws_check(report, monad=monad, doc=doc, cap=cap):
            problems = [] if report.ok else [f"law failures {report.failures[:3]}"]
            if report.assoc_checked <= 0:
                problems.append("no associativity instance checked")
            return problems + _free_size_problems(phl, monad, doc, cap)

        heavy.append(library_op(
            phl, f"laws {monad} {name} cap{cap}",
            lambda monad_cls=monad_cls, cap=cap, x=x: phl.monads.check_monad_laws(
                monad_cls(cap), x, guard=GUARD
            ),
            lambda r: (r.ok, r.assoc_checked, r.skipped_count, len(r.failures)),
            laws_check,
        ))

    for size, cap in RETRACT_CASES:
        doc = {"kind": "set", "elements": [f"x{i}" for i in range(size)]}
        path = _write(workdir / f"set_x{size}.json", json.dumps(doc))
        out = str(workdir / f"retract_x{size}_cap{cap}.json")

        def retract_check(value, doc=doc, cap=cap):
            code, report, written = value
            problems = _exit_code(code, (0,))
            if problems:
                return problems
            w = json.loads(written)
            for key in ("eta", "middle", "s", "r", "u", "v"):
                problems += [f"{key}: {p}" for p in oracles.map_problems(w[key])]
            if not oracles.is_identity_table(oracles.compose(w["s"]["on"], w["r"]["on"])):
                problems.append("r∘s is not the identity")
            if not oracles.is_identity_table(oracles.compose(w["u"]["on"], w["v"]["on"])):
                problems.append("v∘u is not the identity")
            words = len(w["eta"]["codomain"]["elements"])
            if words != oracles.free_monoid_size(len(doc["elements"]), cap):
                problems.append(f"T(X) has {words} words, closed form disagrees")
            witness = phl.witnesses.m2_retract_set(parse(doc), cap=cap)
            return problems + _steps_problems(phl, witness, w)

        heavy.append(cli_op(
            phl, f"witness-m2 retract x{size} cap{cap}",
            ["witness-m2", path, "--monad", "monoid", "--cap", str(cap),
             "--guard", str(GUARD), "--out", out],
            retract_check, out=out,
        ))

    for depth in TOWER_DEPTHS:
        for name in TOWER_GRAPHS:
            path = str(corpus / f"graph_{name}.json")
            out = str(workdir / f"tower_{name}_{depth}.json")

            def tower_check(value, path=path, depth=depth):
                code, report, written = value
                problems = _exit_code(code, (0,))
                if problems:
                    return problems
                w, doc = json.loads(written), _read_json(path)
                if w["shortfall"] is not None or len(w["stages"]) != depth + 1:
                    problems.append("tower is short of its stages")
                for m in [w["section"]] + w["h"] + w["k"]:
                    problems += oracles.map_problems(m)
                if not oracles.is_identity_table(oracles.compose(w["section"]["on"], w["k"][-1]["on"])):
                    problems.append("k∘section is not the probe inclusion")
                paths = len(w["k"][-1]["codomain"]["edges"])
                if paths != oracles.free_category_edges(doc, depth):
                    problems.append(f"T(G) has {paths} paths, closed form disagrees")
                witness = phl.witnesses.m2_tower_graph(parse(doc), n_max=depth, cap=depth)
                return problems + _steps_problems(phl, witness, w)

            light.append([cli_op(
                phl, f"witness-m2 tower {name} depth{depth}",
                ["witness-m2", path, "--monad", "category", "--nmax", str(depth),
                 "--cap", str(depth), "--guard", str(GUARD), "--out", out],
                tower_check, out=out,
            )])

    family_out = str(workdir / f"anodyne_graphI_d{ANODYNE_DEPTH}.json")

    def anodyne_check(value):
        code, report, written = value
        problems = _exit_code(code, (0,))
        if problems:
            return problems
        family = json.loads(written)
        if report["report"]["entries"] != len(family["entries"]):
            problems.append("report and document disagree on the entry count")
        for entry in family["entries"]:
            problems += oracles.map_problems(entry["arrow"])
            if not oracles.is_injective(entry["arrow"]):
                problems.append(f"entry {entry['provenance']} is not mono")
        if family["pre_dedup_counts"]["0"] != 2 * family["generator_count"]:
            problems.append("level 0 is not twice the generators before dedup")
        again = phl.documents.canonical_json(phl.documents.family_to_document(parse(written)))
        if again != written:
            problems.append("family document does not round-trip")
        return problems

    heavy.append(cli_op(
        phl, f"anodyne graphI d{ANODYNE_DEPTH}",
        ["anodyne", "--instance", "graphI", "--depth", str(ANODYNE_DEPTH),
         "--guard", str(GUARD), "--out", family_out],
        anodyne_check, out=family_out,
    ))

    graph_docs = {
        name: _read_json(corpus / f"graph_{name}.json") for name in ("loop", "two_loops")
    }
    graph_docs["looped_cycle"] = {
        "kind": "graph", "vertices": ["a", "b"],
        "edges": [["e", "a", "b"], ["f", "b", "a"], ["la", "a", "a"], ["lb", "b", "b"]],
    }
    rng = random.Random(seed)
    sample = []
    for x in C8_GRAPHS:
        for y in C8_GRAPHS:
            maps = oracles.all_maps(graph_docs[x], graph_docs[y])
            idx = rng.randrange(len(maps))
            sample.append((f"{x}_to_{y}_{idx}", maps[idx]))
    algebras = [
        parse(corpus / f"cat_{a.name}.json") for a in phl.fixtures.we_algebras("graph")
    ]
    instance = phl.cylinder.get_instance("graphI")
    verdicts = {}
    for label, doc in sample:
        f = parse(_write(workdir / f"c8_{label}.json", json.dumps(doc)))

        def tweq_check(verdict, label=label):
            verdicts[label] = verdict.ok
            return []

        def alt_check(report, label=label):
            if report.found != verdicts.get(label):
                return [f"C8 disagreement on {label}: tweq {verdicts.get(label)}, alt {report.found}"]
            return []

        light.append([library_op(
            phl, f"tweq {label}",
            lambda f=f: phl.equivalence.is_t_weak_equivalence(instance, f, algebras, guard=GUARD),
            lambda v: (v.ok, tuple(tuple(vars(r).values()) for r in v.records)),
            tweq_check,
        ), library_op(
            phl, f"alt-we {label}",
            lambda f=f: phl.equivalence.alternative_we_check(
                instance, phl.monads.FreeCategoryMonad(2), f, guard=GUARD
            ),
            lambda r: r.found,
            alt_check,
        )])

    # Spread the light operations between the heavy ones, so the median
    # operation is timed in many short windows across the round, not in one
    # burst that a few seconds of machine slow-down would shift as a whole.
    ops = []
    for i, op in enumerate(heavy):
        ops.append(op)
        for unit in light[i::len(heavy)]:
            ops.extend(unit)
    return ops


def build(name, phl, seed, workdir):
    """Write the workload's input documents and return its operations."""
    if name == "fibrancy":
        return _fibrancy(phl, seed, workdir)
    if name == "horns":
        return _horns(phl, seed, workdir)
    if name == "algebra":
        return _algebra(phl, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
