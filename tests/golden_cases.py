"""Golden CLI reports: the cases, the documents they read, and a runner.

Every case is one ``phl`` invocation run in-process through
``phl.cli.main`` from inside a work directory, so its arguments hold only
relative paths.  The golden files under ``tests/golden/`` hold, per
subcommand, every case's arguments, exit code and the exact report text,
split into lines so that a changed report shows as a short diff.  A case
that writes an ``--out`` document records that document's text as well; a
case whose ``--out`` is a directory records the text of every file in it.

    python tests/golden_cases.py run DIR   # write inputs under DIR, run, print JSON
    python tests/golden_cases.py write     # regenerate tests/golden/ from phl on the path

``test_golden.py`` runs the cases in child processes under fixed
``PYTHONHASHSEED`` values and compares every report byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
GUARD = "10000000"
#: The z2 loop carrier against the graphI depth-1 family has 67,109,924
#: squares.  The counted verdict passes within a guard of 2000 candidates;
#: a guard of 10 stops its prefix walk, which keeps a resource failure
#: among the cases.
Z2_GUARD = "2000"
Z2_FAILING_GUARD = "10"
CAPS = (3, 4)
#: nerve cap -> horn dimensions of the ``horn-fill`` cases, every k each; cap
#: 5 has the dimensions of the ``horns`` benchmark's cap-5 cases
HORN_DIMS = {3: range(1, 4), 4: range(1, 5), 5: range(2, 4)}
FAMILY_DEPTHS = {"set2": range(3), "graphI": range(3)}
FIBRANT_DEPTHS = range(2)
WITNESS_CAPS = (1, 2, 3)
#: the simplicial instances whose families (written out, so that their
#: corners are pinned) and EHD checks have cases, at these caps and depths
SSET_INSTANCES = ("sset-delta1", "sset-jinf")
SSET_CAPS = (1, 2)
SSET_DEPTHS = range(2)
#: instance -> base of the algebras and corpus monos its ``tweq`` cases use
TWEQ_INSTANCES = {"set2": "set", "graphI": "graph"}
#: (instance, corpus stem of X, corpus stem of Y): every ordered pair of maps
#: X -> Y is one ``homotopy`` case
HOMOTOPY_HOMS = (
    ("set2", "set0", "set1"), ("set2", "set1", "set2"), ("set2", "set2", "set2"),
    ("graphI", "graph_vertex", "graph_edge"), ("graphI", "graph_edge", "graph_cycle2"),
    ("graphI", "graph_loop", "graph_two_loops"), ("graphI", "graph_loop", "graph_looped_pair"),
    ("graphI", "graph_two_vertices", "graph_edge"),
    ("graphI", "graph_edge", "graph_looped_edge"),
)


def _corpus_monos(base):
    from phl import fixtures

    return {"set": fixtures.corpus_monos_set, "graph": fixtures.corpus_monos_graph}[base]()


def prepare(workdir: Path):
    """Write the corpus, the nerves, the simplices, the families, the corpus
    monos, one directory of probe algebras per base, the maps of the
    ``homotopy`` cases and the squares of the ``lift`` cases."""
    from phl import documents, fixtures, lifting, simplicial
    from phl.cylinder import get_instance

    def write(name, doc):
        (workdir / name).write_text(documents.canonical_json(doc), encoding="utf-8")

    fixtures.emit_fixture_corpus(workdir / "corpus")
    for category in fixtures.corpus_categories():
        for cap in HORN_DIMS:
            write(f"nerve_{category.name}_cap{cap}.json",
                  documents.object_to_document(simplicial.nerve(category, cap)))
    for n in (0, 1):
        write(f"delta{n}_cap3.json", documents.object_to_document(simplicial.delta(n, 3)))
    for instance, depths in FAMILY_DEPTHS.items():
        for depth in depths:
            family = lifting.generate_anodyne(get_instance(instance), [], depth=depth)
            write(f"family_{instance}_d{depth}.json", documents.family_to_document(family))
    (workdir / "out").mkdir(exist_ok=True)
    for base in TWEQ_INSTANCES.values():
        for i, mono in enumerate(_corpus_monos(base)):
            write(f"mono_{base}{i}.json", documents.map_to_document(mono))
        (workdir / f"algebras_{base}").mkdir(exist_ok=True)
        for algebra in fixtures.we_algebras(base):
            write(f"algebras_{base}/{algebra.name}.json", documents.algebra_to_document(algebra))
    for (_, x, y), homs in _homotopy_homs().items():
        for i, f in enumerate(homs):
            write(f"hom_{x}__{y}_{i}.json", documents.map_to_document(f))
    for name, _, _, square in _lift_squares():
        write(f"square_{name}.json", square)


def _homotopy_homs():
    """Per entry of ``HOMOTOPY_HOMS``, the maps X -> Y in enumeration order."""
    from phl import core, fixtures

    objects = {f"set{i}": x for i, x in enumerate(fixtures.corpus_sets())}
    objects.update((f"graph_{name}", g) for name, g in fixtures.corpus_graphs().items())
    return {
        (instance, x, y): list(core.search_maps(objects[x], objects[y]))
        for instance, x, y in HOMOTOPY_HOMS
    }


def _lift_squares():
    """(name, corner stem, algebra stem or None, square document): one
    square over carrier -> 1 per top map from an endpoint corner of a mono
    j, which the document records as its provenance.  In the
    ``two_vertices`` corners K has no loops, so the explicit category lift
    has no thread connector to build from."""
    from phl import core, documents, fixtures
    from phl.cylinder import corner_endpoint, get_instance

    looped = core.fin_graph(["a"], [("la", "a", "a")])
    looped_edge = core.fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b")])
    j_loop = core.PresheafMap(looped, looped_edge, {"vertex": {"a": "a"}, "edge": {"la": "la"}})
    set_mono = fixtures.corpus_monos_set()[1]
    vertex_mono, two_vertices_mono = fixtures.corpus_monos_graph()[1:3]
    gpd, chain2 = fixtures.groupoid_interval(), fixtures.chain2_category()
    corners = (
        ("point_in_pair__set2", "set2", set_mono, fixtures.corpus_sets()[2], None),
        ("vertex_in_edge__chain2", "graphI", vertex_mono,
         fixtures.corpus_graphs()["chain2"], None),
        ("loop_in_looped_edge__gpd", "graphI", j_loop, gpd.underlying_graph(),
         "cat_groupoid_interval"),
        ("loop_in_looped_edge__chain2cat", "graphI", j_loop, chain2.underlying_graph(),
         "cat_chain2"),
        ("two_vertices_in_edge__gpd", "graphI", two_vertices_mono, gpd.underlying_graph(),
         "cat_groupoid_interval"),
    )
    out = []
    for stem, instance, j, carrier, algebra in corners:
        for e in (0, 1):
            corner = corner_endpoint(get_instance(instance), j, e)
            for i, top in enumerate(core.search_maps(corner.domain, carrier)):
                out.append((f"{stem}_e{e}_t{i}", stem, algebra, {
                    "kind": "square",
                    "left": documents.map_to_document(corner.arrow),
                    "right": documents.map_to_document(core.bang(carrier)),
                    "top": documents.map_to_document(top),
                    "bottom": documents.map_to_document(core.bang(corner.codomain)),
                    "corner": {
                        "instance": instance, "j": documents.map_to_document(j), "endpoint": e,
                    },
                }))
    return out


def cases():
    """(subcommand, case name, argv) in a fixed order."""
    from phl import fixtures

    categories = [c.name for c in fixtures.corpus_categories()]
    out = []
    for name in categories:
        for cap, dims in HORN_DIMS.items():
            for n in dims:
                for k in range(n + 1):
                    out.append(("horn-fill", f"{name}_cap{cap}_n{n}_k{k}", [
                        "horn-fill", f"nerve_{name}_cap{cap}.json", "--n", str(n),
                        "--k", str(k), "--cap", str(cap), "--guard", GUARD,
                    ]))
    for name in categories:
        for n in (0, 1):
            out.append(("tau0", f"delta{n}_{name}_cap3", [
                "tau0", f"delta{n}_cap3.json", f"nerve_{name}_cap3.json",
                "--cap", "3", "--guard", GUARD,
            ]))
    carriers = [("set2", f"set{i}") for i in range(len(fixtures.corpus_sets()))]
    carriers += [("set2", f"monoid_{m.name}") for m in fixtures.corpus_monoids()]
    carriers += [("graphI", f"cat_{name}") for name in categories]
    fibrant = [
        (instance, stem, depth, Z2_GUARD if (stem, depth) == ("cat_z2_loop", 1) else GUARD, "")
        for instance, stem in carriers for depth in FIBRANT_DEPTHS
    ]
    fibrant.append(("graphI", "cat_z2_loop", 1, Z2_FAILING_GUARD, f"_guard{Z2_FAILING_GUARD}"))
    for instance, stem, depth, guard, suffix in fibrant:
        out.append(("fibrant", f"{stem}_{instance}_d{depth}{suffix}", [
            "fibrant", f"corpus/{stem}.json", "--family",
            f"family_{instance}_d{depth}.json", "--instance", instance,
            "--depth", str(depth), "--guard", guard,
        ]))
    for instance, depths in FAMILY_DEPTHS.items():
        for depth in depths:
            out.append(("anodyne", f"{instance}_d{depth}", [
                "anodyne", "--instance", instance, "--depth", str(depth), "--guard", GUARD,
            ]))
    for instance in SSET_INSTANCES:
        for cap in SSET_CAPS:
            for depth in SSET_DEPTHS:
                name = f"{instance}_cap{cap}_d{depth}"
                out.append(("anodyne", name, [
                    "anodyne", "--instance", instance, "--cap", str(cap), "--depth", str(depth),
                    "--guard", GUARD, "--out", f"out/anodyne_{name}.json",
                ]))
    graphs = list(fixtures.corpus_graphs())
    for x in graphs:
        for y in graphs:
            out.append(("classes", f"{x}__{y}", [
                "classes", f"corpus/graph_{x}.json", f"corpus/graph_{y}.json",
                "--instance", "graphI", "--guard", GUARD,
            ]))
    for i in range(len(fixtures.corpus_sets())):
        for cap in WITNESS_CAPS:
            out.append(("witness-m2", f"set{i}_monoid_cap{cap}", [
                "witness-m2", f"corpus/set{i}.json", "--monad", "monoid", "--cap", str(cap),
                "--guard", GUARD, "--out", f"out/set{i}_monoid_cap{cap}.json",
            ]))
    stems = [f"graph_{x}" for x in graphs] + [f"linchain{n}" for n in range(4)]
    for stem in stems:
        for nmax, cap in [(c, c) for c in WITNESS_CAPS] + [(1, 3)]:
            name = f"{stem}_category_n{nmax}_cap{cap}"
            out.append(("witness-m2", name, [
                "witness-m2", f"corpus/{stem}.json", "--monad", "category", "--nmax", str(nmax),
                "--cap", str(cap), "--guard", GUARD, "--out", f"out/{name}.json",
            ]))
    for name in categories:
        for cap in CAPS:
            out.append(("nerve", f"{name}_cap{cap}", [
                "nerve", f"corpus/cat_{name}.json", "--cap", str(cap),
                "--out", f"out/nerve_{name}_cap{cap}.json",
            ]))
    out.append(("fixtures", "corpus", ["fixtures", "--out", "out/fixtures"]))
    out.append(("verify", "core", ["verify"]))
    for instance in ("set2", "graphI"):
        out.append(("check-ehd", instance, ["check-ehd", "--instance", instance]))
    for instance in SSET_INSTANCES:
        for cap in SSET_CAPS:
            out.append(("check-ehd", f"{instance}_cap{cap}", [
                "check-ehd", "--instance", instance, "--cap", str(cap),
            ]))
    for instance, base in TWEQ_INSTANCES.items():
        for i in range(len(_corpus_monos(base))):
            out.append(("tweq", f"{base}{i}_{instance}", [
                "tweq", f"mono_{base}{i}.json", "--algebras", f"algebras_{base}",
                "--instance", instance, "--guard", GUARD,
            ]))
    for (instance, x, y), homs in _homotopy_homs().items():
        for i in range(len(homs)):
            for j in range(len(homs)):
                out.append(("homotopy", f"{x}__{y}_{i}_{j}", [
                    "homotopy", f"hom_{x}__{y}_{i}.json", f"hom_{x}__{y}_{j}.json",
                    "--instance", instance, "--guard", GUARD,
                ]))
    out.append(("homotopy", "not_parallel", [
        "homotopy", "hom_set1__set2_0.json", "hom_set2__set2_0.json",
        "--instance", "set2", "--guard", GUARD,
    ]))
    out.append(("homotopy", "graph_maps_under_set2", [
        "homotopy", "hom_graph_vertex__graph_edge_0.json", "hom_graph_vertex__graph_edge_1.json",
        "--instance", "set2", "--guard", GUARD,
    ]))
    # Each square is solved by search and by the explicit lift its corner
    # admits.  The loopless two_vertices corners and the monoid lift of one
    # graph square are there for their refusals, so one square each does.
    for name, stem, algebra, _ in _lift_squares():
        square = ["lift", "--square", f"square_{name}.json"]
        if not stem.startswith("two_vertices"):
            out.append(("lift", f"search_{name}", square + ["--guard", GUARD]))
        if stem.endswith("set2") or name == "loop_in_looped_edge__gpd_e0_t0":
            out.append(("lift", f"monoid_{name}", square + ["--explicit", "monoid"]))
        if algebra is not None and (not stem.startswith("two_vertices") or name.endswith("_t0")):
            out.append(("lift", f"category_{name}", square + [
                "--explicit", "category", "--algebra", f"corpus/{algebra}.json",
            ]))
    return out


def _written(path: Path):
    """The lines of the file at ``path``, or per file name those of every
    file in the directory ``path``; nothing if it was not written."""
    if path.is_dir():
        return {f.name: _written(f) for f in sorted(path.iterdir())}
    return path.read_text(encoding="utf-8").splitlines(keepends=True) if path.exists() else []


def run(workdir: Path) -> dict:
    """Prepare ``workdir`` and run every case from inside it."""
    from phl.cli import main

    workdir.mkdir(parents=True, exist_ok=True)
    prepare(workdir)
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command, name, argv in cases():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            result = results.setdefault(command, {})[name] = {
                "argv": argv, "exit": code,
                "stdout": buffer.getvalue().splitlines(keepends=True),
            }
            if "--out" in argv:
                result["out"] = _written(Path(argv[argv.index("--out") + 1]))
    finally:
        os.chdir(cwd)
    return results


def load(command: str) -> dict:
    return json.loads((GOLDEN / f"{command}.json").read_text(encoding="utf-8"))


def main(argv):
    if len(argv) == 2 and argv[0] == "run":
        sys.stdout.write(json.dumps(run(Path(argv[1]))))
        return 0
    if len(argv) == 1 and argv[0] == "write":
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            results = run(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for command, table in results.items():
            text = json.dumps(table, sort_keys=True, indent=1) + "\n"
            (GOLDEN / f"{command}.json").write_text(text, encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
