import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden_cases
import phl
from phl import cli, core
from phl.cli import main, run_command
from phl.documents import (
    canonical_json,
    category_to_document,
    map_to_document,
    monoid_to_document,
    object_to_document,
    parse_document,
)
from phl.fixtures import chain2_category, corpus_monoids, emit_fixture_corpus, groupoid_interval
from phl.lifting import LiftingProblem, solve_lift

from conftest import enumerate_homs


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("corpus")
    emit_fixture_corpus(target)
    return target


class TestParseDocument:
    def test_graph_roundtrip(self):
        g = core.fin_graph(["a", "b"], [("e", "a", "b")])
        assert parse_document(object_to_document(g)) == g

    def test_non_associative_monoid_names_triple(self):
        doc = {
            "kind": "monoid",
            "elements": ["e", "a", "b"],
            "unit": "e",
            "table": {
                "e": {"e": "e", "a": "a", "b": "b"},
                "a": {"e": "a", "a": "b", "b": "e"},
                "b": {"e": "b", "a": "a", "b": "a"},
            },
        }
        with pytest.raises(core.ValidationError, match="triple"):
            parse_document(doc)

    def test_map_with_missing_cell_names_it(self):
        doc = {
            "kind": "map",
            "domain": {"kind": "set", "elements": ["x", "y"]},
            "codomain": {"kind": "set", "elements": ["p"]},
            "on": {"element": {"x": "p"}},
        }
        with pytest.raises(core.ValidationError, match="'y'"):
            parse_document(doc)

    def test_monoid_roundtrip(self):
        for m in corpus_monoids():
            doc = monoid_to_document(m)
            again = parse_document(doc)
            assert monoid_to_document(again) == doc

    def test_category_roundtrip(self):
        doc = category_to_document(groupoid_interval())
        assert category_to_document(parse_document(doc)) == doc

    def test_sset_roundtrip(self):
        from phl.simplicial import nerve

        obj = nerve(chain2_category(), 2)
        assert parse_document(object_to_document(obj)) == obj

    def test_corpus_roundtrips(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.json")):
            parsed = parse_document(path)
            assert parsed is not None

    def test_a_string_not_opening_an_object_is_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(core.ValidationError, match=r"^nope\.txt cannot be read: "):
            parse_document("nope.txt")
        Path("set.txt").write_text(' {"kind": "set", "elements": ["x"]}', encoding="utf-8")
        assert parse_document("set.txt") == core.fin_set(["x"])
        assert parse_document(Path("set.txt").read_text(encoding="utf-8")) == core.fin_set(["x"])


class TestRunCommand:
    def test_classes_exit_zero(self, corpus_dir):
        code, report = run_command(
            ["classes", str(corpus_dir / "set1.json"), str(corpus_dir / "set2.json"),
             "--instance", "set2"]
        )
        assert code == 0
        assert report["report"]["class_count"] == 1

    def test_fibrant_counterexample_exit_one(self, corpus_dir, tmp_path):
        code, report = run_command(
            ["anodyne", "--instance", "graphI", "--depth", "0",
             "--out", str(tmp_path / "family.json")]
        )
        assert code == 0
        code, report = run_command(
            ["fibrant", str(corpus_dir / "graph_chain2.json"),
             "--family", str(tmp_path / "family.json")]
        )
        assert code == 1
        counterexample = report["report"]["counterexample"]
        # the emitted counterexample re-verifies as one
        family = parse_document(tmp_path / "family.json")
        entry = next(e for e in family.entries if e.provenance == counterexample["entry"])
        problem = LiftingProblem(
            entry.arrow,
            core.bang(parse_document(corpus_dir / "graph_chain2.json")),
            parse_document(counterexample["top"]),
            parse_document(counterexample["bottom"]),
        )
        assert solve_lift(problem) is None

    def test_fibrant_echoes_the_family_instance_and_depth(self, corpus_dir, tmp_path):
        family = str(tmp_path / "family.json")
        assert run_command(["anodyne", "--instance", "set2", "--depth", "1", "--out", family])[0] == 0
        code, report = run_command(["fibrant", str(corpus_dir / "monoid_z2.json"),
                                    "--family", family, "--instance", "set2"])
        assert code == 0
        assert report["parameters"]["instance"] == "set2"
        assert report["parameters"]["depth"] == report["report"]["depth"] == 1

    def test_homotopy_exit_codes(self, corpus_dir, tmp_path):
        loop = core.fin_graph(["a"], [("l", "a", "a")])
        pair = parse_document(corpus_dir / "graph_looped_pair.json")
        f = core.PresheafMap(loop, pair, {"vertex": {"a": "p"}, "edge": {"l": "lp"}})
        g = core.PresheafMap(loop, pair, {"vertex": {"a": "q"}, "edge": {"l": "lq"}})
        fp = tmp_path / "f.json"
        gp = tmp_path / "g.json"
        fp.write_text(canonical_json(map_to_document(f)), encoding="utf-8")
        gp.write_text(canonical_json(map_to_document(g)), encoding="utf-8")
        code, report = run_command(["homotopy", str(fp), str(fp)])
        assert code == 0 and report["report"]["homotopic"]
        code, report = run_command(["homotopy", str(fp), str(gp)])
        assert code == 1 and not report["report"]["homotopic"]

    def test_tweq_table(self, corpus_dir, tmp_path):
        x = core.fin_graph(["0"], [])
        f = core.PresheafMap(x, x, {"vertex": {"0": "0"}, "edge": {}})
        fp = tmp_path / "id.json"
        fp.write_text(canonical_json(map_to_document(f)), encoding="utf-8")
        algebra_dir = tmp_path / "algebras"
        algebra_dir.mkdir()
        (algebra_dir / "gpd.json").write_text(
            canonical_json(category_to_document(groupoid_interval())), encoding="utf-8"
        )
        code, report = run_command(
            ["tweq", str(fp), "--algebras", str(algebra_dir), "--instance", "graphI"]
        )
        assert code == 0
        assert report["report"]["per_algebra"][0]["algebra"] == "groupoid_interval"

    def test_witness_commands(self, corpus_dir, tmp_path):
        code, report = run_command(
            ["witness-m2", str(corpus_dir / "set2.json"), "--monad", "monoid",
             "--cap", "2", "--out", str(tmp_path / "w.json")]
        )
        assert code == 0 and report["report"]["verified"]
        code, report = run_command(
            ["witness-m2", str(corpus_dir / "graph_loop.json"), "--monad", "category",
             "--nmax", "2", "--cap", "2"]
        )
        assert code == 0

    def test_nerve_horn_tau0(self, corpus_dir, tmp_path):
        nerve_path = tmp_path / "nerve.json"
        code, _ = run_command(
            ["nerve", str(corpus_dir / "cat_chain2.json"), "--cap", "2",
             "--out", str(nerve_path)]
        )
        assert code == 0
        code, report = run_command(["horn-fill", str(nerve_path), "--n", "2", "--k", "0"])
        assert code == 1
        code, report = run_command(["horn-fill", str(nerve_path), "--n", "2", "--k", "1"])
        assert code == 0
        d0 = tmp_path / "d0.json"
        from phl.simplicial import delta

        d0.write_text(canonical_json(object_to_document(delta(0, 2))), encoding="utf-8")
        code, report = run_command(["tau0", str(d0), str(nerve_path), "--cap", "2"])
        assert code == 0
        # the three poset objects are pairwise non-isomorphic
        assert report["report"]["class_count"] == 3

    def test_anodyne_with_seeds_document(self, corpus_dir, tmp_path):
        code, report = run_command(
            ["anodyne", "--instance", "graphI",
             "--seeds", str(corpus_dir / "seeds_graphI.json"), "--depth", "0"]
        )
        assert code == 0
        assert report["report"]["pre_dedup_counts"]["0"] == 6

    def test_anodyne_with_an_empty_generator_list_has_no_generators(self, tmp_path):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(canonical_json(
            {"kind": "seeds", "instance": "graphI", "seeds": [], "generators": []}
        ), encoding="utf-8")
        code, report = run_command(
            ["anodyne", "--instance", "graphI", "--seeds", str(seeds), "--depth", "0"]
        )
        assert code == 0
        assert report["report"]["entries"] == 0
        assert report["report"]["pre_dedup_counts"] == {"0": 0}

    def test_anodyne_takes_its_instance_from_the_seeds(self, corpus_dir):
        seeds = str(corpus_dir / "seeds_set2.json")
        code, report = run_command(["anodyne", "--seeds", seeds, "--depth", "1"])
        assert code == 0
        assert report["parameters"]["instance"] == "set2"
        assert (code, report) == run_command(
            ["anodyne", "--instance", "set2", "--seeds", seeds, "--depth", "1"]
        )

    def test_lift_explicit_category(self, corpus_dir, tmp_path):
        from phl.cylinder import corner_endpoint, graph_instance

        instance = graph_instance()
        k = core.fin_graph(["a"], [("la", "a", "a")])
        l = core.fin_graph(["a", "b"], [("la", "a", "a"), ("e", "a", "b")])
        j = core.PresheafMap(k, l, {"vertex": {"a": "a"}, "edge": {"la": "la"}})
        corner = corner_endpoint(instance, j, 0)
        gpd = groupoid_interval()
        carrier = gpd.underlying_graph()
        top = enumerate_homs(corner.domain, carrier)[0]
        square = {
            "kind": "square",
            "left": map_to_document(corner.arrow),
            "right": map_to_document(core.bang(carrier)),
            "top": map_to_document(top),
            "bottom": map_to_document(core.bang(corner.codomain)),
            "corner": {"instance": "graphI", "j": map_to_document(j), "endpoint": 0},
        }
        square_path = tmp_path / "square.json"
        square_path.write_text(canonical_json(square), encoding="utf-8")
        algebra_path = tmp_path / "gpd.json"
        algebra_path.write_text(
            canonical_json(category_to_document(gpd)), encoding="utf-8"
        )
        code, report = run_command(
            ["lift", "--square", str(square_path), "--explicit", "category",
             "--algebra", str(algebra_path)]
        )
        assert code == 0
        diagonal = parse_document(report["report"]["diagonal"])
        assert corner.arrow.then(diagonal) == top

    def test_report_round_trips_canonically(self):
        import json

        code, report = run_command(["verify"])
        text = canonical_json(report)
        assert canonical_json(json.loads(text)) == text

    def test_lift_solver_and_explicit(self, tmp_path):
        from phl.cylinder import corner_endpoint, set_instance

        instance = set_instance()
        k = core.fin_set(["p"])
        l = core.fin_set(["p", "q"])
        j = core.PresheafMap(k, l, {"element": {"p": "p"}})
        corner = corner_endpoint(instance, j, 0)
        carrier = core.fin_set(["0", "1"])
        top = enumerate_homs(corner.domain, carrier)[1]
        square = {
            "kind": "square",
            "left": map_to_document(corner.arrow),
            "right": map_to_document(core.bang(carrier)),
            "top": map_to_document(top),
            "bottom": map_to_document(core.bang(corner.codomain)),
            "corner": {
                "instance": "set2",
                "j": map_to_document(j),
                "endpoint": 0,
            },
        }
        path = tmp_path / "square.json"
        path.write_text(canonical_json(square), encoding="utf-8")
        code, report = run_command(["lift", "--square", str(path)])
        assert code == 0 and report["report"]["lift"]
        code, report = run_command(["lift", "--square", str(path), "--explicit", "monoid"])
        assert code == 0
        diagonal = parse_document(report["report"]["diagonal"])
        assert corner.arrow.then(diagonal) == top

    def test_verify_suite(self):
        code, report = run_command(["verify"])
        assert code == 0
        assert report["report"]["ok"]

    def test_usage_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "widget"}', encoding="utf-8")
        assert main(["classes", str(bad), str(bad)]) == 2

    def test_anodyne_sset_lists_boundary_corners(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        assert main(["anodyne", "--instance", "sset-delta1", "--cap", "2",
                     "--depth", "0", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        # one generator per boundary inclusion of the n-simplex, n <= cap
        assert report["pre_dedup_counts"] == {"0": 6}
        family = parse_document(out)
        assert [e.provenance for e in family.entries] == [
            f"endpoint-corner[{n},e={e}]" for n in range(3) for e in (0, 1)
        ]

    def test_fibrant_refuses_a_family_as_object(self, corpus_dir, capsys):
        family = str(corpus_dir / "family_graphI_d1.json")
        assert main(["fibrant", family, "--family", family]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["kind"] == "validation"
        assert error["error"] == (
            f"{family} is not an object, monoid or category document"
        )

    def test_fibrant_refuses_an_object_as_family(self, corpus_dir, capsys):
        obj = str(corpus_dir / "graph_loop.json")
        assert main(["fibrant", obj, "--family", obj]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error == {"error": f"{obj} is not a family document", "kind": "validation"}

    def test_guard_error_exit_two(self, corpus_dir):
        assert (
            main(
                ["classes", str(corpus_dir / "set4.json"), str(corpus_dir / "set4.json"),
                 "--instance", "set2", "--guard", "5"]
            )
            == 2
        )


def _record_reads(monkeypatch):
    """The list that every later ``Path.read_text`` appends its path to."""
    opened, read_text = [], Path.read_text

    def recorded(path, *args, **kwargs):
        opened.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", recorded)
    return opened


def _refusal(argv, capsys):
    """Exit code and validation error text of a refused invocation."""
    code = main(argv)
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "validation"
    return code, error["error"]


class TestRefusals:
    """Bad documents and missing parameters exit 2 with a validation error."""

    @pytest.mark.parametrize("argv, culprit", [
        (["homotopy", "set1.json", "set1.json"], "set1.json"),
        (["classes", "monoid_z2.json", "set1.json", "--instance", "set2"], "monoid_z2.json"),
        (["lift", "--square", "set1.json"], "set1.json"),
        (["tweq", "graph_loop.json", "--algebras", "."], "graph_loop.json"),
        (["witness-m2", "graph_loop.json", "--monad", "monoid", "--cap", "2"], "graph_loop.json"),
        (["witness-m2", "set1.json", "--monad", "category", "--cap", "2"], "set1.json"),
        (["horn-fill", "graph_loop.json", "--n", "1", "--k", "0"], "graph_loop.json"),
        (["tau0", "set1.json", "set1.json", "--cap", "2"], "set1.json"),
        (["anodyne", "--seeds", "set1.json"], "set1.json"),
    ])
    def test_wrong_kind_names_the_file(self, corpus_dir, capsys, argv, culprit):
        argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
        code, error = _refusal(argv, capsys)
        assert code == 2
        assert error.startswith(str(corpus_dir / culprit) + " is not a")

    def test_monoids_are_not_category_documents(self, corpus_dir, capsys):
        monoid = str(corpus_dir / "monoid_z2.json")
        assert _refusal(["nerve", monoid, "--cap", "2"], capsys) == (
            2, "nerve needs a category document"
        )

    @pytest.mark.parametrize("instance, base, first", [
        ("set2", "set", "cat_chain2.json"),
        ("graphI", "graph", "monoid_idempotent.json"),
    ])
    def test_tweq_names_the_first_algebra_of_another_base(
        self, tmp_path, capsys, instance, base, first,
    ):
        from phl.fixtures import corpus_monos_graph, corpus_monos_set

        corpus = tmp_path / "fixtures"
        assert main(["fixtures", "--out", str(corpus)]) == 0
        capsys.readouterr()
        mono = (corpus_monos_set() if base == "set" else corpus_monos_graph())[1]
        path = tmp_path / "mono.json"
        path.write_text(canonical_json(map_to_document(mono)), encoding="utf-8")
        other = "graph" if base == "set" else "set"
        assert _refusal(
            ["tweq", str(path), "--algebras", str(corpus), "--instance", instance], capsys
        ) == (2, (
            f"{corpus / first} is an algebra over the base {other!r}, "
            f"not over the instance base {base!r}"
        ))

    def test_fixtures_needs_an_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _refusal(["fixtures"], capsys) == (2, "fixtures needs an explicit --out")
        assert not any(tmp_path.iterdir())

    def test_tower_witness_needs_an_nmax(self, corpus_dir, capsys):
        argv = ["witness-m2", str(corpus_dir / "graph_loop.json"), "--monad", "category",
                "--cap", "2"]
        assert _refusal(argv, capsys) == (
            2, "witness-m2 --monad category needs an explicit --nmax"
        )

    @pytest.mark.parametrize("flags, message", [
        (["--instance", "graphI"], "--instance 'graphI' contradicts the family {}, which states 'set2'"),
        (["--depth", "5"], "--depth 5 contradicts the family {}, which states 1"),
    ], ids=["instance", "depth"])
    def test_fibrant_refuses_flags_that_contradict_the_family(
        self, corpus_dir, tmp_path, capsys, flags, message,
    ):
        family = str(tmp_path / "family.json")
        assert main(["anodyne", "--instance", "set2", "--depth", "1", "--out", family]) == 0
        capsys.readouterr()
        argv = ["fibrant", str(corpus_dir / "monoid_z2.json"), "--family", family, *flags]
        assert _refusal(argv, capsys) == (2, message.format(family))

    def test_anodyne_refuses_seeds_of_another_instance(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(canonical_json(
            {"kind": "seeds", "instance": "sset-jinf", "seeds": [], "generators": []}
        ), encoding="utf-8")
        argv = ["anodyne", "--instance", "graphI", "--seeds", str(seeds)]
        assert _refusal(argv, capsys) == (2, (
            f"--instance 'graphI' contradicts the seeds {seeds}, which states 'sset-jinf'"
        ))

    @pytest.mark.parametrize("key", ["instance", "seeds", "generators"])
    def test_seeds_document_needs_each_key(self, corpus_dir, tmp_path, capsys, key):
        doc = json.loads((corpus_dir / "seeds_graphI.json").read_text(encoding="utf-8"))
        del doc[key]
        seeds = tmp_path / "seeds.json"
        seeds.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["anodyne", "--instance", "graphI", "--seeds", str(seeds)]
        assert _refusal(argv, capsys) == (2, f"{seeds}: seeds document has no {key!r}")

    def test_anodyne_needs_an_instance_or_seeds(self, capsys):
        assert _refusal(["anodyne", "--depth", "0"], capsys) == (
            2, "anodyne needs an explicit --instance or --seeds"
        )

    @pytest.mark.parametrize("key", ["entries", "seed_count", "generator_count", "pre_dedup_counts"])
    def test_family_document_needs_each_key(self, corpus_dir, tmp_path, capsys, key):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        del doc[key]
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(corpus_dir / "cat_chain2.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: family document has no {key!r}")

    @pytest.mark.parametrize("stem, key, instance", [
        ("set2", "elements", "set2"),
        ("graph_loop", "vertices", "graphI"),
        ("graph_loop", "edges", "graphI"),
    ])
    def test_object_document_needs_each_key(self, corpus_dir, tmp_path, capsys, stem, key, instance):
        doc = json.loads((corpus_dir / f"{stem}.json").read_text(encoding="utf-8"))
        del doc[key]
        obj = tmp_path / "object.json"
        obj.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["classes", str(obj), str(corpus_dir / f"{stem}.json"), "--instance", instance]
        assert _refusal(argv, capsys) == (2, f"{obj}: {doc['kind']} document has no {key!r}")

    @pytest.mark.parametrize("key", ["cells", "faces", "degeneracies"])
    def test_sset_document_needs_each_key(self, corpus_dir, tmp_path, capsys, key):
        nerve = tmp_path / "nerve.json"
        code, _ = run_command(
            ["nerve", str(corpus_dir / "cat_chain2.json"), "--cap", "2", "--out", str(nerve)]
        )
        assert code == 0
        doc = json.loads(nerve.read_text(encoding="utf-8"))
        del doc[key]
        nerve.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["horn-fill", str(nerve), "--n", "2", "--k", "1"]
        assert _refusal(argv, capsys) == (2, f"{nerve}: sset document has no {key!r}")

    @pytest.mark.parametrize("stem, key", [
        ("cat_chain2", "objects"),
        ("cat_chain2", "morphisms"),
        ("cat_chain2", "identities"),
        ("cat_chain2", "compose"),
        ("monoid_z2", "elements"),
        ("monoid_z2", "unit"),
        ("monoid_z2", "table"),
    ])
    def test_algebra_document_needs_each_key(self, corpus_dir, tmp_path, capsys, stem, key):
        doc = json.loads((corpus_dir / f"{stem}.json").read_text(encoding="utf-8"))
        del doc[key]
        algebra = tmp_path / "algebra.json"
        algebra.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(algebra), "--family", str(corpus_dir / "family_graphI_d1.json")]
        assert _refusal(argv, capsys) == (2, f"{algebra}: {doc['kind']} document has no {key!r}")

    @pytest.mark.parametrize("doc, argv, first", [
        ({"kind": "sset", "cap": 2}, ["horn-fill", "--n", "2", "--k", "1"], "cells"),
        ({"kind": "category"}, ["nerve", "--cap", "1"], "objects"),
    ])
    def test_a_bare_kind_is_not_an_empty_object(self, tmp_path, capsys, doc, argv, first):
        path = tmp_path / "bare.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        argv = argv[:1] + [str(path)] + argv[1:]
        assert _refusal(argv, capsys) == (2, f"{path}: {doc['kind']} document has no {first!r}")

    def test_fibrant_refuses_an_object_over_another_base(self, corpus_dir, capsys):
        obj, family = str(corpus_dir / "set1.json"), str(corpus_dir / "family_graphI_d1.json")
        assert _refusal(["fibrant", obj, "--family", family], capsys) == (2, (
            f"{obj} is over the base 'set', but the family {family} is over 'graph'"
        ))

    def test_sset_instance_needs_a_cap(self, capsys):
        assert _refusal(["anodyne", "--instance", "sset-delta1"], capsys) == (
            2, "instance 'sset-delta1' needs an explicit --cap"
        )

    @pytest.mark.parametrize("monad, stem", [("monoid", "set1"), ("category", "graph_loop")])
    def test_witness_needs_a_cap(self, corpus_dir, capsys, monad, stem):
        argv = ["witness-m2", str(corpus_dir / f"{stem}.json"), "--monad", monad]
        assert _refusal(argv, capsys) == (2, "witness-m2 needs an explicit --cap")

    @pytest.mark.parametrize("monad, stem, message", [
        ("monoid", "set1", "retract witness needs cap >= 1"),
        ("category", "graph_loop", "unit needs cap >= 1 to form singleton paths"),
    ])
    def test_witness_at_cap_zero_is_a_cap_error(self, corpus_dir, capsys, monad, stem, message):
        # only the tower reads --nmax
        nmax = ["--nmax", "0"] if monad == "category" else []
        argv = ["witness-m2", str(corpus_dir / f"{stem}.json"), "--monad", monad,
                *nmax, "--cap", "0"]
        assert _refusal(argv, capsys) == (2, message)

    @pytest.mark.parametrize("table, culprit", [
        ({"e": {"e": "e", "a": "a"}, "a": {"e": "a"}}, "('a','a')"),    # missing pair
        ({"e": {"e": "e", "a": "a"}}, "('a','a')"),                     # missing row
        ({"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "z"}}, "('a','a')"),  # escapes
        ({"e": {"e": "e", "a": "e"}, "a": {"e": "a", "a": "a"}}, "'a'"),  # left unit law
        ({"e": {"e": "e", "a": "a"}, "a": {"e": "e", "a": "a"}}, "'a'"),  # right unit law
    ])
    def test_malformed_monoid_names_its_element_or_pair(self, tmp_path, capsys, table, culprit):
        doc = {"kind": "monoid", "elements": ["a", "e"], "unit": "e", "table": table}
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        family = tmp_path / "family.json"
        family.write_text('{"kind": "family", "entries": []}', encoding="utf-8")
        code, error = _refusal(["fibrant", str(path), "--family", str(family)], capsys)
        assert code == 2 and culprit in error

    def test_monoid_unit_must_be_an_element(self, tmp_path, capsys):
        doc = {"kind": "monoid", "elements": ["e"], "unit": "z", "table": {"e": {"e": "e"}}}
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, error = _refusal(["fibrant", str(path), "--family", str(path)], capsys)
        assert code == 2 and "'z'" in error

    @pytest.mark.parametrize("key", ["instance", "depth"])
    def test_family_needs_its_instance_and_depth(self, corpus_dir, tmp_path, capsys, key):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        del doc[key]
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(corpus_dir / "cat_terminal.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: family document has no {key!r}")

    @pytest.mark.parametrize("key", ["arrow", "depth", "provenance"])
    def test_family_entry_needs_each_key(self, corpus_dir, tmp_path, capsys, key):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        del doc["entries"][1][key]
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(corpus_dir / "cat_terminal.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: family entry 1 has no {key!r}")

    @pytest.mark.parametrize("at, value, message", [
        (("entries", 1), 5, "family entry 1 is not a JSON object"),
        (("entries",), 7, "family document 'entries' is not a JSON array"),
        (("entries", 1, "arrow", "on"), [1],
         "family entry 1: map 'on' is not a JSON object of JSON objects"),
        (("entries", 1, "arrow", "on"), {"vertex": [1]},
         "family entry 1: map 'on' is not a JSON object of JSON objects"),
        (("entries", 1, "arrow", "domain"), "set1.json",
         "family entry 1: map domain is not a JSON object"),
    ], ids=["entry", "entries", "on", "on-sort", "domain-path"])
    def test_malformed_family_value_is_refused_unopened(
        self, corpus_dir, tmp_path, monkeypatch, capsys, at, value, message,
    ):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        inner = doc
        for key in at[:-1]:
            inner = inner[key]
        inner[at[-1]] = str(corpus_dir / value) if value == "set1.json" else value
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        opened = _record_reads(monkeypatch)
        obj = corpus_dir / "cat_terminal.json"
        argv = ["fibrant", str(obj), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: {message}")
        assert opened == [obj, family]

    @staticmethod
    def _corner_square(tmp_path, drop=None):
        """A square on the e=0 corner of {p} -> {p, q} under set2, its
        document without the key ``drop``: a side, the corner or a corner key."""
        from phl.cylinder import corner_endpoint, set_instance

        j = core.PresheafMap(core.fin_set(["p"]), core.fin_set(["p", "q"]), {"element": {"p": "p"}})
        corner = corner_endpoint(set_instance(), j, 0)
        carrier = core.fin_set(["0", "1"])
        doc = {
            "kind": "square",
            "left": map_to_document(corner.arrow),
            "right": map_to_document(core.bang(carrier)),
            "top": map_to_document(enumerate_homs(corner.domain, carrier)[0]),
            "bottom": map_to_document(core.bang(corner.codomain)),
            "corner": {"instance": "set2", "j": map_to_document(j), "endpoint": 0},
        }
        doc.pop(drop, None)
        doc.get("corner", {}).pop(drop, None)
        square = tmp_path / "square.json"
        square.write_text(canonical_json(doc), encoding="utf-8")
        return square

    @pytest.mark.parametrize("flags, message", [
        (["--explicit", "category"], "lift --explicit category needs an explicit --algebra"),
        (["--algebra", "cat_chain2.json"], "lift reads --algebra only with --explicit category"),
        (["--explicit", "monoid", "--algebra", "cat_chain2.json"],
         "lift reads --algebra only with --explicit category"),
        (["--explicit", "monoid", "--guard", "5"], "lift --explicit reads no --guard"),
    ], ids=["category-without-algebra", "algebra-without-explicit", "algebra-with-monoid",
            "explicit-with-guard"])
    def test_lift_refuses_a_branch_flag_it_would_not_read(
        self, corpus_dir, tmp_path, capsys, flags, message,
    ):
        flags = [str(corpus_dir / f) if f.endswith(".json") else f for f in flags]
        argv = ["lift", "--square", str(self._corner_square(tmp_path)), *flags]
        assert _refusal(argv, capsys) == (2, message)

    def test_retract_witness_refuses_an_nmax(self, corpus_dir, capsys):
        argv = ["witness-m2", str(corpus_dir / "set1.json"), "--monad", "monoid",
                "--nmax", "1", "--cap", "1"]
        assert _refusal(argv, capsys) == (2, "witness-m2 --monad monoid reads no --nmax")

    def test_explicit_lift_needs_the_corner_endpoint(self, tmp_path, capsys):
        square = self._corner_square(tmp_path, drop="endpoint")
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (2, f"the corner provenance in {square} has no endpoint")

    @pytest.mark.parametrize("key", ["instance", "j"])
    def test_explicit_lift_needs_each_corner_key(self, tmp_path, capsys, key):
        square = self._corner_square(tmp_path, drop=key)
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (2, f"the corner provenance in {square} has no {key}")

    @pytest.mark.parametrize("as_path", [True, False], ids=["path", "set-document"])
    def test_explicit_lift_refuses_a_corner_j_that_is_not_a_map(
        self, corpus_dir, tmp_path, monkeypatch, capsys, as_path,
    ):
        square = self._corner_square(tmp_path)
        doc = json.loads(square.read_text(encoding="utf-8"))
        set1 = corpus_dir / "set1.json"
        doc["corner"]["j"] = str(set1) if as_path else json.loads(set1.read_text(encoding="utf-8"))
        square.write_text(canonical_json(doc), encoding="utf-8")
        opened = _record_reads(monkeypatch)
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (
            2, f"the corner provenance in {square}: expected a map document"
        )
        assert opened == [square]

    def test_explicit_lift_needs_corner_provenance(self, tmp_path, capsys):
        square = self._corner_square(tmp_path, drop="corner")
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (
            2, "explicit lifts need corner provenance in the square document"
        )

    def test_explicit_lift_refuses_corner_provenance_that_is_not_an_object(
        self, tmp_path, capsys,
    ):
        square = self._corner_square(tmp_path)
        doc = json.loads(square.read_text(encoding="utf-8"))
        doc["corner"] = 5
        square.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (
            2, "explicit lifts need corner provenance in the square document"
        )

    # The e=0 corner of {p} -> {p, q} under set2, written out by hand: the
    # cells over p are named by their cells of {p}⊗I, the other one by its
    # own label.
    STATED_CORNER = {"l:(p,0)": "(p,0)", "l:(p,1)": "(p,1)", "r:(q,0)": "(q,0)"}

    @pytest.mark.parametrize("endpoint, renamed, refused", [
        (0, {}, False),
        (1, {}, True),
        (0, {"r:(q,0)": "l:(q,0)"}, True),
    ])
    def test_explicit_lift_compares_the_rebuilt_corner_with_the_stated_one(
        self, tmp_path, capsys, endpoint, renamed, refused
    ):
        square = self._corner_square(tmp_path)
        doc = json.loads(square.read_text(encoding="utf-8"))
        on = {renamed.get(label, label): cell for label, cell in self.STATED_CORNER.items()}
        left = core.PresheafMap(
            core.fin_set(on), core.fin_set(["(p,0)", "(p,1)", "(q,0)", "(q,1)"]),
            {"element": on},
        )
        doc["left"] = map_to_document(left)
        doc["top"] = map_to_document(enumerate_homs(left.domain, core.fin_set(["0", "1"]))[0])
        doc["bottom"] = map_to_document(core.bang(left.codomain))
        doc["corner"]["endpoint"] = endpoint
        square.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        if refused:
            assert _refusal(argv, capsys) == (
                2, "the square's left map is not the stated endpoint corner"
            )
        else:
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["report"]["lift"]

    @pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
    def test_square_needs_each_side(self, tmp_path, capsys, side):
        square = self._corner_square(tmp_path, drop=side)
        assert _refusal(["lift", "--square", str(square)], capsys) == (
            2, f"{square}: square document has no {side!r}"
        )

    @pytest.mark.parametrize("key", ["domain", "codomain"])
    def test_map_needs_its_domain_and_codomain(self, tmp_path, capsys, key):
        point = core.fin_set(["p"])
        doc = map_to_document(core.identity(point))
        del doc[key]
        path = tmp_path / "map.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["homotopy", str(path), str(path), "--instance", "set2"]
        assert _refusal(argv, capsys) == (2, f"{path}: map document has no {key!r}")

    def test_map_on_names_only_sorts_of_its_base(self, tmp_path, capsys):
        doc = map_to_document(core.identity(core.fin_set(["p"])))
        doc["on"]["vertex"] = {"p": "p"}
        path = tmp_path / "map.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["homotopy", str(path), str(path), "--instance", "set2"]
        assert _refusal(argv, capsys) == (
            2, f"{path}: map 'on' names the sort 'vertex', which the base 'set' does not have"
        )

    def test_missing_family_names_the_file(self, corpus_dir, tmp_path, capsys):
        family = tmp_path / "nope.json"
        argv = ["fibrant", str(corpus_dir / "set1.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family} cannot be read: No such file or directory")

    def test_missing_category_names_the_file(self, tmp_path, capsys):
        category = tmp_path / "nope.json"
        assert _refusal(["nerve", str(category), "--cap", "1"], capsys) == (
            2, f"{category} cannot be read: No such file or directory"
        )

    @pytest.mark.parametrize("content, problem", [
        (b'{"kind":\n', "is not well-formed JSON: Expecting value: line 2 column 1 (char 9)"),
        (b'{"kind": "\xff"}', "is not UTF-8 text: invalid start byte"),
    ], ids=["json", "utf-8"])
    def test_malformed_document_names_the_file(self, tmp_path, capsys, content, problem):
        category = tmp_path / "bad.json"
        category.write_bytes(content)
        assert _refusal(["nerve", str(category), "--cap", "1"], capsys) == (
            2, f"{category} {problem}"
        )

    def test_fixtures_out_under_a_file_names_the_path(self, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        target = tmp_path / "file" / "corpus"
        assert _refusal(["fixtures", "--out", str(target)], capsys) == (
            2, f"{target} cannot be made a directory: Not a directory"
        )

    def test_out_under_a_file_names_the_path(self, corpus_dir, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "nerve.json"
        argv = ["nerve", str(corpus_dir / "cat_chain2.json"), "--cap", "1", "--out", str(out)]
        assert _refusal(argv, capsys) == (2, f"{out} cannot be written: Not a directory")

    @pytest.mark.parametrize("make, problem", [
        (None, "is not a directory"),
        ("file", "is not a directory"),
        ("empty", "holds no monoid or category document"),
        ("objects", "holds no monoid or category document"),
    ])
    def test_tweq_refuses_algebras_it_cannot_use(self, corpus_dir, tmp_path, capsys, make,
                                                 problem):
        algebras = tmp_path / "algebras"
        if make == "file":
            algebras.write_text("", encoding="utf-8")
        elif make is not None:
            algebras.mkdir()
        if make == "objects":
            (algebras / "set1.json").write_text(
                (corpus_dir / "set1.json").read_text(encoding="utf-8"), encoding="utf-8"
            )
        mono = tmp_path / "mono.json"
        mono.write_text(canonical_json(map_to_document(core.identity(core.fin_set(["p"])))),
                        encoding="utf-8")
        argv = ["tweq", str(mono), "--algebras", str(algebras), "--instance", "set2"]
        assert _refusal(argv, capsys) == (2, f"--algebras {algebras} {problem}")

    @pytest.mark.parametrize("argv", [
        ["fibrant", "{}", "--family", "family_graphI_d1.json"],
        ["fibrant", "cat_terminal.json", "--family", "{}"],
        ["classes", "{}", "set1.json", "--instance", "set2"],
    ], ids=["fibrant-object", "fibrant-family", "classes"])
    def test_a_document_that_is_not_an_object_names_the_file(
        self, corpus_dir, tmp_path, capsys, argv,
    ):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]", encoding="utf-8")
        argv = [str(listed) if a == "{}" else str(corpus_dir / a) if a.endswith(".json") else a
                for a in argv]
        assert _refusal(argv, capsys) == (2, f"{listed} is not a JSON object")

    #: A one-object category with a non-identity loop f whose composite
    #: with itself is missing.
    LOOP_CATEGORY = {
        "kind": "category",
        "objects": ["*"],
        "morphisms": [["e", "*", "*"], ["f", "*", "*"]],
        "identities": {"*": "e"},
        "compose": {"e": {"e": "e", "f": "f"}, "f": {"e": "f"}},
    }

    def test_a_refused_category_names_the_file(self, corpus_dir, tmp_path, capsys):
        category = tmp_path / "category.json"
        category.write_text(canonical_json(self.LOOP_CATEGORY), encoding="utf-8")
        argv = ["fibrant", str(category), "--family", str(corpus_dir / "family_graphI_d1.json")]
        assert _refusal(argv, capsys) == (
            2, f"{category}: composition is missing the pair ('f','f')"
        )

    def test_tweq_names_an_algebra_it_refuses(self, tmp_path, capsys):
        algebras = tmp_path / "algebras"
        algebras.mkdir()
        doc = {key: value for key, value in self.LOOP_CATEGORY.items() if key != "compose"}
        (algebras / "category.json").write_text(canonical_json(doc), encoding="utf-8")
        mono = tmp_path / "mono.json"
        mono.write_text(canonical_json(map_to_document(core.identity(core.fin_set(["p"])))),
                        encoding="utf-8")
        argv = ["tweq", str(mono), "--algebras", str(algebras), "--instance", "set2"]
        assert _refusal(argv, capsys) == (
            2, f"{algebras / 'category.json'}: category document has no 'compose'"
        )

    def test_tweq_reads_only_the_algebras(self, corpus_dir, tmp_path, capsys):
        algebras = tmp_path / "algebras"
        algebras.mkdir()
        (algebras / "monoid_z2.json").write_text(
            (corpus_dir / "monoid_z2.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (algebras / "broken.json").write_text('{"kind": "graph"}', encoding="utf-8")
        mono = tmp_path / "mono.json"
        mono.write_text(canonical_json(map_to_document(core.identity(core.fin_set(["p"])))),
                        encoding="utf-8")
        assert main(["tweq", str(mono), "--algebras", str(algebras), "--instance", "set2"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert [r["algebra"] for r in report["per_algebra"]] == ["z2"]

    @pytest.mark.parametrize("broken, problem", [
        ("commute", "map does not commute with 'src' at edge 'r:(e,l0)'"),
        ("list", "expected a map document"),
    ], ids=["commute", "list"])
    def test_a_refused_family_arrow_names_the_file_and_the_entry(
        self, corpus_dir, tmp_path, capsys, broken, problem,
    ):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        if broken == "commute":
            # (e,d) starts at (a,1), but the source of r:(e,l0) goes to (a,0)
            doc["entries"][1]["arrow"]["on"]["edge"]["r:(e,l0)"] = "(e,d)"
        else:
            doc["entries"][1]["arrow"] = [1, 2]
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(corpus_dir / "cat_terminal.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: family entry 1: {problem}")

    def test_a_refused_corner_provenance_names_the_square(self, tmp_path, capsys):
        square = self._corner_square(tmp_path)
        doc = json.loads(square.read_text(encoding="utf-8"))
        doc["corner"]["instance"] = "graphI"
        square.write_text(canonical_json(doc), encoding="utf-8")
        code, error = _refusal(["lift", "--square", str(square), "--explicit", "monoid"], capsys)
        assert code == 2
        assert error.startswith(f"the corner provenance in {square}: ")

    @pytest.mark.parametrize("argv", [
        ["classes", "set1.json", "set2.json", "--instance", "set2"],
        ["classes", "nope.json", "nope.json", "--instance", "set2"],
        ["nerve", "cat_chain2.json", "--cap", "1"],
    ], ids=["classes", "before-reading", "unread-guard"])
    def test_a_negative_guard_is_a_bad_parameter(self, corpus_dir, capsys, argv):
        argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
        assert _refusal([*argv, "--guard", "-5"], capsys) == (2, "--guard -5 is negative")

    def test_a_zero_guard_is_allowed(self, corpus_dir, capsys):
        argv = ["classes", str(corpus_dir / "set0.json"), str(corpus_dir / "set2.json"),
                "--instance", "set2", "--guard", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["report"]["hom_count"] == 1

    @pytest.mark.parametrize("at, value, message", [
        (("pre_dedup_counts",), {"x": 1},
         "family document 'pre_dedup_counts' is not a JSON object from depths to nonnegative"
         " integers"),
        (("pre_dedup_counts",), [1],
         "family document 'pre_dedup_counts' is not a JSON object from depths to nonnegative"
         " integers"),
        (("entries", 1, "arrow", "domain", "vertices"), 5,
         "family entry 1: graph document 'vertices' is not a JSON array of strings"),
        (("entries", 1, "arrow", "domain", "edges", 0), ["e", "a"],
         "family entry 1: graph document 'edges' is not a JSON array of [label, source, target]"
         " string arrays"),
        (("entries", 1, "arrow", "domain"), "monoid_z2.json",
         "family entry 1: map domain is not a set, graph or sset document"),
        (("entries", 1, "arrow", "domain"), "entries[0].arrow",
         "family entry 1: map domain is not a set, graph or sset document"),
        (("depth",), "x", "family document 'depth' is not a nonnegative integer"),
        (("entries", 1, "arrow", "on", "bogus"), {"x": "y"},
         "family entry 1: map 'on' names the sort 'bogus', which the base 'graph' does not have"),
    ], ids=["counts-key", "counts-list", "vertices", "edge", "monoid-end", "map-end", "depth",
            "on-sort-of-no-base"])
    def test_malformed_family_field_names_the_file_and_the_entry(
        self, corpus_dir, tmp_path, capsys, at, value, message,
    ):
        doc = json.loads((corpus_dir / "family_graphI_d1.json").read_text(encoding="utf-8"))
        if value == "monoid_z2.json":
            value = json.loads((corpus_dir / value).read_text(encoding="utf-8"))
        elif value == "entries[0].arrow":
            value = doc["entries"][0]["arrow"]
        inner = doc
        for key in at[:-1]:
            inner = inner[key]
        inner[at[-1]] = value
        family = tmp_path / "family.json"
        family.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["fibrant", str(corpus_dir / "cat_terminal.json"), "--family", str(family)]
        assert _refusal(argv, capsys) == (2, f"{family}: {message}")

    @pytest.mark.parametrize("stem, key, value, message", [
        ("monoid_z2", "elements", 5, "monoid document 'elements' is not a JSON array of strings"),
        ("monoid_z2", "table", [1],
         "monoid document 'table' is not a JSON object of JSON objects of strings"),
        ("monoid_z2", "name", 5, "monoid document 'name' is not a string"),
        ("cat_chain2", "morphisms", [["f", "a"]], "category document 'morphisms' is not a JSON"
         " array of [label, source, target] string arrays"),
        ("cat_chain2", "identities", [1],
         "category document 'identities' is not a JSON object of strings"),
        ("seeds_set2", "seeds", 5, "seeds document 'seeds' is not a JSON array"),
    ], ids=["monoid-elements", "monoid-table", "monoid-name", "morphisms", "identities", "seeds"])
    def test_malformed_algebra_or_seeds_field_names_the_file(
        self, corpus_dir, tmp_path, capsys, stem, key, value, message,
    ):
        doc = json.loads((corpus_dir / f"{stem}.json").read_text(encoding="utf-8"))
        doc[key] = value
        path = tmp_path / f"{stem}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        family = str(corpus_dir / "family_graphI_d1.json")
        argv = (["anodyne", "--seeds", str(path)] if stem.startswith("seeds")
                else ["fibrant", str(path), "--family", family])
        assert _refusal(argv, capsys) == (2, f"{path}: {message}")

    @pytest.mark.parametrize("key, value, message", [
        ("cap", "2", "sset document needs an integer cap"),
        ("cells", {"x": ["0"]},
         "sset document 'cells' is not a JSON object from dimensions to arrays of strings"),
        ("faces", {"1": {"01": 0}}, "sset document 'faces' is not a JSON object from dimensions"
         " to objects of arrays of strings"),
        ("cap", True, "sset document needs an integer cap"),
        ("cells", {"0": ["0", "1"], "1": ["00", "01", "11"], "2": ["001"]},
         "sset document 'cells' has dimension 2, outside cap 1"),
        ("degeneracies", {"1": {"01": ["001", "011"]}},
         "sset document 'degeneracies' has dimension 1, outside cap 1"),
    ], ids=["cap", "cells", "faces", "cap-bool", "cells-above-cap", "degeneracies-at-cap"])
    def test_malformed_sset_field_names_the_file(self, tmp_path, capsys, key, value, message):
        from phl.simplicial import delta

        doc = object_to_document(delta(1, 1))
        doc[key] = value
        path = tmp_path / "delta1.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["horn-fill", str(path), "--n", "1", "--k", "0"]
        assert _refusal(argv, capsys) == (2, f"{path}: {message}")

    @pytest.mark.parametrize("cap, key, n, cell, images", [
        (1, "faces", 1, "01", ["1", "0", "1"]),
        (2, "degeneracies", 1, "01", ["001", "011", "011"]),
        (1, "faces", 1, "01", ["1"]),
        (1, "degeneracies", 0, "1", []),
    ], ids=["face-row-too-long", "degeneracy-row-too-long", "face-row-too-short",
            "degeneracy-row-empty"])
    def test_an_sset_row_of_the_wrong_width_names_the_file(
        self, tmp_path, capsys, cap, key, n, cell, images,
    ):
        # a row at dimension n has n + 1 images; extra ones were once dropped
        from phl.simplicial import delta

        doc = object_to_document(delta(1, cap))
        doc[key][str(n)][cell] = images
        path = tmp_path / "delta1.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["horn-fill", str(path), "--n", "1", "--k", "0"]
        assert _refusal(argv, capsys) == (2, f"{path}: sset document {key!r} row {cell!r} in "
                                             f"dimension {n} has {len(images)} images, not {n + 1}")

    @staticmethod
    def _point_square(tmp_path, top_domain):
        """A square of set maps with left and right the identities of {p}
        and {a, b}, top p -> a from ``top_domain`` and bottom p -> b."""
        point, pair = core.fin_set(["p"]), core.fin_set(["a", "b"])
        top = core.PresheafMap(core.fin_set([top_domain]), pair, {"element": {top_domain: "a"}})
        bottom = core.PresheafMap(point, pair, {"element": {"p": "b"}})
        square = tmp_path / "square.json"
        square.write_text(canonical_json({
            "kind": "square", "left": map_to_document(core.identity(point)),
            "right": map_to_document(core.identity(pair)), "top": map_to_document(top),
            "bottom": map_to_document(bottom),
        }), encoding="utf-8")
        return square

    @pytest.mark.parametrize("top_domain, problem", [
        ("p", "lifting square does not commute"),
        ("q", "top map must start at the left map's domain"),
    ], ids=["not-commuting", "top-domain"])
    def test_a_refused_square_names_the_file(self, tmp_path, capsys, top_domain, problem):
        square = self._point_square(tmp_path, top_domain)
        assert _refusal(["lift", "--square", str(square)], capsys) == (2, f"{square}: {problem}")

    def test_explicit_lift_refuses_an_endpoint_that_is_not_0_or_1(self, tmp_path, capsys):
        square = self._corner_square(tmp_path)
        doc = json.loads(square.read_text(encoding="utf-8"))
        doc["corner"]["endpoint"] = 2
        square.write_text(canonical_json(doc), encoding="utf-8")
        argv = ["lift", "--square", str(square), "--explicit", "monoid"]
        assert _refusal(argv, capsys) == (
            2, f"the corner provenance in {square}: endpoint must be 0 or 1"
        )

    def test_horn_fill_refuses_a_horn_above_the_cap(self, corpus_dir, tmp_path, capsys):
        nerve = tmp_path / "nerve.json"
        assert main(["nerve", str(corpus_dir / "cat_chain2.json"), "--cap", "2",
                     "--out", str(nerve)]) == 0
        capsys.readouterr()
        argv = ["horn-fill", str(nerve), "--n", "3", "--k", "0"]
        assert _refusal(argv, capsys) == (2, "horn dimension 3 exceeds the object's cap 2")


#: The shared flags each subcommand reads: it declares them, and its
#: report's ``parameters`` echo them.
SHARED_FLAGS = {
    "classes": {"instance", "cap", "guard"},
    "homotopy": {"instance", "cap", "guard"},
    "tweq": {"instance", "cap", "guard"},
    "anodyne": {"instance", "cap", "depth", "guard"},
    "check-ehd": {"instance", "cap"},
    "fibrant": {"instance", "depth", "guard"},
    "lift": {"guard"},
    "horn-fill": {"cap", "guard"},
    "tau0": {"cap", "guard"},
    "witness-m2": {"cap"},
    "nerve": {"cap"},
    "verify": set(),
    "fixtures": set(),
}


def test_parameters_are_the_declared_shared_flags(corpus_dir, tmp_path, capsys):
    """Every report echoes exactly the shared flags its subcommand declares;
    a flag that a subcommand does not declare is refused by argparse, and a
    --cap that the instance or object contradicts or never reads is refused."""
    from phl.cli import build_parser
    from phl.simplicial import delta

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {name: set(p.get_default("shared")) for name, p in subparsers.choices.items()} == (
        SHARED_FLAGS
    )

    def write(name, doc):
        (tmp_path / name).write_text(canonical_json(doc), encoding="utf-8")
        return str(tmp_path / name)

    corpus = {p.stem: str(p) for p in corpus_dir.glob("*.json")}
    point = parse_document(corpus["set1"])
    identity = write("id.json", map_to_document(core.identity(point)))
    square = write("square.json", {
        "kind": "square", "left": map_to_document(core.identity(point)),
        "right": map_to_document(core.bang(point)), "top": map_to_document(core.identity(point)),
        "bottom": map_to_document(core.bang(point)),
    })
    algebras = tmp_path / "algebras"
    algebras.mkdir()
    write("algebras/z2.json", monoid_to_document(corpus_monoids()[0]))
    nerve = str(tmp_path / "nerve.json")
    d0 = write("d0.json", object_to_document(delta(0, 2)))
    runs = [
        ["classes", corpus["set1"], corpus["set2"], "--instance", "set2"],
        ["homotopy", identity, identity, "--instance", "set2"],
        ["tweq", identity, "--algebras", str(algebras), "--instance", "set2"],
        ["anodyne", "--instance", "set2", "--depth", "0"],
        ["check-ehd", "--instance", "set2"],
        ["fibrant", corpus["set1"], "--family", write("family.json", {
            "kind": "family", "instance": "set2", "depth": 0, "entries": [],
            "seed_count": 0, "generator_count": 0, "pre_dedup_counts": {},
        })],
        ["lift", "--square", square],
        ["nerve", corpus["cat_chain2"], "--cap", "2", "--out", nerve],
        ["horn-fill", nerve, "--n", "1", "--k", "0", "--cap", "2"],
        ["tau0", d0, nerve, "--cap", "2"],
        ["witness-m2", corpus["set1"], "--monad", "monoid", "--cap", "1"],
        ["verify"],
        ["fixtures", "--out", str(tmp_path / "fixtures")],
    ]
    assert {argv[0] for argv in runs} == set(SHARED_FLAGS)
    for argv in runs:
        code, report = run_command(argv)
        assert code in (0, 1), argv
        assert set(report["parameters"]) == SHARED_FLAGS[argv[0]], argv

    for argv in (
        ["nerve", corpus["cat_chain2"], "--cap", "2", "--depth", "1"],
        ["verify", "--instance", "set2"],
        ["lift", "--square", square, "--endpoint", "0"],
    ):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    for argv in (
        ["horn-fill", nerve, "--n", "1", "--k", "0", "--cap", "3"],
        ["tau0", d0, nerve, "--cap", "3"],
    ):
        assert _refusal(argv, capsys) == (2, "--cap 3 is not the object's cap 2"), argv
    assert _refusal(
        ["classes", corpus["graph_loop"], corpus["graph_loop"], "--instance", "graphI",
         "--cap", "2"], capsys,
    ) == (2, "instance 'graphI' reads no --cap")


def test_timing_goes_to_stderr_and_leaves_the_report_alone(corpus_dir, capsys):
    argv = ["classes", str(corpus_dir / "set1.json"), str(corpus_dir / "set2.json"),
            "--instance", "set2"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    assert re.fullmatch(r"timing_ms=\d+\n", timed.err)


def test_timing_is_printed_on_an_error_exit(tmp_path, monkeypatch, capsys):
    # the golden guard failure, rerun with --timing: the same report and exit
    case = golden_cases.load("fibrant")["cat_z2_loop_graphI_d1_guard10"]
    emit_fixture_corpus(tmp_path / "corpus")
    family = "family_graphI_d1.json"
    (tmp_path / family).write_text((tmp_path / "corpus" / family).read_text(encoding="utf-8"),
                                   encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"] + ["--timing"]) == case["exit"] == 2
    timed = capsys.readouterr()
    assert timed.out == "".join(case["stdout"])
    assert re.fullmatch(r"timing_ms=\d+\n", timed.err)


def _run_python(*args):
    """``python <args>`` in a child that imports the phl under test."""
    import_path = [str(Path(phl.__file__).resolve().parent.parent)]
    import_path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(import_path)},
    )


class TestParserReuse:
    """One parser, built on the first command, serves every later command
    of the process, and each command runs the handler bound at call time."""

    def test_the_parser_is_built_on_first_use_only(self):
        child = _run_python("-c", (
            "from phl import cli; print(cli.build_parser.cache_info().currsize); "
            "cli.main(['verify']); cli.main(['verify']); print(); "
            "print(cli.build_parser.cache_info())"
        ))
        assert child.returncode == 0
        lines = child.stdout.splitlines()
        assert lines[0] == "0"
        assert lines[-1].startswith("CacheInfo(hits=1, misses=1,")

    def test_every_subcommand_has_a_handler(self):
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert len(subparsers.choices) == 13
        for name in subparsers.choices:
            assert callable(getattr(cli, "cmd_" + name.replace("-", "_"), None)), name

    def test_dispatch_runs_the_handler_bound_at_call_time(self, monkeypatch, capsys):
        assert main(["verify"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_verify", lambda args: (1, {"fake": True}))
        assert main(["verify"]) == 1
        assert json.loads(capsys.readouterr().out)["report"] == {"fake": True}

    def test_a_refused_command_leaves_the_next_report_unchanged(self, corpus_dir, capsys):
        argv = ["classes", str(corpus_dir / "set1.json"), str(corpus_dir / "set2.json"),
                "--instance", "set2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--depth", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_defaults_do_not_leak_between_commands(self, corpus_dir, capsys):
        assert main(["anodyne", "--instance", "set2", "--depth", "0"]) == 0
        assert main(["anodyne", "--seeds", str(corpus_dir / "seeds_set2.json")]) == 0
        capsys.readouterr()
        assert _refusal(["anodyne"], capsys) == (
            2, "anodyne needs an explicit --instance or --seeds"
        )


class TestDeterminism:
    def run_cli(self, args):
        return _run_python("-m", "phl.cli", *args)

    def test_reports_are_byte_identical(self, corpus_dir, tmp_path):
        invocations = [
            ["classes", str(corpus_dir / "graph_vertex.json"),
             str(corpus_dir / "graph_looped_pair.json"), "--instance", "graphI"],
            ["anodyne", "--instance", "graphI", "--depth", "1"],
            ["verify"],
            ["check-ehd", "--instance", "set2"],
        ]
        for args in invocations:
            first = self.run_cli(args)
            second = self.run_cli(args)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            assert first.stdout.endswith("\n")

    def test_out_files_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            result = self.run_cli(
                ["anodyne", "--instance", "graphI", "--depth", "1", "--out", str(path)]
            )
            assert result.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fixture_emission_is_deterministic(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        emit_fixture_corpus(one)
        emit_fixture_corpus(two)
        for path in sorted(one.glob("*.json")):
            assert path.read_bytes() == (two / path.name).read_bytes()
