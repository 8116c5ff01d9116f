"""CLI reports and written documents, byte for byte.

The files under ``tests/golden/`` were written by ``golden_cases.py``; a
search change that alters any report, exit code, counterexample or guard
failure shows up here.  Each hash seed gets its own child process, so the
comparison also pins down that no report depends on ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phl
import golden_cases

SEEDS = ("0", "42")
COMMANDS = (
    "horn-fill", "tau0", "fibrant", "anodyne", "classes",
    "witness-m2", "verify", "check-ehd", "tweq", "nerve", "fixtures", "homotopy", "lift",
)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    import_path = str(Path(phl.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        import_path += os.pathsep + inherited
    children = {}
    for seed in SEEDS:
        workdir = tmp_path_factory.mktemp(f"golden{seed}")
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": import_path}
        children[seed] = subprocess.Popen(
            [sys.executable, golden_cases.__file__, "run", str(workdir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
    results = {}
    for seed, child in children.items():
        stdout, stderr = child.communicate()
        assert child.returncode == 0, (seed, stderr)
        results[seed] = json.loads(stdout)
    return results


def test_cases_match_golden_files():
    listed = {}
    for command, name, argv in golden_cases.cases():
        listed.setdefault(command, {})[name] = argv
    assert set(listed) == set(COMMANDS)
    for command in COMMANDS:
        golden = golden_cases.load(command)
        assert {name: case["argv"] for name, case in golden.items()} == listed[command]


def _text(written):
    """A written document's text, or per file name the text of each file
    of a written directory."""
    if isinstance(written, dict):
        return {name: _text(lines) for name, lines in written.items()}
    return "".join(written)


def _outcome(case):
    """Exit code, report text and, for a case with ``--out``, what it wrote."""
    return case["exit"], "".join(case["stdout"]), _text(case.get("out", ()))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", COMMANDS)
def test_reports_are_byte_identical(outcomes, command, seed):
    golden = golden_cases.load(command)
    ran = outcomes[seed][command]
    assert set(ran) == set(golden)
    differing = [
        name for name in golden
        if _outcome(ran[name]) != _outcome(golden[name])
    ]
    assert not differing, f"{len(differing)} {command} reports differ, first {differing[:5]}"
