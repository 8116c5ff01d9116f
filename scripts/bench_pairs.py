"""Alternating benchmark pairs of two commits, written as one BENCH file.

Each commit is exported with ``git archive`` into its own directory under
``--workdir``, and ``bench/run.py`` runs there, so both sides build from
their committed files.  A pair runs the two sides back to back on one seed,
and the side that goes first alternates from pair to pair.  The file keeps
the last-line JSON of every run and, per workload and side, the median and
quartiles of each end-to-end metric of ``BENCHMARK.json``, plus the number
of pairs in which the change did better, the signed relative change of the
median, (change - base) / base, and the metric's bound, so the regression
check reads off the file.  Under ``operations`` it also keeps, per workload
and side, the number of runs that were not correct and the failed and
attempted operations of all runs, for the check on the share of failures.

    python3 scripts/bench_pairs.py --base <parent> --change HEAD \\
        --pairs horns=10,fibrancy=3,algebra=3 --seconds 30 \\
        --workdir <scratch dir> --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, target):
    """Write the files of ``rev`` into ``target``; return its full hash."""
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run(tree, workload, seed, seconds):
    """The last-line JSON of one run.  The run writes no bytecode, so that
    no later run of the same tree imports what an earlier one compiled."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def operations(results):
    """The number of results that are not correct, and their failed and
    attempted operations in all."""
    return {
        "incorrect_runs": sum(not r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
    }


def parse_pairs(text, workloads):
    """The (workload, count) items of ``--pairs``, each of a different one
    of ``workloads``: the summary keys runs by workload and pair, so a
    second item of one workload would overwrite the first.  A count below
    2 leaves no quartiles to compare."""
    pairs = {}
    for item in text.split(","):
        workload, _, count = item.partition("=")
        if not (workload and count.isdecimal() and int(count) >= 2):
            raise SystemExit(
                f"--pairs item {item!r} is not workload=count with a count of 2 or more"
            )
        if workload not in workloads:
            raise SystemExit(f"--pairs item {item!r} names no workload of BENCHMARK.json: "
                             + ", ".join(workloads))
        if workload in pairs:
            raise SystemExit(f"--pairs item {item!r} repeats the workload {workload!r}")
        pairs[workload] = int(count)
    return list(pairs.items())


def summarize(runs, metrics):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {side: {r["pair"]: r["result"]["metrics"] for r in mine if r["side"] == side}
                   for side in ("base", "change")}
        summary[workload] = {"operations": {
            side: operations([r["result"] for r in mine if r["side"] == side])
            for side in ("base", "change")
        }}
        for name, better, bound in metrics:
            value = {side: {p: m[name]["value"] for p, m in pairs.items()}
                     for side, pairs in by_side.items()}
            wins = sum(
                (value["change"][p] < value["base"][p]) == (better == "lower")
                and value["change"][p] != value["base"][p]
                for p in value["base"]
            )
            base, change = (spread(list(value[side].values())) for side in ("base", "change"))
            summary[workload][name] = {
                "base": base,
                "change": change,
                "change_better_pairs": f"{wins}/{len(value['base'])}",
                "median_change": (
                    (change["median"] - base["median"]) / base["median"] if base["median"] else None
                ),
                "bound": bound,
            }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit compared against")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--pairs", required=True, help="workload=count,...")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True, help="an empty or absent directory")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    trees = {"base": workdir / "base", "change": workdir / "change"}
    taken = [str(tree) for tree in trees.values() if tree.exists()]
    if taken:
        raise SystemExit(f"--workdir already holds {' and '.join(taken)}; give an empty or absent one")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = parse_pairs(args.pairs, [w["name"] for w in spec["workloads"]])
    commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    runs = []
    for workload, count in pairs:
        for pair in range(count):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run(trees[side], workload, pair + 1, args.seconds)
                runs.append({"workload": workload, "pair": pair, "seed": pair + 1,
                             "side": side, "result": result})
                print(workload, pair, side, result["metrics"]["wall_s"]["value"], flush=True)
    document = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(
            f"--{k} {v}" for k, v in (
                ("base", args.base), ("change", args.change), ("pairs", args.pairs),
                ("seconds", f"{args.seconds:g}"), ("workdir", "<scratch dir>"),
                ("out", Path(args.out).name),
            )
        ),
        "base": commits["base"],
        "change": commits["change"],
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
