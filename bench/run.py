"""phl benchmark: time a workload end to end, or trace it per layer.

    python3 bench/run.py --workload fibrancy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run sets up ``SETUP_REPEATS`` times (fresh import of phl plus writing
the input documents) and keeps the last set-up.  It then runs whole rounds
of the workload's operations, one after another in this single process,
and starts a new round only while the rounds so far predict that it ends
nearer to ``--seconds`` than stopping would; at least one round always
runs.  The first round's outputs are checked against the oracles; every
later round must reproduce them byte for byte.  The end-to-end times are
scaled to a reference machine speed by the kernel samples of :mod:`speed`;
the raw seconds are printed too.

With ``--trace 1`` one untraced round runs first, then the tracer wraps
phl's public functions and the traced rounds run; the per-layer metrics
are per traced round, and the spans are written to
``bench/out/trace-<workload>.tsv``.

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
MODULES = (
    "core", "cylinder", "homotopy", "lifting", "monads", "witnesses",
    "equivalence", "simplicial", "documents", "fixtures", "cli",
)

sys.path.insert(0, str(BENCH))

import speed  # noqa: E402  (needs the bench directory on the path)
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def import_phl():
    """Import phl afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "phl" or n.startswith("phl.")]:
        del sys.modules[name]
    phl = types.SimpleNamespace(phl=importlib.import_module("phl"))
    for name in MODULES:
        setattr(phl, name, importlib.import_module(f"phl.{name}"))
    return phl


def set_up(name, seed, workdir):
    """(seconds, phl namespace, operations) of one set-up."""
    started = perf_counter()
    phl = import_phl()
    ops = workloads.build(name, phl, seed, workdir)
    return perf_counter() - started, phl, ops


def run_round(ops, kernel):
    """Run every operation once, with samples of ``kernel`` at the
    start, the end and at least every ``speed.EVERY_S`` between; returns
    (elapsed seconds, [scale factor of each operation], [(seconds, raw)])."""
    timed, spans = [], []
    started = perf_counter()
    kernel.sample()
    for op in ops:
        if kernel.due():
            kernel.sample()
        op_started = perf_counter()
        raw = op.run()
        op_ended = perf_counter()
        timed.append((op_ended - op_started, raw))
        spans.append((op_started, op_ended))
    kernel.sample()
    elapsed = perf_counter() - started
    return elapsed, [kernel.factor_over(*span) for span in spans], timed


class Round(NamedTuple):
    elapsed: float  # with the kernel samples; only for fitting rounds in the run
    factors: list    # raw seconds to seconds at the reference speed, per operation
    durations: list  # raw seconds of each operation
    failed: int
    outcomes: list  # the first round's only, so memory does not grow with rounds

    @property
    def wall(self):
        return sum(self.durations)

    @property
    def scaled(self):
        return [d * f for d, f in zip(self.durations, self.factors)]


def settle_round(ops, timed, reference, problems):
    """Settle one round; a round after the reference must repeat its
    summaries exactly."""
    outcomes = []
    for index, (op, (_, raw)) in enumerate(zip(ops, timed)):
        try:
            outcome = op.settle(raw)
        except Exception as exc:  # a malformed output is a wrong output, not a crash
            problems.append(f"{op.name}: settling raised {exc!r}")
            outcome = workloads.Outcome(False, repr(exc), None)
        if reference is not None and outcome.summary != reference.outcomes[index].summary:
            problems.append(f"{op.name}: output differs from the first round")
        outcomes.append(outcome)
    return outcomes


def check_round(ops, reference, problems):
    """Check the reference round's outcomes against the oracles."""
    for op, outcome in zip(ops, reference.outcomes):
        if outcome.failed:
            if not op.expected_failure:
                print(f"unexpected failure: {op.name}: {outcome.summary}", file=sys.stderr)
        elif outcome.value is not None:
            try:
                problems += [f"{op.name}: {p}" for p in op.check(outcome.value)]
            except Exception as exc:  # a malformed output is a wrong output, not a crash
                problems.append(f"{op.name}: checking raised {exc!r}")


def timed_rounds(ops, seconds, reference, problems, kernel):
    """Whole rounds while one more round is expected to end the timed part
    nearer to ``seconds`` than stopping would; set-up and settling do not
    count."""
    rounds = []
    while not rounds or sum(r.elapsed for r in rounds) + statistics.mean(r.elapsed for r in rounds) / 2 <= seconds:
        gc.collect()  # every round starts from the same collector state
        elapsed, factors, timed = run_round(ops, kernel)
        outcomes = settle_round(ops, timed, reference or (rounds[0] if rounds else None), problems)
        first = reference is None and not rounds
        rounds.append(Round(elapsed, factors, [t for t, _ in timed], sum(o.failed for o in outcomes),
                            outcomes if first else []))
    return rounds


def end_to_end(rounds, setups):
    """Medians of times scaled to the reference speed."""
    durations = [d for r in rounds for d in r.scaled]
    return {
        "wall_s": (statistics.median(sum(r.scaled) for r in rounds), "s"),
        "op_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
        "op_max_s": (statistics.median(max(r.scaled) for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_figures(rounds, setups):
    """The unscaled seconds and the speed of the host, for people."""
    return {
        "raw_wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "raw_op_p50_ms": (statistics.median(d for r in rounds for d in r.durations) * 1000.0, "ms"),
        "raw_op_max_s": (statistics.median(max(r.durations) for r in rounds), "s"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setups), "s"),
        "speed_factor": (statistics.median(f for r in rounds for f in r.factors), "x"),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, traced, baseline):
    """Per-layer metrics, per traced round."""
    n = len(traced)
    calls = lambda label: tracer.calls_of(label) / n  # noqa: E731
    counter = lambda key: tracer.counters.get(key, 0) / n  # noqa: E731
    group = lambda metric: tracer.group(metric) / n  # noqa: E731
    search_calls = calls("core.search_maps")
    yielded = counter("core.search_maps.yielded")
    traced_wall = statistics.median(r.wall for r in traced)
    metrics = {
        "core.search_calls": (search_calls, "count"),
        "core.search_setup_s": (group("core.search_setup_s"), "s"),
        "core.search_s": (group("core.search_s"), "s"),
        "core.search_yielded": (yielded, "count"),
        "core.search_yield_ratio": (_ratio(yielded, search_calls), "ratio"),
        "core.map_builds": (calls("core.PresheafMap.__init__"), "count"),
        "core.map_build_s": (group("core.map_build_s"), "s"),
        "core.colimit_s": (group("core.colimit_s"), "s"),
        "core.iso_checks": (calls("core.arrows_isomorphic"), "count"),
        "core.iso_s": (group("core.iso_s"), "s"),
        "cylinder.cylinder_calls": (calls("cylinder.CylinderData.cylinder"), "count"),
        "cylinder.cylinder_s": (group("cylinder.cylinder_s"), "s"),
        "cylinder.corner_s": (group("cylinder.corner_s"), "s"),
        "homotopy.find_calls": (calls("homotopy.find_homotopy"), "count"),
        "homotopy.find_s": (group("homotopy.find_s"), "s"),
        "homotopy.found_ratio": (
            _ratio(counter("homotopy.found"), calls("homotopy.find_homotopy")), "ratio"
        ),
        "homotopy.classes_s": (group("homotopy.classes_s"), "s"),
        "lifting.rlp_s": (group("lifting.rlp_s"), "s"),
        "lifting.squares_checked": (counter("lifting.squares_checked"), "count"),
        "lifting.solve_calls": (calls("lifting.solve_lift"), "count"),
        "lifting.solve_s": (group("lifting.solve_s"), "s"),
        "lifting.lift_found_ratio": (
            _ratio(counter("lifting.lifts_found"), calls("lifting.solve_lift")), "ratio"
        ),
        "lifting.anodyne_s": (group("lifting.anodyne_s"), "s"),
        "lifting.dedup_ratio": (
            _ratio(counter("lifting.anodyne_entries"), counter("lifting.anodyne_pre_dedup")), "ratio"
        ),
        "monads.apply_s": (group("monads.apply_s"), "s"),
        "monads.laws_s": (group("monads.laws_s"), "s"),
        "monads.assoc_checked": (counter("monads.assoc_checked"), "count"),
        "witnesses.retract_s": (group("witnesses.retract_s"), "s"),
        "witnesses.tower_s": (group("witnesses.tower_s"), "s"),
        "equivalence.tweq_s": (group("equivalence.tweq_s"), "s"),
        "equivalence.alt_we_s": (group("equivalence.alt_we_s"), "s"),
        "simplicial.nerve_s": (group("simplicial.nerve_s"), "s"),
        "simplicial.horn_s": (group("simplicial.horn_s"), "s"),
        "simplicial.horn_instances": (counter("simplicial.horn_instances"), "count"),
        "simplicial.tau0_s": (group("simplicial.tau0_s"), "s"),
        "documents.parse_calls": (calls("documents.parse_document"), "count"),
        "documents.parse_s": (group("documents.parse_s"), "s"),
        "documents.emit_s": (group("documents.emit_s"), "s"),
    }
    for layer in LAYERS:
        key = "cli.dispatch_s" if layer == "cli" else f"{layer}.self_s"
        metrics[key] = (tracer.layer_self(layer) / n, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - baseline.wall, "s")
    metrics["trace.spans"] = (tracer.span_count() / n, "count")
    return metrics


def run_workload(name, seed, seconds, trace):
    workdir = OUT / f"work-{name}-{os.getpid()}"
    problems = []
    kernel = speed.SpeedKernel()
    unscaled = {}
    try:
        setups = []  # (raw seconds, scale factor)
        for repeat in range(SETUP_REPEATS):
            kernel.sample()
            started = perf_counter()
            took, phl, ops = set_up(name, seed, workdir / f"setup{repeat}")
            kernel.sample()
            setups.append((took, kernel.factor_over(started, started + took)))
            gc.collect()  # frees the previous copy of phl, which module cycles keep alive
        if trace:
            baseline = timed_rounds(ops, 0, None, problems, kernel)[0]
            tracer = Tracer()
            tracer.install(phl)
            try:
                traced = timed_rounds(ops, seconds, baseline, problems, kernel)
            finally:
                tracer.uninstall()
            check_round(ops, baseline, problems)
            metrics = per_layer(tracer, traced, baseline)
            rounds = [baseline] + traced
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(OUT / f"trace-{name}.tsv")
        else:
            rounds = timed_rounds(ops, seconds, None, problems, kernel)
            metrics = end_to_end(rounds, [t * f for t, f in setups])  # before checking, which allocates
            unscaled = raw_figures(rounds, setups)
            check_round(ops, rounds[0], problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(len(r.durations) for r in rounds)
    failed = sum(r.failed for r in rounds)
    kind = f"1 untraced and {len(rounds) - 1} traced" if trace else str(len(rounds))
    print(f"workload {name}: seed {seed}, {kind} rounds of {len(ops)} operations")
    for key, (value, unit) in {**metrics, **unscaled}.items():
        print(f"{name} {key} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SOURCE / "phl" / "__init__.py").is_file():
        print(f"no phl sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
