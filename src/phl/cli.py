"""Command-line front door: parse documents, dispatch, emit canonical reports.

Exit codes: 0 verified/true, 1 false/counterexample, 2 usage or resource
error.  Reports are canonical JSON (sorted keys) so identical invocations
produce byte-identical output; timing is printed only when asked for and
never lands in reports or golden files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import equivalence, fixtures, homotopy, lifting, simplicial, witnesses
from .core import (
    CapError, Error, GuardExceeded, PresheafObject, ValidationError, fin_graph, fin_set,
)
from .cylinder import corner_endpoint, get_instance, verify_ehd
from .documents import (
    MissingKeyError,
    canonical_json,
    family_to_document,
    load_document,
    map_to_document,
    object_to_document,
    parse_document,
    write_document,
)
from .monads import FiniteCategory, FreeCategoryMonad, FreeMonoidMonad, check_monad_laws

OBJECT_KINDS = ("set", "graph", "sset")
ALGEBRA_KINDS = ("monoid", "category")


def _instance(args):
    """The instance the flags name; only an sset instance reads ``--cap``."""
    sset = args.instance.startswith("sset")
    if sset and args.cap is None:
        raise ValidationError(f"instance {args.instance!r} needs an explicit --cap")
    if not sset and args.cap is not None:
        raise ValidationError(f"instance {args.instance!r} reads no --cap")
    return get_instance(args.instance, cap=args.cap)


def _write_out(args, document):
    if getattr(args, "out", None):
        write_document(args.out, document)


def _parse_expecting(path, kinds, expected, refusal=None):
    """The document at ``path``, refused unless its kind is one of ``kinds``."""
    doc = load_document(Path(path))
    if isinstance(doc, dict) and doc.get("kind") not in kinds:
        raise ValidationError(refusal or f"{path} is not {expected} document")
    try:
        return parse_document(doc)
    except MissingKeyError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def cmd_classes(args):
    instance = _instance(args)
    x = _parse_expecting(args.x, OBJECT_KINDS, "a set, graph or sset")
    y = _parse_expecting(args.y, OBJECT_KINDS, "a set, graph or sset")
    classes = homotopy.homotopy_classes(instance, x, y, guard=args.guard)
    report = {
        "class_count": classes.class_count,
        "hom_count": len(classes.homs),
        "representatives": [
            {sort: dict(rep.on[sort]) for sort in rep.domain.signature.sorts}
            for rep in classes.representatives()
        ],
    }
    return 0, report


def cmd_homotopy(args):
    instance = _instance(args)
    f = _parse_expecting(args.f, ("map",), "a map")
    g = _parse_expecting(args.g, ("map",), "a map")
    theta = homotopy.find_homotopy(instance, f, g, guard=args.guard)
    if theta is None:
        return 1, {"homotopic": False}
    return 0, {"homotopic": True, "witness": map_to_document(theta)}


def cmd_lift(args):
    if args.explicit == "category" and args.algebra is None:
        raise ValidationError("lift --explicit category needs an explicit --algebra")
    if args.explicit != "category" and args.algebra is not None:
        raise ValidationError("lift reads --algebra only with --explicit category")
    if args.explicit is not None and args.guard is not None:
        raise ValidationError("lift --explicit reads no --guard")
    square = _parse_expecting(args.square, ("square",), "a square")
    problem = lifting.LiftingProblem(
        square["left"], square["right"], square["top"], square["bottom"]
    )
    if args.explicit:
        corner_info = square.get("corner")
        if not corner_info:
            raise ValidationError("explicit lifts need corner provenance in the square document")
        for key in ("instance", "j", "endpoint"):
            if key not in corner_info:
                raise ValidationError(f"the corner provenance in {args.square} has no {key}")
        instance = get_instance(corner_info["instance"])
        j = parse_document(corner_info["j"])
        corner = corner_endpoint(instance, j, corner_info["endpoint"])
        if corner.arrow != square["left"]:
            raise witnesses.ProvenanceError(
                "the square's left map is not the stated endpoint corner"
            )
        if args.explicit == "monoid":
            diagonal = witnesses.explicit_lift_monoid(corner, square["top"])
        else:
            algebra = _parse_expecting(
                args.algebra, ("category",), "a category",
                refusal="category lifts need a category document",
            )
            diagonal = witnesses.explicit_lift_category(corner, square["top"], algebra)
    else:
        diagonal = lifting.solve_lift(problem, guard=args.guard)
    if diagonal is None:
        return 1, {"lift": False}
    return 0, {"lift": True, "diagonal": map_to_document(diagonal)}


def cmd_fibrant(args):
    """The instance and depth are the family's: a flag may repeat them, and
    the report echoes them either way."""
    a = _parse_expecting(
        args.object, OBJECT_KINDS + ALGEBRA_KINDS, "an object, monoid or category"
    )
    if not isinstance(a, PresheafObject):
        a = a.carrier()
    family = _parse_expecting(args.family, ("family",), "a family")
    for flag, given, stated in (
        ("--instance", args.instance, family.instance_name), ("--depth", args.depth, family.depth),
    ):
        if given is not None and given != stated:
            raise ValidationError(
                f"{flag} {given!r} contradicts the family {args.family}, which states {stated!r}"
            )
    args.instance, args.depth = family.instance_name, family.depth
    if family.entries:
        base = family.entries[0].arrow.domain.signature.name
        if a.signature.name != base:
            raise ValidationError(
                f"{args.object} is over the base {a.signature.name!r}, "
                f"but the family {args.family} is over {base!r}"
            )
    verdict = lifting.is_naively_fibrant_upto(a, family, guard=args.guard)
    report = {
        "fibrant_upto_depth": verdict.ok,
        "depth": verdict.depth,
        "caveat": verdict.caveat,
        "squares_checked": verdict.squares_checked,
    }
    if not verdict.ok:
        provenance, top, bottom = verdict.counterexample
        report["counterexample"] = {
            "entry": provenance,
            "top": map_to_document(top),
            "bottom": map_to_document(bottom),
        }
    return (0 if verdict.ok else 1), report


def cmd_anodyne(args):
    """The instance is the seeds document's: ``--instance`` may repeat it,
    and without seeds it is required."""
    seeds, generators = [], None
    if args.seeds:
        seed_doc = _parse_expecting(args.seeds, ("seeds",), "a seeds")
        if args.instance not in (None, seed_doc["instance"]):
            raise ValidationError(
                f"--instance {args.instance!r} contradicts the seeds {args.seeds}, "
                f"which states {seed_doc['instance']!r}"
            )
        args.instance = seed_doc["instance"]
        seeds = seed_doc["seeds"]
        generators = seed_doc["generators"]
    elif args.instance is None:
        raise ValidationError("anodyne needs an explicit --instance or --seeds")
    instance = _instance(args)
    family = lifting.generate_anodyne(
        instance, seeds, generators, depth=args.depth, guard=args.guard
    )
    document = family_to_document(family)
    _write_out(args, document)
    report = {
        "entries": len(family.entries),
        "depth": family.depth,
        "pre_dedup_counts": {str(k): v for k, v in family.pre_dedup_counts.items()},
    }
    return 0, report


def cmd_tweq(args):
    instance = _instance(args)
    f = _parse_expecting(args.f, ("map",), "a map")
    directory = Path(args.algebras)
    if not directory.is_dir():
        raise ValidationError(f"--algebras {directory} is not a directory")
    algebras = []
    for path in sorted(directory.glob("*.json")):
        parsed = parse_document(path)
        if not isinstance(parsed, FiniteCategory):  # monoids included
            continue
        base = parsed.carrier().signature.name
        if base != instance.base:
            raise ValidationError(
                f"{path} is an algebra over the base {base!r}, "
                f"not over the instance base {instance.base!r}"
            )
        algebras.append(parsed)
    if not algebras:
        raise ValidationError(f"--algebras {directory} holds no monoid or category document")
    verdict = equivalence.is_t_weak_equivalence(instance, f, algebras, guard=args.guard)
    report = {
        "t_weak_equivalence": verdict.ok,
        "caveat": verdict.caveat,
        "per_algebra": [
            {
                "algebra": r.name,
                "well_defined": r.well_defined,
                "injective": r.injective,
                "surjective": r.surjective,
            }
            for r in verdict.records
        ],
    }
    return (0 if verdict.ok else 1), report


def cmd_witness_m2(args):
    if args.cap is None:
        raise ValidationError("witness-m2 needs an explicit --cap")
    if args.monad == "monoid":
        if args.nmax is not None:
            raise ValidationError("witness-m2 --monad monoid reads no --nmax")
        x = _parse_expecting(args.object, ("set",), "a set")
        witness = witnesses.m2_retract_set(x, cap=args.cap)
        document = {
            "kind": "retract-witness",
            "eta": map_to_document(witness.eta),
            "middle": map_to_document(witness.middle),
            "s": map_to_document(witness.s),
            "r": map_to_document(witness.r),
            "u": map_to_document(witness.u),
            "v": map_to_document(witness.v),
        }
    else:
        x = _parse_expecting(args.object, ("graph",), "a graph")
        if args.nmax is None:
            raise ValidationError("witness-m2 --monad category needs an explicit --nmax")
        witness = witnesses.m2_tower_graph(x, n_max=args.nmax, cap=args.cap)
        document = {
            "kind": "tower-witness",
            "stages": [object_to_document(s) for s in witness.stages],
            "h": [map_to_document(h) for h in witness.h_maps],
            "k": [map_to_document(k) for k in witness.k_maps],
            "section": map_to_document(witness.section),
            "probed_bound": witness.n_max,
            "shortfall": witness.shortfall,
        }
    document["steps"] = [{"rule": s.rule, "description": s.description} for s in witness.steps]
    _write_out(args, document)
    return 0, {"witness": document["kind"], "verified": True}


def _ehd_corpus(base, cap=None):
    """The monos and spans that the EHD check runs on a base; an sset base
    at ``cap`` gets boundary inclusions and no spans."""
    if base == "set":
        return fixtures.corpus_monos_set(), fixtures.corpus_spans_set()
    if base == "graph":
        return fixtures.corpus_monos_graph(), fixtures.corpus_spans_graph()
    return [simplicial.boundary_inclusion(n, cap) for n in range(min(cap, 2) + 1)], []


def cmd_check_ehd(args):
    instance = _instance(args)
    report_obj = verify_ehd(instance, *_ehd_corpus(instance.base, args.cap))
    report = {
        "instance": report_obj.instance_name,
        "ok": report_obj.ok,
        "checks": [
            {"kind": c.kind, "subject": c.subject, "ok": c.ok, "detail": c.detail}
            for c in report_obj.checks
        ],
    }
    return (0 if report_obj.ok else 1), report


def cmd_horn_fill(args):
    x = _parse_expecting(args.object, ("sset",), "an sset")
    cap = simplicial.sset_cap(x)
    if args.cap not in (None, cap):
        raise CapError(f"--cap {args.cap} is not the object's cap {cap}")
    report_obj = simplicial.horn_filler(x, args.n, args.k, guard=args.guard)
    report = {
        "n": args.n,
        "k": args.k,
        "instances": len(report_obj.instances),
        "all_fill": report_obj.all_fill,
        "caveat": report_obj.caveat,
    }
    if not report_obj.all_fill:
        report["counterexample"] = map_to_document(report_obj.first_failure)
    return (0 if report_obj.all_fill else 1), report


def cmd_nerve(args):
    category = _parse_expecting(
        args.category, ("category",), "a category", refusal="nerve needs a category document"
    )
    obj = simplicial.nerve(category, args.cap)
    document = object_to_document(obj)
    _write_out(args, document)
    return 0, {"cells": {sort: len(obj.cells[sort]) for sort in obj.signature.sorts}}


def cmd_tau0(args):
    x = _parse_expecting(args.x, ("sset",), "an sset")
    a = _parse_expecting(args.a, ("sset",), "an sset")
    classes = simplicial.tau0_classes(x, a, cap=args.cap, guard=args.guard)
    return 0, {"class_count": classes.class_count, "caveat": classes.caveat}


def cmd_verify(args):
    checks = []
    for name in ("set2", "graphI"):
        instance = get_instance(name)
        report = verify_ehd(instance, *_ehd_corpus(instance.base))
        checks.append({"check": f"ehd[{name}]", "ok": report.ok})
    family = lifting.generate_anodyne(get_instance("graphI"), [], depth=0)
    expected = 2 * family.generator_count
    checks.append(
        {"check": "anodyne depth-0 count", "ok": family.pre_dedup_counts[0] == expected}
    )

    checks.append(
        {
            "check": "monoid monad laws",
            "ok": check_monad_laws(FreeMonoidMonad(3), fin_set(["a"])).ok,
        }
    )
    checks.append(
        {
            "check": "category monad laws",
            "ok": check_monad_laws(
                FreeCategoryMonad(2), fin_graph(["a"], [("l", "a", "a")])
            ).ok,
        }
    )
    ok = all(c["ok"] for c in checks)
    return (0 if ok else 1), {"suite": "core", "ok": ok, "checks": checks}


def cmd_fixtures(args):
    if args.out is None:
        raise ValidationError("fixtures needs an explicit --out")
    written = fixtures.emit_fixture_corpus(args.out)
    return 0, {"written": [p.name for p in sorted(written)]}


#: The argparse spec of each flag that several subcommands share.  A
#: subcommand declares the ones its handler reads, and its report's
#: ``parameters`` echo exactly those.
SHARED_FLAGS = {
    "instance": {"default": "graphI"},
    "cap": {"type": int, "default": None},
    "depth": {"type": int, "default": 0},
    "guard": {"type": int, "default": None},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phl",
        description="Homotopy laboratory for finite presheaf-like structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, shared=(), out=False):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.add_argument("--timing", action="store_true")
        if out:
            p.add_argument("--out", default=None)
        p.set_defaults(handler=handler, shared=shared)
        return p

    p = subcommand("classes", cmd_classes, "homotopy classes of Hom(X, Y)",
                   ("instance", "cap", "guard"))
    p.add_argument("x")
    p.add_argument("y")

    p = subcommand("homotopy", cmd_homotopy, "search a one-step homotopy between two maps",
                   ("instance", "cap", "guard"))
    p.add_argument("f")
    p.add_argument("g")

    p = subcommand("lift", cmd_lift, "solve a lifting square", ("guard",))
    p.add_argument("--square", required=True)
    p.add_argument("--explicit", choices=["monoid", "category"], default=None)
    p.add_argument("--algebra", default=None)

    p = subcommand("fibrant", cmd_fibrant, "RLP of A -> 1 against a family",
                   ("instance", "depth", "guard"))
    p.add_argument("object")
    p.add_argument("--family", required=True)
    p.set_defaults(instance=None, depth=None)

    p = subcommand("anodyne", cmd_anodyne, "generate the depth-bounded family",
                   ("instance", "cap", "depth", "guard"), out=True)
    p.add_argument("--seeds", default=None)
    p.set_defaults(instance=None)

    p = subcommand("tweq", cmd_tweq, "weak-equivalence verdict against an algebra directory",
                   ("instance", "cap", "guard"))
    p.add_argument("f")
    p.add_argument("--algebras", required=True)

    p = subcommand("witness-m2", cmd_witness_m2, "build and verify a unit witness",
                   ("cap",), out=True)
    p.add_argument("object")
    p.add_argument("--monad", choices=["monoid", "category"], required=True)
    p.add_argument("--nmax", type=int, default=None)
    # bench/workloads.py and the golden cases pass --guard; nothing reads it
    p.add_argument("--guard", type=int, default=None)

    subcommand("check-ehd", cmd_check_ehd, "verify the homotopy-data axioms on the corpus",
               ("instance", "cap"))

    p = subcommand("horn-fill", cmd_horn_fill, "horn filling verdicts", ("cap", "guard"))
    p.add_argument("object")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = subcommand("nerve", cmd_nerve, "nerve of a category, truncated", ("cap",), out=True)
    p.add_argument("category")
    # bench/workloads.py passes --guard; nothing reads it
    p.add_argument("--guard", type=int, default=None)

    p = subcommand("tau0", cmd_tau0, "interval-quotient classes of Hom(X, A)", ("cap", "guard"))
    p.add_argument("x")
    p.add_argument("a")

    subcommand("verify", cmd_verify, "run the built-in invariant suite")

    subcommand("fixtures", cmd_fixtures, "write the fixture corpus", out=True)

    return parser


def run_command(argv):
    """Dispatch; returns (exit code, report dict).  The report's
    ``parameters`` are the shared flags the subcommand declares."""
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, body = args.handler(args)
    finally:
        # also on an error exit, which the handler leaves by raising
        if args.timing:
            print(f"timing_ms={int((time.monotonic() - started) * 1000)}", file=sys.stderr)
    report = {
        "command": args.command,
        "parameters": {flag: getattr(args, flag) for flag in args.shared},
        "report": body,
    }
    return code, report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, report = run_command(argv)
    except GuardExceeded as exc:
        print(canonical_json({"error": str(exc), "kind": "resource"}), end="")
        return 2
    except Error as exc:
        print(canonical_json({"error": str(exc), "kind": "validation"}), end="")
        return 2
    print(canonical_json(report), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
