import bisect
import itertools
import random

import pytest

from phl import core, simplicial
from phl.core import ValidationError, is_mono
from phl.cylinder import get_instance
from phl.fixtures import (
    chain2_category,
    corpus_categories,
    discrete2_category,
    terminal_category,
)
from phl.lifting import generate_anodyne, solve_lift
from phl.simplicial import (
    boundary_inclusion,
    delta,
    groupoid_interval,
    horn_filler,
    horn_inclusion,
    nerve,
    tau0_classes,
    trunc_sset,
)

from conftest import to_terminal


def whole_horn_map(incl, top, x):
    """The horn map up to the cap that a top on the nondegenerate
    simplices determines: every other cell is forced."""
    return next(core.search_maps(incl.domain, x, pin=top.on))


def nondegenerate_part(horn_map, n):
    """A map Λⁿₖ -> X on the strictly increasing digit strings below
    dimension max(n − 1, 0)."""
    return {
        str(m): {c: v for c, v in horn_map.on[str(m)].items() if len(set(c)) == len(c)}
        for m in range(max(n - 1, 0) + 1)
    }


def assert_least_extensions(x, cap, name):
    """Oracle: the walk over the whole horn up to the cap and, per top, the
    n-simplex of ``extend_along``'s least extension to Δⁿ.  The report's
    tops are the oracle's on the nondegenerate simplices, in the same
    order, and its first failure is the least whole top with no extension."""
    for n in range(cap + 1):
        top_cell = "".join(str(v) for v in range(n + 1))
        for k in range(n + 1):
            incl = horn_inclusion(n, k, cap)
            report = horn_filler(x, n, k)
            expected = []
            for top in core.search_maps(incl.domain, x):
                extension = core.extend_along([(incl, top)], x)
                expected.append((top, None if extension is None else extension.on[str(n)][top_cell]))
            assert [(top.on, filler) for top, filler in report.instances] == [
                (nondegenerate_part(top, n), filler) for top, filler in expected
            ], (name, n, k)
            assert report.first_failure == next(
                (top for top, filler in expected if filler is None), None), (name, n, k)


def monotone_maps(m, n):
    """Oracle: all order-preserving maps [m] -> [n] as digit strings."""
    return [
        "".join(str(v) for v in w)
        for w in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


class TestStandardShapes:
    def test_point(self):
        boundary = boundary_inclusion(0, 2)
        assert all(len(boundary.codomain.cells[str(m)]) == 1 for m in range(3))
        assert all(len(boundary.domain.cells[str(m)]) == 0 for m in range(3))

    def test_boundary_of_interval(self):
        boundary = boundary_inclusion(1, 2).domain
        assert boundary.cells["0"] == ("0", "1")
        nondegenerate = [c for c in boundary.cells["1"] if c[0] != c[1]]
        assert nondegenerate == []

    def test_horn_cells_match_oracle(self):
        # a cell lies in the horn iff its image misses a vertex other than k
        for n, k in ((1, 0), (2, 0), (2, 1), (2, 2)):
            horn = horn_inclusion(n, k, 3).domain
            for m in range(4):
                expected = [
                    c
                    for c in monotone_maps(m, n)
                    if not (set(str(v) for v in range(n + 1)) - set(c) <= {str(k)})
                ]
                assert list(horn.cells[str(m)]) == expected

    def test_lambda_1_2_shape(self):
        horn = horn_inclusion(2, 1, 2).domain
        assert len(horn.cells["0"]) == 3
        nondegenerate = [c for c in horn.cells["1"] if len(set(c)) == 2]
        assert nondegenerate == ["01", "12"]

    def test_inclusions_are_monos(self):
        for n in (0, 1, 2):
            assert is_mono(boundary_inclusion(n, 2))
            for k in range(n + 1):
                assert is_mono(horn_inclusion(n, k, 2))


def identity_failure(obj, cap):
    """Reference for the identity check: one cell at a time, each identity
    in turn; the message of the first failure, or None."""
    def d(n, i, cell):
        return obj.op(f"d{n}_{i}", cell)

    def s(n, i, cell):
        return obj.op(f"s{n}_{i}", cell)

    for n in range(2, cap + 1):
        for cell in obj.cells[str(n)]:
            for j in range(n + 1):
                for i in range(j):
                    if d(n - 1, i, d(n, j, cell)) != d(n - 1, j - 1, d(n, i, cell)):
                        return f"simplicial identity d{i} d{j} fails at {cell!r} in dimension {n}"
    for n in range(cap - 1):
        for cell in obj.cells[str(n)]:
            for j in range(n + 1):
                for i in range(j + 1):
                    if s(n + 1, i, s(n, j, cell)) != s(n + 1, j + 1, s(n, i, cell)):
                        return f"simplicial identity s{i} s{j} fails at {cell!r} in dimension {n}"
    for n in range(cap):
        for cell in obj.cells[str(n)]:
            for j in range(n + 1):
                for i in range(n + 2):
                    if i == j or i == j + 1:
                        expected = cell
                    elif i < j:
                        expected = s(n - 1, j - 1, d(n, i, cell))
                    else:
                        expected = s(n - 1, j, d(n, i - 1, cell))
                    if d(n + 1, i, s(n, j, cell)) != expected:
                        return f"simplicial identity d{i} s{j} fails at {cell!r} in dimension {n}"
    return None


class TestTruncSSet:
    def test_identities_are_enforced(self):
        cells = {0: ("x", "y"), 1: ("e",)}
        faces = {(1, 0): {"e": "y"}, (1, 1): {"e": "x"}}
        degens = {(0, 0): {"x": "e", "y": "e"}}
        # d0 s0 should be the identity; by sending both degeneracies to the
        # same edge that fails
        with pytest.raises(ValidationError, match="simplicial identity"):
            trunc_sset(1, cells, faces, degens)

    @staticmethod
    def _edited_simplex(n, cap, edits):
        """Δⁿ at the cap rebuilt by trunc_sset from its own tables, with
        each ``(operator, cell, image)`` edit applied."""
        simplex = delta(n, cap)
        tables = {name: dict(table) for name, table in simplex.ops.items()}
        for name, cell, image in edits:
            tables[name][cell] = image
        cells = {m: simplex.cells[str(m)] for m in range(cap + 1)}
        faces = {(m, i): tables[f"d{m}_{i}"] for m in range(1, cap + 1) for i in range(m + 1)}
        degens = {(m, i): tables[f"s{m}_{i}"] for m in range(cap) for i in range(m + 1)}
        return trunc_sset(cap, cells, faces, degens)

    @pytest.mark.parametrize("n, cap, edits, failure", [
        # d∘d: d0 d1 = d0 d0 breaks at 022
        (2, 2, [("d2_1", "022", "00")], "d0 d1 fails at '022' in dimension 2"),
        # two failing cells: the earlier cell 012 is named, although only a
        # later identity (d0 d2) fails there and d0 d1 fails at 022
        (2, 2, [("d2_1", "022", "00"), ("d2_2", "012", "00")],
         "d0 d2 fails at '012' in dimension 2"),
        # s∘s: s1_0 s0_0 = s1_1 s0_0 breaks at the vertex 0
        (1, 2, [("s1_0", "00", "001")], "s0 s0 fails at '0' in dimension 0"),
        # d∘s at dimension 1: d2_0 s1_0 is no longer the identity on 01
        (1, 2, [("s1_0", "01", "011")], "d0 s0 fails at '01' in dimension 1"),
        # two failing cells: d1 s0 at the vertex 0 comes before d0 s0 at 1
        (1, 1, [("d1_0", "11", "0"), ("d1_1", "00", "1")], "d1 s0 fails at '0' in dimension 0"),
    ], ids=["dd", "dd-two-cells", "ss", "ds-dim1", "ds-two-cells"])
    def test_first_failing_identity_is_named(self, n, cap, edits, failure):
        with pytest.raises(ValidationError) as refused:
            self._edited_simplex(n, cap, edits)
        assert str(refused.value) == f"simplicial identity {failure}"

    def test_agrees_with_the_reference_on_random_edits(self):
        rng = random.Random(0)
        shapes = [(delta(n, cap), cap) for n in (1, 2, 3) for cap in (1, 2, 3)]
        # cap-4 and cap-5 nerves are the sizes the horns benchmark parses
        shapes += [(nerve(category, cap), cap) for category in corpus_categories()
                   for cap in (2, 4, 5)]
        failures = 0
        for shape, cap in shapes:
            targets = {name: t for name, _, t in shape.signature.ops}
            for _ in range(25):
                ops = {name: dict(table) for name, table in shape.ops.items()}
                for _ in range(rng.randint(1, 3)):
                    name = rng.choice([name for name in ops if ops[name]])
                    cell = rng.choice(sorted(ops[name]))
                    ops[name][cell] = rng.choice(shape.cells[targets[name]])
                edited = core.PresheafObject(shape.signature, shape.cells, ops)
                expected = identity_failure(edited, cap)
                faces = {(m, i): ops[f"d{m}_{i}"] for m in range(1, cap + 1) for i in range(m + 1)}
                degens = {(m, i): ops[f"s{m}_{i}"] for m in range(cap) for i in range(m + 1)}
                cells = {m: shape.cells[str(m)] for m in range(cap + 1)}
                try:
                    trunc_sset(cap, cells, faces, degens)
                    found = None
                except ValidationError as exc:
                    found = str(exc)
                assert found == expected
                failures += expected is not None
        assert failures > 100

    def test_unedited_tables_rebuild(self):
        assert self._edited_simplex(2, 3, []) == delta(2, 3)

    def test_delta_validates(self):
        for n in (0, 1, 2):
            delta(n, 3)  # construction asserts the identities


class TestNerve:
    def test_terminal_is_a_point(self):
        n = nerve(terminal_category(), 3)
        assert all(len(n.cells[str(m)]) == 1 for m in range(4))

    def test_groupoid_interval_truncation(self):
        n = nerve(groupoid_interval(), 2)
        assert len(n.cells["0"]) == 2
        nondegenerate_1 = [c for c in n.cells["1"] if c not in ("ib", "it")]
        assert sorted(nondegenerate_1) == ["d", "u"]
        assert len(n.cells["2"]) == 8

    def test_chain_nerve_single_nondegenerate_2_cell(self):
        n = nerve(chain2_category(), 2)
        idents = {"i0", "i1", "i2"}
        nondegenerate = [
            c for c in n.cells["2"] if not (set(c.split("|")) & idents)
        ]
        assert nondegenerate == ["a|b"]

    def test_face_composition_convention(self):
        n = nerve(chain2_category(), 2)
        assert n.op("d2_1", "a|b") == "c"  # composing the adjacent pair
        assert n.op("d2_0", "a|b") == "b"
        assert n.op("d2_2", "a|b") == "a"


class TestHornFilling:
    def test_point_fills_everything(self):
        point = nerve(terminal_category(), 2)
        for n in (1, 2):
            for k in range(n + 1):
                assert horn_filler(point, n, k).all_fill

    def test_nerves_fill_inner_horns(self):
        for category in corpus_categories():
            x = nerve(category, 3)
            for n in (2, 3):
                for k in range(1, n):
                    report = horn_filler(x, n, k, guard=2_000_000)
                    assert report.all_fill, (category.name, n, k)

    def test_groupoid_nerve_is_kan(self):
        x = nerve(groupoid_interval(), 3)
        for n in (1, 2, 3):
            for k in range(n + 1):
                assert horn_filler(x, n, k).all_fill

    def test_chain_nerve_fails_outer_horn(self):
        x = nerve(chain2_category(), 3)
        report = horn_filler(x, 2, 0)
        assert not report.all_fill
        # the counterexample maps the long edge to an identity and the
        # short edge to a non-invertible arrow; cross-check with the oracle
        top = report.first_failure
        incl = horn_inclusion(2, 0, 3)
        assert solve_lift(to_terminal(incl, top)) is None

    def test_filler_matches_lifting_oracle(self):
        x = nerve(chain2_category(), 2)
        incl = horn_inclusion(2, 1, 2)
        report = horn_filler(x, 2, 1)
        for top, filler in report.instances:
            oracle = solve_lift(to_terminal(incl, whole_horn_map(incl, top, x)))
            assert (filler is None) == (oracle is None)

    @pytest.mark.parametrize("cap", range(1, 5))
    def test_fillers_are_the_least_extensions(self, cap):
        for category in corpus_categories():
            assert_least_extensions(nerve(category, cap), cap, category.name)

    @pytest.mark.parametrize("cap", (2, 3))
    @pytest.mark.parametrize("shape", ("delta2", "boundary3", "horn3_1"))
    def test_fillers_are_the_least_extensions_off_nerves(self, shape, cap):
        x = {
            "delta2": lambda: delta(2, cap),
            "boundary3": lambda: boundary_inclusion(3, cap).domain,
            "horn3_1": lambda: horn_inclusion(3, 1, cap).domain,
        }[shape]()
        assert_least_extensions(x, cap, shape)

    def test_non_nerve_targets_fail_some_horns(self):
        # the extra oracle targets are not Kan: each leaves some horn unfilled
        for x in (delta(2, 2), boundary_inclusion(3, 2).domain, horn_inclusion(3, 1, 2).domain):
            assert not all(horn_filler(x, n, k).all_fill for n in (1, 2) for k in range(n + 1))

    def test_filler_has_the_least_missing_face_then_comes_first(self):
        # Cells are kept in label order.  From c there are four edges: e to
        # b, f and g to a, and the degenerate sc.  The horn of Δ¹ at 0 with
        # c as its top misses d0, the target, so it fills with f: an edge
        # to the least vertex, and of the two such the first.  The first
        # edge from c, e, and the other edge to a, g, are wrong.
        edges = {"e": ("c", "b"), "f": ("c", "a"), "g": ("c", "a"),
                 "sa": ("a", "a"), "sb": ("b", "b"), "sc": ("c", "c")}
        x = trunc_sset(
            1, {0: ("a", "b", "c"), 1: tuple(edges)},
            {(1, 0): {e: t for e, (_, t) in edges.items()},
             (1, 1): {e: s for e, (s, _) in edges.items()}},
            {(0, 0): {v: "s" + v for v in "abc"}},
        )
        incl = horn_inclusion(1, 0, 1)
        report = horn_filler(x, 1, 0)
        assert {top.on["0"]["0"]: filler for top, filler in report.instances} == {
            "a": "sa", "b": "sb", "c": "f"}
        for top, filler in report.instances:
            extension = core.extend_along([(incl, whole_horn_map(incl, top, x))], x)
            assert extension.on["1"]["01"] == filler

    def test_guard_bounds_only_the_walk_over_the_tops(self):
        # the tops are walked on the nondegenerate horn; the one rebuild of
        # the failing top up to the cap counts one candidate per cell
        x = nerve(chain2_category(), 3)

        def passes(guard, run):
            try:
                run(guard)
            except core.GuardExceeded:
                return False
            return True

        least = bisect.bisect_left(
            range(10**6), True, key=lambda g: passes(g, lambda g: horn_filler(x, 2, 0, guard=g)))
        assert 0 < least < 10**6
        report = horn_filler(x, 2, 0, guard=least)
        assert len(report.instances) == 14 and report.first_failure is not None
        with pytest.raises(core.GuardExceeded,
                           match=f"exceeded the guard of {least - 1} candidates"):
            horn_filler(x, 2, 0, guard=least - 1)
        # the walk over the whole horn up to the cap needs more
        horn = horn_inclusion(2, 0, 3).domain
        capped = bisect.bisect_left(
            range(10**6), True, key=lambda g: passes(g, lambda g: list(core.search_maps(horn, x, guard=g))))
        assert least < capped

    def test_only_a_failing_horn_builds_a_simplex(self, monkeypatch):
        kan, chain = nerve(groupoid_interval(), 3), nerve(chain2_category(), 3)
        built = []

        def counting_delta(n, cap):
            built.append((n, cap))
            return delta(n, cap)

        monkeypatch.setattr(simplicial, "delta", counting_delta)
        assert horn_filler(kan, 2, 0).all_fill
        assert built == []
        assert not horn_filler(chain, 2, 0).all_fill
        assert built == [(2, 3)]


class TestTau0:
    def test_groupoid_interval_one_class(self):
        d0 = delta(0, 2)
        assert tau0_classes(d0, nerve(groupoid_interval(), 2)).class_count == 1

    def test_discrete_two_classes(self):
        d0 = delta(0, 2)
        assert tau0_classes(d0, nerve(discrete2_category(), 2)).class_count == 2

    def test_terminal_one_class(self):
        d0 = delta(0, 2)
        classes = tau0_classes(d0, nerve(terminal_category(), 2))
        assert classes.class_count == 1
        assert "cap" in classes.caveat

    def test_cap_mismatch_refused(self):
        with pytest.raises(core.CapError):
            tau0_classes(delta(0, 2), nerve(terminal_category(), 3))


class TestAnodyneSanity:
    def test_depth_one_over_inner_horns_produces_monos(self):
        # the closure claim is exercised only as a sanity check: generated
        # entries are monos and nerves lift against the small ones
        instance = get_instance("sset-jinf", cap=2)
        seeds = [horn_inclusion(2, 1, 2)]
        gens = [boundary_inclusion(0, 2), boundary_inclusion(1, 2)]
        family = generate_anodyne(instance, seeds, gens, depth=1)
        assert all(is_mono(entry.arrow) for entry in family.entries)
        assert family.pre_dedup_counts[0] == 1 + 2 * len(gens)
