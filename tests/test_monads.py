import functools
import itertools
import random

import pytest

from phl.core import (
    CapError,
    PresheafMap,
    ValidationError,
    fin_graph,
    fin_set,
    identity,
    is_mono,
)
from phl.cylinder import graph_instance as make_graph_instance
from phl.fixtures import (
    corpus_categories, corpus_graphs, corpus_monoids, corpus_sets, groupoid_interval,
)
from phl.homotopy import find_homotopy
from phl.monads import (
    FiniteCategory,
    FiniteMonoid,
    FreeCategoryMonad,
    FreeMonoidMonad,
    LawReport,
    check_monad_laws,
    extend_to_free,
    linear_chain,
)

from conftest import enumerate_homs, loop_complete_graphs, mono_unit


def algebra_extend(algebra, f, monad):
    """The canonical extension T(X) -> A of a map f : X -> A into an
    algebra: a path composes through the algebra's table from the identity
    at its source, so the empty path goes to that identity (to the unit,
    for a monoid)."""
    tx = monad.apply(f.domain)
    vertex_on, edge_on = monad._tables(f.on)
    on = {label: functools.reduce(algebra.then, map(edge_on.get, edges), algebra.identity(vertex_on[a]))
          for label, (a, _, edges) in tx.decode.items()}
    return PresheafMap(tx.obj, algebra.carrier(), monad._on(dict(vertex_on), on))


def _reference_laws(monad, x):
    """The exhaustive law check that ``check_monad_laws`` replaced: every
    nested element is visited and classified, none is counted in bulk.
    Returns the report and a sample of the first 20 skipped elements in
    walk order, each with the side that overflows."""
    cap = monad.cap
    failures = []
    tx = monad.apply(x)
    mu = monad.mult(x)
    ttx = monad.apply(tx.obj)

    unit_left_ok = True
    unit_right_ok = True
    if cap >= 1:
        eta_tx = monad.unit(tx.obj)
        t_eta = monad.on_map(monad.unit(x))
        for sort, cell in tx.obj.cell_items():
            if mu.defined[sort].get(eta_tx.on[sort][cell]) != cell:
                unit_left_ok = False
                failures.append(("mu∘etaT", sort, cell))
            if mu.defined[sort].get(t_eta.on[sort][cell]) != cell:
                unit_right_ok = False
                failures.append(("mu∘Teta", sort, cell))

    t_path, tt_path = tx.decode, ttx.decode
    tt_label = {path: label for label, path in tt_path.items()}
    _, mu_on = monad._tables(mu.defined)

    def tt_encode(entries, vertex):
        if entries:
            path = (t_path[entries[0]][0], t_path[entries[-1]][1], tuple(entries))
        else:
            path = (vertex, vertex, ())
        return tt_label.get(path)

    expansion = {
        label: sum(len(t_path[entry][2]) for entry in path[2])
        for label, path in tt_path.items()
    }
    tt_cells = [label for label in tt_path if expansion[label] <= cap]
    leaving = {}
    for label in tt_cells:
        leaving.setdefault(tt_path[label][0], []).append(label)

    def grow(prefix, total, choices):
        for label in choices:
            extra = expansion[label]
            if total + extra > cap:
                continue
            outer = prefix + (label,)
            yield tt_path[outer[0]][0], outer
            if len(outer) < cap:
                yield from grow(outer, total + extra, leaving.get(tt_path[label][1], ()))

    def nested():
        for vertex in monad._graph(tx.obj)[0]:
            yield vertex, ()
        yield from grow((), 0, tt_cells)

    assoc_ok = True
    checked = 0
    skipped_count = 0
    skipped = []
    for anchor, outer in nested():
        concat = []
        for label in outer:
            concat.extend(tt_path[label][2])
        first = None
        if len(concat) <= cap:
            middle = tt_encode(concat, anchor)
            if middle is not None:
                first = mu_on.get(middle)
        second = None
        inner = []
        for label in outer:
            value = mu_on.get(label)
            if value is None:
                inner = None
                break
            inner.append(value)
        if inner is not None:
            middle = tt_encode(inner, anchor)
            if middle is not None:
                second = mu_on.get(middle)
        if first is None or second is None:
            skipped_count += 1
            if len(skipped) < 20:
                skipped.append((anchor, outer, "mu∘muT" if first is None else "mu∘Tmu"))
            continue
        checked += 1
        if first != second:
            assoc_ok = False
            failures.append(("assoc", anchor, outer))
    report = LawReport(unit_left_ok, unit_right_ok, assoc_ok, checked, skipped_count, tuple(failures))
    return report, tuple(skipped)


def _overflowing(monad, x):
    """The T(T(X))-cells that the multiplication leaves out, after checking
    that they are exactly those whose flattening passes the cap."""
    tx = monad.apply(x)
    ttx = monad.apply(tx.obj)
    table = monad._tables(monad.mult(x).defined)[1]
    out = tuple(label for label in ttx.decode if label not in table)
    assert out == tuple(label for label, (_, _, entries) in ttx.decode.items()
                        if sum(len(tx.decode[e][2]) for e in entries) > monad.cap)
    return out


def _corrupt(monad, x, seed):
    """Corrupt the multiplication of this ``monad`` instance at ``x`` in one
    to three seeded places among its first 40 entries, which the walk meets
    early: each is either dropped or sent to a random T(X)-cell."""
    rng = random.Random(seed)
    good = monad.mult(x)
    vertex_on, table = monad._tables(good.defined)
    broken = dict(table)
    targets = sorted(set(table.values()))
    for label in rng.sample(list(table)[:40], rng.randint(1, 3)):
        if rng.random() < 0.5:
            del broken[label]
        else:
            broken[label] = rng.choice(targets)
    bad = type(good)(good.domain, good.codomain, monad._on(vertex_on, broken))
    monad.mult = lambda obj: bad


class TestFreeMonoid:
    def test_single_letter_words(self):
        tx = FreeMonoidMonad(3).apply(fin_set(["a"]))
        assert set(tx.obj.cells["element"]) == {"[]", "[a]", "[a,a]", "[a,a,a]"}

    def test_module_level_constructors(self):
        assert len(FreeMonoidMonad(3).apply(fin_set(["a"])).obj.cells["element"]) == 4
        assert len(FreeCategoryMonad(2).apply(linear_chain(1)).obj.cells["edge"]) == 3

    def test_empty_set(self):
        tx = FreeMonoidMonad(5).apply(fin_set([]))
        assert tx.obj.cells["element"] == ("[]",)

    def test_two_letters_cap_two(self):
        # oracle: 1 + 2 + 4
        tx = FreeMonoidMonad(2).apply(fin_set(["a", "b"]))
        assert len(tx.obj.cells["element"]) == 7


class TestOneVertexGraphs:
    """The free-monoid monad is the free-category monad on one-vertex graphs."""

    @pytest.mark.parametrize("cap", range(5))
    def test_free_monoid_matches_word_oracle(self, cap):
        for x in corpus_sets():
            letters = x.cells["element"]
            words = [
                word for n in range(cap + 1) for word in itertools.product(letters, repeat=n)
            ]
            labels = ["[" + ",".join(word) + "]" for word in words]
            paths = [(None, None, word) for word in words]
            tx = FreeMonoidMonad(cap).apply(x)
            assert list(tx.decode.items()) == list(zip(labels, paths))
            assert tx.encode == dict(zip(paths, labels))
            assert tx.obj == fin_set(labels)

    @pytest.mark.parametrize("letters, cap", [("ab", 3), ("a", 3), ("xyz", 2)])
    def test_same_objects_laws_and_overflow_as_a_loop_graph(self, letters, cap):
        def as_word(label):
            return label.replace("[]@*", "[]")

        x = fin_set(letters)
        g = fin_graph(["*"], [(letter, "*", "*") for letter in letters])
        smonad, gmonad = FreeMonoidMonad(cap), FreeCategoryMonad(cap)
        tx, tg = smonad.apply(x), gmonad.apply(g)
        assert list(tx.decode) == [as_word(label) for label in tg.decode]
        ttx, ttg = smonad.apply(tx.obj), gmonad.apply(tg.obj)
        assert list(ttx.decode) == [as_word(label) for label in ttg.decode]
        assert _overflowing(smonad, x) == tuple(as_word(l) for l in _overflowing(gmonad, g))
        words, paths = check_monad_laws(smonad, x), check_monad_laws(gmonad, g)
        assert words.ok and paths.ok
        assert (words.assoc_checked, words.skipped_count) == (
            paths.assoc_checked, paths.skipped_count
        )

    def test_law_reports_keep_their_counts_and_samples(self):
        # counts of the law checks that ``phl verify`` runs, and of the
        # two-letter monoid at cap 3, and the first nestings that the
        # exhaustive walk skips
        report = check_monad_laws(FreeMonoidMonad(3), fin_set(["a"]))
        assert (report.ok, report.assoc_checked, report.skipped_count) == (True, 428, 3668)
        sample = _reference_laws(FreeMonoidMonad(3), fin_set(["a"]))[1]
        assert sample[0] == (None, ("[]", "[[]]", "[[],[],[]]"), "mu∘muT")
        report = check_monad_laws(FreeCategoryMonad(2), fin_graph(["a"], [("l", "a", "a")]))
        assert (report.ok, report.assoc_checked, report.skipped_count) == (True, 36, 35)
        sample = _reference_laws(FreeCategoryMonad(2), fin_graph(["a"], [("l", "a", "a")]))[1]
        assert sample[0] == ("a", ("[[]@a]", "[[]@a,[]@a]"), "mu∘muT")
        report = check_monad_laws(FreeMonoidMonad(3), fin_set(["a", "b"]))
        assert (report.ok, report.assoc_checked, report.skipped_count) == (True, 2249, 23720)
        assert not report.failures


class TestFreeCategory:
    def test_chain_cap_two(self):
        tg = FreeCategoryMonad(2).apply(linear_chain(1))
        assert len(tg.obj.cells["edge"]) == 3  # two empties, one singleton

    def test_loop_paths(self):
        tg = FreeCategoryMonad(3).apply(fin_graph(["a"], [("l", "a", "a")]))
        assert len(tg.obj.cells["edge"]) == 4

    def test_parallel_pair_cap_one(self):
        # oracle: 2 empties + 2 singleton paths
        tg = FreeCategoryMonad(1).apply(corpus_graphs()["parallel"])
        assert len(tg.obj.cells["edge"]) == 4

    def test_path_count_matches_direct_enumeration(self):
        g = corpus_graphs()["chain2"]
        cap = 3
        tg = FreeCategoryMonad(cap).apply(g)
        edges = g.cells["edge"]
        count = len(g.cells["vertex"])  # empty paths
        sequences = [
            seq
            for n in range(1, cap + 1)
            for seq in itertools.product(edges, repeat=n)
            if all(g.op("tgt", a) == g.op("src", b) for a, b in zip(seq, seq[1:]))
        ]
        assert len(tg.obj.cells["edge"]) == count + len(sequences)


class TestUnit:
    def test_set_unit(self):
        x = fin_set(["a"])
        eta = mono_unit(FreeMonoidMonad(2), x)
        assert eta.on["element"]["a"] == "[a]"

    def test_graph_unit(self):
        loop = fin_graph(["a"], [("l", "a", "a")])
        eta = mono_unit(FreeCategoryMonad(2), loop)
        assert eta.on["edge"]["l"] == "[l]"

    def test_unit_needs_cap(self):
        with pytest.raises(CapError):
            FreeMonoidMonad(0).unit(fin_set(["a"]))

    def test_unit_mono_on_corpus(self):
        monad = FreeCategoryMonad(3)
        for g in corpus_graphs().values():
            assert is_mono(monad.unit(g))
        smonad = FreeMonoidMonad(3)
        for n in range(4):
            assert is_mono(smonad.unit(fin_set([f"x{i}" for i in range(n + 1)])))


class TestMapAndMult:
    def test_identity_action(self):
        monad = FreeMonoidMonad(2)
        x = fin_set(["a", "b"])
        tf, _ = monad.on_map(identity(x)), monad.mult(x)
        assert tf == identity(monad.apply(x).obj)

    def test_flattening(self):
        monad = FreeMonoidMonad(2)
        x = fin_set(["a", "b"])
        tx = monad.apply(x)
        mu = monad.mult(x)
        ttx = monad.apply(tx.obj)
        a, b = tx.encode[None, None, ("a",)], tx.encode[None, None, ("b",)]
        outer = ttx.encode[None, None, (a, b)]
        assert mu.defined["element"][outer] == tx.encode[None, None, ("a", "b")]

    def test_mult_is_partial_at_cap(self):
        monad = FreeMonoidMonad(2)
        x = fin_set(["a"])
        tx = monad.apply(x)
        mu = monad.mult(x)
        a, aa = tx.encode[None, None, ("a",)], tx.encode[None, None, ("a", "a")]
        outer = monad.apply(tx.obj).encode[None, None, (aa, a)]
        assert outer in mu.domain.cells["element"]
        assert outer not in mu.defined["element"]  # [a,a] next to [a] overflows

    def test_t_preserves_monos_on_corpus(self):
        monad = FreeCategoryMonad(3)
        graphs = list(corpus_graphs().values())
        for dom in graphs[:6]:
            for cod in graphs[:6]:
                if sum(map(len, dom.cells.values())) > 4 or sum(map(len, cod.cells.values())) > 4:
                    continue
                for f in enumerate_homs(dom, cod):
                    if is_mono(f):
                        assert is_mono(monad.on_map(f))


class TestMonadLaws:
    def test_single_letter_cap_four(self):
        report = check_monad_laws(FreeMonoidMonad(4), fin_set(["a"]))
        assert report.ok
        assert report.assoc_checked > 0
        assert report.skipped_count > 0  # cap-blocked nestings are visible

    def test_empty_carrier(self):
        assert check_monad_laws(FreeMonoidMonad(2), fin_set([])).ok

    def test_graph_laws(self):
        report = check_monad_laws(FreeCategoryMonad(2), corpus_graphs()["loop"])
        assert report.ok

    def test_corrupted_mult_is_caught(self, monkeypatch):
        monad = FreeMonoidMonad(2)
        x = fin_set(["a"])
        good = monad.mult(x)

        def corrupt(self, obj):
            if obj == x:
                tx = monad.apply(x)
                broken = dict(good.defined["element"])
                a = tx.encode[None, None, ("a",)]
                outer = monad.apply(tx.obj).encode[None, None, (a, a)]
                broken[outer] = a  # should be [a,a]
                return type(good)(good.domain, good.codomain, {"element": broken})
            return FreeMonoidMonad.mult(self, obj)

        monkeypatch.setattr(FreeMonoidMonad, "mult", corrupt)
        report = check_monad_laws(monad, x)
        assert not report.ok
        assert report.failures


LAW_CASES = {  # the law checks of the benchmark's algebra workload
    "loop cap4": (FreeCategoryMonad, corpus_graphs()["loop"], 4),
    "cycle2 cap4": (FreeCategoryMonad, corpus_graphs()["cycle2"], 4),
    "{a} cap4": (FreeMonoidMonad, fin_set(["a"]), 4),
    "{a,b} cap3": (FreeMonoidMonad, fin_set(["a", "b"]), 3),
}


def _agrees_with_reference(monad, x):
    """The report, which must be the reference's, and the reference's
    skip sample."""
    report = check_monad_laws(monad, x)
    reference, sample = _reference_laws(monad, x)
    assert report == reference
    return report, sample


class TestLawsAgainstReference:
    """Leaving the subtrees that overflow unwalked, and counting the skips
    as all nestings less those checked, leaves every report, failure order
    included, as the exhaustive walk gives it."""

    @pytest.mark.parametrize("cap", range(4))
    def test_corpus(self, cap):
        for x in corpus_sets():
            _agrees_with_reference(FreeMonoidMonad(cap), x)
        for g in corpus_graphs().values():
            _agrees_with_reference(FreeCategoryMonad(cap), g)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_benchmark_law_cases(self, case):
        cls, x, cap = LAW_CASES[case]
        assert _agrees_with_reference(cls(cap), x)[0].ok

    def test_corrupted_multiplications(self):
        cases = [
            (FreeCategoryMonad, corpus_graphs()["loop"], 3),
            (FreeCategoryMonad, corpus_graphs()["cycle2"], 3),
            (FreeCategoryMonad, corpus_graphs()["two_loops"], 2),
            (FreeCategoryMonad, corpus_graphs()["looped_edge"], 2),
            (FreeMonoidMonad, fin_set(["a"]), 3),
            (FreeMonoidMonad, fin_set(["a", "b"]), 2),
        ]
        tmu_samples = failing = 0
        for cls, x, cap in cases:
            for seed in range(20):
                monad = cls(cap)
                _corrupt(monad, x, seed)
                report, sample = _agrees_with_reference(monad, x)
                tmu_samples += any(label == "mu∘Tmu" for *_, label in sample)
                failing += not report.ok
        # both kinds of corruption show in the reports being compared
        assert tmu_samples and failing

    def test_corrupted_multiplications_after_many_skips(self):
        # at cap 3 these skip more than 20 nestings before their first
        # failure, and most failures come from deep frames, which walk only
        # the cells path one has room for: a change to the order of those
        # cells or to the skip count shows in the reports being compared
        failing = 0
        for name in ("two_loops", "looped_edge"):
            x = corpus_graphs()[name]
            for seed in range(8):
                monad = FreeCategoryMonad(3)
                _corrupt(monad, x, seed)
                failing += not _agrees_with_reference(monad, x)[0].ok
        assert failing

    def test_one_letter_cap_five(self):
        # 102,004,596 nested elements, almost all below an overflow and never walked
        report = check_monad_laws(FreeMonoidMonad(5), fin_set(["a"]))
        assert (report.ok, report.assoc_checked, report.skipped_count) == (
            True, 73547, 101931049
        )


def _corpus(cap):
    """Each monad at ``cap`` with the corpus objects of its base."""
    return [
        (FreeMonoidMonad(cap), corpus_sets()),
        (FreeCategoryMonad(cap), list(corpus_graphs().values())),
    ]


class TestUniversalProperty:
    """Every map into an algebra extends uniquely along the unit: T(f)
    extends eta∘f, mu extends the identity of T(X), and an algebra map
    restricts to the map it extends."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_on_map_extends_unit_after_map(self, cap):
        for monad, objects in _corpus(cap):
            for x, y in itertools.product(objects, repeat=2):
                if sum(map(len, x.cells.values())) + sum(map(len, y.cells.values())) > 6:
                    continue
                tx, ty = monad.apply(x), monad.apply(y)
                for f in itertools.islice(enumerate_homs(x, y), 12):
                    assert monad.on_map(f) == extend_to_free(monad, f.then(monad.unit(y)), tx, ty)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_mult_extends_the_identity(self, cap):
        for monad, objects in _corpus(cap):
            for x in objects:
                tx = monad.apply(x)
                mu = monad.mult(x)
                extended = extend_to_free(monad, identity(tx.obj), monad.apply(tx.obj), tx)
                partial = any(cell not in mu.defined[sort] for sort, cell in mu.domain.cell_items())
                assert (extended is None) == partial
                if extended is not None:
                    assert extended == PresheafMap(mu.domain, mu.codomain, mu.defined)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_algebra_extension_restricts_along_the_unit(self, cap):
        (smonad, sets), (gmonad, graphs) = _corpus(cap)
        cases = [(smonad, sets, a) for a in corpus_monoids()]
        cases += [(gmonad, graphs, c) for c in corpus_categories()]
        for monad, objects, algebra in cases:
            for x in objects:
                if sum(map(len, x.cells.values())) > 4:
                    continue
                for f in itertools.islice(enumerate_homs(x, algebra.carrier()), 12):
                    assert monad.unit(x).then(algebra_extend(algebra, f, monad)) == f


class TestAlgebras:
    def test_monoid_validation_names_triple(self):
        with pytest.raises(ValidationError, match=r"\('a'.*'a'.*'b'\)|triple"):
            FiniteMonoid(
                ["e", "a", "b"], "e",
                {
                    "e": {"e": "e", "a": "a", "b": "b"},
                    "a": {"e": "a", "a": "b", "b": "e"},
                    "b": {"e": "b", "a": "a", "b": "a"},
                },
            )

    def test_category_validation(self):
        with pytest.raises(ValidationError, match="missing the pair"):
            FiniteCategory(
                ["x"], [("i", "x", "x"), ("f", "x", "x")], {"x": "i"},
                {"i": {"i": "i", "f": "f"}, "f": {"i": "f"}},
            )

    def test_extend_monoid(self):
        z2 = corpus_monoids()[1]
        monad = FreeMonoidMonad(2)
        x = fin_set(["x"])
        f = PresheafMap(x, z2.carrier(), {"element": {"x": "1"}})
        fp = algebra_extend(z2, f, monad)
        tx = monad.apply(x)
        assert fp.on["element"][tx.encode[None, None, ()]] == "0"  # empty product
        assert fp.on["element"][tx.encode[None, None, ("x", "x")]] == "0"  # x*x = 0 in z2
        assert mono_unit(monad, x).then(fp) == f

    def test_extend_category_empty_path(self):
        gpd = groupoid_interval()
        monad = FreeCategoryMonad(2)
        g = linear_chain(1)
        f = PresheafMap(
            g, gpd.underlying_graph(),
            {"vertex": {"0": "bot", "1": "top"}, "edge": {"f1": "u"}},
        )
        fp = algebra_extend(gpd, f, monad)
        tg = monad.apply(g)
        assert fp.on["edge"][tg.encode[("0", "0", ())]] == "ib"
        assert mono_unit(monad, g).then(fp) == f

    def test_extension_is_unique_algebra_hom(self):
        # oracle: scan every map T(X) -> A and keep the algebra
        # homomorphisms restricting to f along the unit
        z2 = corpus_monoids()[1]
        monad = FreeMonoidMonad(2)
        x = fin_set(["x"])
        tx = monad.apply(x)
        eta = mono_unit(monad, x)
        f = PresheafMap(x, z2.carrier(), {"element": {"x": "1"}})
        fp = algebra_extend(z2, f, monad)
        matches = []
        for g in enumerate_homs(tx.obj, z2.carrier()):
            if eta.then(g) != f:
                continue
            is_hom = g.on["element"][tx.encode[None, None, ()]] == z2.identity(None)
            for _, _, w1 in tx.decode.values():
                for _, _, w2 in tx.decode.values():
                    if len(w1) + len(w2) > monad.cap:
                        continue
                    lhs = g.on["element"][tx.encode[None, None, w1 + w2]]
                    rhs = z2.then(
                        g.on["element"][tx.encode[None, None, w1]],
                        g.on["element"][tx.encode[None, None, w2]],
                    )
                    if lhs != rhs:
                        is_hom = False
            if is_hom:
                matches.append(g)
        assert matches == [fp]

    def test_extension_to_free_matches_unit_restriction(self):
        monad = FreeCategoryMonad(2)
        y = corpus_graphs()["loop"]
        x = corpus_graphs()["two_loops"]
        ty, tx = monad.apply(y), monad.apply(x)
        for h in enumerate_homs(y, tx.obj):
            fbar = extend_to_free(monad, h, ty, tx)
            if fbar is None:
                continue
            assert mono_unit(monad, y).then(fbar) == h


class TestHomotopyPreservation:
    def test_t_preserves_homotopy_on_loop_complete_corpus(self):
        # the free functor preserves one-step homotopy when every vertex
        # carries a loop to thread the connectors through
        instance = make_graph_instance()
        monad = FreeCategoryMonad(2)
        graphs = [g for g in loop_complete_graphs().values()
                  if sum(map(len, g.cells.values())) <= 5]
        for x in graphs:
            for y in graphs:
                homs = enumerate_homs(x, y)
                for f in homs:
                    for g in homs:
                        if find_homotopy(instance, f, g) is None:
                            continue
                        tf, tg = monad.on_map(f), monad.on_map(g)
                        assert find_homotopy(instance, tf, tg) is not None

    def test_loopless_vertex_breaks_preservation(self):
        # frozen counterexample: the homotopy over a loopless vertex is
        # unconstrained, and the free functor does not preserve it
        instance = make_graph_instance()
        monad = FreeCategoryMonad(2)
        v = corpus_graphs()["vertex"]
        lp = corpus_graphs()["looped_pair"]
        f = PresheafMap(v, lp, {"vertex": {"a": "p"}, "edge": {}})
        g = PresheafMap(v, lp, {"vertex": {"a": "q"}, "edge": {}})
        assert find_homotopy(instance, f, g) is not None
        assert find_homotopy(instance, monad.on_map(f), monad.on_map(g)) is None
