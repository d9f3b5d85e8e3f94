"""Dataset loading, correlation and evaluation harness."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semsim.bench import (FULL_GRID, BenchmarkDataset, _PairPlan, evaluate, grid_report,
                          load_dataset, pearson)
from semsim.errors import (AllPairsSkipped, BatetUndefined, DegenerateTable, EmptyDataset,
                           LengthMismatch, MalformedLine, MalformedRow, MissingFile,
                           NonFiniteScore, SemsimError, UnboundedIC, UnknownWord,
                           ZeroVariance)
from semsim.ic import ICConfig, ICModelId, ic_table
from semsim.similarity import SimMeasureId, word_similarity, word_similarity_detail
from semsim.taxonomy import RawGraph, freeze
from semsim.wordnet import parse_edgelist

from conftest import DATA, FIXTURES, brute_closure, raw_dags, word_indexes

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPearson:
    def test_identity_is_one(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    @given(st.lists(finite, min_size=3, max_size=40),
           st.floats(min_value=0.1, max_value=50), st.floats(-100, 100))
    def test_affine_invariance(self, xs, a, b):
        if max(xs) - min(xs) < 1e-6:  # constant at float precision
            return
        ys = [a * x + b for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-6)
        assert pearson(xs, [-a * x + b for x in xs]) == pytest.approx(-1.0, abs=1e-6)

    def test_matches_numpy(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(2, 60)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert pearson(xs, ys) == pytest.approx(
                float(np.corrcoef(xs, ys)[0, 1]), abs=1e-12)

    def test_sums_add_left_to_right(self):
        # from Python 3.12 the builtin sum compensates its rounding, which
        # moves last digits; pearson adds in order on every version, as here
        xs, ys = [0.5, 0.9, 0.2, 0.5], [9.0, 5.0, 7.0, 4.0]

        def in_order(values):
            total = 0.0
            for v in values:
                total += v
            return total

        def reference(add):
            mean_x, mean_y = add(xs) / len(xs), add(ys) / len(ys)
            dx, dy = [x - mean_x for x in xs], [y - mean_y for y in ys]
            return add([a * b for a, b in zip(dx, dy)]) / (
                math.sqrt(add([d * d for d in dx])) * math.sqrt(add([d * d for d in dy])))
        assert math.fsum(xs) != in_order(xs)
        assert reference(math.fsum) != reference(in_order)  # the inputs tell them apart
        assert pearson(xs, ys) == reference(in_order)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(ZeroVariance):
            pearson([1, 2, 3], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            pearson([1], [1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input(self, bad):
        # min(1.0, nan) is 1.0, so a clamped NaN would read as a perfect score
        for xs, ys in (([1, 2, bad], [1, 2, 3]), ([1, 2, 3], [bad, 2, 3])):
            with pytest.raises(NonFiniteScore):
                pearson(xs, ys)


class TestLoadDataset:
    def test_bundled_mc30(self):
        ds = load_dataset(DATA / "mc30.tsv")
        assert len(ds.pairs) == 30
        assert ds.pairs[0] == ("car", "automobile", 3.92)
        assert ds.scale == (0.08, 3.92)

    def test_bundled_wordsim201(self):
        ds = load_dataset(DATA / "wordsim201.tsv")
        assert len(ds.pairs) == 201
        assert ds.scale == (0.23, 10.0)

    def test_missing_score_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("car;automobile\n")
        with pytest.raises(MalformedRow):
            load_dataset(p)

    def test_header_row_tolerated(self, tmp_path):
        p = tmp_path / "ok.tsv"
        p.write_text("word1\tword2\tscore\ncar\tautomobile\t3.92\n")
        assert len(load_dataset(p).pairs) == 1

    def test_bad_score_mid_file(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("car\tautomobile\t3.92\ngem\tjewel\toops\n")
        with pytest.raises(MalformedRow) as err:
            load_dataset(p)
        assert err.value.row_no == 2

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_score(self, tmp_path, score):
        p = tmp_path / "bad.tsv"
        p.write_text(f"car\tautomobile\t3.92\ngem\tjewel\t{score}\n")
        with pytest.raises(MalformedRow) as err:
            load_dataset(p)
        assert err.value.row_no == 2

    def test_duplicate_unordered_pair(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("car\tautomobile\t3.92\nAutomobile\tCar\t1.0\n")
        with pytest.raises(MalformedRow):
            load_dataset(p)

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("# nothing here\n")
        with pytest.raises(EmptyDataset):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "absent.tsv")

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.tsv"
        p.write_bytes("w1\tw2\tscore\ncaf\u00e9\tbar\t3.0\n".encode("latin-1"))
        with pytest.raises(MalformedLine) as err:
            load_dataset(p)
        assert err.value.line_no == 2
        assert str(err.value).startswith(f"{p}:2: not UTF-8")


@pytest.fixture
def toy():
    raw = RawGraph(
        parents={"e": [], "v": ["e"], "w": ["e"], "x": ["v"], "y": ["v"], "z": ["w"]},
        lemmas={"e": ("entity",), "v": ("vehicle",), "w": ("walkway",),
                "x": ("car",), "y": ("truck",), "z": ("path",)})
    return freeze(raw)


def toy_dataset(rows):
    return BenchmarkDataset(name="toy", pairs=tuple(rows),
                            scale=(min(r[2] for r in rows), max(r[2] for r in rows)))


class TestEvaluate:
    def test_scores_and_rounding(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0),
                          ("vehicle", "car", 3.0)])
        res = evaluate(toy, ds, ic_table(toy, ICModelId.PROPOSED), SimMeasureId.LIN)
        assert res.n_used == 3
        assert res.pearson == round(res.pearson_raw, 2)
        assert all(p.status == "ok" for p in res.per_pair)

    def test_unknown_words_are_skipped_not_zeroed(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "spaceship", 2.0),
                          ("truck", "path", 0.5)])
        res = evaluate(toy, ds, ic_table(toy, ICModelId.PROPOSED), SimMeasureId.LIN)
        assert res.n_used == 2
        statuses = [p.status for p in res.per_pair]
        assert statuses == ["ok", "skipped_unknown_word", "ok"]
        assert res.per_pair[1].machine is None

    def test_all_pairs_skipped(self, toy):
        ds = toy_dataset([("ghost", "spirit", 1.0)])
        with pytest.raises(AllPairsSkipped):
            evaluate(toy, ds, ic_table(toy, ICModelId.PROPOSED), SimMeasureId.LIN)

    def test_repeat_runs_are_byte_identical(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0),
                          ("vehicle", "path", 0.5)])
        a = evaluate(toy, ds, ic_table(toy, ICModelId.PROPOSED), SimMeasureId.PROPOSED)
        b = evaluate(toy, ds, ic_table(toy, ICModelId.PROPOSED), SimMeasureId.PROPOSED)
        dump = lambda r: json.dumps(r.to_json_obj(), sort_keys=True)
        assert dump(a) == dump(b)

    def test_result_names_the_table_model(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0),
                          ("vehicle", "car", 3.0)])
        seco = ic_table(toy, ICModelId.SECO)
        res = evaluate(toy, ds, seco, SimMeasureId.LIN)
        assert res.ic_model == "seco"
        assert res.to_json_obj()["ic_model"] == "seco"
        assert res.per_pair[0].machine == word_similarity(
            toy, seco, SimMeasureId.LIN, "car", "truck")

    def test_pair_order_does_not_move_the_correlation(self, toy):
        rows = [("car", "truck", 3.5), ("car", "path", 1.0), ("vehicle", "path", 0.5)]
        seco = ic_table(toy, ICModelId.SECO)
        forward = evaluate(toy, toy_dataset(rows), seco, SimMeasureId.LIN)
        backward = evaluate(toy, toy_dataset(rows[::-1]), seco, SimMeasureId.LIN)
        assert forward.pearson_raw == pytest.approx(backward.pearson_raw, rel=1e-12)


class TestGrid:
    def test_empty_combos_rejected(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0)])
        with pytest.raises(ValueError):
            grid_report(toy, ds, [])

    def test_rows_follow_combo_order(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0),
                          ("vehicle", "path", 0.5)])
        combos = [(ICModelId.SECO, SimMeasureId.LIN),
                  (ICModelId.PROPOSED, SimMeasureId.RESNIK)]
        report = grid_report(toy, ds, combos)
        assert [(str(r.ic_model), str(r.measure)) for r in report.results] == \
            [("seco", "lin"), ("proposed", "resnik")]

    def test_literature_rows_are_annotations(self, toy):
        ds = toy_dataset([("car", "truck", 3.5), ("car", "path", 1.0),
                          ("vehicle", "path", 0.5)])
        report = grid_report(toy, ds, [(ICModelId.SECO, SimMeasureId.LIN)],
                             with_literature=True)
        obj = report.to_json_obj()
        assert obj["schema"] == 1
        assert all(e["note"] == "reported, not computed" for e in obj["literature"])
        assert "reported, not computed" in report.to_tsv()

    def test_full_grid_covers_every_model(self):
        models = {m for m, _ in FULL_GRID}
        assert models == set(ICModelId)

    def test_unknown_words_are_skipped_before_any_check(self):
        # a known pair meets the table, measure and LCS checks; a dataset of
        # unknown words fails for that alone, whatever those checks would say
        t = freeze(RawGraph(parents={"only": []}, lemmas={"only": ("thing",)}))
        table = ic_table(t, ICModelId.SECO)
        assert table.max_ic == 0.0
        unknown = toy_dataset([("ghost", "spirit", 1.0), ("thing", "ghost", 2.0)])
        known = toy_dataset([("ghost", "spirit", 1.0), ("thing", "thing", 2.0)])
        for ds, batet_error, bogus_error in ((unknown, AllPairsSkipped, AllPairsSkipped),
                                             (known, DegenerateTable, ValueError)):
            with pytest.raises(batet_error):
                evaluate(t, ds, table, SimMeasureId.BATET)
            with pytest.raises(batet_error):
                grid_report(t, ds, [(ICModelId.SECO, SimMeasureId.BATET)])
            with pytest.raises(bogus_error):
                evaluate(t, ds, table, SimMeasureId.LIN, "bogus")
            with pytest.raises(bogus_error):
                evaluate(t, ds, table, "bogus")
            with pytest.raises(bogus_error):
                grid_report(t, ds, [(ICModelId.SECO, SimMeasureId.LIN)], lcs_mode="bogus")


class TestPairPlan:
    @pytest.fixture
    def domain(self):
        # meng is not monotone here: under max_ic, n05 x n05 has another LCS
        # than under max_depth, and one outside batet's domain
        t = freeze(parse_edgelist(FIXTURES / "batet_domain.tsv"))
        return t, toy_dataset([("n01", "n02", 1.0), ("n05", "n05", 4.0),
                               ("n03", "n04", 2.0), ("n04", "n07", 3.0)])

    def test_one_memo_serves_every_table_and_lcs_rule(self, domain):
        # the plan keeps IC(a), IC(b) and IC(LCS) per table and LCS rule, so
        # combos that interleave tables and rules score as on a fresh plan
        t, ds = domain
        tables = (ic_table(t, ICModelId.MENG), ic_table(t, ICModelId.SECO))
        measures = [m for m in SimMeasureId if m is not SimMeasureId.BATET]
        plan = _PairPlan(t, ds)
        for measure, mode, table in itertools.product(measures, ("max_depth", "max_ic"),
                                                      tables):
            assert repr(plan.score(table, measure, mode)) == \
                repr(_PairPlan(t, ds).score(table, measure, mode))

    def test_batet_names_the_pair_the_word_path_names(self, domain):
        # the failing pair is second in the plan, whose kept lists another
        # measure has filled
        t, ds = domain
        table = ic_table(t, ICModelId.MENG)
        with pytest.raises(BatetUndefined) as word:
            word_similarity(t, table, SimMeasureId.BATET, "n05", "n05", "max_ic")
        plan = _PairPlan(t, ds)
        plan.score(table, SimMeasureId.LIN, "max_ic")
        for _ in range(2):
            with pytest.raises(BatetUndefined) as err:
                plan.score(table, SimMeasureId.BATET, "max_ic")
            assert str(err.value) == str(word.value)

    def test_batet_names_the_first_failing_pair(self):
        # under max_ic, meng leaves both n4 x n4 and n5 x n5 outside batet's
        # domain here; the plan names the one it lists first
        t = freeze(RawGraph(parents={"n0": [], "n1": ["n0"], "n2": ["n1"], "n3": ["n1"],
                                     "n4": ["n0", "n2"], "n5": ["n0", "n3"]}))
        table = ic_table(t, ICModelId.MENG)
        ds = toy_dataset([("n1", "n2", 1.0), ("n5", "n5", 2.0), ("n4", "n4", 3.0)])
        with pytest.raises(BatetUndefined) as word:
            word_similarity(t, table, SimMeasureId.BATET, "n5", "n5", "max_ic")
        with pytest.raises(BatetUndefined) as err:
            evaluate(t, ds, table, SimMeasureId.BATET, "max_ic")
        assert str(err.value) == str(word.value)


class Reference:
    """Word scores from ids alone, written apart from the package's scoring:
    closures by brute force, IC by ``table[id]`` and the six formulas
    spelled out here.  A word pair scores its best sense pair, the earliest
    in sense order on a tie, and fails with the error types the package
    raises, in the order it checks them."""

    def __init__(self, t):
        self.t = t
        self.up = {x: brute_closure(t, x, "parents") | {x} for x in t.nodes}
        self.down = {x: brute_closure(t, x, "children") for x in t.nodes}

    def value(self, table, measure, a, b, lcs_mode, top):
        t, common = self.t, self.up[a] & self.up[b]
        ia, ib = table[a], table[b]
        if measure is SimMeasureId.PROPOSED:
            members = sorted((x for x in common if not self.down[x] & common),
                             key=lambda x: (-t.depth(x), x))
            total = 0.0
            for d in members:
                total += table[d] / (ia + 1.0) + table[d] / (ib + 1.0)
            return total / len(members)
        if lcs_mode == "max_depth":
            deepest = max(t.stats[c].depth_longest for c in common)
            common = {c for c in common if t.stats[c].depth_longest == deepest}
        lcs = max(table[c] for c in common)
        if measure is SimMeasureId.RESNIK:
            return lcs
        if measure is SimMeasureId.LIN:
            return 0.0 if ia + ib <= 0.0 else 2.0 * lcs / (ia + ib)
        if measure is SimMeasureId.JIANG_CONRATH:
            return 1.0 - (ia + ib - 2.0 * lcs) / 2.0
        if measure is SimMeasureId.FAITH:
            return 0.0 if ia + ib - lcs <= 0.0 else lcs / (ia + ib - lcs)
        ratio = (ia + ib - 2.0 * lcs + 1.0) / (2.0 * top)
        if ratio <= 0.0:
            raise BatetUndefined(f"{a} x {b}")
        return -math.log(ratio, table.config.log_base_absolute)

    def word(self, table, measure, w1, w2, lcs_mode):
        """The word pair's score and best sense pair."""
        t = self.t
        for w in (w1, w2):
            if not t.senses(w):
                raise UnknownWord(w)
        top = max(table[c] for c in t.nodes)
        if measure is SimMeasureId.BATET and top <= 0.0:
            raise DegenerateTable("max_ic 0")
        if measure is SimMeasureId.PROPOSED and not table.bounded:
            raise UnboundedIC("unbounded")
        best = None
        for a in t.senses(w1):
            for b in t.senses(w2):
                value = self.value(table, measure, a, b, lcs_mode, top)
                if best is None or value > best[0]:
                    best = (value, (a, b))
        return best

    def row(self, ds, table, measure, lcs_mode):
        """A grid row: each pair's score and best sense pair (None when
        skipped), n_used and pearson_raw, floats by repr."""
        machine, human, per_pair = [], [], []
        for w1, w2, h in ds.pairs:
            try:
                score, senses = self.word(table, measure, w1, w2, lcs_mode)
            except UnknownWord:
                per_pair.append(None)
                continue
            per_pair.append((repr(score), senses))
            machine.append(score)
            human.append(h)
        if not machine:
            raise AllPairsSkipped("no scorable pairs")
        return per_pair, len(machine), repr(pearson(machine, human))


def failure(fn, *args):
    """The type of the error a call raises, or None when it returns."""
    try:
        fn(*args)
    except (SemsimError, ValueError) as exc:
        return type(exc)
    return None


class TestGridMatchesWordPath:
    @settings(max_examples=60, deadline=None)
    @given(raw_dags(), st.data())
    def test_rows_equal_the_word_path(self, drawn, data):
        # the shared pair plan and word_similarity_detail, each against an
        # id-level reference, under both LCS rules; rows in drawn order, so
        # that an order of rows cannot stand in for an order of ids
        raw, depth_mode = drawn
        raw = RawGraph(parents=dict(data.draw(st.permutations(list(raw.parents.items())))))
        index = data.draw(word_indexes(freeze(raw).nodes))
        t = freeze(raw, depth_mode=depth_mode, word_index=index)
        words = sorted(t.words) + ["unknown"]
        assert not t.senses("unknown")
        pairs = [(w1, w2) for w1 in words for w2 in words]
        human = data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(pairs),
                                   max_size=len(pairs)))
        ds = BenchmarkDataset("drawn", tuple((w1, w2, h) for (w1, w2), h in zip(pairs, human)),
                              (0.0, 10.0))
        cfg = data.draw(st.sampled_from([ICConfig(), ICConfig(normalize_unbounded=True)]))
        tables = {m: ic_table(t, m, cfg) for m in ICModelId}
        ref = Reference(t)
        combos = [(m, s) for m in ICModelId for s in SimMeasureId]
        for mode in ("max_depth", "max_ic"):
            expected, failing = {}, []
            for m, s in combos:
                if failure(ref.row, ds, tables[m], s, mode) is None:
                    expected[m, s] = ref.row(ds, tables[m], s, mode)
                else:
                    failing.append((m, s))
            for m, s in failing:
                assert failure(grid_report, t, ds, [(m, s)], cfg, mode) is \
                    failure(ref.row, ds, tables[m], s, mode)
                for w1, w2 in pairs:
                    assert failure(word_similarity_detail, t, tables[m], s, w1, w2, mode) is \
                        failure(ref.word, tables[m], s, w1, w2, mode)
            for (m, s), (per_pair, n_used, pearson_raw) in expected.items():
                for (w1, w2), want in zip(pairs, per_pair):
                    if want is None:
                        assert failure(word_similarity_detail, t, tables[m], s, w1, w2,
                                       mode) is UnknownWord
                        continue
                    score, senses = word_similarity_detail(t, tables[m], s, w1, w2, mode)
                    assert (repr(score), senses) == want
            if not expected:
                continue
            report = grid_report(t, ds, list(expected), cfg, mode)
            assert [(r.ic_model, r.measure) for r in report.results] == list(expected)
            for r in report.results:
                per_pair, n_used, pearson_raw = expected[r.ic_model, r.measure]
                assert [None if p.machine is None else repr(p.machine)
                        for p in r.per_pair] == \
                    [None if want is None else want[0] for want in per_pair]
                assert (r.n_used, repr(r.pearson_raw)) == (n_used, pearson_raw)
                assert [p.status == "ok" for p in r.per_pair] == \
                    [want is not None for want in per_pair]
