"""Common-subsumer machinery and the six measures.

The disjoint-common-subsumer operation is checked against a brute-force
oracle (direct minimality test via hyponym closures) on 500 random DAGs,
alongside the antichain invariant; hypothesis properties over drawn DAGs
check every measure's symmetry under both LCS rules.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from semsim.bench import BenchmarkDataset, evaluate
from semsim.errors import (BatetUndefined, DegenerateTable, UnboundedIC, UnknownSynset,
                           UnknownWord)
from semsim.ic import ICConfig, ICModelId, ICTable, ic_table
from semsim.similarity import (SimMeasureId, dcs, pair_similarity, word_similarity,
                               word_similarity_detail)
from semsim.taxonomy import RawGraph, freeze
from semsim.wordnet import parse_edgelist

from conftest import (FIXTURES, brute_closure, build, dags, random_raw_graph,
                      random_taxonomy)

ALL_MEASURES = list(SimMeasureId)
LCS_MODES = ("max_depth", "max_ic")
(RESNIK, LIN, JIANG_CONRATH, FAITH, BATET,
 PROPOSED) = (SimMeasureId.RESNIK, SimMeasureId.LIN, SimMeasureId.JIANG_CONRATH,
              SimMeasureId.FAITH, SimMeasureId.BATET, SimMeasureId.PROPOSED)


@pytest.fixture
def chain():
    return build({"r": [], "a": ["r"], "b": ["a"]})


@pytest.fixture
def chain_ic(chain):
    return ic_table(chain, ICModelId.PROPOSED)


class TestLcs:
    def test_self_pair_gives_own_ic(self, chain, chain_ic):
        assert pair_similarity(chain, chain_ic, RESNIK, "a", "a") == chain_ic["a"]

    def test_chain_pair(self, chain, chain_ic):
        assert pair_similarity(chain, chain_ic, RESNIK, "a", "b") == chain_ic["a"]

    def test_modes_disagree_on_nonmonotone_ic(self):
        # p is an ancestor of c but carries a higher hand-assigned IC;
        # the deepest-subsumer rule must still pick c for the self pair
        t = build({"r": [], "p": ["r"], "c": ["p"]})
        values = {"r": 0.0, "p": 0.9, "c": 0.4}
        table = ICTable(ICModelId.PROPOSED, t, lambda r: values[t.ids[r]])
        assert table.max_ic == 0.9
        assert pair_similarity(t, table, RESNIK, "c", "c", "max_depth") == 0.4
        assert pair_similarity(t, table, RESNIK, "c", "c", "max_ic") == 0.9

    def test_bad_mode_rejected(self, chain, chain_ic):
        # every measure checks the rule, proposed included, which uses none,
        # on every call: the table keeps no formula for a failed check
        dataset = BenchmarkDataset(name="chain", pairs=(("a", "b", 1.0), ("b", "b", 2.0)),
                                   scale=(1.0, 2.0))
        for measure, mode in itertools.product(ALL_MEASURES, ["bogus", ["max_depth"]]):
            with pytest.raises(ValueError, match="lcs_mode"):
                pair_similarity(chain, chain_ic, measure, "a", "b", mode)
            with pytest.raises(ValueError, match="lcs_mode"):
                word_similarity(chain, chain_ic, measure, "a", "b", mode)
            with pytest.raises(ValueError, match="lcs_mode"):
                evaluate(chain, dataset, chain_ic, measure, mode)
        assert chain_ic.formulas == {}

    def test_unknown_input_comes_before_the_checks(self, chain):
        # an id or word that is not there is named first, on the pair path as
        # on the word path, whatever the table and the LCS rule
        qingbo = ic_table(chain, ICModelId.QINGBO)
        for mode in ("max_depth", "bogus"):
            with pytest.raises(UnknownSynset):
                pair_similarity(chain, qingbo, PROPOSED, "ghost", "a", mode)
            with pytest.raises(UnknownWord):
                word_similarity(chain, qingbo, PROPOSED, "ghost", "a", mode)


class TestDcs:
    def test_self_pair_is_singleton(self, chain):
        assert dcs(chain, "b", "b") == ("b",)

    def test_chain_pair(self, chain):
        assert dcs(chain, "a", "b") == ("a",)

    def test_three_disjoint_subsumers_fixture(self):
        t = freeze(parse_edgelist(FIXTURES / "triple_dcs.tsv"))
        members = dcs(t, "x", "y")
        assert len(members) == 3
        assert set(members) == {"d1", "d2", "d3"}

    def test_deep_ancestor_does_not_survive(self):
        # x3 is an ancestor of c yet sits deeper by minimum distance, the
        # case where a depth-sorted greedy sweep would keep both
        t = build({"top": [], "p": ["top"], "x1": ["top"], "x2": ["x1"],
                   "x3": ["x2"], "c": ["p", "x3"]})
        assert t.depth("x3") > t.depth("c")
        assert dcs(t, "c", "c") == ("c",)

    def test_members_ordered_deepest_first(self):
        t = build({"top": [], "m": ["top"], "d": ["m"],
                   "u": ["d", "top"], "v": ["d", "top"]})
        members = dcs(t, "u", "v")
        assert members == ("d",)  # top is an ancestor of d, dropped


def brute_dcs(t, a, b):
    """Minimality checked directly against the hyponym closure."""
    cs = t.subsumers(a) & t.subsumers(b)
    return {x for x in cs if not (brute_closure(t, x, "children") & cs)}


class TestDcsOracle:
    def test_equivalence_on_500_random_dags(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(500):
            # rows in shuffled order, so that the order of rows and of ids differ
            items = list(random_raw_graph(rng, max_nodes=50, max_parents=3).parents.items())
            rng.shuffle(items)
            t = freeze(RawGraph(parents=dict(items)))
            ids = sorted(t.nodes)
            for _ in range(4):
                a, b = rng.choice(ids), rng.choice(ids)
                got = dcs(t, a, b)
                assert got == tuple(sorted(brute_dcs(t, a, b), key=lambda x: (-t.depth(x), x)))
                assert got == dcs(t, b, a)  # symmetric
                # antichain: no member subsumes another
                for m in got:
                    others = set(got) - {m}
                    assert not (t.subsumers(m) - {m}) & others
                checked += 1
        assert checked == 2000


class TestMeasureFormulas:
    def test_proposed_chain_pair_hand_value(self, chain, chain_ic):
        # single dcs member a: ic(a)/(ic(a)+1) + ic(a)/(ic(b)+1)
        ia = (math.log(2) / math.log(3)) * (1 - math.log10(1.5)) \
            * (1 - math.log(1.5) / math.log(3))
        expected = ia / (ia + 1.0) + ia / 2.0
        got = pair_similarity(chain, chain_ic, PROPOSED, "a", "b")
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.410962, abs=1e-6)

    def test_identity_pairs(self, chain, chain_ic):
        assert pair_similarity(chain, chain_ic, LIN, "a", "a") == pytest.approx(1.0)
        assert pair_similarity(chain, chain_ic, JIANG_CONRATH, "a", "a") == pytest.approx(1.0)
        assert pair_similarity(chain, chain_ic, FAITH, "a", "a") == pytest.approx(1.0)

    def test_root_pair_conventions(self, chain, chain_ic):
        # IC of the root is 0: ratio measures fall back to 0
        assert pair_similarity(chain, chain_ic, RESNIK, "r", "r") == 0.0
        assert pair_similarity(chain, chain_ic, LIN, "r", "r") == 0.0
        assert pair_similarity(chain, chain_ic, FAITH, "r", "r") == 0.0
        assert pair_similarity(chain, chain_ic, JIANG_CONRATH, "r", "r") == pytest.approx(1.0)

    def test_batet_at_max_ic_synset(self, chain, chain_ic):
        # both arguments the max-IC node: -log((1)/(2*max_ic))
        expected = math.log(2.0 * chain_ic.max_ic, 10)
        assert pair_similarity(chain, chain_ic, BATET, "b", "b") == pytest.approx(
            expected, rel=1e-12)

    def test_batet_base_change_is_rescaling(self, chain):
        # hyponym-ratio IC is base free, so flipping the config base moves
        # only the outer logarithm: every value scales by log2(10)
        t10 = ic_table(chain, ICModelId.SECO, ICConfig(log_base_absolute=10))
        t2 = ic_table(chain, ICModelId.SECO, ICConfig(log_base_absolute=2))
        assert [t2[c] for c in chain.nodes] == [t10[c] for c in chain.nodes]
        for x, y in [("a", "b"), ("b", "b"), ("a", "a")]:
            assert pair_similarity(chain, t2, BATET, x, y) == pytest.approx(
                pair_similarity(chain, t10, BATET, x, y) * math.log2(10), rel=1e-12)

    def test_batet_outside_its_domain_is_a_typed_error(self):
        # under max_ic, n05's common subsumers include one whose meng IC
        # exceeds (IC(n05) + IC(n05) + 1) / 2, so batet's logarithm has no value
        t = freeze(parse_edgelist(FIXTURES / "batet_domain.tsv"))
        table = ic_table(t, ICModelId.MENG)
        dataset = BenchmarkDataset(name="d", pairs=(("n01", "n02", 1.0), ("n05", "n05", 2.0)),
                                   scale=(1.0, 2.0))
        calls = (lambda: pair_similarity(t, table, BATET, "n05", "n05", "max_ic"),
                 lambda: word_similarity(t, table, BATET, "n05", "n05", "max_ic"),
                 lambda: evaluate(t, dataset, table, BATET, "max_ic"))
        for call in calls:
            with pytest.raises(BatetUndefined, match="^batet is undefined for n05 x n05: ") as err:
                call()
            assert isinstance(err.value, ValueError)
        assert math.isfinite(pair_similarity(t, table, BATET, "n05", "n05", "max_depth"))

    def test_batet_degenerate_table(self):
        t = build({"only": []})
        table = ic_table(t, ICModelId.SECO)
        with pytest.raises(DegenerateTable):
            pair_similarity(t, table, BATET, "only", "only")

    def test_proposed_rejects_unbounded_table(self, chain):
        # on every call: the table keeps no formula for a failed check
        qingbo = ic_table(chain, ICModelId.QINGBO)
        for _ in range(2):
            with pytest.raises(UnboundedIC):
                pair_similarity(chain, qingbo, PROPOSED, "a", "b")
        assert qingbo.formulas == {}
        normalized = ic_table(chain, ICModelId.QINGBO, ICConfig(normalize_unbounded=True))
        assert 0.0 <= pair_similarity(chain, normalized, PROPOSED, "a", "b") <= 1.0
        assert list(normalized.formulas) == [PROPOSED]


class TestMeasureProperties:
    @settings(max_examples=60, deadline=None)
    @given(dags(), st.sampled_from(list(ICModelId)), st.data())
    def test_symmetry_is_exact(self, t, model, data):
        table = ic_table(t, model, ICConfig(normalize_unbounded=True))
        ids = sorted(t.nodes)
        for _ in range(5):
            a, b = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
            for measure in ALL_MEASURES:
                # batet needs max_ic > 0
                if table.max_ic == 0.0 and measure is BATET:
                    continue
                for mode in LCS_MODES:
                    assert pair_similarity(t, table, measure, a, b, mode) == \
                        pair_similarity(t, table, measure, b, a, mode)

    @settings(max_examples=60, deadline=None)
    @given(dags(), st.sampled_from(list(ICModelId)))
    def test_resnik_at_most_max_ic(self, t, model):
        # the LCS is a node of the table, under either rule
        table = ic_table(t, model)
        for a in t.nodes:
            for b in t.nodes:
                for mode in LCS_MODES:
                    assert pair_similarity(t, table, RESNIK, a, b, mode) <= table.max_ic

    @settings(max_examples=60, deadline=None)
    @given(dags())
    def test_dcs_never_empty(self, t):
        # the root subsumes every node, so some common subsumer is minimal
        for a in t.nodes:
            for b in t.nodes:
                assert dcs(t, a, b)

    def test_monotone_ic_bounds(self):
        # hyponym-count IC never increases toward the root, so the shared
        # IC is at most min(ic(a), ic(b)) and the ratio measures stay in [0, 1]
        rng = random.Random(59)
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            table = ic_table(t, ICModelId.SECO)
            ids = sorted(t.nodes)
            for _ in range(10):
                a, b = rng.choice(ids), rng.choice(ids)
                shared = pair_similarity(t, table, RESNIK, a, b)
                assert shared <= min(table[a], table[b]) + 1e-12
                assert -1e-12 <= pair_similarity(t, table, LIN, a, b) <= 1 + 1e-12
                assert -1e-12 <= pair_similarity(t, table, FAITH, a, b) <= 1 + 1e-12
                assert -1e-12 <= pair_similarity(t, table, PROPOSED, a, b) <= 1 + 1e-12

    def test_resnik_depends_only_on_common_subsumers(self):
        # grafting a new leaf under b adds no common subsumer of (a, b);
        # with the IC assignment held fixed the score cannot move
        base = {"r": [], "a": ["r"], "b": ["r"], "c": ["b"]}
        t1 = build(base)
        t2 = build({**base, "new_leaf": ["c"]})
        values = {"r": 0.0, "a": 0.7, "b": 0.5, "c": 0.9, "new_leaf": 0.95}
        mk = lambda t: ICTable(ICModelId.PROPOSED, t, lambda r: values[t.ids[r]])
        assert pair_similarity(t1, mk(t1), RESNIK, "a", "c") == \
            pair_similarity(t2, mk(t2), RESNIK, "a", "c")

    def test_input_permutation_changes_nothing(self):
        rng = random.Random(61)
        t = random_taxonomy(rng, max_nodes=40)
        items = [(n, list(t.nodes[n].parents)) for n in t.nodes]
        rng.shuffle(items)
        t2 = freeze(RawGraph(parents=dict(items)))
        table1 = ic_table(t, ICModelId.PROPOSED)
        table2 = ic_table(t2, ICModelId.PROPOSED)
        ids = sorted(t.nodes)
        for _ in range(25):
            a, b = rng.choice(ids), rng.choice(ids)
            assert dcs(t, a, b) == dcs(t2, a, b)
            for measure in (SimMeasureId.RESNIK, SimMeasureId.PROPOSED):
                assert pair_similarity(t, table1, measure, a, b) == \
                    pair_similarity(t2, table2, measure, a, b)


class TestWordSimilarity:
    @pytest.fixture
    def toy(self):
        # "star" is polysemous: a celestial body and a performer
        raw = RawGraph(
            parents={"e": [], "obj": ["e"], "person": ["e"], "body": ["obj"],
                     "star1": ["body"], "performer": ["person"],
                     "star2": ["performer"], "sun": ["star1"]},
            lemmas={"e": ("entity",), "obj": ("object",), "person": ("person",),
                    "body": ("celestial_body",), "star1": ("star",),
                    "performer": ("performer",), "star2": ("star", "ace"),
                    "sun": ("sun",)})
        return freeze(raw)

    def test_identical_monosemous_word(self, toy):
        table = ic_table(toy, ICModelId.PROPOSED)
        direct = pair_similarity(toy, table, SimMeasureId.LIN, "sun", "sun")
        assert word_similarity(toy, table, SimMeasureId.LIN, "sun", "sun") == direct

    def test_polysemy_takes_the_best_sense_pair(self, toy):
        table = ic_table(toy, ICModelId.PROPOSED)
        score, (sa, sb) = word_similarity_detail(
            toy, table, SimMeasureId.RESNIK, "star", "ace")
        # ace only names star2, so the performer sense must win
        assert (sa, sb) == ("star2", "star2")
        assert score == table["star2"]

    @pytest.mark.parametrize("lcs_mode", LCS_MODES)
    def test_measure_given_by_member_or_value(self, toy, lcs_mode):
        # word_similarity takes the maximum without the detail's sense pair;
        # a name that is not a measure's value fails as SimMeasureId fails
        table = ic_table(toy, ICModelId.PROPOSED)
        for measure in ALL_MEASURES:
            for given in (measure, measure.value):
                best, _ = word_similarity_detail(toy, table, given, "star", "ace", lcs_mode)
                assert repr(word_similarity(toy, table, given, "star", "ace", lcs_mode)) \
                    == repr(best)
        for bad in ("bogus", "RESNIK"):
            with pytest.raises(ValueError) as expected:
                SimMeasureId(bad)
            for call in (word_similarity, word_similarity_detail):
                with pytest.raises(ValueError) as err:
                    call(toy, table, bad, "star", "ace", lcs_mode)
                assert (type(err.value), str(err.value)) == (type(expected.value),
                                                             str(expected.value))

    def test_unknown_word_is_named(self, toy):
        table = ic_table(toy, ICModelId.PROPOSED)
        with pytest.raises(UnknownWord) as err:
            word_similarity(toy, table, SimMeasureId.LIN, "sun", "zzzz")
        assert err.value.word == "zzzz"

    def test_case_and_space_normalization(self, toy):
        table = ic_table(toy, ICModelId.PROPOSED)
        a = word_similarity(toy, table, SimMeasureId.LIN, "Celestial Body", "sun")
        b = word_similarity(toy, table, SimMeasureId.LIN, "celestial_body", "sun")
        assert a == b
