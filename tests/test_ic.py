"""Per-model IC values on hand-evaluated fixtures, model invariants, and
the lazy table's fill-on-read contract.

Expected numbers are written as the literal arithmetic of each formula
applied to counts read off the fixture by hand, so they stay independent
of the implementation path through the cached statistics.
"""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from semsim import ic
from semsim.errors import UnboundedIC, UnknownSynset
from semsim.ic import ICConfig, ICModelId, ic_table
from semsim.similarity import SimMeasureId, word_similarity
from semsim.taxonomy import freeze
from semsim.wordnet import parse_edgelist

from conftest import FIXTURES, brute_closure, build, children_of, dags, raw_dags

LN = math.log
ALL_MODELS = list(ICModelId)
(SECO, ZHOU, SANCHEZ2011, COMMONNESS2012, MENG, QINGBO,
 PROPOSED) = (ICModelId.SECO, ICModelId.ZHOU, ICModelId.SANCHEZ2011,
              ICModelId.COMMONNESS2012, ICModelId.MENG, ICModelId.QINGBO,
              ICModelId.PROPOSED)


@pytest.fixture
def chain():
    return build({"r": [], "a": ["r"], "b": ["a"]})


class TestSeco:
    def test_root_zero(self, chain):
        assert ic_table(chain, SECO)["r"] == 0.0

    def test_chain_mid(self, chain):
        # hypo(a)=1, node_max=3
        assert ic_table(chain, SECO)["a"] == pytest.approx(1 - LN(2) / LN(3), rel=1e-12)

    def test_chain_leaf_is_one(self, chain):
        assert ic_table(chain, SECO)["b"] == pytest.approx(1.0)


class TestZhou:
    def test_root_zero(self, chain):
        assert ic_table(chain, ZHOU)["r"] == 0.0

    def test_chain_leaf(self, chain):
        assert ic_table(chain, ZHOU, ICConfig(zhou_k=0.5))["b"] == pytest.approx(1.0)

    def test_chain_mid(self, chain):
        # 0.5*(1 - ln2/ln3) + 0.5*(ln2/ln3)
        assert ic_table(chain, ZHOU, ICConfig(zhou_k=0.5))["a"] == pytest.approx(
            0.5, rel=1e-12)

    def test_k_weighting(self, chain):
        assert ic_table(chain, ZHOU, ICConfig(zhou_k=1.0))["a"] == pytest.approx(
            1 - LN(2) / LN(3), rel=1e-12)
        assert ic_table(chain, ZHOU, ICConfig(zhou_k=0.0))["a"] == pytest.approx(
            LN(2) / LN(3), rel=1e-12)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ICConfig(zhou_k=1.5)


class TestSanchez2011:
    def test_chain_root_zero(self, chain):
        assert ic_table(chain, SANCHEZ2011)["r"] == 0.0

    def test_chain_mid_natural_log(self, chain):
        # leaves(a)=1, subsumers(a)=2, leaves_max=1, base e
        cfg = ICConfig(log_base_absolute=math.e)
        assert ic_table(chain, SANCHEZ2011, cfg)["a"] == pytest.approx(-LN(1.5 / 2), rel=1e-12)

    def test_base_sensitivity(self, chain):
        ten = ic_table(chain, SANCHEZ2011, ICConfig(log_base_absolute=10))["a"]
        nat = ic_table(chain, SANCHEZ2011, ICConfig(log_base_absolute=math.e))["a"]
        assert nat == pytest.approx(ten * LN(10), rel=1e-12)

    def test_nonnegative_everywhere(self):
        t = build({"r": [], "a": ["r"], "b": ["r"], "c": ["a", "b"], "d": ["a"]})
        table = ic_table(t, SANCHEZ2011)
        for node in t.nodes:
            assert table[node] >= 0.0

    def test_leaf_self_flag(self, chain):
        literal = ic_table(chain, SANCHEZ2011, ICConfig(leaf_self=False))["b"]
        flipped = ic_table(chain, SANCHEZ2011, ICConfig(leaf_self=True))["b"]
        # counting the leaf as its own leaf lowers the leaf's IC
        assert flipped < literal

    @pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 1.0, 0.5])
    def test_log_base_must_be_finite_above_one(self, base):
        with pytest.raises(ValueError, match="log base"):
            ICConfig(log_base_absolute=base)


class TestCommonness2012:
    def test_root_zero(self, chain):
        assert ic_table(chain, COMMONNESS2012)["r"] == 0.0

    def test_single_leaf_branch_scores_zero(self, chain):
        # a subsumes the only leaf, so its commonness equals the root's
        assert ic_table(chain, COMMONNESS2012)["a"] == 0.0

    def test_small_tree(self):
        # r -> a, r -> b(leaf); a -> l1, l2
        # commonness(a) = 1/3 + 1/3; commonness(r) = 1/3 + 1/3 + 1/2
        t = build({"r": [], "a": ["r"], "b": ["r"], "l1": ["a"], "l2": ["a"]})
        cfg = ICConfig(log_base_absolute=math.e)
        expected = -LN((2 / 3) / (7 / 6))
        assert ic_table(t, COMMONNESS2012, cfg)["a"] == pytest.approx(expected, rel=1e-12)


class TestMeng:
    def test_root_zero(self, chain):
        assert ic_table(chain, MENG)["r"] == 0.0

    def test_depth_one_node_scores_zero(self, chain):
        # the depth factor is log(1)/log(deep_max) = 0
        assert ic_table(chain, MENG)["a"] == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_table(chain, MENG)["b"] == pytest.approx(1.0)

    def test_depth_weighted_hyponym_mass(self):
        # r -> a -> b -> c: meng(b) = (ln2/ln3) * (1 - ln(1/3 + 1)/ln4)
        t = build({"r": [], "a": ["r"], "b": ["a"], "c": ["b"]})
        expected = (LN(2) / LN(3)) * (1 - LN(4 / 3) / LN(4))
        assert ic_table(t, MENG)["b"] == pytest.approx(expected, rel=1e-12)


class TestQingbo:
    def test_root_zero(self, chain):
        assert ic_table(chain, QINGBO)["r"] == 0.0

    def test_chain_leaf_exceeds_one(self, chain):
        # f_depth=1, f_leaves=0, f_hypernyms=ln3/ln3: unbounded model
        assert ic_table(chain, QINGBO)["b"] == pytest.approx(2.0, rel=1e-12)

    def test_chain_mid(self, chain):
        # f_leaves=1 cancels the depth term; hypernyms(a)=1
        assert ic_table(chain, QINGBO)["a"] == pytest.approx(LN(2) / LN(3), rel=1e-12)


class TestProposed:
    def test_root_zero(self, chain):
        assert ic_table(chain, PROPOSED)["r"] == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_table(chain, PROPOSED)["b"] == pytest.approx(1.0)

    def test_chain_mid_base_ten(self, chain):
        # depth 1/deep_max 2; leaves=1, nmih=1, subsumers=2; hyponym b at depth 2
        expected = (LN(2) / LN(3)) * (1 - math.log10(1.5)) * (1 - LN(1.5) / LN(3))
        assert ic_table(chain, PROPOSED)["a"] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.327975, abs=1e-6)

    def test_log_base_below_two_is_rejected(self):
        # F2 = 1 - log_b(penalty + 1) with penalty < 1 goes negative once
        # log_b 2 > 1: base 1.1 would give m and a the IC -1.237 and -0.655
        t = freeze_fixture("shared_node_three_leaves.tsv")
        assert len(t) == 8
        for base in (1.1, 1.999):
            cfg = ICConfig(log_base_absolute=base)
            # a single-node taxonomy, all zeros, is refused alike
            for taxonomy in (t, build({"only": []})):
                with pytest.raises(UnboundedIC, match="log base of at least 2"):
                    ic_table(taxonomy, PROPOSED, cfg)
        table = ic_table(t, PROPOSED, ICConfig(log_base_absolute=2.0))
        assert all(0.0 <= table[c] <= 1.0 for c in t.nodes)

    def test_multiple_inheritance_lowers_ic(self):
        # two nodes with identical depth and hyponym structure; the one with
        # two parents carries more shared (less specific) information
        table = ic_table(freeze_fixture("multi_inheritance_pair.tsv"), PROPOSED)
        assert table["multi"] < table["single"]


def freeze_fixture(name):
    from semsim.taxonomy import freeze
    return freeze(parse_edgelist(FIXTURES / name))


class TestTableBuilding:
    def test_proposed_chain_table(self, chain):
        table = ic_table(chain, ICModelId.PROPOSED)
        assert table["r"] == 0.0
        assert table["a"] == pytest.approx(0.327975, abs=1e-6)
        assert table["b"] == pytest.approx(1.0)
        assert table.max_ic == pytest.approx(1.0)
        assert table.bounded and not table.normalized

    def test_seco_single_node(self):
        t = build({"only": []})
        table = ic_table(t, ICModelId.SECO)
        assert table["only"] == 0.0
        assert table.max_ic == 0.0

    def test_qingbo_normalization(self, chain):
        cfg = ICConfig(normalize_unbounded=True)
        table = ic_table(chain, ICModelId.QINGBO, cfg)
        assert table.normalized and table.bounded
        assert table["b"] == pytest.approx(1.0)
        assert table["a"] == pytest.approx((LN(2) / LN(3)) / 2.0, rel=1e-12)
        assert table["a"] == pytest.approx(0.31546, abs=5e-6)

    def test_bounded_models_never_renormalized(self, chain):
        cfg = ICConfig(normalize_unbounded=True)
        table = ic_table(chain, ICModelId.PROPOSED, cfg)
        assert not table.normalized

    def test_unknown_synset(self, chain):
        for model in (ICModelId.SECO, ICModelId.PROPOSED):
            table = ic_table(chain, model)
            with pytest.raises(UnknownSynset) as err:
                table["missing"]
            assert isinstance(err.value, KeyError)
            assert str(err.value) == "unknown synset: 'missing'"
            assert len(table.values) == 0  # the failed read stored nothing

    def test_full_pass_runs_once_per_taxonomy_model_and_config(self, monkeypatch):
        # the maximum that normalize_unbounded and max_ic read is one kernel
        # pass per (taxonomy, model, config), kept by the taxonomy
        calls = []
        factory = ic._KERNELS[SANCHEZ2011]

        def counting(t, cfg):
            kernel = factory(t, cfg)

            def counted(r):
                calls.append(r)
                return kernel(r)
            return counted
        monkeypatch.setitem(ic._KERNELS, SANCHEZ2011, counting)
        parents = {"r": [], "a": ["r"], "b": ["r"], "c": ["a"], "d": ["a", "b"], "e": ["b"]}
        t = build(parents)
        n = len(t)
        normalize = ICConfig(normalize_unbounded=True)
        first = ic_table(t, SANCHEZ2011, normalize)
        assert len(calls) == n
        second = ic_table(t, SANCHEZ2011, normalize)
        assert (first.max_ic, second.max_ic) == (1.0, 1.0)
        assert len(calls) == n
        leaf_self = ic_table(t, SANCHEZ2011, replace(normalize, leaf_self=True))
        leaf_self.max_ic
        assert len(calls) == 2 * n
        raw = [ic_table(t, SANCHEZ2011) for _ in range(2)]
        assert raw[0].max_ic == raw[1].max_ic
        assert len(calls) == 3 * n
        ic_table(build(parents), SANCHEZ2011).max_ic  # another taxonomy, its own pass
        assert len(calls) == 4 * n

        def reference(cfg):
            # every value and the maximum, from a kernel of no table
            kernel = factory(t, cfg)
            values = [kernel(t.row[c]) for c in t.nodes]
            top = max(values)
            if cfg.normalize_unbounded:
                values = [v / top for v in values]
            return [repr(v) for v in values], repr(max(values))
        for table in (first, second, leaf_self, *raw):
            got = [repr(table[c]) for c in t.nodes], repr(table.max_ic)
            assert got == reference(table.config)


configs = st.just(ICConfig()) | st.builds(
    ICConfig, zhou_k=st.floats(0.0, 1.0),
    log_base_absolute=st.floats(1.0, 100.0, exclude_min=True),
    leaf_self=st.booleans(), normalize_unbounded=st.booleans())


def models_for(cfg):
    """The models that accept ``cfg``: proposed refuses a log base below 2."""
    return [m for m in ALL_MODELS if m is not PROPOSED or cfg.log_base_absolute >= 2.0]


class TestModelInvariants:
    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_table_matches_single_node_value(self, t, cfg):
        # a normalized table reads its raw table over the raw maximum, and
        # every table keeps each value it computes, in the order of reading
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            raw = ic_table(t, model, replace(cfg, normalize_unbounded=False))
            top = raw.max_ic
            values = [table[c] for c in t.nodes]
            assert list(table.values) == list(t.nodes)
            for c, v in zip(t.nodes, values):
                assert v == (raw[c] / top if table.normalized and top > 0.0 else raw[c])

    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_root_is_zero_for_every_model(self, t, cfg):
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            for v in (table[t.root], table[t.root]):  # computed, then stored
                assert v == 0.0 and math.copysign(1.0, v) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_bounded_models_stay_in_unit_interval(self, t, cfg):
        # bounded models, and unbounded ones once normalized
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            if table.bounded:
                assert all(0.0 <= table[c] <= 1.0 for c in t.nodes)

    def test_seco_monotone_toward_leaves(self):
        rng = random.Random(41)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            seco = ic_table(t, SECO)
            for node in t.nodes:
                for anc in t.subsumers(node) - {node}:
                    assert seco[anc] <= seco[node] + 1e-12

    def test_proposed_equal_one_implies_deepest_leaf(self):
        rng = random.Random(43)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            proposed = ic_table(t, PROPOSED)
            for node in t.nodes:
                if proposed[node] >= 1.0 - 1e-12:
                    assert t.stats[node].hypo_count == 0
                    assert t.depth(node) == t.constants.deep_max


class TestLazyFill:
    @settings(max_examples=60, deadline=None)
    @given(dags(), configs, st.randoms(use_true_random=False))
    def test_read_order_changes_no_value(self, t, cfg, rnd):
        order = list(t.nodes)
        rnd.shuffle(order)
        for model in models_for(cfg):
            in_order, shuffled = ic_table(t, model, cfg), ic_table(t, model, cfg)
            want = [repr(in_order[c]) for c in t.nodes]
            got = {c: repr(shuffled[c]) for c in order}
            assert [got[c] for c in t.nodes] == want
            assert list(shuffled.values) == order

    @settings(max_examples=30, deadline=None)
    @given(dags(), configs)
    def test_threads_fill_the_same_values(self, t, cfg):
        # four readers, more than the cores of a small machine, each starting
        # at another node and switching threads as often as the interpreter can
        nodes = list(t.nodes)

        def read_all(table, k):
            return {c: repr(table[c]) for c in nodes[k:] + nodes[:k]}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for model in models_for(cfg):
                    want = read_all(ic_table(t, model, cfg), 0)
                    shared = ic_table(t, model, cfg)
                    reads = [pool.submit(read_all, shared, k) for k in range(4)]
                    for read in reads:
                        assert read.result(timeout=60) == want
                    assert {c: repr(v) for c, v in shared.values.items()} == want
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_max_ic_is_the_largest_value(self, t, cfg):
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            top = table.max_ic
            assert len(table.values) == 0  # the full pass stores nothing
            assert repr(top) == repr(max(table[c] for c in t.nodes))

    @settings(max_examples=60, deadline=None)
    @given(raw_dags(), st.sampled_from(ALL_MODELS), st.data())
    def test_word_similarity_fills_only_subsumers(self, drawn, model, data):
        # two polysemous words over the drawn DAG
        raw, depth_mode = drawn
        ids = sorted(freeze(raw).nodes)
        senses = st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)
        index = {"one": tuple(data.draw(senses)), "two": tuple(data.draw(senses))}
        t = freeze(raw, depth_mode=depth_mode, word_index=index)
        reach1 = set().union(*(t.subsumers(c) for c in index["one"]))
        reach2 = set().union(*(t.subsumers(c) for c in index["two"]))
        for measure in SimMeasureId:
            for mode in ("max_depth", "max_ic"):
                table = ic_table(t, model, ICConfig(normalize_unbounded=True))
                if measure is SimMeasureId.BATET and table.max_ic == 0.0:
                    continue  # batet refuses an all-zero table
                word_similarity(t, table, measure, "one", "two", mode)
                assert set(table.values) <= reach1 | reach2
                assert set(table.values) - {*index["one"], *index["two"]} <= reach1 & reach2


class TestFixtureDiscrimination:
    def test_same_hyponym_structure_different_inheritance(self):
        # two nodes with equal depth and isomorphic two-leaf hyponym sets;
        # only the number of parents and subsumers differs
        t = freeze_fixture("multi_inheritance_pair.tsv")
        assert t.stats["single"].hypo_count == t.stats["multi"].hypo_count == 2
        assert t.depth("single") == t.depth("multi")
        meng, proposed = ic_table(t, MENG), ic_table(t, PROPOSED)
        assert meng["single"] == pytest.approx(meng["multi"], rel=1e-12)
        assert proposed["single"] != pytest.approx(proposed["multi"])

    def test_equal_leaf_subsumers_different_depth(self):
        # both nodes subsume one leaf and each leaf has six subsumers, but
        # the nodes sit at depths 1 and 3
        t = freeze_fixture("depth_pair_equal_leaf_subsumers.tsv")
        assert t.depth("shallow") == 1 and t.depth("deep") == 3
        children = children_of(t)
        for node in ("shallow", "deep"):
            (leaf,) = [n for n in brute_closure(t, node, "children") if not children[n]]
            assert t.stats[leaf].subsumer_count == 6
        commonness, proposed = ic_table(t, COMMONNESS2012), ic_table(t, PROPOSED)
        assert commonness["shallow"] == pytest.approx(commonness["deep"], rel=1e-12)
        assert proposed["shallow"] != pytest.approx(proposed["deep"])

