"""Per-model IC values on hand-evaluated fixtures, plus model invariants.

Expected numbers are written as the literal arithmetic of each formula
applied to counts read off the fixture by hand, so they stay independent
of the implementation path through the cached statistics.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from semsim.errors import UnboundedIC, UnknownSynset
from semsim.ic import BOUNDED_MODELS, ICConfig, ICModelId, ic_table, ic_value
from semsim.wordnet import parse_edgelist

from conftest import FIXTURES, brute_closure, build, dags

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
        assert ic_value(chain, SECO, "r") == 0.0

    def test_chain_mid(self, chain):
        # hypo(a)=1, node_max=3
        assert ic_value(chain, SECO, "a") == pytest.approx(1 - LN(2) / LN(3), rel=1e-12)

    def test_chain_leaf_is_one(self, chain):
        assert ic_value(chain, SECO, "b") == pytest.approx(1.0)


class TestZhou:
    def test_root_zero(self, chain):
        assert ic_value(chain, ZHOU, "r") == 0.0

    def test_chain_leaf(self, chain):
        assert ic_value(chain, ZHOU, "b", ICConfig(zhou_k=0.5)) == pytest.approx(1.0)

    def test_chain_mid(self, chain):
        # 0.5*(1 - ln2/ln3) + 0.5*(ln2/ln3)
        assert ic_value(chain, ZHOU, "a", ICConfig(zhou_k=0.5)) == pytest.approx(
            0.5, rel=1e-12)

    def test_k_weighting(self, chain):
        assert ic_value(chain, ZHOU, "a", ICConfig(zhou_k=1.0)) == pytest.approx(
            1 - LN(2) / LN(3), rel=1e-12)
        assert ic_value(chain, ZHOU, "a", ICConfig(zhou_k=0.0)) == pytest.approx(
            LN(2) / LN(3), rel=1e-12)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ICConfig(zhou_k=1.5)


class TestSanchez2011:
    def test_chain_root_zero(self, chain):
        assert ic_value(chain, SANCHEZ2011, "r") == 0.0

    def test_chain_mid_natural_log(self, chain):
        # leaves(a)=1, subsumers(a)=2, leaves_max=1, base e
        cfg = ICConfig(log_base_absolute=math.e)
        assert ic_value(chain, SANCHEZ2011, "a", cfg) == pytest.approx(-LN(1.5 / 2), rel=1e-12)

    def test_base_sensitivity(self, chain):
        ten = ic_value(chain, SANCHEZ2011, "a", ICConfig(log_base_absolute=10))
        nat = ic_value(chain, SANCHEZ2011, "a", ICConfig(log_base_absolute=math.e))
        assert nat == pytest.approx(ten * LN(10), rel=1e-12)

    def test_nonnegative_everywhere(self):
        t = build({"r": [], "a": ["r"], "b": ["r"], "c": ["a", "b"], "d": ["a"]})
        for node in t.nodes:
            assert ic_value(t, SANCHEZ2011, node) >= 0.0

    def test_leaf_self_flag(self, chain):
        literal = ic_value(chain, SANCHEZ2011, "b", ICConfig(leaf_self=False))
        flipped = ic_value(chain, SANCHEZ2011, "b", ICConfig(leaf_self=True))
        # counting the leaf as its own leaf lowers the leaf's IC
        assert flipped < literal

    @pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 1.0, 0.5])
    def test_log_base_must_be_finite_above_one(self, base):
        with pytest.raises(ValueError, match="log base"):
            ICConfig(log_base_absolute=base)


class TestCommonness2012:
    def test_root_zero(self, chain):
        assert ic_value(chain, COMMONNESS2012, "r") == 0.0

    def test_single_leaf_branch_scores_zero(self, chain):
        # a subsumes the only leaf, so its commonness equals the root's
        assert ic_value(chain, COMMONNESS2012, "a") == 0.0

    def test_small_tree(self):
        # r -> a, r -> b(leaf); a -> l1, l2
        # commonness(a) = 1/3 + 1/3; commonness(r) = 1/3 + 1/3 + 1/2
        t = build({"r": [], "a": ["r"], "b": ["r"], "l1": ["a"], "l2": ["a"]})
        cfg = ICConfig(log_base_absolute=math.e)
        expected = -LN((2 / 3) / (7 / 6))
        assert ic_value(t, COMMONNESS2012, "a", cfg) == pytest.approx(expected, rel=1e-12)


class TestMeng:
    def test_root_zero(self, chain):
        assert ic_value(chain, MENG, "r") == 0.0

    def test_depth_one_node_scores_zero(self, chain):
        # the depth factor is log(1)/log(deep_max) = 0
        assert ic_value(chain, MENG, "a") == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_value(chain, MENG, "b") == pytest.approx(1.0)

    def test_depth_weighted_hyponym_mass(self):
        # r -> a -> b -> c: meng(b) = (ln2/ln3) * (1 - ln(1/3 + 1)/ln4)
        t = build({"r": [], "a": ["r"], "b": ["a"], "c": ["b"]})
        expected = (LN(2) / LN(3)) * (1 - LN(4 / 3) / LN(4))
        assert ic_value(t, MENG, "b") == pytest.approx(expected, rel=1e-12)


class TestQingbo:
    def test_root_zero(self, chain):
        assert ic_value(chain, QINGBO, "r") == 0.0

    def test_chain_leaf_exceeds_one(self, chain):
        # f_depth=1, f_leaves=0, f_hypernyms=ln3/ln3: unbounded model
        assert ic_value(chain, QINGBO, "b") == pytest.approx(2.0, rel=1e-12)

    def test_chain_mid(self, chain):
        # f_leaves=1 cancels the depth term; hypernyms(a)=1
        assert ic_value(chain, QINGBO, "a") == pytest.approx(LN(2) / LN(3), rel=1e-12)


class TestProposed:
    def test_root_zero(self, chain):
        assert ic_value(chain, PROPOSED, "r") == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_value(chain, PROPOSED, "b") == pytest.approx(1.0)

    def test_chain_mid_base_ten(self, chain):
        # depth 1/deep_max 2; leaves=1, nmih=1, subsumers=2; hyponym b at depth 2
        expected = (LN(2) / LN(3)) * (1 - math.log10(1.5)) * (1 - LN(1.5) / LN(3))
        assert ic_value(chain, PROPOSED, "a") == pytest.approx(expected, rel=1e-12)
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
            for node in ("m", "a"):
                with pytest.raises(UnboundedIC):
                    ic_value(t, PROPOSED, node, cfg)
        table = ic_table(t, PROPOSED, ICConfig(log_base_absolute=2.0))
        assert all(0.0 <= v <= 1.0 for v in table.values.values())

    def test_multiple_inheritance_lowers_ic(self):
        # two nodes with identical depth and hyponym structure; the one with
        # two parents carries more shared (less specific) information
        t = freeze_fixture("multi_inheritance_pair.tsv")
        assert ic_value(t, PROPOSED, "multi") < ic_value(t, PROPOSED, "single")


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
        table = ic_table(chain, ICModelId.SECO)
        with pytest.raises(UnknownSynset):
            table["missing"]
        with pytest.raises(UnknownSynset) as err:
            ic_value(chain, ICModelId.PROPOSED, "missing")
        assert isinstance(err.value, KeyError)
        assert str(err.value) == "unknown synset: 'missing'"


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
        # ic_table and ic_value share one kernel per model
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            raw = {c: ic_value(t, model, c, cfg) for c in t.nodes}
            top = max(raw.values())
            assert list(table.values) == list(t.nodes)
            for c, v in raw.items():
                assert table[c] == (v / top if table.normalized else v)

    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_root_is_zero_for_every_model(self, t, cfg):
        for model in models_for(cfg):
            for v in (ic_value(t, model, t.root, cfg), ic_table(t, model, cfg)[t.root]):
                assert v == 0.0 and math.copysign(1.0, v) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(dags(), configs)
    def test_bounded_models_stay_in_unit_interval(self, t, cfg):
        # bounded models, and unbounded ones once normalized
        for model in models_for(cfg):
            table = ic_table(t, model, cfg)
            if table.bounded:
                assert all(0.0 <= v <= 1.0 for v in table.values.values())

    def test_seco_monotone_toward_leaves(self):
        rng = random.Random(41)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for node in t.nodes:
                for anc in t.subsumers(node) - {node}:
                    assert ic_value(t, SECO, anc) <= ic_value(t, SECO, node) + 1e-12

    def test_proposed_equal_one_implies_deepest_leaf(self):
        rng = random.Random(43)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for node in t.nodes:
                if ic_value(t, PROPOSED, node) >= 1.0 - 1e-12:
                    assert t.stats[node].hypo_count == 0
                    assert t.depth(node) == t.constants.deep_max


class TestFixtureDiscrimination:
    def test_same_hyponym_structure_different_inheritance(self):
        # two nodes with equal depth and isomorphic two-leaf hyponym sets;
        # only the number of parents and subsumers differs
        t = freeze_fixture("multi_inheritance_pair.tsv")
        assert t.stats["single"].hypo_count == t.stats["multi"].hypo_count == 2
        assert t.depth("single") == t.depth("multi")
        assert ic_value(t, MENG, "single") == pytest.approx(
            ic_value(t, MENG, "multi"), rel=1e-12)
        assert ic_value(t, PROPOSED, "single") != pytest.approx(
            ic_value(t, PROPOSED, "multi"))

    def test_equal_leaf_subsumers_different_depth(self):
        # both nodes subsume one leaf and each leaf has six subsumers, but
        # the nodes sit at depths 1 and 3
        t = freeze_fixture("depth_pair_equal_leaf_subsumers.tsv")
        assert t.depth("shallow") == 1 and t.depth("deep") == 3
        for node in ("shallow", "deep"):
            (leaf,) = [n for n in brute_closure(t, node, "children")
                       if not t.nodes[n].children]
            assert t.stats[leaf].subsumer_count == 6
        assert ic_value(t, COMMONNESS2012, "shallow") == pytest.approx(
            ic_value(t, COMMONNESS2012, "deep"), rel=1e-12)
        assert ic_value(t, PROPOSED, "shallow") != pytest.approx(
            ic_value(t, PROPOSED, "deep"))

