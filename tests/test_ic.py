"""Per-model IC values on hand-evaluated fixtures, plus model invariants.

Expected numbers are written as the literal arithmetic of each formula
applied to counts read off the fixture by hand, so they stay independent
of the implementation path through the cached statistics.
"""

import math
import random

import pytest

from semsim.errors import UnknownSynset
from semsim.ic import (BOUNDED_MODELS, ICConfig, ICModelId, ic_commonness2012,
                       ic_meng, ic_proposed, ic_qingbo, ic_sanchez2011, ic_seco,
                       ic_table, ic_value, ic_zhou)
from semsim.wordnet import parse_edgelist

from conftest import FIXTURES, brute_closure, build

LN = math.log
ALL_MODELS = list(ICModelId)


@pytest.fixture
def chain():
    return build({"r": [], "a": ["r"], "b": ["a"]})


class TestSeco:
    def test_root_zero(self, chain):
        assert ic_seco(chain, "r") == 0.0

    def test_chain_mid(self, chain):
        # hypo(a)=1, node_max=3
        assert ic_seco(chain, "a") == pytest.approx(1 - LN(2) / LN(3), rel=1e-12)

    def test_chain_leaf_is_one(self, chain):
        assert ic_seco(chain, "b") == pytest.approx(1.0)


class TestZhou:
    def test_root_zero(self, chain):
        assert ic_zhou(chain, "r") == 0.0

    def test_chain_leaf(self, chain):
        assert ic_zhou(chain, "b", 0.5) == pytest.approx(1.0)

    def test_chain_mid(self, chain):
        # 0.5*(1 - ln2/ln3) + 0.5*(ln2/ln3)
        assert ic_zhou(chain, "a", 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_k_weighting(self, chain):
        assert ic_zhou(chain, "a", 1.0) == pytest.approx(1 - LN(2) / LN(3), rel=1e-12)
        assert ic_zhou(chain, "a", 0.0) == pytest.approx(LN(2) / LN(3), rel=1e-12)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ICConfig(zhou_k=1.5)


class TestSanchez2011:
    def test_chain_root_zero(self, chain):
        assert ic_sanchez2011(chain, "r") == 0.0

    def test_chain_mid_natural_log(self, chain):
        # leaves(a)=1, subsumers(a)=2, leaves_max=1, base e
        cfg = ICConfig(log_base_absolute=math.e)
        assert ic_sanchez2011(chain, "a", cfg) == pytest.approx(-LN(1.5 / 2), rel=1e-12)

    def test_base_sensitivity(self, chain):
        ten = ic_sanchez2011(chain, "a", ICConfig(log_base_absolute=10))
        nat = ic_sanchez2011(chain, "a", ICConfig(log_base_absolute=math.e))
        assert nat == pytest.approx(ten * LN(10), rel=1e-12)

    def test_nonnegative_everywhere(self):
        t = build({"r": [], "a": ["r"], "b": ["r"], "c": ["a", "b"], "d": ["a"]})
        for node in t.nodes:
            assert ic_sanchez2011(t, node) >= 0.0

    def test_leaf_self_flag(self, chain):
        literal = ic_sanchez2011(chain, "b", ICConfig(leaf_self=False))
        flipped = ic_sanchez2011(chain, "b", ICConfig(leaf_self=True))
        # counting the leaf as its own leaf lowers the leaf's IC
        assert flipped < literal


class TestCommonness2012:
    def test_root_zero(self, chain):
        assert ic_commonness2012(chain, "r") == 0.0

    def test_single_leaf_branch_scores_zero(self, chain):
        # a subsumes the only leaf, so its commonness equals the root's
        assert ic_commonness2012(chain, "a") == 0.0

    def test_small_tree(self):
        # r -> a, r -> b(leaf); a -> l1, l2
        # commonness(a) = 1/3 + 1/3; commonness(r) = 1/3 + 1/3 + 1/2
        t = build({"r": [], "a": ["r"], "b": ["r"], "l1": ["a"], "l2": ["a"]})
        cfg = ICConfig(log_base_absolute=math.e)
        expected = -LN((2 / 3) / (7 / 6))
        assert ic_commonness2012(t, "a", cfg) == pytest.approx(expected, rel=1e-12)


class TestMeng:
    def test_root_zero(self, chain):
        assert ic_meng(chain, "r") == 0.0

    def test_depth_one_node_scores_zero(self, chain):
        # the depth factor is log(1)/log(deep_max) = 0
        assert ic_meng(chain, "a") == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_meng(chain, "b") == pytest.approx(1.0)

    def test_depth_weighted_hyponym_mass(self):
        # r -> a -> b -> c: meng(b) = (ln2/ln3) * (1 - ln(1/3 + 1)/ln4)
        t = build({"r": [], "a": ["r"], "b": ["a"], "c": ["b"]})
        expected = (LN(2) / LN(3)) * (1 - LN(4 / 3) / LN(4))
        assert ic_meng(t, "b") == pytest.approx(expected, rel=1e-12)


class TestQingbo:
    def test_root_zero(self, chain):
        assert ic_qingbo(chain, "r") == 0.0

    def test_chain_leaf_exceeds_one(self, chain):
        # f_depth=1, f_leaves=0, f_hypernyms=ln3/ln3: unbounded model
        assert ic_qingbo(chain, "b") == pytest.approx(2.0, rel=1e-12)

    def test_chain_mid(self, chain):
        # f_leaves=1 cancels the depth term; hypernyms(a)=1
        assert ic_qingbo(chain, "a") == pytest.approx(LN(2) / LN(3), rel=1e-12)


class TestProposed:
    def test_root_zero(self, chain):
        assert ic_proposed(chain, "r") == 0.0

    def test_chain_leaf_is_one(self, chain):
        assert ic_proposed(chain, "b") == pytest.approx(1.0)

    def test_chain_mid_base_ten(self, chain):
        # depth 1/deep_max 2; leaves=1, nmih=1, subsumers=2; hyponym b at depth 2
        expected = (LN(2) / LN(3)) * (1 - math.log10(1.5)) * (1 - LN(1.5) / LN(3))
        assert ic_proposed(chain, "a") == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.327975, abs=1e-6)

    def test_multiple_inheritance_lowers_ic(self):
        # two nodes with identical depth and hyponym structure; the one with
        # two parents carries more shared (less specific) information
        t = freeze_fixture("multi_inheritance_pair.tsv")
        assert ic_proposed(t, "multi") < ic_proposed(t, "single")


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
        with pytest.raises(UnknownSynset):
            ic_value(chain, ICModelId.PROPOSED, "missing")


class TestModelInvariants:
    def test_root_is_zero_for_every_model(self):
        rng = random.Random(31)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for model in ALL_MODELS:
                assert ic_value(t, model, t.root) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_models_stay_in_unit_interval(self):
        rng = random.Random(37)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for model in BOUNDED_MODELS:
                for node in t.nodes:
                    assert -1e-12 <= ic_value(t, model, node) <= 1.0 + 1e-12

    def test_seco_monotone_toward_leaves(self):
        rng = random.Random(41)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for node in t.nodes:
                for anc in t.subsumers(node) - {node}:
                    assert ic_seco(t, anc) <= ic_seco(t, node) + 1e-12

    def test_proposed_equal_one_implies_deepest_leaf(self):
        rng = random.Random(43)
        from conftest import random_taxonomy
        for _ in range(15):
            t = random_taxonomy(rng, max_nodes=30)
            for node in t.nodes:
                if ic_proposed(t, node) >= 1.0 - 1e-12:
                    assert t.stats[node].hypo_count == 0
                    assert t.depth(node) == t.constants.deep_max


class TestFixtureDiscrimination:
    def test_same_hyponym_structure_different_inheritance(self):
        # two nodes with equal depth and isomorphic two-leaf hyponym sets;
        # only the number of parents and subsumers differs
        t = freeze_fixture("multi_inheritance_pair.tsv")
        assert t.stats["single"].hypo_count == t.stats["multi"].hypo_count == 2
        assert t.depth("single") == t.depth("multi")
        assert ic_meng(t, "single") == pytest.approx(ic_meng(t, "multi"), rel=1e-12)
        assert ic_proposed(t, "single") != pytest.approx(ic_proposed(t, "multi"))

    def test_equal_leaf_subsumers_different_depth(self):
        # both nodes subsume one leaf and each leaf has six subsumers, but
        # the nodes sit at depths 1 and 3
        t = freeze_fixture("depth_pair_equal_leaf_subsumers.tsv")
        assert t.depth("shallow") == 1 and t.depth("deep") == 3
        for node in ("shallow", "deep"):
            (leaf,) = [n for n in brute_closure(t, node, "children")
                       if not t.nodes[n].children]
            assert t.stats[leaf].subsumer_count == 6
        assert ic_commonness2012(t, "shallow") == pytest.approx(
            ic_commonness2012(t, "deep"), rel=1e-12)
        assert ic_proposed(t, "shallow") != pytest.approx(ic_proposed(t, "deep"))
