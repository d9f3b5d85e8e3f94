"""Acceptance suite: golden correlations and property batteries.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
Correlation tolerances are fixed here: +-0.03 for the golden benchmark
correlations, +-0.04 for the baseline grid, +-0.02 for per-pair scores.
"""

import json
import random
import time

import pytest

from semsim.bench import evaluate, load_dataset, pearson
from semsim.errors import ZeroVariance
from semsim.ic import BOUNDED_MODELS, ICModelId, ic_table
from semsim.similarity import SimMeasureId, dcs, word_similarity
from semsim.taxonomy import freeze
from semsim.wordnet import parse_edgelist, parse_wordnet

from conftest import DATA, FIXTURES, brute_closure, random_taxonomy, require_wordnet

TOL_GOLDEN = 0.03
TOL_BASELINE = 0.04
TOL_PAIR = 0.02


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def mc30():
    return load_dataset(DATA / "mc30.tsv")


@pytest.fixture(scope="module")
def wordsim201():
    return load_dataset(DATA / "wordsim201.tsv")


# ---------------------------------------------------------------------------
# criterion 1: M&C-30 golden correlations, fresh load, under 60 s
# ---------------------------------------------------------------------------

MC30_GOLDEN = [
    (ICModelId.PROPOSED, SimMeasureId.RESNIK, 0.86),
    (ICModelId.PROPOSED, SimMeasureId.LIN, 0.86),
    (ICModelId.PROPOSED, SimMeasureId.JIANG_CONRATH, 0.84),
    (ICModelId.PROPOSED, SimMeasureId.FAITH, 0.86),
    (ICModelId.PROPOSED, SimMeasureId.PROPOSED, 0.86),
    (ICModelId.MENG, SimMeasureId.PROPOSED, 0.87),
]


def test_criterion_1_mc30_golden_correlations(mc30):
    wordnet_dir = require_wordnet()
    started = time.monotonic()
    raw, word_index = parse_wordnet(wordnet_dir)
    t = freeze(raw, word_index=word_index)
    tables = {m: ic_table(t, m) for m in {m for m, _, _ in MC30_GOLDEN}}
    misses = []
    for model, measure, want in MC30_GOLDEN:
        got = evaluate(t, mc30, tables[model], measure).pearson
        if abs(got - want) > TOL_GOLDEN:
            misses.append(f"{model}:{measure} {got:.2f} vs {want:.2f}")
    elapsed = time.monotonic() - started
    ok = not misses and elapsed < 60.0
    detail = f"6 correlations within +-{TOL_GOLDEN}, {elapsed:.1f}s"
    if misses:
        detail = "; ".join(misses)
    assert report("criterion-1 mc30 golden correlations", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: WordSim-201 golden correlations under 3 min
# ---------------------------------------------------------------------------

WS201_GOLDEN = [
    (ICModelId.PROPOSED, SimMeasureId.FAITH, 0.71),
    (ICModelId.PROPOSED, SimMeasureId.PROPOSED, 0.69),
    (ICModelId.PROPOSED, SimMeasureId.RESNIK, 0.68),
    (ICModelId.PROPOSED, SimMeasureId.LIN, 0.68),
    (ICModelId.PROPOSED, SimMeasureId.JIANG_CONRATH, 0.66),
    (ICModelId.MENG, SimMeasureId.PROPOSED, 0.68),
]


def test_criterion_2_wordsim201_golden_correlations(wn, wordsim201):
    started = time.monotonic()
    tables = {m: ic_table(wn, m) for m in {m for m, _, _ in WS201_GOLDEN}}
    misses = []
    n_used = None
    for model, measure, want in WS201_GOLDEN:
        result = evaluate(wn, wordsim201, tables[model], measure)
        n_used = result.n_used
        if abs(result.pearson - want) > TOL_GOLDEN:
            misses.append(f"{model}:{measure} {result.pearson:.2f} vs {want:.2f}")
    elapsed = time.monotonic() - started
    ok = not misses and elapsed < 180.0
    detail = f"6 correlations within +-{TOL_GOLDEN}, n_used={n_used}, {elapsed:.1f}s"
    if misses:
        detail = "; ".join(misses)
    assert report("criterion-2 wordsim201 golden correlations", ok, detail)


# ---------------------------------------------------------------------------
# criterion 3: baseline model grid sanity on M&C-30
# ---------------------------------------------------------------------------

BASELINE_GOLDEN = [
    (ICModelId.SECO, SimMeasureId.JIANG_CONRATH, 0.88),
    (ICModelId.ZHOU, SimMeasureId.RESNIK, 0.85),
    (ICModelId.SANCHEZ2011, SimMeasureId.LIN, 0.84),
    (ICModelId.COMMONNESS2012, SimMeasureId.JIANG_CONRATH, 0.88),
    (ICModelId.MENG, SimMeasureId.RESNIK, 0.86),
    (ICModelId.QINGBO, SimMeasureId.LIN, 0.84),
    (ICModelId.SANCHEZ2011, SimMeasureId.BATET, 0.86),
]


def test_criterion_3_baseline_grid(wn, mc30):
    misses = []
    for model, measure, want in BASELINE_GOLDEN:
        got = evaluate(wn, mc30, ic_table(wn, model), measure).pearson
        if abs(got - want) > TOL_BASELINE:
            misses.append(f"{model}:{measure} {got:.2f} vs {want:.2f}")
    ok = not misses
    detail = f"7 baseline correlations within +-{TOL_BASELINE}"
    if misses:
        detail = "; ".join(misses)
    assert report("criterion-3 baseline grid", ok, detail)


# ---------------------------------------------------------------------------
# criterion 4: per-pair golden scores and the same-synset identity
# ---------------------------------------------------------------------------

# (word1, word2, resnik, proposed-measure) under the proposed IC, base 10
MC30_PAIR_GOLDEN = [
    ("car", "automobile", 0.704, 0.826), ("gem", "jewel", 0.701, 0.824),
    ("journey", "voyage", 0.663, 0.766), ("boy", "lad", 0.537, 0.673),
    ("coast", "shore", 0.491, 0.645), ("asylum", "madhouse", 0.775, 0.864),
    ("magician", "wizard", 0.564, 0.721), ("midday", "noon", 0.782, 0.877),
    ("furnace", "stove", 0.199, 0.231), ("food", "fruit", 0.128, 0.153),
    ("bird", "cock", 0.488, 0.598), ("bird", "crane", 0.488, 0.589),
    ("tool", "implement", 0.405, 0.561), ("brother", "monk", 0.618, 0.744),
    ("crane", "implement", 0.262, 0.339), ("lad", "brother", 0.161, 0.201),
    ("journey", "car", 0.000, 0.000), ("monk", "oracle", 0.161, 0.195),
    ("cemetery", "woodland", 0.090, 0.111), ("food", "rooster", 0.048, 0.063),
    ("coast", "hill", 0.301, 0.390), ("forest", "graveyard", 0.090, 0.111),
    ("shore", "woodland", 0.090, 0.120), ("monk", "slave", 0.161, 0.208),
    ("coast", "forest", 0.090, 0.117), ("lad", "wizard", 0.161, 0.203),
    ("chord", "smile", 0.155, 0.184), ("glass", "magician", 0.123, 0.153),
    ("noon", "string", 0.050, 0.061), ("rooster", "voyage", 0.000, 0.000),
]


def test_criterion_4_per_pair_spot_checks(wn):
    table = ic_table(wn, ICModelId.PROPOSED)  # base 10, frozen after calibration
    matched = 0
    for w1, w2, want_resnik, want_proposed in MC30_PAIR_GOLDEN:
        got_r = word_similarity(wn, table, SimMeasureId.RESNIK, w1, w2)
        got_p = word_similarity(wn, table, SimMeasureId.PROPOSED, w1, w2)
        if abs(got_r - want_resnik) <= TOL_PAIR and abs(got_p - want_proposed) <= TOL_PAIR:
            matched += 1
    ok_pairs = matched >= 20

    identity_checked = 0
    identity_ok = True
    for w1, w2, _, _ in MC30_PAIR_GOLDEN:
        if not set(wn.senses(w1)) & set(wn.senses(w2)):
            continue
        identity_checked += 1
        r = word_similarity(wn, table, SimMeasureId.RESNIK, w1, w2)
        p = word_similarity(wn, table, SimMeasureId.PROPOSED, w1, w2)
        if p != 2.0 * r / (r + 1.0):  # exact, no tolerance
            identity_ok = False

    ok = ok_pairs and identity_ok and identity_checked > 0
    detail = (f"{matched}/30 rows within +-{TOL_PAIR} (need >= 20); same-synset "
              f"identity exact on {identity_checked} pairs")
    assert report("criterion-4 per-pair spot checks", ok, detail)


# ---------------------------------------------------------------------------
# criterion 5a: DCS brute-force oracle on 500 random DAGs
# ---------------------------------------------------------------------------

def test_criterion_5a_dcs_oracle():
    rng = random.Random(2024)
    pairs = 0
    for _ in range(500):
        t = random_taxonomy(rng, max_nodes=50, max_parents=3)
        ids = sorted(t.nodes)
        for _ in range(3):
            a, b = rng.choice(ids), rng.choice(ids)
            got = dcs(t, a, b)
            cs = t.subsumers(a) & t.subsumers(b)
            oracle = {x for x in cs if not (brute_closure(t, x, "children") & cs)}
            assert set(got) == oracle
            assert got == dcs(t, b, a)
            for m in got:
                assert not (t.subsumers(m) - {m}) & (set(got) - {m})
            pairs += 1
    assert report("criterion-5a dcs oracle", pairs == 1500,
                  f"500 random DAGs, {pairs} pairs vs brute force")


# ---------------------------------------------------------------------------
# criterion 5b: IC invariants on WordNet and random DAGs
# ---------------------------------------------------------------------------

def test_criterion_5b_ic_invariants(wn):
    tables = {m: ic_table(wn, m) for m in ICModelId}
    for m, table in tables.items():
        assert table[wn.root] == pytest.approx(0.0, abs=1e-12), str(m)
    for m in BOUNDED_MODELS:
        table = tables[m]
        assert all(-1e-9 <= table[c] <= 1.0 + 1e-9 for c in wn.nodes), str(m)

    proposed = tables[ICModelId.PROPOSED]
    deep_max = wn.constants.deep_max
    ones = [c for c in wn.nodes if proposed[c] >= 1.0 - 1e-9]
    assert ones, "at least one maximally specific node expected"
    for c in ones:
        assert wn.stats[c].hypo_count == 0
        assert wn.depth(c) == deep_max

    seco = tables[ICModelId.SECO]
    rng = random.Random(3)
    for c in rng.sample(sorted(wn.nodes), 300):
        for anc in wn.subsumers(c) - {c}:
            assert seco[anc] <= seco[c] + 1e-12
    assert report("criterion-5b ic invariants", True,
                  "root zero, bounded ranges, IC=1 only on deepest leaves, "
                  "hyponym-model monotone")


# ---------------------------------------------------------------------------
# criterion 5c: counterexample fixtures discriminate
# ---------------------------------------------------------------------------

def test_criterion_5c_fixture_discrimination():
    t1 = freeze(parse_edgelist(FIXTURES / "multi_inheritance_pair.tsv"))
    meng, proposed = ic_table(t1, ICModelId.MENG), ic_table(t1, ICModelId.PROPOSED)
    meng_equal = meng["single"] == pytest.approx(meng["multi"], rel=1e-12)
    proposed_separates_1 = abs(proposed["single"] - proposed["multi"]) > 1e-6

    t2 = freeze(parse_edgelist(FIXTURES / "depth_pair_equal_leaf_subsumers.tsv"))
    commonness = ic_table(t2, ICModelId.COMMONNESS2012)
    proposed = ic_table(t2, ICModelId.PROPOSED)
    commonness_equal = commonness["shallow"] == pytest.approx(commonness["deep"], rel=1e-12)
    proposed_separates_2 = abs(proposed["shallow"] - proposed["deep"]) > 1e-6

    ok = meng_equal and proposed_separates_1 and commonness_equal and proposed_separates_2
    assert report("criterion-5c fixture discrimination", ok,
                  "proposed separates both pairs; meng and commonness do not")


# ---------------------------------------------------------------------------
# criterion 5d: correlation unit behavior
# ---------------------------------------------------------------------------

def test_criterion_5d_pearson_units():
    assert pearson([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    xs = [0.3, 1.9, 4.2, 2.2, 0.0]
    base = pearson(xs, [2.0, 1.0, 4.0, 3.5, 0.5])
    shifted = pearson(xs, [2 * y + 7 for y in [2.0, 1.0, 4.0, 3.5, 0.5]])
    assert shifted == pytest.approx(base, rel=1e-12)
    with pytest.raises(ZeroVariance):
        pearson([1, 1, 1], [1, 2, 3])
    assert report("criterion-5d pearson units", True,
                  "identity, reversal, affine invariance, zero-variance error")


# ---------------------------------------------------------------------------
# criterion 5e: byte-identical repeated evaluation
# ---------------------------------------------------------------------------

def test_criterion_5e_determinism(wn, mc30):
    dumps = []
    for _ in range(2):
        table = ic_table(wn, ICModelId.PROPOSED)
        result = evaluate(wn, mc30, table, SimMeasureId.PROPOSED)
        dumps.append(json.dumps(result.to_json_obj(), indent=2, sort_keys=True).encode())
    ok = dumps[0] == dumps[1]
    assert report("criterion-5e determinism", ok,
                  f"two full runs, {len(dumps[0])} identical bytes")
