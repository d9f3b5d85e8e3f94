"""Golden digest: one sha256 over IC tables, scores, DCS sets and correlations.

Everything is computed on a seeded synthetic taxonomy built here, so the
test runs without WordNet.  Floats enter the hash through ``repr``, so a
match means every value is identical bit for bit.  Refactors of the core
must leave the digest unchanged; a deliberate change of results replaces
GOLDEN_DIGEST and says why in the change log.
"""

import hashlib
import os
import random
import shutil
import subprocess
from pathlib import Path

from semsim.bench import FULL_GRID, BenchmarkDataset, grid_report
from semsim.errors import SemsimError
from semsim.ic import ICConfig, ICModelId, ic_table
from semsim.similarity import SimMeasureId, dcs, word_similarity
from semsim.taxonomy import RawGraph, freeze

GOLDEN_DIGEST = "13c3914f2af78fa863ffdde0e9dd229947f4e6f720599dcffb171acb1d8298f0"

SEED = 20160718
N_NODES = 1500
N_WORDS = 500
CONFIGS = (
    ICConfig(),
    ICConfig(normalize_unbounded=True),
    ICConfig(leaf_self=True),
    ICConfig(log_base_absolute=2.0, zhou_k=0.3),
)
LCS_MODES = ("max_depth", "max_ic")


def synthetic_taxonomy(rng):
    """A DAG of N_NODES nodes, about 8% of them with two or three parents,
    three of them parentless (so freeze adds its synthetic root), and a
    word index of N_WORDS words with one to four senses each."""
    parents = {"n0000": []}
    ids = ["n0000"]
    for i in range(1, N_NODES):
        node = f"n{i:04d}"
        roll = rng.random()
        if i in (400, 900):
            k = 0
        elif roll < 0.05:
            k = 2
        elif roll < 0.08:
            k = 3
        else:
            k = 1
        # lean towards recent nodes so the DAG grows deep, as WordNet is
        window = ids[max(0, i - 60):] if rng.random() < 0.7 else ids
        parents[node] = rng.sample(window, min(k, len(window)))
        ids.append(node)
    index = {}
    for w in range(N_WORDS):
        index[f"w{w:03d}"] = tuple(rng.sample(ids, rng.choice((1, 1, 2, 2, 3, 4))))
    return freeze(RawGraph(parents=parents), word_index=index)


def synthetic_dataset(rng):
    words = [f"w{w:03d}" for w in range(N_WORDS)]
    pairs = []
    seen = set()
    while len(pairs) < 60:
        a, b = rng.sample(words, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            pairs.append((a, b, round(rng.uniform(0.0, 10.0), 2)))
    pairs[7] = ("w001", "ghost", 4.2)  # skipped, never zero-filled
    scores = [s for _, _, s in pairs]
    return BenchmarkDataset(name="synthetic", pairs=tuple(pairs),
                            scale=(min(scores), max(scores)))


def outcome(fn, *args):
    """The value of a call, or the name of the domain error it raised."""
    try:
        return repr(fn(*args))
    except SemsimError as exc:
        return type(exc).__name__


def digest_lines():
    rng = random.Random(SEED)
    t = synthetic_taxonomy(rng)
    c = t.constants
    yield repr((t.root, len(t), c.node_max, c.deep_max, c.leaves_max))
    nodes = sorted(t.nodes)

    tables = {}
    for k, cfg in enumerate(CONFIGS):
        for model in ICModelId:
            table = ic_table(t, model, cfg)
            tables[k, model] = table
            yield f"table {k} {model} {table.max_ic!r} {table.normalized}"
            yield " ".join(repr(table[n]) for n in nodes)

    words = [f"w{w:03d}" for w in range(N_WORDS)]
    word_pairs = [tuple(rng.sample(words, 2)) for _ in range(30)]
    word_pairs += [("w002", "w002"), ("w003", "ghost")]
    for (k, model), table in tables.items():
        for measure in SimMeasureId:
            for mode in LCS_MODES:
                scores = [outcome(word_similarity, t, table, measure, a, b, mode)
                          for a, b in word_pairs]
                yield f"word {k} {model} {measure} {mode} " + " ".join(scores)

    for _ in range(300):
        a, b = rng.choice(nodes), rng.choice(nodes)
        yield f"dcs {a} {b} " + " ".join(dcs(t, a, b))

    dataset = synthetic_dataset(rng)
    for cfg, mode in ((CONFIGS[0], "max_depth"), (CONFIGS[1], "max_ic")):
        report = grid_report(t, dataset, FULL_GRID, cfg=cfg, lcs_mode=mode)
        for r in report.results:
            yield (f"grid {mode} {r.ic_model} {r.measure} {r.pearson_raw!r} "
                   f"{r.pearson!r} {r.n_used}")
            yield " ".join(f"{p.machine!r}:{p.status}" for p in r.per_pair)


def digest() -> str:
    h = hashlib.sha256()
    for line in digest_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert digest() == GOLDEN_DIGEST


def test_golden_digest_on_every_interpreter():
    # the same bytes on every supported Python: run the digest under each
    # interpreter on PATH that starts; skip only when none does.  This module
    # imports no pytest at its top, so the interpreters need none.
    import pytest
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    found = {}
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        path = shutil.which(name)
        if path and subprocess.run([path, "-c", "pass"], capture_output=True,
                                   timeout=60).returncode == 0:
            run = subprocess.run(
                [path, "-B", "-c", "import test_golden_digest as g; print(g.digest())"],
                env=env, capture_output=True, text=True, timeout=300)
            found[name] = (run.stdout + run.stderr).strip()
    if not found:
        pytest.skip("none of python3.10 ... python3.13 starts")
    assert found == dict.fromkeys(found, GOLDEN_DIGEST)
