"""In-process workloads, run in a child process of ``run.py``.

Usage: ``python3 perfbench/worker.py REQUEST.json RESULT.json``

The request names the workload, the corpus directory, the seed, the run
length and whether to trace.  The worker sets the program up
``SETUPS`` times, measures whole rounds of ops for the run length, and
writes the op latencies, set-up times, its own peak RSS, the trace records
and the outputs the parent checks against the oracle.  Property checks
that need every score (ranges, symmetry, the same-synset identity) run
here, outside the timed region.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time

from oracle import BOUNDED, MEASURES, MODELS

clock = time.perf_counter
SETUPS = 3
BATCH = 200
ZIPF_S = 0.7
SAMPLES_PER_BATCH = 2
BOUNDED_MODELS = [m for m in MODELS if m in BOUNDED]  # seco, zhou, meng, proposed
UNIT_RANGE = ("resnik", "lin", "jiang_conrath", "faith", "proposed")  # [0, 1] on bounded tables


def rounds(seconds: float, trace, run_round) -> dict:
    """Run whole rounds until ``seconds`` have passed.

    ``run_round(r)`` runs round ``r`` and returns its op latencies in ms.
    With a trace, rounds alternate untraced and traced (an even number of
    rounds in all); ``run_round`` gives a traced round the inputs of the
    untraced round before it, so the two sides differ only by the trace.
    """
    lat = {"untraced": [], "traced": []}
    start = clock()
    r = 0
    while True:
        traced = trace is not None and r % 2 == 1
        if traced:
            trace.install()
        try:
            lat["traced" if traced else "untraced"] += run_round(r)
        finally:
            if traced:
                trace.uninstall()
        r += 1
        if clock() - start >= seconds and (trace is None or r % 2 == 0):
            return lat


# The program's functions are looked up in their modules at every call, so
# that the trace's wrappers see the calls.

def _setup(workload: str, corpus_dir: str):
    from semsim import ic, taxonomy, wordnet
    raw, word_index = wordnet.parse_wordnet(corpus_dir)
    t = taxonomy.freeze(raw, word_index=word_index)
    tables = [ic.ic_table(t, m) for m in BOUNDED_MODELS] if workload == "pair_stream" else []
    return t, tables


def grid_eval(req, t, trace) -> dict:
    from semsim import bench
    datasets = [bench.load_dataset(p) for p in req["datasets"]]  # wordsim201, mc30
    outputs = []
    failed = []

    def run_round(r):
        # one op: the full grid over both benchmarks, as in the paper
        t0 = clock()
        try:
            reports = [bench.grid_report(t, ds, bench.FULL_GRID) for ds in datasets]
        except Exception as exc:  # a failed op is counted, the run goes on
            failed.append(f"grid_report: {exc!r}")
            return []
        ms = (clock() - t0) * 1e3
        for report in reports:
            outputs.append({"dataset": report.dataset, "rows": [
                {"ic_model": str(res.ic_model), "measure": str(res.measure),
                 "pearson_raw": res.pearson_raw, "n_used": res.n_used,
                 "machine": [p.machine for p in res.per_pair]}
                for res in report.results]})
        return [ms]

    lat = rounds(req["seconds"], trace, run_round)
    return {"latency": lat, "outputs": outputs, "attempted": len(outputs) // 2 + len(failed),
            "failed": failed, "problems": []}


def pair_stream(req, t, tables, trace) -> dict:
    from semsim import similarity
    with open(req["vocab"], encoding="utf-8") as fh:
        vocab = fh.read().split()
    cum, acc = [], 0.0
    for k in range(1, len(vocab) + 1):
        acc += k ** -ZIPF_S
        cum.append(acc)
    rng = random.Random(req["seed"])
    samples, problems, failed, batches = [], [], [], []
    attempted = 0

    def run_round(r):
        nonlocal attempted
        ms = []
        if trace is None or r % 2 == 0:
            batches[:] = [rng.choices(vocab, cum_weights=cum, k=2 * BATCH) for _ in tables]
        for table, words in zip(tables, batches):
            pairs = list(zip(words[::2], words[1::2]))
            scores = []
            attempted += 1
            t0 = clock()
            try:
                for w1, w2 in pairs:
                    for measure in MEASURES:
                        scores.append(similarity.word_similarity(t, table, measure, w1, w2))
            except Exception as exc:  # a failed op is counted, the run goes on
                failed.append(f"batch {attempted}: {exc!r}")
                continue
            ms.append((clock() - t0) * 1e3)
            for j, (w1, w2) in enumerate(pairs):
                for k, measure in enumerate(MEASURES):
                    v = scores[6 * j + k]
                    if measure in UNIT_RANGE and not 0.0 <= v <= 1.0:
                        problems.append(f"{measure}({w1}, {w2}) = {v} outside [0, 1]")
            for j in rng.sample(range(BATCH), SAMPLES_PER_BATCH):
                samples.append({"model": str(table.model), "w1": pairs[j][0],
                                "w2": pairs[j][1], "scores": scores[6 * j:6 * j + 6]})
        return ms

    lat = rounds(req["seconds"], trace, run_round)

    by_model = {str(tb.model): tb for tb in tables}
    for s in samples:
        table = by_model[s["model"]]
        back = [similarity.word_similarity(t, table, m, s["w2"], s["w1"]) for m in MEASURES]
        for m, ab, ba in zip(MEASURES, s["scores"], back):
            if abs(ab - ba) > 1e-12:
                problems.append(f"{m} not symmetric on ({s['w1']}, {s['w2']}): {ab} vs {ba}")
        # a word of one sense against itself is a same-synset pair
        w = s["w1"]
        if len(t.senses(w)) == 1:
            r = similarity.word_similarity(t, table, "resnik", w, w)
            p = similarity.word_similarity(t, table, "proposed", w, w)
            if p != 2.0 * r / (r + 1.0):
                problems.append(f"proposed({w}, {w}) = {p!r} != 2r/(r+1) for r = {r!r}")
    return {"latency": lat, "outputs": samples, "attempted": attempted,
            "failed": failed, "problems": problems}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    trace = None
    if req["trace"]:
        from tracing import Trace
        trace = Trace()
        trace.install()

    setup_s = []
    for i in range(SETUPS):
        state = None
        gc.collect()
        t0 = clock()
        state = _setup(req["workload"], req["corpus"])
        setup_s.append(clock() - t0)
    t, tables = state
    del state
    setup_records = None
    if trace is not None:
        trace.uninstall()
        setup_records = trace.records()
        trace.clear()

    if req["workload"] == "grid_eval":
        out = grid_eval(req, t, trace)
    else:
        out = pair_stream(req, t, tables, trace)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        out["trace"] = {"setup": setup_records, "ops": trace.records()}
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv))
