"""Per-layer counters and timers, recorded from outside the program.

:class:`Trace` replaces the public functions of ``semsim.wordnet``,
``taxonomy``, ``ic``, ``similarity``, ``bench`` and ``cli`` with timing
wrappers, in every module namespace where the original is looked up (so
``semsim.bench.ic_table`` is wrapped as well as ``semsim.ic.ic_table``),
and puts the originals back on :meth:`Trace.uninstall`.  A function the
program no longer has is skipped.  The program itself carries no tracing
code.

A trace keeps two kinds of record, both JSON-ready:

* ``counts``: additive counters and busy-time totals (seconds);
* ``samples``: per-call durations (seconds) for medians.

:func:`per_layer` turns the records of a run into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

from oracle import MEASURES, MODELS

LAYERS = ("wordnet", "taxonomy", "ic", "similarity", "bench", "cli")

clock = time.perf_counter


class Trace:
    """The wrappers of one process and what they recorded."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._seen: set = set()
        self._patches: list = []
        self._in_word = False

    # ---- install / uninstall ---------------------------------------------

    def _patch(self, module_name: str, attr: str, make, outside_only=False):
        home = sys.modules.get("semsim." + module_name)
        original = getattr(home, attr, None) if home else None
        if original is None:
            return
        wrapper = make(original)
        for name in ("semsim",) + tuple("semsim." + m for m in LAYERS):
            mod = sys.modules.get(name)
            if mod is None or (outside_only and mod is home):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for m in ("wordnet", "taxonomy", "ic", "similarity", "bench"):
            importlib.import_module("semsim." + m)
        self._patch("wordnet", "parse_wordnet", self._parse)
        self._patch("taxonomy", "freeze", self._freeze)
        self._patch("ic", "ic_table", self._ic_table)
        # ic_table's own per-node calls are counted from its result instead
        self._patch("ic", "ic_value", self._ic_value, outside_only=True)
        self._patch("similarity", "word_similarity", self._word)
        self._patch("similarity", "word_similarity_detail", self._word)
        self._patch("similarity", "dcs", self._dcs)
        self._patch("bench", "evaluate", self._evaluate)
        self._patch("bench", "grid_report", self._grid)
        self._patch("cli", "load_taxonomy", self._load)
        self._patch("cli", "_source_fingerprint", self._fingerprint)
        taxonomy_cls = getattr(sys.modules["semsim.taxonomy"], "Taxonomy", None)
        original = getattr(taxonomy_cls, "subsumers", None)
        if original is not None:
            self._patches.append((taxonomy_cls, "subsumers", original))
            taxonomy_cls.subsumers = self._subsumers(original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def records(self) -> dict:
        return {"counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def clear(self) -> None:
        self.counts.clear()
        self.samples.clear()

    # ---- wrappers ------------------------------------------------------------

    def _parse(self, fn):
        def parse_wordnet(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.samples["wordnet.parse_s"].append(clock() - t0)
            self.counts["wordnet.parses"] += 1
            self.samples["wordnet.synsets"].append(len(result[0].parents))
            return result
        return parse_wordnet

    def _freeze(self, fn):
        def freeze(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.samples["taxonomy.freeze_s"].append(clock() - t0)
            self._seen.clear()  # a new taxonomy starts with nothing seen
            return result
        return freeze

    def _subsumers(self, fn):
        seen, counts = self._seen, self.counts

        def subsumers(taxonomy, synset_id):
            t0 = clock()
            result = fn(taxonomy, synset_id)
            counts["taxonomy.subsumers_t"] += clock() - t0
            counts["taxonomy.subsumers_calls"] += 1
            if synset_id not in seen:
                seen.add(synset_id)
                counts["taxonomy.subsumers_distinct"] += 1
            return result
        return subsumers

    def _ic_table(self, fn):
        def ic_table(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.samples["ic.table_s." + str(result.model)].append(clock() - t0)
            self.counts["ic.tables_built"] += 1
            self.counts["ic.values_computed"] += len(result.values)
            return result
        return ic_table

    def _ic_value(self, fn):
        def ic_value(*args, **kwargs):
            self.counts["ic.values_computed"] += 1
            return fn(*args, **kwargs)
        return ic_value

    def _word(self, fn):
        def word_similarity(t, ic, measure, word1, word2, *args, **kwargs):
            if self._in_word:
                return fn(t, ic, measure, word1, word2, *args, **kwargs)
            self._in_word = True
            t0 = clock()
            try:
                result = fn(t, ic, measure, word1, word2, *args, **kwargs)
            finally:
                self._in_word = False
            elapsed = clock() - t0
            name = getattr(measure, "value", measure)
            self.counts["similarity.word_t." + name] += elapsed
            self.counts["similarity.word_n." + name] += 1
            self.counts["similarity.word_pairs"] += 1
            self.counts["similarity.sense_pairs"] += len(t.senses(word1)) * len(t.senses(word2))
            return result
        return word_similarity

    def _dcs(self, fn):
        def dcs(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.counts["similarity.dcs_t"] += clock() - t0
            self.counts["similarity.dcs_calls"] += 1
            return result
        return dcs

    def _evaluate(self, fn):
        def evaluate(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["bench.evaluate_calls"] += 1
            for p in result.per_pair:
                key = "bench.pairs_scored" if p.machine is not None else "bench.pairs_skipped"
                self.counts[key] += 1
            return result
        return evaluate

    def _grid(self, fn):
        def grid_report(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.samples["bench.grid_s"].append(clock() - t0)
            return result
        return grid_report

    def _fingerprint(self, fn):
        def source_fingerprint(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.samples["cli.fingerprint_s"].append(clock() - t0)
            return result
        return source_fingerprint

    def _load(self, fn):
        def load_taxonomy(args):
            parses = self.counts["wordnet.parses"]
            n_fp = len(self.samples["cli.fingerprint_s"])
            n_parse = len(self.samples["wordnet.parse_s"])
            n_freeze = len(self.samples["taxonomy.freeze_s"])
            t0 = clock()
            result = fn(args)
            elapsed = clock() - t0
            if not getattr(args, "cache", None):
                return result
            # time not spent hashing, parsing or freezing is snapshot I/O
            for key, n in (("cli.fingerprint_s", n_fp), ("wordnet.parse_s", n_parse),
                           ("taxonomy.freeze_s", n_freeze)):
                elapsed -= sum(self.samples[key][n:])
            if self.counts["wordnet.parses"] == parses:
                self.counts["cli.snapshot_hits"] += 1
                self.samples["cli.snapshot_read_s"].append(elapsed)
            else:
                self.counts["cli.snapshot_misses"] += 1
                self.samples["cli.snapshot_write_s"].append(elapsed)
            return result
        return load_taxonomy


def merge(records) -> dict:
    counts: Counter = Counter()
    samples: dict[str, list[float]] = defaultdict(list)
    for r in records:
        counts.update(r.get("counts", {}))
        for key, values in r.get("samples", {}).items():
            samples[key].extend(values)
    return {"counts": dict(counts), "samples": dict(samples)}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(setup: dict, ops: dict, traced_ops: int, extra: dict) -> dict:
    """Per-layer metrics of a traced run.

    ``setup`` holds the records of the set-up phase, ``ops`` those of the
    traced ops; counters are reported per traced op, durations as the
    median (``_s``, ``_ms``) or mean per call (``_us``).  ``extra`` carries
    figures the run measured itself (process times, snapshot size, the
    untraced op latency).
    """
    both = merge([setup, ops])
    c, s = ops["counts"], both["samples"]
    per_op = max(traced_ops, 1)

    def count(key):
        return c.get(key, 0) / per_op

    def mean_us(total_key, n_key):
        n = c.get(n_key, 0)
        return c.get(total_key, 0.0) / n * 1e6 if n else 0.0

    m = {
        "wordnet.parse_s": (_median(s.get("wordnet.parse_s")), "s"),
        "wordnet.synsets": (max(s.get("wordnet.synsets", [0])), "count"),
        "taxonomy.freeze_s": (_median(s.get("taxonomy.freeze_s")), "s"),
        "taxonomy.subsumers_calls": (count("taxonomy.subsumers_calls"), "count"),
        "taxonomy.subsumers_distinct": (count("taxonomy.subsumers_distinct"), "count"),
        "taxonomy.subsumers_us": (mean_us("taxonomy.subsumers_t",
                                          "taxonomy.subsumers_calls"), "us"),
    }
    for model in MODELS:
        m["ic.table_s." + model] = (_median(s.get("ic.table_s." + model)), "s")
    m["ic.tables_built"] = (count("ic.tables_built"), "count")
    m["ic.values_computed"] = (count("ic.values_computed"), "count")
    m["similarity.word_pairs"] = (count("similarity.word_pairs"), "count")
    m["similarity.sense_pairs"] = (count("similarity.sense_pairs"), "count")
    for measure in MEASURES:
        m["similarity.word_sim_us." + measure] = (
            mean_us("similarity.word_t." + measure, "similarity.word_n." + measure), "us")
    m["similarity.dcs_calls"] = (count("similarity.dcs_calls"), "count")
    m["similarity.dcs_us"] = (mean_us("similarity.dcs_t", "similarity.dcs_calls"), "us")
    for key in ("bench.evaluate_calls", "bench.pairs_scored", "bench.pairs_skipped"):
        m[key] = (count(key), "count")
    m["bench.grid_s"] = (_median(s.get("bench.grid_s")), "s")
    m["cli.process_ms"] = (extra.get("process_ms", 0.0), "ms")
    m["cli.import_ms"] = (extra.get("import_ms", 0.0), "ms")
    m["cli.fingerprint_s"] = (_median(s.get("cli.fingerprint_s")), "s")
    m["cli.snapshot_read_s"] = (_median(s.get("cli.snapshot_read_s")), "s")
    m["cli.snapshot_hits"] = (count("cli.snapshot_hits"), "count")
    m["cli.snapshot_misses"] = (count("cli.snapshot_misses"), "count")
    m["cli.snapshot_write_s"] = (_median(s.get("cli.snapshot_write_s")), "s")
    m["cli.snapshot_bytes"] = (extra.get("snapshot_bytes", 0), "B")
    m["trace.op_ms_p50"] = (extra["traced_ms_p50"], "ms")
    m["trace.untraced_op_ms_p50"] = (extra["untraced_ms_p50"], "ms")
    m["trace.overhead_ms"] = (extra["traced_ms_p50"] - extra["untraced_ms_p50"], "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
