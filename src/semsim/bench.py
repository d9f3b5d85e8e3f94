"""Benchmark loading, Pearson correlation and evaluation grids.

Machine scores are those of :func:`semsim.similarity.word_similarity`:
one pair plan per dataset lists its sense pairs once, and every combo
scores that list in one call of the word path's scorer, through a memo
the plan keeps, so each table's ICs are read once per LCS rule.
Pairs whose words have no noun sense are marked skipped and excluded from
the correlation (they are never zero-filled).
Reported correlations are rounded to two decimals, with the raw value
kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import (AllPairsSkipped, EmptyDataset, LengthMismatch, MalformedRow,
                     MissingFile, NonFiniteScore, ZeroVariance)
from .ic import ICConfig, ICModelId, ICTable, ic_table
from .similarity import SimMeasureId, _measure, _scorer, _sense_pairs
from .taxonomy import Taxonomy
from .wordnet import utf8_lines

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchmarkDataset:
    """Ordered word pairs with human similarity ratings."""

    name: str
    pairs: tuple[tuple[str, str, float], ...]
    scale: tuple[float, float]


@dataclass(frozen=True)
class PairScore:
    word1: str
    word2: str
    human: float
    machine: float | None
    status: str  # "ok" | "skipped_unknown_word"


@dataclass(frozen=True)
class EvalResult:
    dataset: str
    ic_model: ICModelId
    measure: SimMeasureId
    per_pair: tuple[PairScore, ...]
    pearson: float
    pearson_raw: float
    n_used: int

    def _summary(self) -> dict:
        """The fields that sum up the result, in its JSON and in a grid's rows."""
        return {"ic_model": str(self.ic_model), "measure": str(self.measure),
                "pearson": self.pearson, "pearson_raw": self.pearson_raw,
                "n_used": self.n_used}

    def to_json_obj(self) -> dict:
        return {"schema": JSON_SCHEMA_VERSION, "dataset": self.dataset, **self._summary(),
                "pairs": [asdict(p) for p in self.per_pair]}


def load_dataset(path) -> BenchmarkDataset:
    """Read a word1/word2/score table from a TSV or CSV file.

    An optional single header row is tolerated; ``#`` lines are comments.
    A line that is not UTF-8 raises ``MalformedLine``.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"dataset not found: {path}")
    pairs: list[tuple[str, str, float]] = []
    seen: set[frozenset[str]] = set()
    first_data_row = True
    for row_no, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t") if "\t" in line else line.split(",")
        if len(cells) != 3:
            raise MalformedRow(path, row_no,
                               f"expected 3 columns, got {len(cells)}")
        w1, w2, score_text = (c.strip() for c in cells)
        try:
            score = float(score_text)
        except ValueError:
            if first_data_row:
                first_data_row = False
                continue  # header row
            raise MalformedRow(path, row_no,
                               f"score is not a number: {score_text!r}") from None
        if not math.isfinite(score):
            raise MalformedRow(path, row_no, f"score is not finite: {score_text!r}")
        if not w1 or not w2:
            raise MalformedRow(path, row_no, "empty word cell")
        key = frozenset((w1.lower(), w2.lower()))
        if key in seen:
            raise MalformedRow(path, row_no, f"duplicate pair {w1}-{w2}")
        seen.add(key)
        pairs.append((w1, w2, score))
        first_data_row = False
    if not pairs:
        raise EmptyDataset(f"no pairs in {path}")
    scores = [s for _, _, s in pairs]
    return BenchmarkDataset(name=path.stem, pairs=tuple(pairs),
                            scale=(min(scores), max(scores)))


def pearson(xs, ys) -> float:
    """Sample linear correlation of two equal-length sequences of finite
    numbers."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise LengthMismatch(f"length {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise LengthMismatch(f"need at least 2 points, got {n}")
    if not all(map(math.isfinite, xs + ys)):
        raise NonFiniteScore("the correlation inputs hold a NaN or an infinity")
    # Plain loops add left to right on every version; the builtin sum
    # compensates its rounding from Python 3.12 on, which moves last digits.
    sum_x = sum_y = 0.0
    for x, y in zip(xs, ys):
        sum_x += x
        sum_y += y
    mean_x, mean_y = sum_x / n, sum_y / n
    var_x = var_y = cov = 0.0
    for x, y in zip(xs, ys):
        dx, dy = x - mean_x, y - mean_y
        var_x += dx * dx
        var_y += dy * dy
        cov += dx * dy
    denom = math.sqrt(var_x) * math.sqrt(var_y)  # the product alone can underflow
    if denom == 0.0:
        raise ZeroVariance("one of the score vectors is constant")
    r = cov / denom
    return max(-1.0, min(1.0, r))


class _PairPlan:
    """The taxonomy-only work of scoring a dataset, shared by every combo:
    ``pairs`` lists each dataset pair's sense pairs as ``_sense_pairs``
    lists them, ``spans`` holds per dataset pair the range of its own, or
    ``None`` when a word has no noun sense, and ``memo`` is the scorer's
    memo for ``pairs``: their DCS rows and per table and rule their ICs."""

    def __init__(self, t: Taxonomy, dataset: BenchmarkDataset):
        self.t, self.dataset = t, dataset
        self.spans, self.pairs, self.memo = [], [], {}
        for w1, w2, _ in dataset.pairs:
            rows1, rows2 = t.sense_rows(w1), t.sense_rows(w2)
            if not (rows1 and rows2):
                self.spans.append(None)
                continue
            self.spans.append((len(self.pairs), len(self.pairs) + len(rows1) * len(rows2)))
            self.pairs += _sense_pairs(t, rows1, rows2)

    def score(self, table: ICTable, measure: SimMeasureId, lcs_mode: str) -> EvalResult:
        dataset = self.dataset
        if not any(self.spans):
            raise AllPairsSkipped(f"no scorable pairs in {dataset.name}")
        measure = _measure(measure)
        values = _scorer(self.t, table, measure, lcs_mode, self.pairs, self.memo)
        per_pair: list[PairScore] = []
        machine: list[float] = []
        human: list[float] = []
        for (w1, w2, h), span in zip(dataset.pairs, self.spans):
            if span is None:
                per_pair.append(PairScore(w1, w2, h, None, "skipped_unknown_word"))
                continue
            score = max(values[span[0]:span[1]])  # ties keep the earliest sense pair
            per_pair.append(PairScore(w1, w2, h, score, "ok"))
            machine.append(score)
            human.append(h)
        raw = pearson(machine, human)
        return EvalResult(dataset=dataset.name, ic_model=table.model, measure=measure,
                          per_pair=tuple(per_pair), pearson=round(raw, 2),
                          pearson_raw=raw, n_used=len(machine))


def evaluate(t: Taxonomy, dataset: BenchmarkDataset, table: ICTable,
             measure: SimMeasureId, lcs_mode: str = "max_depth") -> EvalResult:
    """Score every dataset pair and correlate against the human ratings.

    The IC table is the only source of the model: its values score the
    pairs and its ``model`` names the result.  ``AllPairsSkipped`` comes
    before any check on the table, measure or LCS rule.
    """
    return _PairPlan(t, dataset).score(table, measure, lcs_mode)


# Correlations quoted from the literature for report context.  These are
# carried as constants (reported, not computed): corpus-frequency IC and
# the non-IC families are outside what this package computes.
LITERATURE_BASELINES = (
    {"approach": "resnik (corpus IC)", "family": "IC corpus", "pairs": 28, "correlation": 0.72},
    {"approach": "lin (corpus IC)", "family": "IC corpus", "pairs": 28, "correlation": 0.70},
    {"approach": "jiang-conrath (corpus IC)", "family": "IC corpus", "pairs": 28, "correlation": 0.73},
    {"approach": "rada", "family": "edge counting", "pairs": 28, "correlation": 0.59},
    {"approach": "wu-palmer", "family": "edge counting", "pairs": 28, "correlation": 0.74},
    {"approach": "leacock-chodorow", "family": "edge counting", "pairs": 28, "correlation": 0.74},
    {"approach": "li", "family": "edge counting", "pairs": 28, "correlation": 0.82},
    {"approach": "rodriguez-egenhofer", "family": "feature based", "pairs": 28, "correlation": 0.71},
    {"approach": "tversky", "family": "feature based", "pairs": 28, "correlation": 0.73},
    {"approach": "petrakis", "family": "feature based", "pairs": 30, "correlation": 0.73},
    {"approach": "valls", "family": "feature based", "pairs": 30, "correlation": 0.83},
    {"approach": "bollegala", "family": "distributional", "pairs": 30, "correlation": 0.83},
    {"approach": "chen", "family": "distributional", "pairs": 30, "correlation": 0.69},
    {"approach": "sahami-heilman", "family": "distributional", "pairs": 30, "correlation": 0.58},
    {"approach": "gledson", "family": "distributional", "pairs": 30, "correlation": 0.55},
    {"approach": "bollegala (snippets + page counts)", "family": "web based", "pairs": 28,
     "correlation": 0.87},
)

# The grid a full benchmark run covers: every IC model under the three
# classic measures, plus the measure/model pairings with published scores.
FULL_GRID: tuple[tuple[ICModelId, SimMeasureId], ...] = tuple(
    [(m, s) for m in ICModelId
     for s in (SimMeasureId.RESNIK, SimMeasureId.LIN, SimMeasureId.JIANG_CONRATH)]
    + [
        (ICModelId.SANCHEZ2011, SimMeasureId.BATET),
        (ICModelId.SECO, SimMeasureId.FAITH),
        (ICModelId.PROPOSED, SimMeasureId.FAITH),
        (ICModelId.PROPOSED, SimMeasureId.PROPOSED),
        (ICModelId.MENG, SimMeasureId.PROPOSED),
    ]
)


@dataclass(frozen=True)
class GridReport:
    dataset: str
    results: tuple[EvalResult, ...]
    literature: tuple = ()

    def to_json_obj(self) -> dict:
        obj = {"schema": JSON_SCHEMA_VERSION, "dataset": self.dataset,
               "rows": [r._summary() for r in self.results]}
        if self.literature:
            obj["literature"] = [dict(e, note="reported, not computed")
                                 for e in self.literature]
        return obj

    def to_tsv(self) -> str:
        lines = ["ic_model\tmeasure\tpearson\tn_used"]
        for r in self.results:
            lines.append(f"{r.ic_model}\t{r.measure}\t{r.pearson:.2f}\t{r.n_used}")
        for e in self.literature:
            lines.append(f"{e['approach']}\t{e['family']}\t{e['correlation']:.2f}"
                         f"\t{e['pairs']} (reported, not computed)")
        return "\n".join(lines) + "\n"


def grid_report(t: Taxonomy, dataset: BenchmarkDataset, combos,
                cfg: ICConfig = ICConfig(), lcs_mode: str = "max_depth",
                with_literature: bool = False) -> GridReport:
    """Run a list of (ic_model, measure) combos over one dataset, sharing one
    pair plan and one table per model; every combo's names are checked first."""
    combos = [(ICModelId(m), SimMeasureId(s)) for m, s in combos]
    if not combos:
        raise ValueError("combo list is empty")
    plan = _PairPlan(t, dataset)
    tables: dict[ICModelId, ICTable] = {}
    results = []
    for model, measure in combos:
        if model not in tables:
            tables[model] = ic_table(t, model, cfg)
        results.append(plan.score(tables[model], measure, lcs_mode))
    return GridReport(dataset=dataset.name, results=tuple(results),
                      literature=LITERATURE_BASELINES if with_literature else ())
