"""Intrinsic information content and semantic similarity over noun taxonomies."""

from .bench import (BenchmarkDataset, EvalResult, GridReport, evaluate, grid_report,
                    load_dataset, pearson)
from .errors import SemsimError
from .ic import ICConfig, ICModelId, ICTable, ic_table
from .similarity import (SimMeasureId, dcs, pair_similarity, word_similarity,
                         word_similarity_detail)
from .taxonomy import (NodeStats, RawGraph, Synset, SynsetId, Taxonomy,
                       TaxonomyConstants, freeze)
from .wordnet import parse_edgelist, parse_wordnet

__version__ = "0.1.0"

__all__ = [
    "BenchmarkDataset", "EvalResult", "GridReport", "ICConfig", "ICModelId",
    "ICTable", "NodeStats", "RawGraph", "SemsimError", "SimMeasureId", "Synset",
    "SynsetId", "Taxonomy", "TaxonomyConstants", "dcs", "evaluate", "freeze",
    "grid_report", "ic_table", "load_dataset", "pair_similarity",
    "parse_edgelist", "parse_wordnet", "pearson", "word_similarity",
    "word_similarity_detail",
]
