"""Intrinsic information content models over a frozen taxonomy.

Seven models are provided, each a pure function of the cached node
statistics.  Conventions shared by all of them:

* IC of the root is exactly 0; a single-node taxonomy yields 0 everywhere.
* Log ratios (numerator and denominator both logs of counts) are base
  free; the few genuinely base-sensitive logarithms use
  ``ICConfig.log_base_absolute`` (default 10).
* ``seco``, ``zhou``, ``meng`` and ``proposed`` are bounded in [0, 1].
  ``sanchez2011``, ``commonness2012`` and ``qingbo`` are unbounded; set
  ``ICConfig.normalize_unbounded`` to rescale their tables by the maximum
  before use in measures that require [0, 1] inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import UnknownSynset
from .taxonomy import NodeStats, SynsetId, Taxonomy


class ICModelId(str, Enum):
    SECO = "seco"
    ZHOU = "zhou"
    SANCHEZ2011 = "sanchez2011"
    COMMONNESS2012 = "commonness2012"
    MENG = "meng"
    QINGBO = "qingbo"
    PROPOSED = "proposed"

    def __str__(self) -> str:
        return self.value


BOUNDED_MODELS = frozenset(
    {ICModelId.SECO, ICModelId.ZHOU, ICModelId.MENG, ICModelId.PROPOSED})


@dataclass(frozen=True)
class ICConfig:
    """Tunable conventions shared by the IC models.

    zhou_k               depth weight of the two-factor hyponym/depth model
    log_base_absolute    base of the non-ratio logarithms
    leaf_self            count a leaf as its own leaf in the subsumer-ratio
                         model (off keeps the literal leaf definition)
    normalize_unbounded  divide unbounded tables by their maximum
    """

    zhou_k: float = 0.5
    log_base_absolute: float = 10.0
    leaf_self: bool = False
    normalize_unbounded: bool = False

    def __post_init__(self):
        if not 0.0 <= self.zhou_k <= 1.0:
            raise ValueError(f"zhou_k must be in [0, 1], got {self.zhou_k}")
        if self.log_base_absolute <= 1.0:
            raise ValueError(f"log base must exceed 1, got {self.log_base_absolute}")


@dataclass(frozen=True)
class ICTable:
    """Per-synset IC values for one model, plus the table maximum."""

    model: ICModelId
    values: Mapping[SynsetId, float]
    max_ic: float
    normalized: bool
    config: ICConfig = field(default_factory=ICConfig)

    def __getitem__(self, synset_id: SynsetId) -> float:
        try:
            return self.values[synset_id]
        except KeyError:
            raise UnknownSynset(synset_id) from None

    @property
    def bounded(self) -> bool:
        return self.model in BOUNDED_MODELS or self.normalized


def _stats(t: Taxonomy, c: SynsetId) -> NodeStats:
    try:
        return t.stats[c]
    except KeyError:
        raise UnknownSynset(c) from None


def ic_seco(t: Taxonomy, c: SynsetId) -> float:
    """Hyponym-count ratio: 1 - log(hypo+1)/log(node_max)."""
    s = _stats(t, c)
    n = t.constants.node_max
    if n == 1:
        return 0.0
    return 1.0 - math.log(s.hypo_count + 1) / math.log(n)


def ic_zhou(t: Taxonomy, c: SynsetId, k: float = 0.5) -> float:
    """Weighted blend of the hyponym ratio and a relative depth term.

    The depth term uses depth+1 over deep_max+1 so the root contributes 0.
    """
    s = _stats(t, c)
    n = t.constants.node_max
    if n == 1:
        return 0.0
    hypo_part = 1.0 - math.log(s.hypo_count + 1) / math.log(n)
    depth_part = math.log(s.depth + 1) / math.log(t.constants.deep_max + 1)
    return k * hypo_part + (1.0 - k) * depth_part


def ic_sanchez2011(t: Taxonomy, c: SynsetId, cfg: ICConfig = ICConfig()) -> float:
    """Leaves-per-subsumer ratio: -log_b((leaves/subsumers + 1)/(leaves_max + 1))."""
    s = _stats(t, c)
    if t.constants.node_max == 1:
        return 0.0
    leaves = s.leaf_count
    if cfg.leaf_self and s.hypo_count == 0:
        leaves = 1
    ratio = (leaves / s.subsumer_count + 1.0) / (t.constants.leaves_max + 1.0)
    return -math.log(ratio, cfg.log_base_absolute) + 0.0  # avoid -0.0 at the root


def ic_commonness2012(t: Taxonomy, c: SynsetId, cfg: ICConfig = ICConfig()) -> float:
    """Commonness ratio against the root.

    commonness of a leaf is 1/subsumer_count(leaf); of an inner node, the
    sum of its leaf descendants' commonness.
    """
    s = _stats(t, c)
    root_s = t.stats[t.root]
    own = _commonness(s)
    total = _commonness(root_s)
    return -math.log(own / total, cfg.log_base_absolute) + 0.0  # avoid -0.0 at the root


def _commonness(s: NodeStats) -> float:
    if s.hypo_count == 0:
        return 1.0 / s.subsumer_count
    return s.leaf_commonness


def ic_meng(t: Taxonomy, c: SynsetId) -> float:
    """Depth ratio damped by the depth-weighted hyponym mass.

    Both factors are plain log ratios of the 0-based depth; nodes at depth
    1 therefore score 0, and the root is 0 by definition.
    """
    s = _stats(t, c)
    if s.depth == 0 or t.constants.node_max == 1:
        return 0.0
    deep_max = t.constants.deep_max
    depth_part = 1.0 if deep_max <= 1 else math.log(s.depth) / math.log(deep_max)
    hypo_part = 1.0 - math.log(s.inv_depth_sum + 1.0) / math.log(t.constants.node_max)
    return depth_part * hypo_part


def ic_qingbo(t: Taxonomy, c: SynsetId) -> float:
    """Three-factor model: f_depth*(1 - f_leaves) + f_hypernyms.

    Unbounded; the sum of the two terms can exceed 1.  The depth factor
    uses depth+1 over deep_max+1 so the root contributes 0.
    """
    s = _stats(t, c)
    n = t.constants.node_max
    if n == 1:
        return 0.0
    f_depth = math.log(s.depth + 1) / math.log(t.constants.deep_max + 1)
    f_leaves = math.log(s.leaf_count + 1) / math.log(t.constants.leaves_max + 1)
    f_hypernyms = math.log(s.subsumer_count) / math.log(n)  # subsumers minus self, plus one
    return f_depth * (1.0 - f_leaves) + f_hypernyms


def ic_proposed(t: Taxonomy, c: SynsetId, cfg: ICConfig = ICConfig()) -> float:
    """Depth ratio shaped by a leaf/multi-inheritance penalty and hyponym mass.

    Three factors, each in [0, 1]:
      F1  log(depth+1)/log(deep_max+1)
      F2  1 - log_b((leaf_count*nmih/leaves_max)/subsumers + 1)
      F3  1 - log(inv_depth_sum + 1)/log(node_max)
    F2's argument stays below 1 because leaf_count <= leaves_max and
    nmih < subsumers, so with base 10 the product stays in [0, 1].
    """
    s = _stats(t, c)
    n = t.constants.node_max
    if n == 1:
        return 0.0
    f1 = math.log(s.depth + 1) / math.log(t.constants.deep_max + 1)
    penalty = (s.leaf_count * s.nmih / t.constants.leaves_max) / s.subsumer_count
    f2 = 1.0 - math.log(penalty + 1.0, cfg.log_base_absolute)
    f3 = 1.0 - math.log(s.inv_depth_sum + 1.0) / math.log(n)
    return f1 * f2 * f3


def ic_value(t: Taxonomy, model: ICModelId, c: SynsetId,
             cfg: ICConfig = ICConfig()) -> float:
    """Single-node dispatch over the seven models."""
    model = ICModelId(model)
    if model is ICModelId.SECO:
        return ic_seco(t, c)
    if model is ICModelId.ZHOU:
        return ic_zhou(t, c, cfg.zhou_k)
    if model is ICModelId.SANCHEZ2011:
        return ic_sanchez2011(t, c, cfg)
    if model is ICModelId.COMMONNESS2012:
        return ic_commonness2012(t, c, cfg)
    if model is ICModelId.MENG:
        return ic_meng(t, c)
    if model is ICModelId.QINGBO:
        return ic_qingbo(t, c)
    return ic_proposed(t, c, cfg)


def ic_table(t: Taxonomy, model: ICModelId, cfg: ICConfig = ICConfig()) -> ICTable:
    """Compute IC for every synset; optionally rescale unbounded models.

    The returned table is immutable and safe to share across threads.
    """
    model = ICModelId(model)
    values = {c: ic_value(t, model, c, cfg) for c in t.nodes}
    max_ic = max(values.values())
    normalized = False
    if cfg.normalize_unbounded and model not in BOUNDED_MODELS and max_ic > 0:
        values = {c: v / max_ic for c, v in values.items()}
        max_ic = 1.0
        normalized = True
    return ICTable(model=model, values=MappingProxyType(values), max_ic=max_ic,
                   normalized=normalized, config=cfg)

