"""Intrinsic information content models over a frozen taxonomy.

Seven models are provided.  Each is written once, as a kernel factory:
given a taxonomy and an :class:`ICConfig`, it resolves the per-table
constants once (the logs of node_max, deep_max+1 and leaves_max+1, zhou_k,
the log base, the root's commonness), picks the statistics columns it
reads and returns a pure function of one node's row.  :func:`ic_table`
resolves that kernel and returns a lazy :class:`ICTable`: a node's IC is
computed on its first read and kept, so a query pays only for the nodes
it reads.  The kernel's maximum over every node, which batet and
``normalize_unbounded`` read, is one full pass per taxonomy, model and
config, kept in the taxonomy.  Conventions shared by all of them:

* IC of the root is exactly 0; a single-node taxonomy yields 0 everywhere.
* Log ratios (numerator and denominator both logs of counts) are base
  free; the few genuinely base-sensitive logarithms use
  ``ICConfig.log_base_absolute`` (default 10).
* ``seco``, ``zhou``, ``meng`` and ``proposed`` are bounded in [0, 1];
  ``proposed`` only for a log base of at least 2, so a smaller base
  raises ``UnboundedIC`` for it.
  ``sanchez2011``, ``commonness2012`` and ``qingbo`` are unbounded; set
  ``ICConfig.normalize_unbounded`` to rescale their tables by the maximum
  before use in measures that require [0, 1] inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite, log
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import UnboundedIC
from .taxonomy import SynsetId, Taxonomy


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
        base = self.log_base_absolute
        if not (isfinite(base) and base > 1.0):
            raise ValueError(f"log base must be finite and exceed 1, got {base}")


Kernel = Callable[[int], float]


class _Memo(dict):
    """Row -> IC: a missing row's value is computed by ``kernel`` and kept."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def __missing__(self, r: int) -> float:
        value = self[r] = self.kernel(r)
        return value


class ICTable:
    """IC values of one model, each computed on its first read and then kept.

    ``by_row`` is the memo the measures read: indexing it with a row of
    ``taxonomy`` runs ``kernel`` on that row the first time and is one dict
    lookup after.  ``table[id]`` reads it through ``Taxonomy.row``; an
    unknown id raises ``UnknownSynset`` and stores nothing.  Two threads
    that fill the same row store the same float, so the table is safe to
    share.  A table of explicit values is a kernel that looks them up.

    ``values`` maps the id of every value computed so far to the value, in
    the order the values were first read; each access builds it anew.
    ``max_ic`` is ``full_max()``, by default one kernel pass over every
    row, which stores no value; of the measures only batet reads it.
    :func:`ic_table` passes the taxonomy's memo.  ``formulas`` keeps, per
    measure, the scoring function that passed the measure's checks on this
    table; a failed check stores nothing.
    """

    def __init__(self, model: ICModelId, taxonomy: Taxonomy, kernel: Kernel,
                 normalized: bool = False, config: ICConfig = ICConfig(), *,
                 full_max: Callable[[], float] | None = None):
        self.model = model
        self.normalized = normalized
        self.config = config
        self.by_row = _Memo(kernel)
        self.formulas: dict = {}
        self._taxonomy = taxonomy
        self._full_max = full_max or (lambda: max(map(kernel, range(len(taxonomy)))))
        self._max_ic: float | None = None

    def __getitem__(self, synset_id: SynsetId) -> float:
        return self.by_row[self._taxonomy._row_of(synset_id)]

    @property
    def values(self) -> Mapping[SynsetId, float]:
        ids = self._taxonomy.ids
        return MappingProxyType({ids[r]: v for r, v in self.by_row.copy().items()})

    @property
    def max_ic(self) -> float:
        if self._max_ic is None:
            self._max_ic = self._full_max()
        return self._max_ic

    @property
    def bounded(self) -> bool:
        return self.model in BOUNDED_MODELS or self.normalized


def _zero(r: int) -> float:
    return 0.0


def _seco(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Hyponym-count ratio: 1 - log(hypo+1)/log(node_max)."""
    log_n = log(t.constants.node_max)
    hypo_count = t.columns.hypo_count

    def seco(r: int) -> float:
        return 1.0 - log(hypo_count[r] + 1) / log_n
    return seco


def _zhou(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Weighted blend of the hyponym ratio and a relative depth term.

    The depth term uses depth+1 over deep_max+1 so the root contributes 0.
    """
    log_n = log(t.constants.node_max)
    log_deep = log(t.constants.deep_max + 1)
    k = cfg.zhou_k
    k_depth = 1.0 - k
    c = t.columns
    hypo_count, depth = c.hypo_count, c.depth

    def zhou(r: int) -> float:
        hypo_part = 1.0 - log(hypo_count[r] + 1) / log_n
        depth_part = log(depth[r] + 1) / log_deep
        return k * hypo_part + k_depth * depth_part
    return zhou


def _sanchez2011(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Leaves-per-subsumer ratio: -log_b((leaves/subsumers + 1)/(leaves_max + 1))."""
    denominator = t.constants.leaves_max + 1.0
    base = cfg.log_base_absolute
    leaf_self = cfg.leaf_self
    c = t.columns
    leaf_count, hypo_count, subsumer_count = c.leaf_count, c.hypo_count, c.subsumer_count

    def sanchez2011(r: int) -> float:
        leaves = leaf_count[r]
        if leaf_self and hypo_count[r] == 0:
            leaves = 1
        ratio = (leaves / subsumer_count[r] + 1.0) / denominator
        return -log(ratio, base) + 0.0  # avoid -0.0 at the root
    return sanchez2011


def _commonness2012(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Commonness ratio against the root.

    commonness of a leaf is 1/subsumer_count(leaf); of an inner node, the
    sum of its leaf descendants' commonness.
    """
    c = t.columns
    subsumer_count, hypo_count, leaf_commonness = (
        c.subsumer_count, c.hypo_count, c.leaf_commonness)
    total = leaf_commonness[t.row[t.root]]  # the root is no leaf once node_max > 1
    base = cfg.log_base_absolute

    def commonness2012(r: int) -> float:
        own = 1.0 / subsumer_count[r] if hypo_count[r] == 0 else leaf_commonness[r]
        return -log(own / total, base) + 0.0  # avoid -0.0 at the root
    return commonness2012


def _meng(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Depth ratio damped by the depth-weighted hyponym mass.

    Both factors are plain log ratios of the 0-based depth; nodes at depth
    1 therefore score 0, and the root is 0 by definition.
    """
    log_n = log(t.constants.node_max)
    deep_max = t.constants.deep_max
    log_deep = None if deep_max <= 1 else log(deep_max)
    c = t.columns
    depth, inv_depth_sum = c.depth, c.inv_depth_sum

    def meng(r: int) -> float:
        d = depth[r]
        if d == 0:
            return 0.0
        depth_part = 1.0 if log_deep is None else log(d) / log_deep
        hypo_part = 1.0 - log(inv_depth_sum[r] + 1.0) / log_n
        return depth_part * hypo_part
    return meng


def _qingbo(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Three-factor model: f_depth*(1 - f_leaves) + f_hypernyms.

    Unbounded; the sum of the two terms can exceed 1.  The depth factor
    uses depth+1 over deep_max+1 so the root contributes 0.
    """
    log_n = log(t.constants.node_max)
    log_deep = log(t.constants.deep_max + 1)
    log_leaves = log(t.constants.leaves_max + 1)
    c = t.columns
    depth, leaf_count, subsumer_count = c.depth, c.leaf_count, c.subsumer_count

    def qingbo(r: int) -> float:
        f_depth = log(depth[r] + 1) / log_deep
        f_leaves = log(leaf_count[r] + 1) / log_leaves
        f_hypernyms = log(subsumer_count[r]) / log_n  # subsumers minus self, plus one
        return f_depth * (1.0 - f_leaves) + f_hypernyms
    return qingbo


def _proposed(t: Taxonomy, cfg: ICConfig) -> Kernel:
    """Depth ratio shaped by a leaf/multi-inheritance penalty and hyponym mass.

    Three factors, each in [0, 1]:
      F1  log(depth+1)/log(deep_max+1)
      F2  1 - log_b((leaf_count*nmih/leaves_max)/subsumers + 1)
      F3  1 - log(inv_depth_sum + 1)/log(node_max)
    F2's argument stays below 1 because leaf_count <= leaves_max and
    nmih < subsumers, so F2 stays in [0, 1] exactly when log_b 2 <= 1.
    """
    base = cfg.log_base_absolute
    if base < 2.0:
        raise UnboundedIC(f"proposed IC needs a log base of at least 2, got {base}")
    log_n = log(t.constants.node_max)
    log_deep = log(t.constants.deep_max + 1)
    leaves_max = t.constants.leaves_max
    c = t.columns
    depth, leaf_count, nmih = c.depth, c.leaf_count, c.nmih
    subsumer_count, inv_depth_sum = c.subsumer_count, c.inv_depth_sum

    def proposed(r: int) -> float:
        f1 = log(depth[r] + 1) / log_deep
        penalty = (leaf_count[r] * nmih[r] / leaves_max) / subsumer_count[r]
        f2 = 1.0 - log(penalty + 1.0, base)
        f3 = 1.0 - log(inv_depth_sum[r] + 1.0) / log_n
        return f1 * f2 * f3
    return proposed


_KERNELS: dict[ICModelId, Callable[[Taxonomy, ICConfig], Kernel]] = {
    ICModelId.SECO: _seco,
    ICModelId.ZHOU: _zhou,
    ICModelId.SANCHEZ2011: _sanchez2011,
    ICModelId.COMMONNESS2012: _commonness2012,
    ICModelId.MENG: _meng,
    ICModelId.QINGBO: _qingbo,
    ICModelId.PROPOSED: _proposed,
}


def _kernel(t: Taxonomy, model: ICModelId, cfg: ICConfig) -> Kernel:
    """The model's kernel with its per-taxonomy constants resolved.

    A single-node taxonomy is all root, so every model gives it 0; the
    factory still runs, so its checks on ``cfg`` hold for every taxonomy.
    """
    kernel = _KERNELS[model](t, cfg)
    return _zero if t.constants.node_max == 1 else kernel


def ic_table(t: Taxonomy, model: ICModelId, cfg: ICConfig = ICConfig()) -> ICTable:
    """The model's IC table over ``t``, optionally rescaled into [0, 1].

    The checks on ``cfg`` run here; every value is computed when it is
    first read.  The kernel's maximum, which ``normalize_unbounded`` needs
    for an unbounded model, is one full pass per taxonomy, model and config,
    kept in the taxonomy.  An all-zero unbounded table counts as normalized
    as it is.
    """
    model = ICModelId(model)
    kernel = _kernel(t, model, cfg)

    def raw_max() -> float:
        if (model, cfg) not in t._max_ic:
            t._max_ic[model, cfg] = max(map(kernel, t.row.values()))
        return t._max_ic[model, cfg]

    normalized = cfg.normalize_unbounded and model not in BOUNDED_MODELS
    top = raw_max() if normalized else 0.0
    if top > 0.0:  # the largest value is then top / top
        return ICTable(model, t, lambda r: kernel(r) / top, True, cfg,
                       full_max=lambda: top / top)
    return ICTable(model, t, kernel, normalized, cfg, full_max=raw_max)
