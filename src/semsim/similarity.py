"""IC-based similarity measures, common-subsumer machinery and word lookup.

All operations are reads over a frozen taxonomy and an IC table, whose
lazy fills are idempotent, so unbounded concurrent callers are safe.  A
score fills only the IC of the two senses and of nodes that subsume both.

``word_similarity`` is the per-pair path, through one pair kernel built
per call by ``_pair_kernel``.  The kernel and dataset scoring in
:mod:`semsim.bench` take their checks on the measure, the table and the
LCS rule, and their formulas, from ``_formula``.  Five measures are closed
forms of IC(a), IC(b) and the IC of the least common subsumer (LCS); only
``proposed`` needs the disjoint common subsumers.  Two conventions
deserve a note:

* The LCS rule picks one IC from the pair's common-subsumer set, which is
  never empty because the root subsumes every node.  ``"max_depth"``
  (the default) takes the IC of the deepest common subsumer, where depth
  means the longest path from the root (ties resolved by taking the
  larger IC); ``"max_ic"`` takes the maximum IC over the whole set.  The
  two disagree on multiple inheritance when an IC model is not monotone
  along ancestor chains.
* The disjoint common subsumers of a pair are the hyponym-minimal
  elements of its common-subsumer set: the members that have no other
  common subsumer below them.  A greedy sweep in descending depth order
  computes the same set only if every node is visited before all of its
  ancestors, which a minimum-distance depth does not guarantee on a DAG
  (an ancestor reached by a long path can sort deeper than its
  descendant), so membership is decided by the direct incomparability
  test rather than by sweep order.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .errors import DegenerateTable, UnboundedIC, UnknownWord
from .ic import ICTable
from .taxonomy import SynsetId, Taxonomy


class SimMeasureId(str, Enum):
    RESNIK = "resnik"
    LIN = "lin"
    JIANG_CONRATH = "jiang_conrath"
    FAITH = "faith"
    BATET = "batet"
    PROPOSED = "proposed"

    def __str__(self) -> str:
        return self.value


_LCS_MODES = ("max_depth", "max_ic")


def dcs(t: Taxonomy, a: SynsetId, b: SynsetId) -> tuple[SynsetId, ...]:
    """Hyponym-minimal common subsumers of the pair, deepest first.

    Every strict ancestor of a common subsumer is itself a common
    subsumer, so the minimal elements are exactly the suspects that are
    nobody's ancestor within the suspect set.  Members are pairwise
    unrelated by the hyponym relation, and there is at least one.
    """
    suspects = t.subsumers(a) & t.subsumers(b)
    ancestors_of_suspects: set[SynsetId] = set()
    for y in suspects:
        ancestors_of_suspects |= t.subsumers(y) - {y}
    kept = suspects - ancestors_of_suspects
    depth, row = t.columns.depth, t.row
    return tuple(sorted(kept, key=lambda c: (-depth[row[c]], c)))


# Four closed-form measures, as functions of IC(a), IC(b) and IC(lcs).
# Jiang-Conrath maps the IC distance linearly onto 1 - distance/2, which
# lands in [0, 1] for a bounded table.  Batet, which also needs the table
# maximum, is built in _formula.
_FORMULAS: dict[SimMeasureId, Callable[[float, float, float], float]] = {
    SimMeasureId.RESNIK: lambda ia, ib, lcs: lcs,
    SimMeasureId.LIN: lambda ia, ib, lcs:
        0.0 if ia + ib <= 0.0 else 2.0 * lcs / (ia + ib),
    SimMeasureId.JIANG_CONRATH: lambda ia, ib, lcs: 1.0 - (ia + ib - 2.0 * lcs) / 2.0,
    SimMeasureId.FAITH: lambda ia, ib, lcs:
        0.0 if ia + ib - lcs <= 0.0 else lcs / (ia + ib - lcs),
}


def _formula(t: Taxonomy, ic: ICTable, measure: SimMeasureId, lcs_mode: str) -> Callable:
    """The measure as a function of IC(a), IC(b) and IC(lcs), with its checks
    done; for proposed, a function of the pair and its DCS members, which it
    computes itself when not given them.

    Raises ``ValueError`` for an unknown LCS rule, ``UnboundedIC`` for the
    proposed measure on an unbounded table and ``DegenerateTable`` for
    batet on a table whose maximum is 0.
    """
    if lcs_mode not in _LCS_MODES:
        raise ValueError(f"lcs_mode must be 'max_depth' or 'max_ic', got {lcs_mode!r}")
    formula = _FORMULAS.get(measure)
    if formula is not None:
        return formula
    if measure is SimMeasureId.BATET:
        # log-scales the IC distance against twice the table maximum
        max_ic = ic.max_ic
        if max_ic <= 0.0:
            raise DegenerateTable(f"{ic.model} table has max_ic 0")
        base = ic.config.log_base_absolute

        def batet(ia: float, ib: float, lcs: float) -> float:
            return -math.log((ia + ib - 2.0 * lcs + 1.0) / (2.0 * max_ic), base)
        return batet
    if not ic.bounded:
        raise UnboundedIC(f"{ic.model} values exceed [0, 1]; normalize the table first")

    def proposed(a: SynsetId, b: SynsetId,
                 members: tuple[SynsetId, ...] | None = None) -> float:
        # mean over the DCS members d of IC(d)/(IC(a)+1) + IC(d)/(IC(b)+1)
        if members is None:
            members = dcs(t, a, b)
        ia1 = ic[a] + 1.0
        ib1 = ic[b] + 1.0
        total = 0.0
        for d in members:
            total += ic[d] / ia1 + ic[d] / ib1
        return total / len(members)
    return proposed


def _pair_kernel(t: Taxonomy, ic: ICTable, measure: SimMeasureId,
                 lcs_mode: str) -> Callable[[SynsetId, SynsetId], float]:
    """The measure as a function of one sense pair, with the checks of
    :func:`_formula` done."""
    formula = _formula(t, ic, measure, lcs_mode)
    if measure is SimMeasureId.PROPOSED:
        return formula

    subsumers = t.subsumers
    depth_longest, row = t.columns.depth_longest, t.row
    if lcs_mode == "max_ic":
        def closed_form(a: SynsetId, b: SynsetId) -> float:
            return formula(ic[a], ic[b], max(ic[c] for c in subsumers(a) & subsumers(b)))
        return closed_form

    def closed_form(a: SynsetId, b: SynsetId) -> float:
        cs = subsumers(a) & subsumers(b)
        deepest = max(depth_longest[row[c]] for c in cs)
        lcs = max(ic[c] for c in cs if depth_longest[row[c]] == deepest)
        return formula(ic[a], ic[b], lcs)
    return closed_form


def pair_similarity(t: Taxonomy, ic: ICTable, measure: SimMeasureId,
                    a: SynsetId, b: SynsetId, lcs_mode: str = "max_depth") -> float:
    """The measure on one sense pair, under the LCS rule ``lcs_mode``."""
    return _pair_kernel(t, ic, SimMeasureId(measure), lcs_mode)(a, b)


def word_similarity(t: Taxonomy, ic: ICTable, measure: SimMeasureId,
                    word1: str, word2: str, lcs_mode: str = "max_depth") -> float:
    """Maximum of the measure over the cross product of the words' senses."""
    score, _ = word_similarity_detail(t, ic, measure, word1, word2, lcs_mode)
    return score


def word_similarity_detail(
        t: Taxonomy, ic: ICTable, measure: SimMeasureId, word1: str, word2: str,
        lcs_mode: str = "max_depth") -> tuple[float, tuple[SynsetId, SynsetId]]:
    """Word similarity plus the sense pair attaining the maximum.

    Raises ``UnknownWord`` naming the first word without any noun sense.
    Ties keep the earliest pair in sense order, so results do not depend
    on dictionary hash order.
    """
    measure = SimMeasureId(measure)
    senses1 = t.senses(word1)
    if not senses1:
        raise UnknownWord(word1)
    senses2 = t.senses(word2)
    if not senses2:
        raise UnknownWord(word2)
    kernel = _pair_kernel(t, ic, measure, lcs_mode)
    best = -math.inf
    best_pair = (senses1[0], senses2[0])
    for a in senses1:
        for b in senses2:
            value = kernel(a, b)
            if value > best:
                best = value
                best_pair = (a, b)
    return best, best_pair
