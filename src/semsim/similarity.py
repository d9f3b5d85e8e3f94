"""IC-based similarity measures over sense pairs, and word lookup.

All operations are reads over a frozen taxonomy and an IC table, whose
lazy fills are idempotent, so unbounded concurrent callers are safe.  A
score fills only the IC of the two senses and of nodes that subsume both.

There is one sense-pair path, over taxonomy rows: ``_sense_pairs`` lists
a word pair's sense pairs in sense order, each with its common-subsumer
rows and its LCS candidates, and one call of ``_scorer`` returns the
values of such a list, through ``_formula``, which holds the measures and
their checks.  Five measures are closed forms of IC(a), IC(b) and the IC
of the least common subsumer (LCS); only ``proposed`` needs the disjoint
common subsumers (DCS).  The scorer's memo for a list keeps its DCS rows
and, per table and LCS rule, its IC(a), IC(b) and IC(LCS) lists; a word
call's memo is its own, and a pair plan in :mod:`semsim.bench` keeps one
for every combo.  Ids appear only at the API edge.  Two conventions:

* The LCS rule picks one IC from the pair's common-subsumer set, which is
  never empty because the root subsumes every node.  ``"max_depth"``
  (the default) takes the IC of the deepest common subsumer, where depth
  means the longest path from the root (ties resolved by taking the
  larger IC); ``"max_ic"`` takes the maximum IC over the whole set.  The
  two disagree on multiple inheritance when an IC model is not monotone
  along ancestor chains.
* The DCS of a pair are the hyponym-minimal elements of its
  common-subsumer set: the members that have no other common subsumer
  below them.  A sweep in descending depth order would need every node
  to come before its ancestors, which a minimum-distance depth does not
  guarantee on a DAG, so membership is decided by a direct test.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .errors import BatetUndefined, DegenerateTable, UnboundedIC, UnknownWord
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
_MEASURE_OF = {m.value: m for m in SimMeasureId}  # a member hashes and compares as its value


def _measure(measure) -> SimMeasureId:  # SimMeasureId(measure) in one lookup
    try:
        return _MEASURE_OF[measure]
    except (KeyError, TypeError):
        return SimMeasureId(measure)


def _dcs_rows(t: Taxonomy, common: frozenset[int]) -> tuple[int, ...]:
    """The hyponym-minimal rows of a common-subsumer set, deepest first,
    ties by id.  The set holds every ancestor of its members, so a member
    has another below it exactly when it is some member's parent."""
    start, parents = t.columns.parent_start, t.columns.parent_rows
    above: set[int] = set()
    for y in common:
        above.update(parents[start[y]:start[y + 1]])
    return tuple(sorted(common - above, key=lambda r: (-t.columns.depth[r], t.ids[r])))


def dcs(t: Taxonomy, a: SynsetId, b: SynsetId) -> tuple[SynsetId, ...]:
    """Hyponym-minimal common subsumers of the pair, deepest first, ties by
    id.  Members are pairwise unrelated, and there is at least one."""
    common = t.subsumer_rows(t._row_of(a)) & t.subsumer_rows(t._row_of(b))
    return tuple([t.ids[r] for r in _dcs_rows(t, common)])


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


def _formula(ic: ICTable, measure: SimMeasureId) -> Callable:
    """The measure as a function of IC(a), IC(b) and IC(lcs), with its checks
    on the table done; for proposed, of IC(a), IC(b) and the IC of each DCS
    member.  Raises ``UnboundedIC`` for the proposed measure on an unbounded
    table and ``DegenerateTable`` for batet on a table whose maximum is 0.
    Batet itself raises ``BatetUndefined`` where IC(LCS) > (IC(a) + IC(b) + 1) / 2.
    """
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
            ratio = (ia + ib - 2.0 * lcs + 1.0) / (2.0 * max_ic)
            if ratio <= 0.0:
                raise BatetUndefined(f"IC(LCS) {lcs!r} exceeds (IC(a) + IC(b) + 1) / 2"
                                     f" = {(ia + ib + 1.0) / 2.0!r}")
            return -math.log(ratio, base)
        return batet
    if not ic.bounded:
        raise UnboundedIC(f"{ic.model} values exceed [0, 1]; normalize the table first")

    def proposed(ia: float, ib: float, members: list[float]) -> float:
        # mean over the DCS members d of IC(d)/(IC(a)+1) + IC(d)/(IC(b)+1)
        ia1 = ia + 1.0
        ib1 = ib + 1.0
        total = 0.0
        for d in members:
            total += d / ia1 + d / ib1
        return total / len(members)
    return proposed


def _sense_pairs(t: Taxonomy, rows1, rows2) -> list[tuple]:
    """Each pair of a row of ``rows1`` and one of ``rows2``, in sense order,
    as ``(a, b, common subsumer rows, max_depth LCS candidates)``: the
    candidates are the common subsumers of greatest longest-path depth."""
    subsumers, depth_longest = t.subsumer_rows, t.columns.depth_longest
    pairs = []
    for a in rows1:
        above_a = subsumers(a)
        for b in rows2:
            common = above_a & subsumers(b)
            deepest, candidates = -1, []  # a plain loop: the sets hold a few rows
            for c in common:
                if depth_longest[c] > deepest:
                    deepest, candidates = depth_longest[c], [c]
                elif depth_longest[c] == deepest:
                    candidates.append(c)
            pairs.append((a, b, common, candidates))
    return pairs


def _scorer(t: Taxonomy, ic: ICTable, measure: SimMeasureId, lcs_mode: str,
            pairs: list[tuple], memo: dict) -> list[float]:
    """The measure on each of a list of :func:`_sense_pairs`, in order, after
    the checks; ``ic`` keeps :func:`_formula`'s result and ``memo`` the pairs'
    DCS rows (``"dcs"``) and IC(a), IC(b), IC(LCS) lists (``(ic, lcs_mode)``)."""
    if lcs_mode not in _LCS_MODES:
        raise ValueError(f"lcs_mode must be 'max_depth' or 'max_ic', got {lcs_mode!r}")
    formula = ic.formulas.get(measure) or ic.formulas.setdefault(measure, _formula(ic, measure))
    by_row = ic.by_row
    ic_of = by_row.__getitem__
    if measure is SimMeasureId.PROPOSED:
        if "dcs" not in memo:
            memo["dcs"] = [_dcs_rows(t, common) for _, _, common, _ in pairs]
        return [formula(by_row[a], by_row[b], list(map(ic_of, members)))
                for (a, b, _, _), members in zip(pairs, memo["dcs"])]
    key = ic, lcs_mode
    triples = memo.get(key)
    if triples is None:
        ia, ib, il = triples = memo[key] = [], [], []
        by_depth = lcs_mode == "max_depth"
        for a, b, common, candidates in pairs:  # reads a, b, then the LCS candidates
            ia.append(by_row[a])
            ib.append(by_row[b])
            il.append(max(map(ic_of, candidates if by_depth else common)))
    try:
        return list(map(formula, *triples))
    except BatetUndefined:
        for (a, b, _, _), *ics in zip(pairs, *triples):  # name the first pair that fails
            try:
                formula(*ics)
            except BatetUndefined as exc:
                raise BatetUndefined(f"batet is undefined for {t.ids[a]} x {t.ids[b]}: {exc}"
                                     ) from None
        raise


def pair_similarity(t: Taxonomy, ic: ICTable, measure: SimMeasureId,
                    a: SynsetId, b: SynsetId, lcs_mode: str = "max_depth") -> float:
    """The measure on one sense pair, under the LCS rule ``lcs_mode``.
    As with words, an unknown id (``UnknownSynset``) comes before the
    checks on the table and the LCS rule."""
    measure = _measure(measure)
    pairs = _sense_pairs(t, (t._row_of(a),), (t._row_of(b),))
    return _scorer(t, ic, measure, lcs_mode, pairs, {})[0]


def _word_scores(t: Taxonomy, ic: ICTable, measure, word1: str, word2: str, lcs_mode: str):
    """The sense pairs of two words and the measure on each."""
    measure = _measure(measure)
    rows1, rows2 = t.sense_rows(word1), t.sense_rows(word2)
    if not (rows1 and rows2):
        raise UnknownWord(word2 if rows1 else word1)
    pairs = _sense_pairs(t, rows1, rows2)
    return pairs, _scorer(t, ic, measure, lcs_mode, pairs, {})


def word_similarity(t: Taxonomy, ic: ICTable, measure: SimMeasureId,
                    word1: str, word2: str, lcs_mode: str = "max_depth") -> float:
    """Maximum of the measure over the cross product of the words' senses."""
    return max(_word_scores(t, ic, measure, word1, word2, lcs_mode)[1])


def word_similarity_detail(
        t: Taxonomy, ic: ICTable, measure: SimMeasureId, word1: str, word2: str,
        lcs_mode: str = "max_depth") -> tuple[float, tuple[SynsetId, SynsetId]]:
    """Word similarity plus the sense pair attaining the maximum.

    Raises ``UnknownWord`` naming the first word without any noun sense.
    Ties keep the earliest pair in sense order, so results do not depend
    on dictionary hash order.
    """
    pairs, values = _word_scores(t, ic, measure, word1, word2, lcs_mode)
    best = values.index(max(values))  # the first of equal maxima
    return values[best], (t.ids[pairs[best][0]], t.ids[pairs[best][1]])
