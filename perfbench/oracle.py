"""Reference values computed from the generator's own graph.

Nothing here imports ``semsim``: depths, ancestor sets, the per-node sums,
the seven IC formulas, the least-common-subsumer rule, the disjoint common
subsumers and the correlations are worked out again from the
:class:`corpus.Corpus` that the benchmark wrote, by the plainest method
that gives the definition (BFS, brute force, ``statistics.correlation``).
"""

from __future__ import annotations

import math
import statistics
from collections import deque

BOUNDED = frozenset({"seco", "zhou", "meng", "proposed"})
MODELS = ("seco", "zhou", "sanchez2011", "commonness2012", "meng", "qingbo", "proposed")
MEASURES = ("resnik", "lin", "jiang_conrath", "faith", "batet", "proposed")
LOG_BASE = 10.0
ZHOU_K = 0.5


class Oracle:
    """Per-node statistics of a generated corpus plus the measures over them."""

    def __init__(self, corpus):
        self.c = corpus
        n = len(corpus)
        parents, children = corpus.parents, corpus.children
        self.n = n

        # minimum depth by BFS from the root, longest depth by index order
        # (every parent has a lower index than its children)
        depth = [-1] * n
        depth[0] = 0
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for ch in children[x]:
                if depth[ch] < 0:
                    depth[ch] = depth[x] + 1
                    queue.append(ch)
        longest = [0] * n
        for x in range(1, n):
            longest[x] = 1 + max(longest[p] for p in parents[x])
        self.depth, self.longest = depth, longest

        # strict ancestors by BFS; every ancestor collects its descendant sums
        subsumers = [0] * n
        hypo = [0] * n
        leaf = [0] * n
        inv_depth = [0.0] * n
        commonness = [0.0] * n
        for x in range(n):
            anc = self._strict_ancestors(x)
            subsumers[x] = len(anc) + 1
            is_leaf = not children[x]
            inv = 1.0 / depth[x] if x else 0.0
            common = 1.0 / subsumers[x]
            for a in anc:
                hypo[a] += 1
                inv_depth[a] += inv
                if is_leaf:
                    leaf[a] += 1
                    commonness[a] += common
        self.subsumers, self.hypo, self.leaf = subsumers, hypo, leaf
        self.inv_depth, self.commonness = inv_depth, commonness
        self.deep_max = max(depth)
        self.leaves_max = sum(1 for x in range(n) if not children[x])
        self._ancestors: dict[int, frozenset[int]] = {}
        self._tables: dict[str, list[float]] = {}
        self._max: dict[str, float] = {}
        self.id_of = {sid: x for x, sid in enumerate(corpus.synset_ids)}

    def _strict_ancestors(self, x: int) -> set[int]:
        seen: set[int] = set()
        queue = deque(self.c.parents[x])
        while queue:
            p = queue.popleft()
            if p not in seen:
                seen.add(p)
                queue.extend(self.c.parents[p])
        return seen

    def ancestors(self, x: int) -> frozenset[int]:
        """Ancestor set including the node itself."""
        got = self._ancestors.get(x)
        if got is None:
            got = frozenset(self._strict_ancestors(x) | {x})
            self._ancestors[x] = got
        return got

    # ---- the seven IC models ------------------------------------------------

    def ic(self, model: str, x: int) -> float:
        n = self.n
        d = self.depth[x]
        if model == "seco":
            return 1.0 - math.log(self.hypo[x] + 1) / math.log(n)
        if model == "zhou":
            hypo_part = 1.0 - math.log(self.hypo[x] + 1) / math.log(n)
            depth_part = math.log(d + 1) / math.log(self.deep_max + 1)
            return ZHOU_K * hypo_part + (1.0 - ZHOU_K) * depth_part
        if model == "sanchez2011":
            ratio = (self.leaf[x] / self.subsumers[x] + 1.0) / (self.leaves_max + 1.0)
            return -math.log(ratio, LOG_BASE) + 0.0
        if model == "commonness2012":
            def common(y):
                return self.commonness[y] if self.hypo[y] else 1.0 / self.subsumers[y]
            return -math.log(common(x) / common(0), LOG_BASE) + 0.0
        if model == "meng":
            if d == 0:
                return 0.0
            depth_part = math.log(d) / math.log(self.deep_max)
            return depth_part * (1.0 - math.log(self.inv_depth[x] + 1.0) / math.log(n))
        if model == "qingbo":
            f_depth = math.log(d + 1) / math.log(self.deep_max + 1)
            f_leaves = math.log(self.leaf[x] + 1) / math.log(self.leaves_max + 1)
            return f_depth * (1.0 - f_leaves) + math.log(self.subsumers[x]) / math.log(n)
        if model == "proposed":
            f1 = math.log(d + 1) / math.log(self.deep_max + 1)
            penalty = (self.leaf[x] * len(self.c.parents[x]) / self.leaves_max) / self.subsumers[x]
            f2 = 1.0 - math.log(penalty + 1.0, LOG_BASE)
            f3 = 1.0 - math.log(self.inv_depth[x] + 1.0) / math.log(n)
            return f1 * f2 * f3
        raise ValueError(f"unknown model {model!r}")

    def table(self, model: str) -> list[float]:
        got = self._tables.get(model)
        if got is None:
            got = [self.ic(model, x) for x in range(self.n)]
            self._tables[model] = got
            self._max[model] = max(got)
        return got

    # ---- subsumers and measures ---------------------------------------------

    def lcs(self, model: str, a: int, b: int) -> float:
        """IC of the deepest common subsumer by longest path, ties by larger IC."""
        cs = self.ancestors(a) & self.ancestors(b)
        ic = self.table(model)
        deepest = max(self.longest[x] for x in cs)
        return max(ic[x] for x in cs if self.longest[x] == deepest)

    def dcs(self, a: int, b: int) -> list[int]:
        """Common subsumers that subsume no other common subsumer, deepest first."""
        cs = self.ancestors(a) & self.ancestors(b)
        kept = [x for x in cs
                if not any(y != x and x in self.ancestors(y) for y in cs)]
        ids = self.c.synset_ids
        return sorted(kept, key=lambda x: (-self.depth[x], ids[x]))

    def pair(self, model: str, measure: str, a: int, b: int) -> float:
        ic = self.table(model)
        ia, ib = ic[a], ic[b]
        if measure == "proposed":
            members = self.dcs(a, b)
            return sum(ic[d] / (ia + 1.0) + ic[d] / (ib + 1.0) for d in members) / len(members)
        shared = self.lcs(model, a, b)
        if measure == "resnik":
            return shared
        if measure == "lin":
            return 0.0 if ia + ib <= 0.0 else 2.0 * shared / (ia + ib)
        if measure == "jiang_conrath":
            return 1.0 - (ia + ib - 2.0 * shared) / 2.0
        if measure == "faith":
            denom = ia + ib - shared
            return 0.0 if denom <= 0.0 else shared / denom
        if measure == "batet":
            return -math.log((ia + ib - 2.0 * shared + 1.0) / (2.0 * self._max[model]), LOG_BASE)
        raise ValueError(f"unknown measure {measure!r}")

    def senses(self, word: str) -> tuple[int, ...]:
        return self.c.index.get(word.lower().replace(" ", "_"), ())

    def word(self, model: str, measure: str, w1: str, w2: str):
        """(best score, best sense pair) over the sense cross product, or None
        when a word is unknown; ties keep the earliest pair in sense order."""
        s1, s2 = self.senses(w1), self.senses(w2)
        if not s1 or not s2:
            return None
        best, best_pair = -math.inf, (s1[0], s2[0])
        for a in s1:
            for b in s2:
                v = self.pair(model, measure, a, b)
                if v > best:
                    best, best_pair = v, (a, b)
        return best, best_pair

    def evaluate(self, pairs, model: str, measure: str):
        """(n_used, Pearson r) of a dataset given as (w1, w2, human) rows."""
        machine, human = [], []
        for w1, w2, h in pairs:
            got = self.word(model, measure, w1, w2)
            if got is not None:
                machine.append(got[0])
                human.append(h)
        return len(machine), statistics.correlation(machine, human)

