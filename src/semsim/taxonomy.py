"""Immutable hypernym DAG with cached per-node statistics.

The taxonomy is built once by :func:`freeze` from a raw parent map and is
read-only afterwards.  All query operations are pure and safe to call from
concurrent threads; results iterate deterministically (ties broken by the
lexicographic order of synset ids).

Depth is the minimum edge distance from the root (``depth_mode="min"``,
the default).  The longest-path depth is always cached separately because
the deepest-common-subsumer rule in the similarity layer depends on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CycleDetected, EmptyGraph, UnknownSynset

# Synset ids are opaque strings with a total lexicographic order.  WordNet
# ids look like "02958343-n"; toy ontologies use the node label itself.
SynsetId = str

SYNTHETIC_ROOT = "__root__"


@dataclass(frozen=True)
class Synset:
    """One concept node of the taxonomy.

    ``parents``/``children`` carry plain and instance hypernym edges merged
    into a single DAG; ``is_instance`` marks nodes reachable only through
    instance pointers.
    """

    id: SynsetId
    lemmas: tuple[str, ...]
    parents: tuple[SynsetId, ...]
    children: tuple[SynsetId, ...]
    is_instance: bool = False


@dataclass(frozen=True)
class NodeStats:
    """Cached topological statistics for one node.

    depth            minimum edge distance from the root
    depth_longest    longest-path distance from the root
    hypo_count       number of strict descendants, instance nodes included
    leaf_count       number of leaf descendants (a leaf has no descendants,
                     so its own leaf_count is 0)
    subsumer_count   number of ancestors including the node itself
    nmih             number of direct parents (0 for the root)
    inv_depth_sum    sum of 1/depth(a) over strict descendants a
    leaf_commonness  sum of 1/subsumer_count(l) over leaf descendants l
    """

    depth: int
    depth_longest: int
    hypo_count: int
    leaf_count: int
    subsumer_count: int
    nmih: int
    inv_depth_sum: float
    leaf_commonness: float


@dataclass(frozen=True)
class TaxonomyConstants:
    """Whole-taxonomy constants used by the IC models."""

    node_max: int
    deep_max: int
    leaves_max: int


@dataclass
class RawGraph:
    """Unfrozen node/edge collection accepted by :func:`freeze`.

    ``parents`` maps every node id to its direct parent ids (empty for
    roots).  Every referenced parent must itself be a key.
    """

    parents: dict[SynsetId, list[SynsetId]]
    lemmas: dict[SynsetId, tuple[str, ...]] = field(default_factory=dict)
    instance_ids: frozenset[SynsetId] = frozenset()
    pinned_root: SynsetId | None = None


class Taxonomy:
    """Frozen hypernym DAG plus cached stats, constants and word index."""

    def __init__(self, nodes, root, stats, constants, word_index):
        self.nodes: Mapping[SynsetId, Synset] = MappingProxyType(nodes)
        self.root: SynsetId = root
        self.stats: Mapping[SynsetId, NodeStats] = MappingProxyType(stats)
        self.constants: TaxonomyConstants = constants
        self.word_index: Mapping[str, tuple[SynsetId, ...]] = MappingProxyType(word_index)
        self._subsumer_cache: dict[SynsetId, frozenset[SynsetId]] = {}

    def __contains__(self, synset_id: SynsetId) -> bool:
        return synset_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    # mapping proxies cannot be pickled; snapshot as plain dicts
    def __getstate__(self):
        return {"nodes": dict(self.nodes), "root": self.root,
                "stats": dict(self.stats), "constants": self.constants,
                "word_index": dict(self.word_index)}

    def __setstate__(self, state):
        self.__init__(state["nodes"], state["root"], state["stats"],
                      state["constants"], state["word_index"])

    def _require(self, synset_id: SynsetId) -> Synset:
        try:
            return self.nodes[synset_id]
        except KeyError:
            raise UnknownSynset(synset_id) from None

    def subsumers(self, synset_id: SynsetId) -> frozenset[SynsetId]:
        """Ancestor set of the node, the node itself included."""
        self._require(synset_id)
        cached = self._subsumer_cache.get(synset_id)
        if cached is not None:
            return cached
        seen = {synset_id}
        queue = deque((synset_id,))
        while queue:
            for parent in self.nodes[queue.popleft()].parents:
                if parent not in seen:
                    seen.add(parent)
                    queue.append(parent)
        result = frozenset(seen)
        self._subsumer_cache[synset_id] = result
        return result

    def depth(self, synset_id: SynsetId) -> int:
        """Minimum edge distance from the root (0 for the root)."""
        self._require(synset_id)
        return self.stats[synset_id].depth

    def senses(self, word: str) -> tuple[SynsetId, ...]:
        """Noun senses of a word; case-insensitive, spaces map to underscores."""
        return self.word_index.get(word.lower().replace(" ", "_"), ())


def freeze(raw: RawGraph, depth_mode: str = "min",
           word_index: Mapping[str, Iterable[SynsetId]] | None = None) -> Taxonomy:
    """Validate a raw graph and build the immutable taxonomy.

    Multiple parentless nodes are gathered under one synthetic root (or
    under ``raw.pinned_root`` when set) so that every node reaches a single
    root and the root's IC is zero under every model.

    Raises ``EmptyGraph`` for zero nodes and ``CycleDetected`` (with one
    offending cycle) when the hypernym edges are not acyclic.
    """
    if depth_mode not in ("min", "max"):
        raise ValueError(f"depth_mode must be 'min' or 'max', got {depth_mode!r}")
    if not raw.parents:
        raise EmptyGraph("taxonomy has no nodes")

    parents = {node: list(ps) for node, ps in raw.parents.items()}
    for node, ps in parents.items():
        for p in ps:
            if p not in parents:
                raise UnknownSynset(p)

    pinned = raw.pinned_root
    if pinned is not None and pinned not in parents:
        parents[pinned] = []
    orphans = sorted(n for n, ps in parents.items() if not ps)
    if pinned is not None:
        if parents[pinned]:
            raise ValueError(f"pinned root {pinned!r} has parents")
        for n in orphans:
            if n != pinned:
                parents[n] = [pinned]
        root = pinned
    elif len(orphans) == 1:
        root = orphans[0]
    elif len(orphans) > 1:
        parents[SYNTHETIC_ROOT] = []
        for n in orphans:
            parents[n] = [SYNTHETIC_ROOT]
        root = SYNTHETIC_ROOT
    else:
        # no parentless node: every node sits on a cycle
        raise CycleDetected(_find_cycle(parents))

    children: dict[SynsetId, list[SynsetId]] = {n: [] for n in parents}
    for node in sorted(parents):
        for p in parents[node]:
            children[p].append(node)

    # reverse-topological order (children before parents) via Kahn
    pending = {n: len(children[n]) for n in parents}
    queue = deque(sorted(n for n, d in pending.items() if d == 0))
    order: list[SynsetId] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for p in parents[node]:
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    if len(order) != len(parents):
        raise CycleDetected(_find_cycle(parents, skip=set(order)))

    depth_min = {root: 0}
    bfs = deque((root,))
    while bfs:
        node = bfs.popleft()
        for c in children[node]:
            if c not in depth_min:
                depth_min[c] = depth_min[node] + 1
                bfs.append(c)

    depth_longest: dict[SynsetId, int] = {}
    for node in reversed(order):  # parents before children
        depth_longest[node] = max((depth_longest[p] for p in parents[node]), default=-1) + 1

    depth = depth_longest if depth_mode == "max" else depth_min

    # Single transient closure pass per direction; the sets are discarded
    # after the counts are extracted (queries recompute them on demand).
    subsumer_count: dict[SynsetId, int] = {}
    ancestors: dict[SynsetId, frozenset[SynsetId]] = {}
    for node in reversed(order):
        acc: set[SynsetId] = set()
        for p in parents[node]:
            acc.add(p)
            acc |= ancestors[p]
        ancestors[node] = frozenset(acc)
        subsumer_count[node] = len(acc) + 1
    del ancestors

    hypo_count: dict[SynsetId, int] = {}
    leaf_count: dict[SynsetId, int] = {}
    inv_depth_sum: dict[SynsetId, float] = {}
    leaf_commonness: dict[SynsetId, float] = {}
    descendants: dict[SynsetId, frozenset[SynsetId]] = {}
    for node in order:
        acc = set()
        for c in children[node]:
            acc.add(c)
            acc |= descendants[c]
        descendants[node] = frozenset(acc)
        hypo_count[node] = len(acc)
        # bucket the reciprocal sums by integer value so the float result
        # is independent of set iteration order (reproducible bit for bit)
        leaves_n = 0
        by_depth: dict[int, int] = {}
        by_subs: dict[int, int] = {}
        for a in acc:
            by_depth[depth[a]] = by_depth.get(depth[a], 0) + 1
            if not children[a]:
                leaves_n += 1
                sc = subsumer_count[a]
                by_subs[sc] = by_subs.get(sc, 0) + 1
        leaf_count[node] = leaves_n
        inv_depth_sum[node] = sum(n / d for d, n in sorted(by_depth.items()))
        leaf_commonness[node] = sum(n / s for s, n in sorted(by_subs.items()))
    del descendants

    stats = {
        node: NodeStats(
            depth=depth[node],
            depth_longest=depth_longest[node],
            hypo_count=hypo_count[node],
            leaf_count=leaf_count[node],
            subsumer_count=subsumer_count[node],
            nmih=len(parents[node]),
            inv_depth_sum=inv_depth_sum[node],
            leaf_commonness=leaf_commonness[node],
        )
        for node in parents
    }
    constants = TaxonomyConstants(
        node_max=len(parents),
        deep_max=max(depth.values()),
        leaves_max=sum(1 for n in parents if not children[n]),
    )

    nodes = {}
    for node in parents:
        lem = tuple(raw.lemmas.get(node, (node,)))
        nodes[node] = Synset(
            id=node,
            lemmas=lem,
            parents=tuple(sorted(parents[node])),
            children=tuple(sorted(children[node])),
            is_instance=node in raw.instance_ids,
        )

    if word_index is None:
        built: dict[str, list[SynsetId]] = {}
        for node in sorted(nodes):
            for lemma in nodes[node].lemmas:
                built.setdefault(lemma.lower(), []).append(node)
        index = {w: tuple(ids) for w, ids in built.items()}
    else:
        index = {w: tuple(ids) for w, ids in word_index.items()}

    return Taxonomy(nodes, root, stats, constants, index)


def _find_cycle(parents: Mapping[SynsetId, list[SynsetId]],
                skip: set[SynsetId] | None = None) -> list[SynsetId]:
    """DFS over parent edges among not-yet-ordered nodes; returns one cycle."""
    banned = skip or set()
    color = {n: 0 for n in sorted(parents) if n not in banned}  # 0 new, 1 on path, 2 done
    for start in list(color):
        if color[start]:
            continue
        color[start] = 1
        path = [start]
        stack = [(start, iter([p for p in parents[start] if p in color]))]
        while stack:
            node, edges = stack[-1]
            stepped = False
            for p in edges:
                if color[p] == 1:
                    return path[path.index(p):] + [p]
                if color[p] == 0:
                    color[p] = 1
                    path.append(p)
                    stack.append((p, iter([q for q in parents[p] if q in color])))
                    stepped = True
                    break
            if not stepped:
                color[node] = 2
                path.pop()
                stack.pop()
    raise AssertionError("cycle expected but not found")
