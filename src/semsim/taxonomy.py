"""Immutable hypernym DAG with cached per-node statistics, held in columns.

The taxonomy is built once by :func:`freeze` from a raw parent map and is
read-only afterwards.  All query operations are pure and safe to call from
concurrent threads; results iterate deterministically (ties broken by the
lexicographic order of synset ids).

Depth is the minimum edge distance from the root (``depth_mode="min"``,
the default).  The longest-path depth is always cached separately because
the deepest-common-subsumer rule in the similarity layer depends on it.

Columns.  Each node has a row, its position in ``Taxonomy.ids``, and each
word of the index a position in ``Taxonomy.words``.  Everything else sits
in the flat arrays of :class:`Columns`: the parents and lemmas of a node
and the senses of a word as CSR lists (an offsets array plus one flat
array), and the eight :class:`NodeStats` fields as one array each.
``Taxonomy.row`` maps an id to its row.  The hot paths (the subsumer
walk, the IC kernels, the LCS and DCS rules) read the columns, and the
snapshot that the CLI's ``--cache`` keeps is a dump of them.

Views.  ``nodes``, ``stats`` and ``word_index`` are read-only mappings for
the API edge.  Iterating one, taking its length or testing membership
builds nothing, but each value read is built on the spot: a
:class:`Synset` (two tuples) or a :class:`NodeStats`, so a loop over
all values of ``nodes`` or ``stats`` allocates one object per node.  A
word's sense tuple is the exception: ``word_index`` and
:meth:`Taxonomy.senses` build it on the word's first read and share it
from then on, and :meth:`Taxonomy.sense_rows` keeps its rows alike.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
import zlib
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (CycleDetected, DamagedTaxonomy, EmptyGraph, PinnedRootHasParents,
                     UnknownSynset)

# Synset ids are opaque strings with a total lexicographic order.  WordNet
# ids look like "02958343-n"; toy ontologies use the node label itself.
SynsetId = str

SYNTHETIC_ROOT = "__root__"


@dataclass(frozen=True)
class Synset:
    """One concept node of the taxonomy, as the ``nodes`` view builds it.

    ``parents`` carries plain and instance hypernym edges merged into a
    single DAG, sorted by id.
    """

    id: SynsetId
    lemmas: tuple[str, ...]
    parents: tuple[SynsetId, ...]


@dataclass(frozen=True)
class NodeStats:
    """Cached topological statistics for one node, as the ``stats`` view
    builds it from the columns of the same names.

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

    ``parents`` maps every node id to a sequence of its direct parent ids
    (empty for roots; a parent listed twice counts once).  Every
    referenced parent must itself be a key.
    """

    parents: dict[SynsetId, Sequence[SynsetId]]
    lemmas: dict[SynsetId, tuple[str, ...]] = field(default_factory=dict)
    pinned_root: SynsetId | None = None


class Columns(NamedTuple):
    """The arrays of a frozen taxonomy, in the order a snapshot stores them.

    A CSR list keeps the items of entry ``i`` at
    ``flat[start[i]:start[i + 1]]``.  There are three: the parent rows of
    each node (sorted by id), the lemmas of each node (the flat list is
    ``Taxonomy.lemmas``) and the sense rows of each word (in
    ``Taxonomy.words`` order, senses in index order).  The last eight
    arrays are the :class:`NodeStats` fields by row.  All are ``'l'``
    arrays except the two float sums, which are ``'d'``.
    """

    parent_start: array
    parent_rows: array
    lemma_start: array
    sense_start: array
    sense_rows: array
    depth: array
    depth_longest: array
    hypo_count: array
    leaf_count: array
    subsumer_count: array
    nmih: array
    inv_depth_sum: array
    leaf_commonness: array


STAT_FIELDS = tuple(f.name for f in fields(NodeStats))
TYPECODES = tuple("d" if name in ("inv_depth_sum", "leaf_commonness") else "l"
                  for name in Columns._fields)


# The snapshot file: one JSON header line, then the arrays of Columns as
# raw machine bytes, in their order, then every id, lemma and word,
# newline-joined as UTF-8 (the parsers split lines on newlines, so no
# string holds one).  The header's "sections" holds the item count of each
# array, then the counts of ids and lemmas (the words are the rest) and the
# byte length of the strings; its "crc32" is the zlib.crc32 of everything
# after the header line.  Change the format tag whenever this layout, the
# columns or what freeze stores in them changes, so that a snapshot written
# by another layout is rebuilt instead of served.
SNAPSHOT_FORMAT = b"semsim-taxonomy-5"
_ITEMSIZE = {code: array(code).itemsize for code in sorted(set(TYPECODES))}


def _fixed_header(fingerprint: str) -> dict:
    """The header fields a snapshot must hold to be read on this machine."""
    return {"format": SNAPSHOT_FORMAT.decode(), "fingerprint": fingerprint,
            "byteorder": sys.byteorder, "itemsize": _ITEMSIZE}


def _write_snapshot(path: str, t: Taxonomy, fingerprint: str) -> None:
    """Replace the snapshot at ``path`` in one step, or leave it as it was.

    The snapshot goes to a temporary file beside it, created with mode
    0600, which ``os.replace`` then renames over ``path``, so readers
    never see a partial snapshot.  Writing is best effort: an ``OSError``
    leaves the old file in place.
    """
    strings = "\n".join(chain(t.ids, t.lemmas, t.words)).encode("utf-8")
    crc = 0
    for part in (*t.columns, strings):
        crc = zlib.crc32(part, crc)
    header = {**_fixed_header(fingerprint), "crc32": crc,
              "sections": [len(col) for col in t.columns]
              + [len(t.ids), len(t.lemmas), len(strings)]}
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=os.path.dirname(os.path.abspath(path)))
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines((json.dumps(header).encode("utf-8") + b"\n", *t.columns, strings))
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # already gone after a successful replace
    except OSError:
        pass  # the snapshot is only a cache


def _read_snapshot(path: str, fingerprint: str) -> Taxonomy | None:
    """The taxonomy stored at ``path``, or None for any file that is not a
    whole, undamaged snapshot in this format, under ``fingerprint``, for
    this machine's byte order and item sizes.

    Reading runs no code from the file: the header is JSON, the columns
    are copied into arrays of the layout's typecodes and the strings are
    decoded text.  None means one of: the file cannot be opened or read;
    the header is not JSON, too deep to decode or not an object, or its
    format tag, fingerprint, byte order or item sizes differ; the section
    counts are not one non-negative integer per column plus three, or do
    not add up to the body's length; the body's ``zlib.crc32`` is not the
    header's ``crc32``; the strings are not UTF-8; or the parts do not
    fit: an id or a word repeats, not exactly one row is without parents,
    a CSR list has not one offset per entry plus one, from 0 to the length
    of its flat list, a row index is past the node count, or a statistics
    column has not one entry per node.  So no read of the taxonomy it
    returns can index past a column.  The statistics' values are not
    checked; :meth:`Taxonomy.subsumer_rows` finds a cycle or a second root.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
    except (OSError, ValueError, RecursionError):  # unreadable, not JSON or too deep
        return None
    if not isinstance(header, dict) or any(
            header.get(k) != v for k, v in _fixed_header(fingerprint).items()):
        return None
    sections = header.get("sections")
    n_columns = len(TYPECODES)
    if not (isinstance(sections, list) and len(sections) == n_columns + 3
            and all(type(v) is int and v >= 0 for v in sections)):
        return None
    sizes = [n * _ITEMSIZE[code] for n, code in zip(sections, TYPECODES)]
    if sum(sizes) + sections[-1] != len(body) or header.get("crc32") != zlib.crc32(body):
        return None
    columns = []
    view = memoryview(body)
    pos = 0
    for code, size in zip(TYPECODES, sizes):
        col = array(code)
        col.frombytes(view[pos:pos + size])
        columns.append(col)
        pos += size
    c = Columns(*columns)
    try:
        strings = str(view[pos:], "utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    n_ids, n_lemmas = sections[n_columns:n_columns + 2]
    ids, lemmas, words = (tuple(strings[:n_ids]), tuple(strings[n_ids:n_ids + n_lemmas]),
                          tuple(strings[n_ids + n_lemmas:]))
    n = len(ids)
    lists = ((c.parent_start, len(c.parent_rows), n), (c.lemma_start, len(lemmas), n),
             (c.sense_start, len(c.sense_rows), len(words)))
    for start, total, entries in lists:
        if len(start) != entries + 1 or start[0] != 0 or start[-1] != total:
            return None  # CSR counts do not sum to the length of their flat list
    for rows in (c.parent_rows, c.sense_rows):
        if rows and not (min(rows) >= 0 and max(rows) < n):
            return None  # a row index out of range
    if any(len(getattr(c, name)) != n for name in STAT_FIELDS):
        return None  # a statistics column does not have one entry per node
    if c.nmih.count(0) != 1:
        return None  # not exactly one row without parents
    t = Taxonomy(ids, dict(zip(ids, range(n))), lemmas, words, c)
    if len(t.row) != n or len(t._word_row) != len(words):
        return None  # node ids or words repeat
    return t


class _View(Mapping):
    """Read-only mapping over ``keys``, in their order, whose value for a
    key is built from its row by ``build(key, row)`` when it is read."""

    __slots__ = ("_keys", "_rows", "_build")

    def __init__(self, keys, rows: dict, build: Callable):
        self._keys = keys
        self._rows = rows
        self._build = build

    def __getitem__(self, key):
        return self._build(key, self._rows[key])

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class Taxonomy:
    """Frozen hypernym DAG plus cached stats, constants and word index.

    ``ids`` (one per row), ``lemmas`` (the flat lemma list) and ``words``
    are tuples of strings, ``row`` is the dict from id to row and
    ``columns`` holds the arrays described in :class:`Columns`.  Treat all
    of them as read-only.

    The constructor validates nothing: it trusts its parts to fit
    together, so build a taxonomy with :func:`freeze`.  The snapshot
    reader checks a file's parts before it calls the constructor.  The
    root is the one row without parents, and the constants come from the
    columns: the node count, the greatest depth and the number of rows
    without descendants.
    """

    def __init__(self, ids: tuple[SynsetId, ...], row: dict[SynsetId, int],
                 lemmas: tuple[str, ...], words: tuple[str, ...], columns: Columns):
        self.ids = ids
        self.row = row
        self.lemmas = lemmas
        self.words = words
        self.columns = columns
        self.root: SynsetId = ids[columns.nmih.index(0)]
        self.constants = TaxonomyConstants(node_max=len(ids), deep_max=max(columns.depth),
                                           leaves_max=columns.hypo_count.count(0))
        self._word_row = word_row = dict(zip(words, range(len(words))))
        # memos of pure functions: a fill stores the same value in every thread
        self._senses: dict[str, tuple[SynsetId, ...]] = {}
        self._sense_rows: dict[str, tuple[int, ...]] = {}
        self._subsumer_cache: dict[int, frozenset[int]] = {}
        self._max_ic: dict[tuple, float] = {}  # ic's full kernel pass per (model, config)
        self.nodes: Mapping[SynsetId, Synset] = _View(ids, row, self._synset)
        self.stats: Mapping[SynsetId, NodeStats] = _View(ids, row, self._node_stats)
        self.word_index: Mapping[str, tuple[SynsetId, ...]] = _View(
            words, word_row, self._sense_ids)

    def __contains__(self, synset_id: SynsetId) -> bool:
        return synset_id in self.row

    def __len__(self) -> int:
        return len(self.ids)

    def _row_of(self, synset_id: SynsetId) -> int:
        try:
            return self.row[synset_id]
        except KeyError:
            raise UnknownSynset(synset_id) from None

    def _ids_at(self, start: array, rows: array, i: int) -> tuple[SynsetId, ...]:
        ids = self.ids
        return tuple([ids[r] for r in rows[start[i]:start[i + 1]]])

    def _synset(self, synset_id: SynsetId, r: int) -> Synset:
        c = self.columns
        return Synset(synset_id, self.lemmas[c.lemma_start[r]:c.lemma_start[r + 1]],
                      self._ids_at(c.parent_start, c.parent_rows, r))

    def _node_stats(self, synset_id: SynsetId, r: int) -> NodeStats:
        return NodeStats(*[getattr(self.columns, name)[r] for name in STAT_FIELDS])

    def _sense_ids(self, word: str, w: int) -> tuple[SynsetId, ...]:
        found = self._senses.get(word)
        if found is None:
            c = self.columns
            found = self._senses[word] = self._ids_at(c.sense_start, c.sense_rows, w)
        return found

    def subsumer_rows(self, row: int) -> frozenset[int]:
        """Ancestor rows of a row, the row itself included, kept once built.

        A set is the union of the parents' sets and the row, built parents
        first, so that the kept sets share their int objects.  A parent
        cycle (over a DAG the walk pushes each parent link at most once) or
        a parentless row besides the root raises ``DamagedTaxonomy``.
        """
        cache = self._subsumer_cache
        found = cache.get(row)
        if found is not None:
            return found
        start, parents = self.columns.parent_start, self.columns.parent_rows
        stack = [row]
        while stack:
            r = stack[-1]
            ps = parents[start[r]:start[r + 1]]
            todo = [p for p in ps if p not in cache]
            if todo:
                stack += todo
                if len(stack) > len(parents) + 1:
                    raise DamagedTaxonomy(f"{self.ids[row]} reaches a parent cycle")
            elif not ps and self.ids[r] != self.root:
                raise DamagedTaxonomy(f"{self.ids[r]} has no parents but is not the root")
            else:
                cache[stack.pop()] = frozenset([r]).union(*[cache[p] for p in ps])
        return cache[row]

    def subsumers(self, synset_id: SynsetId) -> frozenset[SynsetId]:
        """Ancestor set of the node, the node itself included."""
        ids = self.ids
        return frozenset([ids[r] for r in self.subsumer_rows(self._row_of(synset_id))])

    def depth(self, synset_id: SynsetId) -> int:
        """Minimum edge distance from the root (0 for the root)."""
        return self.columns.depth[self._row_of(synset_id)]

    def senses(self, word: str) -> tuple[SynsetId, ...]:
        """Noun senses of a word; case-insensitive, spaces map to underscores."""
        key = word.lower().replace(" ", "_")
        w = self._word_row.get(key)
        return () if w is None else self._sense_ids(key, w)

    def sense_rows(self, word: str) -> tuple[int, ...]:
        """Rows of the word's :meth:`senses`, read from the sense CSR on the
        word's first read and kept."""
        key = word.lower().replace(" ", "_")
        found = self._sense_rows.get(key)
        if found is None and key in self._word_row:
            start, w = self.columns.sense_start, self._word_row[key]
            found = self._sense_rows[key] = tuple(self.columns.sense_rows[start[w]:start[w + 1]])
        return found or ()


def _offsets(lists) -> array:
    """CSR offsets of a sequence of lists."""
    return array("l", accumulate(map(len, lists), initial=0))


def _descendant_sums(ancestors: list[tuple[int, ...]], key: list[int],
                     rows: Iterable[int]) -> tuple[list[int], array]:
    """For every row, how many of ``rows`` descend from it and the sum of
    ``1 / key[d]`` over those descendants ``d``.  Each key's group of rows
    has its ancestors counted at once, and the sums add their terms in
    ascending key order, so they depend on neither set nor row order."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for r in rows:
        groups.setdefault(key[r], []).append(ancestors[r])
    counts, sums = [0] * len(ancestors), [0.0] * len(ancestors)
    for k in sorted(groups):
        for a, c in Counter(chain.from_iterable(groups[k])).items():
            counts[a] += c
            sums[a] += c / k
    return counts, array("d", sums)


def freeze(raw: RawGraph, depth_mode: str = "min",
           word_index: Mapping[str, Iterable[SynsetId]] | None = None) -> Taxonomy:
    """Validate a raw graph and build the immutable taxonomy.

    Multiple parentless nodes are gathered under one synthetic root (or
    under ``raw.pinned_root`` when set) so that every node reaches a single
    root and the root's IC is zero under every model.  Without a
    ``word_index``, each lemma (lowercased) indexes the nodes that carry
    it, in id order.  A parent listed twice counts once.

    After the root is settled every node is a row.  One pass over the rows
    in topological order builds each node's strict ancestors from its
    parents', and every statistic, the descendant counts included, comes
    from that single closure (see :func:`_descendant_sums`).

    Raises ``EmptyGraph`` for zero nodes, ``CycleDetected`` (with one
    offending cycle) when the hypernym edges are not acyclic and
    ``UnknownSynset`` for a parent or a word sense that is not a node,
    ``PinnedRootHasParents`` when the pinned root is not parentless.
    """
    if depth_mode not in ("min", "max"):
        raise ValueError(f"depth_mode must be 'min' or 'max', got {depth_mode!r}")
    if not raw.parents:
        raise EmptyGraph("taxonomy has no nodes")

    parents = dict(raw.parents)  # only the re-parented orphans' entries are replaced
    for p in chain.from_iterable(parents.values()):
        if p not in parents:
            raise UnknownSynset(p)

    pinned = raw.pinned_root
    if pinned is not None and pinned not in parents:
        parents[pinned] = ()
    # with no parentless node at all, the Kahn pass below names a cycle
    orphans = [n for n, ps in parents.items() if not ps]
    if pinned is not None:
        if parents[pinned]:
            raise PinnedRootHasParents(f"pinned root {pinned!r} has parents")
        for n in orphans:
            if n != pinned:
                parents[n] = (pinned,)
    elif len(orphans) > 1:
        parents[SYNTHETIC_ROOT] = ()
        for n in orphans:
            parents[n] = (SYNTHETIC_ROOT,)

    ids = tuple(parents)
    n = len(ids)
    row = dict(zip(ids, range(n)))
    parent_lists = [tuple([row[p] for p in (sorted({*ps}) if len(ps) > 1 else ps)])
                    for ps in parents.values()]
    n_children = [0] * n
    for p in chain.from_iterable(parent_lists):
        n_children[p] += 1

    # Kahn order, children first; a node left out sits on or above a cycle
    pending = n_children[:]
    order = [r for r in range(n) if not pending[r]]
    for r in order:  # the list grows while it is walked
        for p in parent_lists[r]:
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    if len(order) != n:
        # A node left out still waits on a child left out, so a walk along
        # such children returns to a node already on it; the loop reversed
        # lists each node's parent after it.
        child: dict[int, int] = {}
        for r in range(n):
            if pending[r]:
                for p in parent_lists[r]:
                    child.setdefault(p, r)
        walk: dict[int, int] = {}  # row -> its step on the walk
        r = next(iter(child))
        while r not in walk:
            walk[r] = len(walk)
            r = child[r]
        loop = list(walk)[walk[r]:] + [r]
        raise CycleDetected([ids[c] for c in reversed(loop)])
    order.reverse()  # parents first

    # The one closure pass: a node's depths and strict ancestors come from its parents'
    depth_min, depth_longest = [0] * n, [0] * n
    ancestors: list[tuple[int, ...]] = [()] * n
    subsumer_count = [0] * n
    for r in order:
        ps = parent_lists[r]
        if ps:  # all but the root
            depth_min[r] = min([depth_min[p] for p in ps]) + 1
            depth_longest[r] = max([depth_longest[p] for p in ps]) + 1
        ancestors[r] = acc = tuple(set(ps).union(*[ancestors[p] for p in ps]))
        subsumer_count[r] = len(acc) + 1
    depth = depth_longest if depth_mode == "max" else depth_min
    hypo_count, inv_depth_sum = _descendant_sums(ancestors, depth, range(n))
    leaf_count, leaf_commonness = _descendant_sums(
        ancestors, subsumer_count, [r for r in range(n) if not n_children[r]])

    lemma_lists = [tuple(raw.lemmas.get(node, (node,))) for node in ids]
    if word_index is None:
        word_index = {}
        for node in sorted(ids):
            for lemma in lemma_lists[row[node]]:
                word_index.setdefault(lemma.lower(), []).append(node)
    try:
        sense_lists = [tuple([row[s] for s in senses]) for senses in word_index.values()]
    except KeyError as exc:
        raise UnknownSynset(exc.args[0]) from None

    columns = Columns(
        parent_start=_offsets(parent_lists),
        parent_rows=array("l", chain.from_iterable(parent_lists)),
        lemma_start=_offsets(lemma_lists),
        sense_start=_offsets(sense_lists),
        sense_rows=array("l", chain.from_iterable(sense_lists)),
        depth=array("l", depth),
        depth_longest=array("l", depth_longest),
        hypo_count=array("l", hypo_count),
        leaf_count=array("l", leaf_count),
        subsumer_count=array("l", subsumer_count),
        nmih=array("l", map(len, parent_lists)),
        inv_depth_sum=inv_depth_sum,
        leaf_commonness=leaf_commonness,
    )
    return Taxonomy(ids, row, tuple(chain.from_iterable(lemma_lists)), tuple(word_index),
                    columns)

