"""Seeded generator of WordNet-shaped noun databases and their linear writer.

The generator builds a hypernym DAG shaped like the WordNet 3.0 noun
taxonomy (82,115 synsets, minimum-distance depth up to 19, about 2% of the
synsets with two parents, instance leaves, polysemous lemmas) and plants
every word of the bundled benchmark files except ``media`` and
``children``, which WordNet 3.0 lacks too.  The graph it returns is what
the oracle works from; the program only ever sees the written files.

The writer renders ``data.noun`` and ``index.noun`` in two linear passes:
offsets are fixed-width, so the first pass measures every line and the
second formats it with the byte offsets the first pass found.  A corpus is
written once per seed and reused by later runs (:func:`load_or_build`).
"""

from __future__ import annotations

import hashlib
import marshal
import os
import random
import shutil
from dataclasses import dataclass

NODE_COUNT = 82_115
# Synsets per minimum-distance depth, shaped like WordNet 3.0's noun
# histogram; the last level is scaled so the total is NODE_COUNT.
LEVEL_SHAPE = (1, 3, 12, 60, 380, 1700, 4800, 9000, 12500, 13300, 12000,
               9400, 6949, 5000, 3300, 2000, 1050, 450, 170, 40)
MEAN_FANOUT = 4.8
MULTI_PARENT_SHARE = 0.02
INSTANCE_SHARE = 0.094
EXTRA_LEMMA_P = 0.43       # geometric number of extra lemmas per synset
REUSE_P = 0.26             # a lemma slot reuses an existing lemma (polysemy)
MERONYM_SHARE = 0.08
MAX_SENSES = 33           # WordNet's most polysemous nouns have about 33
ABSENT_WORDS = frozenset({"media", "children"})

HEADER = ("  1 This synthetic database is shaped like the WordNet 3.0 noun files.  \n"
          "  2 It is generated from a seed and carries no WordNet content.  \n")

_SYLLABLES = ("ba be bi bo bu ca ce co cu da de di do du fa fe fi fo ga ge go gu "
              "ha he hi ho ka ke ki ko la le li lo lu ma me mi mo mu na ne ni no "
              "nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu va "
              "ve vi vo wa we wi za ze zo bar ber cor dan fen gor hal kin lor mar "
              "nor pel ron sal tor val wen").split()
_GLOSS = ("a an the of kind sort form part group thing object person place act "
          "state quality unit piece member body structure used for with having "
          "large small native common formal informal especially").split()


@dataclass
class Corpus:
    """A generated taxonomy plus the files written from it.

    Node ids are indexes in topological order: every parent has a lower
    index than its children, and node 0 is the single root.
    """

    seed: int
    parents: list[tuple[int, ...]]
    children: list[list[int]]
    instance: bytearray
    lemmas: list[tuple[str, ...]]            # data.noun spelling, case kept
    index: dict[str, tuple[int, ...]]        # lowercase lemma -> senses in order
    planted: tuple[str, ...]                 # benchmark words given senses
    synset_ids: list[str] | None = None      # "<offset>-n", set by the writer
    path: str | None = None

    def __len__(self) -> int:
        return len(self.parents)


def _level_sizes() -> list[int]:
    sizes = list(LEVEL_SHAPE)
    sizes[-1] += NODE_COUNT - sum(sizes)
    return sizes


def _fresh_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((2, 2, 3, 3))))
        if rng.random() < 0.2:
            w += "_" + "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((2, 3))))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def read_pairs(path) -> list[tuple[str, str, float]]:
    """Rows of a bundled word1<TAB>word2<TAB>score benchmark file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if len(cells) == 3 and not line.startswith("#"):
                rows.append((cells[0].strip(), cells[1].strip(), float(cells[2])))
    return rows


def benchmark_words(dataset_paths) -> tuple[list[str], list[tuple[str, str, float]]]:
    """Distinct lowercase words and (w1, w2, score/top score) pairs of the files."""
    pairs = []
    for path in dataset_paths:
        rows = read_pairs(path)
        top = max(s for _, _, s in rows)
        pairs += [(a.lower(), b.lower(), s / top) for a, b, s in rows]
    words = sorted({w for a, b, _ in pairs for w in (a, b)})
    return words, pairs


def generate(seed: int, dataset_paths) -> Corpus:
    """Build the seeded taxonomy and its word index (nothing is written)."""
    rng = random.Random(seed)
    sizes = _level_sizes()

    # Tree by levels: a share of each level is fertile and splits the next
    # level between its members by heavy-tailed weights.
    parents: list[tuple[int, ...]] = [()]
    level_of = [0]
    levels = [[0]]
    for d in range(1, len(sizes)):
        above = levels[-1]
        fertile_n = min(len(above), max(1, round(sizes[d] / MEAN_FANOUT)))
        fertile = rng.sample(above, fertile_n)
        weights = [rng.paretovariate(1.2) for _ in fertile]
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc)
        first = len(parents)
        chosen = list(fertile[:sizes[d]])
        chosen += rng.choices(fertile, cum_weights=cum, k=sizes[d] - len(chosen))
        for p in chosen:
            parents.append((p,))
            level_of.append(d)
        levels.append(list(range(first, len(parents))))

    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for c in range(1, n):
        children[parents[c][0]].append(c)
    internal_by_level = [[x for x in lv if children[x]] for lv in levels]

    # A second parent from the level above (mostly) or further up; edges
    # always point to a lower level, so the graph stays acyclic.
    for c in rng.sample(range(1, n), round(MULTI_PARENT_SHARE * n)):
        d = level_of[c]
        if d < 2:
            continue
        up = d - 1 if rng.random() < 0.7 else max(1, d - rng.choice((2, 3)))
        p = rng.choice(internal_by_level[up])
        if p != parents[c][0]:
            parents[c] = (parents[c][0], p)
            children[p].append(c)
    for cs in children:
        cs.sort()

    leaves_deep = [x for x in range(n) if not children[x] and level_of[x] >= 5]
    instance = bytearray(n)
    for x in rng.sample(leaves_deep, round(INSTANCE_SHARE * n)):
        instance[x] = 1

    # Lemmas: mostly fresh words; a reused slot draws from earlier slots, so
    # polysemy is heavy-tailed as in WordNet.
    words, pairs = benchmark_words(dataset_paths)
    planted = [w for w in words if w not in ABSENT_WORDS]
    taken = set(words) | ABSENT_WORDS
    lemma_lists: list[list[str]] = [[] for _ in range(n)]
    slots: list[str] = []
    sense_n: dict[str, int] = {}
    fresh = iter(_fresh_words(rng, 110_000, taken))
    for x in range(n):
        k = 1
        while rng.random() < EXTRA_LEMMA_P and k < 6:
            k += 1
        for _ in range(k):
            w = rng.choice(slots) if slots and rng.random() < REUSE_P else next(fresh)
            if sense_n.get(w, 0) >= MAX_SENSES:
                w = next(fresh)
            if w not in lemma_lists[x]:
                lemma_lists[x].append(w)
                slots.append(w)
                sense_n[w] = sense_n.get(w, 0) + 1

    # Planted benchmark words: a few senses each; highly rated pairs share a
    # synset, middling ones sit under one parent, so correlations are
    # positive as on WordNet.
    deep_nodes = [x for x in range(1, n) if level_of[x] >= 3]
    senses_of: dict[str, list[int]] = {}
    for w in planted:
        k = 1
        while rng.random() < 0.55 and k < 8:
            k += 1
        senses_of[w] = rng.sample(deep_nodes, k)
    for a, b, score in pairs:
        if a not in senses_of or b not in senses_of:
            continue
        anchor = senses_of[a][0]
        if score >= 0.85:
            target = anchor
        elif score >= 0.5:
            sibs = children[parents[anchor][0]]
            target = rng.choice(sibs)
        else:
            continue
        if target not in senses_of[b]:
            senses_of[b].append(target)
    for w, xs in senses_of.items():
        for x in xs:
            if w not in lemma_lists[x]:
                lemma_lists[x].append(w)

    index: dict[str, list[int]] = {}
    lemmas: list[tuple[str, ...]] = []
    for x in range(n):
        shown = []
        for w in lemma_lists[x]:
            index.setdefault(w, []).append(x)
            shown.append(w.capitalize() if instance[x] else w)
        lemmas.append(tuple(shown))
    # sense order within a lemma is seeded, as WordNet orders by frequency
    frozen_index = {}
    for w, xs in index.items():
        if len(xs) > 1:
            rng.shuffle(xs)
        frozen_index[w] = tuple(xs)
    return Corpus(seed=seed, parents=parents, children=children, instance=instance,
                  lemmas=lemmas, index=frozen_index, planted=tuple(planted))


def _render_lines(corpus: Corpus, rng: random.Random, offsets: list[str]) -> list[str]:
    """One data.noun line per synset, pointers rendered with ``offsets``."""
    n = len(corpus)
    meronyms: dict[int, list[tuple[str, int]]] = {}
    for x in rng.sample(range(1, n), round(MERONYM_SHARE * n)):
        y = rng.randrange(1, n)
        if y != x:
            meronyms.setdefault(x, []).append(("%p", y))
            meronyms.setdefault(y, []).append(("#p", x))
    glosses = [" ".join(rng.choice(_GLOSS) for _ in range(rng.randint(1, 4)))
               for _ in range(n)]
    lexfiles = [rng.randint(3, 28) for _ in range(n)]
    inst = corpus.instance
    lines = []
    for x in range(n):
        ptrs = []
        for p in corpus.parents[x]:
            ptrs.append(f"{'@i' if inst[x] else '@'} {offsets[p]} n 0000")
        for c in corpus.children[x]:
            ptrs.append(f"{'~i' if inst[c] else '~'} {offsets[c]} n 0000")
        for sym, y in meronyms.get(x, ()):
            ptrs.append(f"{sym} {offsets[y]} n 0000")
        words = " ".join(f"{w} 0" for w in corpus.lemmas[x])
        lines.append(f"{offsets[x]} {lexfiles[x]:02d} n {len(corpus.lemmas[x]):02x} "
                     f"{words} {len(ptrs):03d} {' '.join(ptrs)} | {glosses[x]}  \n")
    return lines


def _index_lines(corpus: Corpus, offsets: list[str]) -> list[str]:
    lines = []
    for w in sorted(corpus.index):
        xs = corpus.index[w]
        syms = sorted({"@i" if corpus.instance[x] else "@" for x in xs}
                      | ({"~"} if any(corpus.children[x] for x in xs) else set()))
        lines.append(f"{w} n {len(xs)} {len(syms)} {' '.join(syms)} {len(xs)} 0 "
                     f"{' '.join(offsets[x] for x in xs)}  \n")
    return lines


def write(corpus: Corpus, out_dir: str) -> None:
    """Render the corpus into ``out_dir``, linear in the corpus size, and
    record its synset ids on it."""
    n = len(corpus)
    # pass 1: line lengths do not depend on the (fixed-width) offset values
    pos = len(HEADER)
    offsets = []
    for line in _render_lines(corpus, random.Random(corpus.seed + 1), ["00000000"] * n):
        offsets.append(f"{pos:08d}")
        pos += len(line)
    corpus.synset_ids = [o + "-n" for o in offsets]
    corpus.path = out_dir
    # pass 2: the same lines with the real offsets
    lines = _render_lines(corpus, random.Random(corpus.seed + 1), offsets)
    for name, body in (("data.noun", lines), ("index.noun", _index_lines(corpus, offsets))):
        with open(os.path.join(out_dir, name), "w", encoding="ascii", newline="\n") as fh:
            fh.write(HEADER)
            fh.writelines(body)


def _cache_key(seed: int, dataset_paths) -> str:
    digest = hashlib.sha256(f"seed {seed}\n".encode())
    for path in [__file__] + [str(p) for p in dataset_paths]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def load_or_build(seed: int, dataset_paths, out_dir: str) -> Corpus:
    """The corpus of ``seed``, written under ``out_dir``.

    A copy that an earlier run completed for the same seed, benchmark files
    and generator source is reused: its graph is read back from the
    ``graph.marshal`` file the run wrote next to the database files.
    """
    key = _cache_key(seed, dataset_paths)
    try:
        with open(os.path.join(out_dir, "done"), encoding="ascii") as fh:
            if fh.read() == key:
                with open(os.path.join(out_dir, "graph.marshal"), "rb") as gh:
                    fields = marshal.load(gh)
                fields["instance"] = bytearray(fields["instance"])
                return Corpus(**fields, path=out_dir)
    except (OSError, EOFError, ValueError, TypeError):
        pass  # absent or incomplete: build it again
    corpus = generate(seed, dataset_paths)
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write(corpus, tmp)
    fields = {k: getattr(corpus, k) for k in ("seed", "parents", "children", "lemmas",
                                               "index", "planted", "synset_ids")}
    fields["instance"] = bytes(corpus.instance)
    with open(os.path.join(tmp, "graph.marshal"), "wb") as fh:
        marshal.dump(fields, fh)
    with open(os.path.join(tmp, "done"), "w", encoding="ascii") as fh:
        fh.write(key)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    corpus.path = out_dir
    return corpus
