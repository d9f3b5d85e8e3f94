import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from semsim.taxonomy import RawGraph, Taxonomy, freeze
from semsim.wordnet import parse_wordnet

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DATA = REPO / "data"

WORDNET_CANDIDATES = (
    "/root/wordnet",
    os.path.expanduser("~/wordnet"),
    os.path.expanduser("~/nltk_data/corpora/wordnet"),
    "/usr/share/wordnet",
    "/usr/local/share/wordnet",
)


def find_wordnet_dir():
    env = os.environ.get("SEMSIM_WORDNET_DIR", "").strip()
    candidates = ([env] if env else []) + list(WORDNET_CANDIDATES)
    for d in candidates:
        if d and os.path.isfile(os.path.join(d, "data.noun")) \
                and os.path.isfile(os.path.join(d, "index.noun")):
            return d
    return None


def require_wordnet():
    d = find_wordnet_dir()
    if d is None:
        pytest.skip("WordNet 3.0 noun database not found; set SEMSIM_WORDNET_DIR")
    return d


@pytest.fixture(scope="session")
def wordnet_dir():
    return require_wordnet()


@pytest.fixture(scope="session")
def wn(wordnet_dir) -> Taxonomy:
    raw, word_index = parse_wordnet(wordnet_dir)
    return freeze(raw, word_index=word_index)


def build(parents, **kwargs) -> Taxonomy:
    """Freeze a small taxonomy from a {node: [parents]} mapping."""
    return freeze(RawGraph(parents={n: list(ps) for n, ps in parents.items()}), **kwargs)


@pytest.fixture
def chain() -> Taxonomy:
    # r -> a -> b
    return build({"r": [], "a": ["r"], "b": ["a"]})


@pytest.fixture
def diamond() -> Taxonomy:
    # r -> {p1, p2}, both over l
    return build({"r": [], "p1": ["r"], "p2": ["r"], "l": ["p1", "p2"]})


@st.composite
def raw_dags(draw, max_nodes=25):
    """A random DAG as ``(RawGraph, depth_mode)``: node i points at up to
    three earlier nodes, so extra parentless nodes exercise freeze's
    synthetic root."""
    n = draw(st.integers(1, max_nodes))
    parents = {"n00": []}
    for i in range(1, n):
        earlier = [f"n{j:02d}" for j in range(i)]
        parents[f"n{i:02d}"] = draw(st.lists(st.sampled_from(earlier), max_size=3,
                                             unique=True))
    return RawGraph(parents=parents), draw(st.sampled_from(["min", "max"]))


def dags(max_nodes=25):
    """A random DAG from :func:`raw_dags`, frozen in its drawn depth mode."""
    return raw_dags(max_nodes).map(lambda drawn: freeze(drawn[0], depth_mode=drawn[1]))


def word_indexes(ids):
    """A word index over ``ids``: up to six words, each with one to three
    distinct senses in drawn order."""
    # mostly findable words, plus separators other than "\n" and non-ASCII
    words = st.text(st.sampled_from("ab_\u00e9 A\r\x85\u2028"), min_size=1, max_size=4)
    return st.dictionaries(words, st.lists(st.sampled_from(sorted(ids)), min_size=1,
                                           max_size=3, unique=True).map(tuple), max_size=6)


def random_raw_graph(rng: random.Random, max_nodes: int = 50,
                     max_parents: int = 3) -> RawGraph:
    """Random DAG: node i may only point at earlier nodes, so acyclic by
    construction; parentless nodes beyond the first exercise the synthetic
    root path in freeze."""
    n = rng.randint(1, max_nodes)
    parents = {"n00": []}
    for i in range(1, n):
        node = f"n{i:02d}"
        k = rng.randint(0, min(max_parents, i))
        parents[node] = rng.sample([f"n{j:02d}" for j in range(i)], k)
    return RawGraph(parents=parents)


def random_taxonomy(rng: random.Random, max_nodes: int = 50,
                    max_parents: int = 3) -> Taxonomy:
    return freeze(random_raw_graph(rng, max_nodes, max_parents))


def children_of(t):
    """Each node's children in id order, by inverting ``t.nodes[n].parents``."""
    children = {node: [] for node in t.nodes}
    for node in sorted(t.nodes):
        for p in t.nodes[node].parents:
            children[p].append(node)
    return {node: tuple(cs) for node, cs in children.items()}


def brute_closure(t, start, direction):
    """Transitive closure by naive fixpoint iteration (independent oracle);
    ``direction`` is "parents" or "children"."""
    step = (children_of(t) if direction == "children"
            else {node: syn.parents for node, syn in t.nodes.items()})
    acc = set()
    frontier = {start}
    while frontier:
        nxt = set()
        for node in frontier:
            for other in step[node]:
                if other not in acc:
                    acc.add(other)
                    nxt.add(other)
        frontier = nxt
    return acc


HEADER = "  1 crafted miniature database for tests  \n  2 not a real license  \n"


def data_line(offset, lemmas, pointers, offsets):
    words = " ".join(f"{w} 0" for w in lemmas)
    ptrs = "".join(f" {sym} {offsets[i]} {pos} 0000" for sym, i, pos in pointers)
    return f"{offset} 03 n {len(lemmas):02x} {words} {len(pointers):03d}{ptrs} | crafted gloss  \n"


def write_wordnet(tmp_path, synsets, index_rows=None, break_offsets=False):
    """Render synsets with self-consistent byte offsets (two passes).

    synsets: list of (lemmas, pointers) with pointers as (symbol, target_index, pos).
    """
    offsets = ["00000000"] * len(synsets)
    for _ in range(2):  # offsets are fixed width, second pass stabilizes
        text = HEADER
        positions = []
        for (lemmas, pointers), off in zip(synsets, offsets):
            positions.append(len(text.encode("utf-8")))
            text += data_line(off, lemmas, pointers, offsets)
        offsets = [f"{p:08d}" for p in positions]
    if break_offsets:
        offsets = [f"{int(o) + 1:08d}" for o in offsets]
        text = HEADER + "".join(
            data_line(off, lemmas, pointers, offsets)
            for (lemmas, pointers), off in zip(synsets, offsets))
    (tmp_path / "data.noun").write_text(text, encoding="utf-8")

    if index_rows is None:
        index_rows = []
        for i, (lemmas, _) in enumerate(synsets):
            for w in lemmas:
                index_rows.append((w.lower(), [i]))
    lines = HEADER
    for lemma, sense_indexes in index_rows:
        offs = " ".join(offsets[i] for i in sense_indexes)
        n = len(sense_indexes)
        lines += f"{lemma} n {n} 1 @ {n} 0 {offs}  \n"
    (tmp_path / "index.noun").write_text(lines, encoding="utf-8")
    return offsets
