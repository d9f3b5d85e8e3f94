"""Structure, statistics and invariants of the frozen taxonomy."""

import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from semsim.errors import CycleDetected, DamagedTaxonomy, EmptyGraph, UnknownSynset
from semsim.taxonomy import (RawGraph, SYNTHETIC_ROOT, Taxonomy, TaxonomyConstants,
                             _read_snapshot, _write_snapshot, freeze)

from conftest import brute_closure, build, children_of, random_taxonomy, raw_dags


class TestFreeze:
    def test_chain_constants(self, chain):
        c = chain.constants
        assert (c.node_max, c.deep_max, c.leaves_max) == (3, 2, 1)
        assert chain.root == "r"

    def test_single_node(self):
        t = build({"only": []})
        c = t.constants
        assert (c.node_max, c.deep_max, c.leaves_max) == (1, 0, 1)
        assert t.root == "only"

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected) as err:
            build({"a": ["b"], "b": ["a"]})
        assert set(err.value.cycle) >= {"a", "b"}

    def test_cycle_below_valid_root(self):
        with pytest.raises(CycleDetected):
            build({"r": [], "a": ["r", "b"], "b": ["a"]})

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            freeze(RawGraph(parents={}))

    def test_multi_root_gets_synthetic_root(self):
        t = build({"a": [], "b": [], "c": ["a", "b"]})
        assert t.root == SYNTHETIC_ROOT
        assert t.constants.node_max == 4
        assert t.depth("a") == 1 and t.depth("c") == 2

    def test_pinned_root_adopts_orphans(self):
        raw = RawGraph(parents={"a": [], "b": [], "c": ["a"]}, pinned_root="a")
        t = freeze(raw)
        assert t.root == "a"
        assert t.nodes["b"].parents == ("a",)
        assert raw.parents == {"a": [], "b": [], "c": ["a"]}  # the input is left as it was

    @pytest.mark.parametrize("parents", [["r", "r"], ("r", "r"), ("r", "q", "r")])
    def test_a_parent_listed_twice_counts_once(self, parents):
        t = freeze(RawGraph(parents={"r": [], "q": ["r"], "a": parents}))
        once = freeze(RawGraph(parents={"r": [], "q": ["r"], "a": sorted(set(parents))}))
        assert t.nodes["a"].parents == once.nodes["a"].parents
        assert t.stats["a"].nmih == len(set(parents)) < t.stats["a"].subsumer_count
        assert t.columns == once.columns

    def test_pinned_root_with_parents_rejected(self):
        raw = RawGraph(parents={"a": [], "b": ["a"]}, pinned_root="b")
        with pytest.raises(ValueError):
            freeze(raw)

    def test_unknown_parent_rejected(self):
        with pytest.raises(UnknownSynset):
            build({"a": ["ghost"]})

    def test_structure_is_frozen(self, chain):
        with pytest.raises(TypeError):
            chain.nodes["zzz"] = None
        with pytest.raises(AttributeError):
            chain.stats["a"].depth = 99


class TestQueries:
    def test_subsumers_of_root_is_self(self, chain):
        assert chain.subsumers("r") == {"r"}

    def test_subsumers_chain(self, chain):
        assert chain.subsumers("b") == {"b", "a", "r"}

    def test_subsumers_diamond(self, diamond):
        assert diamond.subsumers("l") == {"l", "p1", "p2", "r"}
        assert diamond.stats["l"].subsumer_count == 4

    def test_hyponyms_of_leaf_empty(self, chain):
        assert chain.stats["b"].hypo_count == 0

    def test_hyponyms_chain(self, chain):
        assert [chain.stats[n].hypo_count for n in ("r", "a")] == [2, 1]

    def test_leaves_of_leaf_empty(self, chain):
        assert chain.stats["b"].leaf_count == 0

    def test_leaves_chain(self, chain):
        assert [chain.stats[n].leaf_count for n in ("r", "a")] == [1, 1]

    def test_depth_root_zero(self, chain):
        assert chain.depth("r") == 0

    def test_depth_is_minimum_distance(self):
        # parents of x sit at depths 1 and 2; min path wins
        t = build({"r": [], "p1": ["r"], "mid": ["r"], "p2": ["mid"],
                   "x": ["p1", "p2"]})
        assert t.depth("x") == 2

    def test_depth_mode_max(self):
        t = build({"r": [], "p1": ["r"], "mid": ["r"], "p2": ["mid"],
                   "x": ["p1", "p2"]}, depth_mode="max")
        assert t.depth("x") == 3

    @pytest.mark.parametrize("op", ["subsumers", "depth"])
    def test_unknown_synset(self, chain, op):
        with pytest.raises(UnknownSynset):
            getattr(chain, op)("missing")


def path_lengths(t):
    """The length of every upward path from each node to the root."""
    lengths = {t.root: {0}}

    def of(node):
        if node not in lengths:
            lengths[node] = {k + 1 for p in t.nodes[node].parents for k in of(p)}
        return lengths[node]
    return {node: of(node) for node in t.nodes}


def brute_stats(t, node, depth):
    """Recompute one node's statistics from adjacency alone, given each
    node's ``depth``."""
    ancestors = brute_closure(t, node, "parents")
    descendants = brute_closure(t, node, "children")
    children = children_of(t)
    by_depth = {}
    by_subs = {}
    leaves_n = 0
    for a in descendants:
        d = depth[a]
        by_depth[d] = by_depth.get(d, 0) + 1
        if not children[a]:
            leaves_n += 1
            sc = len(brute_closure(t, a, "parents")) + 1
            by_subs[sc] = by_subs.get(sc, 0) + 1
    return {
        "hypo_count": len(descendants),
        "leaf_count": leaves_n,
        "subsumer_count": len(ancestors) + 1,
        "nmih": len(t.nodes[node].parents),
        "inv_depth_sum": sum(n / d for d, n in sorted(by_depth.items())),
        "leaf_commonness": sum(n / s for s, n in sorted(by_subs.items())),
    }


class TestRandomDagProperties:
    def test_closures_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(30):
            t = random_taxonomy(rng)
            for node in t.nodes:
                assert t.subsumers(node) == brute_closure(t, node, "parents") | {node}

    @settings(max_examples=150, deadline=None)
    @given(raw_dags())
    def test_cached_stats_match_recomputation(self, drawn):
        raw, _ = drawn
        for depth_mode in ("min", "max"):
            t = freeze(raw, depth_mode=depth_mode)
            lengths = path_lengths(t)
            shortest = {node: min(ks) for node, ks in lengths.items()}
            longest = {node: max(ks) for node, ks in lengths.items()}
            depth = longest if depth_mode == "max" else shortest
            for node in t.nodes:
                s = t.stats[node]
                b = brute_stats(t, node, depth)
                assert (s.depth, s.depth_longest) == (depth[node], longest[node])
                assert s.hypo_count == b["hypo_count"]
                assert s.leaf_count == b["leaf_count"]
                assert s.subsumer_count == b["subsumer_count"]
                assert s.nmih == b["nmih"]
                assert s.inv_depth_sum == b["inv_depth_sum"]
                assert s.leaf_commonness == b["leaf_commonness"]

    def test_refreezing_from_adjacency_is_idempotent(self):
        rng = random.Random(13)
        for _ in range(20):
            t = random_taxonomy(rng)
            rebuilt = freeze(RawGraph(
                parents={n: list(t.nodes[n].parents) for n in t.nodes}))
            assert rebuilt.stats == dict(t.stats)
            assert rebuilt.constants == t.constants

    def test_parent_child_edges_are_mutual(self):
        rng = random.Random(17)
        for _ in range(20):
            t = random_taxonomy(rng)
            children = children_of(t)
            for node, syn in t.nodes.items():
                assert list(syn.parents) == sorted(set(syn.parents))
                assert node not in syn.parents  # no self-loops
                assert t.stats[node].nmih == len(syn.parents)
                assert (t.stats[node].hypo_count == 0) == (not children[node])

    def test_edge_invariants(self):
        rng = random.Random(19)
        for _ in range(20):
            t = random_taxonomy(rng)
            for node, syn in t.nodes.items():
                subs = t.subsumers(node)
                for p in syn.parents:
                    assert t.depth(node) <= t.depth(p) + 1
                    assert subs >= t.subsumers(p)
                    assert t.stats[p].hypo_count > t.stats[node].hypo_count
                assert t.stats[node].subsumer_count >= 1
                assert (t.stats[node].leaf_count == 0) == (t.stats[node].hypo_count == 0)
                if node != t.root:
                    assert t.stats[node].nmih < t.stats[node].subsumer_count
                else:
                    assert t.stats[node].nmih == 0

    @settings(max_examples=150, deadline=None)
    @given(raw_dags())
    def test_root_and_constants_follow_from_the_raw_graph(self, drawn):
        raw, _ = drawn
        parents = {node: list(ps) for node, ps in raw.parents.items()}
        orphans = [node for node, ps in parents.items() if not ps]
        if len(orphans) > 1:
            parents[SYNTHETIC_ROOT] = []
            for node in orphans:
                parents[node] = [SYNTHETIC_ROOT]
        [root] = [node for node, ps in parents.items() if not ps]
        n_leaves = len(parents.keys() - {p for ps in parents.values() for p in ps})
        for depth_mode, pick in (("min", min), ("max", max)):
            depth = {}

            def of(node):
                if node not in depth:
                    depth[node] = pick([of(p) + 1 for p in parents[node]], default=0)
                return depth[node]
            deep_max = max(map(of, parents))
            t = freeze(raw, depth_mode=depth_mode)
            assert (t.root, t.constants) == (
                root, TaxonomyConstants(len(parents), deep_max, n_leaves))

    @settings(max_examples=150, deadline=None)
    @given(raw_dags(), st.randoms(use_true_random=False))
    def test_freeze_ignores_the_order_of_its_input(self, drawn, rnd):
        raw, depth_mode = drawn
        items = [(n, rnd.sample(ps, len(ps))) for n, ps in raw.parents.items()]
        rnd.shuffle(items)
        t = freeze(raw, depth_mode=depth_mode)
        shuffled = freeze(RawGraph(parents=dict(items)), depth_mode=depth_mode)
        assert (shuffled.root, shuffled.constants) == (t.root, t.constants)
        for view in ("nodes", "stats", "word_index"):
            assert {k: repr(v) for k, v in getattr(shuffled, view).items()} == \
                {k: repr(v) for k, v in getattr(t, view).items()}

    @settings(max_examples=150, deadline=None)
    @given(raw_dags())
    def test_max_depth_is_never_shallower_and_equal_on_trees(self, drawn):
        raw, _ = drawn
        shallow, deep = freeze(raw), freeze(raw, depth_mode="max")
        for node in shallow.nodes:
            assert deep.depth(node) >= shallow.depth(node)
        # keep one parent per node: a tree, where every path is the only one
        tree = RawGraph(parents={node: ps[:1] for node, ps in raw.parents.items()})
        shallow, deep = freeze(tree), freeze(tree, depth_mode="max")
        assert dict(deep.stats) == dict(shallow.stats)
        assert deep.constants == shallow.constants

    @given(raw_dags(), st.data())
    def test_a_cycle_is_named_along_its_parent_edges(self, drawn, data):
        parents = {node: list(ps) for node, ps in drawn[0].parents.items()}
        below = {node: {node} for node in parents}  # a node and its descendants
        for node in reversed(list(parents)):  # raw_dags lists parents first
            for p in parents[node]:
                below[p] |= below[node]
        node = data.draw(st.sampled_from(sorted(parents)))
        parents[node].append(data.draw(st.sampled_from(sorted(below[node])),
                                       label="back edge or self-loop"))
        if not data.draw(st.booleans(), label="leave parentless nodes"):
            for ps in parents.values():
                if not ps:
                    ps.append(data.draw(st.sampled_from(sorted(parents))))
        with pytest.raises(CycleDetected) as err:
            freeze(RawGraph(parents=parents), depth_mode=drawn[1])
        cycle = err.value.cycle
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert set(cycle) <= set(parents)
        assert all(p in parents[c] for c, p in zip(cycle, cycle[1:]))

    def test_insertion_order_does_not_matter(self):
        rng = random.Random(23)
        for _ in range(10):
            t = random_taxonomy(rng)
            items = [(n, list(t.nodes[n].parents)) for n in t.nodes]
            rng.shuffle(items)
            shuffled = freeze(RawGraph(parents=dict(items)))
            assert shuffled.stats == dict(t.stats)
            assert shuffled.constants == t.constants
            for node in t.nodes:
                assert shuffled.subsumers(node) == t.subsumers(node)


def toy_parts():
    """The parts of a three-node taxonomy; word "y" has two senses."""
    t = freeze(RawGraph(parents={"r": [], "a": ["r"], "b": ["r", "a"]}),
               word_index={"x": ["a"], "y": ["b", "r"]})
    return dict(ids=t.ids, row=t.row, lemmas=t.lemmas, words=t.words, columns=t.columns)


def with_column(name, *values):
    """A change to parts that replaces column ``name`` with ``values``."""
    return lambda p: dict(p, columns=p["columns"]._replace(**{name: array("l", values)}))


# Changes to toy_parts() after which the parts no longer fit together.  The
# Taxonomy constructor trusts its parts, so only the snapshot reader checks.
MISFITS = {
    "duplicate id": lambda p: dict(p, ids=("r", "a", "r")),
    "duplicate word": lambda p: dict(p, words=("x", "x")),
    "lemmas short of offsets": lambda p: dict(p, lemmas=p["lemmas"][:-1]),
    "row past the last node": with_column("sense_rows", 0, 1, 3),
    "negative row": with_column("sense_rows", 0, -1, 1),
    "one sense offset short": with_column("sense_start", 0, 3),
    "offsets past the flat list": with_column("parent_start", 0, 0, 1, 4),
    "short stats column": with_column("depth", 0, 1),
    "no parentless row": with_column("nmih", 1, 1, 2),
    "two parentless rows": with_column("nmih", 0, 0, 2),
}


def write_parts(path, parts, fingerprint):
    """Write ``parts`` to ``path`` with the snapshot writer."""
    _write_snapshot(str(path), SimpleNamespace(**parts), fingerprint)


class TestColumns:
    def test_parts_build_the_same_taxonomy(self):
        t = Taxonomy(**toy_parts())
        assert list(t.nodes) == ["r", "a", "b"] and t.nodes["b"].parents == ("a", "r")
        assert t.stats["r"].hypo_count == 2 and t.senses("y") == ("b", "r")
        assert (t.root, t.constants) == ("r", TaxonomyConstants(3, 1, 1))

    @pytest.mark.parametrize("name", MISFITS)
    def test_columns_that_do_not_fit_are_rejected(self, tmp_path, name):
        path = tmp_path / "snapshot"
        write_parts(path, toy_parts(), "fingerprint")
        assert _read_snapshot(path, "fingerprint").senses("y") == ("b", "r")
        write_parts(path, MISFITS[name](toy_parts()), "fingerprint")
        assert _read_snapshot(path, "fingerprint") is None

    @pytest.mark.parametrize("change, messages", [
        (with_column("parent_rows", 1, 1, 0),  # a's parent is a itself
         {"a": "a reaches a parent cycle", "b": "b reaches a parent cycle"}),
        (lambda p: with_column("parent_rows", 1, 0)(with_column("parent_start", 0, 0, 0, 2)(p)),
         {node: "a has no parents but is not the root" for node in ("a", "b")}),
    ], ids=["parent cycle", "second root"])
    def test_walk_over_damaged_parents_raises(self, change, messages):
        # parts a crafted snapshot can hold: the reader does not check that
        # the parents form a DAG with one root, the subsumer walk does
        t = Taxonomy(**change(toy_parts()))
        for node, message in messages.items():
            with pytest.raises(DamagedTaxonomy, match=f"^{message}$"):
                t.subsumer_rows(t.row[node])
