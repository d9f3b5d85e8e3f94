"""Parser tests over crafted miniature database files plus the real DB."""

import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semsim.errors import (DanglingPointer, EmptyGraph, MalformedLine, MissingFile,
                           SemsimError, UnknownSynset)
from semsim.taxonomy import RawGraph, freeze
from semsim.wordnet import parse_edgelist, parse_wordnet, serialize_edgelist, synset_id

from conftest import HEADER, children_of, write_wordnet


CHAIN = [
    (["entity"], [("~", 1, "n")]),
    (["organism", "being"], [("@", 0, "n"), ("~", 2, "n")]),
    (["cell_phone"], [("@", 1, "n")]),
]


class TestDataNoun:
    def test_hypernym_pointer_becomes_edge(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        raw, _ = parse_wordnet(tmp_path)
        assert raw.parents[synset_id(offsets[1])] == (synset_id(offsets[0]),)
        assert raw.parents[synset_id(offsets[0])] == ()
        t = freeze(raw)
        assert t.root == synset_id(offsets[0])
        assert t.depth(synset_id(offsets[2])) == 2

    def test_instance_pointer_becomes_parent(self, tmp_path):
        synsets = [
            (["mountain"], [("~i", 1, "n")]),
            (["everest"], [("@i", 0, "n")]),
        ]
        offsets = write_wordnet(tmp_path, synsets)
        raw, _ = parse_wordnet(tmp_path)
        mountain, everest = synset_id(offsets[0]), synset_id(offsets[1])
        assert raw.parents == {mountain: (), everest: (mountain,)}
        t = freeze(raw)
        assert t.nodes[everest].parents == (mountain,)
        assert children_of(t)[mountain] == (everest,)

    def test_cross_pos_pointers_ignored(self, tmp_path):
        synsets = [
            (["entity"], []),
            (["runner"], [("@", 0, "n"), ("+", 0, "v")]),
        ]
        offsets = write_wordnet(tmp_path, synsets)
        raw, _ = parse_wordnet(tmp_path)
        assert raw.parents[synset_id(offsets[1])] == (synset_id(offsets[0]),)

    def test_missing_index_noun(self, tmp_path):
        write_wordnet(tmp_path, CHAIN)
        (tmp_path / "index.noun").unlink()
        with pytest.raises(MissingFile):
            parse_wordnet(tmp_path)

    def test_malformed_line_reports_position(self, tmp_path):
        write_wordnet(tmp_path, CHAIN)
        text = (tmp_path / "data.noun").read_text()
        broken = text.replace(" 03 n 01 entity 0 ", " 03 n zz entity 0 ", 1)
        (tmp_path / "data.noun").write_text(broken)
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert err.value.line_no == 3  # first line after the 2-line header
        assert err.value.byte_offset is not None

    def test_offset_must_match_byte_position(self, tmp_path):
        write_wordnet(tmp_path, CHAIN, break_offsets=True)
        with pytest.raises(MalformedLine):
            parse_wordnet(tmp_path)

    def test_dangling_pointer(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        text = (tmp_path / "data.noun").read_text()
        broken = text.replace(f"@ {offsets[0]} n", "@ 99999999 n")
        (tmp_path / "data.noun").write_text(broken)
        with pytest.raises(DanglingPointer):
            parse_wordnet(tmp_path)

    def test_asymmetric_hyponym_pointer_warns_not_fatal(self, tmp_path, caplog):
        synsets = [
            (["entity"], [("~", 1, "n")]),
            (["thing"], []),  # no @ back to entity
        ]
        write_wordnet(tmp_path, synsets)
        with caplog.at_level(logging.WARNING, logger="semsim.wordnet"):
            raw, _ = parse_wordnet(tmp_path)
        assert any("lacks a reverse" in r.message for r in caplog.records)
        assert len(raw.parents) == 2

    def test_line_cut_inside_its_pointer_list(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        text = (tmp_path / "data.noun").read_text()
        cut = f"@ {offsets[0]} n 0000 ~"  # the second of two pointers ends early
        line = text.splitlines(keepends=True)[3]
        text = text.replace(line, line[:line.index(cut) + len(cut)] + "\n")
        (tmp_path / "data.noun").write_text(text)
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert (err.value.line_no, err.value.byte_offset) == (4, int(offsets[1]))

    @pytest.mark.parametrize("count", ["002", "000"])
    def test_pointer_count_must_end_at_the_gloss(self, tmp_path, count):
        write_wordnet(tmp_path, [(["entity"], []), (["thing"], [("@", 0, "n")])])
        text = (tmp_path / "data.noun").read_text()
        line = "00000116 03 n 01 thing 0 001 @ 00000068 n 0000 | crafted gloss  \n"
        assert text.endswith(line)
        # "002": the gloss would be read as a second pointer
        (tmp_path / "data.noun").write_text(text.replace(" 001 @", f" {count} @"))
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert (err.value.line_no, err.value.byte_offset) == (4, 116)

    @pytest.mark.parametrize("answer, warns", [("@", True), ("@i", False)])
    def test_instance_hyponym_needs_an_instance_hypernym_back(self, tmp_path, caplog,
                                                             answer, warns):
        write_wordnet(tmp_path, [(["mountain"], [("~i", 1, "n")]),
                                 (["everest"], [(answer, 0, "n")])])
        with caplog.at_level(logging.WARNING, logger="semsim.wordnet"):
            parse_wordnet(tmp_path)
        assert any("lacks a reverse @i" in r.getMessage() for r in caplog.records) == warns
        assert bool(caplog.records) == warns

    def test_malformed_line_comes_before_an_earlier_dangling_pointer(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        text = (tmp_path / "data.noun").read_text()
        text = text.replace(f"~ {offsets[1]} n", "~ 99999999 n", 1)  # line 3
        text = text.replace(" 03 n 01 cell_phone 0 ", " 03 n zz cell_phone 0 ")  # line 5
        (tmp_path / "data.noun").write_text(text)
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert (err.value.line_no, err.value.byte_offset) == (5, int(offsets[2]))

    def test_meronym_and_other_pos_pointers_may_dangle(self, tmp_path):
        synsets = [
            (["entity"], []),
            (["runner"], [("@", 0, "n"), ("%p", 0, "n"), ("#m", 0, "n"), ("+", 0, "v"),
                          ("@", 0, "v"), ("~", 0, "a")]),
        ]
        offsets = write_wordnet(tmp_path, synsets)
        text = (tmp_path / "data.noun").read_text()
        for sym, pos in [("%p", "n"), ("#m", "n"), ("+", "v"), ("@", "v"), ("~", "a")]:
            text = text.replace(f" {sym} {offsets[0]} {pos} ", f" {sym} 99999999 {pos} ")
        (tmp_path / "data.noun").write_text(text)
        raw, _ = parse_wordnet(tmp_path)
        assert raw.parents[synset_id(offsets[1])] == (synset_id(offsets[0]),)

    def test_a_parent_pointed_at_twice_counts_once(self, tmp_path):
        taxonomies = []
        for name, ups in (("once", [("@", 1, "n")]), ("twice", [("@", 1, "n")] * 2)):
            (tmp_path / name).mkdir()
            offsets = write_wordnet(tmp_path / name, CHAIN[:2] + [(["cell_phone"], ups)])
            raw, index = parse_wordnet(tmp_path / name)
            taxonomies.append(freeze(raw, word_index=index))
        once, twice = taxonomies
        phone = synset_id(offsets[2])
        assert twice.stats[phone].nmih == 1
        assert twice.nodes[phone].parents == (synset_id(offsets[1]),)
        assert twice.columns == once.columns
        assert raw.parents[phone] == (synset_id(offsets[1]),) * 2

    def test_a_lemma_on_two_index_lines(self, tmp_path):
        write_wordnet(tmp_path, CHAIN,
                      index_rows=[("car", [1]), ("entity", [0]), ("car", [2])])
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert err.value.line_no == 5  # the second "car" line, after the 2-line header
        assert "'car'" in str(err.value)

    def test_index_sense_count_mismatch(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        bad = HEADER + f"entity n 2 1 @ 2 0 {offsets[0]}  \n"
        (tmp_path / "index.noun").write_text(bad)
        with pytest.raises(MalformedLine):
            parse_wordnet(tmp_path)

    def test_data_noun_not_utf8(self, tmp_path):
        # a Latin-1 lemma keeps the byte length, so the offsets still match
        write_wordnet(tmp_path, CHAIN)
        data = (tmp_path / "data.noun").read_bytes()
        organism = data.index(b"\n", len(HEADER)) + 1  # the second synset line
        (tmp_path / "data.noun").write_bytes(data.replace(b"organism", b"organ\xefsm"))
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert (err.value.line_no, err.value.byte_offset) == (4, organism)
        assert str(err.value).startswith(f"{tmp_path / 'data.noun'}:4 (byte {organism}): "
                                         "not UTF-8")

    def test_index_noun_not_utf8(self, tmp_path):
        write_wordnet(tmp_path, CHAIN)
        index = (tmp_path / "index.noun").read_bytes()
        (tmp_path / "index.noun").write_bytes(index.replace(b"organism", b"organ\xff", 1))
        with pytest.raises(MalformedLine) as err:
            parse_wordnet(tmp_path)
        assert err.value.line_no == 4 and err.value.byte_offset is None
        assert str(err.value).startswith(f"{tmp_path / 'index.noun'}:4: not UTF-8")


# non-numeric, so that a word count off by one makes the pointer count unreadable
LEMMAS = ("bank", "car", "caf\u00e9", "x_ray")
OTHER_POINTERS = (("%p", "n"), ("#m", "n"), ("+", "v"), ("@", "v"), ("~", "a"))


@st.composite
def wordnet_databases(draw):
    """A random noun database as ``write_wordnet`` takes it, plus what the
    reader must give back, by line: ``(synsets, index_rows, parents,
    lemmas, index)``.  Node k of a random DAG (parents before children,
    some nodes with several parents or none) sits on a drawn line, so
    pointers run both ways in the file.  Each hypernym pointer (``@`` or
    ``@i``) has its hyponym pointer back (``~`` or ``~i``), meronym and
    other-POS pointers ride along, and pointers come in drawn order."""
    n = draw(st.integers(1, 10))
    line = draw(st.permutations(range(n)))
    words = [draw(st.lists(st.sampled_from(LEMMAS), min_size=1, max_size=3, unique=True))
             for _ in range(n)]
    pointers = [[] for _ in range(n)]
    for k in range(1, n):
        for p in draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True)):
            up = draw(st.sampled_from(("@", "@i")))
            pointers[k].append((up, p, "n"))
            pointers[p].append(("~" + up[1:], k, "n"))
    for k in range(n):
        for sym, pos in draw(st.lists(st.sampled_from(OTHER_POINTERS), max_size=2)):
            pointers[k].append((sym, draw(st.integers(0, n - 1)), pos))
    synsets, parents = [None] * n, [None] * n
    for k in range(n):
        ps = [(sym, line[t], pos) for sym, t, pos in draw(st.permutations(pointers[k]))]
        synsets[line[k]] = (words[k], ps)
        parents[line[k]] = [t for sym, t, pos in ps if sym in ("@", "@i") and pos == "n"]
    index = {}
    for w in draw(st.permutations(sorted({w for ws in words for w in ws}))):
        index[w] = draw(st.permutations([line[k] for k in range(n) if w in words[k]]))
    return synsets, list(index.items()), parents, [ws for ws, _ in synsets], index


class TestReaderRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(wordnet_databases())
    def test_reader_gives_back_the_drawn_graph(self, db):
        synsets, index_rows, parents, lemmas, index = db
        with tempfile.TemporaryDirectory() as tmp:
            ids = [synset_id(o) for o in write_wordnet(Path(tmp), synsets, index_rows)]
            raw, word_index = parse_wordnet(tmp)
        drawn = RawGraph(parents={ids[i]: [ids[p] for p in ps] for i, ps in enumerate(parents)},
                         lemmas={ids[i]: tuple(ws) for i, ws in enumerate(lemmas)})
        drawn_index = {w: tuple(ids[i] for i in senses) for w, senses in index.items()}
        assert {k: list(v) for k, v in raw.parents.items()} == drawn.parents
        assert (raw.lemmas, word_index) == (drawn.lemmas, drawn_index)
        for mode in ("min", "max"):
            got = freeze(raw, depth_mode=mode, word_index=word_index)
            want = freeze(drawn, depth_mode=mode, word_index=drawn_index)
            assert (got.ids, got.columns, got.lemmas, got.words) == \
                   (want.ids, want.columns, want.lemmas, want.words)

    @settings(max_examples=80, deadline=None)
    @given(wordnet_databases(), st.data())
    def test_a_damaged_line_raises_a_semsim_error(self, db, data):
        synsets, index_rows = db[:2]
        with tempfile.TemporaryDirectory() as tmp:
            write_wordnet(Path(tmp), synsets, index_rows)
            path = Path(tmp) / "data.noun"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            j = HEADER.count("\n") + data.draw(st.integers(0, len(synsets) - 1))
            fields = lines[j].rstrip("\n").split(" ")
            p_at = 4 + 2 * int(fields[3], 16)
            damage = data.draw(st.sampled_from(("cut", "word count", "pointer count")))
            if damage == "cut":  # anywhere before the gloss's "|"
                lines[j] = lines[j][:data.draw(st.integers(1, lines[j].index(" |")))] + "\n"
            elif damage == "word count":
                fields[3] = f"{int(fields[3], 16) + data.draw(st.sampled_from((-1, 1))):02x}"
            else:
                p_cnt = data.draw(st.integers(0, 999).filter(lambda c: c != int(fields[p_at])))
                fields[p_at] = f"{p_cnt:03d}"
            if damage != "cut":
                lines[j] = " ".join(fields) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            with pytest.raises(SemsimError):
                parse_wordnet(tmp)


class TestSenses:
    def test_lookup_and_normalization(self, tmp_path):
        write_wordnet(tmp_path, CHAIN)
        raw, index = parse_wordnet(tmp_path)
        t = freeze(raw, word_index=index)
        assert len(t.senses("organism")) == 1
        assert t.senses("ORGANISM") == t.senses("organism")
        assert t.senses("cell phone") == t.senses("cell_phone")
        assert t.senses("zzzz-not-a-word") == ()

    def test_sense_tuple_is_built_once(self, tmp_path):
        offsets = write_wordnet(tmp_path, CHAIN)
        raw, index = parse_wordnet(tmp_path)
        t = freeze(raw, word_index=index)
        first = t.senses("Cell phone")
        assert first == (synset_id(offsets[2]),)
        assert t.senses("cell_phone") is first and t.word_index["cell_phone"] is first

    def test_order_follows_index_file(self, tmp_path):
        synsets = [(["entity"], []),
                   (["bank"], [("@", 0, "n")]),
                   (["bank"], [("@", 0, "n")])]
        offsets = write_wordnet(tmp_path, synsets,
                                index_rows=[("entity", [0]), ("bank", [2, 1])])
        raw, index = parse_wordnet(tmp_path)
        t = freeze(raw, word_index=index)
        assert t.senses("bank") == (synset_id(offsets[2]), synset_id(offsets[1]))


class TestEdgeList:
    def test_two_lines_make_chain(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("A\tR\nB\tA\n")
        t = freeze(parse_edgelist(p))
        assert t.root == "R"
        assert t.depth("B") == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("# a comment\n\nA\tR\n")
        assert len(parse_edgelist(p).parents) == 2

    def test_root_pin(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("!root top\nA\tR\n")
        t = freeze(parse_edgelist(p))
        assert t.root == "top"
        assert t.nodes["R"].parents == ("top",)

    def test_duplicate_edge_warns_and_dedups(self, tmp_path, caplog):
        p = tmp_path / "toy.tsv"
        p.write_text("A\tR\nA\tR\n")
        with caplog.at_level(logging.WARNING, logger="semsim.wordnet"):
            raw = parse_edgelist(p)
        assert raw.parents["A"] == ["R"]
        assert any("duplicate edge" in r.message for r in caplog.records)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("A R no tabs here\n")
        with pytest.raises(MalformedLine) as err:
            parse_edgelist(p)
        assert err.value.line_no == 1

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_bytes(b"a\tb\n\xff\tc\n")
        with pytest.raises(MalformedLine) as err:
            parse_edgelist(p)
        assert str(err.value) == f"{p}:2: not UTF-8: invalid start byte at byte 0 of the line"

    def test_empty_file_propagates_empty_graph(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("")
        with pytest.raises(EmptyGraph):
            freeze(parse_edgelist(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            parse_edgelist(tmp_path / "absent.tsv")

    def test_round_trip_is_isomorphic(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("!root top\nA\ttop\nB\tA\nB\ttop\nC\tA\n")
        raw = parse_edgelist(p)
        q = tmp_path / "again.tsv"
        q.write_text(serialize_edgelist(raw))
        again = parse_edgelist(q)
        assert {n: sorted(ps) for n, ps in raw.parents.items()} == \
               {n: sorted(ps) for n, ps in again.parents.items()}
        assert raw.pinned_root == again.pinned_root


class TestRealWordNet:
    def test_database_shape(self, wn):
        assert wn.constants.node_max == 82115
        assert wn.root == "00001740-n"
        assert "entity" in wn.nodes[wn.root].lemmas

    def test_car_has_five_senses(self, wn):
        assert len(wn.senses("car")) == 5

    def test_multiword_lemma(self, wn):
        assert wn.senses("cellular telephone") == wn.senses("cellular_telephone") != ()

    def test_unknown_word_has_no_senses(self, wn):
        assert wn.senses("zzzz-not-a-word") == ()

    def test_every_node_reaches_root(self, wn):
        # spot-check a sample; the full closure is covered by freeze itself
        import random
        rng = random.Random(5)
        ids = rng.sample(sorted(wn.nodes), 200)
        for sid in ids:
            assert wn.root in wn.subsumers(sid)

    def test_unknown_synset_query(self, wn):
        with pytest.raises(UnknownSynset):
            wn.depth("00000000-x")
