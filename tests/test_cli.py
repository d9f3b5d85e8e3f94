"""End-to-end CLI behavior through main(argv)."""

import io
import json
import os
import pickle
import sys
import tempfile
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semsim import taxonomy
from semsim.cli import main
from semsim.ic import ICModelId, ic_table
from semsim.similarity import SimMeasureId, word_similarity
from semsim.taxonomy import Columns, freeze
from semsim.wordnet import parse_edgelist

from conftest import DATA, FIXTURES, raw_dags, word_indexes, write_wordnet
from test_golden_digest import CONFIGS, outcome
from test_taxonomy import MISFITS, toy_parts, write_parts

CHAIN = ["--edgelist", str(FIXTURES / "chain.tsv")]


@pytest.fixture
def wordnet_db(tmp_path):
    """A small noun database in the WordNet format; "car" has two senses."""
    db = tmp_path / "wordnet"
    db.mkdir()
    up = lambda i: [("@", i, "n")]
    synsets = [(["entity"], []), (["vehicle"], up(0)), (["car", "auto"], up(1)),
               (["truck"], up(1)), (["rail_vehicle"], up(1)), (["car", "railcar"], up(4)),
               (["boxcar"], up(5)), (["path"], up(0))]
    rows = [(lemma, [i]) for i, (lemmas, _) in enumerate(synsets)
            for lemma in lemmas if lemma != "car"]
    write_wordnet(db, synsets, index_rows=rows + [("car", [2, 5])])
    return str(db)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestUsage:
    def test_missing_words_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sim"])
        assert err.value.code == 2

    def test_no_source_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("SEMSIM_WORDNET_DIR", raising=False)
        code, _, err = run(capsys, "stats")
        assert code == 2
        assert "ontology source" in err

    def test_both_sources_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--wordnet", str(tmp_path),
                         "--edgelist", str(FIXTURES / "chain.tsv"), "stats")
        assert code == 2

    def test_cache_with_edgelist_exits_2_before_parsing(self, capsys, tmp_path):
        cache = tmp_path / "X"
        for edges in (FIXTURES / "chain.tsv", tmp_path / "absent.tsv"):
            code, out, err = run(capsys, "--edgelist", str(edges), "--cache", str(cache),
                                 "stats")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == \
                "semsim: error: --cache needs a WordNet source, not --edgelist"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_word_exits_1(self, capsys):
        code, _, err = run(capsys, *CHAIN, "sim", "--ic", "proposed",
                           "--measure", "lin", "mid", "ghost")
        assert code == 1
        assert "ghost" in err

    def test_edgelist_not_utf8_exits_1(self, capsys, tmp_path):
        edges = tmp_path / "x.tsv"
        edges.write_bytes(b"a\tb\n\xff\tc\n")
        assert run(capsys, "--edgelist", str(edges), "stats") == (
            1, "", f"semsim: {edges}:2: not UTF-8: invalid start byte at byte 0 of the line\n")

    def test_unknown_word_message_is_not_quoted_twice(self, capsys):
        code, _, err = run(capsys, *CHAIN, "sim", "--ic", "seco", "--measure", "lin",
                           "leaf", "nosuch")
        assert (code, err) == (1, "semsim: word has no noun sense: 'nosuch'\n")

    def test_pinned_root_with_parents_exits_1(self, capsys, tmp_path):
        edges = tmp_path / "p.tsv"
        edges.write_text("!root a\na\tb\nc\ta\n")
        assert run(capsys, "--edgelist", str(edges), "stats") == (
            1, "", "semsim: pinned root 'a' has parents\n")

    def test_batet_outside_its_domain_exits_1(self, capsys):
        code, out, err = run(capsys, "--edgelist", str(FIXTURES / "batet_domain.tsv"),
                             "--lcs-mode", "max-ic", "sim", "--ic", "meng",
                             "--measure", "batet", "n05", "n05")
        assert (code, out) == (1, "")
        assert err.startswith("semsim: batet is undefined for n05 x n05: IC(LCS) ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--zhou-k", "2", "zhou_k must be in [0, 1], got 2.0"),
        ("--log-base", "nan", "log base must be finite and exceed 1, got nan"),
        ("--log-base", "inf", "log base must be finite and exceed 1, got inf"),
    ])
    def test_bad_ic_config_exits_2(self, capsys, tmp_path, flag, value, message):
        # checked before the source is read, so an absent source is not reached
        for source in (CHAIN, ["--edgelist", str(tmp_path / "absent.tsv")]):
            code, out, err = run(capsys, *source, flag, value, "sim", "--ic", "zhou",
                                 "--measure", "lin", "leaf", "mid")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == f"semsim: error: {message}"


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run(capsys, *CHAIN, "stats")
        assert code == 0
        assert "node_max: 3" in out and "deep_max: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *CHAIN, "stats")
        obj = json.loads(out)
        assert code == 0
        assert obj["schema"] == 1 and obj["root"] == "top"


class TestIc:
    def test_word_rows(self, capsys):
        code, out, _ = run(capsys, *CHAIN, "ic", "--model", "proposed",
                           "--word", "leaf")
        assert code == 0
        fields = out.strip().split("\t")
        assert fields[0] == "leaf" and fields[2] == "1.000"

    def test_full_dump_sorted(self, capsys):
        code, out, _ = run(capsys, *CHAIN, "ic", "--model", "seco", "--all")
        ids = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert code == 0
        assert ids == sorted(ids) and len(ids) == 3

    @pytest.mark.parametrize("flags", [(), ("--normalize-unbounded",)])
    def test_word_rows_match_full_dump(self, capsys, wordnet_db, flags):
        source = ("--wordnet", wordnet_db, *flags)
        _, dump, _ = run(capsys, *source, "ic", "--model", "qingbo", "--all")
        by_synset = {line.split("\t")[0]: line for line in dump.splitlines()}
        code, out, _ = run(capsys, *source, "ic", "--model", "qingbo", "--word", "car")
        rows = out.splitlines()
        assert code == 0 and len(rows) == 2
        assert rows == [by_synset[row.split("\t")[0]] for row in rows]

    def test_proposed_below_base_two_exits_1(self, capsys):
        source = ("--edgelist", str(FIXTURES / "shared_node_three_leaves.tsv"))
        code, out, err = run(capsys, *source, "--log-base", "1.1", "ic", "--model",
                             "proposed", "--all")
        assert (code, out) == (1, "")
        assert err == "semsim: proposed IC needs a log base of at least 2, got 1.1\n"


class TestSim:
    def test_three_decimal_output(self, capsys):
        code, out, _ = run(capsys, *CHAIN, "sim", "--ic", "proposed",
                           "--measure", "proposed", "mid", "leaf")
        assert code == 0
        assert out.strip() == "0.411"

    def test_show_senses_prints_dcs(self, capsys):
        code, out, _ = run(capsys, *CHAIN, "sim", "--ic", "proposed",
                           "--measure", "proposed", "--show-senses", "mid", "leaf")
        assert code == 0
        assert "senses: mid" in out and "dcs: mid" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *CHAIN, "sim",
                           "--ic", "seco", "--measure", "lin", "mid", "leaf")
        obj = json.loads(out)
        assert code == 0
        assert obj["schema"] == 1 and 0 <= obj["similarity"] <= 1

    def test_all_zero_table_counts_as_normalized(self, capsys):
        # commonness2012 gives 0 to every node of the chain: proposed takes
        # the table as normalized, while batet still needs a maximum above 0
        source = (*CHAIN, "--normalize-unbounded", "sim", "--ic", "commonness2012")
        assert run(capsys, *source, "--measure", "proposed", "leaf", "mid") == \
            (0, "0.000\n", "")
        assert run(capsys, *source, "--measure", "batet", "leaf", "mid") == \
            (1, "", "semsim: commonness2012 table has max_ic 0\n")


class TestDcs:
    def test_three_member_set(self, capsys):
        code, out, _ = run(capsys, "--edgelist", str(FIXTURES / "triple_dcs.tsv"),
                           "dcs", "x", "y")
        assert code == 0
        members = [line.split("\t")[0] for line in out.strip().splitlines()[1:]]
        assert members == ["d1", "d2", "d3"]


@pytest.fixture
def toy_dataset(tmp_path):
    p = tmp_path / "toy.tsv"
    p.write_text("mid\tleaf\t3.0\nmid\ttop\t2.0\nleaf\ttop\t1.0\n")
    return str(p)


class TestEval:
    def test_missing_dataset_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, *CHAIN, "eval", "--dataset", str(tmp_path / "nope.tsv"),
                             "--ic", "seco", "--measure", "lin")
        assert code == 1 and out == ""
        assert err.startswith("semsim: ") and "nope.tsv" in err

    def test_nan_score_exits_1(self, capsys, tmp_path):
        dataset = tmp_path / "nan.tsv"
        dataset.write_text("mid\tleaf\t3.0\nmid\ttop\tnan\nleaf\ttop\t1.0\n")
        code, out, err = run(capsys, *CHAIN, "eval", "--dataset", str(dataset),
                             "--ic", "seco", "--measure", "lin")
        assert (code, out) == (1, "")
        assert err == f"semsim: {dataset}:2: score is not finite: 'nan'\n"

    def test_report_and_json_file(self, capsys, tmp_path, toy_dataset):
        out_json = tmp_path / "report.json"
        code, out, _ = run(capsys, *CHAIN, "eval", "--dataset", toy_dataset,
                           "--ic", "proposed", "--measure", "lin",
                           "--json", str(out_json), "--per-pair")
        assert code == 0
        assert "pearson: " in out and "n_used: 3" in out
        obj = json.loads(out_json.read_text())
        assert obj["schema"] == 1 and len(obj["pairs"]) == 3

    def test_identical_runs_identical_json(self, capsys, tmp_path, toy_dataset):
        files = []
        for name in ("a.json", "b.json"):
            out_json = tmp_path / name
            run(capsys, *CHAIN, "eval", "--dataset", toy_dataset,
                "--ic", "proposed", "--measure", "proposed", "--json", str(out_json))
            files.append(out_json.read_bytes())
        assert files[0] == files[1]


class TestGrid:
    def test_combos_tsv(self, capsys, toy_dataset):
        code, out, _ = run(capsys, *CHAIN, "grid", "--dataset", toy_dataset,
                           "--combos", "seco:lin,proposed:resnik")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("ic_model")
        assert len(lines) == 3

    def test_requires_combos_or_full(self, capsys, toy_dataset):
        code, _, err = run(capsys, *CHAIN, "grid", "--dataset", toy_dataset)
        assert code == 2

    @pytest.mark.parametrize("combos", [",", " , ,", ""])
    def test_combos_without_a_pair_exit_2_before_loading(self, capsys, tmp_path, combos):
        missing = str(tmp_path / "absent.tsv")  # loading it would exit 1
        code, out, err = run(capsys, "--edgelist", missing, "grid", "--dataset", missing,
                             "--combos", combos)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "semsim: error: grid: pass --full or --combos"

    @pytest.mark.parametrize("combos", ["seco", "a:b:c", "seco:nosuch"])
    def test_combo_that_is_not_ic_measure_exits_2_before_loading(self, capsys, tmp_path,
                                                                  combos):
        missing = str(tmp_path / "absent.tsv")  # loading it would exit 1
        code, out, err = run(capsys, "--edgelist", missing, "grid", "--dataset", missing,
                             "--combos", f"seco:lin,{combos}")
        assert (code, out) == (2, "")
        assert err.splitlines()[0].startswith("usage: semsim")
        assert err.splitlines()[-1] == (
            f"semsim: error: bad combo {combos!r}, expected ic:measure")

    def test_golden_pass_and_fail(self, capsys, tmp_path, toy_dataset):
        code, out, _ = run(capsys, *CHAIN, "grid", "--dataset", toy_dataset,
                           "--combos", "seco:lin")
        observed = float(out.strip().splitlines()[1].split("\t")[2])
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(
            [{"ic_model": "seco", "measure": "lin", "pearson": observed, "tol": 0.001}]))
        code, _, _ = run(capsys, *CHAIN, "grid", "--dataset", toy_dataset,
                         "--combos", "seco:lin", "--golden", str(golden))
        assert code == 0
        golden.write_text(json.dumps(
            [{"ic_model": "seco", "measure": "lin", "pearson": observed + 0.5,
              "tol": 0.001}]))
        code, _, err = run(capsys, *CHAIN, "grid", "--dataset", toy_dataset,
                           "--combos", "seco:lin", "--golden", str(golden))
        assert code == 1
        assert "golden miss" in err


class TestReportFiles:
    """A --golden file that cannot be read or used and a --json path that
    cannot be written end in one line and exit status 1."""

    @pytest.fixture
    def golden(self, tmp_path):
        return tmp_path / "golden.json"

    def grid(self, capsys, toy_dataset, *extra):
        return run(capsys, *CHAIN, "grid", "--dataset", toy_dataset, "--combos", "seco:lin",
                   *extra)

    def test_missing_golden_file(self, capsys, toy_dataset, golden):
        assert self.grid(capsys, toy_dataset, "--golden", str(golden)) == (
            1, "", f"semsim: cannot read {golden}: No such file or directory\n")

    def test_golden_file_not_json(self, capsys, toy_dataset, golden):
        golden.write_text("seco:lin 0.5\n")
        code, out, err = self.grid(capsys, toy_dataset, "--golden", str(golden))
        assert (code, out) == (1, "")
        assert err.startswith(f"semsim: {golden}: not JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", [
        {"measure": "lin", "pearson": 0.5},
        {"ic_model": "seco", "measure": "lin", "pearson": "0.5"},
        {"ic_model": "seco", "measure": "lin", "pearson": 0.5, "tol": None},
        {"ic_model": "seco", "measure": "lin", "pearson": float("nan")},
    ], ids=["no ic_model", "pearson not a number", "tol not a number", "pearson NaN"])
    def test_golden_entry_that_does_not_fit(self, capsys, toy_dataset, golden, entry):
        golden.write_text(json.dumps([entry]))
        assert self.grid(capsys, toy_dataset, "--golden", str(golden)) == (
            1, "", f"semsim: {golden}: expected a list of "
                   "{ic_model, measure, pearson[, tol]} objects\n")

    @pytest.mark.parametrize("command", [
        ["grid", "--combos", "seco:lin"], ["eval", "--ic", "seco", "--measure", "lin"]])
    def test_unwritable_json_report(self, capsys, tmp_path, toy_dataset, command):
        target = tmp_path / "absent" / "x.json"
        code, out, err = run(capsys, *CHAIN, command[0], "--dataset", toy_dataset,
                             *command[1:], "--json", str(target))
        assert (code, out, err) == (
            1, "", f"semsim: cannot write {target}: No such file or directory\n")


class TestWordNetCli:
    def test_same_synset_pair_is_exactly_one(self, capsys, wordnet_dir):
        code, out, _ = run(capsys, "--wordnet", wordnet_dir, "sim",
                           "--ic", "proposed", "--measure", "lin",
                           "car", "automobile")
        assert code == 0
        assert out.strip() == "1.000"

    def test_eval_mc30_resnik(self, capsys, wordnet_dir):
        code, out, _ = run(capsys, "--wordnet", wordnet_dir, "eval",
                           "--dataset", str(DATA / "mc30.tsv"),
                           "--ic", "proposed", "--measure", "resnik")
        assert code == 0
        assert "pearson: 0.86" in out


def rewrite_header(snapshot: bytes, **changes) -> bytes:
    """The snapshot with some header fields replaced."""
    end = snapshot.index(b"\n")
    header = json.loads(snapshot[:end])
    header.update(changes)
    return json.dumps(header).encode() + snapshot[end:]


class TestSnapshotCache:
    @pytest.fixture
    def cached(self, capsys, wordnet_db, tmp_path):
        """The stats args over a warm cache, their output and the snapshot."""
        cache = tmp_path / "wn.snapshot"
        args = ("--wordnet", wordnet_db, "--cache", str(cache), "stats")
        code, out, _ = run(capsys, *args)
        assert code == 0
        return cache, args, out, cache.read_bytes()

    def assert_rebuilt(self, capsys, cached, junk: bytes):
        cache, args, out, good = cached
        cache.write_bytes(junk)
        assert run(capsys, *args) == (0, out, "")
        assert cache.read_bytes() == good  # a served snapshot is never rewritten

    def test_snapshot_cache_round_trip(self, capsys, cached):
        cache, args, out, good = cached
        header = json.loads(good[:good.index(b"\n")])
        assert header["format"] == taxonomy.SNAPSHOT_FORMAT.decode() == "semsim-taxonomy-5"
        assert cache.stat().st_mode & 0o777 == 0o600
        assert run(capsys, *args) == (0, out, "")
        assert cache.read_bytes() == good
        # corrupt bytes, truncated sections, payloads of the wrong type, a
        # header nested too deep to decode, a section count missing or
        # negative, and counts that add up to the file's length but move an
        # item from one column to the next
        sections = header["sections"]
        for junk in (b"corrupt", good[:len(good) // 2], good[:-1], b"[1, 2, 3]\n" + good,
                     b"[" * 100_000 + good[good.index(b"\n"):],
                     rewrite_header(good, sections="junk"),
                     rewrite_header(good, sections=sections[:-1]),
                     rewrite_header(good, sections=[-1] + sections[1:]),
                     rewrite_header(good, sections=[sections[0] + 1, sections[1] - 1]
                                    + sections[2:])):
            self.assert_rebuilt(capsys, cached, junk)

    def test_snapshot_of_another_format_is_rebuilt(self, capsys, cached, monkeypatch):
        cache, args, parsed, good = cached
        header = json.loads(good[:good.index(b"\n")])
        chain = freeze(parse_edgelist(FIXTURES / "chain.tsv"))
        taxonomy._write_snapshot(str(cache), chain, header["fingerprint"])
        _, served, _ = run(capsys, *args)
        assert served != parsed  # a matching fingerprint is served as stored
        monkeypatch.setattr(taxonomy, "SNAPSHOT_FORMAT", b"another layout")
        _, rebuilt, _ = run(capsys, *args)
        assert rebuilt == parsed

    def test_pickle_snapshot_is_rebuilt_unread(self, capsys, cached, tmp_path):
        # the format before the flat one was a pickle; one that would run
        # code when unpickled must be rebuilt without running it
        marker = tmp_path / "unpickled"

        class Trap:
            def __reduce__(self):
                return (Path.touch, (marker,))
        fingerprint = json.loads(cached[3][:cached[3].index(b"\n")])["fingerprint"]
        self.assert_rebuilt(capsys, cached,
                            pickle.dumps({"fingerprint": fingerprint, "taxonomy": Trap()}))
        assert not marker.exists()

    @pytest.mark.parametrize("item, value", [
        (0, lambda nodes: nodes),  # the first parent row: one past the last node
        (-1, lambda nodes: 0),     # the last parent offset: short of the flat length
    ])
    def test_columns_that_do_not_fit_are_rebuilt(self, capsys, cached, item, value):
        # same sizes, a matching fingerprint and the damaged body's checksum;
        # only the taxonomy's checks catch it
        good, size = cached[3], array("l").itemsize
        header_end = good.index(b"\n") + 1
        sections = json.loads(good[:header_end])["sections"]
        nodes = sections[0] - 1  # parent_start has one offset per node, plus one
        at = header_end + (sections[0] + item) * size
        junk = good[:at] + array("l", [value(nodes)]).tobytes() + good[at + size:]
        junk = rewrite_header(junk, crc32=zlib.crc32(junk[header_end:]))
        self.assert_rebuilt(capsys, cached, junk)

    @pytest.mark.parametrize("column, value, command", [
        ("subsumer_count", 0, ["sim", "--ic", "sanchez2011", "--measure", "lin", "car",
                               "auto"]),
        ("hypo_count", -5, ["ic", "--model", "seco", "--word", "car"]),
        ("depth", 1_000_000, ["stats"]),
    ])
    def test_damaged_statistics_are_rebuilt(self, capsys, cached, column, value, command):
        # one item at car's first sense, outside the kernels' domain; the
        # checksum no longer matches, so the snapshot is parsed again
        cache, args, _, good = cached
        header_end = good.index(b"\n") + 1
        header = json.loads(good[:header_end])
        row = taxonomy._read_snapshot(cache, header["fingerprint"]).sense_rows("car")[0]
        size = array("l").itemsize
        at = header_end + (sum(header["sections"][:Columns._fields.index(column)]) + row) * size
        cache.write_bytes(good[:at] + array("l", [value]).tobytes() + good[at + size:])
        source = args[:2]  # --wordnet DIR
        assert run(capsys, *source, "--cache", str(cache), *command) == \
            run(capsys, *source, *command)
        assert cache.read_bytes() == good

    @pytest.mark.parametrize("column, item, value, message", [
        ("parent_rows", lambda c, r: c.parent_start[r], lambda c, r: r,
         "reaches a parent cycle"),  # the first parent of the row is the row itself
        ("parent_start", lambda c, r: r + 1, lambda c, r: c.parent_start[r],
         "has no parents but is not the root"),  # while nmih still counts one
    ], ids=["parent cycle", "second root"])
    def test_crafted_parents_end_in_one_line(self, capsys, cached, column, item, value,
                                             message):
        # the damaged body's checksum is in the header, so the snapshot is
        # served, and the subsumer walk reports the parents it cannot use
        cache, args, _, good = cached
        header_end = good.index(b"\n") + 1
        header = json.loads(good[:header_end])
        served = taxonomy._read_snapshot(cache, header["fingerprint"])
        row, c = served.sense_rows("car")[0], served.columns
        size = array("l").itemsize
        at = header_end + (sum(header["sections"][:Columns._fields.index(column)])
                           + item(c, row)) * size
        junk = good[:at] + array("l", [value(c, row)]).tobytes() + good[at + size:]
        cache.write_bytes(rewrite_header(junk, crc32=zlib.crc32(junk[header_end:])))
        assert run(capsys, *args[:-1], "sim", "--ic", "seco", "--measure", "lin", "car",
                   "truck") == (1, "", f"semsim: {served.ids[row]} {message}\n")

    @pytest.mark.parametrize("name", MISFITS)
    def test_parts_that_do_not_fit_are_rebuilt(self, capsys, cached, tmp_path, name):
        # written by the snapshot writer under the sources' fingerprint
        good = cached[3]
        fingerprint = json.loads(good[:good.index(b"\n")])["fingerprint"]
        misfit = tmp_path / "misfit"
        write_parts(misfit, MISFITS[name](toy_parts()), fingerprint)
        self.assert_rebuilt(capsys, cached, misfit.read_bytes())

    def test_flipped_byte_order_is_rebuilt(self, capsys, cached):
        other = "big" if sys.byteorder == "little" else "little"
        self.assert_rebuilt(capsys, cached, rewrite_header(cached[3], byteorder=other))

    def test_size_differing_from_header_is_rebuilt(self, capsys, cached):
        self.assert_rebuilt(capsys, cached, cached[3] + b"\0")

    def test_failed_write_keeps_earlier_snapshot(self, capsys, wordnet_db, tmp_path,
                                                 monkeypatch):
        cache = tmp_path / "wn.snapshot"
        args = ("--wordnet", wordnet_db, "--cache", str(cache), "stats")
        run(capsys, "--depth-mode", "max", *args)  # a snapshot the next run must replace
        earlier = cache.read_bytes()
        _, parsed, _ = run(capsys, "--wordnet", wordnet_db, "stats")

        class FullDisk(io.FileIO):  # the header goes out, then the disk is full
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return super().write(data)
        monkeypatch.setattr(os, "fdopen", FullDisk)
        assert run(capsys, *args) == (0, parsed, "")
        assert cache.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wn.snapshot", "wordnet"]

        monkeypatch.undo()
        assert run(capsys, *args) == (0, parsed, "")
        assert cache.read_bytes() != earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wn.snapshot", "wordnet"]

    def test_missing_source_leaves_the_cache_unused(self, capsys, wordnet_db, tmp_path):
        data = Path(wordnet_db) / "data.noun"
        data.unlink()
        cache = tmp_path / "wn.snapshot"
        assert run(capsys, "--wordnet", wordnet_db, "--cache", str(cache), "stats") == (
            1, "", f"semsim: required WordNet file not found: {data}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wordnet"]

    def test_cache_naming_a_directory_is_not_used(self, capsys, wordnet_db, tmp_path):
        cache = tmp_path / "snapshots"
        cache.mkdir()
        uncached = run(capsys, "--wordnet", wordnet_db, "stats")
        assert uncached[0] == 0
        for _ in range(2):
            assert run(capsys, "--wordnet", wordnet_db, "--cache", str(cache), "stats") == \
                uncached
        assert list(cache.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshots", "wordnet"]

    @pytest.mark.parametrize("name", ["data.noun", "index.noun"])
    def test_cache_naming_a_source_exits_2(self, capsys, wordnet_db, tmp_path, name):
        source = Path(wordnet_db) / name
        alias = tmp_path / "alias"
        alias.symlink_to(source)
        before = source.read_bytes()
        for cache in (source, alias):
            code, out, err = run(capsys, "--wordnet", wordnet_db, "--cache", str(cache),
                                 "stats")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == \
                f"semsim: error: --cache names a WordNet source file: {cache}"
            assert source.read_bytes() == before
        assert sorted(p.name for p in Path(wordnet_db).iterdir()) == ["data.noun",
                                                                      "index.noun"]
        assert run(capsys, "--wordnet", wordnet_db, "stats")[0] == 0


class TestSnapshotFormat:
    @settings(max_examples=60, deadline=None)
    @given(raw_dags(), st.data())
    def test_write_then_read_gives_the_same_taxonomy(self, drawn, data):
        raw, depth_mode = drawn
        index = data.draw(word_indexes(freeze(raw).nodes))
        t = freeze(raw, depth_mode=depth_mode, word_index=index)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snapshot")
            taxonomy._write_snapshot(path, t, "fingerprint")
            back = taxonomy._read_snapshot(path, "fingerprint")
        assert (back.root, back.constants) == (t.root, t.constants)
        for view in ("nodes", "stats", "word_index"):
            assert [(k, repr(v)) for k, v in getattr(back, view).items()] == \
                [(k, repr(v)) for k, v in getattr(t, view).items()]
        words = list(index) + ["absent"]
        for cfg in CONFIGS:
            for model in ICModelId:
                tables = [ic_table(x, model, cfg) for x in (t, back)]
                assert [repr(tables[1][c]) for c in t.nodes] == \
                    [repr(tables[0][c]) for c in t.nodes]
                for measure in SimMeasureId:
                    for a in words:
                        for b in words:
                            assert outcome(word_similarity, back, tables[1], measure, a, b) \
                                == outcome(word_similarity, t, tables[0], measure, a, b)
