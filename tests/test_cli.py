"""End-to-end CLI behavior through main(argv)."""

import json
import pickle

import pytest

from semsim import cli
from semsim.cli import main
from semsim.taxonomy import freeze
from semsim.wordnet import parse_edgelist

from conftest import DATA, FIXTURES, write_wordnet

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

    def test_unknown_word_exits_1(self, capsys):
        code, _, err = run(capsys, *CHAIN, "sim", "--ic", "proposed",
                           "--measure", "lin", "mid", "ghost")
        assert code == 1
        assert "ghost" in err

    def test_unknown_word_message_is_not_quoted_twice(self, capsys):
        code, _, err = run(capsys, *CHAIN, "sim", "--ic", "seco", "--measure", "lin",
                           "leaf", "nosuch")
        assert (code, err) == (1, "semsim: word has no noun sense: 'nosuch'\n")

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


class TestSnapshotCache:
    def test_snapshot_cache_round_trip(self, capsys, wordnet_db, tmp_path):
        cache = tmp_path / "wn.snapshot"
        args = ("--wordnet", wordnet_db, "--cache", str(cache), "stats")
        code1, out1, _ = run(capsys, *args)
        assert code1 == 0 and cache.exists()
        code2, out2, _ = run(capsys, *args)
        assert code2 == 0 and out2 == out1
        fingerprint = pickle.loads(cache.read_bytes())["fingerprint"]
        for junk in (b"corrupt", b"\x80\x04\x95" + b"\xff" * 8, pickle.dumps([1, 2, 3]),
                     pickle.dumps({"fingerprint": fingerprint, "taxonomy": "junk"})):
            cache.write_bytes(junk)
            code3, out3, err3 = run(capsys, *args)  # bad snapshot falls back to parsing
            assert (code3, out3, err3) == (0, out1, "")

    def test_snapshot_of_another_format_is_rebuilt(self, capsys, wordnet_db, tmp_path,
                                                  monkeypatch):
        cache = tmp_path / "wn.snapshot"
        args = ("--wordnet", wordnet_db, "--cache", str(cache), "stats")
        _, parsed, _ = run(capsys, *args)
        snapshot = pickle.loads(cache.read_bytes())
        snapshot["taxonomy"] = freeze(parse_edgelist(FIXTURES / "chain.tsv"))
        cache.write_bytes(pickle.dumps(snapshot))
        _, served, _ = run(capsys, *args)
        assert served != parsed  # a matching fingerprint is served as stored
        monkeypatch.setattr(cli, "SNAPSHOT_FORMAT", b"another layout")
        _, rebuilt, _ = run(capsys, *args)
        assert rebuilt == parsed

    def test_failed_write_keeps_earlier_snapshot(self, capsys, wordnet_db, tmp_path,
                                                 monkeypatch):
        cache = tmp_path / "wn.snapshot"
        args = ("--wordnet", wordnet_db, "--cache", str(cache), "stats")
        run(capsys, "--depth-mode", "max", *args)  # a snapshot the next run must replace
        earlier = cache.read_bytes()
        _, parsed, _ = run(capsys, "--wordnet", wordnet_db, "stats")

        def full_disk(obj, fh, protocol=None):
            fh.write(b"half a snapshot")
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(pickle, "dump", full_disk)
        assert run(capsys, *args) == (0, parsed, "")
        assert cache.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wn.snapshot", "wordnet"]

        monkeypatch.undo()
        assert run(capsys, *args) == (0, parsed, "")
        assert cache.read_bytes() != earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wn.snapshot", "wordnet"]
