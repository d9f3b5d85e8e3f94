"""Command-line entry point.

Subcommands: stats, ic, sim, dcs, eval, grid.  The ontology source is
either a WordNet directory (``--wordnet`` or SEMSIM_WORDNET_DIR) or a toy
edge list (``--edgelist``), never both.  Exit status: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import bench
from .errors import SemsimError
from .ic import ICConfig, ICModelId, ic_table
from .similarity import SimMeasureId, dcs as dcs_of_pair, word_similarity_detail
from .taxonomy import Taxonomy, _read_snapshot, _write_snapshot, freeze
from .wordnet import default_wordnet_dir, parse_edgelist, parse_wordnet


class UsageError(Exception):
    """Bad invocation that argparse cannot catch itself (exit status 2)."""


IC_CHOICES = [m.value for m in ICModelId]
MEASURE_CHOICES = [m.value for m in SimMeasureId]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsim",
        description="Taxonomy-based information content and semantic similarity.")
    parser.add_argument("--wordnet", metavar="DIR",
                        help="WordNet database directory (default: $SEMSIM_WORDNET_DIR)")
    parser.add_argument("--edgelist", metavar="FILE",
                        help="toy ontology edge list instead of WordNet")
    parser.add_argument("--cache", metavar="FILE",
                        help="taxonomy snapshot file, refreshed when sources change")
    parser.add_argument("--zhou-k", type=float, default=0.5,
                        help="depth weight for the zhou model (default 0.5)")
    parser.add_argument("--log-base", type=float, default=10.0,
                        help="base for non-ratio logarithms (default 10)")
    parser.add_argument("--leaf-self", action="store_true",
                        help="count a leaf as its own leaf in the sanchez2011 model")
    parser.add_argument("--normalize-unbounded", action="store_true",
                        help="rescale unbounded IC tables into [0, 1]")
    parser.add_argument("--depth-mode", choices=["min", "max"], default="min",
                        help="node depth convention (default min distance)")
    parser.add_argument("--lcs-mode", choices=["max-depth", "max-ic"], default="max-depth",
                        help="least-common-subsumer rule (default deepest by longest path)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print taxonomy constants")

    p_ic = sub.add_parser("ic", help="print per-sense information content")
    p_ic.add_argument("--model", choices=IC_CHOICES, required=True)
    group = p_ic.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="print IC for every sense of this word")
    group.add_argument("--all", action="store_true", help="dump the full table")

    p_sim = sub.add_parser("sim", help="similarity of two words")
    p_sim.add_argument("--ic", choices=IC_CHOICES, required=True)
    p_sim.add_argument("--measure", choices=MEASURE_CHOICES, required=True)
    p_sim.add_argument("--show-senses", action="store_true",
                       help="also print the best sense pair, plus its DCS under the "
                            "proposed measure")
    p_sim.add_argument("word1")
    p_sim.add_argument("word2")

    p_dcs = sub.add_parser("dcs", help="disjoint common subsumers of two words")
    p_dcs.add_argument("--ic", choices=IC_CHOICES, default="proposed")
    p_dcs.add_argument("--measure", choices=MEASURE_CHOICES, default="proposed")
    p_dcs.add_argument("word1")
    p_dcs.add_argument("word2")

    p_eval = sub.add_parser("eval", help="correlate one model/measure with a benchmark")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--ic", choices=IC_CHOICES, required=True)
    p_eval.add_argument("--measure", choices=MEASURE_CHOICES, required=True)
    p_eval.add_argument("--json", metavar="FILE", help="also write the JSON report here")
    p_eval.add_argument("--per-pair", action="store_true",
                        help="print every pair's machine and human score")

    p_grid = sub.add_parser("grid", help="run a model x measure grid over a benchmark")
    p_grid.add_argument("--dataset", required=True)
    p_grid.add_argument("--full", action="store_true",
                        help="run the complete benchmark grid")
    p_grid.add_argument("--combos", metavar="IC:MEASURE,...",
                        help="comma-separated ic:measure pairs")
    p_grid.add_argument("--json", metavar="FILE", help="also write the JSON report here")
    p_grid.add_argument("--golden", metavar="FILE",
                        help="JSON list of expected correlations; exit 1 on any miss")
    p_grid.add_argument("--literature", action="store_true",
                        help="append reported (not computed) literature correlations")
    return parser


def _ic_config(args) -> ICConfig:
    """The IC options; commands read them before loading the taxonomy, so a
    value out of range is a usage error that costs no parse."""
    try:
        return ICConfig(zhou_k=args.zhou_k, log_base_absolute=args.log_base,
                        leaf_self=args.leaf_self,
                        normalize_unbounded=args.normalize_unbounded)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _source_fingerprint(paths, depth_mode: str) -> str:
    """The hash of the source files and the depth mode that a snapshot is
    stored under; the snapshot reader checks the format tag itself."""
    digest = hashlib.sha256(depth_mode.encode())
    for p in paths:
        digest.update(b"\0")
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def load_taxonomy(args) -> Taxonomy:
    if args.wordnet and args.edgelist:
        raise UsageError("specify either --wordnet or --edgelist, not both")
    if args.edgelist:
        if args.cache:
            raise UsageError("--cache needs a WordNet source, not --edgelist")
        raw = parse_edgelist(args.edgelist)
        return freeze(raw, depth_mode=args.depth_mode)

    wn_dir = args.wordnet or default_wordnet_dir()
    if not wn_dir:
        raise UsageError("no ontology source (use --wordnet/--edgelist or set "
                         "SEMSIM_WORDNET_DIR)")
    sources = [os.path.join(wn_dir, "data.noun"), os.path.join(wn_dir, "index.noun")]
    fingerprint = None
    if args.cache:
        if any(_same_file(args.cache, source) for source in sources):
            raise UsageError(f"--cache names a WordNet source file: {args.cache}")
        # A missing, damaged, foreign or stale snapshot is a cache miss.
        try:
            fingerprint = _source_fingerprint(sources, args.depth_mode)
        except OSError:  # a source it cannot read, left for parse_wordnet to name
            pass
        cached = fingerprint and _read_snapshot(args.cache, fingerprint)
        if cached is not None:
            return cached
    raw, word_index = parse_wordnet(wn_dir)
    taxonomy = freeze(raw, depth_mode=args.depth_mode, word_index=word_index)
    if fingerprint is not None:
        _write_snapshot(args.cache, taxonomy, fingerprint)
    return taxonomy


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:  # either one is missing
        return False


def _json_report(obj: dict) -> str:
    """The text of a JSON report: ``obj`` stamped with the schema version,
    keys sorted, a two-space indent and one final newline."""
    return json.dumps({"schema": bench.JSON_SCHEMA_VERSION, **obj}, indent=2,
                      sort_keys=True) + "\n"


def _emit_json(obj: dict) -> None:
    print(_json_report(obj), end="")


def cmd_stats(args) -> int:
    t = load_taxonomy(args)
    stats = {"root": t.root, **vars(t.constants)}
    if args.format == "json":
        _emit_json(stats)
    else:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return 0


def cmd_ic(args) -> int:
    cfg = _ic_config(args)
    t = load_taxonomy(args)
    if args.all:
        sense_ids = sorted(t.nodes)
    else:
        sense_ids = t.senses(args.word)
        if not sense_ids:
            raise SemsimError(f"word has no noun sense: {args.word!r}")
    table = ic_table(t, args.model, cfg)
    rows = [(sid, t.nodes[sid].lemmas, table[sid]) for sid in sense_ids]
    if args.format == "json":
        _emit_json({"model": args.model,
                    "senses": [{"synset": sid, "lemmas": list(lem), "ic": round(v, 3)}
                               for sid, lem, v in rows]})
    else:
        for sid, lem, v in rows:
            print(f"{sid}\t{','.join(lem)}\t{v:.3f}")
    return 0


def cmd_sim(args) -> int:
    cfg = _ic_config(args)
    t = load_taxonomy(args)
    table = ic_table(t, args.ic, cfg)
    measure = SimMeasureId(args.measure)
    score, (sa, sb) = word_similarity_detail(t, table, measure,
                                             args.word1, args.word2, args.lcs_mode)
    if args.format == "json":
        obj = {"word1": args.word1, "word2": args.word2, "ic_model": args.ic,
               "measure": args.measure, "similarity": round(score, 3)}
        if args.show_senses:
            obj["senses"] = [sa, sb]
            if measure is SimMeasureId.PROPOSED:
                obj["dcs"] = list(dcs_of_pair(t, sa, sb))
        _emit_json(obj)
        return 0
    print(f"{score:.3f}")
    if args.show_senses:
        print(f"senses: {sa} ({','.join(t.nodes[sa].lemmas)})"
              f" x {sb} ({','.join(t.nodes[sb].lemmas)})")
        if measure is SimMeasureId.PROPOSED:
            print("dcs: " + " ".join(dcs_of_pair(t, sa, sb)))
    return 0


def cmd_dcs(args) -> int:
    cfg = _ic_config(args)
    t = load_taxonomy(args)
    table = ic_table(t, args.ic, cfg)
    _, (sa, sb) = word_similarity_detail(t, table, SimMeasureId(args.measure),
                                         args.word1, args.word2, args.lcs_mode)
    members = dcs_of_pair(t, sa, sb)
    if args.format == "json":
        _emit_json({"word1": args.word1, "word2": args.word2, "senses": [sa, sb],
                    "dcs": list(members)})
    else:
        print(f"senses: {sa} x {sb}")
        for m in members:
            print(f"{m}\t{','.join(t.nodes[m].lemmas)}\tdepth={t.depth(m)}")
    return 0


def cmd_eval(args) -> int:
    cfg = _ic_config(args)
    t = load_taxonomy(args)
    dataset = bench.load_dataset(args.dataset)
    table = ic_table(t, args.ic, cfg)
    result = bench.evaluate(t, dataset, table, args.measure, args.lcs_mode)
    if args.json:
        _write_report(args.json, _json_report(result.to_json_obj()))
    if args.format == "json":
        _emit_json(result.to_json_obj())
        return 0
    print(f"dataset: {result.dataset}")
    print(f"ic_model: {result.ic_model}")
    print(f"measure: {result.measure}")
    print(f"n_used: {result.n_used}")
    if args.per_pair:
        for p in result.per_pair:
            machine = "skipped" if p.machine is None else f"{p.machine:.3f}"
            print(f"{p.word1}\t{p.word2}\t{machine}\t{p.human}")
    print(f"pearson: {result.pearson:.2f}")
    return 0


def _parse_combos(text: str):
    combos = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            model, measure = chunk.split(":")
            combos.append((ICModelId(model.strip()), SimMeasureId(measure.strip())))
        except ValueError:
            raise UsageError(f"bad combo {chunk!r}, expected ic:measure") from None
    return combos


def cmd_grid(args) -> int:
    combos = list(bench.FULL_GRID) if args.full else _parse_combos(args.combos or "")
    if not combos:
        raise UsageError("grid: pass --full or --combos")
    cfg = _ic_config(args)
    expectations = _read_golden(args.golden) if args.golden else []
    t = load_taxonomy(args)
    dataset = bench.load_dataset(args.dataset)
    report = bench.grid_report(t, dataset, combos, cfg, args.lcs_mode,
                               with_literature=args.literature)
    if args.json:
        _write_report(args.json, _json_report(report.to_json_obj()))
    if args.format == "json":
        _emit_json(report.to_json_obj())
    else:
        print(report.to_tsv(), end="")
    computed = {(str(r.ic_model), str(r.measure)): r.pearson for r in report.results}
    failures = 0
    for want in expectations:
        key = (want["ic_model"], want["measure"])
        tol = want.get("tol", 0.0)
        got = computed.get(key)
        if got is None or abs(got - want["pearson"]) > tol + 1e-12:
            failures += 1
            print(f"golden miss: {key[0]}:{key[1]} expected "
                  f"{want['pearson']:.2f}+-{tol:.2f}, got "
                  f"{'absent' if got is None else format(got, '.2f')}",
                  file=sys.stderr)
    return 1 if failures else 0


def _read_golden(path: str) -> list:
    """The expectations of a ``--golden`` file: a JSON list of objects with
    string ``ic_model`` and ``measure``, a finite number ``pearson`` and
    an optional finite number ``tol``.  Raises ``SemsimError`` for any
    other file (a NaN ``pearson`` would pass every comparison)."""
    try:
        with open(path, encoding="utf-8") as fh:
            expectations = json.load(fh)
    except OSError as exc:
        raise SemsimError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise SemsimError(f"{path}: not JSON: {exc}") from None

    def number(x) -> bool:
        return type(x) in (int, float) and math.isfinite(x)
    if not (isinstance(expectations, list) and all(
            isinstance(w, dict) and isinstance(w.get("ic_model"), str)
            and isinstance(w.get("measure"), str) and number(w.get("pearson"))
            and number(w.get("tol", 0.0)) for w in expectations)):
        raise SemsimError(f"{path}: expected a list of {{ic_model, measure, pearson[, tol]}}"
                          " objects")
    return expectations


def _write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SemsimError(f"cannot write {path}: {exc.strerror}") from None


_COMMANDS = {
    "stats": cmd_stats,
    "ic": cmd_ic,
    "sim": cmd_sim,
    "dcs": cmd_dcs,
    "eval": cmd_eval,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.lcs_mode = args.lcs_mode.replace("-", "_")  # the library's spelling
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"semsim: error: {exc}", file=sys.stderr)
        return 2
    except SemsimError as exc:
        print(f"semsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
