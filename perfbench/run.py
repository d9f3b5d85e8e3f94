#!/usr/bin/env python3
"""Benchmark of semsim on a synthetic WordNet-scale noun corpus.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli_warm|grid_eval|pair_stream \\
        --seed N --seconds S --trace 0|1

The seed makes the corpus (see ``corpus.py``) and every op's inputs.  Each
workload is a closed loop with one client: it sets the program up
``SETUPS`` times, then runs whole rounds of ops for ``--seconds`` seconds
and checks every output against the oracle (``oracle.py``) or against a
property the method must have.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Generated corpora, snapshots and run files live under
``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus as corpus_mod
import tracing
from oracle import BOUNDED, MEASURES, MODELS, Oracle
from worker import SETUPS, rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MC30 = ROOT / "data" / "mc30.tsv"
WS201 = ROOT / "data" / "wordsim201.tsv"
KEEP_CORPORA = 10
CHILD_TIMEOUT_S = 150
SCORE_TOL = 1e-9
PRINT_TOL = 0.0005 + 1e-9  # values printed with three decimals
GRID_SAMPLES_PER_OP = 12
WORKLOADS = ("cli_warm", "grid_eval", "pair_stream")

clock = time.perf_counter


def p50(values) -> float:
    return statistics.median(values) if values else 0.0  # 0 when every op failed


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)] if ordered else 0.0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(cmd) -> tuple[int, str, str, float, float]:
    """Run ``cmd`` from the checkout root: (status, stdout, stderr, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile() as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            proc.stdout.close()
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errors = err.read().decode(errors="replace")
    return proc.returncode, out.decode(errors="replace"), errors, wall, usage.ru_maxrss / 1024


# ---- corpus ----------------------------------------------------------------

def prepare_corpus(seed: int) -> corpus_mod.Corpus:
    out = WORK / f"corpus-{seed}"
    c = corpus_mod.load_or_build(seed, [MC30, WS201], str(out))
    os.utime(out)
    kept = sorted(WORK.glob("corpus-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[KEEP_CORPORA:]:
        if not old.name.endswith(".tmp"):
            shutil.rmtree(old, ignore_errors=True)
    return c


def planted_pairs(c) -> list[tuple[str, str]]:
    rows = corpus_mod.read_pairs(MC30) + corpus_mod.read_pairs(WS201)
    return [(a, b) for a, b, _ in rows if c.index.get(a.lower()) and c.index.get(b.lower())]


# ---- cli_warm --------------------------------------------------------------

# Every valid IC model x measure combination, consecutive entries differing
# in both (the proposed measure needs a bounded model).
COMBOS = [(MODELS[i % 7], MEASURES[i % 6]) for i in range(42)
          if MEASURES[i % 6] != "proposed" or MODELS[i % 7] in BOUNDED]


def cli_round(r: int, rng: random.Random, pairs, words) -> list[tuple[str, list[str]]]:
    """Round ``r`` of ``cli_warm``: two ops of each kind that builds an IC
    table (sim, dcs, eval) and one of each that does not (ic --word,
    stats), in seeded order.

    The seed picks the words and the order; the models and measures walk
    through COMBOS round by round, so every run of a given length does the
    same kinds of work whatever its seed.  With six of the eight ops
    building a table, the median op is a table-building one.
    """
    kinds = ["sim", "dcs", "eval"] * 2 + ["ic", "stats"]
    rng.shuffle(kinds)
    walk = iter(COMBOS[(6 * r + i) % len(COMBOS)] for i in range(6))
    ops = []
    for kind in kinds:
        w1, w2 = rng.choice(pairs)
        if kind == "ic":
            args = ["ic", "--model", MODELS[r % len(MODELS)], "--word", rng.choice(words)]
        elif kind == "stats":
            args = ["stats"]
        else:
            model, measure = next(walk)
            if kind == "sim":
                args = ["sim", "--ic", model, "--measure", measure, "--show-senses", w1, w2]
            elif kind == "dcs":
                args = ["dcs", "--ic", model, "--measure", measure, w1, w2]
            else:
                args = ["--format", "json", "eval", "--dataset", "data/mc30.tsv",
                        "--ic", model, "--measure", measure]
        ops.append((kind, args))
    return ops


def run_cli_warm(c, seed: int, seconds: float, traced: bool, rundir: Path) -> dict:
    snapshot = str(rundir / "snapshot")
    base = ["--wordnet", c.path, "--cache", snapshot]
    plain = [sys.executable, "-m", "semsim.cli"]
    boot = [sys.executable, str(HERE / "cli_boot.py")]
    records = {"setup": [], "ops": []}

    def launch(args, trace_to):
        if trace_to is None:
            return run_process(plain + base + args)
        path = str(rundir / f"trace-{len(records[trace_to])}.json")
        result = run_process(boot + [path] + base + args)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                records[trace_to].append(json.load(fh))
            os.remove(path)
        return result

    outputs = []
    setup_s = []
    for _ in range(SETUPS):
        if os.path.exists(snapshot):
            os.remove(snapshot)
        status, out, err, wall, _ = launch(["stats"], "setup" if traced else None)
        setup_s.append(wall)
        if status != 0:
            raise RuntimeError(f"cold set-up run failed ({status}): {err.strip()}")
        outputs.append(("stats", ["stats"], out))
    snapshot_bytes = os.path.getsize(snapshot)

    rng = random.Random(seed)
    pairs, words = planted_pairs(c), list(c.planted)
    failed, rss, process_ms = [], [], []
    attempted = 0
    switch = TraceSwitch() if traced else None

    ops = []

    def run_round(r):
        nonlocal attempted
        ms = []
        if switch is None or r % 2 == 0:
            ops[:] = cli_round(r if switch is None else r // 2, rng, pairs, words)
        for kind, args in ops:
            attempted += 1
            status, out, err, wall, peak = launch(args, "ops" if switch and switch.on else None)
            if status != 0:
                failed.append(f"{' '.join(args)}: exit {status}: {err.strip()[-300:]}")
                continue
            ms.append(wall * 1e3)
            rss.append(peak)
            if switch and switch.on:
                process_ms.append(wall * 1e3)
            outputs.append((kind, args, out))
        return ms

    lat = rounds(seconds, switch, run_round)
    import_ms = [rec.pop("import_ms") for rec in records["ops"]]
    for rec in records["setup"]:
        rec.pop("import_ms")
    return {"latency": lat, "setup_s": setup_s, "peak_rss_mb": max(rss, default=0.0),
            "attempted": attempted, "failed": failed, "problems": [], "outputs": outputs,
            "trace": {"setup": tracing.merge(records["setup"]),
                      "ops": tracing.merge(records["ops"])} if traced else None,
            "extra": {"process_ms": p50(process_ms), "import_ms": p50(import_ms),
                      "snapshot_bytes": snapshot_bytes}}


class TraceSwitch:
    """Stands in for a trace in :func:`worker.rounds`: the traced rounds of
    ``cli_warm`` run their processes under ``cli_boot.py``."""

    on = False

    def install(self):
        self.on = True

    def uninstall(self):
        self.on = False


def check_cli(kind: str, args, out: str, c, o: Oracle) -> list[str]:
    """Problems found in one command's output (an empty list when correct)."""
    lines = out.splitlines()
    where = "semsim " + " ".join(args)
    if kind == "stats":
        got = dict(line.split(": ", 1) for line in lines)
        want = {"root": c.synset_ids[0], "node_max": str(len(c)),
                "deep_max": str(o.deep_max), "leaves_max": str(o.leaves_max)}
        bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        return [f"{where}: (got, want) {bad}"] if bad else []
    problems = []
    if kind == "ic":
        model, word = args[2], args[4]
        want = [c.synset_ids[x] for x in o.senses(word)]
        rows = [line.split("\t") for line in lines]
        if [r[0] for r in rows] != want:
            return [f"{where}: senses {[r[0] for r in rows]} != {want}"]
        for sid, _, value in rows:
            exact = o.ic(model, o.id_of[sid])
            if abs(float(value) - exact) > PRINT_TOL:
                problems.append(f"{where}: {sid} ic {value} vs oracle {exact:.6f}")
        return problems
    if kind == "eval":
        model, measure = args[6], args[8]
        got = json.loads(out)
        n_used, r = o.evaluate(corpus_mod.read_pairs(MC30), model, measure)
        if got["n_used"] != n_used or abs(got["pearson_raw"] - r) > SCORE_TOL:
            problems.append(f"{where}: n_used {got['n_used']} pearson {got['pearson_raw']!r}"
                            f" vs oracle {n_used} {r!r}")
        for p in got["pairs"]:
            want = o.word(model, measure, p["word1"], p["word2"])
            if abs(p["machine"] - want[0]) > SCORE_TOL:
                problems.append(f"{where}: {p['word1']}-{p['word2']} {p['machine']!r}"
                                f" vs oracle {want[0]!r}")
        return problems
    # sim and dcs print the chosen sense pair; dcs members follow
    model, measure, w1, w2 = args[2], args[4], args[-2], args[-1]
    best, _ = o.word(model, measure, w1, w2)
    sense_line = next((line for line in lines if line.startswith("senses: ")), "")
    fields = sense_line.split()
    if kind == "sim":
        if abs(float(lines[0]) - best) > PRINT_TOL:
            problems.append(f"{where}: printed {lines[0]} vs oracle {best:.6f}")
        a, b = fields[1], fields[4]
        members = lines[2][len("dcs: "):].split() if measure == "proposed" else None
    else:
        a, b = fields[1], fields[3]
        rows = [line.split("\t") for line in lines[1:]]
        members = [row[0] for row in rows]
        for sid, _, depth in rows:
            if depth != f"depth={o.depth[o.id_of[sid]]}":
                problems.append(f"{where}: {sid} {depth} vs oracle {o.depth[o.id_of[sid]]}")
    xa, xb = o.id_of[a], o.id_of[b]
    if abs(o.pair(model, measure, xa, xb) - best) > SCORE_TOL:
        problems.append(f"{where}: printed senses {a} x {b} do not attain the maximum")
    if members is not None:
        want = [c.synset_ids[x] for x in o.dcs(xa, xb)]
        if members != want:
            problems.append(f"{where}: dcs {members} vs oracle {want}")
    return problems


# ---- in-process workloads --------------------------------------------------

def run_in_process(workload: str, c, seed: int, seconds: float, traced: bool,
                   rundir: Path) -> dict:
    req = {"workload": workload, "corpus": c.path, "seed": seed, "seconds": seconds,
           "trace": traced, "src": str(SRC), "datasets": [str(WS201), str(MC30)]}
    if workload == "pair_stream":
        vocab = sorted(c.index)
        random.Random(seed).shuffle(vocab)  # Zipf rank order
        req["vocab"] = str(rundir / "vocab.txt")
        with open(req["vocab"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(vocab) + "\n")
    req_path, res_path = rundir / "request.json", rundir / "result.json"
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(req_path),
                             str(res_path)], cwd=ROOT, env=child_env())
    try:
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker ran over {CHILD_TIMEOUT_S} s") from None
    if status != 0:
        raise RuntimeError(f"{workload} worker failed with status {status}")
    with open(res_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["extra"] = {}
    return result


def check_grid(outputs, seed: int, o: Oracle) -> list[str]:
    datasets = {"wordsim201": corpus_mod.read_pairs(WS201), "mc30": corpus_mod.read_pairs(MC30)}
    expected_n = {"wordsim201": 197, "mc30": 30}
    rng = random.Random(seed)
    first: dict[str, list] = {}
    problems = []
    for op in outputs:
        name, rows = op["dataset"], op["rows"]
        pairs = datasets[name]
        if first.setdefault(name, rows) != rows:
            problems.append(f"grid {name}: differs from the first op on the same dataset")
        for row in rows:
            used = [(m, h) for m, (_, _, h) in zip(row["machine"], pairs) if m is not None]
            tag = f"grid {name} {row['ic_model']}:{row['measure']}"
            if row["n_used"] != expected_n[name] or len(used) != row["n_used"]:
                problems.append(f"{tag}: n_used {row['n_used']}, {len(used)} scored")
                continue
            r = statistics.correlation([m for m, _ in used], [h for _, h in used])
            if abs(r - row["pearson_raw"]) > SCORE_TOL:
                problems.append(f"{tag}: pearson_raw {row['pearson_raw']!r} vs its scores {r!r}")
        for _ in range(GRID_SAMPLES_PER_OP):
            row = rng.choice(rows)
            i = rng.randrange(len(pairs))
            w1, w2, _ = pairs[i]
            want = o.word(row["ic_model"], row["measure"], w1, w2)
            got = row["machine"][i]
            if (want is None) != (got is None) or (
                    got is not None and abs(got - want[0]) > SCORE_TOL):
                problems.append(f"grid {name} {row['ic_model']}:{row['measure']} {w1}-{w2}:"
                                f" {got!r} vs oracle {want and want[0]!r}")
    return problems


def check_pairs(samples, o: Oracle) -> list[str]:
    problems = []
    for s in samples:
        for measure, got in zip(MEASURES, s["scores"]):
            want, _ = o.word(s["model"], measure, s["w1"], s["w2"])
            if abs(got - want) > SCORE_TOL:
                problems.append(f"{s['model']}:{measure} {s['w1']}-{s['w2']}: {got!r}"
                                f" vs oracle {want!r}")
    return problems


# ---- main ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "semsim" / "cli.py", MC30, WS201) if not p.is_file()]
    if missing:
        print(f"run.py: not a semsim checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    c = prepare_corpus(args.seed)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.workload == "cli_warm":
            res = run_cli_warm(c, args.seed, args.seconds, bool(args.trace), rundir)
        else:
            res = run_in_process(args.workload, c, args.seed, args.seconds,
                                 bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    o = Oracle(c)
    problems = list(res["problems"])
    if args.workload == "cli_warm":
        for kind, op_args, out in res["outputs"]:
            try:
                problems += check_cli(kind, op_args, out, c, o)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                problems.append(f"semsim {' '.join(op_args)}: unreadable output ({exc!r})")
    elif args.workload == "grid_eval":
        problems += check_grid(res["outputs"], args.seed, o)
    else:
        problems += check_pairs(res["outputs"], o)
    for line in problems[:20] + res["failed"][:20]:
        print(line, file=sys.stderr)

    lat = res["latency"]
    ms = lat["untraced"] + lat["traced"]
    print(f"run.py: {args.workload} seed {args.seed}: {len(ms)} timed ops, latency ms"
          f" {' '.join(f'{x:.0f}' for x in ms[:12])}{' ...' if len(ms) > 12 else ''};"
          f" set-ups s {' '.join(f'{x:.2f}' for x in res['setup_s'])};"
          f" {len(res['failed'])} failed, {len(problems)} check problems", file=sys.stderr)
    if args.trace:
        traced_ops = len(lat["traced"])
        metrics = tracing.per_layer(
            res["trace"]["setup"], res["trace"]["ops"], traced_ops,
            dict(res["extra"], traced_ms_p50=p50(lat["traced"]),
                 untraced_ms_p50=p50(lat["untraced"])))
    else:
        ms = lat["untraced"]
        metrics = {
            "setup_s": {"value": p50(res["setup_s"]), "unit": "s"},
            "op_ms_p50": {"value": p50(ms), "unit": "ms"},
            "op_ms_p90": {"value": p90(ms), "unit": "ms"},
            "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3) if ms else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": len(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
