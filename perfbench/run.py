"""Seeded benchmark of adrank's retrieval, tuning and model-selection
workflows.

    python3 perfbench/run.py --workload retrieval --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, plain then traced

Each workload generates its inputs from ``--seed`` (several times, to time
set-up), then repeats whole rounds of ``adrank`` commands, each in a fresh
interpreter, until ``--seconds`` of rounds have run. The first round's
outputs are checked against independent oracles; every later round must
reproduce them byte for byte. With ``--trace 1`` each plain round is
followed by a traced round, whose artifacts must equal the plain ones and
whose spans give the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end set of BENCHMARK.json without tracing, its per-layer set
with). A full record, spans included, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy

from harness import ROOT, Round, median, run_command, sha256

SETUP_REPEATS = 3


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_round(wl, rdir: Path, traced: bool) -> Round:
    rnd = Round(traced=traced)
    for label, args in wl.commands():
        spans = rdir / f".{label}.spans.json" if traced else None
        rnd.results.append(run_command(label, args, rdir, spans))
    for res in rnd.results:
        rnd.artifacts[f"stdout:{res.label}"] = sha256(rdir / f".{res.label}.stdout")
    for name in wl.artifact_files:
        if (rdir / name).exists():
            rnd.artifacts[name] = sha256(rdir / name)
    return rnd


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    from workloads import COMMAND_METRICS, COUNTS, WORKLOADS, CheckError, layer_metrics

    wl = WORKLOADS[name](seed, scale)
    base = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    errors: list[str] = []
    attempted = failed = 0
    plain_rounds: list[Round] = []
    traced_rounds: list[Round] = []
    layer_rows: list[dict] = []
    command_rows: list[dict] = []
    try:
        inputs = base / "in"
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            start = time.perf_counter()
            wl.setup(inputs)
            setup_times.append(time.perf_counter() - start)
        spent = 0.0
        for i in itertools.count():
            # every round writes fresh files in a fresh directory beside
            # ../in, then the directory goes: rewriting a file still queued
            # for write-back would make the command wait on the disk
            rdirs = [base / f"round{i}"] + ([base / f"round{i}-traced"] if trace else [])
            start = time.perf_counter()
            pair = []
            for rdir in rdirs:
                rdir.mkdir()
                pair.append(run_round(wl, rdir, traced=rdir.name.endswith("traced")))
            spent += time.perf_counter() - start
            for rnd, rdir in zip(pair, rdirs):
                ops = [(r.label, r.code == 0) for r in rnd.results] + wl.extra_ops(rdir)
                attempted += len(ops)
                failed += sum(not ok for _, ok in ops)
                bad = [f"{r.label} exited with code {r.code}" for r in rnd.results if r.code != 0]
                if bad:
                    errors += bad
                elif not plain_rounds:
                    try:
                        wl.check(rnd, rdir)
                    except CheckError as exc:
                        errors.append(str(exc))
                    except Exception as exc:  # malformed output: report it, keep the run
                        errors.append(f"checking the outputs raised {exc!r}")
                elif rnd.artifacts != plain_rounds[0].artifacts:
                    diff = sorted(k for k in rnd.artifacts if rnd.artifacts[k] != plain_rounds[0].artifacts.get(k))
                    kind = "traced" if rnd.traced else "repeated"
                    errors.append(f"{kind} round artifacts differ from the first round: {diff}")
                (traced_rounds if rnd.traced else plain_rounds).append(rnd)
            command_rows.append(wl.command_metrics(pair[0], rdirs[0]))
            if trace:
                layer_rows.append(layer_metrics(pair[1], pair[0]))
            for rdir in rdirs:
                shutil.rmtree(rdir)
            if spent >= seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics = {
        "setup_s": median(setup_times),
        # the fastest round: neighbours on a shared host slow whole bursts
        # of rounds (eval's qrels scans lose the shared cache and take up to
        # three times as long), which moves a median over a run's few rounds
        "run_s": min(r.wall_s for r in plain_rounds),
        "peak_rss_mb": median([max(c.rss_mb for c in r.results) for r in plain_rounds]),
    }
    commands = {k: median([row[k] for row in command_rows]) for k in command_rows[0]}
    layers = {}
    if trace:
        layers = {k: median([row[k] for row in layer_rows]) for k in layer_rows[0]}
        layers.update(dict.fromkeys(COUNTS + COMMAND_METRICS, 0.0))
        layers.update(wl.layer_counts())
        layers.update(commands)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale_name": scale,
        "scale": wl.scale,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "setup_times_s": setup_times,
        "end_to_end": metrics,
        "commands": commands,
        "per_layer": layers,
        "rounds": [
            {"traced": r.traced, "commands": [[c.label, c.wall_s, c.rss_mb, c.code] for c in r.results]}
            for r in plain_rounds + traced_rounds
        ],
        "spans": {c.label: c.spans for r in traced_rounds[:1] for c in r.results},
    }


def _result_line(record: dict, declared: list[dict]) -> dict:
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    names = [m["name"] for m in declared]
    missing = set(names) ^ set(source)
    if missing:
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(missing)}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared},
    }


def _report(record: dict, spec: dict):
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")  # fmt: skip
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = dict(record["end_to_end"])
    shown.update(record["commands"])
    if record["trace"]:
        shown.update(record["per_layer"])
    for name, value in shown.items():
        print(f"{name:56s} {value:16.6f} {units.get(name, '')}")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", "retrieval", "tuning", "selection"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="time of rounds to run (default: run_seconds of BENCHMARK.json); 0 runs one round")
    parser.add_argument("--trace", type=int, choices=[0, 1], help="default: plain then traced")
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adrank" / "cli.py").is_file():
        print(f"error: no adrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ["retrieval", "tuning", "selection"] if args.workload == "all" else [args.workload]
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {}
    for name in names:
        for trace in traces:
            record = run_workload(name, args.seed, seconds, trace, args.scale)
            key = f"{name}-seed{args.seed}-trace{int(trace)}"
            (out_dir / f"{key}.json").write_text(json.dumps(record))
            _report(record, spec)
            results[key] = _result_line(record, spec["per_layer" if trace else "end_to_end"])
    # one workload and mode: the result object itself; otherwise one per run
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
