"""Run the benchmark over several seeds and summarise it.

    python3 bench/record.py --workloads solve-mix ground-truth --seeds 10
    python3 bench/record.py --seeds 10 --trace --append bench/trajectory.json --label "..."
    python3 bench/record.py --seeds 10 --first-seed 11   # a second set, other seeds

For each workload, runs ``run.py`` once per seed (S..S+N-1) untraced and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median, as ``statistics.quantiles(v,
n=4)`` gives the quartiles) next to the metric's bound from
BENCHMARK.json.  ``--trace`` adds one traced run (the first seed) per workload.
``--append`` adds the summary as one entry to a JSON trajectory file, so
each change that touches a hot path records its before and after numbers
from the same tool on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"record: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["machine"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--append", type=Path, default=None)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    entry = {"label": args.label, "seconds": args.seconds, "seeds": [seeds.start, seeds.stop - 1],
             "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            machine, result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry["machine"] = machine
        summary = {"attempted": [r["attempted"] for r in runs],
                   "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for metric, first in runs[0]["metrics"].items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = first["unit"]
            summary["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:14s} {metric:15s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}", flush=True)
        if args.trace:
            _, traced = run_once(workload, seeds.start, args.seconds, 1)
            summary["per_layer"] = {k: v for k, v in traced["metrics"].items()}
            summary["per_layer_failed"] = traced["failed"]
        entry["workloads"][workload] = summary

    if args.append is not None:
        history = json.loads(args.append.read_text()) if args.append.exists() else []
        history.append(entry)
        args.append.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
