"""mpecpen benchmark: one client, closed loop, one process.

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 55 --trace 0

Workloads (see instances.py for the inputs and why each was chosen):

  solve-mix      one op = one penalty-continuation solve
  ground-truth   one op = one exact oracle / projection / fit query

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
stopping at the first block boundary after that.  ``--trace 1`` runs a
fixed number of blocks (set by ``--seconds``), each once with and once
without spans in alternating order, and reports the per-layer metrics and
the tracing overhead (traced minus untraced wall time); the traced
``solve-mix`` run also times the golden suite (``mpecpen reproduce all``)
once, case by case, for the ``reproduce`` layer.  Every op's output
is checked after the timed region.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat each metric with its unit, plus the machine stamp.  METRICS.md
lists every metric.  The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import mpecpen
except ImportError as exc:
    sys.exit(f"bench: cannot import the package from {SRC}: {exc}")
if not Path(mpecpen.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"bench: mpecpen was imported from {mpecpen.__file__}, not from {SRC}")

import workloads
from spans import Tracer
from mpecpen import reproduce

SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mpecpen.cli; "
                "print(time.perf_counter() - t)")

class Workload(NamedTuple):
    inputs: Callable        # (seed, blocks) -> generated plain data
    setup: Callable         # data -> blocks of ops, for the timed run
    traced_setup: Callable  # data -> blocks of ops, for the traced run
    blocks: Callable        # seconds -> blocks of inputs to generate
    traced_blocks: Callable  # seconds -> blocks the traced run executes, each twice
    golden: bool = False     # whether the traced run also times the golden suite


WORKLOADS = {
    "solve-mix": Workload(workloads.solve_mix_inputs, workloads.solve_mix_setup,
                          workloads.solve_mix_setup,
                          lambda s: s + 2, lambda s: max(1, round(s / 2.5)), golden=True),
    "ground-truth": Workload(workloads.ground_truth_inputs, workloads.ground_truth_setup,
                             workloads.ground_truth_setup,
                             lambda s: s // 2 + 2, lambda s: max(1, round(s / 8))),
}


def machine_stamp() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": _commit()}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(setup, data):
    """Median over SETUP_REPEATS of (fresh interpreter importing the
    package + turning the generated inputs into package objects through
    the public API).  Generating the inputs is the benchmark's own work
    and is not counted."""
    walls, imports = [], []
    built = None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=workloads.child_env(), capture_output=True, timeout=60)
        t_child = time.perf_counter() - t
        if proc.returncode != 0:
            sys.exit(f"bench: import probe failed: {proc.stderr.decode()[-400:]}")
        t = time.perf_counter()
        built = setup(data)
        walls.append(t_child + time.perf_counter() - t)
        imports.append(float(proc.stdout))
    return statistics.median(walls), statistics.median(imports), built


def _run_op(op, tracer):
    try:
        if tracer is None:
            return op.run(None), None
        with tracer.op_span(op.name):
            return op.run(tracer), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, f"raised {type(exc).__name__}: {exc}"


def timed_loop(blocks, seconds: float):
    """Whole blocks until ``seconds`` have passed; returns the op
    latencies, the results and each block's ops per second."""
    lat, results, rates = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        block = blocks[k % len(blocks)]
        t_block = time.perf_counter()
        for op in block:
            t = time.perf_counter()
            res, err = _run_op(op, None)
            lat.append(time.perf_counter() - t)
            results.append((op, res, err))
        rates.append(len(block) / (time.perf_counter() - t_block))
        k += 1
    return lat, results, rates


def traced_loop(blocks, count: int):
    """Each op of ``count`` blocks once untraced and once traced, the order
    alternating from op to op so that drift in machine speed cancels."""
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    results = []
    i = 0
    for k in range(count):
        for op in blocks[k % len(blocks)]:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                t = time.perf_counter()
                res, err = _run_op(op, tracer if traced else None)
                walls[traced] += time.perf_counter() - t
                results.append((op, res, err))
            i += 1
    return tracer, walls, results


def golden_pass():
    """The golden suite once, case by case, with spans of its own, so the
    solver counts of the traced blocks stay those of the workload; then
    once as ``python -m mpecpen reproduce all``, checked against the
    reference digest."""
    tracer = Tracer()
    results = [(op, *_run_op(op, tracer)) for op in workloads.reproduce_case_ops()]
    cli_op = workloads.reproduce_op()
    results.append((cli_op, *_run_op(cli_op, None)))
    return tracer, results


def check_all(results) -> tuple[int, int, list[str]]:
    failed, certified, reasons = 0, 0, []
    for op, res, err in results:
        try:
            reason = err if err is not None else op.check(res)
        except Exception as exc:  # a result the check cannot read is wrong
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            reasons.append(f"{op.name}: {reason}")
        elif op.certified(res):
            certified += 1
    return failed, certified, reasons


def tail_level(n: int) -> float:
    """Highest percentile with at least 10 samples beyond it, capped at
    90 and floored at the median."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def end_to_end(lat, rates, failed, certified, setup_s):
    lat_ms = np.asarray(lat) * 1e3
    n = lat_ms.size
    level = tail_level(n)
    metrics = {
        "setup_s": (setup_s, "s"),
        # median over blocks, so that one slow stretch of a shared host
        # moves it no more than it moves the median latency
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat_ms, 100 * level)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "feasible_ratio": (certified / n, "ratio"),
    }
    notes = [f"op_p90_ms is the p{100 * level:g} of {n} samples "
             f"({n - math.ceil(level * n)} beyond it)",
             f"ops_per_s is the median of {len(rates)} block rates",
             f"fail_ratio {failed / n!r} ({failed} of {n} ops failed)"]
    return metrics, notes


def _summ(summary, name):
    return summary.get(name, (0, 0.0, 0.0))


def per_layer(tracer: Tracer, walls: dict, import_s: float, golden: Tracer | None = None):
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return _summ(s, name)[0]

    def mean(name, scale):
        n, total, _ = _summ(s, name)
        return scale * total / n if n else 0.0

    enum = [v for k, v in s.items() if k.startswith("lcp_oracle.enumerate.")]
    enum_s = sum(v[1] for v in enum)
    bases = c.get("lcp_oracle.bases_explored", 0)
    solver_calls, solver_s, solver_self = _summ(s, "penalty_solver.solve")
    polls = calls("penalty_solver.tangent_poll")
    m = {
        "model.f_value_calls": (calls("model.f_value"), "count"),
        "model.f_value_us": (mean("model.f_value", 1e6), "us"),
        "residuals.residual_calls": (calls("residuals.residual"), "count"),
        "residuals.residual_us": (mean("residuals.residual", 1e6), "us"),
        "residuals.expansion_calls": (calls("residuals.expansion"), "count"),
        "residuals.expansion_us": (mean("residuals.expansion", 1e6), "us"),
        "residuals.sqrt_grad_calls": (calls("residuals.sqrt_grad"), "count"),
        "residuals.sqrt_grad_us": (mean("residuals.sqrt_grad", 1e6), "us"),
        "penalty_solver.solve_s": (solver_s, "s"),
        "penalty_solver.self_s": (solver_self, "s"),
        "penalty_solver.tangent_poll_calls": (polls, "count"),
        "penalty_solver.tangent_poll_us": (mean("penalty_solver.tangent_poll", 1e6), "us"),
        "penalty_solver.tangent_dirs_per_call":
            (c.get("penalty_solver.tangent_dirs", 0) / polls if polls else 0.0, "count"),
        "penalty_solver.evals_per_solve":
            (calls("model.f_value") / solver_calls if solver_calls else 0.0, "count"),
        "penalty_solver.outer_rounds": (c.get("penalty_solver.outer_rounds", 0), "count"),
    }
    for key in ("feasible", "infeasible", "limit"):
        m[f"penalty_solver.class.{key}"] = (c.get(f"penalty_solver.class.{key}", 0), "count")
    for order in (10, 12, 14):
        m[f"lcp_oracle.enumerate_ms.m{order}"] = (mean(f"lcp_oracle.enumerate.m{order}", 1e3), "ms")
    m.update({
        "lcp_oracle.us_per_basis": (1e6 * enum_s / bases if bases else 0.0, "us"),
        "lcp_oracle.bases_explored": (bases, "count"),
        "lcp_oracle.singular_bases": (c.get("lcp_oracle.singular_bases", 0), "count"),
        "lcp_oracle.solutions_found": (c.get("lcp_oracle.solutions_found", 0), "count"),
        "lcp_oracle.ptest_ms": (mean("lcp_oracle.ptest", 1e3), "ms"),
        "errorbound.project_ms": (mean("errorbound.project", 1e3), "ms"),
        "errorbound.project_calls": (calls("errorbound.project"), "count"),
        "errorbound.hoffman_s": (_summ(s, "errorbound.hoffman")[1], "s"),
        "errorbound.fit_us": (mean("errorbound.fit", 1e6), "us"),
    })
    cases = golden.summary() if golden is not None else {}
    for cid in reproduce.CASE_IDS:
        m[f"reproduce.case_s.{cid}"] = (_summ(cases, f"reproduce.case.{cid}")[1], "s")
    m["cli.import_s"] = (import_s, "s")
    overhead = walls[True] - walls[False]
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_pct"] = (100.0 * overhead / walls[False], "%")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    work = WORKLOADS[args.workload]
    stamp = machine_stamp()
    data = work.inputs(args.seed, work.blocks(args.seconds))
    setup_s, import_s, blocks = measure_setup(
        work.traced_setup if args.trace else work.setup, data)

    _run_op(blocks[0][0], None)  # warm-up: first-call set-up in numpy
    if args.trace:
        passes = work.traced_blocks(args.seconds)
        tracer, walls, results = traced_loop(blocks, passes)
        golden = None
        if work.golden:
            golden, golden_results = golden_pass()
            results += golden_results
    else:
        lat, results, rates = timed_loop(blocks, args.seconds)
    failed, certified, reasons = check_all(results)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(tracer, walls, import_s, golden)
        notes = [f"traced {passes} block(s) of {args.workload}, each also untraced: "
                 f"{walls[True]:.3f} s traced vs {walls[False]:.3f} s untraced"]
        ops = []
        tracer.write(OUT / f"{tag}-spans.npz")
    else:
        metrics, notes = end_to_end(lat, rates, failed, certified, setup_s)
        ops = [[op.name, 1e3 * t] for (op, _, _), t in zip(results, lat)]
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"machine": stamp, "notes": notes, "failures": reasons, **result, "ops_ms": ops},
        indent=1))

    for reason in reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"machine": stamp}))
    for note in notes:
        print(f"# {note}")
    for k, (v, u) in metrics.items():
        print(f"{k}\t{v!r}\t{u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
