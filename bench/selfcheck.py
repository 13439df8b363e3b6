"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. The input generator is deterministic per seed, and seeds differ.
2. Every op check accepts the program's real answer and rejects planted
   wrong answers (a perturbed y, a dropped solution, a wrong count, a
   wrong constant, a changed output byte).
3. The traced run's counts repeat exactly across two runs of one seed.

Exits 0 when all pass, 1 otherwise; prints one line per check.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run  # puts src/ on sys.path and refuses an installed copy

import numpy as np

import instances
import workloads
from mpecpen import KktPoint, solve_lcp_enumerate
from mpecpen.penalty_solver import CLASS_FEASIBLE, CLASS_INFEASIBLE

FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"[selfcheck] {name}: {'ok' if ok else 'FAIL'} {detail}".rstrip())
    if not ok:
        FAILURES.append(name)


def rejects(op, result, planted: str) -> None:
    reason = op.check(result)
    expect(f"{op.name} rejects {planted}", reason is not None, f"({reason})")


def accepts(op, result) -> None:
    reason = op.check(result)
    expect(f"{op.name} accepts the real answer", reason is None, f"({reason})" if reason else "")


def check_determinism() -> None:
    fixtures = workloads.ROOT / "fixtures"
    a = instances.solve_mix(7, fixtures, 3)
    expect("solve-mix inputs repeat per seed", a == instances.solve_mix(7, fixtures, 3))
    expect("solve-mix inputs differ across seeds", a != instances.solve_mix(8, fixtures, 3))
    b = instances.ground_truth(7, 2)
    expect("ground-truth inputs repeat per seed", b == instances.ground_truth(7, 2))
    expect("ground-truth inputs differ across seeds", b != instances.ground_truth(8, 2))


def check_solve_checks() -> None:
    block = workloads.solve_mix_setup(workloads.solve_mix_inputs(3, 4))
    fixture = block[0][0]  # lcp-param from a random start
    rep = fixture.run(None)
    accepts(fixture, rep)
    p = rep.final_point
    rejects(fixture, replace(rep, final_point=KktPoint(p.x, p.y + 0.05, p.lam)), "a perturbed y")
    problem = fixture.info["problem"]
    x = p.x + 0.3  # feasible but off the optimum: y and lambda follow the LCP at x
    y = solve_lcp_enumerate(problem.lcp_at(x)).points[0]
    lam = problem.lcp_at(x).slack(y)
    rejects(fixture, replace(rep, final_point=KktPoint(x, y, lam)),
            "a feasible point off the known optimum")
    rejects(fixture, replace(rep, residual_history=[*rep.residual_history[:-1], 1e-3]),
            "a FeasibleMinimizer with a large residual")
    rejects(fixture, replace(rep, classification=CLASS_INFEASIBLE),
            "an infeasible certificate at a feasible point")
    toy = block[3][0]
    rep = toy.run(None)
    accepts(toy, rep)
    if rep.classification == CLASS_FEASIBLE:
        rejects(toy, replace(rep, final_point=KktPoint([0.5], np.zeros(0), np.zeros(0))),
                "a toy point off the feasible set")
    else:
        rejects(toy, replace(rep, stationarity_measure=1.0), "a non-stationary trap")
    generated = block[0][1]
    rep = generated.run(None)
    accepts(generated, rep)
    rejects(generated, replace(rep, classification="IterationLimit"),
            "an iteration limit before max_outer")


def check_ground_truth_checks() -> None:
    cycle = workloads.ground_truth_setup(workloads.ground_truth_inputs(3, 1))[0]
    by_name = {op.name: op for op in cycle}
    for name in ("lcp-P-m10", "lcp-nonP-m10", "lcp-psd-m10"):
        op = by_name[name]
        sols, is_p = op.run(None)
        accepts(op, (sols, is_p))
        y = sols.points[0]
        rejects(op, (replace(sols, points=[y + 1e-3, *sols.points[1:]]), is_p), "a perturbed y")
        rejects(op, (replace(sols, points=sols.points[1:]), is_p), "a dropped solution")
        rejects(op, (replace(sols, bases_explored=sols.bases_explored - 1), is_p),
                "a wrong basis count")
        rejects(op, (sols, not is_p), "a wrong P-test answer")
    op = by_name["hoffman-p8"]
    est = op.run(None)
    accepts(op, est)
    rejects(op, replace(est, tau_max=1.1 * est.tau_max), "a wrong constant")
    rejects(op, replace(est, sample_count=est.sample_count - 1), "a wrong sample count")
    op = by_name["fit-m6"]
    sols, samples, est = op.run(None)
    accepts(op, (sols, samples, est))
    rejects(op, (sols, samples, replace(est, gamma_hat=est.gamma_hat + 1e-3)),
            "a wrong exponent")
    rejects(op, (replace(sols, points=[]), samples, est), "a dropped solution")
    rejects(op, (sols, [(2.0 * samples[0][0], samples[0][1]), *samples[1:]], est),
            "a wrong distance")


def check_reproduce_checks() -> None:
    op = workloads.reproduce_op()
    rc, out = op.run(None)
    accepts(op, (rc, out))
    rejects(op, (1, out), "a nonzero exit")
    rejects(op, (rc, out.replace(b"\tPASS\t", b"\tFAIL\t", 1)), "a FAIL row")
    rejects(op, (rc, out.replace(b"\n", b" \n", 1)), "one changed byte")
    rejects(op, (rc, out + b"trailing line\n"), "an extra output line")


def check_counts_repeat() -> None:
    for workload, count in (("solve-mix", 1), ("ground-truth", 1)):
        work = run.WORKLOADS[workload]
        blocks = work.traced_setup(work.inputs(5, count))
        counts = []
        for _ in range(2):
            tracer, walls, results = run.traced_loop(blocks, count)
            metrics = run.per_layer(tracer, walls, 0.0)
            counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
            failed, _, reasons = run.check_all(results)
            expect(f"{workload} traced ops pass their checks", failed == 0, "; ".join(reasons[:3]))
        diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
        expect(f"{workload} counts repeat exactly", not diff, ", ".join(diff))


def main() -> int:
    check_determinism()
    check_solve_checks()
    check_ground_truth_checks()
    check_reproduce_checks()
    check_counts_repeat()
    print(f"[selfcheck] {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
