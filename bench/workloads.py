"""The workloads and the golden suite: set-up, ops and the independent
check of each op.

An op is a callable ``run(tracer)``; with ``tracer=None`` it calls the
package exactly as a user would, with a tracer it records spans around
the same calls.  Each op carries a ``check(result)`` that returns None
when the result is correct and a reason otherwise; checks use other code
paths than the op (the oracle for solver results, direct algebra for
oracle results) and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import instances
from spans import Tracer

from mpecpen import errorbound, lcp_oracle, penalty_solver, reproduce
from mpecpen import LcpInstance, problem_from_dict
from mpecpen.errorbound import fit_exponent, hoffman_baseline, project_polyhedron
from mpecpen.lcp_oracle import distance_to_solution_set, is_P_matrix, solve_lcp_enumerate
from mpecpen.penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    PenaltyConfig,
    landscape_from_problem,
    q5_toy_landscape,
    run_continuation,
)
from mpecpen.residuals import ResidualSpec, min_residual

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: distance from the final y to the oracle's solution set that a
#: FeasibleMinimizer must meet: eps_feas = 1e-8 on the squared residual
#: bounds the stationarity block at 1e-4, and the generated P-matrices are
#: well conditioned
Y_TOL = 1e-3
#: known optima must be met to this absolute tolerance
OPT_TOL = 1e-6
#: the toy's feasible set is {0}
TOY_TOL = 1e-3
LCP_TOL = 1e-8

#: holds the sha256 of the stdout of ``python -m mpecpen reproduce all`` at
#: the seed commit; the ROADMAP requires that output to stay byte-identical
REPRODUCE_DIGEST = ROOT / "bench" / "reproduce_all.sha256"


@dataclass
class Op:
    name: str
    run: Callable[[Optional[Tracer]], Any]
    check: Callable[[Any], Optional[str]]
    #: whether a result that passed its check counts toward
    #: ``feasible_ratio``: a FeasibleMinimizer for solve ops, always otherwise
    certified: Callable[[Any], bool] = lambda result: True
    info: dict = field(default_factory=dict)


# -- solve-mix ------------------------------------------------------------

def _solve_op(entry: dict) -> Op:
    conf = dict(entry["config"])
    res = conf.pop("residual")
    spec = ResidualSpec(kind=res["kind"], norm=res["norm"], gamma=conf["gamma"],
                        squared_stationarity=res["squared_stationarity"])
    config = PenaltyConfig(residual=spec, **conf)
    problem = problem_from_dict(entry["doc"]) if entry["doc"] is not None else None
    z0 = np.asarray(entry["start"], dtype=float)
    optimum = entry["optimum"]

    def run(tracer):
        if problem is None:
            land = q5_toy_landscape()
        else:
            land = landscape_from_problem(problem, config.effective_spec())
        solve = run_continuation
        if tracer is not None:
            land = tracer.wrap_landscape(land)
            solve = tracer.wrap("penalty_solver.solve", run_continuation,
                                lambda rep: record_report(tracer, rep))
        return solve(land, config, z0)

    def check(rep) -> Optional[str]:
        cls, r = rep.classification, rep.final_residual
        if cls == CLASS_INFEASIBLE:
            if r <= config.eps_feas or rep.stationarity_measure > config.eps_stat:
                return f"infeasible certificate fails: r={r!r} stat={rep.stationarity_measure!r}"
            return None
        if cls == CLASS_LIMIT:
            if len(rep.alpha_history) != config.max_outer or r <= config.eps_feas:
                return f"iteration-limit certificate fails: rounds={len(rep.alpha_history)} r={r!r}"
            return None
        if cls != CLASS_FEASIBLE:
            return f"unknown classification {cls!r}"
        if r > config.eps_feas:
            return f"FeasibleMinimizer with residual {r!r} > eps_feas"
        point = rep.final_point
        if problem is None:
            return None if abs(float(point.x[0])) <= TOY_TOL else f"toy feasible at t={point.x[0]!r}"
        if np.any(point.x < problem.x_box[:, 0]) or np.any(point.x > problem.x_box[:, 1]):
            return "final x outside the box"
        sols = solve_lcp_enumerate(problem.lcp_at(point.x))
        if sols.empty_flag:
            return "oracle finds no LCP solution at the final x"
        dist = distance_to_solution_set(point.y, sols)
        if dist > Y_TOL:
            return f"final y is {dist!r} from the LCP solution set"
        f = problem.f_value(point.x, point.y)
        if optimum is not None and f < optimum - OPT_TOL:
            return f"objective {f!r} below the optimum {optimum!r}"
        if entry["family"] == "fixture" and optimum is not None and f > optimum + OPT_TOL:
            return f"objective {f!r} misses the known optimum {optimum!r}"
        return None

    return Op(entry["name"], run, check,
              certified=lambda rep: rep.classification == CLASS_FEASIBLE,
              info={"problem": problem})


def record_report(tracer: Tracer, rep) -> None:
    tracer.count("penalty_solver.outer_rounds", len(rep.alpha_history))
    key = {CLASS_FEASIBLE: "feasible", CLASS_INFEASIBLE: "infeasible",
           CLASS_LIMIT: "limit"}[rep.classification]
    tracer.count(f"penalty_solver.class.{key}")


def solve_mix_inputs(seed: int, blocks: int) -> list[list[dict]]:
    return instances.solve_mix(seed, ROOT / "fixtures", blocks)


def solve_mix_setup(data: list[list[dict]]) -> list[list[Op]]:
    return [[_solve_op(e) for e in block] for block in data]


# -- ground-truth ---------------------------------------------------------

def _lcp_op(entry: dict) -> Op:
    lcp = LcpInstance(entry["M"], entry["q"])
    m = entry["m"]
    planted = [np.asarray(y) for y in entry["planted"]]

    def run(tracer):
        enum, ptest = solve_lcp_enumerate, is_P_matrix
        if tracer is not None:
            enum = tracer.wrap(f"lcp_oracle.enumerate.m{m}", solve_lcp_enumerate,
                               lambda s: record_solutions(tracer, s))
            ptest = tracer.wrap("lcp_oracle.ptest", is_P_matrix)
        return enum(lcp), ptest(lcp.M)

    def check(result) -> Optional[str]:
        sols, is_p = result
        if sols.bases_explored != 2 ** m:
            return f"bases_explored {sols.bases_explored} != 2^{m}"
        scale = max(1.0, float(np.max(np.abs(lcp.q))))
        for y in sols.points:
            w = lcp.M @ y + lcp.q
            if (np.min(y) < -LCP_TOL * scale or np.min(w) < -LCP_TOL * scale
                    or abs(float(y @ w)) > LCP_TOL * scale ** 2):
                return f"returned y is not an LCP solution: {y.tolist()!r}"
        for y in planted:
            if not sols.points or min(np.linalg.norm(y - p) for p in sols.points) > LCP_TOL:
                return "a planted solution is missing"
        if is_p != entry["is_P"]:
            return f"is_P_matrix={is_p} but the {entry['family']} family says {entry['is_P']}"
        if entry["is_P"] and len(sols.points) != 1:
            return f"P-matrix LCP with {len(sols.points)} solutions"
        return None

    return Op(entry["name"], run, check)


def record_solutions(tracer: Tracer, sols) -> None:
    tracer.count("lcp_oracle.bases_explored", sols.bases_explored)
    tracer.count("lcp_oracle.singular_bases", sols.singular_bases)
    tracer.count("lcp_oracle.solutions_found", len(sols.points))


def _hoffman_op(entry: dict) -> Op:
    A = np.asarray(entry["A"])
    a = np.asarray(entry["a"])
    cloud = [np.asarray(x) for x in entry["cloud"]]

    def run(tracer):
        if tracer is None:
            return hoffman_baseline(A, a, [], [], cloud)
        with tracer.patched([(errorbound, "project_polyhedron", "errorbound.project")]):
            return tracer.wrap("errorbound.hoffman", hoffman_baseline)(A, a, [], [], cloud)

    def check(est) -> Optional[str]:
        ratios = []
        for x in cloud:
            z, d = project_polyhedron(A, a, [], [], x)
            if np.max(A @ z - a) > 1e-9:
                return "projection is outside the polyhedron"
            if abs(d - float(np.linalg.norm(z - x))) > 1e-12 * max(1.0, d):
                return "projection distance does not match the point"
            # optimality: x - z = A_J' mu with mu >= 0 on the active rows
            act = np.abs(A @ z - a) <= 1e-9
            mu, *_ = np.linalg.lstsq(A[act].T, x - z, rcond=None) if act.any() \
                else (np.zeros(0),)
            if np.linalg.norm(A[act].T @ mu - (x - z)) > 1e-8 or np.any(mu < -1e-9):
                return "projection fails its KKT conditions"
            r = float(np.sum(np.maximum(A @ x - a, 0.0)))
            if r > errorbound.R_FLOOR:
                ratios.append(d / r)
        if est.sample_count != len(ratios):
            return f"sample_count {est.sample_count} != {len(ratios)}"
        if ratios and abs(est.tau_max - max(ratios)) > 1e-9 * max(ratios):
            return f"tau {est.tau_max!r} is not the max ratio {max(ratios)!r}"
        return None

    return Op(entry["name"], run, check)


def _fit_op(entry: dict) -> Op:
    lcp = LcpInstance(entry["M"], entry["q"])
    cloud = [np.asarray(x) for x in entry["cloud"]]
    planted = np.asarray(entry["planted"][0])

    def run(tracer):
        enum, dist, fit = solve_lcp_enumerate, distance_to_solution_set, fit_exponent
        if tracer is not None:
            enum = tracer.wrap(f"lcp_oracle.enumerate.m{lcp.order}", solve_lcp_enumerate,
                               lambda s: record_solutions(tracer, s))
            dist = tracer.wrap("lcp_oracle.distance", distance_to_solution_set)
            fit = tracer.wrap("errorbound.fit", fit_exponent)
        sols = enum(lcp)
        samples = [(dist(p, sols), min_residual(p, lcp.slack(p), "l2")) for p in cloud]
        return sols, samples, fit(samples)

    def check(result) -> Optional[str]:
        sols, samples, est = result
        if len(sols.points) != 1 or np.linalg.norm(sols.points[0] - planted) > LCP_TOL:
            return "the P-matrix LCP must have exactly the planted solution"
        for p, (d, _) in zip(cloud, samples):
            if abs(d - float(np.linalg.norm(p - planted))) > 1e-12 * max(1.0, d):
                return "distance to the solution set is wrong"
        used = [(d, r) for d, r in samples if d > 0.0 and r > errorbound.R_FLOOR]
        d_arr = np.array([d for d, _ in used])
        r_arr = np.array([r for _, r in used])
        slope, _ = np.polyfit(np.log(r_arr), np.log(d_arr), 1)
        if est.sample_count != len(used) or abs(est.gamma_hat - slope) > 1e-9:
            return f"gamma_hat {est.gamma_hat!r} != least-squares slope {float(slope)!r}"
        if np.any(d_arr > est.tau_max * r_arr ** est.gamma_hat * (1.0 + 1e-9)):
            return "tau_max does not certify the fitted bound on the cloud"
        return None

    return Op(entry["name"], run, check)


def ground_truth_inputs(seed: int, cycles: int) -> list[list[dict]]:
    return instances.ground_truth(seed, cycles)


def ground_truth_setup(data: list[list[dict]]) -> list[list[Op]]:
    makers = {"lcp": _lcp_op, "hoffman": _hoffman_op, "fit": _fit_op}
    return [[makers[e["kind"]](e) for e in cycle] for cycle in data]


# -- golden suite (traced solve-mix run) -----------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("MPECPEN_FIXTURES", None)
    return env


def check_reproduce_output(rc: int, out: bytes) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.decode().splitlines()
    bad = [ln[:40] for ln in lines[:-1] if ln.split("\t")[2:3] != ["PASS"]]
    if bad:
        return "rows not PASS: " + ", ".join(bad[:5])
    if not lines or json.loads(lines[-1]).get("failed") != 0:
        return "summary reports failed cases"
    if hashlib.sha256(out).hexdigest() != REPRODUCE_DIGEST.read_text().split()[0]:
        return "stdout differs from the reference digest"
    return None


def reproduce_op() -> Op:
    """``python -m mpecpen reproduce all`` in a child process, the command
    users run; its stdout must stay byte-identical."""
    cmd = [sys.executable, "-m", "mpecpen", "reproduce", "all"]
    env = child_env()

    def run(tracer):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    return Op("reproduce-all", run, lambda result: check_reproduce_output(*result))


def _reproduce_case_op(cid: str) -> Op:
    """One golden case through ``reproduce.run_case`` in this process: the
    traced form of the reproduce-all command, case by case (a child process
    cannot be traced from here)."""

    def run(tracer):
        if tracer is None:
            return reproduce.run_case(cid)
        land_from_problem = penalty_solver.landscape_from_problem
        toy = reproduce.q5_toy_landscape

        def on_report(rep):
            if isinstance(rep, penalty_solver.SolveReport):
                record_report(tracer, rep)

        solver = [(reproduce, name, "penalty_solver.solve", on_report)
                  for name in ("penalty_continuation", "run_continuation",
                               "inner_minimize", "check_stationarity")]
        with tracer.patched([
            *solver,
            (reproduce, "solve_lcp_enumerate", "lcp_oracle.enumerate.small",
             lambda s: record_solutions(tracer, s)),
            (lcp_oracle, "solve_lcp_enumerate", "lcp_oracle.enumerate.small",
             lambda s: record_solutions(tracer, s)),
            (errorbound, "solve_lcp_enumerate", "lcp_oracle.enumerate.small",
             lambda s: record_solutions(tracer, s)),
            (reproduce, "distance_to_solution_set", "lcp_oracle.distance"),
            (reproduce, "hoffman_baseline", "errorbound.hoffman"),
            (reproduce, "project_polyhedron", "errorbound.project"),
            (errorbound, "project_polyhedron", "errorbound.project"),
            (reproduce, "fit_exponent", "errorbound.fit"),
        ]):
            penalty_solver.landscape_from_problem = \
                lambda *a: tracer.wrap_landscape(land_from_problem(*a))
            reproduce.q5_toy_landscape = lambda: tracer.wrap_landscape(toy())
            try:
                return tracer.wrap(f"reproduce.case.{cid}", reproduce.run_case)(cid)
            finally:
                penalty_solver.landscape_from_problem = land_from_problem
                reproduce.q5_toy_landscape = toy

    def check(result) -> Optional[str]:
        return None if result.passed else f"case {cid} fails"

    return Op(f"reproduce-case-{cid}", run, check)


def reproduce_case_ops() -> list[Op]:
    """The golden suite case by case; the fixtures are parsed first, so
    that a case's time is its run."""
    os.environ.pop("MPECPEN_FIXTURES", None)  # the shipped fixtures, as in child_env
    for cid in reproduce.CASE_IDS:
        reproduce.load_case(cid)
    return [_reproduce_case_op(cid) for cid in reproduce.CASE_IDS]
