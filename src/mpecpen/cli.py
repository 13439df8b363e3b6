"""Command-line front end.

Subcommands: solve, oracle, probe, reproduce, residual.  Everything on
stdout is machine-parseable (TSV rows and/or a JSON document); prose and
errors go to stderr.  Exit codes for solve: 0 feasible minimizer,
2 infeasible penalty-stationary point, 3 iteration limit, 1 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import MpecError
from .errorbound import (
    fit_exponent,
    hoffman_baseline,
    polyhedron_residual,
    project_polyhedron,
    ray_divergence_test,
    sample_cloud,
)
from .lcp_oracle import distance_to_solution_set, solve_lcp_enumerate
from .model import KktPoint, LcpInstance, eval_F, parse_problem_file
from .penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    PenaltyConfig,
    penalty_continuation,
    q5_toy_landscape,
    run_continuation,
)
from .residuals import ResidualSpec, min_residual, residual_value
from . import reproduce as repro

_EXIT_BY_CLASS = {CLASS_FEASIBLE: 0, CLASS_INFEASIBLE: 2, CLASS_LIMIT: 3}


def _parse_vector(text: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    return np.array([float(p) for p in parts])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in row.replace(",", " ").split()] for row in rows])


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=None,
                   help="penalty exponent in (0, 1]; defaults to the problem "
                        "file's exponent when it declares one, else 0.5")
    p.add_argument("--alpha0", type=float, default=1.0, help="initial penalty weight")
    p.add_argument("--growth", type=float, default=10.0, help="weight growth factor")
    p.add_argument("--eps-feas", type=float, default=1e-8, help="feasibility tolerance")
    p.add_argument("--eps-stat", type=float, default=1e-6, help="stationarity tolerance")
    p.add_argument("--max-outer", type=int, default=12)
    p.add_argument("--max-inner", type=int, default=5000)
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--residual", choices=("min", "product", "kkt"), default="kkt")
    p.add_argument("--variant", choices=("squared", "norm"), default="squared",
                   help="stationarity block of the kkt residual")
    p.add_argument("--start", type=str, default=None,
                   help="comma/space separated start: x, (x,y) or (x,y,lambda)")
    p.add_argument("--alpha-fixed", type=float, default=None,
                   help="freeze the penalty weight at this value")


def _config_from_args(args) -> PenaltyConfig:
    spec = ResidualSpec(kind=args.residual, norm=args.norm, gamma=args.gamma,
                        squared_stationarity=(args.variant == "squared"))
    alpha0 = args.alpha0
    fixed = args.alpha_fixed is not None
    if fixed:
        alpha0 = args.alpha_fixed
    return PenaltyConfig(alpha0=alpha0, growth=args.growth, eps_feas=args.eps_feas,
                         eps_stat=args.eps_stat, max_outer=args.max_outer,
                         max_inner=args.max_inner, gamma=args.gamma, residual=spec,
                         alpha_fixed=fixed)


def _start_point(problem, args) -> KktPoint | None:
    if args.start is None:
        return None
    vec = _parse_vector(args.start)
    n, m = problem.n, problem.m
    if vec.size == n + 2 * m:
        return problem.split(vec)
    if vec.size == n + m:
        x, y = vec[:n], vec[n:]
    elif vec.size == n:
        x, y = vec, np.zeros(m)
    else:
        raise MpecError(f"--start must have length {n}, {n + m} or {n + 2 * m}")
    lam = np.clip(eval_F(problem, x, y), 0.0, problem.multiplier_bound)
    return KktPoint(x, y, lam)


def _cmd_solve(args) -> int:
    try:
        doc = json.loads(Path(args.problem).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read problem file: {exc}")
    if args.gamma is None:
        file_gamma = doc.get("gamma") if isinstance(doc, dict) else None
        args.gamma = float(file_gamma) if file_gamma is not None else 0.5
    try:
        config = _config_from_args(args)
        if isinstance(doc, dict) and "toy" in doc:
            land = q5_toy_landscape()
            start = land.lower + 0.5 * (land.upper - land.lower)
            if args.start is not None:
                start = _parse_vector(args.start)
            report = run_continuation(land, config, start)
        else:
            problem = parse_problem_file(args.problem)
            report = penalty_continuation(problem, config, _start_point(problem, args))
    except (MpecError, ValueError) as exc:
        return _fail(str(exc))
    _emit(report.to_dict())
    return _EXIT_BY_CLASS[report.classification]


def _cmd_oracle(args) -> int:
    try:
        M = _parse_matrix(args.M)
        q = _parse_vector(args.q)
        lcp = LcpInstance(M, q)
    except (ValueError, MpecError) as exc:
        return _fail(f"bad matrix input: {exc}")
    try:
        sols = solve_lcp_enumerate(lcp)
    except MpecError as exc:
        return _fail(str(exc))
    if sols.empty_flag:
        print("[]")
    else:
        for p in sols.points:
            print(json.dumps(p.tolist()))
    if args.stats:
        print(json.dumps({"bases_explored": sols.bases_explored,
                          "singular_bases": sols.singular_bases}), file=sys.stderr)
    return 0


def _cmd_residual(args) -> int:
    try:
        problem = parse_problem_file(args.problem)
        x = _parse_vector(args.x)
        y = _parse_vector(args.y)
        lam = (_parse_vector(args.lam) if args.lam is not None
               else np.clip(eval_F(problem, x, y), 0.0, problem.multiplier_bound))
        spec = ResidualSpec(args.residual, args.norm, args.gamma,
                            squared_stationarity=(args.variant == "squared"))
        value = residual_value(problem, KktPoint(x, y, lam), spec)
    except (MpecError, ValueError) as exc:
        return _fail(str(exc))
    _emit({"kind": args.residual, "norm": args.norm, "value": value})
    return 0


def _probe_fixture(args) -> int:
    count, seed = args.count, args.seed
    rows: list[tuple[str, float, float]] = []
    summary: dict = {"fixture": args.fixture}
    samples = None  # (distance, residual) pairs of the exponent-fit fixtures
    if args.fixture == "linear-halfspace":
        cloud = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], count, seed)
        samples = [(max(p[0], 0.0), max(p[0], 0.0)) for p in cloud]
    elif args.fixture == "quad-scalar":
        cloud = sample_cloud(None, [[-1.0, 1.0]], count, seed)
        samples = [(abs(p[0]), p[0] ** 2) for p in cloud]
    elif args.fixture == "lcp-q2":
        doc = repro.load_case("quad-exponent").doc
        lcp = LcpInstance(doc["lcp_M"], doc["lcp_q"])
        sols = solve_lcp_enumerate(lcp)
        cloud = sample_cloud(lcp, doc["lcp_box"], count, seed)
        samples = [(distance_to_solution_set(p, sols),
                    min_residual(p, lcp.slack(p), "l2")) for p in cloud]
    elif args.fixture in ("hoffman-halfspace", "hoffman-corner"):
        cloud = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], count, seed)
        A, a = [[1.0, 0.0]], [0.0]
        B, b = ([[0.0, 1.0]], [0.0]) if args.fixture == "hoffman-corner" else ([], [])
        est = hoffman_baseline(A, a, B, b, cloud)
        for i, p in enumerate(cloud):
            r = polyhedron_residual(A, a, B, b, p)
            _, d = project_polyhedron(A, a, B, b, p)
            rows.append((str(i), r, d))
    else:
        return _fail(f"unknown fixture {args.fixture!r}")
    if samples is not None:
        est = fit_exponent(samples)
        rows = [(str(i), r, d) for i, (d, r) in enumerate(samples)]
    print("id\tresidual\tdistance")
    for sid, r, d in rows:
        print(f"{sid}\t{r!r}\t{d!r}")
    summary.update(est.to_dict())
    summary["flags"] = ["DEGENERATE"] if est.degenerate else []
    _emit(summary)
    return 0


def _probe_ray(args) -> int:
    if args.ray != "q1":
        return _fail(f"unknown ray fixture {args.ray!r}")
    doc = repro.load_case("q1-ray").doc
    lcp = LcpInstance(doc["M"], doc["q"])
    ray = (lcp, doc["base"], doc["direction"], doc["t_values"])
    rep_typo = ray_divergence_test(*ray)
    rep = ray_divergence_test(*ray, solutions=doc["nominal_solutions"])
    print("t\tresidual\tdistance")
    for s in rep.rows:
        print(f"{s.t!r}\t{s.residual!r}\t{s.distance!r}")
    flags = ["GLOBAL-BOUND-REFUTED"] if rep.refuted else []
    _emit({"ray": args.ray, "flags": flags, "note": rep.note,
           "enumerated_set_note": rep_typo.note})
    return 0


def _cmd_probe(args) -> int:
    if args.ray is None and args.fixture is None:
        return _fail("probe needs --fixture or --ray")
    try:
        return _probe_ray(args) if args.ray is not None else _probe_fixture(args)
    except (MpecError, OSError) as exc:
        return _fail(str(exc))


def _cmd_reproduce(args) -> int:
    ids = repro.CASE_IDS if args.case == "all" else (args.case,)
    try:
        results = repro.run_cases(ids)
    except MpecError as exc:
        return _fail(str(exc))
    summary = {"cases": {}, "passed": 0, "failed": 0}
    for res in results:
        for chk in res.checks:
            status = "PASS" if chk.passed else "FAIL"
            print(f"{res.case_id}\t{chk.name}\t{status}\t{chk.detail}")
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.case_id}\tOVERALL\t{status}\t{sum(c.passed for c in res.checks)}/{len(res.checks)}")
        summary["cases"][res.case_id] = status
        summary["passed" if res.passed else "failed"] += 1
    _emit(summary)
    return 0 if summary["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpecpen",
        description="Fractional-power exact penalties for LCP-constrained MPECs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run penalty continuation on a problem file")
    p.add_argument("problem", type=str)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="enumerate all LCP solutions")
    p.add_argument("--M", required=True, help="matrix, rows separated by ';'")
    p.add_argument("--q", required=True, help="vector")
    p.add_argument("--stats", action="store_true",
                   help="also write the basis counts to stderr as one JSON line")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("residual", help="evaluate one residual at a point")
    p.add_argument("problem", type=str)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--lam", default=None)
    p.add_argument("--residual", choices=("min", "product", "kkt"), default="kkt")
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--variant", choices=("squared", "norm"), default="norm")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("probe", help="error-bound probes: exponent fits, rays, baselines")
    p.add_argument("--fixture", type=str, default=None,
                   choices=("linear-halfspace", "quad-scalar", "lcp-q2",
                            "hoffman-halfspace", "hoffman-corner"))
    p.add_argument("--ray", type=str, default=None)
    p.add_argument("--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("reproduce", help="run the golden reproduction suite")
    p.add_argument("case", type=str, help="case id or 'all'")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
