"""Command-line front end.

Subcommands: solve, oracle, probe, reproduce, residual.  Everything on
stdout is machine-parseable (TSV rows and/or a JSON document); prose and
errors go to stderr.  Exit codes for solve: 0 feasible minimizer,
2 infeasible penalty-stationary point, 3 iteration limit, 1 bad input.
Bad input to any command is reported once, by ``main``: one ``error:``
line on stderr and exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import MpecError, SchemaError, UnknownCase
from .lcp_oracle import solve_lcp_enumerate
from .model import (
    KktPoint,
    LcpInstance,
    MpecProblem,
    parse_problem_file,
    problem_from_dict,
    read_problem_doc,
    warm_point,
)
from .penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    PenaltyConfig,
    penalty_continuation,
    q5_toy_landscape,
    run_continuation,
)
from .residuals import ResidualSpec, residual_value
from . import reproduce as repro

_EXIT_BY_CLASS = {CLASS_FEASIBLE: 0, CLASS_INFEASIBLE: 2, CLASS_LIMIT: 3}


def _parse_vector(text: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    return np.array([float(p) for p in parts])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[float(v) for v in row.replace(",", " ").split()]
            for row in text.split(";") if row.strip()]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows have unequal lengths")
    return np.array(rows)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=None,
                   help="penalty exponent in (0, 1]; defaults to the problem "
                        "file's exponent when it declares one, else 0.5")
    p.add_argument("--alpha0", type=float, default=None,
                   help="initial penalty weight (default 1)")
    p.add_argument("--growth", type=float, default=None,
                   help="weight growth factor (default 10)")
    p.add_argument("--eps-feas", type=float, default=1e-8, help="feasibility tolerance")
    p.add_argument("--eps-stat", type=float, default=1e-6, help="stationarity tolerance")
    p.add_argument("--max-outer", type=int, default=12)
    p.add_argument("--max-inner", type=int, default=5000)
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--residual", choices=("min", "product", "kkt"), default="kkt")
    p.add_argument("--variant", choices=("squared", "norm"), default=None,
                   help="stationarity block of the kkt residual (default squared)")
    p.add_argument("--start", type=str, default=None,
                   help="comma/space separated start: x, (x,y) or (x,y,lambda)")
    p.add_argument("--alpha-fixed", type=float, default=None,
                   help="freeze the penalty weight at this value")


def _spec_from_args(args, variant: str) -> ResidualSpec:
    """The residual of --residual, --norm and --variant, whose default
    ``variant`` depends on the subcommand."""
    if args.variant is not None:
        if args.residual != "kkt":
            raise MpecError(f"--variant names a kkt residual's stationarity block; "
                            f"the {args.residual} residual has none")
        variant = args.variant
    squared = args.residual == "kkt" and variant == "squared"
    if args.norm != "l2" and (squared or args.residual == "product"):
        unread = ("the squared kkt residual; it counts with --variant norm" if squared
                  else "the product residual")
        raise MpecError(f"--norm {args.norm} reads nothing in {unread}")
    return ResidualSpec(kind=args.residual, norm=args.norm, squared_stationarity=squared)


def _config_from_args(args) -> PenaltyConfig:
    fixed = args.alpha_fixed is not None
    if fixed and (args.alpha0 is not None or args.growth is not None):
        raise MpecError("--alpha0 and --growth have no effect with --alpha-fixed")
    # an omitted weight flag leaves the PenaltyConfig default
    weights = {"alpha0": args.alpha_fixed if fixed else args.alpha0, "growth": args.growth}
    return PenaltyConfig(**{k: v for k, v in weights.items() if v is not None},
                         eps_feas=args.eps_feas, eps_stat=args.eps_stat,
                         max_outer=args.max_outer, max_inner=args.max_inner,
                         gamma=args.gamma, residual=_spec_from_args(args, "squared"),
                         alpha_fixed=fixed)


def _mpec_start(text: str | None, problem: MpecProblem) -> KktPoint | None:
    """--start given as x, (x, y) or (x, y, lambda): a missing y is zero and
    a missing lambda is warm-started.  None leaves the solver's default."""
    if text is None:
        return None
    vec = _parse_vector(text)
    n, m = problem.n, problem.m
    if vec.size == n + 2 * m:
        return problem.split(vec)
    if vec.size not in (n, n + m):
        raise MpecError(f"--start has length {vec.size}, expected one of "
                        f"{sorted({n, n + m, n + 2 * m})}")
    return warm_point(problem, vec[:n], vec[n:] if vec.size > n else np.zeros(m))


def _cmd_solve(args) -> int:
    doc = read_problem_doc(args.problem)
    if args.gamma is None:
        gamma = doc.get("gamma")
        if gamma is not None and type(gamma) not in (int, float):
            raise SchemaError(f"{args.problem}: gamma must be a number, got {gamma!r}")
        args.gamma = 0.5 if gamma is None else float(gamma)
    config = _config_from_args(args)
    toy = doc.get("toy")
    if toy == "q5-infeasible":
        # a landscape without a lower level: --start is the whole point,
        # checked by run_continuation; the default is the box midpoint
        land = q5_toy_landscape()
        z0 = (0.5 * (land.lower + land.upper) if args.start is None
              else _parse_vector(args.start))
        report = run_continuation(land, config, z0)
    elif toy is not None:
        raise SchemaError(f"unknown toy {toy!r} (known: q5-infeasible)")
    else:
        problem = problem_from_dict(doc)
        report = penalty_continuation(problem, config, _mpec_start(args.start, problem))
    _emit(report.to_dict())
    return _EXIT_BY_CLASS[report.classification]


def _cmd_oracle(args) -> int:
    sols = solve_lcp_enumerate(LcpInstance(_parse_matrix(args.M), _parse_vector(args.q)))
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
    problem = parse_problem_file(args.problem)
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    z = (warm_point(problem, x, y) if args.lam is None
         else KktPoint(x, y, _parse_vector(args.lam)))
    value = residual_value(problem, z, _spec_from_args(args, "norm"))
    _emit({"kind": args.residual, "norm": args.norm, "value": value})
    return 0


def _cmd_probe(args) -> int:
    if args.ray is not None:
        if args.ray != "q1":
            raise UnknownCase(f"unknown ray fixture {args.ray!r}")
        rep_enumerated, rep = repro.q1_ray_reports(repro.load_case("q1-ray").doc)
        print("t\tresidual\tdistance")
        for s in rep.rows:
            print(f"{s.t!r}\t{s.residual!r}\t{s.distance!r}")
        flags = ["GLOBAL-BOUND-REFUTED"] if rep.refuted else []
        _emit({"ray": args.ray, "flags": flags, "note": rep.note,
               "enumerated_set_note": rep_enumerated.note})
        return 0
    if args.fixture is None:
        raise MpecError("probe needs --fixture or --ray")
    rows, est = repro.probe_fixture(args.fixture, args.count, args.seed)
    print("id\tresidual\tdistance")
    for i, (r, d) in enumerate(rows):
        print(f"{i}\t{r!r}\t{d!r}")
    _emit({"fixture": args.fixture, **dataclasses.asdict(est),
           "flags": ["DEGENERATE"] if est.degenerate else []})
    return 0


def _cmd_reproduce(args) -> int:
    ids = repro.CASE_IDS if args.case == "all" else (args.case,)
    summary = {"cases": {}, "passed": 0, "failed": 0}
    for res in repro.run_cases(ids):
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
    parser.set_defaults(error_prefix="", input_errors=(MpecError, ValueError, OSError))
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
    p.set_defaults(func=_cmd_oracle, error_prefix="bad matrix input: ")

    p = sub.add_parser("residual", help="evaluate one residual at a point")
    p.add_argument("problem", type=str)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--lam", default=None)
    p.add_argument("--residual", choices=("min", "product", "kkt"), default="kkt")
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--variant", choices=("squared", "norm"), default=None,
                   help="stationarity block of the kkt residual (default norm)")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("probe", help="error-bound probes: exponent fits, rays, baselines")
    p.add_argument("--fixture", type=str, default=None,
                   choices=(*repro.SAMPLERS, *repro.HOFFMAN_SYSTEMS))
    p.add_argument("--ray", type=str, default=None)
    p.add_argument("--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("reproduce", help="run the golden reproduction suite")
    p.add_argument("case", type=str, help="case id or 'all'")
    # a case id is the only input: anything but MpecError is a library bug
    p.set_defaults(func=_cmd_reproduce, input_errors=(MpecError,))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop without a word, and point stdout at
        # devnull so that the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except args.input_errors as exc:
        return _fail(f"{args.error_prefix}{exc}")


if __name__ == "__main__":
    sys.exit(main())
