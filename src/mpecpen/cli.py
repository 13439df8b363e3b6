"""Command-line front end.

Subcommands: solve, oracle, probe, reproduce, residual.  Everything on
stdout is machine-parseable (TSV rows and/or a JSON document); prose and
errors go to stderr.  Exit codes for solve: 0 feasible minimizer,
2 infeasible penalty-stationary point, 3 iteration limit, 1 bad input.
Bad input to any command, a usage error included, is reported as one
``error:`` line on stderr and exit code 1.
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
    _as_square,
    _as_vector,
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


def _parse_vector(text: str, flag: str, size: int | None = None) -> np.ndarray:
    """The comma/space separated numbers of ``text``, checked as a vector
    named by the flag that gave them."""
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise MpecError(f"{flag} must be numbers, got {text!r}") from None
    return _as_vector(values, flag, size)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(row, "--M") for row in text.split(";") if row.strip()]
    if len({row.size for row in rows}) > 1:
        raise MpecError("--M rows have unequal lengths")
    return _as_square(rows, "--M")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    # a usage error is bad input like any other: one error line and exit
    # code 1, not argparse's usage block and exit code 2
    def error(self, message):
        sys.exit(_fail(message))


def _unread(args, names, why: str) -> None:
    """Refuse the flags among ``names`` that were given, since the command
    would not read them, for the reason ``why``."""
    given = [f"--{name}" for name in names if getattr(args, name, None) is not None]
    if given:
        raise MpecError(f"{why}; drop {', '.join(given)}")


def _add_residual_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--residual", choices=("min", "product", "kkt"), help="(default kkt)")
    p.add_argument("--norm", choices=("l1", "l2"), help="(default l2)")
    p.add_argument("--variant", choices=("squared", "norm"), help="stationarity block "
                   "of the kkt residual (default squared for solve, norm for residual)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    d = PenaltyConfig()  # an omitted flag is None and leaves these defaults
    p.add_argument("--gamma", type=float,
                   help="penalty exponent in (0, 1]; defaults to the problem "
                        f"file's exponent when it declares one, else {d.gamma:g}")
    p.add_argument("--alpha0", type=float, help=f"initial penalty weight (default {d.alpha0:g})")
    p.add_argument("--growth", type=float, help=f"weight growth factor (default {d.growth:g})")
    p.add_argument("--eps-feas", type=float,
                   help=f"feasibility tolerance (default {d.eps_feas:g})")
    p.add_argument("--eps-stat", type=float,
                   help=f"stationarity tolerance (default {d.eps_stat:g})")
    p.add_argument("--max-outer", type=int, help=f"outer penalty rounds (default {d.max_outer})")
    p.add_argument("--max-inner", type=int,
                   help=f"penalized evaluations per round (default {d.max_inner})")
    _add_residual_flags(p)
    p.add_argument("--start", type=str, default=None,
                   help="comma/space separated start: x, (x,y) or (x,y,lambda)")
    p.add_argument("--alpha-fixed", type=float, default=None,
                   help="freeze the penalty weight at this value")


def _spec_from_args(args, variant: str) -> ResidualSpec:
    """The residual of --residual (default kkt), --norm (default l2) and
    --variant, whose default ``variant`` depends on the subcommand; only
    kkt reads --variant and --lam."""
    kind, norm = args.residual or "kkt", args.norm or "l2"
    if kind != "kkt":
        _unread(args, ("variant", "lam"),
                f"the {kind} residual has no stationarity block and reads no multiplier")
    squared = kind == "kkt" and (args.variant or variant) == "squared"
    if norm != "l2" and (squared or kind == "product"):
        unread = ("the squared kkt residual; it counts with --variant norm" if squared
                  else "the product residual")
        raise MpecError(f"--norm {norm} reads nothing in {unread}")
    return ResidualSpec(kind=kind, norm=norm, squared_stationarity=squared)


def _config_from_args(args, gamma) -> PenaltyConfig:
    """The config of the solver flags given; ``gamma``, the problem file's
    exponent or None, stands in for an omitted --gamma."""
    fields = ("gamma", "alpha0", "growth", "eps_feas", "eps_stat", "max_outer", "max_inner")
    given = {k: vars(args)[k] for k in fields if vars(args)[k] is not None}
    fixed = args.alpha_fixed is not None
    if fixed:
        _unread(args, ("alpha0", "growth"), "--alpha-fixed neither starts nor grows the weight")
        given["alpha0"] = args.alpha_fixed
    try:
        return PenaltyConfig(**({} if gamma is None else {"gamma": float(gamma)}), **given,
                             residual=_spec_from_args(args, "squared"), alpha_fixed=fixed)
    except ValueError as exc:
        # each PenaltyConfig refusal starts with the field it refuses: name
        # its flag, or the problem file, which can give only gamma
        field, _, rest = str(exc).partition(" ")
        flag = "--alpha-fixed" if fixed and field == "alpha0" else "--" + field.replace("_", "-")
        name = flag if field in given else f"{args.problem}: {field}"
        raise MpecError(f"{name} {rest}") from None


def _parse_start(text: str, sizes: tuple) -> np.ndarray:
    vec = _parse_vector(text, "--start")
    if vec.size not in sizes:
        raise MpecError(f"--start must have length {' or '.join(map(str, sizes))}, got {vec.size}")
    return vec


def _mpec_start(text: str | None, problem: MpecProblem) -> KktPoint | None:
    """--start given as x, (x, y) or (x, y, lambda): a missing y is zero and
    a missing lambda is warm-started.  None leaves the solver's default."""
    if text is None:
        return None
    n, m = problem.n, problem.m
    vec = _parse_start(text, (n, n + m, n + 2 * m))
    if vec.size == n + 2 * m:
        return problem.split(vec)
    return warm_point(problem, vec[:n], vec[n:] if vec.size > n else np.zeros(m))


def _cmd_solve(args) -> int:
    doc = read_problem_doc(args.problem)
    gamma = None if args.gamma is not None else doc.get("gamma")
    if gamma is not None and type(gamma) not in (int, float):
        raise SchemaError(f"{args.problem}: gamma must be a number, got {gamma!r}")
    toy = doc.get("toy")
    if toy is None:
        config = _config_from_args(args, gamma)
        problem = problem_from_dict(doc)
        report = penalty_continuation(problem, config, _mpec_start(args.start, problem))
    else:
        if toy != "q5-infeasible":
            raise SchemaError(f"unknown toy {toy!r} (known: q5-infeasible)")
        _unread(args, ("residual", "variant", "norm"),
                "the q5 toy has no lower level and reads no residual")
        config = _config_from_args(args, gamma)
        # a landscape without a lower level: --start is the whole point;
        # the default is the box midpoint
        land = q5_toy_landscape()
        z0 = (0.5 * (land.lower + land.upper) if args.start is None
              else _parse_start(args.start, (land.dim,)))
        report = run_continuation(land, config, z0)
    _emit(report.to_dict())
    return _EXIT_BY_CLASS[report.classification]


def _cmd_oracle(args) -> int:
    M = _parse_matrix(args.M)
    sols = solve_lcp_enumerate(LcpInstance(M, _parse_vector(args.q, "--q", len(M))))
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
    spec = _spec_from_args(args, "norm")
    problem = parse_problem_file(args.problem)
    x = _parse_vector(args.x, "--x", problem.n)
    y = _parse_vector(args.y, "--y", problem.m)
    z = (warm_point(problem, x, y) if args.lam is None
         else KktPoint(x, y, _parse_vector(args.lam, "--lam", problem.m)))
    _emit({"kind": spec.kind, "norm": spec.norm, "value": residual_value(problem, z, spec)})
    return 0


def _cmd_probe(args) -> int:
    if args.ray is not None:
        _unread(args, ("fixture", "count", "seed"), "--ray samples no point cloud")
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
    count = 400 if args.count is None else args.count
    seed = 0 if args.seed is None else args.seed
    if count < 1:
        raise MpecError("--count must be at least 1")
    if seed < 0:
        raise MpecError("--seed must be nonnegative")
    rows, est = repro.probe_fixture(args.fixture, count, seed)
    print("id\tresidual\tdistance")
    for i, (r, d) in enumerate(rows):
        print(f"{i}\t{r!r}\t{d!r}")
    _emit({"fixture": args.fixture, **dataclasses.asdict(est),
           "flags": ["DEGENERATE"] if est.degenerate else []})
    return 0


def _cmd_reproduce(args) -> int:
    ids = repro.CASE_IDS if args.case == "all" else (args.case,)
    summary = {"cases": {}, "passed": 0, "failed": 0}
    for res in map(repro.run_case, ids):
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
    parser = _Parser(
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
    _add_residual_flags(p)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("probe", help="error-bound probes: exponent fits, rays, baselines")
    p.add_argument("--fixture", type=str, default=None,
                   choices=tuple(repro.SAMPLERS))
    p.add_argument("--ray", type=str, default=None)
    p.add_argument("--count", type=int, default=None, help="cloud size (default 400)")
    p.add_argument("--seed", type=int, default=None, help="cloud seed (default 0)")
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
