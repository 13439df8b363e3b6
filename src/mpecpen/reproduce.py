"""Golden reproduction cases.

Each case loads its expected values from a fixture file (with inline
provenance tags), recomputes them through the library, and reports one
pass/fail check per expected value.  The case ids are stable identifiers
used by the command line.  The error-bound probe instances that
``mpecpen probe`` runs are defined here too, once, and the cases that
check them build on the same definitions.  Every probe is a sampler in
``SAMPLERS`` followed by an estimator.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import UnknownCase
from .errorbound import (
    ErrorBoundEstimate,
    RayDivergenceReport,
    _sharp_constant,
    fit_exponent,
    hoffman_baseline,
    polyhedron_residual,
    project_polyhedron,
    ray_divergence_test,
    sample_cloud,
)
from .lcp_oracle import distance_to_solution_set, parametric_solution_path, solve_lcp_enumerate
from .model import KktPoint, LcpInstance, parse_problem_file
from .penalty_solver import (
    CLASS_FEASIBLE,
    PenaltyConfig,
    check_stationarity,
    inner_minimize,
    penalty_continuation,
    q5_toy_landscape,
    random_starts,
    run_continuation,
)
from .residuals import (
    ResidualSpec,
    min_dirderiv,
    min_residual,
    penalized_objective,
    residual_value,
)

_PROVENANCE_TAGS = {"paper", "trivial", "derived"}


@dataclass
class ReproCase:
    id: str
    description: str
    expected: dict
    tolerance: float
    doc: dict


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CaseResult:
    case_id: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


def fixtures_dir() -> Path:
    env = os.environ.get("MPECPEN_FIXTURES")
    if env:
        return Path(env)
    repo = Path(__file__).resolve().parents[2] / "fixtures"
    if repo.is_dir():
        return repo
    return Path.cwd() / "fixtures"


def load_case(case_id: str) -> ReproCase:
    if case_id not in CASE_IDS:
        raise UnknownCase(f"unknown case {case_id!r}; known: {', '.join(CASE_IDS)}")
    path = fixtures_dir() / "repro" / f"{case_id}.json"
    doc = json.loads(path.read_text())
    return ReproCase(id=doc["id"], description=doc.get("description", ""),
                     expected=doc["expected"], tolerance=float(doc.get("tolerance", 0.0)),
                     doc=doc)


def _problem(case: ReproCase, key: str = "problem_file"):
    return parse_problem_file(fixtures_dir() / case.doc[key])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_provenance(case: ReproCase, result: CaseResult) -> None:
    bad = [name for name, entry in case.expected.items()
           if not (isinstance(entry, dict) and entry.get("provenance") in _PROVENANCE_TAGS)]
    result.add("provenance-tags", not bad,
               "missing/invalid tags: " + ", ".join(bad) if bad else "all expected values tagged")


def _sq_spec(gamma: float) -> ResidualSpec:
    return ResidualSpec("kkt", "l2", gamma, squared_stationarity=True)


# -- probe instances ------------------------------------------------------

_SQUARE = [[-1.0, 1.0], [-1.0, 1.0]]


def _halfspace_samples(count: int, seed: int) -> list:
    # distance to {p : p0 <= 0} and the residual [p0]_+ coincide
    cloud = sample_cloud(None, _SQUARE, count, seed)
    return [(max(p[0], 0.0), max(p[0], 0.0)) for p in cloud]


def _quad_samples(count: int, seed: int) -> list:
    # the zero set of p^2 is {0}: distance |p|, residual p^2
    cloud = sample_cloud(None, [[-1.0, 1.0]], count, seed)
    return [(abs(p[0]), p[0] ** 2) for p in cloud]


def _lcp_q2_samples(count: int, seed: int) -> list:
    doc = load_case("quad-exponent").doc
    lcp = LcpInstance(doc["lcp_M"], doc["lcp_q"])
    sols = solve_lcp_enumerate(lcp)
    cloud = sample_cloud(lcp, doc["lcp_box"], count, seed)
    return [(distance_to_solution_set(p, sols), min_residual(p, lcp.slack(p), "l2"))
            for p in cloud]


#: the linear systems (A, a, B, b), {z : A z <= a, B z = b}, of the Hoffman probes
HOFFMAN_SYSTEMS = {"hoffman-halfspace": ([[1.0, 0.0]], [0.0], [], []),
                   "hoffman-corner": ([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0])}


def _hoffman_samples(system, count: int, seed: int, box=_SQUARE) -> list:
    # one exact projection and one residual per point
    return [(project_polyhedron(*system, p)[1], polyhedron_residual(*system, p))
            for p in sample_cloud(None, box, count, seed)]


#: (distance, residual) samplers of the probes, by fixture name
SAMPLERS = {"linear-halfspace": _halfspace_samples, "quad-scalar": _quad_samples,
            "lcp-q2": _lcp_q2_samples,
            **{name: partial(_hoffman_samples, system)
               for name, system in HOFFMAN_SYSTEMS.items()}}


def probe_fixture(name: str, count: int, seed: int) -> tuple[list, ErrorBoundEstimate]:
    """(residual, distance) rows over a seeded cloud of ``count`` points, and
    the estimate: a Hoffman system's sharp constant, else the exponent fit."""
    samples = SAMPLERS[name](count, seed)
    estimate = _sharp_constant if name in HOFFMAN_SYSTEMS else fit_exponent
    return [(r, d) for d, r in samples], estimate(samples)


def q1_ray_reports(doc: dict) -> tuple[RayDivergenceReport, RayDivergenceReport]:
    """The ray of the ``q1-ray`` case document against the enumerated
    solution set (empty for the data as given) and against the nominal
    solutions."""
    ray = (LcpInstance(doc["M"], doc["q"]), doc["base"], doc["direction"], doc["t_values"])
    return (ray_divergence_test(*ray),
            ray_divergence_test(*ray, solutions=doc["nominal_solutions"]))


# -- cases ----------------------------------------------------------------

def _run_q1_ray(case: ReproCase, out: CaseResult) -> None:
    doc = case.doc
    rep, rep2 = q1_ray_reports(doc)
    want = case.expected["residual_on_ray"]["value"]
    worst = max(abs(s.residual - want) for s in rep.rows)
    out.add("residual-on-ray", worst <= case.tolerance,
            f"max deviation from {want!r}: {worst!r}")
    sols = solve_lcp_enumerate(LcpInstance(doc["M"], doc["q"]))
    out.add("oracle-set-empty", sols.empty_flag == case.expected["oracle_set_empty"]["value"],
            f"empty_flag={sols.empty_flag}, bases_explored={sols.bases_explored}")
    out.add("empty-set-note", "empty" in rep.note and not rep.refuted,
            f"note={rep.note[:48]!r}")
    out.add("refuted-vs-nominal",
            rep2.refuted == case.expected["refuted_vs_nominal"]["value"],
            f"refuted={rep2.refuted}, note={rep2.note[:24]!r}")


def _run_q2_bilevel_order1(case: ReproCase, out: CaseResult) -> None:
    prob = _problem(case)
    spec = _sq_spec(1.0)
    origin = KktPoint(np.zeros(1), np.zeros(1), np.zeros(1))
    ceilings = case.expected["penalized_ceiling"]["value"]
    for alpha, ceiling in zip(case.doc["alphas"], ceilings):
        z = inner_minimize(prob, alpha, spec, origin, 5000)
        phi = penalized_objective(prob, z, alpha, spec)
        fval = prob.f_value(z.x, z.y)
        out.add(f"escape-alpha-{alpha:g}",
                phi <= ceiling + case.tolerance and fval < 0.0,
                f"phi={phi!r} ceiling={ceiling!r} f={fval!r}")
    want = case.expected["origin_stationarity"]["value"]
    for alpha in (case.doc["alphas"][0], case.doc["alphas"][-1]):
        stat = check_stationarity(prob, origin, alpha, spec)
        out.add(f"origin-descent-alpha-{alpha:g}", _close(stat, want, 1e-12),
                f"stationarity={stat!r} want={want!r}")


def _run_q2_bilevel_sqrt(case: ReproCase, out: CaseResult) -> None:
    prob = _problem(case)
    spec = _sq_spec(0.5)
    quarter = KktPoint([0.0], [0.25], [0.25])
    phi = penalized_objective(prob, quarter, 2.0, spec)
    want = case.expected["penalized_at_quarter_point"]["value"]
    out.add("penalized-quarter-point", _close(phi, want, 1e-12), f"phi={phi!r}")
    origin = KktPoint(np.zeros(1), np.zeros(1), np.zeros(1))
    for alpha in case.doc["alphas"]:
        stat = check_stationarity(prob, origin, alpha, spec)
        out.add(f"origin-stationary-alpha-{alpha:g}", stat == 0.0,
                f"stationarity={stat!r}")
    count = case.doc["multistart_count"]
    seed = case.doc["multistart_seed"]
    worst = 0.0
    all_feasible = True
    for start in random_starts(prob, count, seed):
        rep = penalty_continuation(prob, PenaltyConfig(gamma=0.5), prob.split(start))
        worst = max(worst, abs(rep.final_objective))
        all_feasible = all_feasible and rep.classification == CLASS_FEASIBLE
    out.add("multistart-objective", worst <= case.tolerance and all_feasible,
            f"worst |f|={worst!r} over {count} starts, all feasible: {all_feasible}")


def _run_q3_dirderiv(case: ReproCase, out: CaseResult) -> None:
    for name in ("tie_case", "left_branch", "symmetric_tie"):
        entry = case.expected[name]
        got = min_dirderiv(*entry["args"])
        out.add(name.replace("_", "-"), got == entry["value"],
                f"got={got!r} want={entry['value']!r}")
    rng = np.random.default_rng(case.doc["secant_seed"])
    npts = case.doc["secant_points"]
    fails = 0
    for k in range(npts):
        u, v, du, dv = rng.normal(size=4)
        if k % 5 == 0:
            v = u  # exercise the tie branch as well
        dd = min_dirderiv(u, v, du, dv)
        if u == v:
            t = 0.1  # at a tie the secant is exact for every positive step
        else:
            t = 0.5 * abs(u - v) / (abs(du) + abs(dv) + 1.0)
        secant = (min(u + t * du, v + t * dv) - min(u, v)) / t
        if abs(secant - dd) > 1e-9 * (1.0 + abs(dd)):
            fails += 1
    out.add("secant-matches", fails == 0, f"failures={fails}/{npts}")


def _run_addq1_residual(case: ReproCase, out: CaseResult) -> None:
    prob = _problem(case)
    entry = case.expected["F_at_point"]
    F = prob.F(entry["x"], entry["y"])
    out.add("map-value", np.allclose(F, entry["value"], atol=case.tolerance),
            f"F={F.tolist()!r}")
    entry = case.expected["kkt_residual_l2"]
    z = KktPoint(entry["x"], entry["y"], entry["lambda"])
    r = residual_value(prob, z, ResidualSpec("kkt", "l2", 0.5))
    out.add("kkt-residual", _close(r, entry["value"], case.tolerance), f"r={r!r}")
    entry = case.expected["feasible_residual"]
    z = KktPoint(entry["x"], entry["y"], entry["lambda"])
    r = residual_value(prob, z, ResidualSpec("kkt", "l2", 0.5))
    out.add("feasible-residual", _close(r, entry["value"], case.tolerance), f"r={r!r}")


def _run_addq2_lcp(case: ReproCase, out: CaseResult) -> None:
    prob = _problem(case)
    xs = case.doc["x_values"]
    path = parametric_solution_path(prob.M, prob.qmap, [[x] for x in xs])
    want_sols = case.expected["solutions"]["value"]
    ok = True
    detail = []
    for (x, sols), want in zip(path, want_sols):
        got = [p.tolist() for p in sols.points]
        if len(got) != len(want) or any(
                np.linalg.norm(np.array(g) - np.array(w)) > case.tolerance
                for g, w in zip(got, want)):
            ok = False
        detail.append(f"x={x[0]:g}:{got!r}")
    out.add("solutions", ok, " ".join(detail))
    want_obj = case.expected["objectives"]["value"]
    objs = [prob.f_value(x, sols.points[0]) for (x, sols) in path]
    out.add("objectives", all(_close(a, b, 1e-10) for a, b in zip(objs, want_obj)),
            f"objectives={objs!r}")
    pts = case.expected["min_residuals_l1"]["points"]
    want_r = case.expected["min_residuals_l1"]["value"]
    rs = []
    for (x, y) in pts:
        w = prob.F([x], y)
        rs.append(min_residual(y, w, "l1"))
    out.add("min-residuals", all(_close(a, b, 1e-12) for a, b in zip(rs, want_r)),
            f"residuals={rs!r}")
    want_phi = case.expected["penalized_alpha4"]["value"]
    spec = ResidualSpec("min", "l1", 1.0)
    phis = []
    for (x, y) in pts:
        z = KktPoint([x], y, np.zeros(prob.m))
        phis.append(penalized_objective(prob, z, 4.0, spec))
    out.add("penalized-values", all(_close(a, b, 1e-12) for a, b in zip(phis, want_phi)),
            f"penalized={phis!r}")


def _run_addq3_sqrt_necessity(case: ReproCase, out: CaseResult) -> None:
    prob = _problem(case)
    spec1 = _sq_spec(1.0)
    want_vals = case.expected["order1_slice_values"]["value"]
    for alpha, want in zip(case.doc["alphas"], want_vals):
        y = 1.0 / (2.0 * alpha)
        z = KktPoint([0.0], [y], [y])
        phi = penalized_objective(prob, z, alpha, spec1)
        out.add(f"order1-negative-alpha-{alpha:g}",
                _close(phi, want, 1e-12) and phi < 0.0, f"phi={phi!r}")
    origin = KktPoint(np.zeros(1), np.zeros(1), np.zeros(1))
    z = inner_minimize(prob, case.doc["alphas"][0], spec1, origin, 5000)
    fval = prob.f_value(z.x, z.y)
    out.add("order1-escapes", fval < 0.0, f"f={fval!r}")
    rep = penalty_continuation(prob, PenaltyConfig(gamma=0.5), origin)
    out.add("sqrt-holds-origin",
            abs(rep.final_objective - case.expected["sqrt_final_objective"]["value"])
            <= case.tolerance
            and rep.classification == case.expected["sqrt_classification"]["value"],
            f"f={rep.final_objective!r} class={rep.classification}")


def _run_q5_infeasible(case: ReproCase, out: CaseResult) -> None:
    land = q5_toy_landscape()
    alpha = case.doc["fixed_alpha"]
    cfg = PenaltyConfig(alpha0=alpha, alpha_fixed=True, gamma=1.0)
    rep = run_continuation(land, cfg, np.array([case.doc["start_infeasible"]]))
    t = float(rep.final_point.x[0])
    want_t = case.expected["trap_location"]["value"]
    want_r = case.expected["trap_residual"]["value"]
    out.add("trap-classification",
            rep.classification == case.expected["trap_classification"]["value"],
            f"class={rep.classification}")
    out.add("trap-location", _close(t, want_t, case.tolerance), f"t={t!r}")
    out.add("trap-residual",
            _close(rep.final_residual, want_r, case.tolerance) and rep.final_residual > 0.5,
            f"r={rep.final_residual!r}")
    cfg2 = PenaltyConfig(alpha0=1.0, gamma=0.5)
    rep2 = run_continuation(land, cfg2, np.array([case.doc["start_feasible"]]))
    t2 = float(rep2.final_point.x[0])
    tol2 = case.expected["feasible_location"]["tolerance"]
    out.add("feasible-classification",
            rep2.classification == case.expected["feasible_classification"]["value"],
            f"class={rep2.classification}")
    out.add("feasible-location", abs(t2) <= tol2, f"t={t2!r}")


def _run_hoffman(case: ReproCase, out: CaseResult) -> None:
    doc = case.doc
    count, seed, box = doc["cloud_count"], doc["cloud_seed"], doc["cloud_box"]
    est = hoffman_baseline(*HOFFMAN_SYSTEMS["hoffman-halfspace"],
                           sample_cloud(None, box, count, seed))
    want = case.expected["halfspace_tau"]["value"]
    out.add("halfspace-tau", _close(est.tau_hat, want, case.tolerance),
            f"tau={est.tau_hat!r}")
    corner = _hoffman_samples(HOFFMAN_SYSTEMS["hoffman-corner"], count, seed, box)
    est2 = _sharp_constant(corner)
    cap = case.expected["corner_tau_cap"]["value"]
    out.add("corner-tau-cap", est2.tau_hat <= cap + case.tolerance,
            f"tau={est2.tau_hat!r} cap={cap!r}")
    # the bound checked on the samples its constant came from
    used = [(d, r) for d, r in corner if r > 1e-10]
    violations = sum(d > est2.tau_hat * r * (1.0 + 1e-9) + 1e-15 for d, r in used)
    out.add("aposteriori-holds", violations == 0,
            f"violations={violations}/{len(used)}")


def _run_quad_exponent(case: ReproCase, out: CaseResult) -> None:
    doc = case.doc
    count, seed = doc["cloud_count"], doc["cloud_seed"]
    est = fit_exponent(_halfspace_samples(count, seed))
    want = case.expected["halfspace_gamma"]["value"]
    out.add("halfspace-gamma", _close(est.gamma_hat, want, case.tolerance),
            f"gamma={est.gamma_hat!r}")
    est = fit_exponent(_quad_samples(count, seed))
    want = case.expected["quad_gamma"]["value"]
    out.add("quad-gamma", _close(est.gamma_hat, want, case.tolerance),
            f"gamma={est.gamma_hat!r}")
    est = fit_exponent(_lcp_q2_samples(count, seed))
    lo, hi = case.expected["lcp_gamma_bracket"]["value"]
    out.add("lcp-gamma-bracket", lo <= est.gamma_hat <= hi,
            f"gamma={est.gamma_hat!r} bracket=[{lo!r}, {hi!r}]")


_RUNNERS = {
    "q1-ray": _run_q1_ray,
    "q2-bilevel-order1": _run_q2_bilevel_order1,
    "q2-bilevel-sqrt": _run_q2_bilevel_sqrt,
    "q3-dirderiv": _run_q3_dirderiv,
    "addq1-residual": _run_addq1_residual,
    "addq2-lcp": _run_addq2_lcp,
    "addq3-sqrt-necessity": _run_addq3_sqrt_necessity,
    "q5-infeasible": _run_q5_infeasible,
    "hoffman": _run_hoffman,
    "quad-exponent": _run_quad_exponent,
}
#: the stable case ids, in the order ``reproduce all`` runs them
CASE_IDS = tuple(_RUNNERS)


def run_case(case_id: str) -> CaseResult:
    """Run one case's checks, then the provenance check every case ends with."""
    case = load_case(case_id)
    out = CaseResult(case.id)
    _RUNNERS[case_id](case, out)
    _check_provenance(case, out)
    return out
