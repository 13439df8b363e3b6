"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s or -rA to see them)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpecpen import (
    KktPoint,
    LcpInstance,
    ResidualSpec,
    distance_to_solution_set,
    grad_penalized_sqrt,
    min_dirderiv,
    min_residual,
    parametric_solution_path,
    penalized_objective,
    residual_value,
    solve_lcp_enumerate,
)
from mpecpen.errorbound import (
    fit_exponent,
    hoffman_baseline,
    polyhedron_residual,
    project_polyhedron,
    ray_divergence_test,
    sample_cloud,
)
from mpecpen.penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    PenaltyConfig,
    check_stationarity,
    inner_minimize,
    landscape_from_problem,
    penalty_continuation,
    q5_toy_landscape,
    random_starts,
    run_continuation,
)

ROOT = Path(__file__).resolve().parents[1]
SQ = ResidualSpec("kkt", "l2", 0.5, squared_stationarity=True)
SQ1 = ResidualSpec("kkt", "l2", 1.0, squared_stationarity=True)


def report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_ray_residual():
    lcp = LcpInstance([[0.0, -1.0], [1.0, 0.0]], [-1.0, 2.0])
    want = math.sqrt(5.0)
    worst = 0.0
    for t in (1.0, 10.0, 100.0, 10000.0):
        z = np.array([t, 1.0])
        worst = max(worst, abs(min_residual(z, lcp.slack(z), "l2") - want))
    rep = ray_divergence_test(lcp, [0.0, 1.0], [1.0, 0.0], [1.0, 10.0, 100.0, 10000.0],
                              solutions=[[1.0, 1.0], [0.0, 2.0]])
    report(1, "ray residual", worst <= 1e-12 and rep.refuted,
           f"max |r - sqrt5| = {worst:.2e}, refuted = {rep.refuted}")


def test_c02_directional_derivative():
    exact = min_dirderiv(0.0, 0.0, 1.0, -2.0)
    rng = np.random.default_rng(0)
    fails = 0
    for k in range(1000):
        u, v, du, dv = rng.normal(size=4)
        if k % 4 == 0:
            v = u
        dd = min_dirderiv(u, v, du, dv)
        ts = [0.1, 1e-4] if u == v else \
            [0.5 * abs(u - v) / (abs(du) + abs(dv) + 1.0)]
        for t in ts:
            secant = (min(u + t * du, v + t * dv) - min(u, v)) / t
            if abs(secant - dd) > 1e-9 * (1.0 + abs(dd)):
                fails += 1
    report(2, "directional derivative", exact == -2.0 and fails == 0,
           f"tie value = {exact}, secant failures = {fails}/1000")


def test_c03_square_root_necessity(bilevel):
    origin = KktPoint([0.0], [0.0], [0.0])
    ok = True
    details = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        z = inner_minimize(bilevel, alpha, SQ1, origin, 5000)
        phi = penalized_objective(bilevel, z, alpha, SQ1)
        ok = ok and phi <= -1.0 / (8.0 * alpha) + 1e-9
        details.append(f"phi({alpha:g})={phi:.2e}")
    for alpha in (1.0, 2.0, 4.0, 8.0):
        stat = check_stationarity(bilevel, origin, alpha, SQ)
        ok = ok and stat == 0.0
    land = landscape_from_problem(bilevel, SQ)
    worst = 0.0
    for alpha0 in (1.0, 2.0, 4.0, 8.0):
        cfg = PenaltyConfig(alpha0=alpha0, gamma=0.5)
        for start in random_starts(bilevel, 20, seed=0):
            rep = run_continuation(land, cfg, start)
            worst = max(worst, abs(rep.final_objective))
            ok = ok and rep.classification == CLASS_FEASIBLE
    ok = ok and worst <= 1e-3
    report(3, "square-root necessity", ok,
           f"{'; '.join(details)}; multistart worst |f| = {worst:.2e}")


def test_c04_parametric_lcp(lcp_param):
    want = [[[0.0, 0.0]], [[0.5, 0.0]], [[1.0, 1.0]]]
    path = parametric_solution_path(lcp_param.M, lcp_param.qmap, [[0.0], [1.0], [2.0]])
    worst = 0.0
    ok = True
    for (x, sols), w in zip(path, want):
        if len(sols.points) != len(w):
            ok = False
            continue
        for got, exp in zip(sols.points, w):
            worst = max(worst, float(np.max(np.abs(got - np.array(exp)))))
    ok = ok and worst <= 1e-10
    xs = [[x] for x in np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)]
    grid_path = parametric_solution_path(lcp_param.M, lcp_param.qmap, xs)
    grid_opt = min(lcp_param.f_value(x, s.points[0]) for x, s in grid_path)
    rep = penalty_continuation(lcp_param, PenaltyConfig(gamma=0.5),
                               KktPoint([2.0], [0.0, 0.0], [0.0, 0.0]))
    solve_ok = (rep.final_residual <= 1e-8
                and abs(rep.final_objective - grid_opt) <= 1e-3)
    report(4, "parametric LCP", ok and solve_ok,
           f"coord dev = {worst:.2e}; f = {rep.final_objective:.6f} vs grid {grid_opt:.6f}, "
           f"r = {rep.final_residual:.2e}")


def test_c05_exponent_recovery():
    cloud = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], 400, seed=0)
    est_lin = fit_exponent([(max(p[0], 0.0), max(p[0], 0.0)) for p in cloud])
    cloud1 = sample_cloud(None, [[-1.0, 1.0]], 400, seed=0)
    est_quad = fit_exponent([(abs(p[0]), p[0] ** 2) for p in cloud1])
    lcp = LcpInstance([[2.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])
    sols = solve_lcp_enumerate(lcp)
    cloud2 = sample_cloud(lcp, [[-1.0, 2.0], [-1.0, 2.0]], 400, seed=0)
    est_lcp = fit_exponent([(distance_to_solution_set(p, sols),
                             min_residual(p, lcp.slack(p), "l2")) for p in cloud2])
    ok = (abs(est_lin.gamma_hat - 1.0) <= 1e-6
          and abs(est_quad.gamma_hat - 0.5) <= 1e-6
          and 0.9 <= est_lcp.gamma_hat <= 1.1)
    report(5, "exponent recovery", ok,
           f"gammas: {est_lin.gamma_hat:.8f}, {est_quad.gamma_hat:.8f}, "
           f"{est_lcp.gamma_hat:.4f}")


def test_c06_hoffman_baseline():
    cloud = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], 300, seed=3)
    est = hoffman_baseline([[1.0, 0.0]], [0.0], [], [], cloud)
    ok = abs(est.tau_hat - 1.0) <= 1e-9
    violations = 0
    total = 0
    for (A, a, B, b) in ([[[1.0, 0.0]], [0.0], [], []],
                         [[[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0]]):
        e = hoffman_baseline(A, a, B, b, cloud)
        for x in cloud:
            r = polyhedron_residual(A, a, B, b, x)
            if r <= 1e-10:
                continue
            total += 1
            _, d = project_polyhedron(A, a, B, b, x)
            if d > e.tau_hat * r * (1.0 + 1e-9) + 1e-15:
                violations += 1
    ok = ok and violations == 0
    report(6, "Hoffman baseline", ok,
           f"tau = {est.tau_hat!r}; bound violations = {violations}/{total}")


def test_c07_infeasible_local_min_detection():
    land = q5_toy_landscape()
    rep_a = run_continuation(land, PenaltyConfig(alpha0=2.0, alpha_fixed=True, gamma=1.0),
                             np.array([3.0]))
    ok_a = (rep_a.classification == CLASS_INFEASIBLE and rep_a.final_residual > 0.5)
    rep_b = run_continuation(land, PenaltyConfig(gamma=0.5), np.array([0.1]))
    t_b = float(rep_b.final_point.x[0])
    ok_b = rep_b.classification == CLASS_FEASIBLE and abs(t_b) <= 1e-6
    report(7, "infeasible-local-min detection", ok_a and ok_b,
           f"trap: {rep_a.classification} r = {rep_a.final_residual:.4f} "
           f"t = {float(rep_a.final_point.x[0]):.4f}; feasible leg t = {t_b:.2e}")


def test_c08_gradient_check(lcp_param, bilevel, addq1):
    rng = np.random.default_rng(13)
    alpha = 2.0
    h = 1e-6
    worst = 0.0
    for p in (lcp_param, bilevel, addq1):
        dim = p.n + 2 * p.m
        lo = p.z_lower + 0.05
        hi = p.z_upper - 0.05
        checked = 0
        while checked < 100:
            zv = lo + rng.random(dim) * (hi - lo)
            z = p.split(zv)
            if residual_value(p, z, SQ) <= 1e-3:
                continue
            g = grad_penalized_sqrt(p, z, alpha)
            fd = np.zeros(dim)
            for j in range(dim):
                zp = zv.copy(); zp[j] += h
                zm = zv.copy(); zm[j] -= h
                fp = (p.f_value(zp[:p.n], zp[p.n:p.n + p.m])
                      + alpha * math.sqrt(residual_value(p, p.split(zp), SQ)))
                fm = (p.f_value(zm[:p.n], zm[p.n:p.n + p.m])
                      + alpha * math.sqrt(residual_value(p, p.split(zm), SQ)))
                fd[j] = (fp - fm) / (2 * h)
            rel = float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)))
            worst = max(worst, rel)
            checked += 1
    report(8, "gradient check", worst <= 1e-5,
           f"worst relative deviation = {worst:.2e} over 300 points")


def test_c09_oracle_property_suite(lcp_param, bilevel, addq1):
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(200):
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, m))
        M = A.T @ A + np.eye(m)
        q = rng.normal(size=m) * 2.0
        sols = solve_lcp_enumerate(LcpInstance(M, q))
        if len(sols.points) != 1:
            ok = False
            break
        y = sols.points[0]
        w = M @ y + q
        if not (np.all(y >= -1e-10) and np.all(w >= -1e-10) and abs(y @ w) <= 1e-10):
            ok = False
            break
    spec = ResidualSpec("kkt", "l2", 0.5)
    tol = 1e-12
    equiv_fail = 0
    for p in (lcp_param, bilevel, addq1):
        dim = p.n + 2 * p.m
        pts = rng.uniform(-1.5, 2.5, size=(10_000, dim))
        for xv in np.linspace(p.x_box[0, 0], p.x_box[0, 1], 3):
            for y in solve_lcp_enumerate(p.lcp_at([xv])).points:
                pts = np.vstack([pts, np.concatenate([[xv], y, p.F([xv], y)])])
        for row in pts:
            z = p.split(row)
            r = residual_value(p, z, spec)
            s = p.F(z.x, z.y) - z.lam
            feas = (np.max(np.abs(s)) <= tol and np.min(z.y) >= -tol
                    and np.min(z.lam) >= -tol and np.max(np.abs(z.lam * z.y)) <= tol)
            if (r <= tol) != feas:
                equiv_fail += 1
    ok = ok and equiv_fail == 0
    report(9, "oracle property suite", ok,
           f"200 P-matrix LCPs unique; zero-set mismatches = {equiv_fail}")


def test_c10_reproduce_determinism():
    cmd = [sys.executable, "-m", "mpecpen", "reproduce", "all"]
    r1 = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    r2 = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    ok = (r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout)
    summary = json.loads(r1.stdout.decode().splitlines()[-1]) if r1.stdout else {}
    report(10, "reproduce-all determinism", ok,
           f"exit codes = ({r1.returncode}, {r2.returncode}), "
           f"byte-identical = {r1.stdout == r2.stdout}, "
           f"cases passed = {summary.get('passed')}")
