import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpecpen import model, penalty_solver, residuals
from mpecpen import (
    AffineParamMap,
    DimensionMismatch,
    KktPoint,
    MpecProblem,
    QuadObjective,
    ResidualSpec,
    parametric_solution_path,
    parse_problem_file,
    penalized_objective,
    problem_from_dict,
    solve_lcp_enumerate,
)
from mpecpen.penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    INNER_TOL,
    PenaltyConfig,
    _compass,
    _coordinate_polls,
    _polls,
    check_stationarity,
    default_start,
    inner_minimize,
    landscape_from_problem,
    penalty_continuation,
    q5_toy_landscape,
    random_starts,
    run_continuation,
    stationarity_measure,
)

SQ = ResidualSpec("kkt", "l2", 0.5, squared_stationarity=True)
SQ1 = ResidualSpec("kkt", "l2", 1.0, squared_stationarity=True)
ORIGIN = KktPoint([0.0], [0.0], [0.0])
ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(growth=1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(gamma=0.0)
        with pytest.raises(ValueError, match="max_outer"):
            PenaltyConfig(max_outer=0)
        with pytest.raises(ValueError, match="max_inner"):
            PenaltyConfig(max_inner=-5)
        for name in ("eps_feas", "eps_stat"):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                PenaltyConfig(**{name: 0.0})
        # NaN passes every ordering test, so finiteness is checked first
        for name in ("alpha0", "growth", "eps_feas", "eps_stat"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    PenaltyConfig(**{name: bad})
        with pytest.raises(ValueError, match="alpha0 must be finite"):
            PenaltyConfig(alpha0=float("inf"), alpha_fixed=True)
        PenaltyConfig(growth=1.0, alpha_fixed=True)  # growth unused when fixed
        PenaltyConfig(max_outer=1, max_inner=0)

    def test_effective_spec_overrides_gamma(self):
        cfg = PenaltyConfig(gamma=1.0)
        assert cfg.effective_spec().gamma == 1.0


class TestInnerMinimize:
    def test_zero_budget_returns_start(self, lcp_param):
        z0 = KktPoint([1.5], [0.5, 0.5], [0.5, 0.5])
        z = inner_minimize(lcp_param, 1.0, SQ, z0, budget=0)
        assert np.array_equal(z.to_z(), z0.to_z())

    def test_alpha_zero_minimizes_objective(self, lcp_param):
        # f = (x-1)^2 + 2 y1 + y2 has box minimum 0 at x = 1, y = 0
        z0 = KktPoint([2.0], [1.0, 1.0], [1.0, 1.0])
        z = inner_minimize(lcp_param, 0.0, SQ, z0, budget=5000)
        assert lcp_param.f_value(z.x, z.y) == pytest.approx(0.0, abs=1e-8)

    def test_bilevel_sqrt_reaches_optimum(self, bilevel):
        z0 = KktPoint([1.0], [1.0], [1.0])
        z = inner_minimize(bilevel, 2.0, SQ, z0, budget=5000)
        phi = penalized_objective(bilevel, z, 2.0, SQ)
        assert abs(phi) <= 1e-4
        # coarse grid certificate that 0 is the box minimum at alpha = 2,
        # on the landscape whose values penalized_objective computes
        land = landscape_from_problem(bilevel, SQ)
        pts = np.linspace(0.0, 2.0, 41)
        best = min(land.penalized(np.array([x, u, l]), 2.0, SQ.gamma)
                   for x in pts for u in pts for l in pts)
        assert best >= -1e-9

    def test_monotone_descent_and_box(self, lcp_param):
        history = []

        def cb(z, phi):
            assert np.all(z >= lcp_param.z_lower - 1e-15)
            assert np.all(z <= lcp_param.z_upper + 1e-15)
            history.append(phi)

        z0 = KktPoint([2.0], [2.0, 2.0], [2.0, 2.0])
        inner_minimize(lcp_param, 3.0, SQ, z0, budget=3000, callback=cb)
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
        assert history[-1] <= penalized_objective(lcp_param, z0, 3.0, SQ)


class TestStationarity:
    def test_sqrt_origin_stationary(self, bilevel):
        for alpha in (1.0, 2.0, 4.0, 8.0):
            assert check_stationarity(bilevel, ORIGIN, alpha, SQ) == 0.0

    def test_order1_origin_descends(self, bilevel):
        for alpha in (1.0, 7.0, 1000.0):
            assert check_stationarity(bilevel, ORIGIN, alpha, SQ1) == pytest.approx(1.0)

    def test_interior_smooth_zero_gradient(self):
        # with the penalty off, an interior stationary point of a strictly
        # convex objective has measure zero
        qmap = AffineParamMap([[-1.0], [0.0]], [0.0, 0.0])
        obj = QuadObjective([[2.0]], np.zeros((1, 2)), 2.0 * np.eye(2),
                            [-2.0], [-1.0, -1.0], 0.0)
        p = MpecProblem(obj, [[0.0, 2.0]], np.eye(2), qmap, 2.0)
        z = KktPoint([1.0], [0.5, 0.5], [1.0, 1.0])
        assert check_stationarity(p, z, 0.0, SQ) == 0.0
        # and a non-stationary interior point reports the descent rate
        z2 = KktPoint([1.5], [0.5, 0.5], [1.0, 1.0])
        assert check_stationarity(p, z2, 0.0, SQ) == pytest.approx(1.0)

    def test_tangent_poll_descent_is_not_certified(self, lcp_param):
        # a feasible point with f = 2.25 (the optimum is 0.75): every signed
        # coordinate direction is flat or ascends, but the tangent poll
        # d = (-1, -0.5, -1, 0, 0) keeps the residual flat to second order
        # and lowers f at rate 3
        z = KktPoint([1.5], [0.75, 0.5], [0.0, 0.0])
        for alpha in (1.0, 2.0, 10.0):
            assert check_stationarity(lcp_param, z, alpha, SQ) == 3.0

    @pytest.mark.parametrize("seed", range(4))
    def test_measure_covers_the_coordinate_measure(self, seed):
        # the poll set contains the signed coordinates, so the measure is
        # never below the coordinate-only one; some coordinates sit on a
        # face of the box, where the rows leaving it are skipped
        rng = np.random.default_rng(seed)
        for i, (kind, norm, squared, gamma, _) in enumerate(instances.RESIDUAL_SETTINGS):
            doc = _generated_doc(rng, i)
            land = _setting_landscape(problem_from_dict(doc), kind, norm, squared, gamma)
            coords_only = replace(land, tangent_polls=None)
            for _ in range(5):
                z = land.lower + rng.random(land.dim) * (land.upper - land.lower)
                face = rng.random(land.dim)
                z = np.where(face < 0.2, land.lower, np.where(face > 0.9, land.upper, z))
                for alpha in (0.0, 1.0, 100.0):
                    full = stationarity_measure(land, z, alpha, gamma)
                    assert full >= stationarity_measure(coords_only, z, alpha, gamma)


BAD_ALPHA_CALLS = {
    "check_stationarity": lambda p, z, a: check_stationarity(p, z, a, SQ),
    "inner_minimize": lambda p, z, a: inner_minimize(p, a, SQ, z, budget=100),
    "penalized_objective": lambda p, z, a: penalized_objective(p, z, a, SQ),
    "penalized_dirderiv": lambda p, z, a: residuals.penalized_dirderiv(
        p, z, np.ones(p.n + 2 * p.m), a, SQ),
    "grad_penalized_sqrt": lambda p, z, a: residuals.grad_penalized_sqrt(p, z, a),
}


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "-1"])
@pytest.mark.parametrize("call", sorted(BAD_ALPHA_CALLS))
def test_bad_alpha_rejected(lcp_param, call, alpha):
    # NaN passes an ``alpha < 0`` test, so finiteness is checked too;
    # unchecked, each of these gives a wrong answer rather than an error
    with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
        BAD_ALPHA_CALLS[call](lcp_param, default_start(lcp_param), alpha)


def reference_tangent_dirs(problem, spec, base, degen):
    """The tangent rows of the activity pattern ``base`` (and of
    ``base | degen``) as the per-step loop computed them before the
    stacked completions: one solve, finiteness test and rate product per
    signed unit step."""
    n, m = problem.n, problem.m
    kernel = residuals.penalty_kernel(problem, spec)
    M, Q = problem.M, problem.qmap.Q
    natural = spec.kind == residuals.KIND_MIN
    patterns = [np.flatnonzero(base)]
    if np.any(degen):
        patterns.append(np.flatnonzero(base | degen))
    dirs: list[np.ndarray] = []
    for act in patterns:
        inact = np.setdiff1d(np.arange(m), act, assume_unique=True)
        for j in range(n):
            for sign in (1.0, -1.0):
                dx = np.zeros(n)
                dx[j] = sign
                rhs = -(Q @ dx)
                dy = np.zeros(m)
                if act.size:
                    sub = M[np.ix_(act, act)]
                    try:
                        dy[act] = np.linalg.solve(sub, rhs[act])
                    except np.linalg.LinAlgError:
                        continue
                    if not np.all(np.isfinite(dy)):
                        continue
                dl = np.zeros(m)
                if not natural:
                    slack_rate = kernel.rate(dx, dy)
                    dl[inact] = slack_rate[inact]
                d = np.concatenate([dx, dy, dl])
                scale = float(np.max(np.abs(d)))
                if scale > 1.0:
                    d /= scale
                dirs.append(d)
    rows = np.array(dirs).reshape(len(dirs), n + 2 * m)
    if natural:
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
    rows.flags.writeable = False
    return rows


def pattern_case(M, Q, base, degen):
    """A problem with lower-level data (M, Q) and a point z at which the
    landscape reads the activity pattern ``base`` and the degenerate
    pairs ``degen``: y_i = 1 on ``base``, and elsewhere the multiplier
    and the slack w are 0 on ``degen`` and 1 off it."""
    m, n = Q.shape
    y = np.where(base, 1.0, 0.0)
    partner = np.where(degen, 0.0, 1.0)
    doc = {"n": n, "m": m, "M": M.tolist(), "Q": Q.tolist(),
           # x = 0, so w = M y + q0 is the partner up to rounding
           "q0": (partner - M @ y).tolist(), "objective": {},
           "x_box": [[-1.0, 1.0]] * n, "multiplier_bound": 2.0}
    return problem_from_dict(doc), np.concatenate([np.zeros(n), y, partner])


TANGENT_SPECS = [SQ, ResidualSpec("kkt", "l2", 0.5), ResidualSpec("kkt", "l1", 1.0),
                 *[ResidualSpec("min", norm, 1.0) for norm in ("l2", "l1")]]


def assert_reference_rows(M, Q, base, degen, spec):
    problem, z = pattern_case(M, Q, base, degen)
    got = landscape_from_problem(problem, spec).tangent_polls(z)
    want = reference_tangent_dirs(problem, spec, base, degen)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


class TestTangentPolls:
    # lcp-param points z = (x, y1, y2, lambda1, lambda2); the first two share
    # the pattern y1 active, and the third adds the degenerate pair
    # y2 = lambda2 = 0 to it
    ACTIVE = np.array([0.5, 0.25, 0.0, 0.0, 1.0])
    ACTIVE_2 = np.array([1.5, 0.75, 0.0, 0.0, 0.5])
    DEGENERATE = np.array([0.5, 0.25, 0.0, 0.0, 0.0])
    INACTIVE = np.array([1.0, 0.0, 0.0, 1.0, 1.0])

    def test_one_solve_per_pattern(self, lcp_param, monkeypatch):
        land = landscape_from_problem(lcp_param, SQ)
        solve = np.linalg.solve
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        # one stacked solve for the 2n steps of the pattern, none when the
        # pattern comes back, one per pattern with a degenerate pair, and
        # none for the empty pattern
        expected = [1, 1, 3, 3, 3]
        for z, want in zip((self.ACTIVE, self.ACTIVE_2, self.DEGENERATE, self.ACTIVE,
                            self.INACTIVE), expected):
            land.tangent_polls(z)
            assert calls[0] == want

    def test_cached_directions_match_a_fresh_landscape(self, lcp_param):
        land = landscape_from_problem(lcp_param, SQ)
        for z in (self.ACTIVE, self.DEGENERATE, self.ACTIVE_2, self.DEGENERATE,
                  self.INACTIVE, self.ACTIVE):
            got = land.tangent_polls(z)
            want = landscape_from_problem(lcp_param, SQ).tangent_polls(z)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # the degenerate pair adds the second pattern's directions
        assert len(land.tangent_polls(self.DEGENERATE)) > len(land.tangent_polls(self.ACTIVE))

    def test_directions_are_read_only(self, lcp_param):
        dirs = landscape_from_problem(lcp_param, SQ).tangent_polls(self.ACTIVE)
        with pytest.raises(ValueError):
            dirs[0][0] = 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 8),
           spec=st.sampled_from(TANGENT_SPECS), gram=st.booleans())
    def test_rows_match_reference_loop(self, seed, n, m, spec, gram):
        # every row keeps its bits, signed zeros included: Gram matrices of
        # small integer factors have exactly singular principal blocks, and
        # Q has zero and -0.0 rows and entries
        rng = np.random.default_rng(seed)
        if gram:
            factor = rng.integers(-2, 3, size=(m, rng.integers(1, m + 1))).astype(float)
            M = factor @ factor.T
        else:
            M = rng.normal(size=(m, m))
        Q = rng.normal(size=(m, n))
        Q[rng.random((m, n)) < 0.2] *= 0.0
        Q[rng.random(m) < 0.2] = 0.0
        Q[rng.random(m) < 0.2] = -0.0
        base = rng.random(m) < 0.5
        degen = ~base & (rng.random(m) < 0.5)
        assert_reference_rows(M, Q, base, degen, spec)

    @pytest.mark.parametrize("spec", TANGENT_SPECS)
    @pytest.mark.parametrize("M, Q, base, degen, count", [
        # pattern {0, 1} solves 1e-300 dy_0 = -(Q dx)_0: the steps +-e_0
        # overflow and are dropped before the rate product, which would
        # meet inf * 0 and warn; +-e_1 complete there and under {1}
        (np.diag([1e-300, 1.0]), np.array([[1e10, 1.0], [1.0, -0.0]]),
         [False, True], [True, False], 6),
        # LU meets an exact zero pivot, and the pattern gives no rows
        (np.ones((2, 2)), np.array([[1.0], [2.0]]), [True, True], [False, False], 0),
    ], ids=["overflow", "singular"])
    def test_edge_rows_match_reference_loop(self, spec, M, Q, base, degen, count):
        base, degen = np.array(base), np.array(degen)
        assert_reference_rows(M, Q, base, degen, spec)
        problem, z = pattern_case(M, Q, base, degen)
        assert len(landscape_from_problem(problem, spec).tangent_polls(z)) == count

    @pytest.mark.parametrize("spec, count", [(spec, 2 if spec.kind == "min" else 4)
                                             for spec in TANGENT_SPECS])
    def test_repeated_rows_match_reference_loop(self, spec, count):
        # y_1 active and pair 2 degenerate: with M = I, each step's second
        # pattern row equals its first pattern row in value, and the -e_0
        # step's carries a -0.0 where the first has +0.0.  The min
        # landscape drops both repeats; the kkt landscapes keep all rows
        M, Q = np.eye(2), np.array([[1.0], [0.0]])
        base, degen = np.array([True, False]), np.array([False, True])
        assert_reference_rows(M, Q, base, degen, spec)
        problem, z = pattern_case(M, Q, base, degen)
        assert len(landscape_from_problem(problem, spec).tangent_polls(z)) == count


MIN_SPECS = [ResidualSpec("min", "l2", 1.0), ResidualSpec("min", "l1", 1.0)]


class TestNaturalLandscape:
    # neither f nor min(y, w) reads lambda, so the min landscape pins it

    @pytest.mark.parametrize("spec", MIN_SPECS, ids=["l2", "l1"])
    def test_lcp_param_reaches_optimum(self, lcp_param, spec):
        # the known optimum f = 0.75 at x = 0.5, y = (0.25, 0); the min
        # residual at gamma 1 is an exact penalty for this P-matrix LCP
        rep = penalty_continuation(lcp_param, PenaltyConfig(gamma=1.0, residual=spec))
        assert rep.classification == CLASS_FEASIBLE
        assert abs(rep.final_objective - 0.75) <= 1e-6
        point = rep.final_point
        sols = solve_lcp_enumerate(lcp_param.lcp_at(point.x))
        assert len(sols.points) == 1
        assert np.max(np.abs(point.y - sols.points[0])) <= 1e-6
        assert rep.stationarity_variant is None

    def test_tangent_rows_complete_x_and_y_only(self, lcp_param):
        # at z = 0 the slack w = (0, 1): only pair 1 is degenerate, and
        # its branch y1 = x/2 is the path to the optimum
        for spec in MIN_SPECS:
            land = landscape_from_problem(lcp_param, spec)
            rows = land.tangent_polls(np.zeros(5))
            assert any(np.array_equal(row, [1.0, 0.5, 0.0, 0.0, 0.0]) for row in rows)
            assert not np.any(rows[:, 3:])
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert np.array_equal(land.upper[3:], [0.0, 0.0])

    def test_no_trial_moves_only_lambda(self):
        # the sweeps evaluate their trials in batches: every row a batch
        # holds moves z in x or y; the start's own evaluation, which comes
        # before the first callback, is no trial and is not counted
        current = [None]
        evaluated, lambda_only = [0], [0]

        def accepted(z, phi):
            current[0] = z.copy()

        rng = np.random.default_rng(7)
        for i, setting in enumerate(instances.RESIDUAL_SETTINGS):
            kind, norm, squared, gamma, extra = setting
            doc = _generated_doc(rng, i)
            if kind != "min":
                continue
            problem = problem_from_dict(doc)
            m = problem.m
            land = _setting_landscape(problem, kind, norm, squared, gamma)

            def observed(rows, alpha, gamma, values=land.values, m=m):
                if current[0] is None:
                    return values(rows, alpha, gamma)
                evaluated[0] += len(rows)
                lambda_only[0] += int(np.sum((rows[:, :-m] == current[0][:-m]).all(axis=1)))
                return values(rows, alpha, gamma)

            land = replace(land, values=observed)
            for alpha in (1.0, 100.0):
                current[0] = None
                z, _, _ = _compass(land, alpha, gamma, np.array(instances._start(rng, doc)),
                                   extra["max_inner"], accepted)
                point = land.as_point(z)
                F = problem.F(point.x, point.y)
                assert np.array_equal(point.lam,
                                      np.clip(F, 0.0, problem.multiplier_bound))
        assert evaluated[0] > 0
        assert lambda_only[0] == 0


class TestContinuation:
    def grid_optimum(self, problem):
        xs = [[x] for x in np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)]
        path = parametric_solution_path(problem.M, problem.qmap, xs)
        return min(problem.f_value(x, s.points[0]) for x, s in path)

    def test_lcp_param_warm_start(self, lcp_param):
        start = KktPoint([2.0], [0.0, 0.0], [0.0, 0.0])
        rep = penalty_continuation(lcp_param, PenaltyConfig(gamma=0.5), start)
        assert rep.classification == CLASS_FEASIBLE
        assert rep.final_residual <= 1e-8
        assert abs(rep.final_objective - self.grid_optimum(lcp_param)) <= 1e-3

    def test_bilevel_order1_escapes_origin(self, bilevel):
        cfg = PenaltyConfig(gamma=1.0, alpha0=1.0, alpha_fixed=True,
                            residual=SQ1, max_outer=3)
        rep = penalty_continuation(bilevel, cfg, ORIGIN)
        assert rep.objective_history[0] < 0.0

    def test_toy_infeasible_trap(self):
        land = q5_toy_landscape()
        cfg = PenaltyConfig(alpha0=2.0, alpha_fixed=True, gamma=1.0)
        rep = run_continuation(land, cfg, np.array([3.0]))
        assert rep.classification == CLASS_INFEASIBLE
        assert rep.final_residual > 0.5
        assert rep.final_point.x[0] == pytest.approx(2.75, abs=1e-4)

    def test_certificate_measured_once(self, monkeypatch):
        # the report reuses the measure that certified the stagnated round,
        # taken at the same point and weight
        measure = penalty_solver.stationarity_measure
        calls = []

        def counting(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(penalty_solver, "stationarity_measure", counting)
        cfg = PenaltyConfig(alpha0=2.0, alpha_fixed=True, gamma=1.0)
        rep = run_continuation(q5_toy_landscape(), cfg, np.array([2.75]))
        assert rep.classification == CLASS_INFEASIBLE
        assert len(calls) == 1

    def test_toy_feasible_leg(self):
        land = q5_toy_landscape()
        rep = run_continuation(land, PenaltyConfig(gamma=0.5), np.array([0.1]))
        assert rep.classification == CLASS_FEASIBLE
        assert abs(rep.final_point.x[0]) <= 1e-6

    def test_report_names_the_landscape_residual(self, lcp_param):
        # the toy has no lower level: its report names no residual kind or
        # variant, whatever the config's residual spec says
        assert landscape_from_problem(lcp_param, SQ).spec == SQ
        rep = run_continuation(q5_toy_landscape(), PenaltyConfig(gamma=0.5), np.array([0.1]))
        assert (rep.residual_kind, rep.stationarity_variant) == (None, None)

    def test_toy_reports_t_as_x(self):
        point = q5_toy_landscape().as_point(np.array([2.75]))
        assert point.x.tolist() == [2.75]
        assert point.y.size == 0 and point.lam.size == 0

    def test_iteration_limit(self):
        land = q5_toy_landscape()
        cfg = PenaltyConfig(alpha0=2.0, alpha_fixed=True, gamma=1.0, max_outer=1)
        rep = run_continuation(land, cfg, np.array([3.0]))
        assert rep.classification == CLASS_LIMIT

    def test_start_of_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch, match="start"):
            run_continuation(q5_toy_landscape(), PenaltyConfig(), np.array([1.0, 2.0]))

    def test_product_residual_rejected(self, lcp_param):
        # y'w = 0 at x = 1, y = 0, yet w = (-1, 0) there: no LCP solution
        spec = ResidualSpec("product", "l2", 0.5)
        with pytest.raises(ValueError, match="w >= 0"):
            penalty_continuation(lcp_param, PenaltyConfig(residual=spec))

    def test_determinism(self, lcp_param):
        cfg = PenaltyConfig(gamma=0.5)
        a = penalty_continuation(lcp_param, cfg).to_dict()
        b = penalty_continuation(lcp_param, cfg).to_dict()
        assert a == b

    def test_histories_aligned(self, lcp_param):
        rep = penalty_continuation(lcp_param, PenaltyConfig(gamma=0.5))
        k = len(rep.alpha_history)
        assert len(rep.residual_history) == k
        assert len(rep.objective_history) == k
        assert len(rep.penalized_history) == k
        assert rep.stationarity_variant == "squared"

    def test_multistart_exactness(self, bilevel):
        land = landscape_from_problem(bilevel, SQ)
        for alpha0 in (1.0, 8.0):
            cfg = PenaltyConfig(alpha0=alpha0, gamma=0.5)
            for start in random_starts(bilevel, 5, seed=42):
                rep = run_continuation(land, cfg, start)
                assert rep.classification == CLASS_FEASIBLE
                assert abs(rep.final_objective) <= 1e-3

    def test_no_solve_reaches_the_gradient(self, lcp_param, bilevel, monkeypatch):
        # projected compass search is the whole inner solver: the penalty
        # gradient is public API, but no solve may evaluate it
        def unreachable(self, z, alpha):
            raise AssertionError("the solver evaluated the penalty gradient")

        monkeypatch.setattr(residuals._Kernel, "sqrt_grad", unreachable)
        cfg = PenaltyConfig(gamma=0.5)
        for start in random_starts(bilevel, 4, seed=3):
            penalty_continuation(bilevel, cfg, bilevel.split(start))
        penalty_continuation(lcp_param, cfg)

    def test_validation_only_at_boundary(self, lcp_param, monkeypatch):
        # input is validated when the solve starts and when the final
        # point is reported, never per evaluation, so the number of
        # vector checks does not grow with the evaluation budget
        checked = model._as_vector
        counts = []
        for budget in (200, 2000):
            calls = [0]

            def counting(*args, **kwargs):
                calls[0] += 1
                return checked(*args, **kwargs)

            monkeypatch.setattr(model, "_as_vector", counting)
            penalty_continuation(lcp_param, PenaltyConfig(max_inner=budget))
            monkeypatch.undo()
            counts.append(calls[0])
        assert counts[0] == counts[1]


class TestDefaultStart:
    def test_inside_box_with_warm_multiplier(self, lcp_param):
        z = default_start(lcp_param)
        z.check_dims(lcp_param)
        assert lcp_param.x_box[0, 0] <= z.x[0] <= lcp_param.x_box[0, 1]
        F = lcp_param.F(z.x, z.y)
        assert np.allclose(z.lam, np.clip(F, 0.0, lcp_param.multiplier_bound))


# -- differential test of the compass sweep ---------------------------------

def _load_bench_instances():
    # the benchmark's seeded instance generator, a plain-data module
    path = ROOT / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instances = _load_bench_instances()


def reference_compass(land, alpha, gamma, z0, budget, callback=None):
    """The compass loop as it was before the poll matrix and the screen:
    one trial vector, clip and evaluation per poll direction."""
    z = np.clip(z0, land.lower, land.upper)
    phi = land.penalized(z, alpha, gamma)
    if callback:
        callback(z, phi)
    evals = 0
    widths = land.upper - land.lower
    step = 0.25 * float(np.max(widths)) if np.max(widths) > 0 else 0.0
    eye = np.eye(land.dim)
    while step >= INNER_TOL and evals < budget:
        polls: list[np.ndarray] = []
        for j in range(land.dim):
            polls.append(eye[j])
            polls.append(-eye[j])
        if land.tangent_polls is not None:
            polls.extend(land.tangent_polls(z))
        improved = False
        for d in polls:
            trial = np.clip(z + step * d, land.lower, land.upper)
            if np.array_equal(trial, z):
                continue
            if evals >= budget:
                return z, phi, evals
            phi_t = land.penalized(trial, alpha, gamma)
            evals += 1
            if phi_t < phi:
                z, phi = trial, phi_t
                if callback:
                    callback(z, phi)
                improved = True
                break
        if not improved:
            step *= 0.5
    return z, phi, evals


def _bits(z, phi):
    return z.tobytes(), float(phi).hex()


def compass_runs(land, alpha, gamma, z0, budget):
    """(z, phi, evals) and the callback sequence of the reference loop and
    of ``_compass``, as bits."""
    out = []
    for compass in (reference_compass, _compass):
        seen = []
        z, phi, evals = compass(land, alpha, gamma, np.array(z0, dtype=float), budget,
                                lambda z, p: seen.append(_bits(z, p)))
        out.append((_bits(z, phi), evals, seen))
    return out


def _setting_landscape(problem, kind, norm, squared, gamma):
    return landscape_from_problem(problem, ResidualSpec(kind, norm, gamma, squared))


def _generated_doc(rng, i):
    """A generated instance of the benchmark; its size and family vary with i."""
    n, m = 1 + i % 2, 2 + i % 4
    if i % 3 == 2:
        return instances.generic_mpec(rng, n, m)["doc"]
    return instances.planted_mpec(rng, n, m, degenerate=i % 3 == 1)["doc"]


def _setting_name(setting):
    kind, norm, squared, gamma, _ = setting
    return f"{kind}-{norm}{'-sq' if squared else ''}-g{gamma:g}"


def differential_cases():
    """(setting, landscape, alpha, gamma, start, budget): the fixtures at
    several weights, the q5 toy, one generated instance per residual
    setting of the benchmark's solve mix, each from the benchmark's
    start, and near ties of the min and norm kkt residuals; ``setting``
    names the residual setting of the generated cases and is None for
    the others."""
    cases = []
    for name in ("lcp-param", "bilevel", "addq1"):
        problem = parse_problem_file(FIXTURES / f"{name}.mpec")
        land = landscape_from_problem(problem, SQ)
        for alpha in (1.0, 10.0, 1000.0):
            cases.append((None, land, alpha, 0.5, default_start(problem).to_z(), 2000))
    toy = q5_toy_landscape()
    cases += [(None, toy, 2.0, 1.0, np.array([3.0]), 500),
              (None, toy, 1.0, 0.5, np.array([0.1]), 500)]
    rng = np.random.default_rng(2024)
    for i, setting in enumerate(instances.RESIDUAL_SETTINGS):
        kind, norm, squared, gamma, extra = setting
        doc = _generated_doc(rng, i)
        land = _setting_landscape(problem_from_dict(doc), kind, norm, squared, gamma)
        for alpha in (1.0, 100.0):
            cases.append((_setting_name(setting), land, alpha, gamma,
                          np.array(instances._start(rng, doc)), extra["max_inner"]))
    # near ties: at weight 0 the value is f alone, and near its box
    # minimizer the trials differ from the current value by rounding only
    rng = np.random.default_rng(2025)
    for kind, norm in (("min", "l2"), ("min", "l1"), ("kkt", "l2"), ("kkt", "l1")):
        for family in ("planted", "generic"):
            inst = (instances.generic_mpec(rng, 2, 3) if family == "generic"
                    else instances.planted_mpec(rng, 2, 3, degenerate=False))
            land = _setting_landscape(problem_from_dict(inst["doc"]), kind, norm, False, 1.0)
            cases.append((f"{kind}-{norm}-tie", land, 0.0, 1.0,
                          np.array(instances._start(rng, inst["doc"])), 1500))
    return cases


def assert_same_sweeps(cases):
    """Asserts that ``_compass`` matches the reference loop on every case."""
    for setting, land, alpha, gamma, z0, budget in cases:
        ref, got = compass_runs(land, alpha, gamma, z0, budget)
        assert got == ref, setting


def assert_charged(problem, spec):
    """For budgets 0-40, ``_compass`` matches the reference loop and
    spends the whole budget."""
    land = landscape_from_problem(problem, spec)
    z0 = default_start(problem).to_z()
    for budget in range(41):
        for alpha in (1.0, 10.0):
            ref, got = compass_runs(land, alpha, spec.gamma, z0, budget)
            assert got == ref
            assert got[1] == budget


def _degenerate_planted():
    return problem_from_dict(
        instances.planted_mpec(np.random.default_rng(5), 2, 3, degenerate=True)["doc"])


class TestCompassSweep:
    def test_matches_reference_loop(self):
        # every iterate, callback value and charged trial keeps its bits
        assert_same_sweeps(differential_cases())

    def test_huge_data_matches_reference_loop(self):
        # data above 2^100: a huge objective constant, and a multiplier box
        # whose first steps are 2^99
        doc = json.loads((FIXTURES / "lcp-param.mpec").read_text())
        huge_const = json.loads(json.dumps(doc))
        huge_const["objective"]["const"] = 2.0 ** 101
        for huge in (huge_const, dict(doc, multiplier_bound=2.0 ** 101)):
            problem = problem_from_dict(huge)
            z0 = default_start(problem).to_z()
            for spec in (SQ, ResidualSpec("min", "l1", 1.0), ResidualSpec("kkt", "l2", 0.5)):
                land = landscape_from_problem(problem, spec)
                assert_same_sweeps([(None, land, alpha, spec.gamma, z0, 400)
                                    for alpha in (1.0, 1e4)])

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_squared_sweeps_charge_their_trials(self, lcp_param, degenerate):
        assert_charged(_degenerate_planted() if degenerate else lcp_param, SQ)

    @pytest.mark.parametrize("spec", [ResidualSpec("min", "l2", 1.0),
                                      ResidualSpec("kkt", "l1", 1.0)], ids=["min", "norm"])
    def test_min_and_norm_sweeps_charge_their_trials(self, spec):
        assert_charged(_degenerate_planted(), spec)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2), m=st.integers(2, 5),
           family=st.sampled_from(["planted", "degenerate", "generic"]),
           setting=st.sampled_from(instances.RESIDUAL_SETTINGS),
           alpha=st.sampled_from([1.0, 10.0, 1e4]))
    def test_matches_reference_on_random_mpecs(self, seed, n, m, family, setting, alpha):
        rng = np.random.default_rng(seed)
        if family == "generic":
            doc = instances.generic_mpec(rng, n, m)["doc"]
        else:
            doc = instances.planted_mpec(rng, n, m, degenerate=family == "degenerate")["doc"]
        kind, norm, squared, gamma, _ = setting
        land = _setting_landscape(problem_from_dict(doc), kind, norm, squared, gamma)
        z0 = np.array(instances._start(rng, doc))
        assert_same_sweeps([(None, land, alpha, gamma, z0, 400)])


#: the residual settings of the solve mix, and min l1/l2 and norm kkt l1/l2
#: at the other exponent
VALUE_SETTINGS = sorted({setting[:4] for setting in instances.RESIDUAL_SETTINGS}
                        | {("min", "l1", False, 0.5), ("min", "l2", False, 0.5),
                           ("kkt", "l1", False, 0.5), ("kkt", "l2", False, 1.0)})


def assert_values_per_row(land, trials, alpha, gamma):
    # every row keeps the bits of ``penalized`` on a fresh copy of it;
    # ``penalized`` is one row of ``values``, so this checks only that a
    # row's value does not depend on the rows around it (the formulas are
    # checked against an independent transcription in test_residuals.py)
    got = land.values(trials, alpha, gamma)
    assert got.shape == (len(trials),)
    for i, row in enumerate(trials):
        want = np.float64(land.penalized(row.copy(), alpha, gamma))
        assert got[i].tobytes() == want.tobytes(), (i, got[i], want)


def sweep_trials(rng, land, step):
    """The trials of a sweep from a point of the box with some coordinates
    on its faces, tangent rows included, clipped to it."""
    z = land.lower + rng.random(land.dim) * (land.upper - land.lower)
    face = rng.random(land.dim)
    z = np.where(face < 0.3, land.lower, np.where(face > 0.9, land.upper, z))
    polls = _polls(land, z, _coordinate_polls(land.dim))
    return np.clip(z + step * polls, land.lower, land.upper)


def _generated(seed, n, m, generic):
    rng = np.random.default_rng(seed)
    doc = (instances.generic_mpec(rng, n, m) if generic
           else instances.planted_mpec(rng, n, m, degenerate=bool(seed % 2)))["doc"]
    return rng, doc


#: the blocks of a quadratic objective, each a term of its value
OBJECTIVE_BLOCKS = ("xx", "xy", "yy", "x_lin", "y_lin")


class TestBatchedValues:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 8),
           generic=st.booleans(), setting=st.sampled_from(VALUE_SETTINGS),
           step=st.floats(1e-7, 2.0), alpha=st.sampled_from([0.0, 1.0, 1e4]))
    def test_values_match_penalized_per_row(self, seed, n, m, generic, setting, step,
                                            alpha):
        rng, doc = _generated(seed, n, m, generic)
        kind, norm, squared, gamma = setting
        land = _setting_landscape(problem_from_dict(doc), kind, norm, squared, gamma)
        assert_values_per_row(land, sweep_trials(rng, land, step), alpha, gamma)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 8),
           generic=st.booleans(), zeroed=st.sets(st.sampled_from(OBJECTIVE_BLOCKS)),
           const=st.sampled_from([0.0, -0.0, None]), step=st.floats(1e-7, 2.0),
           alpha=st.sampled_from([0.0, 1.0, 1e4]))
    @example(seed=7, n=2, m=3, generic=True, zeroed=set(OBJECTIVE_BLOCKS), const=-0.0,
             step=0.5, alpha=1.0)
    def test_values_without_zero_blocks_keep_their_bits(self, seed, n, m, generic,
                                                        zeroed, const, step, alpha):
        # the batch leaves out the terms of all-zero blocks, which the
        # per-row value adds; None draws a random constant
        rng, doc = _generated(seed, n, m, generic)
        objective = doc["objective"]
        for block in zeroed:
            objective[block] = np.zeros_like(objective[block]).tolist()
        objective["const"] = float(rng.standard_normal()) if const is None else const
        problem = problem_from_dict(doc)
        for kind, norm, squared, gamma in VALUE_SETTINGS:
            land = _setting_landscape(problem, kind, norm, squared, gamma)
            assert_values_per_row(land, sweep_trials(rng, land, step), alpha, gamma)

    def test_values_of_bilevel_leave_out_its_quadratic_terms(self, bilevel):
        # xx, xy and yy are all zero: only the two linear terms are summed
        assert bilevel.objective._terms == (3, 4)
        rng = np.random.default_rng(3)
        for kind, norm, squared, gamma in VALUE_SETTINGS:
            land = _setting_landscape(bilevel, kind, norm, squared, gamma)
            for step in (2.0, 0.5, 1e-3, 1e-7):
                for alpha in (0.0, 1.0, 1e4):
                    assert_values_per_row(land, sweep_trials(rng, land, step), alpha, gamma)

    def test_values_of_the_toy(self):
        # its second branch squares by libm's pow, as Python's ** does
        land = q5_toy_landscape()
        trials = np.concatenate([np.linspace(-1.0, 4.0, 1001),
                                 2.75 + np.linspace(-1e-6, 1e-6, 101)])[:, None]
        for alpha, gamma in ((0.0, 1.0), (2.0, 1.0), (1.0, 0.5), (1e4, 0.3)):
            assert_values_per_row(land, trials, alpha, gamma)


#: sha256 of the reports of the benchmark's first solve-mix block of seed 1:
#: lcp-param and one generated instance per residual setting
SOLVE_MIX_DIGEST = "ce03b9bacb6b58f5ecd1ae45836c63519854bded3a08ef690c389aaac0aaea4b"


def test_generated_reports_keep_their_bits():
    digest = hashlib.sha256()
    for entry in instances.solve_mix(1, FIXTURES, 1)[0]:
        conf = dict(entry["config"])
        residual = conf.pop("residual")
        spec = ResidualSpec(residual["kind"], residual["norm"], conf["gamma"],
                            residual["squared_stationarity"])
        land = landscape_from_problem(problem_from_dict(entry["doc"]), spec)
        rep = run_continuation(land, PenaltyConfig(residual=spec, **conf),
                               np.array(entry["start"]))
        digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == SOLVE_MIX_DIGEST
