import numpy as np
import pytest

from mpecpen import model
from mpecpen import (
    AffineParamMap,
    DimensionMismatch,
    KktPoint,
    QuadObjective,
    ResidualSpec,
    build_lcp_mpec,
    parametric_solution_path,
    penalized_objective,
)
from mpecpen.penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    PenaltyConfig,
    check_stationarity,
    default_start,
    inner_minimize,
    landscape_from_problem,
    penalty_continuation,
    q5_toy_landscape,
    random_starts,
    run_continuation,
)

SQ = ResidualSpec("kkt", "l2", 0.5, squared_stationarity=True)
SQ1 = ResidualSpec("kkt", "l2", 1.0, squared_stationarity=True)
ORIGIN = KktPoint([0.0], [0.0], [0.0])


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
        # coarse grid certificate that 0 is the box minimum at alpha = 2
        pts = np.linspace(0.0, 2.0, 41)
        best = min(penalized_objective(bilevel, KktPoint([x], [u], [l]), 2.0, SQ)
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
        p = build_lcp_mpec(np.eye(2), qmap, obj, [[0.0, 2.0]], 2.0)
        z = KktPoint([1.0], [0.5, 0.5], [1.0, 1.0])
        assert check_stationarity(p, z, 0.0, SQ) == 0.0
        # and a non-stationary interior point reports the descent rate
        z2 = KktPoint([1.5], [0.5, 0.5], [1.0, 1.0])
        assert check_stationarity(p, z2, 0.0, SQ) == pytest.approx(1.0)


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
        land.tangent_polls(self.ACTIVE)
        first = calls[0]
        land.tangent_polls(self.ACTIVE_2)
        assert first > 0 and calls[0] == first

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

    def test_toy_feasible_leg(self):
        land = q5_toy_landscape()
        rep = run_continuation(land, PenaltyConfig(gamma=0.5), np.array([0.1]))
        assert rep.classification == CLASS_FEASIBLE
        assert abs(rep.final_point.x[0]) <= 1e-6

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
