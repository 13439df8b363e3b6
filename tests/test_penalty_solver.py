import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpecpen import model, residuals
from mpecpen import (
    AffineParamMap,
    DimensionMismatch,
    KktPoint,
    QuadObjective,
    ResidualSpec,
    build_lcp_mpec,
    parametric_solution_path,
    parse_problem_file,
    penalized_objective,
    problem_from_dict,
)
from mpecpen.penalty_solver import (
    CLASS_FEASIBLE,
    CLASS_INFEASIBLE,
    CLASS_LIMIT,
    INNER_TOL,
    PenaltyConfig,
    _compass,
    _coordinate_polls,
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
SCREEN_MARGIN = residuals._screen_margin


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
    """(z, phi, evals) and the callback sequence of both loops, as bits,
    and the number of trials the screened loop charged but did not
    evaluate."""
    out = []
    evaluated = [0]
    objective = land.objective

    def counting(z):
        evaluated[0] += 1
        return objective(z)

    for compass, lnd in ((reference_compass, land),
                         (_compass, replace(land, objective=counting))):
        seen = []
        z, phi, evals = compass(lnd, alpha, gamma, np.array(z0, dtype=float), budget,
                                lambda z, p: seen.append(_bits(z, p)))
        out.append((_bits(z, phi), evals, seen))
    # the screened loop evaluates the start and every unscreened trial
    return out[0], out[1], out[1][1] + 1 - evaluated[0]


def _setting_landscape(problem, kind, norm, squared, gamma):
    return landscape_from_problem(problem, ResidualSpec(kind, norm, gamma, squared))


def differential_cases():
    """(landscape, alpha, gamma, start, budget): the fixtures at several
    weights, the q5 toy, and one generated instance per residual setting
    of the benchmark's solve mix, each from the benchmark's start."""
    cases = []
    for name in ("lcp-param", "bilevel", "addq1"):
        problem = parse_problem_file(FIXTURES / f"{name}.mpec")
        land = landscape_from_problem(problem, SQ)
        for alpha in (1.0, 10.0, 1000.0):
            cases.append((land, alpha, 0.5, default_start(problem).to_z(), 2000))
    toy = q5_toy_landscape()
    cases += [(toy, 2.0, 1.0, np.array([3.0]), 500), (toy, 1.0, 0.5, np.array([0.1]), 500)]
    rng = np.random.default_rng(2024)
    for i, (kind, norm, squared, gamma, extra) in enumerate(instances.RESIDUAL_SETTINGS):
        n, m = 1 + i % 2, 2 + i % 4
        if i % 3 == 2:
            doc = instances.generic_mpec(rng, n, m)["doc"]
        else:
            doc = instances.planted_mpec(rng, n, m, degenerate=i % 3 == 1)["doc"]
        land = _setting_landscape(problem_from_dict(doc), kind, norm, squared, gamma)
        for alpha in (1.0, 100.0):
            cases.append((land, alpha, gamma, np.array(instances._start(rng, doc)),
                          extra["max_inner"]))
    return cases


def assert_same_sweeps(cases):
    screened = 0
    for land, alpha, gamma, z0, budget in cases:
        ref, got, skipped = compass_runs(land, alpha, gamma, z0, budget)
        assert got == ref
        screened += skipped
    return screened


class TestCompassSweep:
    def test_matches_reference_loop(self):
        # every iterate, callback value and charged trial keeps its bits,
        # while the screen leaves a large share of trials unevaluated
        assert assert_same_sweeps(differential_cases()) > 1000

    def test_screen_only_on_squared_kkt(self, lcp_param):
        assert landscape_from_problem(lcp_param, SQ).ray_screen is not None
        assert landscape_from_problem(lcp_param, SQ1).ray_screen is not None
        for spec in (ResidualSpec("min", "l2", 1.0), ResidualSpec("min", "l1", 1.0),
                     ResidualSpec("kkt", "l2", 0.5), ResidualSpec("kkt", "l1", 1.0)):
            assert landscape_from_problem(lcp_param, spec).ray_screen is None
        assert q5_toy_landscape().ray_screen is None

    def test_screen_off_for_huge_data(self):
        doc = json.loads((FIXTURES / "lcp-param.mpec").read_text())
        doc["objective"]["const"] = 2.0 ** 101
        assert landscape_from_problem(problem_from_dict(doc), SQ).ray_screen is None

    @pytest.mark.parametrize("margin", [lambda chain: 0.0,
                                        lambda chain: -SCREEN_MARGIN(chain)],
                             ids=["margin-0", "margin-flipped"])
    def test_catches_an_unsafe_margin(self, margin, monkeypatch):
        # without the rounding margin, the screen skips trials whose
        # computed value falls below phi by rounding alone, and the
        # iterates part from the reference loop
        monkeypatch.setattr(residuals, "_screen_margin", margin)
        with pytest.raises(AssertionError):
            assert_same_sweeps(differential_cases())

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_screened_trials_are_charged(self, lcp_param, degenerate):
        if degenerate:
            doc = instances.planted_mpec(np.random.default_rng(5), 2, 3, degenerate=True)["doc"]
            problem = problem_from_dict(doc)
        else:
            problem = lcp_param
        land = landscape_from_problem(problem, SQ)
        z0 = default_start(problem).to_z()
        screened = 0
        for budget in range(41):
            for alpha in (1.0, 10.0):
                ref, got, skipped = compass_runs(land, alpha, 0.5, z0, budget)
                assert got == ref
                assert got[1] == budget
                screened += skipped
        assert screened > 0

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
        assert_same_sweeps([(land, alpha, gamma, z0, 400)])
        if land.ray_screen is not None:
            # the floors themselves: never above the value the landscape
            # computes at an in-box trial
            polls = np.concatenate([_coordinate_polls(land.dim), land.tangent_polls(z0)])
            screen = land.ray_screen(z0, polls)
            for step in (0.5, 1e-3, 1e-7):
                raw = z0 + step * polls
                floors = screen.floors(step, alpha, gamma)
                for i in np.flatnonzero(np.all((raw >= land.lower) & (raw <= land.upper), axis=1)):
                    assert floors[i] <= land.penalized(raw[i], alpha, gamma)
