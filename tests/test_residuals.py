import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpecpen import (
    AffineParamMap,
    AtKink,
    DimensionMismatch,
    KktPoint,
    MpecProblem,
    QuadObjective,
    ResidualSpec,
    grad_penalized_sqrt,
    min_dirderiv,
    min_residual,
    penalized_objective,
    product_residual,
    residual_value,
)
from mpecpen.penalty_solver import landscape_from_problem
from mpecpen.residuals import penalized_dirderiv, power_slope, residual_expansion

SQ = ResidualSpec("kkt", "l2", 0.5, squared_stationarity=True)
SQ1 = ResidualSpec("kkt", "l2", 1.0, squared_stationarity=True)


class TestMinResidual:
    def test_ray_value(self):
        y = np.array([3.0, 1.0])
        w = np.array([-2.0, 5.0])
        assert min_residual(y, w, "l2") == pytest.approx(math.sqrt(5.0), abs=1e-15)

    def test_complementary_pair_is_zero(self):
        assert min_residual([0.5, 0.0], [0.0, 0.0], "l1") == 0.0
        assert min_residual([0.5, 0.0], [0.0, 0.0], "l2") == 0.0

    def test_l1_with_negative_component(self):
        assert min_residual([0.0, 0.0], [-1.0, 0.0], "l1") == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            min_residual([1.0], [1.0, 2.0])

    def test_unknown_norm_refused(self):
        with pytest.raises(ValueError, match="unknown norm 'l3'"):
            min_residual([1.0], [1.0], "l3")

    def test_non_finite_or_matrix_pair_refused(self):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            min_residual([np.nan, 1.0], [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="one-dimensional"):
            min_residual(np.ones((2, 2)), np.ones((2, 2)))


class TestProductResidual:
    def test_example(self):
        assert product_residual([1.0, 1.0], [0.0, 3.0]) == 3.0

    def test_zero_cases(self):
        assert product_residual([0.0, 0.0], [5.0, -2.0]) == 0.0
        assert product_residual([0.5, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            product_residual([1.0], [1.0, 2.0])

    def test_non_finite_pair_refused(self):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            product_residual([np.inf], [0.0])


class TestKktResidual:
    def test_stationarity_only(self, addq1):
        z = KktPoint([1.0], [0.0, 1.0], [0.0, 0.0])
        assert residual_value(addq1, z, ResidualSpec("kkt", "l2", 0.5)) == pytest.approx(2.0)

    def test_feasible_triple_is_zero(self, lcp_param):
        z = KktPoint([1.0], [0.5, 0.0], [0.0, 0.0])
        assert residual_value(lcp_param, z, ResidualSpec("kkt", "l2", 0.5)) == 0.0

    def test_l1_with_primal_violation(self, lcp_param):
        z = KktPoint([1.0], [-1.0, 0.0], [0.0, 0.0])
        assert residual_value(lcp_param, z, ResidualSpec("kkt", "l1", 0.5)) == pytest.approx(4.0)

    def test_norm_monotonicity(self, lcp_param, addq1):
        rng = np.random.default_rng(11)
        for p in (lcp_param, addq1):
            for _ in range(200):
                z = p.split(rng.uniform(-2, 3, size=p.n + 2 * p.m))
                r2 = residual_value(p, z, ResidualSpec("kkt", "l2", 0.5))
                r1 = residual_value(p, z, ResidualSpec("kkt", "l1", 0.5))
                assert r2 <= r1 + 1e-12

    def test_nonnegativity(self, lcp_param):
        rng = np.random.default_rng(3)
        for _ in range(500):
            z = lcp_param.split(rng.uniform(-3, 3, size=5))
            for spec in (ResidualSpec("kkt", "l1", 0.5), ResidualSpec("kkt", "l2", 0.5),
                         ResidualSpec("min", "l2", 0.5)):
                assert residual_value(lcp_param, z, spec) >= 0.0
            # product residual is only nonnegative on the orthant pairs
            y = rng.uniform(0, 2, size=2)
            x = rng.uniform(0, 2, size=1)
            w = lcp_param.F(x, y)
            if np.all(w >= 0):
                assert product_residual(y, w) >= 0.0

    def test_zero_set_characterization(self, lcp_param, bilevel, addq1):
        tol = 1e-12
        rng = np.random.default_rng(5)
        spec = ResidualSpec("kkt", "l2", 0.5)
        for p in (lcp_param, bilevel, addq1):
            dim = p.n + 2 * p.m
            pts = rng.uniform(-1.5, 2.5, size=(10_000, dim))
            # also inject exactly feasible points
            from mpecpen import solve_lcp_enumerate
            for xv in np.linspace(p.x_box[0, 0], p.x_box[0, 1], 5):
                sols = solve_lcp_enumerate(p.lcp_at([xv]))
                for y in sols.points:
                    lam = p.F([xv], y)
                    pts = np.vstack([pts, np.concatenate([[xv], y, lam])])
            for row in pts:
                z = p.split(row)
                r = residual_value(p, z, spec)
                s = p.F(z.x, z.y) - z.lam
                feas = (np.max(np.abs(s)) <= tol and np.min(z.y) >= -tol
                        and np.min(z.lam) >= -tol
                        and np.max(np.abs(z.lam * z.y)) <= tol)
                assert (r <= tol) == feas


class TestPenalizedObjective:
    def test_order1_slice_matches_quadratic(self, bilevel):
        # with the multiplier tied to the lower variable the order-1 penalty
        # at x = 0 is -y + alpha y^2
        for alpha in (1.0, 3.0, 10.0):
            for y in (0.0, 0.1, 0.4, 1.0):
                z = KktPoint([0.0], [y], [y])
                want = -y + alpha * y * y
                assert penalized_objective(bilevel, z, alpha, SQ1) == pytest.approx(want, abs=1e-13)

    def test_feasible_point_gives_objective(self, lcp_param):
        z = KktPoint([1.0], [0.5, 0.0], [0.0, 0.0])
        assert penalized_objective(lcp_param, z, 17.0, SQ) == pytest.approx(1.0)

    def test_sqrt_quarter_point(self, bilevel):
        z = KktPoint([0.0], [0.25], [0.25])
        assert penalized_objective(bilevel, z, 2.0, SQ) == pytest.approx(0.25, abs=1e-15)

    def test_negative_alpha_rejected(self, bilevel):
        with pytest.raises(ValueError):
            penalized_objective(bilevel, KktPoint([0.0], [0.0], [0.0]), -1.0, SQ)

    def test_exactness_threshold_on_slice(self, bilevel):
        # argmin-level exactness on the multiplier-eliminated slice: for
        # alpha >= 1 no grid point of [0,2]^2 at step 0.01 beats the origin
        xs = np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)
        ys = xs
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        for alpha in (1.0, 2.0):
            phi = (X - Y) + alpha * np.sqrt(Y * (X + Y))
            assert phi.min() >= -1e-12
        # the vectorized slice formula agrees with the operation itself
        rng = np.random.default_rng(2)
        for _ in range(200):
            i, j = rng.integers(0, len(xs), size=2)
            x, y = xs[i], ys[j]
            z = KktPoint([x], [x + y], [y])  # shifted lower variable u = x + y
            got = penalized_objective(bilevel, z, 2.0, SQ)
            want = (x - y) + 2.0 * math.sqrt(y * (x + y))
            assert got == pytest.approx(want, abs=1e-12)


class TestMinDirderiv:
    def test_tie_case(self):
        assert min_dirderiv(0.0, 0.0, 1.0, -2.0) == -2.0

    def test_branches(self):
        assert min_dirderiv(1.0, 2.0, 5.0, -7.0) == 5.0
        assert min_dirderiv(2.0, 1.0, 5.0, -7.0) == -7.0

    def test_symmetric_tie(self):
        assert min_dirderiv(5.0, 5.0, 3.0, 3.0) == 3.0

    def test_secant_consistency(self):
        rng = np.random.default_rng(0)
        for k in range(1000):
            u, v, du, dv = rng.normal(size=4)
            if k % 4 == 0:
                v = u
            dd = min_dirderiv(u, v, du, dv)
            if u == v:
                ts = [0.1, 1e-3, 1e-6]  # exact at ties for every step
            else:
                tbar = 0.5 * abs(u - v) / (abs(du) + abs(dv) + 1.0)
                ts = [tbar, tbar / 10.0, tbar / 100.0]
            for t in ts:
                secant = (min(u + t * du, v + t * dv) - min(u, v)) / t
                assert abs(secant - dd) <= 1e-9 * (1.0 + abs(dd))


class TestExpansionAndSlopes:
    def test_expansion_matches_secant(self, lcp_param, addq1):
        rng = np.random.default_rng(21)
        for p in (lcp_param, addq1):
            dim = p.n + 2 * p.m
            for spec in (ResidualSpec("kkt", "l2", 0.5), ResidualSpec("kkt", "l1", 0.5),
                         ResidualSpec("kkt", "l2", 0.5, squared_stationarity=True),
                         ResidualSpec("min", "l1", 0.5), ResidualSpec("min", "l2", 0.5)):
                for _ in range(60):
                    z = p.split(rng.uniform(-1, 2, size=dim))
                    d = rng.normal(size=dim)
                    d /= np.linalg.norm(d)
                    r0, slope, _ = residual_expansion(p, z, d, spec)
                    base = max(residual_value(p, z, spec), 0.0)
                    assert r0 == pytest.approx(base, abs=1e-12)
                    t = 1e-7
                    zt = p.split(z.to_z() + t * d)
                    rt = max(residual_value(p, zt, spec), 0.0)
                    secant = (rt - r0) / t
                    assert secant == pytest.approx(slope, abs=2e-6)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_expansion_at_zero_set(self, lcp_param, bilevel, norm):
        # the norm-variant kinks: a zero stationarity block, zero y or
        # lambda components and zero complementarity products
        spec = ResidualSpec("kkt", norm, 0.5, squared_stationarity=False)
        solution = KktPoint([0.5], [0.25, 0.0], [0.0, 0.5])
        origin = KktPoint([0.0], [0.0], [0.0])
        rng = np.random.default_rng(8)
        # rates to leave the zero set along random directions
        for p, z in ((lcp_param, solution), (bilevel, origin)):
            zf = z.to_z()
            assert residual_value(p, z, spec) == 0.0
            for _ in range(40):
                d = rng.normal(size=zf.size)
                r0, slope, _ = residual_expansion(p, z, d, spec)
                t = 1e-7
                secant = residual_value(p, p.split(zf + t * d), spec) / t
                assert r0 == 0.0
                assert secant == pytest.approx(slope, rel=1e-5, abs=1e-5)
        # directions with zero slope, in small integers so the stationarity
        # rate is exactly zero: along the lcp-param solution path, and into
        # the bilevel origin with dy, dlambda >= 0, where r = t^2 dlambda dy
        dirs = [(lcp_param, solution, c * np.array([1.0, 0.5, 0.0, 0.0, -1.0]))
                for c in (-2.0, 1.0)]
        for dy, dl in rng.integers(0, 4, size=(6, 2)).astype(float):
            dirs.append((bilevel, origin, np.array([dy - dl, dy, dl])))
        for p, z, d in dirs:
            r0, slope, curve = residual_expansion(p, z, d, spec)
            assert r0 == 0.0 and slope == 0.0
            t = 1e-3
            rt = residual_value(p, p.split(z.to_z() + t * d), spec)
            assert rt / t ** 2 == pytest.approx(curve, abs=1e-9)

    def test_squared_expansion_off_box_is_zero(self, lcp_param):
        # at x = 2, y = (1, 0) the slack is w = (0, -1), so lambda = (-0.5, -1)
        # gives s = w - lambda = (0.5, 0) and a raw residual of
        # 0.25 - 0.5 < 0, whose clamp is locally zero
        z = KktPoint([2.0], [1.0, 0.0], [-0.5, -1.0])
        for d in (np.ones(5), np.array([0.0, -1.0, 2.0, 0.5, 0.0])):
            assert residual_expansion(lcp_param, z, d, SQ) == (0.0, 0.0, 0.0)

    def test_product_kind_has_no_calculus(self, lcp_param):
        # y'w is a value only: each route to the growth expansion refuses it
        spec = ResidualSpec("product", "l2", 0.5)
        z = KktPoint([1.0], [0.5, 0.2], [0.0, 0.2])
        d = np.ones(5)
        for call in (lambda: landscape_from_problem(lcp_param, spec),
                     lambda: residual_expansion(lcp_param, z, d, spec),
                     lambda: penalized_dirderiv(lcp_param, z, d, 1.0, spec)):
            with pytest.raises(ValueError, match=r"product residual y'w .* w >= 0"):
                call()
        # w = (0, 0.2) here, so y'w = 0.04
        assert residual_value(lcp_param, z, spec) == pytest.approx(0.04)

    def test_power_slope_cases(self):
        assert power_slope(4.0, 2.0, 0.0, 0.5) == pytest.approx(0.5)
        assert power_slope(0.0, 3.0, 0.0, 1.0) == 3.0
        assert power_slope(0.0, 3.0, 0.0, 0.5) == math.inf
        assert power_slope(0.0, 0.0, 9.0, 0.5) == 3.0
        assert power_slope(0.0, 0.0, 9.0, 0.75) == 0.0
        assert power_slope(0.0, 0.0, 9.0, 0.25) == math.inf

    @pytest.mark.parametrize("d", [[np.nan, 0.0, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0, 0.0],
                                   np.ones((5, 1))], ids=["nan", "inf", "column"])
    def test_bad_direction_refused(self, lcp_param, d):
        # unchecked, a NaN direction would give a NaN derivative, an
        # infinite one a NaN or infinite slope, a (5, 1) one a TypeError
        z = KktPoint([1.0], [0.5, 0.0], [0.0, 0.0])
        for spec in (SQ, ResidualSpec("min", "l1", 0.5)):
            with pytest.raises(DimensionMismatch, match="direction"):
                penalized_dirderiv(lcp_param, z, d, 1.0, spec)
            with pytest.raises(DimensionMismatch, match="direction"):
                residual_expansion(lcp_param, z, d, spec)

    def test_penalized_dirderiv_at_origin(self, bilevel):
        origin = KktPoint([0.0], [0.0], [0.0])
        up = np.array([0.0, 1.0, 0.0])
        # order 1: residual grows quadratically, objective drops at rate 1
        assert penalized_dirderiv(bilevel, origin, up, 5.0, SQ1) == pytest.approx(-1.0)
        # order 1/2: the penalty contributes alpha per unit step
        for alpha in (1.0, 2.0):
            got = penalized_dirderiv(bilevel, origin, up, alpha, SQ)
            assert got == pytest.approx(alpha - 1.0, abs=1e-13)


class TestGradPenalizedSqrt:
    def test_at_kink_raises(self, lcp_param):
        z = KktPoint([1.0], [0.5, 0.0], [0.0, 0.0])
        with pytest.raises(AtKink):
            grad_penalized_sqrt(lcp_param, z, 2.0)

    def test_single_pair_component(self, bilevel):
        # stationarity block zero, one positive complementarity pair: the
        # penalty gradient in the lower variable is alpha*lam/(2 sqrt(lam*y))
        x, u = 0.0, 0.8
        lam = u - x
        z = KktPoint([x], [u], [lam])
        r = residual_value(bilevel, z, SQ)
        assert r == pytest.approx(lam * u)
        g = grad_penalized_sqrt(bilevel, z, 2.0)
        fy = -1.0
        assert g[1] - fy == pytest.approx(2.0 * lam / (2.0 * math.sqrt(lam * u)))

    def test_matches_finite_differences(self, lcp_param, bilevel, addq1):
        rng = np.random.default_rng(13)
        alpha = 2.0
        h = 1e-6
        for p in (lcp_param, bilevel, addq1):
            dim = p.n + 2 * p.m
            lo = p.z_lower + 0.05
            hi = p.z_upper - 0.05
            checked = 0
            while checked < 30:
                zv = lo + rng.random(dim) * (hi - lo)
                z = p.split(zv)
                r = residual_value(p, z, SQ)
                if r <= 1e-3:
                    continue
                g = grad_penalized_sqrt(p, z, alpha)
                fd = np.zeros(dim)
                for j in range(dim):
                    zp = zv.copy(); zp[j] += h
                    zm = zv.copy(); zm[j] -= h
                    fp = p.f_value(zp[:p.n], zp[p.n:p.n + p.m]) + alpha * math.sqrt(
                        residual_value(p, p.split(zp), SQ))
                    fm = p.f_value(zm[:p.n], zm[p.n:p.n + p.m]) + alpha * math.sqrt(
                        residual_value(p, p.split(zm), SQ))
                    fd[j] = (fp - fm) / (2 * h)
                rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
                assert rel <= 1e-6
                checked += 1


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ResidualSpec("fischer", "l2", 0.5)

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            ResidualSpec("kkt", "sup", 0.5)

    @pytest.mark.parametrize("kind, norm, squared", [
        ("min", "l2", True), ("product", "l2", True),
        ("kkt", "l1", True), ("product", "l1", False)])
    def test_flags_a_kind_does_not_read(self, kind, norm, squared):
        # the squared variant exists for kkt only, and neither it nor the
        # product reads a norm
        with pytest.raises(ValueError):
            ResidualSpec(kind, norm, 0.5, squared_stationarity=squared)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            ResidualSpec("kkt", "l2", 0.0)
        with pytest.raises(ValueError):
            ResidualSpec("kkt", "l2", 1.5)

    def test_product_kind_clamped_in_penalty(self, lcp_param):
        # y'w < 0 at this point; the penalty clamps at zero instead of
        # producing a complex power
        z = KktPoint([2.0], [0.5, 1.0], [0.0, 0.0])
        w = lcp_param.F(z.x, z.y)
        assert product_residual(z.y, w) < 0.0
        spec = ResidualSpec("product", "l2", 0.5)
        assert penalized_objective(lcp_param, z, 3.0, spec) == pytest.approx(
            lcp_param.f_value(z.x, z.y))


# -- the point functions against a per-point transcription ----------------

def reference_f(obj, x, y):
    # all five terms of f in its order, the zero ones included
    return float(0.5 * x @ (obj.xx @ x) + x @ (obj.xy @ y)
                 + 0.5 * y @ (obj.yy @ y)
                 + obj.x_lin @ x + obj.y_lin @ y + obj.const)


def _reference_norm(v, norm):
    return float(np.sum(np.abs(v))) if norm == "l1" else float(np.linalg.norm(v))


def reference_residual(problem, spec, z):
    n, m = problem.n, problem.m
    x, y, lam = z[:n], z[n:n + m], z[n + m:]
    w = problem.M @ y + (problem.qmap.Q @ x + problem.qmap.q0)
    if spec.kind == "min":
        return _reference_norm(np.minimum(y, w), spec.norm)
    if spec.kind == "product":
        return float(y @ w)
    s = w - lam
    if spec.squared_stationarity:
        return float(s @ s + lam @ y)
    return (_reference_norm(s, spec.norm) + float(np.sum(np.maximum(-y, 0.0)))
            + float(np.sum(np.maximum(-lam, 0.0))) + float(np.sum(np.abs(lam * y))))


#: every residual kind, norm and kkt variant, as (kind, norm, squared)
ALL_RESIDUALS = [("min", "l1", False), ("min", "l2", False), ("product", "l2", False),
                 ("kkt", "l1", False), ("kkt", "l2", False), ("kkt", "l2", True)]
OBJECTIVE_BLOCKS = ("xx", "xy", "yy", "x_lin", "y_lin")


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 8),
       zeroed=st.sets(st.sampled_from(OBJECTIVE_BLOCKS)),
       const=st.sampled_from([0.0, -0.0, None]))
@example(seed=5, n=2, m=3, zeroed=set(OBJECTIVE_BLOCKS), const=-0.0)
def test_point_functions_match_a_per_point_transcription(seed, n, m, zeroed, const):
    # residual_value, penalized_objective and f_value against plain 1-D
    # code that adds every term of f, zero blocks included, and powers
    # with Python's **; None draws a random constant
    rng = np.random.default_rng(seed)
    shapes = {"xx": (n, n), "xy": (n, m), "yy": (m, m), "x_lin": (n,), "y_lin": (m,)}
    blocks = {b: np.zeros(shape) if b in zeroed else rng.standard_normal(shape)
              for b, shape in shapes.items()}
    c = float(rng.standard_normal()) if const is None else const
    problem = MpecProblem(QuadObjective(**blocks, const=c), np.tile([-1.0, 1.0], (n, 1)),
                          rng.standard_normal((m, m)),
                          AffineParamMap(rng.standard_normal((m, n)), rng.standard_normal(m)),
                          2.0)
    for _ in range(4):
        # signed zeros and negative components included
        z = rng.standard_normal(n + 2 * m) * rng.choice([1e-3, 1.0, 1e3])
        z[rng.random(z.size) < 0.2] = 0.0
        z[rng.random(z.size) < 0.1] = -0.0
        point = problem.split(z)
        f = reference_f(problem.objective, point.x, point.y)
        assert _bits(problem.f_value(point.x, point.y)) == _bits(f)
        for kind, norm, squared in ALL_RESIDUALS:
            for gamma in (0.5, 1.0, float(rng.uniform(0.05, 1.0))):
                spec = ResidualSpec(kind, norm, gamma, squared)
                r = reference_residual(problem, spec, z)
                assert _bits(residual_value(problem, point, spec)) == _bits(r)
                for alpha in (0.0, 1.0, 1e4):
                    want = f + alpha * max(r, 0.0) ** gamma
                    got = penalized_objective(problem, point, alpha, spec)
                    assert _bits(got) == _bits(want), (spec, alpha, got, want)
