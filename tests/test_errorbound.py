import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpecpen import (
    DimensionMismatch,
    EmptyPolyhedron,
    LcpInstance,
    TooFewSamples,
    distance_to_solution_set,
    min_residual,
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
from mpecpen import errorbound, lcp_oracle
from mpecpen.lcp_oracle import _index_sets

Q1_LCP = LcpInstance([[0.0, -1.0], [1.0, 0.0]], [-1.0, 2.0])


class TestSampleCloud:
    def test_degenerate_box(self):
        pts = sample_cloud(None, [[0.0, 0.0], [0.0, 0.0]], 1, seed=0)
        assert len(pts) == 1 and np.allclose(pts[0], 0.0)

    def test_seed_reproducibility(self):
        a = sample_cloud(None, [[-3.0, 3.0], [-3.0, 3.0]], 50, seed=9)
        b = sample_cloud(None, [[-3.0, 3.0], [-3.0, 3.0]], 50, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_containment(self):
        pts = sample_cloud(None, [[-3.0, 3.0], [-3.0, 3.0]], 1000, seed=1)
        arr = np.array(pts)
        assert arr.min() >= -3.0 and arr.max() <= 3.0

    def test_order_check(self):
        with pytest.raises(ValueError):
            sample_cloud(Q1_LCP, [[0.0, 1.0]], 5, seed=0)


class TestFitExponent:
    def test_linear_identity(self):
        cloud = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], 400, seed=0)
        est = fit_exponent([(max(p[0], 0.0), max(p[0], 0.0)) for p in cloud])
        assert est.gamma_hat == pytest.approx(1.0, abs=1e-6)
        assert est.tau_hat == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_identity(self):
        cloud = sample_cloud(None, [[-1.0, 1.0]], 400, seed=0)
        est = fit_exponent([(abs(p[0]), p[0] ** 2) for p in cloud])
        assert est.gamma_hat == pytest.approx(0.5, abs=1e-6)
        assert est.tau_hat == pytest.approx(1.0, abs=1e-6)

    def test_lcp_cloud_bracket(self):
        lcp = LcpInstance([[2.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])
        sols = solve_lcp_enumerate(lcp)
        cloud = sample_cloud(lcp, [[-1.0, 2.0], [-1.0, 2.0]], 400, seed=0)
        samples = [(distance_to_solution_set(p, sols),
                    min_residual(p, lcp.slack(p), "l2")) for p in cloud]
        est = fit_exponent(samples)
        assert 0.9 <= est.gamma_hat <= 1.1

    def test_synthetic_recovery(self):
        rs = np.logspace(-3.0, 0.5, 60)
        for tau in (0.5, 1.0, 2.0):
            for gamma in (0.5, 1.0):
                est = fit_exponent([(tau * r ** gamma, r) for r in rs])
                assert est.gamma_hat == pytest.approx(gamma, abs=1e-9)
                assert est.tau_hat == pytest.approx(tau, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_exponent([(1.0, 1.0)] * 9)
        # near-feasible samples below the floor do not count
        with pytest.raises(TooFewSamples):
            fit_exponent([(1.0, 1e-13)] * 20)

    def test_one_residual_value_refused(self):
        # a rank-deficient fit, whose lstsq minimum-norm answer is gamma_hat = 0.30
        samples = [(0.1 * (i + 1), 0.5) for i in range(12)]
        with pytest.raises(TooFewSamples, match="one value"):
            fit_exponent(samples)

    @pytest.mark.parametrize("bad", [(math.inf, 0.5), (1.0, math.nan), (math.nan, 0.0)],
                             ids=["inf-distance", "nan-residual", "nan-distance"])
    def test_non_finite_sample_refused(self, bad):
        # one infinite distance would make every estimate NaN, and a NaN
        # sample would be dropped without a word
        samples = [(r, r) for r in np.logspace(-3.0, 0.0, 20)] + [bad]
        with pytest.raises(DimensionMismatch, match="non-finite"):
            fit_exponent(samples)

    def test_max_ratio_certificate(self):
        rng = np.random.default_rng(31)
        samples = [(float(r ** 0.7 * rng.uniform(0.5, 1.5)), float(r))
                   for r in np.logspace(-2, 1, 80)]
        est = fit_exponent(samples)
        for d, r in samples:
            assert d <= (1.0 + 1e-6) * est.tau_max * r ** est.gamma_hat


class TestRayDivergence:
    T_VALUES = [1.0, 10.0, 100.0, 10000.0]

    def test_constant_residual(self):
        rep = ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], self.T_VALUES)
        for row in rep.rows:
            assert row.residual == pytest.approx(math.sqrt(5.0), abs=1e-12)
            assert math.isinf(row.distance)
        assert "empty" in rep.note
        assert not rep.refuted

    def test_refutation_against_nominal_set(self):
        rep = ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], self.T_VALUES,
                                  solutions=[[1.0, 1.0], [0.0, 2.0]])
        assert rep.refuted
        assert rep.rows[-1].distance == pytest.approx(9999.0)

    def test_ray_inside_solution_set(self):
        lcp = LcpInstance(np.eye(2), np.zeros(2))
        rep = ray_divergence_test(lcp, [0.0, 0.0], [0.0, 0.0], [1.0, 2.0, 3.0])
        assert not rep.refuted
        assert all(row.residual == 0.0 for row in rep.rows)

    def test_short_direction_rejected(self):
        # a 1-entry direction was once broadcast along (1, 1)
        with pytest.raises(DimensionMismatch, match="direction"):
            ray_divergence_test(LcpInstance(np.eye(2), [-1, -1]), [0, 0], [1.0], [1, 10])

    def test_mis_sized_base_and_solutions_rejected(self):
        with pytest.raises(DimensionMismatch, match="base"):
            ray_divergence_test(Q1_LCP, [0.0, 1.0, 2.0], [1.0, 0.0], [1.0])
        with pytest.raises(DimensionMismatch, match="solution"):
            ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], [1.0],
                                solutions=[[1.0, 1.0], [2.0]])
        with pytest.raises(DimensionMismatch, match="base"):
            ray_divergence_test(Q1_LCP, [0.0, math.nan], [1.0, 0.0], [1.0])

    def test_bad_t_values(self):
        with pytest.raises(ValueError):
            ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], [])
        with pytest.raises(ValueError):
            ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], [2.0, 1.0])

    @pytest.mark.parametrize("t_values", [[1.0, math.nan], [1.0, math.inf], [math.nan]],
                             ids=["nan", "inf", "lone-nan"])
    def test_non_finite_t_values_named(self, t_values):
        # a NaN passes the ordering check; unchecked, the ray failed later
        # in LcpInstance.slack with a message naming y
        with pytest.raises(DimensionMismatch, match="t_values"):
            ray_divergence_test(Q1_LCP, [0.0, 1.0], [1.0, 0.0], t_values)


class TestProjection:
    def test_halfspace(self):
        z, d = project_polyhedron([[1.0, 0.0]], [0.0], [], [], [0.7, 0.3])
        assert np.allclose(z, [0.0, 0.3])
        assert d == pytest.approx(0.7)

    def test_interior_point(self):
        z, d = project_polyhedron([[1.0, 0.0]], [0.0], [], [], [-0.5, 0.2])
        assert d == 0.0

    def test_with_equality(self):
        z, d = project_polyhedron([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0], [0.6, 0.8])
        assert np.allclose(z, [0.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_empty_polyhedron(self):
        with pytest.raises(EmptyPolyhedron):
            project_polyhedron([[1.0], [-1.0]], [-1.0, -1.0], [], [], [0.0])

    def test_against_grid_search(self):
        rng = np.random.default_rng(37)
        A = rng.normal(size=(3, 2))
        a = np.abs(rng.normal(size=3)) + 0.1  # keeps the origin interior
        grid = np.linspace(-3, 3, 301)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        mask = np.ones_like(gx, dtype=bool)
        for row, rhs in zip(A, a):
            mask &= row[0] * gx + row[1] * gy <= rhs + 1e-12
        assert mask.any()
        for _ in range(20):
            x = rng.normal(size=2) * 2.0
            z, d = project_polyhedron(A, a, [], [], x)
            assert np.max(A @ z - a) <= 1e-9
            dd = np.sqrt((gx[mask] - x[0]) ** 2 + (gy[mask] - x[1]) ** 2).min()
            assert d <= dd + 1e-9


class TestHoffman:
    CLOUD = None

    def cloud(self):
        if TestHoffman.CLOUD is None:
            TestHoffman.CLOUD = sample_cloud(None, [[-1.0, 1.0], [-1.0, 1.0]], 300, seed=3)
        return TestHoffman.CLOUD

    def test_halfspace_constant(self):
        est = hoffman_baseline([[1.0, 0.0]], [0.0], [], [], self.cloud())
        assert est.tau_hat == pytest.approx(1.0, abs=1e-9)
        assert est.gamma_hat == 1.0

    def test_corner_constant_capped(self):
        est = hoffman_baseline([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0], self.cloud())
        assert est.tau_hat <= math.sqrt(2.0) + 1e-9

    def test_inside_cloud_degenerate(self):
        inside = [np.array([-0.5, -0.2]), np.array([-0.9, -0.1])] * 6
        est = hoffman_baseline([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [], [], inside)
        assert est.degenerate and est.tau_hat == 0.0

    def test_aposteriori_bound(self):
        A, a, B, b = [[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0]
        est = hoffman_baseline(A, a, B, b, self.cloud())
        for x in self.cloud():
            r = polyhedron_residual(A, a, B, b, x)
            if r <= 1e-10:
                continue
            _, d = project_polyhedron(A, a, B, b, x)
            assert d <= est.tau_hat * r * (1.0 + 1e-9) + 1e-15

    def test_empty_polyhedron_propagates(self):
        with pytest.raises(EmptyPolyhedron):
            hoffman_baseline([[1.0], [-1.0]], [-1.0, -1.0], [], [], [np.array([0.0])])


class TestSystemValidation:
    def test_misshaped_A_is_refused(self):
        # A has 2 columns but x has 4 entries; reading A as one row
        # [1, 0, 0, 1] would return a distance for the wrong system
        with pytest.raises(DimensionMismatch):
            project_polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [], [], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            polyhedron_residual([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [], [], [1.0, 1.0, 1.0, 1.0])

    def test_nan_point_is_not_an_empty_polyhedron(self):
        with pytest.raises(DimensionMismatch):
            project_polyhedron([[1.0, 0.0]], [0.0], [], [], [math.nan, 0.0])
        with pytest.raises(DimensionMismatch):
            hoffman_baseline([[1.0, 0.0]], [0.0], [], [],
                             [np.array([0.5, 0.5]), np.array([math.nan, 0.0])])

    def test_short_right_hand_side(self):
        with pytest.raises(DimensionMismatch):
            project_polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0], [], [], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            project_polyhedron([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [], [1.0, 1.0])

    def test_no_rows_is_allowed(self):
        z, d = project_polyhedron([], [], [], [], [0.3, -0.4])
        assert np.array_equal(z, [0.3, -0.4]) and d == 0.0
        assert polyhedron_residual(np.zeros((0, 2)), [], [[0.0, 1.0]], [1.0], [0.0, 3.0]) == 2.0


# -- the screened projection against the per-set loop ----------------------

def reference_project(A, a, B, b, x):
    """The projection as it was before screening: one lstsq call per
    active set."""
    A = np.asarray(A, dtype=float).reshape(-1, np.asarray(x).size) if np.size(A) else np.zeros((0, np.size(x)))
    B = np.asarray(B, dtype=float).reshape(-1, np.asarray(x).size) if np.size(B) else np.zeros((0, np.size(x)))
    a = np.atleast_1d(np.asarray(a, dtype=float)) if np.size(a) else np.zeros(0)
    b = np.atleast_1d(np.asarray(b, dtype=float)) if np.size(b) else np.zeros(0)
    x = np.asarray(x, dtype=float)
    dim = x.size
    p = A.shape[0]
    best_z = None
    best_d = math.inf
    for chunk in _index_sets(p):
        for J in chunk:
            rows = np.vstack([A[J], B]) if (J.size or B.shape[0]) else np.zeros((0, dim))
            rhs = np.concatenate([a[J], b])
            k = rows.shape[0]
            kkt = np.zeros((dim + k, dim + k))
            kkt[:dim, :dim] = np.eye(dim)
            kkt[:dim, dim:] = rows.T
            kkt[dim:, :dim] = rows
            vec = np.concatenate([x, rhs])
            try:
                sol = np.linalg.lstsq(kkt, vec, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            z = sol[:dim]
            if k and np.max(np.abs(rows @ z - rhs)) > 1e-9:
                continue
            if p and np.max(A @ z - a) > 1e-9:
                continue
            d = float(np.linalg.norm(z - x))
            if d < best_d:
                best_d, best_z = d, z
    if best_z is None:
        raise EmptyPolyhedron("no feasible candidate over all active sets")
    return best_z, best_d


def reference_or_none(A, a, B, b, x):
    """``reference_project``, or None for an empty polyhedron."""
    try:
        return reference_project(A, a, B, b, x)
    except EmptyPolyhedron:
        return None


def same_projection(A, a, B, b, x):
    """Asserts that the projection agrees bit for bit with the per-set
    loop, or that both certify emptiness, both with the default screen
    and with every chunk screened; returns the projection, or None for
    an empty polyhedron."""
    return matches(A, a, B, b, x, reference_or_none(A, a, B, b, x))


def matches(A, a, B, b, x, want):
    """``same_projection`` against ``want``, the per-set loop's result."""
    want_z, want_d = want if want is not None else (None, None)
    for screen_min in (errorbound._SCREEN_MIN_SETS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(errorbound, "_SCREEN_MIN_SETS", screen_min)
            if want_z is None:
                with pytest.raises(EmptyPolyhedron):
                    project_polyhedron(A, a, B, b, x)
                continue
            z, d = project_polyhedron(A, a, B, b, x)
        assert z.tobytes() == want_z.tobytes() and d == want_d, (screen_min, A, a, B, b, x)
    return want_z


def seeded_systems():
    """Random systems in dimension 2-4 with up to 10 inequality rows, some
    with equality rows, some with the origin inside and some empty."""
    rng = np.random.default_rng(41)
    for i in range(48):
        dim = 2 + i % 3
        p = int(rng.integers(1, 11)) if i else 10
        q = int(rng.integers(0, dim)) if i % 3 == 0 else 0
        A = rng.normal(size=(p, dim))
        B = rng.normal(size=(q, dim))
        z0 = rng.normal(size=dim)  # meets B z = b and, unless i % 4 == 3, A z <= a
        a = A @ z0 + rng.random(p) - (1.0 if i % 4 == 3 else 0.0)
        yield A, a, B, B @ z0, rng.normal(size=dim) * 3.0


def degenerate_systems():
    """Small-integer systems: equal and parallel rows, ties between active
    sets and, every other system, more planes than the dimension through
    a lattice point v that x projects onto (x - v lies in their normal
    cone)."""
    rng = np.random.default_rng(43)
    for i in range(60):
        dim = 2 + i % 2
        p = int(rng.integers(dim + 1, 8))
        A = rng.integers(-2, 3, size=(p, dim)).astype(float)
        q = int(i % 5 == 0)
        B = rng.integers(-1, 2, size=(q, dim)).astype(float)
        if i % 2:
            a = rng.integers(-2, 3, size=p).astype(float)
            yield A, a, B, B.sum(axis=1), rng.integers(-6, 7, size=dim) / 2.0
        else:
            v = rng.integers(-2, 3, size=dim).astype(float)
            a = A @ v + (np.arange(p) >= dim + 1)  # the first dim + 1 rows meet at v
            yield A, a, B, B @ v, v + A[:dim + 1].T @ rng.integers(0, 3, size=dim + 1)


@pytest.fixture(scope="module")
def per_set_results():
    """The per-set loop's result for every seeded and degenerate system,
    computed once: the loop visits the active sets in the same order
    whatever the chunk budget."""
    return ([reference_or_none(*system) for system in seeded_systems()],
            [reference_or_none(*system) for system in degenerate_systems()])


@pytest.mark.parametrize("chunk_bytes", [1, 2000, lcp_oracle._CHUNK_BYTES])
def test_projection_matches_per_set_loop(chunk_bytes, per_set_results, monkeypatch):
    monkeypatch.setattr(lcp_oracle, "_CHUNK_BYTES", chunk_bytes)
    seeded, degenerate = per_set_results
    empty = sum(matches(*system, want) is None
                for system, want in zip(seeded_systems(), seeded, strict=True))
    assert 3 <= empty <= 18  # of 48
    empty = vertices = 0
    for (A, a, B, b, x), want in zip(degenerate_systems(), degenerate, strict=True):
        z = matches(A, a, B, b, x, want)
        empty += z is None
        # more planes than the dimension meet at the projection
        vertices += z is not None and np.sum(np.abs(A @ z - a) <= 1e-9) > x.size
    assert empty >= 5 and vertices >= 20


def test_equality_rows_beyond_the_dimension():
    rng = np.random.default_rng(47)
    for _ in range(12):
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(2, 3))
        z0 = rng.normal(size=3)  # feasible: every row holds at z0
        same_projection(A, A @ z0 + rng.random(7), B, B @ z0, rng.normal(size=3) * 3.0)
    # a third equality row fixes the point; a fourth inconsistent one empties the set
    B = np.eye(3)
    z = same_projection(np.ones((4, 3)), np.full(4, 5.0), B, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert np.allclose(z, 1.0)
    B4 = np.vstack([B, [[1.0, 1.0, 1.0]]])
    assert same_projection(np.ones((4, 3)), np.full(4, 5.0), B4, [1.0, 1.0, 1.0, 4.0], [0.0, 0.0, 0.0]) is None


def test_distance_tie_keeps_the_first_active_set():
    # rows 2 and 5 are the same halfspace; sets {2} and {5} reach the
    # same distance with different bits, and {2} comes first
    A = [[-2.0, 2.0], [1.0, 0.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
    a = [-1.0, 2.0, 0.0, 1.0, 1.0, 0.0]
    x = [1.0, -1.5]
    same_projection(A, a, [], [], x)
    z, d = project_polyhedron(A, a, [], [], x)
    assert z.tolist() == [1.2499999999999998, -1.25] and d == 0.3535533905932736


def test_violation_on_either_side_of_the_tolerance():
    # the candidate of the face {0} misses row 1 by 1e-9 + s; the
    # screen must not decide the near cases, and lstsq decides them as
    # the per-set loop did
    rng = np.random.default_rng(53)
    sides = set()
    for _ in range(6):
        n0, n1 = rng.normal(size=(2, 3))
        x = rng.normal(size=3) * 2.0
        a0 = float(n0 @ x) - 1.0
        z0 = x - (n0 @ x - a0) / (n0 @ n0) * n0
        for s in np.linspace(-2e-15, 2e-15, 21):
            A = np.array([n0, n1])
            a = np.array([a0, float(n1 @ z0) - 1e-9 - s])
            same_projection(A, a, [], [], x)
            _, d = project_polyhedron(A, a, [], [], x)
            sides.add(d == reference_project(A[:1], a[:1], [], [], x)[1])
    assert sides == {True, False}


def test_nearly_concurrent_planes():
    # dim + 1 planes that miss a common point by (dim + 1) * 1e-9 + s:
    # the least-squares point of all of them passes the 1e-9 equality
    # check only for s <= 0 up to rounding, and then it is nearer to x
    # than the vertex of the first dim planes
    rng = np.random.default_rng(59)
    near = set()
    for i in range(10):
        dim = 2 + i % 2
        N = rng.normal(size=(dim, dim))
        v = rng.normal(size=dim)
        x = v + N.T @ rng.random(dim) * 2.0  # projects onto the vertex v
        A = np.vstack([N, N.sum(axis=0)])
        for s in np.linspace(-3e-15, 3e-15, 7):
            a = np.append(N @ v, (N @ v).sum() + (dim + 1) * 1e-9 + s)
            z = same_projection(A, a, [], [], x)
            near.add(bool(abs(A[-1] @ z - a[-1]) < 2e-9))
    assert near == {True, False}


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(1, 3), p=st.integers(0, 6), q=st.integers(0, 2),
       ints=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_projection_property(dim, p, q, ints, seed):
    rng = np.random.default_rng(seed)
    draw = (lambda *shape: rng.integers(-2, 3, size=shape).astype(float)) if ints \
        else (lambda *shape: rng.normal(size=shape))
    same_projection(draw(p, dim), draw(p), draw(q, dim), draw(q), rng.normal(size=dim) * 2.0)
