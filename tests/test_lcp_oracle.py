import warnings
from itertools import combinations

import numpy as np
import pytest

from mpecpen import lcp_oracle
from mpecpen import (
    AffineParamMap,
    DimensionMismatch,
    EmptySolutionSet,
    LcpInstance,
    SolutionSet,
    TooLarge,
    distance_to_solution_set,
    is_P_matrix,
    min_residual,
    parametric_solution_path,
    solve_lcp_enumerate,
)

Q2_M = np.array([[2.0, 0.0], [0.0, 1.0]])
Q2_MAP = AffineParamMap([[-1.0], [-1.0]], [0.0, 1.0])
Q1_M = np.array([[0.0, -1.0], [1.0, 0.0]])
Q1_Q = np.array([-1.0, 2.0])


def feasible(y, M, q, tol=1e-10):
    w = M @ y + q
    return np.all(y >= -tol) and np.all(w >= -tol) and abs(y @ w) <= tol


class TestEnumerate:
    def test_at_zero(self):
        sols = solve_lcp_enumerate(LcpInstance(Q2_M, [0.0, 1.0]))
        assert [p.tolist() for p in sols.points] == [[0.0, 0.0]]
        assert sols.bases_explored == 4

    def test_at_two(self):
        sols = solve_lcp_enumerate(LcpInstance(Q2_M, [-2.0, -1.0]))
        assert [p.tolist() for p in sols.points] == [[1.0, 1.0]]

    def test_inconsistent_instance_is_empty(self):
        sols = solve_lcp_enumerate(LcpInstance(Q1_M, Q1_Q))
        assert sols.empty_flag and not sols.points

    def test_duplicates_merged(self):
        sols = solve_lcp_enumerate(LcpInstance(np.eye(2), np.zeros(2)))
        assert len(sols.points) == 1
        assert np.allclose(sols.points[0], 0.0)

    def test_singular_bases_counted(self):
        sols = solve_lcp_enumerate(LcpInstance(np.zeros((1, 1)), [1.0]))
        assert sols.singular_bases == 1
        assert [p.tolist() for p in sols.points] == [[0.0]]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            solve_lcp_enumerate(LcpInstance(np.eye(21), np.zeros(21)))

    def test_soundness_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = rng.integers(1, 5)
            M = rng.normal(size=(m, m))
            q = rng.normal(size=m)
            sols = solve_lcp_enumerate(LcpInstance(M, q))
            for y in sols.points:
                assert feasible(y, M, q)


class TestDistance:
    def test_member(self):
        sols = SolutionSet(points=[np.array([0.5, 0.0])])
        assert distance_to_solution_set([0.5, 0.0], sols) == 0.0

    def test_nearest_of_two(self):
        sols = SolutionSet(points=[np.array([1.0, 1.0]), np.array([0.0, 2.0])])
        assert distance_to_solution_set([10.0, 1.0], sols) == pytest.approx(9.0)

    def test_empty(self):
        with pytest.raises(EmptySolutionSet):
            distance_to_solution_set([0.0, 0.0], SolutionSet())

    def test_emptiness_follows_the_points(self):
        assert SolutionSet().empty_flag
        assert not SolutionSet(points=[np.zeros(2)]).empty_flag
        with pytest.raises(TypeError):
            SolutionSet(points=[], empty_flag=False)


class TestPath:
    def test_parametric_values(self):
        path = parametric_solution_path(Q2_M, Q2_MAP, [[0.0], [1.0], [2.0]])
        got = [[p.tolist() for p in s.points] for _, s in path]
        assert got == [[[0.0, 0.0]], [[0.5, 0.0]], [[1.0, 1.0]]]

    def test_constant_map(self):
        qmap = AffineParamMap(np.zeros((2, 1)), [1.0, 1.0])
        path = parametric_solution_path(np.eye(2), qmap, [[0.0], [5.0], [-3.0]])
        first = path[0][1].points
        for _, s in path[1:]:
            assert len(s.points) == len(first)
            for a, b in zip(s.points, first):
                assert np.allclose(a, b)

    def test_grid_of_singletons(self):
        grid = [[x] for x in np.linspace(0.0, 2.0, 101)]
        path = parametric_solution_path(Q2_M, Q2_MAP, grid)
        assert all(len(s.points) == 1 for _, s in path)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            parametric_solution_path(Q2_M, Q2_MAP, [])


class TestPMatrix:
    def test_examples(self):
        assert is_P_matrix(Q2_M)
        assert not is_P_matrix(Q1_M)
        assert is_P_matrix(np.eye(4))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            is_P_matrix(np.eye(21))

    def test_minor_signs_survive_any_scale(self):
        # every minor of s I_14 is s^k: 1e-350 underflows a determinant to
        # 0 and 1e350 overflows it, while their LU pivots stay s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_P_matrix(1e-25 * np.eye(14))
            assert is_P_matrix(1e25 * np.eye(14))
            assert not is_P_matrix(-1e-25 * np.eye(3))

    @pytest.mark.parametrize("M", [[[np.nan]], [[np.inf, 0.0], [0.0, 1.0]], [1.0, 2.0]],
                             ids=["nan", "inf", "vector"])
    def test_bad_matrix_refused(self, M):
        # a NaN minor fails "<= 0", so unchecked these would read as P-matrices
        with pytest.raises(DimensionMismatch):
            is_P_matrix(M)

    def test_uniqueness_on_random_p_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            A = rng.normal(size=(m, m))
            M = A.T @ A + np.eye(m)
            assert is_P_matrix(M)
            q = rng.normal(size=m) * 2.0
            sols = solve_lcp_enumerate(LcpInstance(M, q))
            assert len(sols.points) == 1
            assert feasible(sols.points[0], M, q)

    def test_residual_solution_consistency(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            A = rng.normal(size=(m, m))
            M = A.T @ A + np.eye(m)
            q = rng.normal(size=m) * 2.0
            lcp = LcpInstance(M, q)
            sols = solve_lcp_enumerate(lcp)
            y = sols.points[0]
            assert min_residual(y, lcp.slack(y), "l2") <= 1e-9
            for _ in range(10):
                delta = rng.normal(size=m)
                delta *= rng.uniform(1e-3, 1.0) / np.linalg.norm(delta)
                yp = y + delta
                assert min_residual(yp, lcp.slack(yp), "l2") > 1e-6


# -- differential test against the one-call-per-basis enumeration ---------

def reference_enumerate(M, q):
    """The enumeration loop as it was before batching: one numpy call per
    index set."""
    m = q.size
    found, singular, explored = [], 0, 0
    for size in range(m + 1):
        for idx in combinations(range(m), size):
            explored += 1
            y = np.zeros(m)
            if idx:
                ii = np.array(idx)
                sub = M[np.ix_(ii, ii)]
                try:
                    y_i = np.linalg.solve(sub, -q[ii])
                except np.linalg.LinAlgError:
                    singular += 1
                    continue
                if not np.all(np.isfinite(y_i)) or \
                        np.max(np.abs(sub @ y_i + q[ii])) > 1e-8 * max(1.0, np.max(np.abs(q[ii]))):
                    singular += 1
                    continue
                y[ii] = y_i
            w = M @ y + q
            tol = lcp_oracle.FEAS_TOL
            if np.all(y >= -tol) and np.all(w >= -tol) and abs(float(y @ w)) <= tol:
                if all(np.linalg.norm(y - p) > lcp_oracle.DEDUP_TOL for p in found):
                    found.append(y)
    found.sort(key=lambda p: tuple(p))
    return found, explored, singular


def reference_is_P(M):
    m = M.shape[0]
    for size in range(1, m + 1):
        for idx in combinations(range(m), size):
            ii = np.array(idx)
            if np.linalg.det(M[np.ix_(ii, ii)]) <= 0.0:
                return False
    return True


def differential_instances(seed=41, count=12):
    """Seeded LCPs of order <= 8 that reach every path of the enumerator."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 9))
        # rank-deficient PSD: near-singular bases fail the residual test
        B = rng.normal(size=(m, max(1, m // 2)))
        out.append((B @ B.T, rng.normal(size=m)))
        # zero rows: bases through them are exactly singular
        M = rng.normal(size=(m, m))
        M[rng.choice(m, size=max(1, m // 3), replace=False)] = 0.0
        out.append((M, rng.uniform(0.1, 1.0, size=m)))
        # non-P with several solutions: every basis of -I solves q > 0
        out.append((-np.eye(m), rng.uniform(0.5, 1.5, size=m)))
        # small integers: ties, exact zeros and repeated points
        out.append((rng.integers(-2, 3, size=(m, m)).astype(float),
                    rng.integers(-2, 3, size=m).astype(float)))
        # P-matrix
        A = rng.normal(size=(m, m))
        out.append((A @ A.T + np.eye(m), rng.normal(size=m)))
        # general
        out.append((rng.normal(size=(m, m)), rng.normal(size=m)))
        # a planted solution on the tolerance boundary: one entry of y and
        # one of w = M y + q sit half a tolerance below zero
        A = rng.normal(size=(m, m))
        M = A @ A.T + np.eye(m)
        support = np.arange(m) < m // 2
        y = np.where(support, rng.uniform(0.5, 1.5, size=m), 0.0)
        w = np.where(support, 0.0, rng.uniform(0.5, 1.5, size=m))
        y[0] = w[-1] = -0.5 * lcp_oracle.FEAS_TOL
        out.append((M, w - M @ y))
    return out


@pytest.mark.parametrize("chunk_bytes", [1, 2000, lcp_oracle._CHUNK_BYTES])
def test_enumeration_matches_per_basis_loop(chunk_bytes, monkeypatch):
    monkeypatch.setattr(lcp_oracle, "_CHUNK_BYTES", chunk_bytes)
    stacks = []
    solve_stack = lcp_oracle._solve_stack

    def spy(subs, rhs):
        out = solve_stack(subs, rhs)
        stacks.append((len(subs), int(np.count_nonzero(np.isnan(out).any(axis=1)))))
        return out

    monkeypatch.setattr(lcp_oracle, "_solve_stack", spy)
    several = on_edge = 0
    for M, q in differential_instances():
        points, explored, singular = reference_enumerate(M, q)
        got = solve_lcp_enumerate(LcpInstance(M, q))
        assert len(got.points) == len(points)
        assert all(np.array_equal(a, b) for a, b in zip(got.points, points))
        assert got.bases_explored == explored == 2 ** q.size
        assert got.singular_bases == singular
        assert got.empty_flag == (not points)
        several += len(points) > 1
        on_edge += any(np.min(p) < 0.0 or np.min(M @ p + q) < 0.0 for p in points)
    assert several >= 10 and on_edge >= 10
    # chunks that held both exactly singular and regular bases were solved
    assert any(0 < bad < n for n, bad in stacks) == (chunk_bytes > 1)
    if chunk_bytes == 1:
        assert {n for n, _ in stacks} == {1}


@pytest.mark.parametrize("chunk_bytes", [1, 2000, lcp_oracle._CHUNK_BYTES])
def test_P_test_matches_per_minor_loop(chunk_bytes, monkeypatch):
    monkeypatch.setattr(lcp_oracle, "_CHUNK_BYTES", chunk_bytes)
    mats = [M for M, _ in differential_instances()]
    for m in range(2, 9):
        # every proper principal minor is positive and only det(M) is not,
        # so the test runs to the last minor before it fails
        t = -1.0 / (m - 1.5)
        late = (1.0 - t) * np.eye(m) + t * np.ones((m, m))
        assert np.linalg.det(late) < 0.0
        mats.append(late)
    answers = [is_P_matrix(M) for M in mats]
    assert answers == [reference_is_P(M) for M in mats]
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("matrix_rhs", [False, True], ids=["vector", "matrix"])
def test_solve_stack_marks_only_the_rows_gesv_refuses(matrix_rhs, monkeypatch):
    rng = np.random.default_rng(5)
    subs = []
    for j in range(40):
        A = rng.normal(size=(4, 4))
        if j % 4 == 1:
            A[rng.integers(4)] = 0.0   # a zero row: a zero pivot, exactly
        elif j % 4 == 2:
            A = rng.integers(-1, 2, size=(4, 2)) @ rng.integers(-1, 2, size=(2, 4))
            A = A.astype(float)        # rank 2 or less in small integers
        elif j % 4 == 3:
            A = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))
        subs.append(A)
    subs = np.array(subs)
    rhs = rng.normal(size=(40, 4, 3) if matrix_rhs else (40, 4))
    solve = np.linalg.solve
    expected = []
    for A, b in zip(subs, rhs):
        try:
            expected.append(solve(A, b))
        except np.linalg.LinAlgError:
            expected.append(None)
    refused = [e is None for e in expected]
    # zero rows are refused, regular matrices pass, and rank-deficient
    # ones go either way: refused on an exact zero pivot, else solved
    assert all(refused[1::4]) and not any(refused[0::4])
    assert 0 < sum(refused[3::4]) < 10

    calls = {"solve": 0, "slogdet": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
    monkeypatch.setattr(np.linalg, "slogdet", counted("slogdet", np.linalg.slogdet))
    got = lcp_oracle._solve_stack(subs, rhs)
    assert calls["solve"] <= 2 and calls["slogdet"] <= 1
    assert got.shape == rhs.shape
    for row, want in zip(got, expected):
        if want is None:
            assert np.isnan(row).all()
        else:
            assert row.tobytes() == want.tobytes()
