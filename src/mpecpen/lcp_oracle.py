"""Ground truth for desk-scale LCPs by complementary-basis enumeration.

For order m the enumeration visits all 2^m index sets I, solves
M_II y_I = -q_I with the remaining components pinned at zero, and keeps
every candidate passing the feasibility and complementarity checks.
Exhaustive and exact at small m, which is the whole point: these answers
calibrate the penalty machinery.

The index sets are enumerated by size, each size in
``itertools.combinations`` order and in chunks whose work arrays stay
within a fixed memory budget; each chunk takes one batched
``np.linalg.solve`` (or ``slogdet`` for the P-matrix test).  Batching
changes no bits: each basis gets the same LAPACK call and the same residual
product it would get alone, and the vectorised feasibility screen only
preselects, with a rounding margin, the candidates that the per-basis
checks then confirm in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .errors import EmptySolutionSet, TooLarge
from .model import AffineParamMap, LcpInstance, _as_square, _as_vector
from .rounding import U

FEAS_TOL = 1e-10
DEDUP_TOL = 1e-9
MAX_ORDER = 20

#: Memory budget of one enumeration chunk: a chunk of n index sets of
#: size k out of range(m) is sized for n * k * m float64 entries, which
#: bounds both its stacked k x k submatrices and its n x m work arrays.
_CHUNK_BYTES = 128 * 1024


@dataclass
class SolutionSet:
    """All isolated solutions of one LCP found by enumeration."""

    points: list[np.ndarray] = field(default_factory=list)
    bases_explored: int = 0
    singular_bases: int = 0

    @property
    def empty_flag(self) -> bool:
        return not self.points


def _index_sets(m: int, first: int = 0):
    """The subsets of range(m) with at least ``first`` elements, by size
    and within a size in ``itertools.combinations`` order, as (n, size)
    intp arrays; a size-k chunk has at most _CHUNK_BYTES // (8 k m) rows."""
    for size in range(first, m + 1):
        if size == 0:
            yield np.zeros((1, 0), dtype=np.intp)
            continue
        per_chunk = max(1, _CHUNK_BYTES // (8 * size * m))
        sets = combinations(range(m), size)
        while (flat := np.fromiter(chain.from_iterable(islice(sets, per_chunk)),
                                   dtype=np.intp)).size:
            yield flat.reshape(-1, size)


def _principal_submatrices(M: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return M[idx[:, :, None], idx[:, None, :]]


def _passes_checks(y: np.ndarray, w: np.ndarray) -> bool:
    return (np.all(y >= -FEAS_TOL) and np.all(w >= -FEAS_TOL)
            and abs(float(y @ w)) <= FEAS_TOL)


def _solve_stack(subs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row j solves subs[j] y = rhs[j], where rhs[j] is a vector or, for
    several right-hand sides at once, a matrix; rows of exactly singular
    submatrices are NaN.  LAPACK's gesv refuses the whole stack when the LU
    of one submatrix meets an exactly zero pivot, which is when slogdet,
    from the same LU, reads sign 0; the other rows then take one more
    batched solve, so every row still comes from the same LAPACK call it
    would get by itself."""
    column = rhs.ndim < subs.ndim
    if column:
        rhs = rhs[..., None]
    try:
        out = np.linalg.solve(subs, rhs)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(subs).sign != 0
        out = np.full(rhs.shape, np.nan)
        out[regular] = np.linalg.solve(subs[regular], rhs[regular])
    return out[..., 0] if column else out


def _screen_chunk(M: np.ndarray, q: np.ndarray, idx: np.ndarray):
    """Solve the bases of one chunk and screen them.

    Returns the basic solutions y_I (n x k), a mask of the bases that
    count as singular, and a mask of the candidates that may pass
    ``_passes_checks``.  A basis is singular when its solve fails, is not
    finite or leaves a residual max |M_II y_I + q_I| above
    1e-8 max(1, max |q_I|); the stacked product M_II @ y_I makes the same
    matrix-vector call per basis as an unstacked one.  The candidate mask
    is a superset: w = M y + q comes from one matrix product for the whole
    chunk, and ``slack`` bounds how far its rounding can stray from the
    per-basis product that ``_passes_checks`` is given: each of the two
    lies within gamma_{m+1} (|M||y| + |q|) of the exact w (see
    ``rounding``), and 2 gamma_{m+1} <= 4 (m + 1) u, half the slack.
    """
    n, m = len(idx), q.size
    subs = _principal_submatrices(M, idx)
    q_i = q[idx]
    y_i = _solve_stack(subs, -q_i)
    Y = np.zeros((n, m))
    Y[np.arange(n)[:, None], idx] = y_i
    with np.errstate(all="ignore"):
        residual = np.max(np.abs((subs @ y_i[..., None])[..., 0] + q_i), axis=1, initial=0.0)
        w = Y @ M.T + q
        slack = 8 * (m + 1) * U * (np.abs(Y) @ np.abs(M).T + np.abs(q))
        singular = (~np.all(np.isfinite(y_i), axis=1)
                    | (residual > 1e-8 * np.max(np.abs(q_i), axis=1, initial=1.0)))
        maybe = (~singular & np.all(y_i >= -FEAS_TOL, axis=1)
                 & np.all(w + slack >= -FEAS_TOL, axis=1))
    return y_i, singular, maybe


def solve_lcp_enumerate(lcp: LcpInstance) -> SolutionSet:
    """Enumerate all complementary bases; singular bases are skipped and
    counted, never treated as errors."""
    m = lcp.order
    if m > MAX_ORDER:
        raise TooLarge(f"enumeration limited to order {MAX_ORDER}, got {m}")
    M, q = lcp.M, lcp.q
    found: list[np.ndarray] = []
    singular = 0
    explored = 0
    for idx in _index_sets(m):
        explored += len(idx)
        y_i, bad, maybe = _screen_chunk(M, q, idx)
        singular += int(np.count_nonzero(bad))
        for j in np.flatnonzero(maybe):
            y = np.zeros(m)
            y[idx[j]] = y_i[j]
            if _passes_checks(y, M @ y + q):
                if all(np.linalg.norm(y - p) > DEDUP_TOL for p in found):
                    found.append(y)
    found.sort(key=lambda p: tuple(p))
    return SolutionSet(points=found, bases_explored=explored, singular_bases=singular)


def distance_to_solution_set(z, sols: SolutionSet) -> float:
    """Euclidean distance from z to the nearest listed solution."""
    if sols.empty_flag:
        raise EmptySolutionSet("solution set is empty; distance is +inf")
    z = _as_vector(z, "z", size=sols.points[0].size)
    return min(float(np.linalg.norm(z - p)) for p in sols.points)


def parametric_solution_path(M, qmap: AffineParamMap, x_grid) -> list[tuple[np.ndarray, SolutionSet]]:
    """Enumerated solution sets along a grid of parameter values."""
    grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x_grid]
    if not grid:
        raise ValueError("x_grid must be nonempty")
    M = np.asarray(M, dtype=float)
    return [(x, solve_lcp_enumerate(LcpInstance(M, qmap(x)))) for x in grid]


def is_P_matrix(M) -> bool:
    """True iff every principal minor of M is strictly positive."""
    M = _as_square(M, "M")
    m = M.shape[0]
    if m > MAX_ORDER:
        raise TooLarge(f"principal-minor test limited to order {MAX_ORDER}, got {m}")
    # the sign of each minor is read from its LU, whose pivots are never
    # multiplied out, so no determinant can underflow to 0 or overflow
    for idx in _index_sets(m, first=1):
        if np.any(np.linalg.slogdet(_principal_submatrices(M, idx)).sign <= 0.0):
            return False
    return True
