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
product it would get alone, and each chunk is checked once, exactly: w =
M y + q comes from ``np.matvec`` and y'w from ``np.vecdot``, which make
per basis the BLAS calls of a 1-D ``@``, so a basis passes or fails as it
would alone, and the bases that pass are kept in enumeration order.  The
index sets of each order up to 16 are built once, on first use, into
read-only tables whose row slices, widened to intp, are the chunks of
every later enumeration, P-test and projection of that order: m 2^(m-1)
one-byte entries for order m, 115 KB at m = 14, 0.5 MB at m = 16 and
1.0 MB for all orders up to 16.  Orders 17 to 20 build their chunks as
they go.

``is_P_matrix`` first tries a proof: when one floating-point Cholesky
certifies that the symmetric part (M + M')/2 is positive definite, with
a shift that covers every rounding error (Rump 2006), M is a P-matrix.
Any other M, such as a P-matrix with an indefinite symmetric part or a
matrix that is not a P-matrix, goes to the scan of every principal
minor, which gives every False.  Only the certificate's True is a proof.
The scan reads each minor's sign from a floating-point LU, so for a
numerically singular matrix its True and its False can both be wrong.
Two Gram matrices of ``tests/test_lcp_oracle.py`` show both:
``psd_gram(1, 6)``, whose leading 5x5 minor is -1.1e-35 in exact
arithmetic on its stored entries, gets True under OpenBLAS's Haswell
kernels, and ``psd_gram(2, 6)``, whose every minor is positive in exact
arithmetic, gets False under the SkylakeX and the Haswell kernels alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, islice

import numpy as np

from .errors import EmptySolutionSet, TooLarge
from .model import AffineParamMap, LcpInstance, _as_square, _as_vector
from .rounding import ETA, U, gamma

FEAS_TOL = 1e-10
DEDUP_TOL = 1e-9
MAX_ORDER = 20

#: Memory budget of one enumeration chunk: a chunk of n index sets of
#: size k out of range(m) is sized for n * k * m float64 entries, which
#: bounds both its stacked k x k submatrices and its n x m work arrays.
_CHUNK_BYTES = 128 * 1024
#: Largest order whose index sets are kept once built: the tables of
#: order m hold m 2^(m-1) one-byte entries, 0.5 MB at m = 16 and 1.0 MB
#: for all the orders up to 16 together.
_CACHED_ORDER = 16


@dataclass
class SolutionSet:
    """All isolated solutions of one LCP found by enumeration."""

    points: list[np.ndarray] = field(default_factory=list)
    bases_explored: int = 0
    singular_bases: int = 0

    @property
    def empty_flag(self) -> bool:
        return not self.points


def _combination_rows(sets, size: int, count: int | None = None) -> np.ndarray:
    """The next ``count`` index sets of the iterator ``sets`` (all of them
    when None), each of ``size`` elements, as the rows of an intp array."""
    return np.fromiter(chain.from_iterable(islice(sets, count)),
                       dtype=np.intp).reshape(-1, size)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_INDEX = _read_only(np.zeros((1, 0), dtype=np.intp))


@cache
def _index_table(m: int) -> tuple[np.ndarray, ...]:
    """Entry k holds every k-subset of range(m) as the read-only rows of
    one table in ``itertools.combinations`` order; an index is below
    m <= _CACHED_ORDER, so one byte holds it, an eighth of intp."""
    return (_NO_INDEX, *(_read_only(_combination_rows(combinations(range(m), size), size)
                                    .astype(np.uint8)) for size in range(1, m + 1)))


def _index_sets(m: int, first: int = 0):
    """The subsets of range(m) with at least ``first`` elements, by size
    and within a size in ``itertools.combinations`` order, as read-only
    (n, size) intp arrays; a size-k chunk has at most _CHUNK_BYTES // (8 k m)
    rows.  Up to order _CACHED_ORDER each chunk is a row slice, widened to
    intp, of the order's ``_index_table``, which is built on first use and
    kept; larger orders build their chunks from ``itertools.combinations``
    as they go."""
    for size in range(first, m + 1):
        if size == 0:
            yield _NO_INDEX
            continue
        per_chunk = max(1, _CHUNK_BYTES // (8 * size * m))
        if m <= _CACHED_ORDER:
            table = _index_table(m)[size]
            for start in range(0, len(table), per_chunk):
                yield _read_only(table[start:start + per_chunk].astype(np.intp))
            continue
        sets = combinations(range(m), size)
        while (rows := _combination_rows(sets, size, per_chunk)).size:
            yield _read_only(rows)


def _principal_submatrices(M: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The stack of M[I, I] for the index sets I in the rows of idx,
    gathered by one ``take`` on M's flat view."""
    m = M.shape[0]
    return M.ravel().take(idx[:, :, None] * m + idx[:, None, :])


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


def _check_chunk(M: np.ndarray, q: np.ndarray, idx: np.ndarray) -> tuple[int, np.ndarray]:
    """Solve the bases of one chunk and check them.

    Returns the number of singular bases and, as rows in enumeration
    order, the basic solutions y that pass: y >= -FEAS_TOL,
    w = M y + q >= -FEAS_TOL and |y'w| <= FEAS_TOL.  A basis is singular
    when its solve fails, is not finite or leaves a residual
    max |M_II y_I + q_I| above 1e-8 max(1, max |q_I|); the stacked product
    M_II @ y_I makes the same matrix-vector call per basis as an unstacked
    one.  ``np.matvec`` and ``np.vecdot`` make per row the BLAS call of a
    1-D ``@``, so w and y'w have the bits of a basis checked alone.
    """
    subs = _principal_submatrices(M, idx)
    q_i = q.take(idx)
    y_i = _solve_stack(subs, -q_i)
    with np.errstate(all="ignore"):
        residual = np.max(np.abs((subs @ y_i[..., None])[..., 0] + q_i), axis=1, initial=0.0)
        singular = (~np.all(np.isfinite(y_i), axis=1)
                    | (residual > 1e-8 * np.max(np.abs(q_i), axis=1, initial=1.0)))
        keep = ~singular & np.all(y_i >= -FEAS_TOL, axis=1)
        Y = np.zeros((np.count_nonzero(keep), q.size))
        Y[np.arange(len(Y))[:, None], idx[keep]] = y_i[keep]
        w = np.matvec(M, Y) + q
        passed = np.all(w >= -FEAS_TOL, axis=1) & (np.abs(np.vecdot(Y, w)) <= FEAS_TOL)
    return int(np.count_nonzero(singular)), Y[passed]


def solve_lcp_enumerate(lcp: LcpInstance) -> SolutionSet:
    """Enumerate all complementary bases; singular bases are skipped and
    counted, never treated as errors."""
    m = lcp.order
    if m > MAX_ORDER:
        raise TooLarge(f"enumeration limited to order {MAX_ORDER}, got {m}")
    found: list[np.ndarray] = []
    singular = 0
    explored = 0
    for idx in _index_sets(m):
        explored += len(idx)
        bad, passed = _check_chunk(lcp.M, lcp.q, idx)
        singular += bad
        for y in passed:
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


def _pd_shift(S: np.ndarray) -> float:
    """The shift c of ``_certify_positive_definite``: twice the bound
    (g/(1 - g) + gamma_2) tr(S) + u ||S||_inf + 2 m (m + 2 + max s_ii) eta,
    with g = gamma_{m+1}, derived there."""
    m = S.shape[0]
    g = gamma(m + 1)
    d = np.diag(S)
    return 2.0 * ((g / (1.0 - g) + gamma(2)) * float(np.sum(d))
                  + U * float(np.max(np.sum(np.abs(S), axis=1)))
                  + 2 * m * (m + 2 + float(np.max(d))) * ETA)


def _certify_positive_definite(M: np.ndarray) -> bool:
    """True only if the floating-point Cholesky of fl(S - c I), with
    S = (M + M')/2 and c = ``_pd_shift(S)``, proves S positive definite
    (Rump, "Verification of positive definiteness", BIT 46, 2006); False
    means only that no proof was found.  A True gives x'M x = x'S x > 0 for
    every x != 0, so every principal submatrix M_II has x'M_II x > 0, its real
    eigenvalues are positive, and det M_II > 0: M is a P-matrix (Cottle,
    Pang and Stone, *The Linear Complementarity Problem*, 1992, sec. 3.3).

    Write S~ = fl((M + M')/2), A~ = fl(S~ - c I), whose off-diagonal
    entries are those of S~, u for the unit roundoff and eta for the
    smallest subnormal (see ``rounding``).  Entries at most 2^500 keep
    every sum, product and square below overflow.  If the Cholesky of A~
    runs to completion with a finite factor R, every pivot, and so every
    a~_jj, was positive and

    * R'R = A~ + E with |E| <= g |R'||R|, g = gamma_{m+1}, in any order of
      evaluation (Demmel 1989; Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Theorem 10.3).  The diagonal gives
      ||r_j||^2 <= a~_jj / (1 - g), so |E_ij| <= g/(1 - g) sqrt(a~_ii a~_jj)
      and ||E||_2 <= g/(1 - g) tr(A~) <= g/(1 - g) (1 + u) tr(S~);
    * a product or quotient that underflows strays by at most eta, so an
      entry of E gains at most (m + r_jj) eta <= (m + 1 + max a~_jj) eta
      and ||E||_2 at most m times that;
    * forming S keeps its diagonal, s_ii = m_ii, and leaves an
      off-diagonal entry within u |s~_ij| + eta of the exact one, so
      ||S - S~||_2 <= u ||S~||_inf + m eta (S - S~ is symmetric);
    * forming S~ - c I rounds only the diagonal, each a~_jj within
      u a~_jj <= u (1 + u) tr(S~) of s~_jj - c.

    So S = R'R - E + c I + (S - S~) + (S~ - c I - A~), and lambda_min(S)
    >= c - B with B at most the bound of ``_pd_shift`` (since
    g/(1 - g) u + u (1 + u) <= gamma_2); its factor 2 covers the rounding
    of c's own few operations, so c > B and S is positive definite.
    A zero or negative diagonal entry rules positive definiteness out.
    """
    if not M.size or np.max(np.abs(M)) > 2.0 ** 500:
        return False
    S = (M + M.T) * 0.5
    if np.any(np.diag(S) <= 0.0):
        return False
    try:
        R = np.linalg.cholesky(S - _pd_shift(S) * np.eye(M.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(R)))


def is_P_matrix(M) -> bool:
    """Whether every principal minor of M is strictly positive.

    A positive definite symmetric part, certified by one Cholesky
    (``_certify_positive_definite``), proves the answer True at once; any
    other M goes to the scan of all 2^m - 1 minors, which gives every
    False.  Only the certificate's True is a proof: the scan reads each
    minor's sign from a floating-point LU, so for a numerically singular
    M its True and its False can both be wrong (see the module
    docstring)."""
    M = _as_square(M, "M")
    m = M.shape[0]
    if m > MAX_ORDER:
        raise TooLarge(f"principal-minor test limited to order {MAX_ORDER}, got {m}")
    if _certify_positive_definite(M):
        return True
    # the sign of each minor is read from its LU, whose pivots are never
    # multiplied out, so no determinant can underflow to 0 or overflow
    for idx in _index_sets(m, first=1):
        if np.any(np.linalg.slogdet(_principal_submatrices(M, idx)).sign <= 0.0):
            return False
    return True
