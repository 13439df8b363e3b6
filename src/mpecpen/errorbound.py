"""Empirical error-bound estimation: dist(z, S) <= tau * r(z)^gamma.

Exponents and constants are fitted by least squares on log dist versus
log r over a sampled cloud.  Two constants come out of every fit: the
regression constant (average case) and the max-ratio constant
max_i dist_i / r_i^gamma_hat, which certifies the fitted inequality on
the cloud itself.  A Hoffman-style baseline for linear systems fixes the
exponent at 1 and reports the sharp max-ratio constant directly, with
distances computed by exact projection onto the polyhedron.

The projection enumerates active sets in ``lcp_oracle._index_sets``
chunks.  Each chunk is screened in one batched pass, and the survivors
are confirmed per set in enumeration order by the KKT lstsq solve that
defines the result.  The screen skips a set only when it proves, with a
rounding margin built from Higham's dot-product and linear-solve error
bounds and the conditioning it computes (derived in ``_screen``), that
the set fails a 1e-9 check or lies no nearer than a confirmed candidate;
so the projection keeps the bits of one lstsq call per set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyPolyhedron, TooFewSamples
from .lcp_oracle import (SolutionSet, _index_sets, _solve_stack, distance_to_solution_set,
                         solve_lcp_enumerate)
from .model import LcpInstance, _as_matrix, _as_vector
from .residuals import min_residual
from .rounding import U, gamma

#: Samples with residual below this are excluded from log-log fits;
#: their logarithms are numerically meaningless.
R_FLOOR = 1e-10


@dataclass
class ErrorBoundEstimate:
    gamma_hat: float
    tau_hat: float
    tau_max: float
    sample_count: int
    r_range: tuple[float, float]
    fit_residual: float
    degenerate: bool = False


def sample_cloud(lcp: LcpInstance | None, box, count: int, seed: int = 0) -> list[np.ndarray]:
    """Uniform points in a bounded box, deterministic per seed."""
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be an array of (lo, hi) pairs")
    if not np.all(np.isfinite(box)) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError("box must be bounded and nonempty")
    if lcp is not None and box.shape[0] != lcp.order:
        raise ValueError(f"box dimension {box.shape[0]} does not match LCP order {lcp.order}")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    width = box[:, 1] - box[:, 0]
    return [box[:, 0] + rng.random(box.shape[0]) * width for _ in range(count)]


def fit_exponent(samples) -> ErrorBoundEstimate:
    """Least-squares fit of log dist = log tau + gamma * log r.

    Samples are finite (dist, r) pairs; pairs with dist <= 0 or
    r <= R_FLOOR are dropped.  At least 10 usable pairs are required, and
    their residuals must not all take one value, which leaves the
    exponent undetermined.
    """
    pairs = [(float(d), float(r)) for d, r in samples]
    if not all(math.isfinite(d) and math.isfinite(r) for d, r in pairs):
        raise DimensionMismatch("samples contain non-finite entries")
    used = [(d, r) for d, r in pairs if d > 0.0 and r > R_FLOOR]
    if len(used) < 10:
        raise TooFewSamples(f"need at least 10 usable samples, got {len(used)}")
    dists = np.array([d for d, _ in used])
    rs = np.array([r for _, r in used])
    logd = np.log(dists)
    logr = np.log(rs)
    if logr.min() == logr.max():
        raise TooFewSamples("the usable residuals all take one value: no exponent fits")
    design = np.column_stack([np.ones_like(logr), logr])
    coef, *_ = np.linalg.lstsq(design, logd, rcond=None)
    log_tau, gamma_hat = float(coef[0]), float(coef[1])
    tau_hat = math.exp(log_tau)
    fit_res = float(np.sqrt(np.mean((design @ coef - logd) ** 2)))
    tau_max = float(np.max(dists / rs ** gamma_hat))
    return ErrorBoundEstimate(gamma_hat=gamma_hat, tau_hat=tau_hat, tau_max=tau_max,
                              sample_count=len(used),
                              r_range=(float(rs.min()), float(rs.max())),
                              fit_residual=fit_res)


@dataclass
class RaySample:
    t: float
    residual: float
    distance: float  # +inf when the solution set is empty


@dataclass
class RayDivergenceReport:
    rows: list[RaySample]
    refuted: bool
    note: str


def ray_divergence_test(lcp: LcpInstance, base, direction, t_values,
                        solutions=None) -> RayDivergenceReport:
    """Track the l2 natural residual and the distance along base + t*direction.

    Flags a refuted global bound when the residual stays inside a bounded
    band (max/min <= 10) while the distance grows by a factor >= 100.
    ``solutions``, a list of points, overrides the enumerated solution
    set; that is needed when the enumerated set is empty, in which case
    distances are +inf by construction and only noted.
    """
    t_values = _as_vector(t_values, "t_values").tolist()
    if not t_values or any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values must be nonempty and strictly increasing")
    base = _as_vector(base, "base", size=lcp.order)
    direction = _as_vector(direction, "direction", size=lcp.order)
    if solutions is None:
        sols = solve_lcp_enumerate(lcp)
    else:
        pts = [_as_vector(p, "solution", size=lcp.order) for p in solutions]
        sols = SolutionSet(points=pts)
    rows = []
    for t in t_values:
        z = base + t * direction
        r = min_residual(z, lcp.slack(z))
        if sols.empty_flag:
            d = math.inf
        else:
            d = distance_to_solution_set(z, sols)
        rows.append(RaySample(t=t, residual=r, distance=d))
    res = [s.residual for s in rows]
    dist = [s.distance for s in rows]
    note = ""
    refuted = False
    if sols.empty_flag:
        note = ("solution set is empty for the data as given (a known "
                "inconsistency in the source instance); distances diverge by "
                "construction; supply nominal solutions to run the bound test")
    else:
        res_banded = min(res) > 0.0 and max(res) / min(res) <= 10.0
        dist_grows = max(dist) > 0.0 and (min(dist) == 0.0
                                          or max(dist) / min(dist) >= 100.0)
        if res_banded and dist_grows:
            refuted = True
            note = ("GLOBAL-BOUND-REFUTED: residual stays in a bounded band "
                    "while the distance to the solution set diverges")
    return RayDivergenceReport(rows=rows, refuted=refuted, note=note)


# -- polyhedral baseline --------------------------------------------------

#: A projection candidate passes a constraint check when it misses the
#: constraint by at most this much.
_CHECK_TOL = 1e-9

#: Chunks with fewer active sets than this are confirmed set by set
#: without a screen: the screen's fixed cost, about 60 numpy calls, is
#: that of about five lstsq confirmations (300 us against 60 us per set
#: for dim 2-3 on a 2-vCPU x86 host).
_SCREEN_MIN_SETS = 6

def _system_rows(M, v, names: tuple[str, str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    M, v = np.asarray(M, dtype=float), np.asarray(v, dtype=float)
    if M.size == 0 and v.size == 0:
        return np.zeros((0, dim)), np.zeros(0)
    M = np.zeros((0, dim)) if M.size == 0 else _as_matrix(M, names[0], cols=dim)
    return M, _as_vector(v, names[1], size=M.shape[0])


def _polyhedral_system(A, a, B, b, x):
    """The system {z : A z <= a, B z = b} and the point x as finite float
    arrays whose shapes agree; A and B may have no rows.  Raises
    DimensionMismatch otherwise."""
    x = _as_vector(x, "x")
    A, a = _system_rows(A, a, ("A", "a"), x.size)
    B, b = _system_rows(B, b, ("B", "b"), x.size)
    return A, a, B, b, x


def _kkt_candidate(A, a, B, b, x, J):
    """The candidate of active set J as the per-set enumeration makes it:
    (z, ||z - x||) from one lstsq solve of the KKT system, or None when
    the solve fails or z misses a constraint by more than _CHECK_TOL."""
    dim = x.size
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
        return None
    z = sol[:dim]
    if k and np.max(np.abs(rows @ z - rhs)) > _CHECK_TOL:
        return None
    if A.shape[0] and np.max(A @ z - a) > _CHECK_TOL:
        return None
    return z, float(np.linalg.norm(z - x))


def _norm(v: np.ndarray, axis=-1) -> np.ndarray:
    return np.sqrt(np.sum(v * v, axis=axis))


def _rowvec(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Row j is v[j] @ mats[j]."""
    return (v[:, None, :] @ mats)[:, 0, :]


def _matvec(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row j is mats[j] @ v[j]."""
    return (mats @ v[..., None])[..., 0]


def _gram_floor(S: np.ndarray, S_err: np.ndarray, X: np.ndarray, g: float) -> np.ndarray:
    """Lower bounds on the smallest eigenvalue of exact symmetric positive
    semidefinite matrices known as computed S with |S - exact| <= S_err,
    from approximate inverses X; 0 where no bound follows.

    With E = I - X S_exact and ||E|| <= eta < 1, S_exact^{-1} =
    (I - E)^{-1} X, so ||S_exact^{-1}||_2 <= ||X||_F / (1 - eta).  eta
    bounds the computed |I - X S| plus the rounding of X S and the
    error of S itself.
    """
    eye = np.eye(S.shape[-1])
    absX = np.abs(X)
    E = np.abs(eye - X @ S) + g * (absX @ np.abs(S) + eye) + absX @ S_err
    eta = _norm(E, axis=(-2, -1)) * (1 + g)
    floor = (1 - eta) / (_norm(X, axis=(-2, -1)) * (1 + g)) * (1 - g)
    return np.where(eta <= 0.5, floor, 0.0)


def _screen(A, a, B, b, x, idx):
    """Screen the active sets idx (n x s) of one chunk in one batched pass.

    Returns ``fails``, the sets whose ``_kkt_candidate`` is proved to be
    None, and ``d_lo``, a lower bound on the distance each other candidate
    reports (0 where nothing is proved).  The enumeration then confirms a
    set with ``_kkt_candidate`` only when it is not in ``fails`` and its
    ``d_lo`` is below the best distance confirmed so far; every other set
    cannot change the result, so the result keeps its bits.

    Notation: R = [A_J; B] (k x dim), rhs = [a_J; b], K the KKT matrix,
    u the unit roundoff, gamma_m = m u / (1 - m u).  Every dot product,
    sum and norm below has fewer than (dim + k + 2)^2 terms, so
    g = gamma_{(dim+k+2)^2} bounds the relative rounding of each and the
    absolute error of a computed product C = fl(P Q) is at most
    g |P| |Q| (Higham 2002, eq. 3.12); the few operations that evaluate
    the bounds themselves are covered by extra factors (1 +- g).

    k <= dim (Gram branch).  Solve fl(R R') [y | X] = [fl(R x - rhs) | I]
    by batched LU.  ``_gram_floor`` turns X into a rigorous floor on
    sigma_min(R)^2.  The candidate z_hat = fl(x - R' y) is then at most
    delta_s = ||rho|| / sigma_min + ||e_z|| from the exact projection z*
    onto {R z = rhs}, where rho bounds |R R' y - (R x - rhs)| a posteriori
    and e_z the rounding of z_hat (z(y) - z* = -R'(R R')^{-1} rho and
    ||R'(R R')^{-1}||_2 = 1 / sigma_min).  The one modelled step: the
    lstsq candidate z~ (LAPACK gelsd) is taken to be normwise backward
    stable, the exact solution of
    (K + dK) s = v + dv with ||dK|| <= eps_b ||K||,
    ||dv|| <= eps_b ||v||, eps_b = gamma_{16 N^2} for N = dim + k
    (reduction of K and back-transformation by four products of N
    Householder reflectors of length N, each gamma~_{cN^2} with c = 4;
    Higham, Lemma 19.3).  The eigenvalues of K are 1 and
    (1 +- sqrt(1 + 4 sigma_i^2)) / 2, so kappa(K) follows from
    sigma_max <= ||R||_F and sigma_min.  When kappa (eps_b + 2 N eps)
    <= 1/2, lstsq's cut-off N eps sigma_1(K) keeps full rank and
    Higham's Theorem 7.2 gives ||z~ - z*|| <= delta_l =
    4 eps_b kappa ||K^-1|| ||v||.  With delta = delta_s + delta_l, the
    violation check that ``_kkt_candidate`` computes for row i is at least
    fl(A_i z_hat - a_i) - ||A_i||_1 delta (1 + g)
    - 2 g (|A_i| |z_hat| + |a_i|), and its distance is at least
    (fl||z_hat - x|| (1 - g) - delta)(1 - g).
    A set is left unscreened when a floor is not finite or not positive,
    or when kappa is too large.

    k > dim (normal branch).  Here K is singular, and only the equality
    check is screened.  Solve fl(R'R) [z_l | X] = [fl(R' rhs) | I].  With
    r = R z_l - rhs, the least-squares residual r* satisfies
    ||r*|| >= ||r|| - ||R'r|| / sigma_min = L, and the least-squares
    solution ||z*|| <= ||z_l|| + ||R'r|| / sigma_min^2.  If lstsq's z~
    passed the check, max_i |fl(R z~ - rhs)_i| <= tol, then
    rho = ||R z~ - rhs|| obeys rho <= sqrt(k) tol + g (||R||_F ||z~||
    + ||rhs||) and ||z~|| <= ||z*|| + rho / sigma_min, so
    rho <= (sqrt(k) tol + g (||R||_F ||z*|| + ||rhs||)) / (1 - theta)
    = B with theta = g ||R||_F / sigma_min < 1.  Since ||r*|| <= rho,
    L > B proves that the check fails for every z, lstsq's included, and
    so also for every larger set, whose rows contain these.
    """
    n, dim = len(idx), x.size
    k = idx.shape[1] + B.shape[0]
    fails = np.zeros(n, dtype=bool)
    d_lo = np.zeros(n)
    if k == 0:
        return fails, d_lo
    R = np.concatenate([A[idx], np.broadcast_to(B, (n, *B.shape))], axis=1)
    rhs = np.concatenate([a[idx], np.broadcast_to(b, (n, b.size))], axis=1)
    Rt, absR = R.transpose(0, 2, 1), np.abs(R)
    absRt = absR.transpose(0, 2, 1)
    g = gamma((dim + k + 2) ** 2)
    norm_R = _norm(R, axis=(-2, -1)) * (1 + g)
    with np.errstate(all="ignore"):
        if k > dim:
            N = Rt @ R
            sol = _solve_stack(N, np.concatenate(
                [_rowvec(rhs, R)[..., None], np.broadcast_to(np.eye(dim), N.shape)], axis=2))
            z_l = sol[..., 0]
            sig = np.sqrt(_gram_floor(N, g * (absRt @ absR), sol[..., 1:], g)) * (1 - g)
            r = _matvec(R, z_l) - rhs
            e_r = _norm(g * (_matvec(absR, np.abs(z_l)) + np.abs(rhs))) * (1 + g)
            grad = (_norm(_rowvec(r, R)) + g * _norm(_rowvec(np.abs(r), absR))
                    + norm_R * e_r) * (1 + g)
            low = (_norm(r) * (1 - g) - e_r - grad / sig) * (1 - g)
            z_hi = (_norm(z_l) + grad / sig ** 2) * (1 + g)
            theta = g * norm_R / sig
            bound = ((np.sqrt(k) * _CHECK_TOL + g * (norm_R * z_hi + _norm(rhs)))
                     / (1 - theta) * (1 + g) ** 2)
            fails = (theta <= 0.5) & (low > bound)
            return fails, d_lo
        t = _matvec(R, x) - rhs
        G = R @ Rt
        G_err = g * (absR @ absRt)
        sol = _solve_stack(G, np.concatenate(
            [t[..., None], np.broadcast_to(np.eye(k), G.shape)], axis=2))
        y = sol[..., 0]
        sig = np.sqrt(_gram_floor(G, G_err, sol[..., 1:], g)) * (1 - g)
        z = x - _rowvec(y, R)
        e_z = g * (np.abs(x) + _rowvec(np.abs(y), absR))
        rho = (np.abs(_matvec(G, y) - t) + g * (_matvec(np.abs(G), np.abs(y)) + np.abs(t))
               + _matvec(G_err, np.abs(y)) + g * (_matvec(absR, np.abs(x)) + np.abs(rhs)))
        delta_s = (_norm(rho) / sig + _norm(e_z)) * (1 + g) ** 2
        N = dim + k
        eps_b = gamma(16 * N * N)
        k_norm = (1 + np.sqrt(1 + 4 * norm_R ** 2)) / 2 * (1 + g)
        k_inv = (1 + g) / np.minimum(1.0, 2 * sig ** 2 / (1 + np.sqrt(1 + 4 * sig ** 2)))
        kappa = k_norm * k_inv
        delta_l = 4 * eps_b * kappa * k_inv * np.sqrt(x @ x + _norm(rhs) ** 2) * (1 + g) ** 2
        delta = (delta_s + delta_l) * (1 + g)
        ok = (sig > 0) & np.isfinite(delta) & (kappa * (eps_b + 2 * N * 2 * U) <= 0.5)
        row_l1 = np.sum(np.abs(A), axis=1)
        margin = ((1 + g) * delta[:, None] * row_l1
                  + 2 * g * (np.abs(z) @ np.abs(A).T + np.abs(a))) * (1 + g)
        fails = ok & np.any(z @ A.T - a - margin > _CHECK_TOL, axis=1)
        low = (_norm(z - x) * (1 - g) - delta) * (1 - g)
        d_lo = np.where(ok & (low > 0), low, 0.0)
    return fails, d_lo


def project_polyhedron(A, a, B, b, x) -> tuple[np.ndarray, float]:
    """Exact Euclidean projection of x onto {z : A z <= a, B z = b} by
    enumerating active sets of the inequality constraints.

    Each candidate active set J yields the equality-constrained least
    squares problem min ||z - x|| s.t. A_J z = a_J, B z = b, solved via
    its KKT system; candidates violating A z <= a (or B z = b) by more
    than 1e-9 are discarded and the nearest remaining one, the first in
    enumeration order among equals, is returned.  The active sets are
    screened in one batched pass per ``_index_sets`` chunk and the
    survivors confirmed per set, in enumeration order, with the KKT
    lstsq solve; the screen skips only sets it proves to fail a check or
    to lie no nearer than a confirmed candidate, with a rounding margin
    derived in ``_screen``.  Raises EmptyPolyhedron when no candidate is
    feasible, which certifies emptiness at this scale, and
    DimensionMismatch for inconsistent shapes or non-finite entries.
    """
    A, a, B, b, x = _polyhedral_system(A, a, B, b, x)
    best_z = None
    best_d = math.inf
    size, all_fail = -1, False
    for idx in _index_sets(A.shape[0]):
        if idx.shape[1] != size:
            if all_fail:
                # every set of the last size failed its equality check for
                # any z, and every larger set contains one of them
                break
            size = idx.shape[1]
            all_fail = size + B.shape[0] > x.size
        if len(idx) < _SCREEN_MIN_SETS:
            all_fail = False
            todo = [(j, 0.0) for j in range(len(idx))]
        else:
            fails, d_lo = _screen(A, a, B, b, x, idx)
            all_fail = all_fail and bool(fails.all())
            todo = [(j, d_lo[j]) for j in np.flatnonzero(~fails & (d_lo < best_d))]
        for j, low in todo:
            if low >= best_d:
                continue
            cand = _kkt_candidate(A, a, B, b, x, idx[j])
            if cand is not None and cand[1] < best_d:
                best_z, best_d = cand
        if best_d == 0.0:
            break
    if best_z is None:
        raise EmptyPolyhedron("no feasible candidate over all active sets")
    return best_z, best_d


def polyhedron_residual(A, a, B, b, x) -> float:
    """Sum of inequality violations plus absolute equality violations."""
    A, a, B, b, x = _polyhedral_system(A, a, B, b, x)
    total = float(np.sum(np.maximum(A @ x - a, 0.0)))
    if B.shape[0]:
        total += float(np.sum(np.abs(B @ x - b)))
    return total


def hoffman_baseline(A, a, B, b, cloud) -> ErrorBoundEstimate:
    """Sharp empirical constant for the linear error bound
    dist(x, S) <= tau * (sum [A x - a]_+ + sum |B x - b|), exponent 1.

    tau is the max ratio dist/residual over the cloud.  A cloud entirely
    inside the polyhedron gives tau = 0 and a degenerate flag.
    """
    ratios = []
    rs = []
    for x in cloud:
        r = polyhedron_residual(A, a, B, b, x)
        _, d = project_polyhedron(A, a, B, b, x)
        if r > R_FLOOR:
            ratios.append(d / r)
            rs.append(r)
    if not ratios:
        return ErrorBoundEstimate(gamma_hat=1.0, tau_hat=0.0, tau_max=0.0,
                                  sample_count=0, r_range=(0.0, 0.0),
                                  fit_residual=0.0, degenerate=True)
    tau = float(max(ratios))
    return ErrorBoundEstimate(gamma_hat=1.0, tau_hat=tau, tau_max=tau,
                              sample_count=len(ratios),
                              r_range=(float(min(rs)), float(max(rs))),
                              fit_residual=0.0)
