"""Empirical error-bound estimation: dist(z, S) <= tau * r(z)^gamma.

Exponents and constants are fitted by least squares on log dist versus
log r over a sampled cloud.  Two constants come out of every fit: the
regression constant (average case) and the max-ratio constant
max_i dist_i / r_i^gamma_hat, which certifies the fitted inequality on
the cloud itself.  A Hoffman-style baseline for linear systems fixes the
exponent at 1 and reports the sharp max-ratio constant directly, with
distances computed by exact projection onto the polyhedron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPolyhedron, TooFewSamples
from .lcp_oracle import SolutionSet, _index_sets, distance_to_solution_set, solve_lcp_enumerate
from .model import LcpInstance
from .residuals import min_residual

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

    def to_dict(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "tau_hat": self.tau_hat,
            "tau_max": self.tau_max,
            "sample_count": self.sample_count,
            "r_range": list(self.r_range),
            "fit_residual": self.fit_residual,
            "degenerate": self.degenerate,
        }


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

    Samples are (dist, r) pairs; pairs with dist <= 0 or r <= R_FLOOR are
    dropped.  At least 10 usable pairs are required.
    """
    used = [(float(d), float(r)) for d, r in samples if d > 0.0 and r > R_FLOOR]
    if len(used) < 10:
        raise TooFewSamples(f"need at least 10 usable samples, got {len(used)}")
    dists = np.array([d for d, _ in used])
    rs = np.array([r for _, r in used])
    logd = np.log(dists)
    logr = np.log(rs)
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
    t_values = [float(t) for t in t_values]
    if not t_values or any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values must be nonempty and strictly increasing")
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if solutions is None:
        sols = solve_lcp_enumerate(lcp)
    else:
        pts = [np.asarray(p, dtype=float) for p in solutions]
        sols = SolutionSet(points=pts, empty_flag=not pts,
                           bases_explored=0, singular_bases=0)
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

def project_polyhedron(A, a, B, b, x) -> tuple[np.ndarray, float]:
    """Exact Euclidean projection of x onto {z : A z <= a, B z = b} by
    enumerating active sets of the inequality constraints.

    Each candidate active set J yields the equality-constrained least
    squares problem min ||z - x|| s.t. A_J z = a_J, B z = b, solved via
    its KKT system; candidates violating A z <= a are discarded.  Raises
    when no candidate is feasible, which certifies emptiness at this
    scale.
    """
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


def polyhedron_residual(A, a, B, b, x) -> float:
    """Sum of inequality violations plus absolute equality violations."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    if np.size(A):
        A = np.asarray(A, dtype=float).reshape(-1, x.size)
        a = np.atleast_1d(np.asarray(a, dtype=float))
        total += float(np.sum(np.maximum(A @ x - a, 0.0)))
    if np.size(B):
        B = np.asarray(B, dtype=float).reshape(-1, x.size)
        b = np.atleast_1d(np.asarray(b, dtype=float))
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
