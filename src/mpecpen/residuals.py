"""Complementarity residuals, penalty values, and their directional calculus.

Residual kinds:

* ``min``      -- natural residual ||min(y, w)||, kinked at component ties;
* ``product``  -- y'w, smooth but signed (only a residual on y, w >= 0):
  a value only, outside the directional calculus and the penalty solver;
* ``kkt``      -- stationarity norm plus violation sums for the one-level
  system: ||F(x,y) - lambda|| + sum [-y_i]_+ + sum [-lambda_i]_+
  + sum |lambda_i y_i|.

The ``kkt`` kind has a squared-stationarity variant

    r(z) = ||F(x,y) - lambda||^2 + sum lambda_i y_i,

a polynomial in z, which is the form differentiated for the square-root
penalty and the default landscape the solver runs on.  On the search box
(y, lambda >= 0) both variants vanish exactly on the feasible set.

The directional machinery reports the one-sided growth of a residual
along a ray, r(z + t d) = r0 + slope*t + curve*t^2 + o(t^2), with the
convention that ``curve`` is only tracked (and only needed) when the ray
starts on the zero set with zero slope; that is the case that decides
whether a fractional-power penalty has a finite directional derivative.

Each formula is written once, in ``_Kernel``: built once per (problem,
spec), it works on the flat vector z = (x, y, lambda) and neither builds
a KktPoint nor validates anything.  The solver's landscape is made of its
bound methods; the public point functions at the end of this module are
validated wrappers that check their input and make one call into it.
Whatever needs the growth expansion gets its kernel from
``penalty_kernel``, which refuses the product kind.

The kernel evaluates in batches, and a point is a batch of one row:
``residuals`` and ``values`` take a (k, dim) matrix of points, and the
point functions (``residual``, ``QuadObjective.value`` and
``penalized_objective``) read row 0 of the batch they make of their
point, so the residual, the objective and the penalty are each written
once.  A row's value does not depend on the rows around it: the per-row
products are ``np.vecdot`` and ``np.matvec``, which make per row the
BLAS call of a 1-D ``@``, and the power is libm's pow, as Python's ``**``
is.  So a compass sweep that evaluates its trials in one batch gets, bit
for bit, the values of evaluating each trial alone.  The objective leaves
out each term whose block is all zero, which changes no bit of a finite
row (see ``QuadObjective.values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtKink
from .model import KktPoint, MpecProblem, _as_vector

KIND_MIN = "min"
KIND_PRODUCT = "product"
KIND_KKT = "kkt"
NORM_L1 = "l1"
NORM_L2 = "l2"

#: Below this residual the square-root penalty gradient is unreliable:
#: 1/sqrt(r) amplifies rounding noise.
KINK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ResidualSpec:
    """Which residual to use, in which norm, with which penalty exponent.

    ``squared_stationarity`` selects the polynomial variant of the kkt
    residual (squared stationarity block, raw complementarity products)
    and is refused for the other kinds.  The kinds that read no norm, the
    squared kkt variant and ``product``, take only the default l2.
    """

    kind: str = KIND_KKT
    norm: str = NORM_L2
    gamma: float = 0.5
    squared_stationarity: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_MIN, KIND_PRODUCT, KIND_KKT):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        if self.norm not in (NORM_L1, NORM_L2):
            raise ValueError(f"unknown norm {self.norm!r}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.squared_stationarity and self.kind != KIND_KKT:
            raise ValueError(f"the squared variant is a kkt residual, not {self.kind}")
        if self.norm != NORM_L2 and (self.squared_stationarity or self.kind == KIND_PRODUCT):
            name = "squared kkt" if self.squared_stationarity else self.kind
            raise ValueError(f"the {name} residual reads no norm; leave it at l2")


def _norms(v: np.ndarray, norm: str) -> np.ndarray:
    # the norm of each row; an l2 row keeps the bits of np.linalg.norm, which
    # takes sqrt(v @ v), as np.vecdot makes per row the BLAS dot of that 1-D @
    return np.abs(v).sum(axis=1) if norm == NORM_L1 else np.sqrt(np.vecdot(v, v))


def _penalty(f: np.ndarray, r: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    # f + alpha * max(r, 0)**gamma per row; np.float_power calls libm's pow,
    # as Python's ** does (an array ** takes sqrt at 1/2)
    return f + alpha * np.float_power(np.maximum(r, 0.0), gamma)


def _pair(y, w) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(y, "y")
    return y, _as_vector(w, "w", size=y.size)


def min_residual(y, w, norm: str = NORM_L2) -> float:
    """Norm of the componentwise min(y, w); zero exactly at complementary
    pairs with both parts nonnegative."""
    y, w = _pair(y, w)
    if norm not in (NORM_L1, NORM_L2):
        raise ValueError(f"unknown norm {norm!r}")
    return float(_norms(np.minimum(y, w)[None], norm)[0])


def product_residual(y, w) -> float:
    """The inner product y'w.  Nonnegative only when y >= 0 and w >= 0;
    the caller owns the sign convention."""
    y, w = _pair(y, w)
    return float(y @ w)


def min_dirderiv(u: float, v: float, du: float, dv: float) -> float:
    """Directional derivative of (u, v) -> min(u, v) along (du, dv).

    Three cases: the active branch's rate away from ties, and the smaller
    rate at a tie (a perturbation follows whichever branch drops faster).
    """
    if u < v:
        return du
    if u > v:
        return dv
    return min(du, dv)


# -- one-sided growth expansions -----------------------------------------

def _abs_pieces(value: float, rate: float, accel: float = 0.0) -> tuple[float, float, float]:
    # expansion of |value + rate*t + accel*t^2| for t -> 0+
    if value > 0.0:
        return value, rate, accel
    if value < 0.0:
        return -value, -rate, -accel
    if rate != 0.0:
        return 0.0, abs(rate), math.copysign(accel, rate)
    return 0.0, 0.0, abs(accel)


def _pos_pieces(value: float, rate: float) -> tuple[float, float]:
    # expansion of [value + rate*t]_+ for t -> 0+ (affine argument)
    if value > 0.0:
        return value, rate
    if value < 0.0:
        return 0.0, 0.0
    return 0.0, max(rate, 0.0)


def _norm_pieces(value: np.ndarray, rate: np.ndarray,
                 norm: str) -> tuple[float, float, float]:
    # expansion of ||value + rate*t|| for t -> 0+ (affine argument)
    if norm == NORM_L1:
        r0 = slope = curve = 0.0
        for i in range(value.size):
            v, s, c = _abs_pieces(value[i], rate[i])
            r0, slope, curve = r0 + v, slope + s, curve + c
        return r0, slope, curve
    r0 = float(np.linalg.norm(value))
    if r0 > 0.0:
        return r0, float(value @ rate) / r0, 0.0
    return 0.0, float(np.linalg.norm(rate)), 0.0


def power_slope(r0: float, slope: float, curve: float, gamma: float) -> float:
    """One-sided directional derivative of t -> r(t)^gamma at t = 0+,
    given the growth expansion of r.  Returns +inf where a fractional
    power has a vertical tangent (never a descent direction)."""
    if r0 > KINK_TOLERANCE:
        return gamma * r0 ** (gamma - 1.0) * slope
    # on (or numerically at) the zero set
    if gamma == 1.0:
        return slope
    if slope > KINK_TOLERANCE:
        return math.inf
    if slope < -KINK_TOLERANCE:
        # residuals are nonnegative, so a genuinely negative slope at the
        # zero set cannot occur; treat defensively as flat
        return 0.0
    if gamma > 0.5:
        return 0.0
    if gamma == 0.5:
        return math.sqrt(max(curve, 0.0))
    return math.inf if curve > 0.0 else 0.0


def _penalized_slope(objective_slope, expansion, z: np.ndarray, d: np.ndarray,
                     alpha: float, gamma: float) -> float:
    """One-sided directional derivative of f + alpha * r^gamma along d,
    from the slope of f and the growth expansion of r; +inf where the
    power has a vertical tangent (the slope of f is then not needed)."""
    pslope = power_slope(*expansion(z, d), gamma)
    if math.isinf(pslope):
        return math.inf
    return objective_slope(z, d) + alpha * pslope


# -- the flat kernel -----------------------------------------------------

class _Kernel:
    """One (problem, spec) pair built once for the solver loop.  Methods
    take the flat z = (x, y, lambda), and a direction d laid out like it,
    and trust their input."""

    def __init__(self, problem: MpecProblem, spec: ResidualSpec):
        self.n, self.m = problem.n, problem.m
        self.M, self.Q, self.q0 = problem.M, problem.qmap.Q, problem.qmap.q0
        self.f = problem.objective
        self.spec = spec

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (x, y, lambda) of a point, or the column blocks of a trial matrix
        n, m = self.n, self.m
        return v[..., :n], v[..., n:n + m], v[..., n + m:]

    def _F(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """F(x, y) at a point, or at each row of stacked (x, y)."""
        return np.matvec(self.M, y) + (np.matvec(self.Q, x) + self.q0)

    def rate(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Rate of change of F along (dx, dy), or along stacked columns."""
        return self.M @ dy + self.Q @ dx

    def objective(self, z: np.ndarray) -> float:
        x, y, _ = self._split(z)
        return self.f.value(x, y)

    def objective_slope(self, z: np.ndarray, d: np.ndarray) -> float:
        x, y, _ = self._split(z)
        dx, dy, _ = self._split(d)
        gx, gy = self.f.grad(x, y)
        return float(gx @ dx + gy @ dy)

    def residuals(self, trials: np.ndarray) -> np.ndarray:
        """The residual selected by spec.kind (and the kkt variant) at each
        row of a (k, dim) trial matrix."""
        spec = self.spec
        x, y, lam = self._split(trials)
        w = self._F(x, y)
        if spec.kind == KIND_MIN:
            return _norms(np.minimum(y, w), spec.norm)
        if spec.kind == KIND_PRODUCT:
            return np.vecdot(y, w)
        s = w - lam
        if spec.squared_stationarity:
            return np.vecdot(s, s) + np.vecdot(lam, y)
        # stationarity norm plus primal, dual and complementarity sums;
        # |lambda_i y_i| is sign-safe at iterates with negative components
        return (_norms(s, spec.norm) + np.maximum(-y, 0.0).sum(axis=1)
                + np.maximum(-lam, 0.0).sum(axis=1) + np.abs(lam * y).sum(axis=1))

    def residual(self, z: np.ndarray) -> float:
        """The residual at z: one row of ``residuals``."""
        return float(self.residuals(z[None])[0])

    def values(self, trials: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
        """f + alpha * max(r, 0)**gamma at each row of a (k, dim) trial
        matrix, from ``QuadObjective.values`` and ``residuals`` on the rows;
        the one evaluator of the penalty, whose row 0 the point functions
        read (see the module docstring)."""
        x, y, _ = self._split(trials)
        return _penalty(self.f.values(x, y), self.residuals(trials), alpha, gamma)

    def expansion(self, z: np.ndarray, d: np.ndarray) -> tuple[float, float, float]:
        """One-sided growth (r0, slope, curve) of the residual along z + t d,
        for the min and kkt kinds (see ``penalty_kernel``).

        ``slope`` is the one-sided directional derivative of the residual.
        ``curve`` is the quadratic growth coefficient, exact whenever r0 = 0
        and slope = 0 (the only case the penalty calculus needs it).
        """
        spec, m = self.spec, self.m
        x, y, lam = self._split(z)
        dx, dy, dl = self._split(d)

        if spec.kind == KIND_MIN:
            w = self._F(x, y)
            dw = self.rate(dx, dy)
            vals = np.minimum(y, w)
            rates = np.array([min_dirderiv(y[i], w[i], dy[i], dw[i]) for i in range(m)])
            return _norm_pieces(vals, rates, spec.norm)

        # kkt kinds
        s0 = self._F(x, y) - lam
        s1 = self.rate(dx, dy) - dl

        if spec.squared_stationarity:
            r0 = self.residual(z)
            slope = float(2.0 * s0 @ s1 + lam @ dy + y @ dl)
            curve = float(s1 @ s1 + dl @ dy)
            if r0 < 0.0:
                # off-box point where the raw product went negative; the
                # clamped residual is locally zero
                return 0.0, 0.0, 0.0
            return r0, slope, curve

        # stationarity block; 0.0 + turns a -0.0 slope into +0.0, as the sums below do
        v, sl, cu = _norm_pieces(s0, s1, spec.norm)
        r0, slope, curve = 0.0 + v, 0.0 + sl, 0.0 + cu
        for i in range(m):
            v, sl = _pos_pieces(-y[i], -dy[i])
            r0, slope = r0 + v, slope + sl
            v, sl = _pos_pieces(-lam[i], -dl[i])
            r0, slope = r0 + v, slope + sl
            p0 = lam[i] * y[i]
            p1 = lam[i] * dy[i] + y[i] * dl[i]
            p2 = dl[i] * dy[i]
            v, sl, cu = _abs_pieces(p0, p1, p2)
            r0, slope, curve = r0 + v, slope + sl, curve + cu
        return r0, slope, curve

    def sqrt_grad(self, z: np.ndarray, alpha: float) -> np.ndarray:
        """Gradient of f + alpha * sqrt(r) for the squared-stationarity
        residual r(z) = ||F(x,y) - lambda||^2 + sum lambda_i y_i, which the
        kernel's spec must select, at points with r(z) above the kink
        tolerance.

        grad = grad f + (alpha / (2 sqrt(r))) * grad r, with
            d r/dx      = 2 Q'(F - lambda)
            d r/dy      = 2 M'(F - lambda) + lambda
            d r/dlambda = -2 (F - lambda) + y
        """
        x, y, lam = self._split(z)
        s = self._F(x, y) - lam
        r = self.residual(z)
        if r <= KINK_TOLERANCE:
            raise AtKink(f"residual {r:.3e} is at or below the kink tolerance "
                         f"{KINK_TOLERANCE:.1e}; use directional derivatives")
        gx, gy = self.f.grad(x, y)
        scale = alpha / (2.0 * math.sqrt(r))
        grad_x = gx + scale * (2.0 * self.Q.T @ s)
        grad_y = gy + scale * (2.0 * self.M.T @ s + lam)
        grad_l = scale * (-2.0 * s + y)
        return np.concatenate([grad_x, grad_y, grad_l])


def penalty_kernel(problem: MpecProblem, spec: ResidualSpec) -> _Kernel:
    """The kernel of a residual the penalty calculus is defined on: min
    or kkt.  Raises ValueError for the product kind."""
    if spec.kind == KIND_PRODUCT:
        # y'w = 0 also holds at y = 0 with w < 0, which is no LCP solution
        raise ValueError("the product residual y'w is a residual only where "
                         "w >= 0, which the search box does not enforce; "
                         "solve with the min or kkt residual")
    return _Kernel(problem, spec)


# -- validated public functions -------------------------------------------

def _check_alpha(alpha: float) -> None:
    """The penalty weight every public entry point takes: finite and >= 0."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")


def _checked_direction(problem: MpecProblem, z: KktPoint, d) -> np.ndarray:
    z.check_dims(problem)
    return _as_vector(d, "direction", size=problem.n + 2 * problem.m)


def residual_value(problem: MpecProblem, z: KktPoint, spec: ResidualSpec) -> float:
    """The residual r(z) that ``spec`` selects (see the module docstring).

    The norm kkt residual is zero exactly when (x, y, lambda) is feasible
    for the one-level reformulation.  The squared variant is a residual on
    the search box (y, lambda >= 0); it can go negative at points with
    negative components, so penalty evaluation clamps it at zero.
    """
    z.check_dims(problem)
    return _Kernel(problem, spec).residual(z.to_z())


def penalized_objective(problem: MpecProblem, z: KktPoint, alpha: float,
                        spec: ResidualSpec) -> float:
    """f(x, y) + alpha * max(r(z), 0)^gamma with r selected by ``spec.kind``."""
    _check_alpha(alpha)
    z.check_dims(problem)
    return float(_Kernel(problem, spec).values(z.to_z()[None], alpha, spec.gamma)[0])


def residual_expansion(problem: MpecProblem, z: KktPoint, d: np.ndarray,
                       spec: ResidualSpec) -> tuple[float, float, float]:
    """One-sided growth (r0, slope, curve) of the residual along z + t d;
    see ``_Kernel.expansion``."""
    d = _checked_direction(problem, z, d)
    return penalty_kernel(problem, spec).expansion(z.to_z(), d)


def penalized_dirderiv(problem: MpecProblem, z: KktPoint, d: np.ndarray,
                       alpha: float, spec: ResidualSpec) -> float:
    """One-sided directional derivative of f + alpha * r^gamma along d."""
    _check_alpha(alpha)
    d = _checked_direction(problem, z, d)
    kernel = penalty_kernel(problem, spec)
    return _penalized_slope(kernel.objective_slope, kernel.expansion, z.to_z(), d,
                            alpha, spec.gamma)


def grad_penalized_sqrt(problem: MpecProblem, z: KktPoint, alpha: float) -> np.ndarray:
    """Gradient of f + alpha * sqrt(r) for the squared-stationarity kkt
    residual; see ``_Kernel.sqrt_grad``.  Raises AtKink at or below the
    kink tolerance."""
    _check_alpha(alpha)
    z.check_dims(problem)
    return _Kernel(problem, ResidualSpec(squared_stationarity=True)).sqrt_grad(z.to_z(), alpha)
