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
along each ray of a poll set, r(z + t d) = r0 + slope*t + curve*t^2
+ o(t^2) for each row d of a (k, dim) direction matrix D, with the
convention that ``curve`` is only tracked (and only needed) when the ray
starts on the zero set with zero slope; that is the case that decides
whether a fractional-power penalty has a finite directional derivative.
A single direction is a one-row matrix.  Every piece is formed entrywise
(``np.where`` over the cases of the one-sided expansion), and a growth
that is a sum of pieces, one per component and kind, is added by
``np.cumsum`` left to right from +0.0: that is the order of a loop over
the components, where ``.sum()`` would add pairwise and change the bits.

Each formula is written once, in ``_Kernel``: built once per (problem,
spec), it works on the flat vector z = (x, y, lambda) and neither builds
a KktPoint nor validates anything.  The solver's landscape is made of its
bound methods; the public point functions at the end of this module are
validated wrappers that check their input and make one call into it.
Whatever needs the growth expansion gets its kernel from
``penalty_kernel``, which refuses the product kind.

The kernel evaluates only in batches, and a point is a batch of one row:
``objectives`` and ``residuals`` give f and r at each row of a (k, dim)
matrix of points, and ``_penalty`` forms f + alpha * max(r, 0)**gamma
from the two batches.  The solver's landscape forms the penalty the same
way, once, in ``Landscape.values``.  The point functions
(``residual_value``, ``penalized_objective`` and ``sqrt_grad``) read row
0 of the batch they make of their point, so the residual, the objective
and the penalty are each written once.  A row's value does not depend on
the rows around it: the per-row products are ``np.vecdot`` and
``np.matvec``, which make per row the BLAS call of a 1-D ``@``, and the
power is libm's pow, as Python's ``**`` is.  So a compass sweep that
evaluates its trials in one batch gets, bit for bit, the values of
evaluating each trial alone, and the slopes along a poll matrix are, bit
for bit, those of each direction alone.  The objective leaves out each
term whose block is all zero, which changes no bit of a finite row (see
``QuadObjective.values``).
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


def _min_rates(u, v, du, dv) -> np.ndarray:
    # entrywise rate of min(u, v) along (du, dv): the active branch's rate
    # away from ties, the smaller rate at a tie (dv < du picks dv, as
    # Python's min(du, dv) does)
    return np.where(u < v, du, np.where(u > v, dv, np.where(dv < du, dv, du)))


def min_dirderiv(u: float, v: float, du: float, dv: float) -> float:
    """Directional derivative of (u, v) -> min(u, v) along (du, dv).

    Three cases: the active branch's rate away from ties, and the smaller
    rate at a tie (a perturbation follows whichever branch drops faster).
    """
    return float(_min_rates(u, v, du, dv))


# -- one-sided growth expansions -----------------------------------------
# entrywise, so a (k, m) matrix holds the pieces of k directions at once

def _abs_pieces(value, rate, accel=0.0):
    # expansion of |value + rate*t + accel*t^2| for t -> 0+
    at_zero = np.where(rate != 0.0, np.copysign(accel, rate), np.abs(accel))
    return (np.abs(value),
            np.where(value > 0.0, rate, np.where(value < 0.0, -rate, np.abs(rate))),
            np.where(value > 0.0, accel, np.where(value < 0.0, -accel, at_zero)))


def _pos_pieces(value, rate):
    # expansion of [value + rate*t]_+ for t -> 0+ (affine argument)
    return (np.where(value > 0.0, value, 0.0),
            np.where(value > 0.0, rate, np.where((value < 0.0) | (rate < 0.0), 0.0, rate)))


def _added(*blocks: np.ndarray) -> np.ndarray:
    # per row, the entries of the (k,) or (k, j) blocks side by side, added
    # left to right from +0.0 (np.cumsum keeps that order; .sum() would add
    # pairwise and change the bits)
    k = len(blocks[0])
    pieces = [np.zeros((k, 1))] + [np.reshape(b, (k, math.prod(b.shape[1:]))) for b in blocks]
    return np.cumsum(np.concatenate(pieces, axis=1), axis=1)[:, -1]


def _norm_pieces(value: np.ndarray, rate: np.ndarray,
                 norm: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # expansion of ||value + rate*t|| for t -> 0+ in each row (affine argument)
    if norm == NORM_L1:
        return tuple(_added(p) for p in _abs_pieces(value, rate))
    r0 = _norms(value, NORM_L2)
    # value'rate / r0 off the zero set, ||rate|| on it
    slope = np.divide(np.vecdot(value, rate), r0, out=_norms(rate, NORM_L2), where=r0 > 0.0)
    return r0, slope, np.zeros(len(r0))


def power_slope(r0, slope, curve, gamma: float) -> np.ndarray:
    """One-sided directional derivative of t -> r(t)^gamma at t = 0+,
    entrywise, given the growth expansion of r.  Returns +inf where a
    fractional power has a vertical tangent (never a descent direction)."""
    # on (or numerically at) the zero set
    if gamma == 1.0:
        at_zero = slope
    else:
        # the power's slope where r has no first-order growth
        if gamma > 0.5:
            flat = 0.0
        elif gamma == 0.5:
            flat = np.sqrt(np.where(curve < 0.0, 0.0, curve))
        else:
            flat = np.where(curve > 0.0, np.inf, 0.0)
        # residuals are nonnegative, so a genuinely negative slope at the
        # zero set cannot occur; treat it defensively as flat
        at_zero = np.where(slope > KINK_TOLERANCE, np.inf,
                           np.where(slope < -KINK_TOLERANCE, 0.0, flat))
    off = r0 > KINK_TOLERANCE
    return np.where(off, gamma * np.float_power(np.where(off, r0, 1.0), gamma - 1.0) * slope,
                    at_zero)


def _penalized_slopes(objective_slope, expansion, z: np.ndarray, D: np.ndarray,
                      alpha: float, gamma: float) -> np.ndarray:
    """One-sided directional derivative of f + alpha * r^gamma along each
    row of D, from the slopes of f and the growth expansions of r; +inf
    where the power has a vertical tangent (the slope of f is then not
    read)."""
    pslope = power_slope(*expansion(z, D), gamma)
    vertical = np.isinf(pslope)
    return np.where(vertical, np.inf,
                    objective_slope(z, D) + alpha * np.where(vertical, 0.0, pslope))


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

    def rates(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Rate of change of F along each row of stacked (dx, dy)."""
        return np.matvec(self.M, dy) + np.matvec(self.Q, dx)

    def objective_slope(self, z: np.ndarray, D: np.ndarray) -> np.ndarray:
        """The slope of f at z along each row of a (k, dim) direction matrix."""
        x, y, _ = self._split(z)
        dx, dy, _ = self._split(D)
        gx, gy = self.f.grad(x, y)
        return np.vecdot(gx, dx) + np.vecdot(gy, dy)

    def objectives(self, trials: np.ndarray) -> np.ndarray:
        """f at each row of a (k, dim) trial matrix."""
        x, y, _ = self._split(trials)
        return self.f.values(x, y)

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

    def expansion(self, z: np.ndarray, D: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-sided growth (r0, slope, curve) of the residual along z + t d
        for each row d of a (k, dim) direction matrix D, one entry per row,
        for the min and kkt kinds (see ``penalty_kernel``).

        ``slope`` is the one-sided directional derivative of the residual.
        ``curve`` is the quadratic growth coefficient, exact whenever r0 = 0
        and slope = 0 (the only case the penalty calculus needs it).
        """
        spec = self.spec
        # z repeated on each row, so every piece below has one row per direction
        zs = np.broadcast_to(z, D.shape)
        x, y, lam = self._split(zs)
        dx, dy, dl = self._split(D)

        if spec.kind == KIND_MIN:
            w = self._F(x, y)
            rates = _min_rates(y, w, dy, self.rates(dx, dy))
            return _norm_pieces(np.minimum(y, w), rates, spec.norm)

        # kkt kinds
        s0 = self._F(x, y) - lam
        s1 = self.rates(dx, dy) - dl

        if spec.squared_stationarity:
            r0 = self.residuals(zs)
            slope = np.vecdot(2.0 * s0, s1) + np.vecdot(lam, dy) + np.vecdot(y, dl)
            curve = np.vecdot(s1, s1) + np.vecdot(dl, dy)
            # at an off-box point where the raw product went negative the
            # clamped residual is locally zero
            return tuple(np.where(r0 < 0.0, 0.0, v) for v in (r0, slope, curve))

        # the stationarity block, then y_i, lambda_i and |lambda_i y_i| for
        # each i, interleaved by component
        v, sl, cu = _norm_pieces(s0, s1, spec.norm)
        yv, ys = _pos_pieces(-y, -dy)
        lv, ls = _pos_pieces(-lam, -dl)
        pv, ps, pc = _abs_pieces(lam * y, lam * dy + y * dl, dl * dy)
        return (_added(v, np.stack([yv, lv, pv], axis=2)),
                _added(sl, np.stack([ys, ls, ps], axis=2)), _added(cu, pc))

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
        r = float(self.residuals(z[None])[0])
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
    return float(_Kernel(problem, spec).residuals(z.to_z()[None])[0])


def penalized_objective(problem: MpecProblem, z: KktPoint, alpha: float,
                        spec: ResidualSpec) -> float:
    """f(x, y) + alpha * max(r(z), 0)^gamma with r selected by ``spec.kind``."""
    _check_alpha(alpha)
    z.check_dims(problem)
    kernel, point = _Kernel(problem, spec), z.to_z()[None]
    return float(_penalty(kernel.objectives(point), kernel.residuals(point), alpha,
                          spec.gamma)[0])


def residual_expansion(problem: MpecProblem, z: KktPoint, d: np.ndarray,
                       spec: ResidualSpec) -> tuple[float, float, float]:
    """One-sided growth (r0, slope, curve) of the residual along z + t d;
    see ``_Kernel.expansion``."""
    d = _checked_direction(problem, z, d)
    return tuple(float(v[0]) for v in penalty_kernel(problem, spec).expansion(z.to_z(), d[None]))


def penalized_dirderiv(problem: MpecProblem, z: KktPoint, d: np.ndarray,
                       alpha: float, spec: ResidualSpec) -> float:
    """One-sided directional derivative of f + alpha * r^gamma along d."""
    _check_alpha(alpha)
    d = _checked_direction(problem, z, d)
    kernel = penalty_kernel(problem, spec)
    return float(_penalized_slopes(kernel.objective_slope, kernel.expansion, z.to_z(),
                                   d[None], alpha, spec.gamma)[0])


def grad_penalized_sqrt(problem: MpecProblem, z: KktPoint, alpha: float) -> np.ndarray:
    """Gradient of f + alpha * sqrt(r) for the squared-stationarity kkt
    residual; see ``_Kernel.sqrt_grad``.  Raises AtKink at or below the
    kink tolerance."""
    _check_alpha(alpha)
    z.check_dims(problem)
    return _Kernel(problem, ResidualSpec(squared_stationarity=True)).sqrt_grad(z.to_z(), alpha)
