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

The kernel also screens compass trials: each screen gives, for every
trial of a sweep at once, a rigorous lower bound on the penalized value
the landscape would compute there.  For the squared-stationarity
residual, f and r are exact quadratics in s along z + s d, and
``RayScreen`` bounds them from their coefficients at the in-box trials.
For the ``min`` and norm kkt residuals, ``TrialFloor`` evaluates f, r and
their absolute-value majorants at every trial in one batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import rounding
from .errors import AtKink, DimensionMismatch
from .model import KktPoint, MpecProblem

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
    residual (squared stationarity block, raw complementarity products);
    it only affects kind ``kkt``.
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


def _norm(v: np.ndarray, norm: str) -> float:
    if norm == NORM_L1:
        return float(np.sum(np.abs(v)))
    if norm == NORM_L2:
        return float(np.linalg.norm(v))
    raise ValueError(f"unknown norm {norm!r}")


def _pair(y, w) -> tuple[np.ndarray, np.ndarray]:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if y.shape != w.shape:
        raise DimensionMismatch(f"y has shape {y.shape}, w has shape {w.shape}")
    return y, w


def min_residual(y, w, norm: str = NORM_L2) -> float:
    """Norm of the componentwise min(y, w); zero exactly at complementary
    pairs with both parts nonnegative."""
    y, w = _pair(y, w)
    return _norm(np.minimum(y, w), norm)


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


# -- the compass screens ---------------------------------------------------

#: the screens are built only when the problem data and the box are at
#: most this large in magnitude, which keeps overflow out and bounds the
#: absolute effect of gradual underflow
_SCREEN_DATA_MAX = 2.0 ** 100
#: the underflow allowances eta of ``RayScreen`` and of ``TrialFloor``,
#: whose l2 norms take the square root of an underflow error
_UNDERFLOW = 2.0 ** -600
_SQRT_UNDERFLOW = 2.0 ** -500
#: relative error allowed for a computed power r**gamma, here and in
#: ``Landscape.penalized``: libm's pow is within 1 ulp (2^-52), numpy's
#: vector power within a few, and this leaves room for 2^11 ulps
_POW_SLACK = 2.0 ** -40


def _screen_margin(chain: int) -> float:
    """The relative margin rho of ``RayScreen`` for computations in which
    no term passes through more than ``chain`` roundings."""
    return (3 * chain + 16) * rounding.U


def _floor_margin(chain: int) -> float:
    """The relative margin rho of ``TrialFloor``, likewise."""
    return 3.0 * rounding.gamma(chain)


def _weighted(f_lo: np.ndarray, r_lo: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    # step 7 of ``RayScreen``: floors of f and r to a floor of the
    # penalized value; numpy takes sqrt for gamma = 1/2 and a copy for 1
    power = np.maximum(r_lo, 0.0) ** gamma
    return f_lo + (alpha * power) * (1.0 - _POW_SLACK)


class RayScreen:
    """Lower bounds on the computed penalized value at in-box compass trials.

    Built by ``_Kernel.ray_screen`` at one point z for the rows d of one
    poll matrix D, for the squared-stationarity residual.
    ``floors(s, raw, trials, alpha, gamma)`` returns, for every row, a
    number L with L <= fl(f(t) + alpha * max(r(t), 0)**gamma), the value
    that ``Landscape.penalized`` computes at the trial t = fl(z + fl(s d)),
    whenever t lies in the box (so the compass's clip leaves it alone:
    ``trials`` equals ``raw`` there), for alpha >= 0 and gamma > 0, and
    -inf at the clipped rows.  A trial with L >= phi(z) cannot be a
    strict improvement, and the compass charges it without evaluating it.

    Derivation.  u and gamma_k are as in ``rounding``, dim = n + 2m and
    K = 5 dim + 16.  f is the quadratic 0.5 x'Ax + x'By + 0.5 y'Cy + a'x
    + b'y + c, and r(z) = ||s(z)||^2 + lambda'y with s(z) = M y + Q x
    + q0 - lambda.  Their absolute-value majorants are
    f~(v) = 0.5 v_x'|A|v_x + v_x'|B|v_y + 0.5 v_y'|C|v_y + |a|'v_x
    + |b|'v_y + |c| and r~(v) = ||sig(v)||^2 + v_l'v_y with
    sig(v) = |M| v_y + |Q| v_x + |q0| + v_l.

    1. Every quantity here (f and r as the kernel computes them at t,
       and the coefficients below, in any summation order numpy and BLAS
       pick) is a sum of products in which no term passes through more
       than K roundings; the longest chains, r(z) and the slopes of r
       (``ray_screen``), stay under 5 dim + 7.  So each computed value lies
       within gamma_K of the exact one, times the same expression
       evaluated on absolute values; for f and r at t that expression is
       f~(|t|) and r~(|t|).
    2. Let W = z + s d (exact) and v = |z| + s|d|.  The two roundings of
       t give |t - W| <= 2.01 u v, so |t| <= (1 + 2.01 u) v.
    3. On the ray, exactly, f(W) = f(z) + s g'd + s^2 q_f(d) with
       g = grad f(z) and q_f the quadratic part of f, and
       r(W) = r(z) + s (2 s(z)'s1 + lambda'd_y + y'd_l) + s^2 (||s1||^2
       + d_l'd_y) with s1 = M d_y + Q d_x - d_l.  The majorants have the
       same form: S_f(s) = f~(|z|) + s grad f~(|z|)'|d| + s^2 q~_f(|d|)
       equals f~(v), and S_r(s) = r~(v) likewise.  The kernel computes
       the three coefficients of all four quadratics.
    4. |f(t) - f(W)| <= grad f~(v)'|t - W| + q~_f(|t - W|)
       <= 4.03 u S_f(s), since v'grad f~(v) <= 2 f~(v); the same holds
       for r, with v'grad r~(v) <= 2 r~(v).
    5. Summing the computed value at t (1 and 2: gamma_K (1 + 4.03 u)),
       the step from t to W (4), the coefficients (1: gamma_K) and the
       four roundings of evaluating the quadratic at s gives
       |f_c(t) - F| <= (2.03 K + 8.2) u S_f(s), where F is the computed
       quadratic; likewise for r.  The computed majorant S~ (a sum of
       nonnegative terms) satisfies S_f <= S~ (1 + gamma_{K+4}).
    6. The floors are F_lo = fl(F - rho S~) - eta with
       rho = ``_screen_margin(K)`` = (3K + 16) u and eta = 2^-600; the
       last two roundings cost at most 3.1 u S~, so rho covers every term
       of 5 with room to spare, and eta covers gradual underflow, which
       with data and box entries at most 2^100 (``_SCREEN_DATA_MAX``)
       adds less than K^2 2^-1075 2^400 < eta / 4.  So F_lo <= f_c(t),
       and likewise R_lo <= r_c(t).
    7. Power, weight and sum: with pow, sqrt and numpy's power each
       within a relative 2^-41 (``_POW_SLACK``), monotonicity of x**gamma
       gives P_lo = fl(fl(alpha pow(max(R_lo, 0))) (1 - 2^-40))
       <= fl(alpha * max(r_c(t), 0)**gamma).  Rounded addition is
       monotone, so L = fl(F_lo + P_lo) <= fl(f_c(t) + that power term),
       which is the landscape's value at t.
    """

    __slots__ = ("coef", "drop")

    def __init__(self, coef: np.ndarray, drop: np.ndarray):
        #: (k, 4, 3): per row, the coefficients of 1, s, s^2 of f, r, f~, r~
        self.coef = coef
        #: (4, 2): maps (F, R, S~_f, S~_r) to (F - rho S~_f, R - rho S~_r)
        self.drop = drop

    def floors(self, step: float, raw: np.ndarray, trials: np.ndarray,
               alpha: float, gamma: float) -> np.ndarray:
        lo = (self.coef @ (1.0, step, step * step)) @ self.drop - _UNDERFLOW
        # only a trial that the clip left alone lies on its ray
        return np.where((trials == raw).all(axis=1),
                        _weighted(lo[:, 0], lo[:, 1], alpha, gamma), -np.inf)


class TrialFloor:
    """Lower bounds on the computed penalized value at any compass trial,
    for the ``min`` and norm kkt residuals.

    Built once per kernel by ``_Kernel.trial_floor``.
    ``floors(s, raw, trials, alpha, gamma)`` reads only the (k, dim)
    trials t of a sweep, clipped or not, and returns for every row a
    number L <= fl(f(t) + alpha * max(r(t), 0)**gamma), the value that
    ``Landscape.penalized`` computes at t, for alpha >= 0 and gamma > 0.
    Since the bound is taken at t itself, no step from t to the ray is
    needed.

    Derivation.  u, gamma_k, dim, K = 5 dim + 16, f and f~ are as in
    ``RayScreen``.  For a point t = (x, y, lambda) let
    sig = |M||y| + |Q||x| + |q0| and take as the majorant of r
    r~ = sum_i (sig_i + |y_i|) for ``min`` and
    r~ = sum_i (sig_i + |y_i| + 2 |lambda_i| + |lambda_i y_i|) for norm kkt.

    1. The landscape (``QuadObjective.value``) and the batch both
       evaluate f at t as a sum of products in which no term passes
       through more than K roundings (the batch's longest chain, a
       product with (t, |t|, 1) and then a sum over 2 dim products, has
       fewer than 4 dim + 4), so each lies within gamma_K f~(|t|) of f(t).
       The batch writes f = 0.5 sum_i v_i (H v + 2a)_i + c with
       v = (x, y), H = [[A, B], [B', C]] and a = (a_x, a_y), whose
       absolute-value form is f~ again.
    2. Each computed w_i = (M y + Q x + q0)_i, or s_i = w_i - lambda_i,
       lies within gamma_{2 dim + 2} sig_i, or gamma_{2 dim + 2} (sig_i
       + |lambda_i|), of its exact value.  min(y_i, .), |.| and max(., 0)
       are exact and 1-Lipschitz, so these errors carry through to the
       components v_i that are summed, and |min(y_i, w_i)| <= |y_i|
       + |w_i|.  The l1 sum adds a relative gamma_m; the l2 norm,
       sqrt(sum v_i^2), lies within gamma_{m+1} of ||v_c||, and
       | ||v_c|| - ||v|| | <= ||v_c - v||_1; the sums of |lambda_i y_i|,
       [-y]_+ and [-lambda]_+ and the three final additions add a
       relative gamma_{m+4}.  Every sum of absolute values here is at
       most (1 + gamma_{2 dim + 2}) r~(|t|), so, with gamma_a + gamma_b
       + gamma_a gamma_b <= gamma_{a+b}, each computed r lies within
       gamma_{3 dim + 8} r~(|t|) <= gamma_K r~(|t|) of r(t).  The batch
       leaves out the norm kkt violation sums, nonnegative terms that
       vanish in the box; that only lowers its value R.
    3. So F - f_c(t) <= 2 gamma_K f~(|t|), where F is the batch's f and
       f_c the landscape's, and R - r_c(t) <= 2 gamma_K r~(|t|).  The
       computed majorants S~, sums of nonnegative terms, are at least
       (1 - gamma_K) times the exact ones, so with rho = 3 gamma_K
       (``_floor_margin(K)``) and K u < 1/8, fl(rho S~_f) >= 2 gamma_K
       f~(|t|).  Rounding is monotone and f_c(t) is a floating-point
       number, so fl(F - fl(rho S~_f)) <= f_c(t), and so is the fused
       fl(F - rho S~_f) that the product with ``drop`` may compute;
       likewise for r.
    4. eta = 2^-500 covers gradual underflow.  With data and box entries
       at most 2^100 (``_SCREEN_DATA_MAX``) and dim < 2^30, the underflows
       of the products add less than dim^2 2^-970 to f, r and S~, and
       those of the squares in an l2 norm, at most m 2^-1075 under its
       square root, add less than 2^-520; so F_lo = fl(F - rho S~_f) - eta
       <= f_c(t) and R_lo <= r_c(t).
    5. Step 7 of ``RayScreen`` then gives L <= the landscape's value.
    """

    __slots__ = ("n", "m", "natural", "l1", "map", "sums", "const", "drop", "_rows")

    def __init__(self, kernel: "_Kernel", rho: float):
        f, n, m, ab = kernel.f, kernel.n, kernel.m, kernel._abs
        dim = n + 2 * m
        p, x, y, lam = n + m, slice(0, n), slice(n, n + m), slice(n + m, dim)
        self.n, self.m = n, m
        self.natural = kernel.spec.kind == KIND_MIN
        self.l1 = kernel.spec.norm == NORM_L1
        H = np.block([[f.xx, f.xy], [f.xy.T, f.yy]])
        absH = np.block([[ab.xx, ab.xy], [ab.xy.T, ab.yy]])
        lin = np.concatenate([f.x_lin, f.y_lin])
        #: (t, |t|, 1) @ map = (H v + 2a, 0, |H||v| + 2|a|, 0, w or s,
        #: r~ less its products |lambda_i y_i|)
        self.map = np.zeros((2 * dim + 1, 2 * dim + m + 1))
        self.map[:p, :p], self.map[dim:dim + p, dim:dim + p] = H.T, absH.T
        self.map[x, 2 * dim:-1], self.map[y, 2 * dim:-1] = kernel.Q.T, kernel.M.T
        if not self.natural:
            self.map[lam, 2 * dim:-1] = -np.eye(m)
        self.map[dim:-1, -1] = np.concatenate([ab.Q.sum(axis=0), ab.M.sum(axis=0) + 1.0,
                                               np.full(m, 0.0 if self.natural else 2.0)])
        self.map[-1] = np.concatenate([2.0 * lin, np.zeros(m), 2.0 * np.abs(lin), np.zeros(m),
                                       kernel.q0, (ab.q0.sum(),)])
        #: P @ sums + const = (f, 0, f~, 0) for the products P of (t, |t|)
        #: with the first two blocks
        self.sums = np.zeros((2 * dim, 4))
        self.sums[:dim, 0] = self.sums[dim:, 2] = 0.5
        self.const = np.array([f.const, 0.0, abs(f.const), 0.0])
        self.drop = np.array([[1.0, 0.0], [0.0, 1.0], [-rho, 0.0], [0.0, -rho]])
        #: (t, |t|, 1) work arrays by row count
        self._rows: dict[int, np.ndarray] = {}

    def floors(self, step: float, raw: np.ndarray, trials: np.ndarray,
               alpha: float, gamma: float) -> np.ndarray:
        n, m = self.n, self.m
        k, dim = trials.shape
        t = self._rows.get(k)
        if t is None:
            t = self._rows[k] = np.ones((k, 2 * dim + 1))
        t[:, :dim] = trials
        np.abs(trials, out=t[:, dim:-1])
        g = t @ self.map
        vals = (g[:, :2 * dim] * t[:, :-1]) @ self.sums + self.const
        v, bound = g[:, 2 * dim:-1], g[:, -1]
        y = trials[:, n:n + m]
        if self.natural:
            v = np.minimum(y, v)
        r = np.abs(v).sum(axis=1) if self.l1 else np.sqrt((v * v).sum(axis=1))
        if not self.natural:
            comp = np.abs(trials[:, n + m:] * y).sum(axis=1)
            r, bound = r + comp, bound + comp
        vals[:, 1], vals[:, 3] = r, bound
        lo = vals @ self.drop - _SQRT_UNDERFLOW
        return _weighted(lo[:, 0], lo[:, 1], alpha, gamma)


# -- the flat kernel -----------------------------------------------------

class _Kernel:
    """One (problem, spec) pair built once for the solver loop.  Methods
    take the flat z = (x, y, lambda), and a direction d laid out like it,
    and trust their input."""

    def __init__(self, problem: MpecProblem, spec: ResidualSpec | None = None):
        self.n, self.m = problem.n, problem.m
        self.M, self.Q, self.q0 = problem.M, problem.qmap.Q, problem.qmap.q0
        self.f = problem.objective
        self.spec = spec or ResidualSpec()
        self._box = problem.x_box, problem.multiplier_bound

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        return v[:n], v[n:n + m], v[n + m:]

    def _F(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.M @ y + (self.Q @ x + self.q0)

    def rate(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Rate of change of F along (dx, dy)."""
        return self.M @ dy + self.Q @ dx

    @staticmethod
    def _squared(s: np.ndarray, y: np.ndarray, lam: np.ndarray) -> float:
        # squared kkt residual from its stationarity block s = F - lambda
        return float(s @ s + lam @ y)

    def objective(self, z: np.ndarray) -> float:
        x, y, _ = self._split(z)
        return self.f.value(x, y)

    def objective_slope(self, z: np.ndarray, d: np.ndarray) -> float:
        x, y, _ = self._split(z)
        dx, dy, _ = self._split(d)
        gx, gy = self.f.grad(x, y)
        return float(gx @ dx + gy @ dy)

    def squared_residual(self, z: np.ndarray) -> float:
        x, y, lam = self._split(z)
        return self._squared(self._F(x, y) - lam, y, lam)

    def kkt_norm_residual(self, z: np.ndarray) -> float:
        x, y, lam = self._split(z)
        stat = _norm(self._F(x, y) - lam, self.spec.norm)
        primal = float(np.sum(np.maximum(-y, 0.0)))
        dual = float(np.sum(np.maximum(-lam, 0.0)))
        comp = float(np.sum(np.abs(lam * y)))
        return stat + primal + dual + comp

    def residual(self, z: np.ndarray) -> float:
        """The residual selected by spec.kind (and the kkt variant)."""
        spec = self.spec
        if spec.kind == KIND_KKT:
            if spec.squared_stationarity:
                return self.squared_residual(z)
            return self.kkt_norm_residual(z)
        x, y, _ = self._split(z)
        w = self._F(x, y)
        if spec.kind == KIND_MIN:
            return _norm(np.minimum(y, w), spec.norm)
        return float(y @ w)

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
            r0 = self._squared(s0, y, lam)
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
        residual r(z) = ||F(x,y) - lambda||^2 + sum lambda_i y_i, at points
        with r(z) above the kink tolerance.

        grad = grad f + (alpha / (2 sqrt(r))) * grad r, with
            d r/dx      = 2 Q'(F - lambda)
            d r/dy      = 2 M'(F - lambda) + lambda
            d r/dlambda = -2 (F - lambda) + y
        """
        x, y, lam = self._split(z)
        s = self._F(x, y) - lam
        r = self._squared(s, y, lam)
        if r <= KINK_TOLERANCE:
            raise AtKink(f"residual {r:.3e} is at or below the kink tolerance "
                         f"{KINK_TOLERANCE:.1e}; use directional derivatives")
        gx, gy = self.f.grad(x, y)
        scale = alpha / (2.0 * math.sqrt(r))
        grad_x = gx + scale * (2.0 * self.Q.T @ s)
        grad_y = gy + scale * (2.0 * self.M.T @ s + lam)
        grad_l = scale * (-2.0 * s + y)
        return np.concatenate([grad_x, grad_y, grad_l])


    # -- compass screens -----------------------------------------------------

    def screens(self) -> bool:
        """Whether the compass screens trials: the min and kkt kinds, on
        data and a box within ``_SCREEN_DATA_MAX``."""
        if self.spec.kind == KIND_PRODUCT:
            return False
        f, (x_box, cap) = self.f, self._box
        parts = (self.M, self.Q, self.q0, f.xx, f.xy, f.yy, f.x_lin, f.y_lin, x_box,
                 np.array([f.const, cap]))
        return max(float(np.max(np.abs(p), initial=0.0)) for p in parts) <= _SCREEN_DATA_MAX

    @cached_property
    def _abs(self) -> SimpleNamespace:
        """The absolute values of the data blocks the screens read."""
        f = self.f
        return SimpleNamespace(M=np.abs(self.M), Q=np.abs(self.Q), q0=np.abs(self.q0),
                               xx=np.abs(f.xx), xy=np.abs(f.xy), yy=np.abs(f.yy))

    @cached_property
    def trial_floor(self) -> TrialFloor:
        """The screen of the min and norm kkt residuals (see ``TrialFloor``)."""
        return TrialFloor(self, _floor_margin(5 * (self.n + 2 * self.m) + 16))

    @cached_property
    def _affine(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
        """L with L @ (z, |z|, 1) = (grad f(z), s(z), grad f~(|z|), sig(|z|)),
        every gradient the ray screen takes as one affine map of z and |z|;
        the linear parts (a, b) and (|a|, |b|) of f and f~; and the
        ``RayScreen.drop`` matrix of this dimension."""
        f, n, m, ab = self.f, self.n, self.m, self._abs
        dim = n + 2 * m
        signed = (0.5 * (f.xx + f.xx.T), f.xy, 0.5 * (f.yy + f.yy.T), self.Q, self.M,
                  -np.eye(m), f.x_lin, f.y_lin, self.q0)
        absolute = (0.5 * (ab.xx + ab.xx.T), ab.xy, 0.5 * (ab.yy + ab.yy.T), ab.Q,
                    ab.M, np.eye(m), np.abs(f.x_lin), np.abs(f.y_lin), ab.q0)
        L = np.zeros((2 * dim, 2 * dim + 1))
        # the signed blocks act on z, the absolute ones on |z|
        for o, (hx, bxy, hy, Q, M, lam, a, b, q0) in ((0, signed), (dim, absolute)):
            x, y, s, end = o, o + n, o + n + m, o + dim  # blocks of x, y, lambda
            L[x:y, x:y], L[x:y, y:s], L[x:y, -1] = hx, bxy, a
            L[y:s, x:y], L[y:s, y:s], L[y:s, -1] = bxy.T, hy, b
            L[s:end, x:y], L[s:end, y:s], L[s:end, s:end], L[s:end, -1] = Q, M, lam, q0
        lin = np.concatenate([f.x_lin, f.y_lin])
        rho = _screen_margin(5 * dim + 16)
        drop = np.array([[1.0, 0.0], [0.0, 1.0], [-rho, 0.0], [0.0, -rho]])
        return L, (lin, np.abs(lin)), drop

    def ray_rows(self, polls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What ``ray_screen`` needs of a poll matrix D (k x dim), computed
        once per matrix: T (4k x (2 dim + 1)) with T @ (z, |z|, 1) the
        slopes of f, r, f~ and r~ along every row, and the (k, 4)
        curvatures.  Uses S1 = D_y M' + D_x Q' - D_l, the rates of s, and
        Sig1 = |D_y||M|' + |D_x||Q|' + |D_l|, those of sig."""
        f, n, m, L = self.f, self.n, self.m, self._affine[0]
        dim = n + 2 * m
        dx, dy, dl = polls[:, :n], polls[:, n:n + m], polls[:, n + m:]
        absd = np.abs(polls)
        ax, ay, al = absd[:, :n], absd[:, n:n + m], absd[:, n + m:]
        ab = self._abs
        s1 = dy @ self.M.T + dx @ self.Q.T - dl
        sig1 = ay @ ab.M.T + ax @ ab.Q.T + al
        # slope of f: d'grad f; of r: 2 s1's + dy'lambda + dl'y; the
        # majorants take |d|, sig1 and |z| in their place
        t_f = polls[:, :n + m] @ L[:n + m]
        t_r = 2.0 * s1 @ L[n + m:dim]
        t_r[:, n + m:dim] += dy
        t_r[:, n:n + m] += dl
        t_fa = absd[:, :n + m] @ L[dim:dim + n + m]
        t_ra = 2.0 * sig1 @ L[dim + n + m:]
        t_ra[:, dim + n + m:2 * dim] += ay
        t_ra[:, dim + n:dim + n + m] += al

        def quad(A, B, C, vx, vy):
            # rowwise 0.5 vx'A vx + vx'B vy + 0.5 vy'C vy
            return (0.5 * ((vx @ A.T) * vx).sum(axis=1) + ((vy @ B.T) * vx).sum(axis=1)
                    + 0.5 * ((vy @ C.T) * vy).sum(axis=1))

        curves = np.stack([
            quad(f.xx, f.xy, f.yy, dx, dy),
            (s1 * s1).sum(axis=1) + (dl * dy).sum(axis=1),
            quad(ab.xx, ab.xy, ab.yy, ax, ay),
            (sig1 * sig1).sum(axis=1) + (al * ay).sum(axis=1),
        ], axis=1)
        return np.concatenate([t_f, t_r, t_fa, t_ra]), curves

    def ray_screen(self, z: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> RayScreen:
        """The screen at z of the poll matrix behind ``rows`` (from
        ``ray_rows``): f, r, f~ and r~ at z from one product with the
        affine map, and their slopes along every row from one more."""
        f, n, m = self.f, self.n, self.m
        dim = n + 2 * m
        L, lin, drop = self._affine
        w = np.concatenate([z, np.abs(z), (1.0,)])
        g = L @ w
        s, sig = g[n + m:dim], g[dim + n + m:]
        # f(z) = 0.5 (grad f(z) + linear part)'(x, y) + c, and so for f~
        rates, curves = rows
        coef = np.empty((curves.shape[0], 4, 3))
        coef[:, 0, 0] = 0.5 * float((g[:n + m] + lin[0]) @ z[:n + m]) + f.const
        coef[:, 1, 0] = float(s @ s + z[n + m:] @ z[n:n + m])
        coef[:, 2, 0] = 0.5 * float((g[dim:dim + n + m] + lin[1]) @ w[dim:dim + n + m]) \
            + abs(f.const)
        coef[:, 3, 0] = float(sig @ sig + w[dim + n + m:2 * dim] @ w[dim + n:dim + n + m])
        coef[:, :, 1] = (rates @ w).reshape(4, -1).T
        coef[:, :, 2] = curves
        return RayScreen(coef, drop)


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
    d = np.asarray(d, dtype=float)
    if d.size != problem.n + 2 * problem.m:
        raise DimensionMismatch(f"direction must have length {problem.n + 2 * problem.m}")
    return d


def kkt_residual(problem: MpecProblem, z: KktPoint, spec: ResidualSpec | None = None) -> float:
    """Stationarity norm plus primal/dual violation and complementarity sums.

    Zero exactly when (x, y, lambda) is feasible for the one-level
    reformulation.  The complementarity term is |lambda_i y_i|, which is
    sign-safe for infeasible iterates with negative components.
    """
    z.check_dims(problem)
    return _Kernel(problem, spec).kkt_norm_residual(z.to_z())


def kkt_residual_squared(problem: MpecProblem, z: KktPoint) -> float:
    """Polynomial variant: ||F(x,y) - lambda||^2 + sum lambda_i y_i.

    A valid residual on the search box (where y, lambda >= 0); it can go
    negative at points with negative components, so penalty evaluation
    clamps at zero.
    """
    z.check_dims(problem)
    return _Kernel(problem).squared_residual(z.to_z())


def residual_value(problem: MpecProblem, z: KktPoint, spec: ResidualSpec) -> float:
    """Dispatch on spec.kind (and the stationarity variant for kkt)."""
    z.check_dims(problem)
    return _Kernel(problem, spec).residual(z.to_z())


def penalized_objective(problem: MpecProblem, z: KktPoint, alpha: float,
                        spec: ResidualSpec) -> float:
    """f(x, y) + alpha * max(r(z), 0)^gamma with r selected by ``spec.kind``."""
    _check_alpha(alpha)
    z.check_dims(problem)
    kernel, zf = _Kernel(problem, spec), z.to_z()
    r = max(kernel.residual(zf), 0.0)
    return kernel.objective(zf) + alpha * r ** spec.gamma


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
    return _Kernel(problem).sqrt_grad(z.to_z(), alpha)
