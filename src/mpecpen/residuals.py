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

The kernel also screens compass trials.  Its ``TrialFloor`` gives, for
every trial of a sweep at once, clipped or not, a rigorous lower bound
on the penalized value the landscape would compute there: it evaluates
f, r and their absolute-value majorants at the trials in one batched
pass, for the ``min``, norm kkt and squared kkt residuals alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rounding
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


def _norm(v: np.ndarray, norm: str) -> float:
    if norm == NORM_L1:
        return float(np.sum(np.abs(v)))
    if norm == NORM_L2:
        return float(np.linalg.norm(v))
    raise ValueError(f"unknown norm {norm!r}")


def _pair(y, w) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(y, "y")
    return y, _as_vector(w, "w", size=y.size)


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


# -- the compass screen ----------------------------------------------------

#: the screen is built only when the problem data and the box are at most
#: this large in magnitude, which keeps overflow out and bounds the
#: absolute effect of gradual underflow
_SCREEN_DATA_MAX = 2.0 ** 100
#: the underflow allowance eta of ``TrialFloor``, whose l2 norms take the
#: square root of an underflow error
_SQRT_UNDERFLOW = 2.0 ** -500
#: relative error allowed for a computed power r**gamma, here and in
#: ``Landscape.penalized``: libm's pow is within 1 ulp (2^-52), numpy's
#: vector power within a few, and this leaves room for 2^11 ulps
_POW_SLACK = 2.0 ** -40


def _floor_margin(chain: int) -> float:
    """The relative margin rho of ``TrialFloor`` for computations in which
    no term passes through more than ``chain`` roundings."""
    return 3.0 * rounding.gamma(chain)


class TrialFloor:
    """Lower bounds on the computed penalized value at any compass trial,
    for the ``min``, norm kkt and squared kkt residuals.

    Built by ``_Kernel.screen``.
    ``floors(trials, alpha, gamma)`` reads only the (k, dim) trials t of a
    sweep, clipped or not, and returns for every row a number
    L <= fl(f(t) + alpha * max(r(t), 0)**gamma), the value that
    ``Landscape.penalized`` computes at t, for alpha >= 0 and gamma > 0.
    A trial with L >= phi(z) cannot be a strict improvement, and the
    compass charges it without evaluating it.

    Derivation.  u and gamma_k are as in ``rounding``, dim = n + 2m and
    K = 5 dim + 16.  f is the quadratic 0.5 x'Ax + x'By + 0.5 y'Cy + a'x
    + b'y + c, with absolute-value majorant f~(v) = 0.5 v_x'|A|v_x
    + v_x'|B|v_y + 0.5 v_y'|C|v_y + |a|'v_x + |b|'v_y + |c|.  For a point
    t = (x, y, lambda) let w = M y + Q x + q0, s = w - lambda and
    sig = |M||y| + |Q||x| + |q0|, and take as the majorant of r
    r~ = sum_i (sig_i + |y_i|) for ``min``,
    r~ = sum_i (sig_i + |y_i| + 2 |lambda_i| + |lambda_i y_i|) for norm kkt, and
    r~ = sum_i (sig_i + |lambda_i|)^2 + sum_i |lambda_i y_i| for squared kkt,
    whose r = sum_i s_i^2 + sum_i lambda_i y_i.

    1. The landscape (``QuadObjective.value``) and the batch both
       evaluate f at t as a sum of products in which no term passes
       through more than K roundings (the batch's longest chain, a
       product with (t, |t|, 1) and then a sum over 2 dim products, has
       fewer than 4 dim + 4), so each lies within gamma_K f~(|t|) of f(t).
       The batch writes f = 0.5 sum_i v_i (H v + 2a)_i + c with
       v = (x, y), H = [[A, B], [B', C]] and a = (a_x, a_y), whose
       absolute-value form is f~ again.
    2. Each computed w_i, or s_i, is a sum of at most 2 dim + 1 products
       that passes through at most 2 dim + 2 roundings, and so lies within
       gamma_{2 dim + 2} sig_i, or gamma_{2 dim + 2} (sig_i + |lambda_i|),
       of its exact value.
       For ``min`` and norm kkt, min(y_i, .), |.| and max(., 0) are exact
       and 1-Lipschitz, so these errors carry through to the components
       v_i that are summed, and |min(y_i, w_i)| <= |y_i| + |w_i|.  The l1
       sum adds a relative gamma_m; the l2 norm, sqrt(sum v_i^2), lies
       within gamma_{m+1} of ||v_c||, and | ||v_c|| - ||v|| |
       <= ||v_c - v||_1; the sums of |lambda_i y_i|, [-y]_+ and
       [-lambda]_+ and the three final additions add a relative
       gamma_{m+4}.  Every sum of absolute values here is at most
       (1 + gamma_{2 dim + 2}) r~(|t|), so, with gamma_a + gamma_b
       + gamma_a gamma_b <= gamma_{a+b}, each computed r lies within
       gamma_{3 dim + 8} r~(|t|) <= gamma_K r~(|t|) of r(t).  The batch
       leaves out the norm kkt violation sums, nonnegative terms that
       vanish in the box; that only lowers its value R.
       The squared r is itself a sum of products: each s_i^2 expands into
       the products of two terms of s_i, and r~ is the same sum with every
       term replaced by its absolute value.  In the batch a product passes
       through the roundings of its two factors s_i, the square, the m - 1
       additions over the components and the one that adds the sum of the
       lambda_i y_i (whose terms pass through m + 1), at most
       2 (2 dim + 2) + 1 + m = 4 dim + m + 5 <= K; in the landscape
       (``_Kernel.residual``), whose s_i pass through at most
       dim + 2, fewer.  So each computed r lies within gamma_K r~(|t|) of
       r(t) here too.
    3. So F - f_c(t) <= 2 gamma_K f~(|t|), where F is the batch's f and
       f_c the landscape's, and R - r_c(t) <= 2 gamma_K r~(|t|).  The
       computed majorants S~, sums of nonnegative terms (and for squared
       kkt of their squares, whose chains are as in 2), are at least
       (1 - gamma_K) times the exact ones, so with rho = 3 gamma_K
       (``_floor_margin(K)``) and K u < 1/8, fl(rho S~_f) >= 2 gamma_K
       f~(|t|).  Rounding is monotone and f_c(t) is a floating-point
       number, so fl(F - fl(rho S~_f)) <= f_c(t), and so is the fused
       fl(F - rho S~_f) that the product with ``drop`` may compute;
       likewise for r.
    4. eta = 2^-500 covers gradual underflow.  With data and box entries
       at most 2^100 (``_SCREEN_DATA_MAX``) and dim < 2^30, the underflows
       of the products add less than dim^2 2^-970 to f, r and S~ for
       ``min`` and norm kkt; those of the squares in an l2 norm, at most
       m 2^-1075 under its square root, add less than 2^-520; and for
       squared kkt, where an underflow error of at most dim 2^-1073 in s_i
       or sig_i + |lambda_i|, both at most dim 2^202, is multiplied by at
       most twice that, they add less than dim^3 2^-868 < 2^-770.  So
       F_lo = fl(F - rho S~_f) - eta <= f_c(t) and R_lo <= r_c(t).
    5. Power, weight and sum: with pow, sqrt and numpy's power each
       within a relative 2^-41 (``_POW_SLACK``), monotonicity of x**gamma
       gives P_lo = fl(fl(alpha pow(max(R_lo, 0))) (1 - 2^-40))
       <= fl(alpha * max(r_c(t), 0)**gamma).  Rounded addition is
       monotone, so L = fl(F_lo + P_lo) <= fl(f_c(t) + that power term),
       which is the landscape's value at t.
    """

    __slots__ = ("n", "m", "natural", "squared", "l1", "map", "sums", "const", "drop",
                 "_rows")

    def __init__(self, kernel: "_Kernel", rho: float):
        f, n, m, spec = kernel.f, kernel.n, kernel.m, kernel.spec
        dim = n + 2 * m
        p, x, y, lam = n + m, slice(0, n), slice(n, n + m), slice(n + m, dim)
        w = slice(2 * dim, 2 * dim + m)
        self.n, self.m = n, m
        self.natural = spec.kind == KIND_MIN
        self.squared = spec.kind == KIND_KKT and spec.squared_stationarity
        self.l1 = spec.norm == NORM_L1
        H = np.block([[f.xx, f.xy], [f.xy.T, f.yy]])
        lin = np.concatenate([f.x_lin, f.y_lin])
        absM, absQ, absq0 = np.abs(kernel.M), np.abs(kernel.Q), np.abs(kernel.q0)
        #: (t, |t|, 1) @ map = (H v + 2a, 0, |H||v| + 2|a|, 0, w or s, the
        #: majorant columns): for squared kkt the m columns sig + |lambda|,
        #: else the one column r~ less its products |lambda_i y_i|
        self.map = np.zeros((2 * dim + 1, 2 * dim + m + (m if self.squared else 1)))
        self.map[:p, :p], self.map[dim:dim + p, dim:dim + p] = H.T, np.abs(H).T
        self.map[x, w], self.map[y, w] = kernel.Q.T, kernel.M.T
        if not self.natural:
            self.map[lam, w] = -np.eye(m)
        self.map[-1, :w.stop] = np.concatenate([2.0 * lin, np.zeros(m), 2.0 * np.abs(lin),
                                                np.zeros(m), kernel.q0])
        majorant = self.map[dim:, w.stop:]
        if self.squared:
            majorant[x], majorant[y], majorant[lam] = absQ.T, absM.T, np.eye(m)
            majorant[-1] = absq0
        else:
            majorant[:-1, 0] = np.concatenate([absQ.sum(axis=0), absM.sum(axis=0) + 1.0,
                                               np.full(m, 0.0 if self.natural else 2.0)])
            majorant[-1] = absq0.sum()
        #: P @ sums + const = (f, 0, f~, 0) for the products P of (t, |t|)
        #: with the first two blocks
        self.sums = np.zeros((2 * dim, 4))
        self.sums[:dim, 0] = self.sums[dim:, 2] = 0.5
        self.const = np.array([f.const, 0.0, abs(f.const), 0.0])
        self.drop = np.array([[1.0, 0.0], [0.0, 1.0], [-rho, 0.0], [0.0, -rho]])
        #: (t, |t|, 1) work arrays by row count
        self._rows: dict[int, np.ndarray] = {}

    def floors(self, trials: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
        n, m = self.n, self.m
        k, dim = trials.shape
        t = self._rows.get(k)
        if t is None:
            t = self._rows[k] = np.ones((k, 2 * dim + 1))
        t[:, :dim] = trials
        np.abs(trials, out=t[:, dim:-1])
        g = t @ self.map
        vals = (g[:, :2 * dim] * t[:, :-1]) @ self.sums + self.const
        v, majorant = g[:, 2 * dim:2 * dim + m], g[:, 2 * dim + m:]
        y = trials[:, n:n + m]
        if self.natural:
            v = np.minimum(y, v)
        if self.squared:
            r, bound = (v * v).sum(axis=1), (majorant * majorant).sum(axis=1)
        else:
            r = np.abs(v).sum(axis=1) if self.l1 else np.sqrt((v * v).sum(axis=1))
            bound = majorant[:, 0]
        if not self.natural:
            prod = trials[:, n + m:] * y
            comp = np.abs(prod).sum(axis=1)
            r, bound = r + (prod.sum(axis=1) if self.squared else comp), bound + comp
        vals[:, 1], vals[:, 3] = r, bound
        lo = vals @ self.drop - _SQRT_UNDERFLOW
        # step 5: numpy takes sqrt for gamma = 1/2 and a copy for 1
        power = np.maximum(lo[:, 1], 0.0) ** gamma
        return lo[:, 0] + (alpha * power) * (1.0 - _POW_SLACK)


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
        """Rate of change of F along (dx, dy), or along stacked columns."""
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

    def residual(self, z: np.ndarray) -> float:
        """The residual selected by spec.kind (and the kkt variant)."""
        spec = self.spec
        x, y, lam = self._split(z)
        w = self._F(x, y)
        if spec.kind == KIND_MIN:
            return _norm(np.minimum(y, w), spec.norm)
        if spec.kind == KIND_PRODUCT:
            return float(y @ w)
        if spec.squared_stationarity:
            return self._squared(w - lam, y, lam)
        # stationarity norm plus primal, dual and complementarity sums;
        # |lambda_i y_i| is sign-safe at iterates with negative components
        stat = _norm(w - lam, spec.norm)
        primal = float(np.sum(np.maximum(-y, 0.0)))
        dual = float(np.sum(np.maximum(-lam, 0.0)))
        comp = float(np.sum(np.abs(lam * y)))
        return stat + primal + dual + comp

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

    # -- compass screen ------------------------------------------------------

    def screen(self) -> TrialFloor | None:
        """The compass screen (see ``TrialFloor``) on data and a box within
        ``_SCREEN_DATA_MAX``; None otherwise."""
        f, (x_box, cap) = self.f, self._box
        parts = (self.M, self.Q, self.q0, f.xx, f.xy, f.yy, f.x_lin, f.y_lin, x_box,
                 np.array([f.const, cap]))
        if max(float(np.max(np.abs(p), initial=0.0)) for p in parts) > _SCREEN_DATA_MAX:
            return None
        return TrialFloor(self, _floor_margin(5 * (self.n + 2 * self.m) + 16))


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
