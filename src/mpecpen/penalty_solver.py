"""Penalty continuation over a compact box.

The inner solver is projected compass search with step halving, and no
solve evaluates a gradient: scan the signed coordinate directions in
fixed order, take the first strict improvement, halve the step when a
full sweep fails.  That handles the kinks of fractional-power penalties.
Coordinate polling alone provably stalls on the feasible manifold
(there, every single-coordinate move raises the penalty faster than it
lowers the objective), so the poll set is augmented with tangent
completions: for each signed step in an upper variable, the lower
variables are completed through the stationarity system restricted to
the current activity pattern, which keeps the residual flat to first
order and lets the search ride the manifold.  Those completions depend
only on the activity pattern, so a landscape solves them once per
pattern and hands out the same read-only array.  A pattern's 2n steps
are completed as one block, one stacked numpy call per stage.  Each call
makes per step the LAPACK or BLAS call of a lone step, and the steps
carry +0.0 zeros, so every row keeps the bits of a step-by-step loop.

Neither the objective nor the natural residual min(y, M y + q(x)) reads
the multiplier, so the ``min`` landscape pins it: its multiplier box is
{0}^m, its tangent rows complete (dx, dy) only, a row of the second
activity pattern is dropped when it equals the same step's row of the
first, and a pair is degenerate where y_i and the slack w_i are both
near zero.  The layout of z stays (x, y, lambda); the pinned +-e_lambda
rows never move a trial, and a report fills lambda with the warm start
clip(w, 0, cap).

Each accepted point gets one poll matrix D: the coordinate rows
+e_0, -e_0, +e_1, ... followed by the tangent rows.  A sweep forms every
trial clip(z + step*D) at once; rows that the clip leaves equal to z are
skipped free of charge, as before.  The others are walked in order and
the first strict improvement is taken, so the iterates are those of a
loop that evaluates one direction at a time.  A sweep charges its
trials up to and including the first improvement, or, when none
improves, every trial of the sweep cut to the budget left.  The
landscape of an MPEC also carries a screen, a ``TrialFloor``, which
bounds the penalized value the landscape would compute at every trial of
a sweep, clipped or not, from below in one batched evaluation, for the
``min``, norm kkt and squared kkt residuals alike.  A trial whose bound is at least the
current value cannot be accepted; it is charged against the budget like
an evaluated trial but not evaluated.  Every other trial is evaluated.
Only strict descent is accepted, so the penalized objective is
non-increasing along the iterates.

The outer loop raises the penalty parameter geometrically until either
the residual meets the feasibility tolerance (a feasible minimizer), or
the residual stagnates at a point that is first-order stationary for the
penalized problem (an infeasible penalty-local minimizer, which exact
penalties do admit), or the round budget runs out.  The poll matrix also
defines that certificate: the stationarity measure is the steepest
one-sided descent of the penalized objective along its box-feasible rows,
so a point is certified only when no direction the search polls descends.

Everything runs on a small landscape interface (objective, residual,
growth expansion, box), so the same loop drives both LCP-MPEC problems
and custom one-dimensional constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .model import KktPoint, MpecProblem, _as_vector, warm_point
from . import residuals as res
from .residuals import ResidualSpec

CLASS_FEASIBLE = "FeasibleMinimizer"
CLASS_INFEASIBLE = "InfeasiblePenaltyStationary"
CLASS_LIMIT = "IterationLimit"

#: the inner search stops when its step falls below this
INNER_TOL = 1e-9
#: a round whose residual is above this share of the previous round's has
#: stagnated, and the stationarity test decides whether the solve stops
RESIDUAL_DECREASE = 0.5


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs of the continuation loop.  ``gamma`` overrides the exponent
    carried by ``residual``; ``alpha_fixed`` freezes the penalty weight
    (the growth factor is then ignored)."""

    alpha0: float = 1.0
    growth: float = 10.0
    eps_feas: float = 1e-8
    eps_stat: float = 1e-6
    max_outer: int = 12
    max_inner: int = 5000
    gamma: float = 0.5
    residual: ResidualSpec = field(default_factory=lambda: ResidualSpec(
        kind=res.KIND_KKT, norm=res.NORM_L2, gamma=0.5, squared_stationarity=True))
    alpha_fixed: bool = False

    def __post_init__(self):
        for name in ("alpha0", "growth", "eps_feas", "eps_stat"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.growth <= 1 and not self.alpha_fixed:
            raise ValueError("growth must exceed 1")
        for name in ("eps_feas", "eps_stat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.max_inner < 0:
            raise ValueError("max_inner must be nonnegative")
        self.effective_spec()  # the residual spec refuses a gamma outside (0, 1]

    def effective_spec(self) -> ResidualSpec:
        return replace(self.residual, gamma=self.gamma)


@dataclass
class SolveReport:
    """Outcome of one continuation run."""

    final_point: KktPoint
    alpha_history: list[float]
    residual_history: list[float]
    objective_history: list[float]
    penalized_history: list[float]
    classification: str
    stationarity_measure: float
    gamma: float
    #: the landscape's residual kind, None for one without a lower level
    residual_kind: Optional[str]
    #: "squared" or "norm" for the kkt residual, None for the others
    stationarity_variant: Optional[str]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    @property
    def final_objective(self) -> float:
        return self.objective_history[-1]

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        point = self.final_point
        doc["final_point"] = {"x": point.x.tolist(), "y": point.y.tolist(),
                              "lambda": point.lam.tolist()}
        doc["final_objective"] = self.final_objective
        doc["final_residual"] = self.final_residual
        return doc


@dataclass(frozen=True)
class Landscape:
    """What the solver needs to know about one penalized problem."""

    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], float]
    residual: Callable[[np.ndarray], float]
    #: one-sided growth (r0, slope, curve) of the residual along z + t d
    expansion: Callable[[np.ndarray, np.ndarray], tuple[float, float, float]]
    #: directional derivative of the smooth objective part
    objective_slope: Callable[[np.ndarray, np.ndarray], float]
    #: maps a raw iterate to the KktPoint a report gives
    as_point: Callable[[np.ndarray], KktPoint]
    #: never set by the solver; only bench/spans.py reads it
    sqrt_grad: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    #: extra poll directions that follow the feasible manifold, as a
    #: read-only (k, dim) array, or None
    tangent_polls: Optional[Callable[[np.ndarray], np.ndarray]] = None
    #: the screen of the compass sweeps, whose ``floors`` bound
    #: ``penalized`` from below at every trial, clipped or not, or None
    screen: Optional[res.TrialFloor] = None
    #: the residual the landscape penalizes, which names it in a report;
    #: None for a landscape without a lower level, such as the q5 toy
    spec: Optional[ResidualSpec] = None

    @property
    def dim(self) -> int:
        return self.lower.size

    def penalized(self, z: np.ndarray, alpha: float, gamma: float) -> float:
        return self.objective(z) + alpha * max(self.residual(z), 0.0) ** gamma


def landscape_from_problem(problem: MpecProblem, spec: ResidualSpec) -> Landscape:
    n, m = problem.n, problem.m
    kernel = res.penalty_kernel(problem, spec)
    M, Q = problem.M, problem.qmap.Q
    # neither f nor min(y, w) reads lambda: the natural landscape pins it
    # at 0 and reports it as the warm multiplier clip(w, 0, cap)
    natural = spec.kind == res.KIND_MIN
    upper = problem.z_upper
    as_point = problem.split
    if natural:
        upper[n + m:] = 0.0

        def as_point(z):
            return warm_point(problem, z[:n], z[n:n + m])

    cache: dict[tuple[bytes, bytes], np.ndarray] = {}
    # the signed unit steps +e_0, -e_0, +e_1, ... in x, with +0.0 zeros,
    # and their right-hand sides -(Q dx) as (m, 1) columns
    steps = np.zeros((2 * n, n))
    steps[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([1.0, -1.0], n)
    rhs = -(Q @ steps[..., None])

    def tangent_dirs(base, degen):
        # Complete each step dx with (dy, dlambda) so the stationarity
        # block stays zero under an activity pattern of y: active rows keep
        # dl_i = 0 and solve M_AA dy_A = -(Q dx)_A; inactive rows keep
        # dy_i = 0 and move the multiplier with the slack.  The natural
        # landscape keeps dl = 0, and its second pattern drops the rows
        # that repeat the first.  At degenerate pairs (both members near
        # zero) either branch may continue the solution path, so both
        # patterns are polled.
        blocks = []
        for active in [base, base | degen] if np.any(degen) else [base]:
            # one row per step, NaN where the step has no completion
            block = np.full((2 * n, n + 2 * m), np.nan)
            blocks.append(block)
            act = np.flatnonzero(active)
            dy = np.zeros((2 * n, m))
            if act.size:
                try:
                    dy[:, act] = np.linalg.solve(M[np.ix_(act, act)], rhs[:, act])[..., 0]
                except np.linalg.LinAlgError:  # exactly singular: no completions
                    continue
            finite = np.isfinite(dy).all(axis=1)
            dx, dy = steps[finite], dy[finite]
            dl = np.zeros_like(dy)
            if not natural:
                dl[:, ~active] = kernel.rate(dx[..., None], dy[..., None])[:, ~active, 0]
            rows = np.concatenate([dx, dy, dl], axis=1)
            # the max-abs entry is at least the step's 1, and x / 1 is exact
            block[finite] = rows / np.max(np.abs(rows), axis=1, keepdims=True)
        rows = np.concatenate(blocks)
        if natural and len(blocks) == 2:
            # rows of distinct steps differ in dx, so a row can repeat only
            # as the same step's row of the second pattern
            rows[2 * n:][(blocks[1] == blocks[0]).all(axis=1)] = np.nan
        rows = rows[~np.isnan(rows[:, 0])]
        rows.flags.writeable = False
        return rows

    def tangent_polls(z):
        # the rows depend on z only through its activity pattern, so each
        # pattern is completed once; a pair is degenerate where y_i and its
        # partner (the multiplier, or the natural landscape's slack w) are
        # both near zero
        x, y = z[:n], z[n:n + m]
        partner = kernel._F(x, y) if natural else z[n + m:]
        base = y > 1e-9
        degen = (~base) & (partner <= 1e-9)
        key = (base.tobytes(), degen.tobytes())
        dirs = cache.get(key)
        if dirs is None:
            dirs = cache[key] = tangent_dirs(base, degen)
        return dirs

    return Landscape(lower=problem.z_lower, upper=upper,
                     objective=kernel.objective, residual=kernel.residual,
                     expansion=kernel.expansion,
                     objective_slope=kernel.objective_slope,
                     as_point=as_point,
                     tangent_polls=tangent_polls,
                     screen=kernel.screen(), spec=spec)


def q5_toy_landscape() -> Landscape:
    """One-dimensional construction with an infeasible penalty-local
    minimizer: minimize t over [-1, 4] subject to r(t) = 0 where
    r(t) = min(t^2, (t-3)^2 + 1).  The feasible set is {0}, yet
    t + 2 r(t) has a strict local minimizer at t = 2.75 with r > 1."""
    lower = np.array([-1.0])
    upper = np.array([4.0])

    def branches(t):
        return t * t, (t - 3.0) ** 2 + 1.0

    def residual(z):
        a, b = branches(float(z[0]))
        return min(a, b)

    def objective(z):
        return float(z[0])

    def objective_slope(z, d):
        return float(d[0])

    def expansion(z, d):
        t, dt = float(z[0]), float(d[0])
        a, b = branches(t)
        da, db = 2.0 * t * dt, 2.0 * (t - 3.0) * dt
        slope = res.min_dirderiv(a, b, da, db)
        # both branches have unit quadratic coefficient in t
        return min(a, b), slope, dt * dt

    return Landscape(lower=lower, upper=upper, objective=objective,
                     residual=residual, expansion=expansion,
                     objective_slope=objective_slope,
                     as_point=lambda z: KktPoint(z, np.zeros(0), np.zeros(0)))


# -- inner solver ---------------------------------------------------------

def _coordinate_polls(dim: int) -> np.ndarray:
    # +e_0, -e_0, +e_1, ...; the negated rows keep their -0.0 entries,
    # which decide the sign of a zero coordinate in z + step*d
    eye = np.eye(dim)
    rows = np.empty((2 * dim, dim))
    rows[0::2] = eye
    rows[1::2] = -eye
    return rows


def _polls(land: Landscape, z: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The poll matrix at z: the coordinate rows, then the tangent rows."""
    if land.tangent_polls is None:
        return coords
    return np.concatenate([coords, land.tangent_polls(z)])


def _compass(land: Landscape, alpha: float, gamma: float, z0: np.ndarray,
             budget: int, callback: Optional[Callable[[np.ndarray, float], None]] = None
             ) -> tuple[np.ndarray, float, int]:
    z = np.clip(z0, land.lower, land.upper)
    phi = land.penalized(z, alpha, gamma)
    if callback:
        callback(z, phi)
    evals = 0
    widths = land.upper - land.lower
    step = 0.25 * float(np.max(widths)) if np.max(widths) > 0 else 0.0
    coords = _coordinate_polls(land.dim)
    polls = None
    while step >= INNER_TOL and evals < budget:
        if polls is None:
            # the poll matrix of the current z: built again only when z moves
            polls = _polls(land, z, coords)
        trials = np.clip(z + step * polls, land.lower, land.upper)
        # the rows that move z, cut to the budget left
        moved = np.flatnonzero((trials != z).any(axis=1))[:budget - evals]
        tried = np.arange(moved.size)
        if land.screen is not None:
            # trials that provably cannot improve on phi are not evaluated
            tried = tried[~(land.screen.floors(trials, alpha, gamma)[moved] >= phi)]
        for k in tried.tolist():
            phi_t = land.penalized(trials[moved[k]], alpha, gamma)
            if phi_t < phi:
                evals += k + 1  # the trials up to and including this one
                z, phi = trials[moved[k]].copy(), phi_t
                if callback:
                    callback(z, phi)
                polls = None
                break
        else:
            evals += moved.size
            step *= 0.5
    return z, phi, evals


def inner_minimize(problem: MpecProblem, alpha: float, spec: ResidualSpec,
                   z0: KktPoint, budget: int, callback=None) -> KktPoint:
    """Approximately minimize f + alpha*r^gamma over the box from z0.

    Always returns the best point found; with a zero budget that is z0
    projected onto the box.
    """
    res._check_alpha(alpha)
    z0.check_dims(problem)
    land = landscape_from_problem(problem, spec)
    z, _, _ = _compass(land, alpha, spec.gamma, z0.to_z(), budget, callback)
    return land.as_point(z)


# -- stationarity ---------------------------------------------------------

def stationarity_measure(land: Landscape, z: np.ndarray, alpha: float,
                         gamma: float) -> float:
    """Most negative directional derivative of the penalized objective
    along the rows of the compass's poll matrix at z, clamped at zero.
    Rows that leave the box at a face z sits on are skipped."""
    polls = _polls(land, z, _coordinate_polls(land.dim))
    leaves = ((polls > 0.0) & (z >= land.upper)) | ((polls < 0.0) & (z <= land.lower))
    worst = min([0.0] + [res._penalized_slope(land.objective_slope, land.expansion, z, d,
                                              alpha, gamma)
                         for d in polls[~leaves.any(axis=1)]])
    return -worst if worst < 0.0 else 0.0


def check_stationarity(problem: MpecProblem, z: KktPoint, alpha: float,
                       spec: ResidualSpec) -> float:
    """First-order stationarity of f + alpha*r^gamma at z over the
    solver's poll set; zero means no poll direction descends."""
    res._check_alpha(alpha)
    z.check_dims(problem)
    land = landscape_from_problem(problem, spec)
    return stationarity_measure(land, z.to_z(), alpha, spec.gamma)


# -- outer loop -----------------------------------------------------------

def default_start(problem: MpecProblem) -> KktPoint:
    """Box-midpoint upper variables, zero lower variables, multiplier
    warm-started at the positive part of the slack."""
    x = 0.5 * (problem.x_box[:, 0] + problem.x_box[:, 1])
    return warm_point(problem, x, np.zeros(problem.m))


def run_continuation(land: Landscape, config: PenaltyConfig,
                     z0: np.ndarray) -> SolveReport:
    z = _as_vector(z0, "start", size=land.dim)  # _compass clips it to the box
    gamma = config.gamma
    alpha = config.alpha0
    alphas: list[float] = []
    rs: list[float] = []
    fs: list[float] = []
    phis: list[float] = []
    classification = CLASS_LIMIT
    prev_r = None
    for _ in range(config.max_outer):
        z, phi, _ = _compass(land, alpha, gamma, z, config.max_inner)
        r = land.residual(z)
        alphas.append(alpha)
        rs.append(r)
        fs.append(land.objective(z))
        phis.append(phi)
        if r <= config.eps_feas:
            classification = CLASS_FEASIBLE
            break
        if prev_r is not None and r > RESIDUAL_DECREASE * prev_r:
            stat = stationarity_measure(land, z, alpha, gamma)
            if stat <= config.eps_stat:
                classification = CLASS_INFEASIBLE
                break
        prev_r = r
        if not config.alpha_fixed:
            alpha *= config.growth
    if classification != CLASS_INFEASIBLE:
        # the certificate's measure was taken at this (z, alpha) already
        stat = stationarity_measure(land, z, alphas[-1], gamma)
    spec, variant = land.spec, None
    if spec is not None and spec.kind == res.KIND_KKT:
        variant = "squared" if spec.squared_stationarity else "norm"
    return SolveReport(final_point=land.as_point(z), alpha_history=alphas,
                       residual_history=rs, objective_history=fs,
                       penalized_history=phis, classification=classification,
                       stationarity_measure=stat, gamma=gamma,
                       residual_kind=None if spec is None else spec.kind,
                       stationarity_variant=variant)


def penalty_continuation(problem: MpecProblem, config: PenaltyConfig,
                         z0: KktPoint | None = None) -> SolveReport:
    """Outer penalty loop on an MPEC; see the module docstring for the
    stopping logic."""
    land = landscape_from_problem(problem, config.effective_spec())
    start = z0 if z0 is not None else default_start(problem)
    start.check_dims(problem)
    return run_continuation(land, config, start.to_z())


def random_starts(problem: MpecProblem, count: int, seed: int = 0) -> list[np.ndarray]:
    """Uniform starting points in the search box, deterministic per seed."""
    lower, upper = problem.z_lower, problem.z_upper
    rng = np.random.default_rng(seed)
    return [lower + rng.random(lower.size) * (upper - lower) for _ in range(count)]
