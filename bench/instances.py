"""Seeded inputs for the benchmark workloads.

Everything here is plain data (dicts, lists, floats) made from one
``numpy.random.Generator``; the same seed gives the same inputs.  The
program under test sees only these inputs: the workloads turn them into
package objects through the public API during set-up.

Families and sizes, and why each is in the mix:

solve-mix (one entry = one continuation solve from one start)
  * the shipped fixtures ``lcp-param``, ``addq1`` and ``bilevel`` with
    the default solver settings: the instances users and the golden
    suite run; ``lcp-param`` (0.75), ``bilevel`` (0) and ``addq1`` (1/3,
    at x = 0 where y = (0, 1/3)) have known optima;
  * the ``q5`` toy from a random start, fixed weight 2 and exponent 1:
    the only landscape that is not built from an MPEC, and the one that
    certifies ``InfeasiblePenaltyStationary`` from starts in its right
    basin;
  * ``planted``: generated P-matrix MPECs with n in {1, 2}, m in {2..5}
    and the optimum planted at a strictly complementary point
    (x*, y*), objective 0.5|x - x*|_H^2 + 0.5|y - y*|^2, so the optimum
    is 0 and known;
  * ``degenerate``: as ``planted`` but with at least one pair
    y*_i = w*_i = 0 at the optimum, where strict complementarity fails
    as in ``bilevel``; near it the solver polls both tangent patterns;
  * ``generic``: P-matrix MPECs with a random convex objective in x and
    a positive linear price on y, the shape of the shipped fixtures,
    whose optimum is not known in closed form.
  Each block holds one generated instance per residual setting (see
  RESIDUAL_SETTINGS): the default squared-stationarity kkt residual at
  exponent 1/2 (gradient-refine pass) and the natural ``min`` residual in
  l1 and l2 at exponent 1 (an exact penalty for P-matrix LCPs), each run
  toward convergence within 2 rounds of 1500 evaluations, and, for one
  round of 1000 evaluations, the squared residual at exponent 1 and the
  norm kkt residual in l1 and l2, so every kkt and min branch of
  ``residual_expansion`` runs.  The ``product`` residual is left out:
  it vanishes at points with y'w = 0 but w not nonnegative, and the
  solver then certifies FeasibleMinimizer at points the oracle rejects.
  Generated boxes are x in [-1, 1]^n, and the multiplier cap sits above
  y(x) and w(x) over the box, so no solution is cut off.

ground-truth (one entry = one exact query)
  * ``lcp``: enumeration plus P-matrix test at m in {10, 12, 14}, in
    three families that take different paths through the oracle:
    ``P`` (positive-definite, one solution, the P-test visits every
    minor), ``nonP`` (a rank-one update that reverses the sign of a
    planted vector, so two planted solutions exist, deduplication runs
    and the P-test stops early) and ``psd`` (rank m/2 Gram matrix,
    about 40% singular bases, the fallback path).  Each instance plants
    nondegenerate basic solutions so a dropped solution is detectable.
  * ``hoffman``: exact projection of a 4-point cloud onto a polyhedron
    with p in {8, 10} inequality rows in dimension 3, through
    ``hoffman_baseline``; p sets the 2^p active-set enumeration.
  * ``fit``: ``fit_exponent`` over 200 distance/residual samples of a
    P-matrix LCP of order 6, the error-bound probe of the paper.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FIXTURE_NAMES = ("lcp-param", "addq1", "bilevel")
FIXTURE_OPTIMA = {"lcp-param": 0.75, "bilevel": 0.0, "addq1": 1.0 / 3.0}

#: (residual kind, norm, squared stationarity, exponent, solver overrides),
#: one per generated slot of a solve-mix block; the first entry is the
#: solver default.  Generated solves run on a bounded budget, so that one
#: slow instance cannot take a large share of a run: at most 2 rounds of
#: 1500 evaluations for the settings that converge on these instances,
#: and one round of 1000 evaluations for those that are not exact
#: penalties here (order 1 on the squared residual, the norm kkt
#: residual), which measure the evaluation cost of their residual rather
#: than a convergence the theory does not promise.
CONVERGE = {"max_outer": 2, "max_inner": 1500}
BUDGET = {"max_outer": 1, "max_inner": 1000}
RESIDUAL_SETTINGS = (
    ("kkt", "l2", True, 0.5, CONVERGE),
    ("min", "l2", False, 1.0, CONVERGE),
    ("kkt", "l2", True, 0.5, CONVERGE),
    ("min", "l1", False, 1.0, CONVERGE),
    ("kkt", "l2", True, 0.5, CONVERGE),
    ("kkt", "l2", False, 0.5, BUDGET),
    ("kkt", "l2", True, 1.0, BUDGET),
    ("kkt", "l1", False, 1.0, BUDGET),
)

LCP_ORDERS = (10, 12, 14)
LCP_FAMILIES = ("P", "nonP", "psd")
HOFFMAN_ROWS = (8, 10)
HOFFMAN_DIM = 3
HOFFMAN_CLOUD = 4
FIT_ORDER = 6
FIT_SAMPLES = 200


def _p_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    # positive-definite symmetric part plus a skew part: x'Mx > 0 for
    # x != 0, so every principal minor is positive
    g = rng.normal(size=(m, m))
    k = rng.normal(size=(m, m))
    return g @ g.T / m + 0.5 * np.eye(m) + 0.5 * (k - k.T)


def _small_lcp(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    # the unique solution of a small P-matrix LCP, by trying every basis
    m = q.size
    for mask in range(2 ** m):
        idx = [i for i in range(m) if mask >> i & 1]
        y = np.zeros(m)
        if idx:
            y[idx] = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
        if np.all(y >= -1e-12) and np.all(M @ y + q >= -1e-12):
            return y
    raise ValueError("no LCP solution")


def _multiplier_cap(M: np.ndarray, Q: np.ndarray, q0: np.ndarray, box: np.ndarray) -> float:
    """A cap above y(x) and w(x) on a grid over the box, so the search box
    holds the whole solution graph rather than cutting it off silently."""
    axes = [np.linspace(lo, hi, 3) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, box.shape[0])
    top = 0.0
    for x in grid:
        q = Q @ x + q0
        y = _small_lcp(M, q)
        top = max(top, float(np.max(y)), float(np.max(M @ y + q)))
    return max(1.0, round(1.25 * top + 0.25, 2))


def _mpec_doc(M, Q, q0, xx, xy, yy, x_lin, y_lin, const, box) -> dict:
    n, m = Q.shape[1], M.shape[0]
    cap = _multiplier_cap(M, Q, q0, box)
    return {
        "n": n, "m": m, "M": M.tolist(), "Q": Q.tolist(), "q0": q0.tolist(),
        "objective": {"xx": xx.tolist(), "xy": xy.tolist(), "yy": yy.tolist(),
                      "x_lin": x_lin.tolist(), "y_lin": y_lin.tolist(),
                      "const": float(const)},
        "x_box": box.tolist(), "multiplier_bound": float(cap),
    }


def planted_mpec(rng: np.random.Generator, n: int, m: int, degenerate: bool) -> dict:
    """P-matrix MPEC whose optimum 0 sits at a planted feasible (x*, y*)."""
    M = _p_matrix(rng, m)
    Q = rng.normal(size=(m, n))
    box = np.tile([-1.0, 1.0], (n, 1))
    x_star = rng.uniform(-0.5, 0.5, size=n)
    perm = rng.permutation(m)
    # support of y*, then of w*; with ``degenerate`` the last index of
    # the permutation has y*_i = w*_i = 0
    n_deg = 1 if degenerate else 0
    n_act = int(rng.integers(1, m - n_deg + 1)) if m - n_deg > 1 else m - n_deg
    act, inact = perm[:n_act], perm[n_act:m - n_deg]
    y_star = np.zeros(m)
    w_star = np.zeros(m)
    y_star[act] = rng.uniform(0.2, 0.8, size=act.size)
    w_star[inact] = rng.uniform(0.2, 0.8, size=inact.size)
    q0 = w_star - M @ y_star - Q @ x_star
    hx = rng.normal(size=(n, n))
    H = hx @ hx.T / n + np.eye(n)
    return {
        "doc": _mpec_doc(M, Q, q0, H, np.zeros((n, m)), np.eye(m), -H @ x_star,
                         -y_star, 0.5 * x_star @ H @ x_star + 0.5 * y_star @ y_star,
                         box),
        "optimum": 0.0,
    }


def generic_mpec(rng: np.random.Generator, n: int, m: int) -> dict:
    """P-matrix MPEC shaped like the shipped fixtures (optimum unknown)."""
    M = _p_matrix(rng, m)
    Q = rng.normal(size=(m, n))
    q0 = rng.normal(size=m)
    hx = rng.normal(size=(n, n))
    H = hx @ hx.T / n + np.eye(n)
    box = np.tile([-1.0, 1.0], (n, 1))
    return {
        "doc": _mpec_doc(M, Q, q0, H, 0.1 * rng.normal(size=(n, m)), np.zeros((m, m)),
                         rng.normal(size=n), rng.uniform(0.5, 2.0, size=m), 0.0,
                         box),
        "optimum": None,
    }


def _start(rng: np.random.Generator, doc: dict) -> list[float]:
    """x uniform in its box, y = 0 and lambda the clipped slack at y = 0:
    the start ``mpecpen solve --start x`` builds from a given x.  Every
    MPEC entry starts this way."""
    box = np.asarray(doc["x_box"], dtype=float)
    x = box[:, 0] + rng.random(box.shape[0]) * (box[:, 1] - box[:, 0])
    slack = np.asarray(doc["Q"], dtype=float) @ x + np.asarray(doc["q0"], dtype=float)
    lam = np.clip(slack, 0.0, float(doc["multiplier_bound"]))
    return [*x.tolist(), *np.zeros(int(doc["m"])).tolist(), *lam.tolist()]


def _config(kind: str, norm: str, squared: bool, gamma: float, **extra) -> dict:
    return {"residual": {"kind": kind, "norm": norm, "squared_stationarity": squared},
            "gamma": gamma, **extra}


SPECIAL = (*FIXTURE_NAMES, "q5-toy")
SOLVE_FAMILIES = ("planted", "degenerate", "generic")
SOLVE_SIZES = tuple((n, m) for m in (2, 3, 4, 5) for n in (1, 2))


def solve_mix(seed: int, fixtures_dir: Path, blocks: int) -> list[list[dict]]:
    """``blocks`` blocks of solve entries.  A block is one special entry
    (the fixtures and the toy in turn) followed by one generated instance
    per residual setting; family and size rotate across slots."""
    rng = np.random.default_rng([seed, 1])
    fixture_docs = {name: json.loads((fixtures_dir / f"{name}.mpec").read_text())
                    for name in FIXTURE_NAMES}
    out = []
    g = 0
    for b in range(blocks):
        which = SPECIAL[b % len(SPECIAL)]
        if which == "q5-toy":
            block = [{"name": "q5-toy", "family": "toy", "doc": None,
                      "config": _config("kkt", "l2", True, 1.0, alpha0=2.0, alpha_fixed=True),
                      "start": [float(rng.uniform(-1.0, 4.0))], "optimum": None}]
        else:
            doc = fixture_docs[which]
            block = [{"name": which, "family": "fixture", "doc": doc,
                      "config": _config("kkt", "l2", True, 0.5),
                      "start": _start(rng, doc), "optimum": FIXTURE_OPTIMA.get(which)}]
        for kind, norm, squared, gamma, extra in RESIDUAL_SETTINGS:
            family = SOLVE_FAMILIES[g % len(SOLVE_FAMILIES)]
            n, m = SOLVE_SIZES[(g // len(SOLVE_FAMILIES)) % len(SOLVE_SIZES)]
            g += 1
            if family == "generic":
                inst = generic_mpec(rng, n, m)
            else:
                inst = planted_mpec(rng, n, m, degenerate=(family == "degenerate"))
            block.append({"name": f"{family}-n{n}m{m}-{kind}-{norm}"
                                  f"{'-sq' if squared else ''}-g{gamma:g}",
                          "family": family, "doc": inst["doc"],
                          "config": _config(kind, norm, squared, gamma, **extra),
                          "start": _start(rng, inst["doc"]),
                          "optimum": inst["optimum"]})
        out.append(block)
    return out


def _on_support(rng: np.random.Generator, m: int, support) -> np.ndarray:
    y = np.zeros(m)
    y[support] = rng.uniform(0.5, 1.5, size=len(support))
    return y


def lcp_instance(rng: np.random.Generator, m: int, family: str) -> dict:
    """One LCP of order m with planted nondegenerate basic solutions."""
    perm = rng.permutation(m)
    if family == "P":
        M = _p_matrix(rng, m)
        ys = [_on_support(rng, m, perm[: m // 2])]
    elif family == "nonP":
        # y1 and y2 on disjoint supports, d = y1 - y2, and M d = -d: M
        # reverses the sign of d, so it is not a P-matrix, and with q
        # below the slack of y1 on supp(y2) is (M d) = -d > 0 there (and
        # symmetrically), so both are solutions
        y1 = _on_support(rng, m, perm[: m // 4])
        y2 = _on_support(rng, m, perm[m // 4: m // 2])
        d = y1 - y2
        P0 = _p_matrix(rng, m)
        M = P0 - np.outer(P0 @ d + d, d) / (d @ d)
        ys = [y1, y2]
    elif family == "psd":
        r = m // 2
        B = rng.normal(size=(m, r))
        M = B @ B.T / r
        ys = [_on_support(rng, m, perm[: r // 2])]
    else:
        raise ValueError(f"unknown LCP family {family!r}")
    # zero slack on each planted support, slack of at least 0.5 elsewhere
    q = np.zeros(m)
    for y in ys:
        q[y > 0] = -(M @ y)[y > 0]
    free = np.flatnonzero(sum(ys) == 0)
    floor = max(0.0, *(float(np.max(-(M @ y)[free])) for y in ys)) if free.size else 0.0
    q[free] = floor + rng.uniform(0.5, 1.5, size=free.size)
    return {"family": family, "m": m, "M": M.tolist(), "q": q.tolist(),
            "planted": [y.tolist() for y in ys], "is_P": family == "P"}


def hoffman_instance(rng: np.random.Generator, p: int) -> dict:
    """p half-spaces around the origin in dimension 3, with a cloud of
    points at distance 1.5 to 3 from it (most outside the polyhedron)."""
    A = rng.normal(size=(p, HOFFMAN_DIM))
    a = rng.uniform(0.2, 1.0, size=p)
    dirs = rng.normal(size=(HOFFMAN_CLOUD, HOFFMAN_DIM))
    cloud = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
        * rng.uniform(1.5, 3.0, size=(HOFFMAN_CLOUD, 1))
    return {"A": A.tolist(), "a": a.tolist(), "cloud": cloud.tolist()}


def fit_instance(rng: np.random.Generator) -> dict:
    """A P-matrix LCP of order 6 with a planted solution, and a cloud of
    points around it for the distance/residual fit."""
    lcp = lcp_instance(rng, FIT_ORDER, "P")
    centre = np.asarray(lcp["planted"][0])
    cloud = centre + rng.uniform(-1.0, 1.0, size=(FIT_SAMPLES, FIT_ORDER))
    return {**lcp, "cloud": cloud.tolist()}


def ground_truth(seed: int, cycles: int) -> list[list[dict]]:
    """``cycles`` cycles of 13 queries: every (order, family) LCP, one
    Hoffman cloud per row count and two fits.  Runs hold whole cycles, so
    with 13 queries a cycle the median falls inside one query's cluster
    of latencies (the p = 10 projection), and a tail percentile from
    p77 to p92 inside the m = 14 non-P and PSD queries, whose latencies
    are alike, rather than between unlike queries."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(cycles):
        cycle = [{"kind": "lcp", "name": f"lcp-{family}-m{m}",
                  **lcp_instance(rng, m, family)}
                 for m in LCP_ORDERS for family in LCP_FAMILIES]
        cycle += [{"kind": "hoffman", "name": f"hoffman-p{p}", "p": p,
                   **hoffman_instance(rng, p)} for p in HOFFMAN_ROWS]
        cycle += [{"kind": "fit", "name": "fit-m6", **fit_instance(rng)} for _ in range(2)]
        out.append(cycle)
    return out
