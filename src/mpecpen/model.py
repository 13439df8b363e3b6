"""Problem data for MPECs whose lower level is a parametric LCP.

The lower level is the complementarity system

    0 <= y  perp  w = M y + q(x) >= 0,      q(x) = Q x + q0,

read as the KKT system of a variational inequality over the nonnegative
orthant: the stationarity equation is F(x, y) - lambda = 0 with
F(x, y) = M y + q(x), so at feasible points the multiplier lambda equals
the slack w.  The one-level variable ordering used everywhere is
z = (x, y, lambda).  Search regions are boxes: x in x_box, while y and
lambda both live in [0, c]^m with c the multiplier bound (slack and
multiplier coincide at feasibility, so they share the cap).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, SchemaError, UnboundedBox


def _as_matrix(a, name: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatch(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatch(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


def _as_square(a, name: str) -> np.ndarray:
    arr = _as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def _as_vector(a, name: str, size: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if size is not None and arr.size != size:
        raise DimensionMismatch(f"{name} must have length {size}, got {arr.size}")
    return arr


@dataclass(frozen=True)
class LcpInstance:
    """One LCP: find y with y >= 0, M y + q >= 0 and y'(M y + q) = 0."""

    M: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        M = _as_square(self.M, "M")
        q = _as_vector(self.q, "q", size=M.shape[0])
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "q", q)

    @property
    def order(self) -> int:
        return self.M.shape[0]

    def slack(self, y) -> np.ndarray:
        y = _as_vector(y, "y", size=self.order)
        return self.M @ y + self.q


@dataclass(frozen=True)
class AffineParamMap:
    """The parametric right-hand side q(x) = Q x + q0."""

    Q: np.ndarray
    q0: np.ndarray

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        q0 = _as_vector(self.q0, "q0", size=Q.shape[0])
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q0", q0)

    @property
    def out_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def in_dim(self) -> int:
        return self.Q.shape[1]

    def __call__(self, x) -> np.ndarray:
        x = _as_vector(x, "x", size=self.in_dim)
        return self.Q @ x + self.q0


@dataclass(frozen=True)
class QuadObjective:
    """Quadratic-plus-linear objective in (x, y).

    f(x, y) = 0.5 x'(xx)x + x'(xy)y + 0.5 y'(yy)y + x_lin'x + y_lin'y + const
    """

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray
    x_lin: np.ndarray
    y_lin: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        xx = _as_square(self.xx, "objective.xx")
        n = xx.shape[0]
        xy = _as_matrix(self.xy, "objective.xy", rows=n)
        m = xy.shape[1]
        yy = _as_matrix(self.yy, "objective.yy", rows=m, cols=m)
        x_lin = _as_vector(self.x_lin, "objective.x_lin", size=n)
        y_lin = _as_vector(self.y_lin, "objective.y_lin", size=m)
        for name, val in (("xx", xx), ("xy", xy), ("yy", yy)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "x_lin", x_lin)
        object.__setattr__(self, "y_lin", y_lin)
        object.__setattr__(self, "const", float(self.const))
        # symmetric parts of the Hessian blocks, formed once for grad
        object.__setattr__(self, "_hxx", 0.5 * (xx + xx.T))
        object.__setattr__(self, "_hyy", 0.5 * (yy + yy.T))

    @classmethod
    def zeros(cls, n: int, m: int) -> "QuadObjective":
        return cls(np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, m)),
                   np.zeros(n), np.zeros(m), 0.0)

    def value(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(0.5 * x @ (self.xx @ x) + x @ (self.xy @ y)
                     + 0.5 * y @ (self.yy @ y)
                     + self.x_lin @ x + self.y_lin @ y + self.const)

    def grad(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = self._hxx @ x + self.xy @ y + self.x_lin
        gy = self.xy.T @ x + self._hyy @ y + self.y_lin
        return gx, gy


@dataclass(frozen=True)
class KktPoint:
    """A candidate triple (x, y, lambda) for the one-level reformulation."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "y", _as_vector(self.y, "y"))
        object.__setattr__(self, "lam", _as_vector(self.lam, "lambda"))

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.y.size

    def to_z(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.lam])

    def check_dims(self, problem: "MpecProblem") -> None:
        if self.x.size != problem.n or self.y.size != problem.m or self.lam.size != problem.m:
            raise DimensionMismatch(
                f"point dims ({self.x.size}, {self.y.size}, {self.lam.size}) "
                f"do not match problem dims ({problem.n}, {problem.m}, {problem.m})")


@dataclass(frozen=True)
class MpecProblem:
    """An MPEC over a compact box with a parametric-LCP lower level.
    The dimensions n (of x) and m (of y) are those of q(x) and M."""

    objective: QuadObjective
    x_box: np.ndarray
    M: np.ndarray
    qmap: AffineParamMap
    multiplier_bound: float

    def __post_init__(self):
        object.__setattr__(self, "M", _as_square(self.M, "M"))
        n, m = self.n, self.m
        if n < 1 or m < 1:
            raise DimensionMismatch("both dimensions must be at least 1")
        if self.qmap.out_dim != m:
            raise DimensionMismatch(
                f"q(x) has {self.qmap.out_dim} rows but M has order {m}")
        if self.objective.x_lin.size != n or self.objective.y_lin.size != m:
            raise DimensionMismatch("objective dimensions do not match (n, m)")
        box = np.asarray(self.x_box, dtype=float)
        if box.shape != (n, 2):
            raise DimensionMismatch(f"x_box must have shape ({n}, 2), got {box.shape}")
        if not np.all(np.isfinite(box)):
            raise UnboundedBox("x_box must be bounded in every coordinate")
        if np.any(box[:, 0] > box[:, 1]):
            raise UnboundedBox("x_box has an empty interval (lo > hi)")
        c = float(self.multiplier_bound)
        if not (c > 0.0) or not np.isfinite(c):
            raise ValueError("multiplier_bound must be a positive finite scalar")
        object.__setattr__(self, "x_box", box)
        object.__setattr__(self, "multiplier_bound", c)

    @property
    def n(self) -> int:
        return self.qmap.in_dim

    @property
    def m(self) -> int:
        return self.M.shape[0]

    # -- geometry -------------------------------------------------------

    @property
    def z_lower(self) -> np.ndarray:
        return np.concatenate([self.x_box[:, 0], np.zeros(2 * self.m)])

    @property
    def z_upper(self) -> np.ndarray:
        cap = np.full(2 * self.m, self.multiplier_bound)
        return np.concatenate([self.x_box[:, 1], cap])

    # -- evaluations ----------------------------------------------------

    def f_value(self, x, y) -> float:
        return self.objective.value(x, y)

    def F(self, x, y) -> np.ndarray:
        """The lower-level map F(x, y) = M y + q(x)."""
        x = _as_vector(x, "x", size=self.n)
        y = _as_vector(y, "y", size=self.m)
        return self.M @ y + (self.qmap.Q @ x + self.qmap.q0)

    def lcp_at(self, x) -> LcpInstance:
        return LcpInstance(self.M, self.qmap(x))

    def split(self, z) -> KktPoint:
        """z = (x, y, lambda) as a KktPoint."""
        n, m = self.n, self.m
        z = _as_vector(z, "z", size=n + 2 * m)
        return KktPoint(z[:n], z[n:n + m], z[n + m:])


def warm_point(problem: MpecProblem, x, y) -> KktPoint:
    """(x, y) with the multiplier warm-started at the slack clipped to
    [0, multiplier_bound]."""
    return KktPoint(x, y, np.clip(problem.F(x, y), 0.0, problem.multiplier_bound))


# -- file format ---------------------------------------------------------

_REQUIRED_KEYS = ("n", "m", "M", "Q", "q0", "objective", "x_box", "multiplier_bound")


def problem_from_dict(doc: dict) -> MpecProblem:
    """Build a problem from a decoded JSON document."""
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise SchemaError(f"missing required keys: {', '.join(missing)}")
    for key in ("n", "m"):
        if type(doc[key]) is not int:
            raise SchemaError(f"{key} must be an integer, got {doc[key]!r}")
    n, m = doc["n"], doc["m"]
    try:
        qmap = AffineParamMap(doc["Q"], doc["q0"])
        M = _as_matrix(doc["M"], "M")
        if (qmap.in_dim, M.shape[0]) != (n, m):
            raise SchemaError(f"declared (n, m) = ({n}, {m}), but Q has {qmap.in_dim} "
                              f"columns and M has {M.shape[0]} rows")
        obj_doc = doc["objective"]
        if not isinstance(obj_doc, dict):
            raise SchemaError("objective must be an object")
        objective = QuadObjective(
            xx=obj_doc.get("xx", np.zeros((n, n))),
            xy=obj_doc.get("xy", np.zeros((n, m))),
            yy=obj_doc.get("yy", np.zeros((m, m))),
            x_lin=obj_doc.get("x_lin", np.zeros(n)),
            y_lin=obj_doc.get("y_lin", np.zeros(m)),
            const=obj_doc.get("const", 0.0),
        )
        return MpecProblem(objective, doc["x_box"], M, qmap, doc["multiplier_bound"])
    except SchemaError:
        raise
    except (DimensionMismatch, UnboundedBox, ValueError, TypeError) as exc:
        raise SchemaError(f"invalid problem document: {exc}") from exc


def read_problem_doc(path) -> dict:
    """Read and decode a JSON problem file; the document must be an object."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise SchemaError(f"{path}: empty problem file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return doc


def parse_problem_file(path) -> MpecProblem:
    """Read and validate a JSON problem file."""
    return problem_from_dict(read_problem_doc(path))
