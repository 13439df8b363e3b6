"""Exact fractional-power penalties for LCP-constrained MPECs."""

from .errors import (
    AtKink,
    DimensionMismatch,
    EmptyPolyhedron,
    EmptySolutionSet,
    MpecError,
    NonUniqueSolution,
    ParseError,
    SchemaError,
    TooFewSamples,
    TooLarge,
    UnboundedBox,
    UnknownCase,
)
from .model import (
    AffineParamMap,
    KktPoint,
    LcpInstance,
    MpecProblem,
    QuadObjective,
    build_lcp_mpec,
    eval_F,
    parse_problem_file,
    problem_from_dict,
)
from .residuals import (
    KINK_TOLERANCE,
    ResidualSpec,
    grad_penalized_sqrt,
    kkt_residual,
    kkt_residual_squared,
    min_dirderiv,
    min_residual,
    penalized_dirderiv,
    penalized_objective,
    product_residual,
    residual_value,
)
from .lcp_oracle import (
    SolutionSet,
    distance_to_solution_set,
    estimate_lipschitz_modulus,
    is_P_matrix,
    parametric_solution_path,
    solve_lcp_enumerate,
)

__version__ = "0.1.0"
