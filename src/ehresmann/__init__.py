"""Covariant derivatives for Ehresmann connections, verified numerically.

The package builds covariant derivative operators on the total space of a
fibred manifold out of connection data (vertical/horizontal frames plus
endomorphism pairs between distributions of equal rank), and checks the
construction against worked example families: a trivial bundle over the
plane, the Hopf fibration, affine and nonlinear tangent-bundle connections,
second-order equation fields, and frame bundles.
"""

from .expr import (  # noqa: F401
    EvalDomainError, EvalError, Expr, ParseError, UnboundVariableError,
    evaluate, free_vars, parse, to_string,
)
from .jets import (  # noqa: F401
    Jet, JetConfig, JetDepthError, JetDomainError, JetError, JetShapeError,
    constant, extract, ipow, pow_general, seed, truncate, value_of,
)
from .geometry import (  # noqa: F401
    ChartedSpace, CheckConfig, CovectorField, DEFAULT_CHECK,
    DepthBudgetError, Endo11, FieldStack, Frame, FrameSolver, GeometryError,
    OffManifoldError, Point, ScalarField, SingularFrameError,
    SpaceMismatchError, VectorField, directional, dual_coframe, endo_add,
    endo_compose, endo_scale, eval_vector_field,
    frame_coefficients, lie_bracket, lie_derivative_endo, pairing,
    projector_from_split, validate_frame, validate_tangent, vf_add,
    vf_scale, vf_sub,
)
from .connection import (  # noqa: F401
    ConnectionDataError, EhresmannConnection, K_HORIZONTAL, K_VERTICAL,
    SplitStructure, build_connection, canonical_endos, validate_split,
)
from .covderiv import (  # noqa: F401
    CovDeriv, CovDerivError, MembershipError, SubmoduleDeriv,
    check_parallelism_equivalence, ehresmann_curvature, extend_derivative,
    glue_derivatives, nabla_of_endo, torsion, total_derivative,
)
from .scenarios import (  # noqa: F401
    BUILTIN_BUILDERS, ExpectedRow, Scenario, SubspaceBasis, affine_tangent,
    ambient_dot_metric, build_scenario, cycle_decomposition, dilation_field,
    frame_bundle, homogeneity_check, hopf, is_spray,
    metric_compatibility_defect, nonlinear_tangent, potential_connection,
    run_scenario_checks, sode_field, sode_projector, sode_sufficiency_check,
    symmetrize, trivial_r3, validate_positive_definite,
)
from .report import CheckRecord  # noqa: F401

__version__ = "0.1.0"
