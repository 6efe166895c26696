"""Finite-frame toolkit: K-frames, controlled K-frames, dual systems, and
preconditioned frame-operator inversion on C^d.

The package is organized in layers:

* :mod:`framekit.operators` — dense complex linear algebra with explicit
  tolerances (square roots, pseudo-inverses, Loewner comparisons).
* :mod:`framekit.frames` — finite sequences, synthesis/analysis, frame bounds.
* :mod:`framekit.kframes` — K-frame verdicts with optimal bounds, atomic
  systems, dual construction on range(K).
* :mod:`framekit.controlled` — controller algebra and controlled K-frame
  checks; bound transfers in both directions.
* :mod:`framekit.solvers` / :mod:`framekit.bench` — Richardson and CG solvers
  and the plain-vs-controlled benchmark grid.
* :mod:`framekit.instances` — seeded generators for tests, demos, benchmarks.
* :mod:`framekit.serialize` / :mod:`framekit.cli` — JSON schemas and the
  ``framekit`` command.
"""

from .bench import (
    CONTROLLER_STRATEGIES,
    CSV_COLUMNS,
    BenchRow,
    controller_for,
    rows_to_csv,
    run_benchmark,
)
from .controlled import (
    ControlledReport,
    Controller,
    bounds_to_controlled,
    bounds_to_kframe,
    commutes,
    controlled_form,
    controlled_kframe_check,
    controlled_operator,
    controlled_operator_inequality,
    identity_controller,
    interchange_identity_check,
    make_controller,
    sandwich_inequality_check,
)
from .errors import (
    CommutationError,
    DimensionMismatchError,
    IndefiniteOperatorError,
    InvalidParametersError,
    NonHermitianComparisonError,
    NonRealFormError,
    NotHermitianError,
    NotOrthonormalError,
    NotPositiveDefiniteError,
    ParseError,
    PreconditionFailedError,
    RangeDeficiencyError,
    ToolkitError,
)
from .frames import (
    FrameBounds,
    FrameSequence,
    analysis,
    frame_bounds,
    frame_operator,
    synthesis,
)
from .instances import (
    INSTANCE_KINDS,
    c3_example,
    commuting_triple,
    deficient_pair,
    frame_with_spectrum,
    generate_instance,
    haar_unitary,
    parseval_frame,
    random_frame,
    random_positive_operator,
)
from .kframes import (
    AtomicReport,
    KFrameReport,
    atomic_system_constant,
    bessel_dual_check,
    construct_kframe,
    interchange_dual,
    kframe_check,
    kframe_operator_inequality,
    rayleigh_quotients,
    restricted_operator_inequalities,
)
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    as_operator,
    as_vector,
    hermitian_part,
    inverse_bounds,
    is_hermitian,
    numerical_rank,
    operator_leq,
    operator_norm,
    operator_sqrt,
    positive_definite_bounds,
    pseudo_inverse,
    range_basis,
    spectral_function,
)
from .serialize import (
    dump_json,
    frame_from_obj,
    frame_to_obj,
    load_frame,
    load_json,
    load_operator,
    load_vector,
    operator_from_obj,
    operator_to_obj,
    save_frame,
    save_operator,
    save_vector,
    vector_from_obj,
    vector_to_obj,
)
from .solvers import (
    ConvergenceTrace,
    SolverConfig,
    cg_solve,
    controlled_richardson_solve,
    richardson_solve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ToolkitError", "InvalidParametersError", "DimensionMismatchError", "ParseError",
    "NotHermitianError", "NonHermitianComparisonError", "NotPositiveDefiniteError",
    "IndefiniteOperatorError", "NotOrthonormalError", "RangeDeficiencyError",
    "PreconditionFailedError", "CommutationError", "NonRealFormError",
    # operators
    "Tolerances", "DEFAULT_TOL", "OperatorBounds", "as_vector", "as_operator",
    "operator_norm", "hermitian_part", "is_hermitian", "positive_definite_bounds",
    "operator_sqrt", "spectral_function", "pseudo_inverse", "numerical_rank",
    "range_basis", "operator_leq", "inverse_bounds",
    # frames
    "FrameSequence", "FrameBounds", "synthesis", "analysis", "frame_operator",
    "frame_bounds",
    # kframes
    "KFrameReport", "AtomicReport", "kframe_check", "kframe_operator_inequality",
    "rayleigh_quotients", "atomic_system_constant", "bessel_dual_check",
    "interchange_dual", "construct_kframe", "restricted_operator_inequalities",
    # controlled
    "Controller", "ControlledReport", "make_controller", "identity_controller",
    "commutes", "controlled_operator", "controlled_form", "controlled_kframe_check",
    "controlled_operator_inequality", "sandwich_inequality_check",
    "bounds_to_kframe", "bounds_to_controlled", "interchange_identity_check",
    # solvers
    "SolverConfig", "ConvergenceTrace", "richardson_solve",
    "controlled_richardson_solve", "cg_solve",
    # instances
    "INSTANCE_KINDS", "haar_unitary", "frame_with_spectrum", "random_frame",
    "parseval_frame", "random_positive_operator", "commuting_triple",
    "deficient_pair", "c3_example", "generate_instance",
    # bench
    "CONTROLLER_STRATEGIES", "CSV_COLUMNS", "BenchRow", "controller_for",
    "run_benchmark", "rows_to_csv",
    # serialize
    "vector_to_obj", "operator_to_obj", "frame_to_obj", "vector_from_obj",
    "operator_from_obj", "frame_from_obj", "load_json", "dump_json",
    "load_vector", "load_operator", "load_frame", "save_vector", "save_operator",
    "save_frame",
]
