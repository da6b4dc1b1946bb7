"""Computable structure of regular subspaces of the line's Dirichlet energy.

The package answers concrete questions about an open set G and its closed
complement F: scale functions that flatten F, darning maps that collapse the
closure of each G-component to a point, explicit trace energies on F with
sinh hitting kernels and Feller gap weights, orthogonal decompositions of
finite-energy functions, and a speed-measure random-walk simulator whose
occupation statistics can be checked against closed forms.
"""

__version__ = "0.1.0"

from .errors import PreconditionError, StepCapError, TraceformError, ValidationError
from .intervals import (
    IntervalSet,
    Tail,
    ValidationReport,
    build_interval_set,
    periodic_fat_cantor,
    svc_complement,
)
from .transforms import (
    Case,
    DarningMap,
    ScaleFunction,
    SpeedMeasure,
    classify_case,
    pushforward_speed,
    scale_pushforward_speed,
)
from .gridfn import (
    GridFunction,
    adapted_grid,
    darn_function,
    from_callable,
    is_in_subspace,
    undarn_function,
    vanishes_on_f,
)
from .energy import (
    EnergyReport,
    dirichlet_energy,
    energy_measure,
    part_energy,
    subspace_energy,
    unit_contraction,
)
from .decompose import Decomposition, decompose_harmonic, is_in_complement, project_subspace
from .trace import (
    TraceFunction,
    alpha_hitting,
    feller_numeric,
    feller_weight,
    harmonic_extension,
    jump_table,
    restrict_to_f,
    trace_complement_energy,
    trace_energy,
    trace_measure,
    trace_subspace_energy,
)
from .darning import (
    DarnedSpaceReport,
    darn_trace,
    darned_energy,
    darned_l2,
    equivalence_report,
    line_l2,
)
from .simulate import (
    EstimatorResult,
    PathSample,
    bm_paths,
    build_chain,
    estimate_hitting,
    estimate_laplace,
    exit_sample,
    occupation_fractions,
    simulate_xs,
    walk_occupation,
    walk_paths,
)

__all__ = [
    "__version__",
    "TraceformError",
    "ValidationError",
    "PreconditionError",
    "StepCapError",
    "IntervalSet",
    "Tail",
    "ValidationReport",
    "build_interval_set",
    "periodic_fat_cantor",
    "svc_complement",
    "Case",
    "DarningMap",
    "ScaleFunction",
    "SpeedMeasure",
    "classify_case",
    "pushforward_speed",
    "scale_pushforward_speed",
    "GridFunction",
    "adapted_grid",
    "darn_function",
    "from_callable",
    "is_in_subspace",
    "undarn_function",
    "vanishes_on_f",
    "EnergyReport",
    "dirichlet_energy",
    "energy_measure",
    "part_energy",
    "subspace_energy",
    "unit_contraction",
    "Decomposition",
    "decompose_harmonic",
    "is_in_complement",
    "project_subspace",
    "TraceFunction",
    "alpha_hitting",
    "feller_numeric",
    "feller_weight",
    "harmonic_extension",
    "jump_table",
    "restrict_to_f",
    "trace_complement_energy",
    "trace_energy",
    "trace_measure",
    "trace_subspace_energy",
    "DarnedSpaceReport",
    "darn_trace",
    "darned_energy",
    "darned_l2",
    "equivalence_report",
    "line_l2",
    "EstimatorResult",
    "PathSample",
    "bm_paths",
    "build_chain",
    "estimate_hitting",
    "estimate_laplace",
    "exit_sample",
    "occupation_fractions",
    "simulate_xs",
    "walk_occupation",
    "walk_paths",
]
