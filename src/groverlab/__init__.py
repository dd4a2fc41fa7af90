"""Exact numerical laboratory for the one-parameter family of Grover-type
search kernels: construction, spectral analysis, evolution simulation, and
a CSV-emitting command-line runner."""

from .algebra import (
    TOL_EXACT,
    TOL_PIPELINE,
    dft_matrix,
    outer,
)
from .errors import (
    DegenerateSubspaceError,
    DivergentPeriodError,
    GroverLabError,
    IndexRangeError,
    InvalidSizeError,
    NormalizationError,
    PeakedInitialStateWarning,
    ResourceLimitError,
    ShapeError,
    SingularLimitError,
)
from .evolution import (
    EvolutionTrace,
    InitialState,
    amplitude_closed_form,
    amplitude_iterative,
    full_space_trace,
    perturbed_peak_estimate,
    probability_trace,
    uniform_initial,
)
from .kernel import (
    FullSpaceConfig,
    GroverPhases,
    ReducedKernel,
    dft_conjugate,
    extended_reduced_kernel,
    extended_reduced_kernels,
    full_kernel,
    grover_operator,
    momentum_projector,
    reduced_kernel,
    reduced_kernels,
    unit_phases,
)
from .spectral import (
    AxisAngle,
    SpectralData,
    asymptotic_eigvec,
    asymptotic_steps,
    delta_omega_asymptotic,
    eigensystem,
    eigensystems,
    kernel_manifold_points,
    optimal_steps_asymptotic,
    optimal_steps_exact,
    stability_expansion,
    su2_decompose,
    su2_decompositions,
)

__version__ = "0.1.0"
