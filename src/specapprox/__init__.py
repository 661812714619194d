"""Measure and dimension estimates for compact sets approximated in
Hausdorff distance, with band-structure pipelines for periodic operators."""

from .convergence import (
    ApproximationRecord,
    AtomicMeasure,
    ConvergenceReport,
    Lebesgue,
    Measure1D,
    PiecewiseDensity,
    ReportRow,
    corollary,
    fattened_measure_sequence,
    measure,
    semicontinuity_check,
)
from .dimension import (
    CoverStats,
    ExponentFit,
    InsufficientDataError,
    NotApplicableError,
    dim_bound_direct,
    dim_bound_last,
    hausdorff_content_upper,
)
from .floquet import (
    BandSpectrum,
    NotHermitianError,
    PeriodicPotential,
    band_spectrum,
    bandwidth_bound,
    build_fiber,
    cover_from_bands,
    cover_from_eigenvalues,
    eigenvalues,
    estimate_measure_via_fibers,
    fiber_eigenvalues,
    proxy_deltas,
)
from .intervals import (
    CompactSet,
    EmptySetError,
    IntervalSet,
    InvalidRadiusError,
    PointSet,
    components,
    contains_set,
    directed_distance,
    fatten,
    hausdorff_distance,
    interval_union,
    lebesgue,
    normalize,
    point_set,
    set_from_obj,
    set_to_obj,
    sets_equal,
)
from .models import (
    almost_mathieu,
    cantor_approximation,
    convergents,
    fibonacci_potential,
    free_potential,
    grid_approximation,
)

__version__ = "0.1.0"
