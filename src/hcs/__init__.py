"""Coherent states for the bound-state hydrogen atom.

Construction of the five-parameter coherent-state family (radial amplitude
s, covering-space phase gamma, shell Euler angles) over arbitrary moment
weights, with numerical verification of normalization, resolution of
unity, and temporal stability.
"""

from .angular import (
    AngularResolutionReport,
    EulerAngles,
    angular_cs,
    angular_resolution_check,
)
from .errors import ConfigurationError, NumericalError, TruncationError
from .fock1d import (
    ResolutionReport,
    Spectrum,
    degen_cs,
    generalized_cs,
    oscillator_cs,
    resolution_check_1d,
)
from .hydrogen import (
    HydrogenExpansion,
    HydrogenLabel,
    HydrogenResolutionReport,
    evolve_hydrogen,
    hydrogen_cs,
    hydrogen_resolution_check,
    hydrogen_stability_residual,
    state_norm,
)
from .position import (
    GridSpec,
    eval_hydrogen_cs_position,
    export_density_grid,
    quadrature_norm_squared,
    radial_expectation,
    radial_uncertainty_product,
)
from .specfun import (
    log_factorial,
    make_quadrature,
    radial_eigenfunction,
)
from .weights import (
    WeightFamily,
    builtin_family,
    family_from_file,
    tabulated_family,
    validate_family,
)

__version__ = "0.1.0"
