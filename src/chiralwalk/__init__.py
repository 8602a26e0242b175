"""chiralwalk: long-time dynamics of a chiral continuous-time quantum walk.

A single particle hops on a one-dimensional lattice with unit
nearest-neighbour and complex next-nearest-neighbour amplitudes.  The
package provides the closed-form dispersion, extremal-front and Lifshitz
analysis, exact FFT lattice evolution with all cumulative observables,
hydrodynamic bulk scaling on nu = n/t, and generalized-Airy edge scaling
with staircase extraction.
"""

from .dispersion import PhaseReduction, WalkParams, canonicalize, group_velocity, omega, omega_deriv
from .evolve import (
    FieldKind,
    GuardError,
    ObservableField,
    WaveFunction,
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    position_moment,
    probability_density,
    ring_layout,
    skewness,
)
from .fronts import (
    ConeTopology,
    ExtremalFront,
    FrontDiagram,
    FrontScanError,
    cone_topology,
    critical_coupling,
    degeneracy,
    edge_scale,
    find_extremal_fronts,
    scan_diagrams,
)
from .hydro import (
    BulkReport,
    ScalingCurve,
    compare_bulk,
    exclusion_windows,
    invert_velocity,
    nu_half,
    scaled_ccd,
    scaled_cpd,
    scaled_density,
    scaled_moment,
    scaling_curve,
)
from .airy import (
    EdgeProfile,
    StaircaseStep,
    airy_ode_residual,
    extract_staircase,
    generalized_airy,
    measure_edge,
    predict_edge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
