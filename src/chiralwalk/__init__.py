"""chiralwalk: long-time dynamics of a chiral continuous-time quantum walk.

A single particle hops on a one-dimensional lattice with unit
nearest-neighbour and complex next-nearest-neighbour amplitudes.  The
package provides the closed-form dispersion, extremal-front and Lifshitz
analysis, exact FFT lattice evolution with all cumulative observables,
hydrodynamic bulk scaling on nu = n/t, and generalized-Airy edge scaling
with staircase extraction.

Input contract: every public function checks its numeric arguments first,
before any memo, scan or allocation, and its docstring gives only their
domain (for example "t: finite, > 0").  A real scalar is an int, a float or
a numpy integer or float; bool, np.bool_, None, str, bytes, complex,
Decimal, arrays (0-d too) and ints too large for a float are refused, and
so are NaN, and +-inf where the domain does not name them.  An integer
argument is an int or a numpy integer, never a bool or a float, and a
window of sites is a tuple or list of two of them, ascending.  An array
argument holds real numbers; bool, string, complex and object dtypes (None,
and ints past numpy's 64 bits) are refused.  A refused argument raises
ValueError naming the parameter and showing the value it was given, and a
ring above evolve's size cap raises GuardError.
"""

from .dispersion import WalkParams, omega, omega_deriv
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
    FrontTable,
    cone_topology,
    critical_coupling,
    edge_scale,
    scan_fronts,
)
from .hydro import (
    BulkReport,
    ScalingCurve,
    compare_bulk,
    invert_velocity,
    nu_half,
    scaling_curve,
)
from .airy import (
    EdgeProfile,
    StaircaseStep,
    airy_table,
    extract_staircase,
    measure_edge,
    predict_edge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
