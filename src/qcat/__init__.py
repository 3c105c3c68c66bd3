"""qcat: quantized hyperbolic torus automorphisms.

Exact complex-Gaussian propagation under the quantization of SL(2,Z) cat
maps, the finite-dimensional torus Hilbert space with certified lattice
truncations, damped Lagrangian approximants of the propagated packet, and
the reduction of post-Ehrenfest matrix elements to damped Birkhoff sums of a
parabolic skew product.
"""

__version__ = "0.1.0"

from .classical import (
    FlowCoefficients,
    QuadraticHamiltonian,
    Sl2IntMatrix,
    SpectralData,
    TorusPoint,
    cat_apply,
    ehrenfest_time,
    flow_coefficients,
    hamiltonian_from_matrix,
    spectral_data,
)
from .metaplectic import (
    GaussianState,
    gaussian_eval,
    propagate_n,
    wavepacket,
)
from .torus import (
    HusimiGrid,
    LatticeTruncation,
    TorusState,
    build_propagator_matrix,
    husimi,
    matrix_element_exact,
    pair_symmetrized,
    torus_coefficients,
    wavepacket_lattice,
)
from .lagrangian import (
    BandIndexer,
    damping_coefficient,
    DampedLagrangianState,
    band_difference,
    make_damped_lagrangian,
    off_band_tail,
)
from .birkhoff import (
    InterferenceObservable,
    SkewMap,
    damped_birkhoff_sum,
    theorem_rhs,
)
