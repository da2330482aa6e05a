"""Spectral-lattice laboratory for Dirac sea vacua in 1+1 dimensions.

The package builds the free Dirac mode basis on a periodic grid, realizes
the bare / filled-sea / finite-band vacua, and provides three mutually
checking computational routes: exact Fock-space algebra at small mode
counts, Wick mode sums for commutator kernels and linear response, and
direct Slater-determinant time evolution under external potentials.
"""

from .lattice import (
    ALPHA,
    LatticeConfig,
    Mode,
    ModeBasis,
    build_basis,
    mode_energy,
    spectral_derivative,
)
from .vacua import (
    OccupationSet,
    VacuumSpec,
    classify_indices,
    coupled_band_spec,
    occupation_set,
)
from .operators import (
    OneBodyKernel,
    RenormalizationConstants,
    charge_kernel,
    continuity_pair_residual,
    current_kernel,
    free_hamiltonian_kernel,
    renorm_constants,
)
from .fock import (
    LadderSet,
    apply_bilinears,
    bilinear_matrix,
    build_ladders,
    build_vacuum_vector,
    commutator_expectation,
    expectation,
    slater_vector,
    spectrum_of_h0_sector,
)
from .schwinger import (
    SchwingerKernel,
    commutator_kernel,
    divergence_diag_closed_form,
    divergence_of_kernel,
    f2_identity_check,
    schwinger_band,
    schwinger_standard,
    weak_limit_pairing,
)
from .evolution import (
    GaugeFunction,
    GaugePairReport,
    Potential,
    PureGaugePotential,
    SlaterState,
    Snapshot,
    Trajectory,
    ZeroPotential,
    apply_hamiltonian,
    build_kick_chi,
    excite_wavepacket,
    gauge_pair_sweep,
    gaussian_packet_coefficients,
    observables,
    rate_identity_residual,
    rate_identity_series,
    run_branches,
    run_trajectory,
    single_particle_hamiltonian,
    vacuum_state,
)
from .response import (
    ResponseKernel,
    deep_state_coupling,
    first_order_current,
    gauge_variation_response,
    vacuum_response_kernel,
)

__version__ = "0.1.0"
