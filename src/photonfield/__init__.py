"""Free electromagnetic fields as collective observables of photon ensembles.

The package builds a truncated bosonic Fock space over a periodic-box
momentum lattice and verifies, as finite matrix statements, the identities
that make the mode-expanded E, B and A operators behave as the free
Maxwell field: quadratic reductions to energy/momentum/spin, the source-
free Maxwell equations, field commutators, and ensemble expectation values.
"""

from .polarization import (
    Direction,
    PolarizationTriad,
    check_relations,
    completeness_matrix,
    make_triad,
)
from .classical import (
    ClassicalPhoton,
    PhotonTensor,
    boost,
    boost_matrix,
    build_tensor,
    kinematics,
    null_residuals,
    rotating_vectors,
)
from .spin import HelicityPair, SpinMatrices, helicity_states, spin_matrices
from .fock import (
    BasisMismatchError,
    FockBasis,
    LatticeConfig,
    LatticeSizeError,
    ModeTable,
    SparseOperator,
    annihilation,
    build_basis,
    commutator,
    commutator_residuals,
    creation,
    export_operator,
    identity,
    number_operator,
    safe_projector,
    safe_states,
    total_number,
)
from .fields import (
    CompletenessError,
    FieldKind,
    SpacetimePoint,
    ZeroPointConstants,
    check_derivative_relations,
    check_maxwell,
    field,
    field_commutator_closed_form,
    field_commutator_kernel,
    field_derivative,
    field_mode_coefficients,
    field_number_commutator,
    linear_forms,
    observable_H,
    observable_P,
    observable_S,
    observable_diagonals,
    quadratic_H_from_fields,
    quadratic_P_from_fields,
    quadratic_S_from_fields,
    zero_point,
)
from .ensembles import (
    FockState,
    ModeProfile,
    amplitude_profile,
    coherent_profile,
    expectation,
    expectation_grid,
    field_expectation_closed_form,
    number_state,
    superposition,
    vacuum,
    vacuum_field_square,
    vacuum_field_square_scan,
    write_grid_csv,
)

__version__ = "0.1.0"
