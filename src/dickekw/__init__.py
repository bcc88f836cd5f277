"""Dicke-state engineering, counting tomography, and monogamy analysis."""

from . import correlations, io, qmat, states, tomography
from .correlations import (
    KWReport,
    SymmetricModel,
    classical_correlations,
    concurrence,
    correlator_table,
    entanglement_of_formation,
    extract_pc,
    kw_all_permutations,
    kw_exact,
    kw_exact_many,
    kw_from_correlators,
    kw_symmetric,
)
from .qmat import (
    dm,
    eig_hermitian,
    fidelity_pure,
    partial_trace,
    project,
    tensor,
    von_neumann_entropy,
)
from .states import (
    DICKE_CIRCUIT,
    circuit_to_dicke,
    dicke,
    ket_xi,
    noisy_dicke,
    psi_plus,
    reduce_state,
    w_state,
)
from .tomography import (
    bootstrap_fidelity,
    correlators_from_counts,
    linear_inversion,
    mle_reconstruct,
    settings_full,
    simulate_counts,
)

__version__ = "0.1.0"
