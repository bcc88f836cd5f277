"""Dicke-state engineering, counting tomography, and monogamy analysis.

Submodules and the names below load on first use, so a command that needs
only some layers does not compile or run the others.
"""

import importlib

_EXPORTS = {
    "correlations": (
        "KWReport", "SymmetricModel", "classical_correlations", "concurrence",
        "correlator_table", "entanglement_of_formation", "extract_pc",
        "kw_all_permutations", "kw_exact", "kw_exact_many", "kw_from_correlators",
        "kw_symmetric",
    ),
    "qmat": ("dm", "fidelity_pure", "partial_trace", "project", "tensor",
             "von_neumann_entropy"),
    "states": ("DICKE_CIRCUIT", "circuit_to_dicke", "dicke", "ket_xi", "noisy_dicke",
               "psi_plus", "reduce_state"),
    "tomography": ("bootstrap_fidelity", "correlators_from_counts", "linear_inversion",
                   "mle_reconstruct", "settings_full", "simulate_counts"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("correlations", "io", "qmat", "states", "tomography")

__all__ = sorted([*_SUBMODULES, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
