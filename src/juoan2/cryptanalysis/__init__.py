"""Cryptanalysis workbench: density metrics, exact LLL, attack lattices, oracles.

Each module loads the first time one of its names is read (PEP 562), so
`juoan2 keygen`, which needs one density function, does not load the reducer.
"""

from importlib import import_module

_EXPORTS = {
    "density": ("DensityReport", "ambiguity_estimate", "assp_density", "assp_density_from_bits",
                "classify", "ssp_density", "ssp_density_from_bits"),
    "experiments": ("CSV_COLUMNS", "ExperimentRow", "planted_ssp_instance",
                    "run_assp_attack_trial", "run_planted_ssp_trial", "write_experiment_csv"),
    "lattice": ("SubsetSumAttack", "block_from_kappa", "build_plain_ssp_lattice",
                "build_ssp_lattice", "expand_assp_to_ssp", "kappa_from_assignment", "lattice_attack"),
    "lll": ("DEFAULT_DELTA", "IntegerLattice", "ReducedBasis", "basis_from_generators",
            "gram_schmidt", "is_size_reduced", "lll_reduce", "lovasz_holds"),
    "oracles": ("brute_force_assp", "check_property2", "ciphertext_multiplicity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines `name`, and keep the value as a package global."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
