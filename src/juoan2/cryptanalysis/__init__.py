"""Cryptanalysis workbench: density metrics, exact LLL, attack lattices, oracles."""

from .density import (
    DensityReport,
    ambiguity_estimate,
    assp_density,
    assp_density_from_bits,
    classify,
    ssp_density,
    ssp_density_from_bits,
)
from .experiments import (
    CSV_COLUMNS,
    ExperimentRow,
    planted_ssp_instance,
    run_assp_attack_trial,
    run_planted_ssp_trial,
    write_experiment_csv,
)
from .lattice import (
    SubsetSumAttack,
    block_from_kappa,
    build_plain_ssp_lattice,
    build_ssp_lattice,
    expand_assp_to_ssp,
    kappa_from_assignment,
    lattice_attack,
)
from .lll import (
    DEFAULT_DELTA,
    IntegerLattice,
    ReducedBasis,
    basis_from_generators,
    gram_schmidt,
    is_size_reduced,
    lll_reduce,
    lovasz_holds,
)
from .oracles import (
    brute_force_assp,
    check_property2,
    ciphertext_multiplicity,
)

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_DELTA",
    "DensityReport",
    "ExperimentRow",
    "IntegerLattice",
    "ReducedBasis",
    "SubsetSumAttack",
    "ambiguity_estimate",
    "assp_density",
    "assp_density_from_bits",
    "basis_from_generators",
    "block_from_kappa",
    "brute_force_assp",
    "build_plain_ssp_lattice",
    "build_ssp_lattice",
    "check_property2",
    "ciphertext_multiplicity",
    "classify",
    "expand_assp_to_ssp",
    "gram_schmidt",
    "is_size_reduced",
    "kappa_from_assignment",
    "lattice_attack",
    "lll_reduce",
    "lovasz_holds",
    "planted_ssp_instance",
    "run_assp_attack_trial",
    "run_planted_ssp_trial",
    "ssp_density",
    "ssp_density_from_bits",
    "write_experiment_csv",
]
