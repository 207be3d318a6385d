"""Exact solver and geometric-entanglement toolkit for generalized
cluster-XY spin chains."""

from .model import (
    BlockKind,
    BlockSpec,
    ModelSpec,
    PauliString,
    load_model,
    make_model,
    model_from_dict,
    model_to_dict,
    preset_free,
    preset_ghz_cluster,
    preset_halfway_xy,
    preset_spt_afm,
    preset_xnmy,
    preset_xny,
    save_model,
    to_pauli_strings,
)
from .freefermion import (
    GroundReport,
    Sector,
    bogoliubov_angle,
    even_vacuum_angles,
    ground_and_gap,
    sector_levels,
    sector_states,
)
from .entanglement import (
    BlockAnsatz,
    EntanglementResult,
    EvenVacuumAnalysis,
    EvenVacuumError,
    QuadratureError,
    SiteAnsatz,
    maximize_block,
    maximize_site,
    maximize_site_af,
    overlap_block,
    overlap_site,
    scan_derivative,
    thermo_block_density,
)
from .oracle import (
    DenseOperator,
    brute_max_overlap,
    dense_hamiltonian,
    direct_overlap,
    exact_ground_state,
    exact_spectrum,
    model_hamiltonian,
    reconstruct_even_vacuum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
