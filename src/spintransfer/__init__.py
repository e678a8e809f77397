"""One-qubit state transfer through XX spin chains with impurities.

The package simulates a chain of spins (magnitude 1/2 or higher per site)
with nearest-neighbour XX couplings and site-local fields, restricted to the
zero-plus-single-excitation sector where the transfer of one encoded qubit
lives.  On top of the exact dynamics it provides fidelity measures,
closed-form cross-checks for five small reference systems, a brute-force
full-Hilbert-space validator, and deterministic optimizers for transfer
times and tuned fields.
"""

from . import chain, closed_forms, excitation, fidelity, full_space, optimize, verification
from .chain import (
    ChainSpec,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    SpinMagnitude,
    engineered_chain,
    engineered_couplings,
    load_chain,
    preset,
    save_chain,
    validate,
)
from .closed_forms import PresetSystem, analytic_f, analytic_spectrum, critical_field
from .excitation import SingleExcitationHamiltonian
from .fidelity import (
    BlochState,
    FidelityReport,
    average_fidelity,
    bloch_average_quadrature,
    corrected_average_fidelity,
    fidelity_report,
    reduced_density,
)
from .full_space import FullSpaceModel, full_hamiltonian
from .optimize import (
    OptimizationResult,
    SearchConfig,
    critical_times,
    maximize_fidelity,
    tune_uniform_field,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "chain",
    "closed_forms",
    "excitation",
    "fidelity",
    "full_space",
    "optimize",
    "verification",
    "ChainSpec",
    "SiteSpec",
    "SpinMagnitude",
    "SPIN_HALF",
    "SPIN_ONE",
    "engineered_chain",
    "engineered_couplings",
    "load_chain",
    "preset",
    "save_chain",
    "validate",
    "PresetSystem",
    "analytic_f",
    "analytic_spectrum",
    "critical_field",
    "SingleExcitationHamiltonian",
    "BlochState",
    "FidelityReport",
    "average_fidelity",
    "bloch_average_quadrature",
    "corrected_average_fidelity",
    "fidelity_report",
    "reduced_density",
    "FullSpaceModel",
    "full_hamiltonian",
    "OptimizationResult",
    "SearchConfig",
    "critical_times",
    "maximize_fidelity",
    "tune_uniform_field",
]
