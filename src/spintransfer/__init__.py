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
]
