"""Brute-force reference dynamics in the full tensor-product Hilbert space.

The XX Hamiltonian is applied bond by bond with standard spin-s matrices
(local basis ordered m = s, s-1, .., -s, so index 0 is the site ground level)
to states reshaped as a site tensor; site 1 is the slowest-varying index of
the tensor product.  Nothing here uses the single-excitation reduction or its
sqrt(s_i s_{i+1}) hopping rule: every matrix element comes from the spin
matrices.

`FullSpaceModel` applies H to the N+1 product states with at most one site
lowered by one level (the vacuum and the single excitations).  Total Sz is
conserved, so these states span an invariant subspace; the model measures the
part of their images outside it, keeps the (N+1)x(N+1) block, and evolves
exactly inside it.  The receiver density is still traced out of the full
product vector.  A model allows state vectors of up to STATE_CAP = 2^20
entries (20 spin-1/2 sites); the dense `full_hamiltonian` is capped at
dimension DIMENSION_CAP = 4096.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .chain import ChainSpec, SpinMagnitude
from .fidelity import BlochState

__all__ = [
    "DIMENSION_CAP",
    "STATE_CAP",
    "DimensionCapError",
    "spin_operators",
    "full_hamiltonian",
    "total_sz_diagonal",
    "excitation_sector_indices",
    "FullSpaceModel",
    "evolve_and_trace",
    "full_fidelity",
    "cross_check",
]

DIMENSION_CAP = 4096
STATE_CAP = 2**20

# Weight may leave the invariant sector, or the receiver's two reachable
# levels, only through numerical error; more than this is a logic fault.
_LEAKAGE_TOL = 1e-12


class DimensionCapError(ValueError):
    """Total Hilbert-space dimension exceeds the brute-force cap."""


def spin_operators(spin: SpinMagnitude) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for one site of magnitude s, basis m = s, s-1, .., -s.

    Matrix elements follow <m+1|S+|m> = sqrt(s(s+1) - m(m+1)).
    """
    s = spin.s
    d = spin.dim
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    raising = np.zeros((d, d), dtype=complex)
    raising[np.arange(d - 1), np.arange(1, d)] = np.sqrt(
        s * (s + 1.0) - m[1:] * (m[1:] + 1.0)
    )
    sx = (raising + raising.conj().T) / 2.0
    sy = (raising - raising.conj().T) / 2.0j
    return sx, sy, sz


def _site_dims(spec: ChainSpec, cap: int) -> list[int]:
    dims = [site.spin.dim for site in spec.sites]
    total = math.prod(dims)
    if total > cap:
        raise DimensionCapError(f"total dimension {total} exceeds the cap {cap}")
    return dims


def _local_terms(spec: ChainSpec) -> list[tuple[int, np.ndarray]]:
    """(first site, local operator) for every term of H, in summation order.

    A bond term J_i (Sx_i Sx_{i+1} + Sy_i Sy_{i+1}) acts on sites i, i+1 (row
    index a' d_{i+1} + b' for levels a' of site i and b' of site i+1); a field
    term B_i Sz_i acts on site i.
    """
    ops = [spin_operators(site.spin) for site in spec.sites]
    terms = []
    for bond, j in enumerate(spec.couplings):
        sx_a, sy_a, _ = ops[bond]
        sx_b, sy_b, _ = ops[bond + 1]
        pair = np.multiply.outer(sx_a, sx_b) + np.multiply.outer(sy_a, sy_b)
        d = sx_a.shape[0] * sx_b.shape[0]
        terms.append((bond, j * pair.transpose(0, 2, 1, 3).reshape(d, d)))
    for site, spec_site in enumerate(spec.sites):
        if spec_site.field != 0.0:
            terms.append((site, spec_site.field * ops[site][2]))
    return terms


def _apply(terms: list[tuple[int, np.ndarray]], dims: list[int],
           states: np.ndarray) -> np.ndarray:
    """H applied to every column of `states` (shape (prod(dims), k)).

    A term on the sites starting at `site` acts on the middle axis of the
    (left, local, right * k) view of the site tensor, one nonzero matrix
    element at a time: a spin matrix has at most two per row.
    """
    out = np.zeros_like(states)
    for site, op in terms:
        shape = (math.prod(dims[:site]), op.shape[0], -1)
        src, dst = states.reshape(shape), out.reshape(shape)
        for row, col in zip(*np.nonzero(op)):
            dst[:, row] += op[row, col] * src[:, col]
    return out


def _basis_images(spec: ChainSpec, dims: list[int],
                  indices: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, H applied to the product states indices[offset:offset + k]).

    Columns go in batches of about STATE_CAP entries, so memory stays at a
    few state vectors whatever the dimension.
    """
    terms = _local_terms(spec)
    total = math.prod(dims)
    batch = max(1, STATE_CAP // total)
    for lo in range(0, len(indices), batch):
        cols = indices[lo:lo + batch]
        states = np.zeros((total, len(cols)), dtype=complex)
        states[cols, np.arange(len(cols))] = 1.0
        yield lo, _apply(terms, dims, states)


def full_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense H = sum_i J_i (Sx_i Sx_{i+1} + Sy_i Sy_{i+1}) + sum_i B_i Sz_i."""
    dims = _site_dims(spec, DIMENSION_CAP)
    total = math.prod(dims)
    h = np.empty((total, total), dtype=complex)
    for lo, image in _basis_images(spec, dims, np.arange(total)):
        h[:, lo:lo + image.shape[1]] = image
    return h


def total_sz_diagonal(spec: ChainSpec) -> np.ndarray:
    """Diagonal of the total-Sz operator (it is diagonal in the product basis)."""
    dims = _site_dims(spec, STATE_CAP)
    diag = np.zeros(1)
    for site, d in zip(spec.sites, dims):
        m = site.spin.s - np.arange(d)
        diag = (diag[:, None] + m[None, :]).reshape(-1)
    return diag


def excitation_sector_indices(spec: ChainSpec) -> list[int]:
    """Flat indices of (|0>, |1>, .., |N>) in the tensor-product basis."""
    dims = _site_dims(spec, STATE_CAP)
    strides = np.ones(len(dims), dtype=int)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return [0] + [int(strides[n]) for n in range(len(dims))]


class FullSpaceModel:
    """H restricted to the vacuum-plus-single-excitation sector, and its spectrum.

    `block[a, b]` is <a|H|b> over the sector states in the order of
    `excitation_sector_indices`.  Construction raises RuntimeError when H
    moves weight out of the sector (Sz conservation broken).
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.dims = _site_dims(spec, STATE_CAP)
        self.sector = np.array(excitation_sector_indices(spec))
        self.block = np.empty((self.sector.size, self.sector.size), dtype=complex)
        leak = 0.0
        for lo, image in _basis_images(spec, self.dims, self.sector):
            self.block[:, lo:lo + image.shape[1]] = image[self.sector]
            image[self.sector] = 0.0
            leak = max(leak, float(np.max(np.linalg.norm(image, axis=0))))
        if leak > _LEAKAGE_TOL:
            raise RuntimeError(f"H moved weight {leak:.3e} out of the excitation sector")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.block)

    def initial_state(self, state: BlochState) -> np.ndarray:
        """Site 1 in the Bloch state, every other site in its ground level."""
        a0, a1 = state.amplitudes()
        psi = np.zeros(math.prod(self.dims), dtype=complex)
        psi[self.sector[0]] = a0
        psi[self.sector[1]] = a1
        return psi

    def _propagate(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) on coefficients over the sector states."""
        coeffs = self.eigenvectors.conj().T @ coeffs
        coeffs *= np.exp(-1j * self.eigenvalues * float(t))
        return self.eigenvectors @ coeffs

    def evolve(self, psi: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) psi for a product-space vector inside the sector."""
        outside = float(np.linalg.norm(np.delete(psi, self.sector)))
        if outside > _LEAKAGE_TOL:
            raise ValueError(f"state has weight {outside:.3e} outside the excitation sector")
        out = np.zeros_like(psi)
        out[self.sector] = self._propagate(psi[self.sector], t)
        return out

    def receiver_density(self, state: BlochState, t: float) -> np.ndarray:
        """Evolve and trace out everything but the last site's two reachable levels."""
        coeffs = np.zeros(self.sector.size, dtype=complex)
        coeffs[:2] = state.amplitudes()
        psi = np.zeros(math.prod(self.dims), dtype=complex)
        psi[self.sector] = self._propagate(coeffs, t)
        block = psi.reshape(-1, self.dims[-1])
        rho = block.T @ block.conj()
        top = rho[:2, :2]
        leak = abs(np.trace(top).real - 1.0)
        if leak > _LEAKAGE_TOL:
            raise RuntimeError(
                f"population {leak:.3e} leaked out of the receiver's reachable levels"
            )
        return top

    def fidelity(self, state: BlochState, t: float) -> float:
        rho = self.receiver_density(state, t)
        amps = np.array(state.amplitudes())
        return float(np.real(amps.conj() @ rho @ amps))


def evolve_and_trace(spec: ChainSpec, state: BlochState, t: float) -> np.ndarray:
    """One-shot receiver density matrix from the full-space route."""
    return FullSpaceModel(spec).receiver_density(state, t)


def full_fidelity(spec: ChainSpec, state: BlochState, t: float) -> float:
    """One-shot transfer fidelity from the full-space route."""
    return FullSpaceModel(spec).fidelity(state, t)


def cross_check(spec: ChainSpec, state: BlochState, t: float) -> float:
    """|F_full - F_subspace| for one chain, input state, and time."""
    from . import excitation, fidelity

    record = excitation.transfer_amplitude(spec, t)
    f_sub = fidelity.fidelity(record.f, state)
    f_full = full_fidelity(spec, state, t)
    return abs(f_full - f_sub)
