"""Brute-force reference dynamics in the full tensor-product Hilbert space.

The XX Hamiltonian is built from standard spin-s matrices (local basis ordered
m = s, s-1, .., -s, so index 0 is the site ground level); site 1 is the
slowest-varying index of the tensor product.  H is only ever applied to
product basis states, so each local term is index arithmetic: it moves a
basis state to the states that differ from it in the term's sites, with the
term's matrix elements as weights.  Nothing here uses the single-excitation
reduction or its sqrt(s_i s_{i+1}) hopping rule, and nothing but the chain
description (`chain`) comes from the package: every matrix element comes from
the spin matrices.

`FullSpaceModel` applies H to the N+1 product states with at most one site
lowered by one level (the vacuum and the single excitations).  Total Sz is
conserved, so these states span an invariant subspace; the model measures the
part of their images outside it, keeps the (N+1)x(N+1) block, and evolves
exactly inside it.  Receiver densities, and the fidelities read from them, are
still traced out of the full product vectors, a batch of input states and
times at once.  A model allows state vectors of up to STATE_CAP = 2^20
entries (20 spin-1/2 sites); the dense `full_hamiltonian`, and every bond's
dense operator, is capped at dimension DIMENSION_CAP = 4096.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .chain import ChainSpec, SpinMagnitude, _count, _finites

__all__ = [
    "DIMENSION_CAP",
    "STATE_CAP",
    "DimensionCapError",
    "spin_operators",
    "full_hamiltonian",
    "total_sz_diagonal",
    "sz_commutator_max",
    "excitation_sector_indices",
    "FullSpaceModel",
]

DIMENSION_CAP = 4096
STATE_CAP = 2**20

# Weight may leave the invariant sector, or the receiver's two reachable
# levels, only through numerical error; more than this is a logic fault.
_LEAKAGE_TOL = 1e-12


class DimensionCapError(ValueError):
    """Total Hilbert-space dimension exceeds the brute-force cap."""


@lru_cache(maxsize=8)
def spin_operators(spin: SpinMagnitude) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for one site of magnitude s, basis m = s, s-1, .., -s.

    Matrix elements follow <m+1|S+|m> = sqrt(s(s+1) - m(m+1)).  The matrices
    are cached per magnitude and read-only.
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
    for op in (sx, sy, sz):
        op.setflags(write=False)
    return sx, sy, sz


def _site_dims(spec: ChainSpec, cap: int) -> list[int]:
    dims = [site.spin.dim for site in spec.sites]
    _count(math.prod(dims), "the total dimension", 1, cap, DimensionCapError)
    return dims


def _local_terms(spec: ChainSpec) -> list[tuple[int, np.ndarray]]:
    """(first site, local operator) for every term of H, in summation order.

    A bond term J_i (Sx_i Sx_{i+1} + Sy_i Sy_{i+1}) acts on sites i, i+1 (row
    index a' d_{i+1} + b' for levels a' of site i and b' of site i+1); a field
    term B_i Sz_i acts on site i.  A bond of more than DIMENSION_CAP levels,
    whose dense operator would outgrow a dense H, is refused before any is built.
    """
    dims = [site.spin.dim for site in spec.sites]
    _count(max(a * b for a, b in zip(dims, dims[1:])), "the widest bond's dimension", 1,
           DIMENSION_CAP, DimensionCapError)
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
           cols: np.ndarray) -> np.ndarray:
    """H applied to the product basis states with flat indices `cols`.

    Returns the (prod(dims), len(cols)) array of their images.  A term on the
    sites starting at `site`, with local dimension d and right = the product
    of the later sites' dimensions, maps a state b at local level
    c = (b // right) % d to the state b + (r - c) * right with weight op[r, c].
    Each term is one scatter-add, in summation order, so every entry sums its
    nonzero contributions in the order of `terms`.
    """
    total = math.prod(dims)
    out = np.zeros((total, len(cols)), dtype=complex)
    for site, op in terms:
        d = op.shape[0]
        right = total // (math.prod(dims[:site]) * d)
        rows, levels = np.nonzero(op)
        col, k = np.nonzero(cols[:, None] // right % d == levels)
        out[cols[col] + (rows[k] - levels[k]) * right, col] += op[rows[k], levels[k]]
    return out


def _batches(count: int, total: int) -> list[slice]:
    """Slices that split `count` state vectors of `total` entries into batches
    of about STATE_CAP entries, so memory stays at a few state vectors."""
    batch = max(1, STATE_CAP // total)
    return [slice(lo, lo + batch) for lo in range(0, count, batch)]


def full_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense H = sum_i J_i (Sx_i Sx_{i+1} + Sy_i Sy_{i+1}) + sum_i B_i Sz_i."""
    dims = _site_dims(spec, DIMENSION_CAP)
    return _apply(_local_terms(spec), dims, np.arange(math.prod(dims)))


def total_sz_diagonal(spec: ChainSpec) -> np.ndarray:
    """Diagonal of the total-Sz operator (it is diagonal in the product basis)."""
    dims = _site_dims(spec, STATE_CAP)
    levels = [site.spin.s - np.arange(d) for site, d in zip(spec.sites, dims)]
    return reduce(np.add.outer, levels, np.zeros(1)).ravel()


def sz_commutator_max(spec: ChainSpec) -> float:
    """Largest |entry| of [H, Sz_total], from the local terms alone.

    [H, Sz]_ab = H_ab (sz_b - sz_a), and a field term is diagonal.  Every
    nonzero entry op[r, c] of a bond term changes the levels of both of its
    sites, and no two bonds share both sites, so each nonzero off-diagonal H_ab
    is one such entry.  The largest commutator entry is therefore the largest
    |op[r, c] (m_c - m_r)|, m the bond's local Sz: O(bonds) work instead of a
    dense dim x dim H, capped per bond alone.
    """
    terms = _local_terms(spec)  # refuses a bond over the cap before any level is built
    levels = [site.spin.s - np.arange(site.spin.dim) for site in spec.sites]
    worst = 0.0
    for site, op in terms:
        if op.shape[0] == levels[site].size:  # a field term
            continue
        m = np.add.outer(levels[site], levels[site + 1]).ravel()
        worst = max(worst, float(np.max(np.abs(op * (m[None, :] - m[:, None])))))
    return worst


def excitation_sector_indices(spec: ChainSpec) -> list[int]:
    """Flat indices of (|0>, |1>, .., |N>) in the tensor-product basis."""
    dims = _site_dims(spec, STATE_CAP)
    return [0] + [math.prod(dims[n + 1:]) for n in range(len(dims))]


class FullSpaceModel:
    """H restricted to the vacuum-plus-single-excitation sector, and its spectrum.

    `block[a, b]` is <a|H|b> over the sector states in the order of
    `excitation_sector_indices`.  Construction raises RuntimeError when H
    moves weight out of the sector (Sz conservation broken).
    """

    def __init__(self, spec: ChainSpec):
        self.dims = _site_dims(spec, STATE_CAP)
        self.sector = np.array(excitation_sector_indices(spec))
        self.block = np.empty((self.sector.size, self.sector.size), dtype=complex)
        terms = _local_terms(spec)
        leak = 0.0
        for cols in _batches(self.sector.size, math.prod(self.dims)):
            image = _apply(terms, self.dims, self.sector[cols])
            self.block[:, cols] = image[self.sector]
            image[self.sector] = 0.0
            leak = max(leak, float(np.max(np.linalg.norm(image, axis=0))))
        if leak > _LEAKAGE_TOL:
            raise RuntimeError(f"H moved weight {leak:.3e} out of the excitation sector")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.block)

    def receiver_densities(self, theta, phi, t) -> np.ndarray:
        """Receiver density matrices, shape (k, 2, 2), for k inputs and times.

        theta, phi and t broadcast to k values; input j is the Bloch state
        (theta[j], phi[j]) on site 1, read out at time t[j].  Each input is
        evolved in the sector, scattered into the full product vector, and
        traced over everything but the last site's two reachable levels;
        RuntimeError if any of them leaks population out of those levels, and
        ValueError, naming the time, if a phase E t overflows.
        """
        return self._densities(*_inputs(theta, phi, t))

    def fidelity(self, theta, phi, t) -> float | np.ndarray:
        """<in|rho|in> for the inputs and times of receiver_densities; a float
        when theta, phi and t are all scalars, else an array of k values."""
        amps, times = _inputs(theta, phi, t)
        rho = self._densities(amps, times)
        values = (amps.conj()[:, None, :] @ rho @ amps[:, :, None])[:, 0, 0].real
        return values if np.ndim(theta) or np.ndim(phi) or np.ndim(t) else values[0].item()

    def _densities(self, amps: np.ndarray, t: np.ndarray) -> np.ndarray:
        """receiver_densities for the rows of _inputs.

        exp(-iHt) acts on the sector coefficients as stacked matrix-vector
        products, so a row's result does not depend on how many rows are
        evolved with it.
        """
        vectors = self.eigenvectors
        coeffs = np.zeros((len(amps), self.sector.size), dtype=complex)
        coeffs[:, :2] = amps
        coeffs = np.matmul(vectors.conj().T, coeffs[..., None])[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):  # the leak test refuses a NaN row
            coeffs *= np.exp(-1j * np.multiply.outer(t, self.eigenvalues))
        coeffs = np.matmul(vectors, coeffs[..., None])[..., 0]
        total, d = math.prod(self.dims), self.dims[-1]
        top = np.empty((len(amps), 2, 2), dtype=complex)
        for rows in _batches(len(amps), total):
            batch = coeffs[rows]
            psi = np.zeros((len(batch), total), dtype=complex)
            psi[:, self.sector] = batch
            blocks = psi.reshape(len(batch), -1, d)
            top[rows] = (blocks.transpose(0, 2, 1) @ blocks.conj())[:, :2, :2]
        leaks = np.abs(np.trace(top, axis1=1, axis2=2).real - 1.0)
        leak = np.max(leaks, initial=0.0)  # NaN if any row's is
        if not leak <= _LEAKAGE_TOL:
            if leak != leak:
                raise ValueError(f"the state is not finite at t = {float(t[np.isnan(leaks)][0])!r}"
                                 f": the phases E t overflow; lower t or rescale the chain")
            raise RuntimeError(
                f"population {leak:.3e} leaked out of the receiver's reachable levels"
            )
        return top


def _inputs(theta, phi, t) -> tuple[np.ndarray, np.ndarray]:
    """(k, 2) amplitudes on |0> and |1> of the Bloch states (theta, phi), and the k
    times: theta, phi and t, by the chain's number rule (_finites), broadcast."""
    theta, phi, t = np.broadcast_arrays(*np.atleast_1d(
        _finites(theta, "theta"), _finites(phi, "phi"), _finites(t, "t")))
    amps = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)
    return amps, t

