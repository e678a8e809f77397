"""Zero-plus-single-excitation dynamics of an XX chain.

The all-up product state |0> and the N single-flip states |n> (site n lowered
by one magnetic quantum) span an invariant subspace of the XX Hamiltonian.
Within it the Hamiltonian is the vacuum energy E0 = sum_i B_i s_i plus a real
symmetric tridiagonal block with

    onsite[n]  = E0 - B_n           (one flip removes one quantum of Zeeman energy)
    hopping[i] = J_i sqrt(s_i s_{i+1})

The block is diagonalised by LAPACK (numpy.linalg.eigh).  Transfer
amplitudes are evaluated by spectral synthesis, never by time stepping:

    f0    = exp(-i E0 t)
    fn[n] = sum_k v_k[n] v_k[1] exp(-i eps_k t)
    f     = sum_k w_k exp(-i (eps_k - E0) t),   w_k = v_k[1] v_k[N]

One route gives f, from the Spectrum that solve returns (levels
lambda_k = eps_k - E0 and weights w_k, no eigenvectors): synthesize_f, O(N)
per time on a scalar time or a 1-D array of times, each judged by the
chain's number rule (chain._finite), and _grid_f on an evenly spaced grid
(the searches' grids and the rows of `spintransfer simulate`), by block
products with one complex exponential per level for each _GRID_BLOCK grid
times, within _grid_error of synthesize_f's, about 16 (|lambda|max t_max +
N) 2^-53 sum_k |w_k|.  f equals the phase-referenced tail conj(f0) fn[N] of
amplitudes, which gives the pair (f0, fn), O(N^2), for the unitarity
checks, to rounding (bit for bit when E0 = 0); _terms forms the terms of
all three.
The reported phase of f, and every fidelity derived from f, is computed in
the fidelity module (the tuned search takes arg f only to choose its field).

No error accumulates from step to step, but the phases eps t carry an error
of about |eps| t 2^-53 (|eps| the largest energy of the chain), and the
error of f grows like it, linearly in t.  Against a 60-digit mpmath
synthesis from the same block, on engineered chains of 5 and 40 sites,
|f - f_exact| is 5e-15 to 5e-14 at t = 1e2 and 7e-5 to 4e-4 at t = 1e12.

All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, NonFiniteError, _finite, _finites

__all__ = [
    "SingleExcitationHamiltonian",
    "Spectrum",
    "reduce",
    "eigensolve",
    "solve",
    "synthesize_f",
]

# Times per block of synthesize_f's array path; bounds its (times x levels)
# phase matrix at 1024 * N complex numbers, and _grid_f's chunks.
_TIME_BLOCK = 1024

# Grid times per block of _grid_f's matrix product.
_GRID_BLOCK = 64


@dataclass(frozen=True)
class SingleExcitationHamiltonian:
    """Vacuum energy plus the symmetric tridiagonal single-excitation block."""

    vacuum_energy: float
    onsite: tuple[float, ...]
    hopping: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        """Dense N x N excitation block, the matrix that eigensolve diagonalises."""
        m = np.diag(np.asarray(self.onsite, dtype=float))
        off = np.asarray(self.hopping, dtype=float)
        idx = np.arange(len(off))
        m[idx, idx + 1] = off
        m[idx + 1, idx] = off
        return m


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Levels lambda_k = eps_k - E0 and weights w_k = v_k[1] v_k[N] of f, for one chain.

    spread is the width of the spectrum with the vacuum, band = eps_N - eps_1;
    transfer_bound = sum_k |w_k| bounds |f| at every time: at most 1
    (Cauchy-Schwarz on the orthonormal eigenvectors), 1 on mirror-symmetric chains.
    """

    levels: np.ndarray
    weights: np.ndarray
    spread: float
    band: float
    transfer_bound: float

    @classmethod
    def of(cls, h: SingleExcitationHamiltonian, eig: tuple[np.ndarray, np.ndarray]) -> Spectrum:
        """The spectrum of f from eigensolve(h); keeps none of its vectors."""
        values, vectors = eig
        e0, lo, hi = h.vacuum_energy, float(values[0]), float(values[-1])
        weights = vectors[0] * vectors[-1]
        return cls(levels=values - e0, weights=weights, spread=max(hi, e0) - min(lo, e0),
                   band=hi - lo, transfer_bound=float(np.abs(weights).sum()))


def _hopping_scale(s_left: float, s_right: float) -> float:
    return math.sqrt(s_left * s_right)


def reduce(spec: ChainSpec) -> SingleExcitationHamiltonian:
    """Project a chain onto its zero-plus-single-excitation sector.

    Raises NonFiniteError, naming the entry, when an entry of the block
    overflows the floats.
    """
    spins = spec.spins()
    fields = spec.fields()
    with np.errstate(over="ignore"):  # refused below
        e0 = float(np.dot(fields, spins))
    if not math.isfinite(e0):
        raise NonFiniteError("the vacuum energy sum_i B_i s_i is not finite")
    # Python floats overflow to inf without a warning
    onsite = tuple(e0 - b for b in fields.tolist())
    s = spins.tolist()
    hopping = tuple(j * _hopping_scale(s[i], s[i + 1]) for i, j in enumerate(spec.couplings))
    for n, value in enumerate(onsite, 1):
        if not math.isfinite(value):
            raise NonFiniteError(f"the flip energy E0 - B_{n} of site {n} is not finite")
    for i, value in enumerate(hopping, 1):
        if not math.isfinite(value):
            raise NonFiniteError(f"the hopping J_{i} sqrt(s_{i} s_{i + 1}) of bond {i} "
                                 f"is not finite")
    return SingleExcitationHamiltonian(vacuum_energy=e0, onsite=onsite, hopping=hopping)


def eigensolve(h: SingleExcitationHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise the excitation block with LAPACK (numpy.linalg.eigh).

    Returns the pair (values, vectors): eigenvalues ascending, with orthonormal
    eigenvectors in the matching columns.
    """
    values, vectors = np.linalg.eigh(h.matrix())
    return values, vectors


def solve(spec: ChainSpec) -> Spectrum:
    """Reduce a chain, diagonalise its excitation block, and keep the spectrum of f."""
    h = reduce(spec)
    return Spectrum.of(h, eigensolve(h))


# Not public; pinned by bench/tracing.py:28 and bench/test_bench.py:107,114 (ROADMAP item 17).
def amplitudes(h: SingleExcitationHamiltonian, eig: tuple,
               t: float) -> tuple[complex, np.ndarray]:
    """The pair (f0, fn) at one time (by the chain's number rule, _finite) from
    eigensolve(h): f0 = exp(-i E0 t), and fn[n] the amplitude for the excitation
    injected at site 1 to be found at site n+1; f is conj(f0) * fn[-1] to
    rounding.  NaN, as in synthesize_f, where a phase overflows."""
    t = _finite(t, "times")
    values, vectors = eig
    fn = _terms(t, values, vectors * vectors[0]).sum(axis=1)
    return complex(np.exp(-1j * h.vacuum_energy * t)), fn


def transfer_amplitude(spec: ChainSpec, t: float) -> tuple[complex, np.ndarray]:
    """reduce, eigensolve and amplitudes at one time; f is synthesize_f(solve(spec), t)."""
    h = reduce(spec)
    return amplitudes(h, eigensolve(h), t)


def synthesize_f(spectrum: Spectrum, t):
    """End-to-end amplitude f at a scalar time (complex) or a 1-D array of times.

    With the weights w_k = v_k[1] v_k[N] and levels of the spectrum,

        f(t) = conj(f0) * sum_k w_k exp(-i eps_k t) = sum_k w_k exp(-i (eps_k - E0) t),

    O(N) per time.  Folding the vacuum phase into the exponents saves a
    complex product per time and keeps the phase arguments small when the
    fields are large.  The terms, from _terms as amplitudes' are, are summed
    elementwise, not by a BLAS product whose order depends on the shape, so a
    time gives the same bits in an array of any length, and at E0 = 0 so does
    conj(f0) * fn[N].  A scalar time is evaluated as a one-element array;
    arrays are evaluated in blocks of at most 1024 times.  The times follow
    the chain's number rule (_finites), which names the first bad one, before
    any exponential is taken.  Where a phase overflows, f is NaN (numpy
    warns) and fidelity refuses it: a check here costs 0.9-1.3 us of a
    5-7 us call (2-core x86-64 VM); _grid_f, once per grid, refuses it.
    """
    levels, weights = spectrum.levels, spectrum.weights
    times = _finites(t, "times")
    grid = times.reshape(-1)
    f = np.empty(grid.size, dtype=complex)
    for lo in range(0, grid.size, _TIME_BLOCK):
        f[lo:lo + _TIME_BLOCK] = _terms(grid[lo:lo + _TIME_BLOCK], levels, weights).sum(axis=1)
    return complex(f[0]) if times.ndim == 0 else f


def _terms(times, levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w_k exp(-i lambda_k t) in one (times x levels) buffer, multiplied in place;
    a weight matrix (a row per site) against one time gives a new array."""
    terms = np.multiply.outer(-1j * times, levels)
    np.exp(terms, out=terms)
    return np.multiply(terms, weights, out=terms) if weights.ndim == 1 else weights * terms


# linspace's last point, the phases and a short piece's offsets may overflow: refused below
@np.errstate(over="ignore", invalid="ignore")
def _grid_f(spectrum: Spectrum, pieces) -> tuple[np.ndarray, np.ndarray]:
    """The times of an evenly spaced grid, and f there by block products.

    pieces are (start, end, steps), each piece linspace(start, end, steps + 1)
    and steps 0 giving the single time start; where two pieces share an end
    point, the later piece's value is kept.  A block of _GRID_BLOCK points
    from grid time t_b holds f(t_b + m dt) = sum_k [w_k e^{-i lambda_k t_b}]
    e^{-i lambda_k m dt}, lambda_k = eps_k - E0: one (blocks x N) by
    (N x _GRID_BLOCK) product.  dt is linspace's own step and every t_b a grid
    time, so the times differ from the grid's by rounding alone (see
    _grid_error).  Chunks of _TIME_BLOCK times keep the phase matrix within
    the _TIME_BLOCK x N of synthesize_f.  f is finite: the first row where
    t max|lambda_k| (so synthesize_f's f) or f is not finite raises
    NonFiniteError, which the searches' grid budget keeps them from.
    """
    levels, weights = spectrum.levels, spectrum.weights
    times = [np.linspace(start, end, steps + 1) for start, end, steps in pieces]
    grid = np.concatenate([times[0]] + [piece[1:] for piece in times[1:]])
    f = np.empty(grid.size, dtype=complex)
    lo = 0
    for start, end, steps in pieces:
        hi, step = lo + steps, (end - start) / steps if steps else 0.0  # as linspace computes it
        offsets = np.exp(np.multiply.outer(-1j * levels, np.arange(_GRID_BLOCK) * step))
        for first in range(lo, hi + 1, _TIME_BLOCK):
            last = min(first + _TIME_BLOCK, hi + 1)
            f[first:last] = (_terms(grid[first:last:_GRID_BLOCK], levels, weights)
                             @ offsets).ravel()[:last - first]
        lo = hi
    # t max|lambda_k| too: a block from a finite phase can hold rows whose own phase overflows
    bad = np.isinf(grid * np.max(np.abs(levels))) | ~np.isfinite(f)
    if bad.any():
        raise NonFiniteError(f"f is not finite at t = {float(grid[bad][0])}: the phases E t "
                             f"overflow; lower t_max or rescale the chain")
    return grid, f


def _grid_error(spectrum: Spectrum, t_max: float) -> float:
    """Bound on |_grid_f - synthesize_f| at every point of a grid on [0, t_max].

    With u = 2^-53: a time t_b + m dt of the block product lies within
    3 u t_max of a + m dt (a the start of its piece) and linspace's grid time
    within 2 u t_max, so the two differ by at most 5 u t_max; rounding
    lambda_k t in synthesize_f and in the block's two phase products adds
    3 u |lambda_k| t_max, so each term's phase is off by at most
    8 u |lambda_k| t_max.  The exponentials, the products with w_k and the two
    sums over the N levels add at most (sqrt(2) (N + log2 N) + 9) u sum_k |w_k|,
    less than 16 N u sum_k |w_k|.  The phase constant is doubled for the terms
    of second order.
    """
    scale = 16.0 * float(np.max(np.abs(spectrum.levels))) * t_max + 16.0 * spectrum.levels.size
    return spectrum.transfer_bound * scale * 2.0**-53
