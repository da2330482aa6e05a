"""Periodic spectral lattice and the free Dirac single-particle problem in 1+1 D.

Conventions used throughout the package:

* two-component spinors with alpha = sigma_x, beta = sigma_z, so the
  single-particle Hamiltonian at momentum p is h(p) = p*sigma_x + m*sigma_z;
* grid points x_j = j*L/N (N odd), momenta p_k = 2*pi*k/L with
  k = -(N-1)/2 .. (N-1)/2, which keeps the momentum window symmetric;
* box normalization: phi_n(x) = u_n exp(i p_n x) / sqrt(L), with the grid
  inner product <f,g> = a * sum_j f(x_j)^dag g(x_j), a = L/N.

With these choices orthonormality and completeness of the 2N modes are exact
on the grid up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ALPHA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Well above the 251 sites of the largest lattice any config, test or
# benchmark builds, yet the dense basis fits in memory: phi alone is 64 N^2
# bytes, 256 MB here.
MAX_SITES = 2001


@dataclass(frozen=True)
class LatticeConfig:
    """Box length, odd site count, fermion mass and charge."""

    box_length: float
    site_count: int
    mass: float
    charge: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(
                f"box_length must be finite and positive, got {self.box_length}")
        if not (isinstance(self.site_count, (int, np.integer))
                and not isinstance(self.site_count, bool)
                and 1 <= self.site_count <= MAX_SITES and self.site_count % 2):
            raise ValueError(f"site_count must be an odd integer in "
                             f"[1, {MAX_SITES}], got {self.site_count}")
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ValueError(
                f"mass must be finite and non-negative, got {self.mass}")
        if not np.isfinite(self.charge):
            raise ValueError(f"charge must be finite, got {self.charge}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.site_count

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.site_count) * self.spacing

    @property
    def momentum_indices(self) -> np.ndarray:
        half = (self.site_count - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * self.momentum_indices / self.box_length


class ModeBasis:
    """Complete orthonormal set of 2N plane-wave spinor modes on the grid.

    Each mode has a branch ``lam`` (+1 or -1), a momentum index k and momentum
    p = 2 pi k/L, an energy E = sqrt(p^2 + m^2) and a unit spinor, the
    eigenvector of h(p) = p sigma_x + m sigma_z with eigenvalue lam E:

        u_+ = (E + m, p) / n,   u_- = (|p|, -(E + m)) / n for p > 0,
                                u_- = (|p|, E + m) / n    for p <= 0,

    with n = sqrt(2E (E + m)), so the first component is real and
    non-negative at every p, and u(-p) = +-sigma_z u(p) exactly.
    m >= 0, so E + m never cancels.  At p = m = 0, where E = 0 and every
    spinor is an eigenvector, the pair is pinned to (1,0) / (0,1).

    Modes are ordered by (lam descending, |k|, k); ``lam``, ``energy``,
    ``eigenvalue`` (the level lam E, the one copy every module reads),
    ``momentum`` and ``momentum_index`` have shape (2N,) and ``spinors`` shape
    (2, 2N).  The sampled wavefunctions are exposed both as ``phi`` with shape
    (N, 2, 2N) (site, spinor, mode) and flattened site-major as ``flat`` with
    shape (2N, 2N).
    """

    def __init__(self, config: LatticeConfig):
        self.config = config
        N, m = config.site_count, config.mass
        k = np.tile(config.momentum_indices, 2)
        lam = np.repeat([1, -1], N)
        order = np.lexsort((k, np.abs(k), -lam))
        self.lam = lam[order]
        self.momentum_index = k[order]
        self.momentum = p = np.tile(config.momenta, 2)[order]
        self.energy = np.hypot(p, m)
        self.eigenvalue = self.lam * self.energy
        top = self.energy + m
        norm = np.sqrt(2.0 * self.energy) * np.sqrt(top)  # E^2 underflows at tiny E
        pinned = self.energy == 0.0  # p = m = 0: u_+ = (1, 0), u_- = (0, 1)
        top[pinned] = 1.0
        norm[pinned] = 1.0
        upper = self.lam > 0
        spinors = [np.where(upper, top, np.abs(p)),
                   np.where(upper, p, np.where(p > 0, -top, top))]
        self.spinors = (np.stack(spinors) / norm).astype(complex)
        self.phi = self.sample(config.grid)
        self.flat = self.phi.reshape(2 * N, 2 * N)

    @property
    def mode_count(self) -> int:
        return len(self.lam)

    @property
    def max_energy(self) -> float:
        return float(self.energy.max())

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Wavefunctions at arbitrary positions, shape (len(points), 2, 2N)."""
        points = np.asarray(points, dtype=float)
        # each momentum is on both branches: one exponential per momentum
        config = self.config
        phase = np.exp(1j * np.outer(points, config.momenta)).take(
            self.momentum_index + (config.site_count - 1) // 2, axis=1)
        return (
            phase[:, None, :]
            * self.spinors[None, :, :]
            / np.sqrt(self.config.box_length)
        )

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Grid inner product a * sum_j f^dag g for flat or (N,2) fields."""
        return complex(self.config.spacing * np.vdot(f.ravel(), g.ravel()))

    @cached_property
    def derivative_matrix(self) -> np.ndarray:
        """D = d/dx on the grid, the real antisymmetric N x N circulant of
        spectral differentiation: (2 pi/L) (1/2) (-1)^(j-k) csc((j-k) pi/N)
        off the diagonal and 0 on it (Trefethen, Spectral Methods in MATLAB,
        ch. 3; real because N is odd).

        Built once per lattice as the spectral derivative of the identity,
        antisymmetrized so that D^T = -D exactly.  Read-only, since every
        caller shares the cached array.
        """
        d = spectral_derivative(np.eye(self.config.site_count),
                                self.config.box_length)
        d = 0.5 * (d - d.T)
        d.flags.writeable = False
        return d

    def free_hamiltonian_matrix(self) -> np.ndarray:
        """Dense 2N x 2N matrix of h0 in the site-spinor basis."""
        # sqrt(a) * flat is unitary; h0 is exactly U diag(lam E) U^dag
        u = np.sqrt(self.config.spacing) * self.flat
        return (u * self.eigenvalue) @ u.conj().T


def build_basis(config: LatticeConfig) -> ModeBasis:
    """All 2N free modes of the lattice, sorted (lam desc, |k|, k)."""
    return ModeBasis(config)


def spectral_derivative(values: np.ndarray, box_length: float) -> np.ndarray:
    """d/dx of a periodic grid function via FFT (leading axis is the grid)."""
    n = values.shape[0]
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=box_length / n)
    shape = (n,) + (1,) * (values.ndim - 1)
    out = np.fft.ifft(1j * p.reshape(shape) * np.fft.fft(values, axis=0), axis=0)
    return out.real if np.isrealobj(values) else out


def fourier_at(values: np.ndarray, transfers) -> np.ndarray:
    """Fourier coefficients (1/N) sum_j f_j exp(-i 2 pi d j / N) of grid samples.

    Evaluated at integer momentum transfers d; zero for any d outside the
    symmetric N-point window |d| <= (N-1)/2.
    """
    n = len(values)
    transfers = np.asarray(transfers)
    spectrum = np.fft.fft(values) / n
    return np.where(np.abs(transfers) <= (n - 1) // 2,
                    spectrum[transfers % n], 0.0)


def transfer_sum(coefficients: np.ndarray, transfers, n: int) -> np.ndarray:
    """sum_p c_p exp(i 2 pi d_p j / n) for j = 0 .. n-1.

    The grid cannot tell d from d +- n, so the coefficients are summed onto
    their transfers mod n (real and imaginary parts by ``np.bincount``) and
    then by one n-point FFT: O(P + n log n) time and O(P) memory for P
    coefficients.
    """
    bins = np.asarray(transfers) % n
    folded = (np.bincount(bins, coefficients.real, n)
              + 1j * np.bincount(bins, coefficients.imag, n))
    return np.fft.ifft(folded, norm="forward")
