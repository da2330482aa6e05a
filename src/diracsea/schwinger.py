"""Vacuum charge-current commutator kernels and their diagnostics.

The kernel I(x,y) = <vac| [rho(y), J(x)] |vac> is assembled as a mode-pair
sum over transitions out of the occupied set.  On the periodic lattice with
the complete truncated basis the site-sampled values vanish identically:
rho(y) and J(x) are both multiplication operators on the finite single
particle space, so their bilinear commutator is exactly zero at grid pairs.
The physical content survives in the bandlimited interpolant the mode sum
defines between grid points (momentum transfers up to twice the single-mode
Nyquist window):

* the divergence of the interpolant at coincident points is nonzero for the
  filled sea, matching the positive-definite closed-form mode sum;
* pairings of the interpolant with smooth test functions distinguish the
  filled sea (bounded away from zero) from the finite-band vacuum (collapsing
  along the coupled cutoff/band sweep).

Kernels are translation covariant, so each one is represented by the Fourier
coefficients of its separation profile w(s) = I(x, x - s), held as one dense
array over the momentum transfers d = -(N-1) .. N-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ALPHA, ModeBasis, fourier_at
from .vacua import VacuumSpec, classify_indices, occupation_set


def _transfer_coefficients(basis: ModeBasis, occupied, partners) -> np.ndarray:
    """Fourier coefficients C_d of the kernel profile, d = -(N-1) .. N-1.

    Each ordered pair (m in occupied, n in partners) contributes
    T = (u_m^dag u_n)(u_n^dag alpha u_m) q^2 / L^2 at transfer d = k_m - k_n;
    the antihermitian profile has C_d = T_d - conj(T_{-d}).
    """
    q = basis.config.charge
    length = basis.config.box_length
    n_sites = basis.config.site_count
    um = basis.spinors[:, occupied]
    un = basis.spinors[:, partners]
    overlap = um.conj().T @ un                  # u_m^dag u_n
    current = (un.conj().T @ ALPHA @ um).T      # u_n^dag alpha u_m
    amp = q * q * (overlap * current) / length**2
    delta = (basis.momentum_index[occupied, None]
             - basis.momentum_index[None, partners])
    terms = np.zeros(2 * n_sites - 1, dtype=complex)
    np.add.at(terms, (delta + n_sites - 1).ravel(), amp.ravel())
    return terms - terms[::-1].conj()


@dataclass
class SchwingerKernel:
    """Translation-covariant commutator kernel over grid pairs.

    ``coefficients`` holds the Fourier coefficients C_d of the antihermitian
    profile over the transfers d = ``transfers``,
    I(x,y) = sum_d C_d exp(i 2 pi d (x-y) / L); ``values[j, k]`` samples
    I(x_j, y_k).
    """

    basis: ModeBasis
    occupied: np.ndarray
    partners: np.ndarray
    coefficients: np.ndarray = field(repr=False)

    @property
    def transfers(self) -> np.ndarray:
        n_sites = self.basis.config.site_count
        return np.arange(1 - n_sites, n_sites)

    def profile(self, separations: np.ndarray) -> np.ndarray:
        """I evaluated at x - y = s, for arbitrary (possibly off-grid) s."""
        s = np.asarray(separations, dtype=float)
        base = 2.0 * np.pi / self.basis.config.box_length
        phases = np.exp(1j * base * np.multiply.outer(s, self.transfers))
        return phases @ self.coefficients

    def evaluate(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel matrix I(x_a, y_b) at arbitrary positions."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return self.profile(xs[:, None] - ys[None, :])

    def on_grid(self, weights=1.0) -> np.ndarray:
        """sum_d weights_d C_d exp(i 2 pi d j / N) for j = 0 .. N-1.

        The grid cannot tell d from d +- N, so the coefficients are folded
        mod N and summed by one N-point FFT.
        """
        n_sites = self.basis.config.site_count
        folded = np.zeros(n_sites, dtype=complex)
        np.add.at(folded, self.transfers % n_sites, weights * self.coefficients)
        return np.fft.ifft(folded, norm="forward")

    @property
    def values(self) -> np.ndarray:
        return _over_pairs(self.on_grid())


def _over_pairs(profile: np.ndarray) -> np.ndarray:
    """Matrix [j, k] of a profile sampled at the grid separations x_j - y_k."""
    j = np.arange(len(profile))
    return profile[(j[:, None] - j[None, :]) % len(profile)]


def _subset(indices, mode_indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=int)
    if mode_indices is None:
        return indices
    return indices[np.isin(indices, mode_indices)]


def _kernel(basis: ModeBasis, occupied, partners, mode_indices) -> SchwingerKernel:
    occupied = _subset(occupied, mode_indices)
    partners = _subset(partners, mode_indices)
    return SchwingerKernel(basis, occupied, partners,
                           _transfer_coefficients(basis, occupied, partners))


def schwinger_standard(
    basis: ModeBasis, mode_indices=None, occupied_branch: int = -1
) -> SchwingerKernel:
    """Filled-sea kernel: transitions from the occupied branch to the other.

    ``occupied_branch`` = -1 is the physical sea; +1 swaps which branch is
    treated as filled (particle-hole flip), which negates the kernel.
    ``mode_indices`` restricts the mode sum to a subset (used by the Fock
    oracle comparisons, where subsets give nonvanishing grid values).
    """
    return _kernel(basis, np.flatnonzero(basis.lam == occupied_branch),
                   np.flatnonzero(basis.lam == -occupied_branch), mode_indices)


def schwinger_band(
    basis: ModeBasis, spec: VacuumSpec, mode_indices=None
) -> SchwingerKernel:
    """Band-vacuum kernel: band -> positive plus band -> below-band pairs.

    Intra-band pairs are omitted; the two orderings of those transitions
    cancel identically (see ``f2_identity_check``).
    """
    if spec.kind != "band":
        raise ValueError("schwinger_band requires a band vacuum spec")
    occ = occupation_set(spec, basis)  # validates headroom below the cutoff
    return _kernel(basis, occ.indices, occ.complement, mode_indices)


def commutator_kernel(basis: ModeBasis, spec: VacuumSpec,
                      mode_indices=None) -> SchwingerKernel:
    """Kernel of the filled-sea or band vacuum named by ``spec``."""
    if spec.kind == "band":
        return schwinger_band(basis, spec, mode_indices)
    if spec.kind == "standard":
        return schwinger_standard(basis, mode_indices)
    raise ValueError("commutator kernel requires a filled-sea or band vacuum")


def divergence_of_kernel(kernel: SchwingerKernel) -> np.ndarray:
    """d/dx I(x, y) over grid pairs, differentiated spectrally.

    Each coefficient C_d is multiplied by i 2 pi d / L and the result summed
    at the grid separations.  This path never touches the mode energies, so
    it is independent of the closed-form divergence.
    """
    base = 2.0 * np.pi / kernel.basis.config.box_length
    return _over_pairs(kernel.on_grid(1j * base * kernel.transfers))


def divergence_diag_closed_form(basis: ModeBasis, mode_indices=None) -> np.ndarray:
    """Coincident-point divergence of the filled-sea kernel, per site.

    Equals -2i q^2 sum over sea->positive pairs of (E_n + E_m) |u_m^dag u_n|^2
    / L^2; every term in the sum is non-negative, so the imaginary part is
    strictly negative whenever the charge and the spinor overlaps are.  The
    result is x-independent for plane waves, so all N entries coincide.
    """
    occupied = _subset(np.flatnonzero(basis.lam < 0), mode_indices)
    partners = _subset(np.flatnonzero(basis.lam > 0), mode_indices)
    u = basis.spinors
    overlap = u[:, occupied].conj().T @ u[:, partners]
    energies = basis.energy[occupied, None] + basis.energy[None, partners]
    total = float(np.sum(energies * np.abs(overlap) ** 2))
    q = basis.config.charge
    value = -2j * q * q * total / basis.config.box_length**2
    return np.full(basis.config.site_count, value, dtype=complex)


def divergence_paths_error(divergence: np.ndarray, closed: np.ndarray) -> float:
    """Max gap of the spectral divergence diagonal from the closed form,
    relative to |closed|, or absolute where that is exactly 0 (q = 0)."""
    gap = float(np.abs(np.diag(divergence) - closed).max())
    scale = abs(closed[0])
    return gap if scale == 0 else gap / scale


def f2_identity_check(basis: ModeBasis, spec: VacuumSpec) -> float:
    """Max |F2 - F2^dag| over grid pairs for the intra-band double sum.

    F2 sums (phi_m^dag(y) phi_n(y))(phi_n^dag(x) alpha phi_m(x)) over band
    pairs; its conjugate partner is computed independently from its own
    formula rather than by conjugation, and the two agree by a dummy-index
    swap.  The charge prefactor is excluded, so the residual is q-independent.
    """
    _, in_band, _ = classify_indices(spec, basis)
    if len(in_band) == 0:
        return 0.0
    phi_band = basis.phi[:, :, in_band]  # (N, 2, B)
    # optimize=True sums each band-pair contraction as one BLAS product; the
    # residual is then exactly 0 when the two formulas agree term by term,
    # where einsum's own loops left rounding that grew with N
    sides = []
    for overlap_ij, current_ij, pair_ij in (
            ("ysm,ysn->ymn", "xsn,st,xtm->xnm", "ymn,xnm->xy"),    # F2
            ("ysn,ysm->ynm", "xsm,st,xtn->xmn", "ynm,xmn->xy")):   # F2^dag
        overlap = np.einsum(overlap_ij, phi_band.conj(), phi_band)
        current = np.einsum(current_ij, phi_band.conj(), ALPHA, phi_band)
        sides.append(np.einsum(pair_ij, overlap, current, optimize=True))
    f2, f2_dag = sides
    return float(np.abs(f2 - f2_dag).max())


def _test_function_samples(basis: ModeBasis, f) -> np.ndarray:
    """Grid samples (length N) of a test function, or of a callable on the grid.

    The samples are read as the trigonometric interpolant on the symmetric
    momentum window.
    """
    values = np.asarray(f(basis.config.grid) if callable(f) else f, dtype=complex)
    n = basis.config.site_count
    if values.shape != (n,):
        raise ValueError(f"test function must have {n} samples")
    return values


def weak_limit_pairing(kernel: SchwingerKernel, g, h) -> complex:
    """Pairing integral of the kernel interpolant with two test functions.

    Evaluates int dx dy g(x) I(x,y) h(y) exactly in Fourier space.  The
    coarse-grid Riemann sum of the same quantity vanishes identically (the
    sampled kernel is zero at grid pairs), so the pairing is taken against
    the bandlimited interpolant the mode sum defines; this is the quantity
    whose sweep behavior separates the two vacua at finite cutoff.
    """
    basis = kernel.basis
    d = kernel.transfers
    g_hat = fourier_at(_test_function_samples(basis, g), -d)
    h_hat = fourier_at(_test_function_samples(basis, h), d)
    total = np.sum(kernel.coefficients * g_hat * h_hat)
    return complex(total * basis.config.box_length**2)
