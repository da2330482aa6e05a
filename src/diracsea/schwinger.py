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
array over the momentum transfers d = -(N-1) .. N-1.  One fold of the
``operators.mode_pairs`` table builds it, and the intra-band F2 gate from
the band x band pairs the band kernel leaves out.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .lattice import ModeBasis, fourier_at, transfer_sum
from .operators import mode_pairs
from .vacua import VacuumSpec, classify_indices, occupation_set


def _pair_terms(basis: ModeBasis, occupied, partners,
                charge: float) -> np.ndarray:
    """T_d, d = -(N-1) .. N-1: the sum over the pairs (m in occupied, n in
    partners) of charge^2 (u_m^dag u_n)(u_n^dag alpha u_m) / L^2 at
    d = k_m - k_n, in (m, n) order.  The partners are the table's rows, so
    the flux is u_n^dag alpha u_m as computed."""
    n_sites = basis.config.site_count
    overlap, flux, _, transfer = mode_pairs(basis, partners, occupied)
    amp = charge * charge * (overlap.conj() * flux) / basis.config.box_length**2
    terms = np.zeros(2 * n_sites - 1, dtype=complex)
    np.add.at(terms, (transfer + n_sites - 1).T.ravel(), amp.T.ravel())
    return terms


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

    def evaluate(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel matrix I(x_a, y_b) at arbitrary, possibly off-grid,
        positions: sum_d C_d exp(i 2 pi d (x_a - y_b) / L)."""
        s = np.subtract.outer(np.asarray(xs, dtype=float),
                              np.asarray(ys, dtype=float))
        base = 2.0 * np.pi / self.basis.config.box_length
        phases = np.exp(1j * base * np.multiply.outer(s, self.transfers))
        return phases @ self.coefficients

    def on_grid(self, weights=1.0) -> np.ndarray:
        """sum_d weights_d C_d exp(i 2 pi d j / N) for j = 0 .. N-1."""
        return transfer_sum(weights * self.coefficients, self.transfers,
                            self.basis.config.site_count)

    @property
    def values(self) -> np.ndarray:
        return over_pairs(self.on_grid())


def over_pairs(profile: np.ndarray) -> np.ndarray:
    """Matrix [j, k] of a profile sampled at the grid separations x_j - y_k,
    the entry (j - k) mod N; over_pairs(np.arange(N)) is that index."""
    j = np.arange(len(profile))
    return profile[(j[:, None] - j[None, :]) % len(profile)]


def _subset(indices, mode_indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=int)
    if mode_indices is None:
        return indices
    return indices[np.isin(indices, mode_indices)]


@contextmanager
def _within_float_range(config, quantity: str):
    """Refuse, as a ValueError naming the box length and the charge, a float
    overflow or an invalid value in the arithmetic inside."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise ValueError(f"box length L = {config.box_length:g} and charge "
                             f"q = {config.charge:g} put {quantity} past the "
                             "float range") from None


def _kernel(basis: ModeBasis, occupied, partners, mode_indices) -> SchwingerKernel:
    box_length = basis.config.box_length
    if not 0.0 < box_length * box_length < np.inf:  # the pair sums divide by L^2
        raise ValueError(f"box length L = {box_length:g} needs a square that "
                         "is a finite, nonzero float")
    occupied = _subset(occupied, mode_indices)
    partners = _subset(partners, mode_indices)
    with _within_float_range(basis.config, "the pair sums, of order q^2 / L^2,"):
        terms = _pair_terms(basis, occupied, partners, basis.config.charge)
    # the antihermitian profile: C_d = T_d - conj(T_{-d})
    return SchwingerKernel(basis, occupied, partners, terms - terms[::-1].conj())


def schwinger_standard(basis: ModeBasis, mode_indices=None) -> SchwingerKernel:
    """Filled-sea kernel: transitions from the negative branch to the positive.

    ``mode_indices`` restricts the mode sum to a subset (used by the Fock
    oracle comparisons, where subsets give nonvanishing grid values).
    """
    return _kernel(basis, np.flatnonzero(basis.lam < 0),
                   np.flatnonzero(basis.lam > 0), mode_indices)


def schwinger_band(
    basis: ModeBasis, spec: VacuumSpec, mode_indices=None
) -> SchwingerKernel:
    """Band-vacuum kernel: band -> positive plus band -> below-band pairs.

    Intra-band pairs are omitted: their double sum F2 vanishes for every
    band, which is closed under p -> -p (derived and checked in
    ``f2_identity_check``).
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
    config = kernel.basis.config
    base = 2.0 * np.pi / config.box_length
    with _within_float_range(config, "the divergence, of order q^2 / L^3,"):
        return over_pairs(kernel.on_grid(1j * base * kernel.transfers))


def divergence_diag_closed_form(basis: ModeBasis) -> np.ndarray:
    """Coincident-point divergence of the filled-sea kernel, per site.

    Equals -2i q^2 sum over sea->positive pairs of (E_n + E_m) |u_m^dag u_n|^2
    / L^2; every term in the sum is non-negative, so the imaginary part is
    strictly negative whenever the charge and the spinor overlaps are.  The
    result is x-independent for plane waves, so all N entries coincide.
    """
    overlap, _, gap, _ = mode_pairs(basis, np.flatnonzero(basis.lam < 0),
                                    np.flatnonzero(basis.lam > 0))
    # the gap lam E of a sea mode less that of its partner is -(E + E')
    total = float(np.sum(-gap * np.abs(overlap) ** 2))
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
    """Max |F2(x, y)| over grid pairs for the intra-band double sum.

    F2 sums (phi_m^dag(y) phi_n(y))(phi_n^dag(x) alpha phi_m(x)) over the
    band pairs m, n, the pairs the band kernel leaves out.  The kernel's
    fold gives it as sum_d T_d exp(i 2 pi d (x - y) / L), with charge 1 and
    no antihermitian step, so the value is q-independent.

    Why it vanishes: with alpha = sigma_x and beta = sigma_z the spinors
    are real, so swapping m <-> n keeps a pair's term and negates its
    transfer, T_{-d} = T_d.  Reflecting p -> -p maps u to +-sigma_z u, which
    keeps the overlap and negates the flux (sigma_z sigma_x sigma_z =
    -sigma_x), again at the negated transfer, T_{-d} = -T_d.  So every T_d
    vanishes on a band closed under p -> -p, as every band vacuum is:
    ``classify_indices`` selects by energy, a function of |p| alone.  A band
    without that symmetry, or another alpha, leaves F2 of order one.
    """
    _, in_band, _ = classify_indices(spec, basis)
    return float(np.abs(_intra_band_f2(basis, in_band)).max())


def _intra_band_f2(basis: ModeBasis, band) -> np.ndarray:
    """F2[x, y] over grid pairs for the pairs of the modes ``band``."""
    n = basis.config.site_count
    terms = _pair_terms(basis, band, band, 1.0)
    return over_pairs(transfer_sum(terms, np.arange(1 - n, n), n))


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
