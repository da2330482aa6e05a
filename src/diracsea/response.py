"""First-order vacuum current response and its gauge variation.

The retarded response of the vacuum current to an external potential is a
mode-pair sum over transitions out of the occupied set, with interaction
picture phases set by single-particle energy differences (the per-vacuum
energy subtraction removes any overall phase).  Two computational paths are
provided for the response to a pure-gauge potential:

* the direct Kubo integral of the retarded kernels against (A0, A);
* the equal-time contraction of the vacuum's charge-current commutator
  kernel with the gauge scalar chi.

The two agree (up to time-quadrature error) when the Kubo integral smears
the potential with exact Fourier-space integrals, under which the spatial
surface term of the derivation vanishes identically on the periodic
lattice.  The ``site`` smearing instead matches the site-diagonal coupling
used by the evolution module and is the right convention for comparisons
against finite-difference evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ALPHA, ModeBasis, fourier_at
from .schwinger import SchwingerKernel
from .vacua import OccupationSet, VacuumSpec, occupation_set

SMEARINGS = ("site", "fourier")
MAX_TIME_SAMPLES = 10**6  # per quadrature, that is per output time


@dataclass
class ResponseKernel:
    """Mode-pair data of the retarded current/charge response of a vacuum."""

    basis: ModeBasis
    occupied: OccupationSet
    omega: np.ndarray            # (P,) energy differences e_n - e_m
    transfer: np.ndarray         # (P,) integer momentum transfers k_m - k_n
    current_weight: np.ndarray   # (P,) q u_n^dag alpha u_m / L
    charge_weight: np.ndarray    # (P,) q u_n^dag u_m / L

    @classmethod
    def build(cls, basis: ModeBasis, occ: OccupationSet) -> "ResponseKernel":
        occupied = np.array(sorted(occ.indices), dtype=int)
        unoccupied = np.array(sorted(occ.complement), dtype=int)
        q = basis.config.charge
        length = basis.config.box_length
        un = basis.spinors[:, occupied]
        um = basis.spinors[:, unoccupied]
        eps = basis.lam * basis.energy
        omega = eps[occupied, None] - eps[None, unoccupied]
        transfer = (basis.momentum_index[None, unoccupied]
                    - basis.momentum_index[occupied, None])
        current = un.conj().T @ ALPHA @ um   # u_n^dag alpha u_m
        charge = un.conj().T @ um
        return cls(basis, occ, omega.ravel(), transfer.ravel(),
                   (current * q / length).ravel(), (charge * q / length).ravel())

    def _site_matrix(self, weights: np.ndarray) -> np.ndarray:
        base = 2.0 * np.pi / self.basis.config.box_length
        grid = self.basis.config.grid
        return weights[None, :] * np.exp(
            1j * base * np.outer(grid, self.transfer))

    def current_pair_matrix(self) -> np.ndarray:
        """J_p(x) over (site, pair)."""
        return self._site_matrix(self.current_weight)

    def charge_pair_matrix(self) -> np.ndarray:
        return self._site_matrix(self.charge_weight)

    def retarded_current_current(self, tau: float) -> np.ndarray:
        """R_JJ(x, y; tau) = i <[J(x,tau), J(y,0)]>, zero for tau < 0."""
        return self._retarded(self.current_pair_matrix(),
                              self.current_pair_matrix(), tau)

    def retarded_current_charge(self, tau: float) -> np.ndarray:
        """R_Jrho(x, y; tau) = i <[J(x,tau), rho(y,0)]>, zero for tau < 0."""
        return self._retarded(self.current_pair_matrix(),
                              self.charge_pair_matrix(), tau)

    def _retarded(self, amat, bmat, tau: float) -> np.ndarray:
        n = self.basis.config.site_count
        if tau < 0:
            return np.zeros((n, n))
        z = (amat * np.exp(1j * self.omega * tau)[None, :]) @ bmat.conj().T
        return -2.0 * z.imag


def _simpson_weights(n_samples: int, h: float) -> np.ndarray:
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _interval_count(span: float, max_frequency: float,
                    samples_per_period: int) -> int:
    """Even Simpson interval count, at least 16, resolving max_frequency."""
    period = 2.0 * np.pi / max(max_frequency, 1e-12)
    count = max(16.0, np.ceil(span / period * samples_per_period))
    if not count < MAX_TIME_SAMPLES - 1:
        raise ValueError(f"the time quadrature needs {count + 1:.3g} samples, "
                         f"more than {MAX_TIME_SAMPLES}")
    return int(count) + int(count) % 2  # Simpson needs an even interval count


def kubo_interval_count(basis: ModeBasis, span: float,
                        samples_per_period: int = 40) -> int:
    """Simpson intervals ``first_order_current`` takes for t - t_start = span."""
    return _interval_count(span, 2.0 * basis.max_energy, samples_per_period)


def _time_grid(t_start: float, t_stop: float, n_intervals: int):
    ts = np.linspace(t_start, t_stop, n_intervals + 1)
    return ts, _simpson_weights(n_intervals + 1, (t_stop - t_start) / n_intervals)


def first_order_current(kernel: ResponseKernel, potential, t: float,
                        t_start: float, smearing: str = "site",
                        samples_per_period: int = 40) -> np.ndarray:
    """Linear-in-potential vacuum current at time t on the grid.

    ``smearing`` selects how the potential enters the spatial integrals:
    "site" couples it site-diagonally, matching the evolution module's
    Hamiltonian exactly; "fourier" evaluates the integrals of the pair
    functions against the potential's bandlimited interpolant exactly, the
    convention under which the pure-gauge response reduces to the
    commutator-kernel contraction.
    """
    if smearing not in SMEARINGS:
        raise ValueError(f"unknown smearing {smearing!r}")
    basis = kernel.basis
    n_sites = basis.config.site_count
    if t <= t_start:
        return np.zeros(n_sites)
    ts, weights = _time_grid(
        t_start, t, kubo_interval_count(basis, t - t_start, samples_per_period))

    jmat = kernel.current_pair_matrix()
    rmat = kernel.charge_pair_matrix()
    a = basis.config.spacing
    length = basis.config.box_length

    integral = np.zeros(kernel.omega.shape, dtype=complex)
    for t_prime, w in zip(ts, weights):
        a_vec = potential.a(t_prime)
        a0_vec = potential.a0(t_prime)
        if smearing == "site":
            source = a * (jmat.conj().T @ (-a_vec) + rmat.conj().T @ a0_vec)
        else:
            source = length * (
                -kernel.current_weight.conj() * fourier_at(a_vec, kernel.transfer)
                + kernel.charge_weight.conj() * fourier_at(a0_vec, kernel.transfer))
        integral += w * source * np.exp(-1j * kernel.omega * t_prime)

    # delta<J> = -i * int <[J_I(t), V_I(t')]> dt'; the sign is fixed by the
    # integrated dynamics (centered-difference linearization of the evolution
    # module reproduces it)
    z = jmat @ (np.exp(1j * kernel.omega * t) * integral)
    return 2.0 * z.imag


def vacuum_response_kernel(basis: ModeBasis, spec: VacuumSpec) -> ResponseKernel:
    return ResponseKernel.build(basis, occupation_set(spec, basis))


def gauge_variation_response(kernel: SchwingerKernel, gauge,
                             t: float) -> np.ndarray:
    """delta J(x, t) = i * integral of I(x,y) chi(y,t) dy.

    The contraction pairs the commutator kernel's bandlimited interpolant
    with chi exactly in Fourier space; chi enters only through its value at
    the evaluation time.  The overall sign follows the same convention as
    ``first_order_current`` (fixed against the integrated dynamics), so the
    two paths agree rather than merely being proportional.
    """
    basis = kernel.basis
    chi = np.asarray(gauge.chi(t), dtype=float)
    if chi.shape != (basis.config.site_count,):
        raise ValueError("chi must be sampled on the grid")
    out = kernel.on_grid(fourier_at(chi, kernel.transfers))
    return (1j * basis.config.box_length * out).real


def deep_state_coupling(basis: ModeBasis, potential_fn, t_span, packet,
                        deep_mode: int, x_oversample: int = 4,
                        samples_per_period: int = 20) -> complex:
    """Spacetime overlap of a deep negative mode with a driven packet.

    Computes the transition amplitude integral of phi_n^dag(x,t) V(x,t)
    Phi(x,t) over the box and the window ``t_span``, where Phi is the
    positive-branch packet (indices, coefficients) evolving freely and n is
    a negative-branch mode.  For fixed smooth V and packet the magnitude
    falls as the deep mode's momentum and energy grow, because the integrand
    oscillates faster in both space and time.
    """
    if basis.lam[deep_mode] >= 0:
        raise ValueError("deep_mode must be a negative-branch mode")
    idx, coeffs = packet
    idx = np.asarray(idx, dtype=int)
    coeffs = np.asarray(coeffs, dtype=complex)
    t0, t1 = map(float, t_span)
    if t1 <= t0:
        raise ValueError("empty time window")

    n_fine = x_oversample * basis.config.site_count
    xs = np.arange(n_fine) * (basis.config.box_length / n_fine)
    dx = basis.config.box_length / n_fine
    phi_fine = basis.sample(xs)  # (n_fine, 2, 2N)
    deep = phi_fine[:, :, deep_mode]
    packet_modes = phi_fine[:, :, idx]

    deep_eps = basis.lam[deep_mode] * basis.energy[deep_mode]
    packet_eps = basis.lam[idx] * basis.energy[idx]
    fastest = abs(deep_eps) + np.abs(packet_eps).max()
    ts, weights = _time_grid(
        t0, t1, _interval_count(t1 - t0, fastest, samples_per_period))

    total = 0.0 + 0.0j
    for t, w in zip(ts, weights):
        phi_t = packet_modes @ (coeffs * np.exp(-1j * packet_eps * t))
        v = np.asarray(potential_fn(xs, t))
        integrand = np.einsum("js,js->", deep.conj(), v[:, None] * phi_t)
        total += w * dx * integrand * np.exp(1j * deep_eps * t)
    return complex(total)
