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

Its pairs are the occupied x unoccupied ``operators.mode_pairs`` table.  The
direct path never forms a retarded kernel on the grid: one running Simpson
sum per pair carries the integral from one output time to the next, and the
pairs reach the grid through their momentum transfers with one N-point FFT,
so its memory is O(pairs) rather than O(sites x pairs).  Pairs share their
energy gaps, so each phase is computed once per distinct gap and gathered
to the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModeBasis, fourier_at, transfer_sum
from .operators import mode_pairs
from .schwinger import SchwingerKernel
from .vacua import OccupationSet, VacuumSpec, occupation_set

SMEARINGS = ("site", "fourier")
# per Simpson grid; a run of n output times over [t_a, t_b] takes at most
# kubo_interval_count(t_b - t_a) + 17 n samples in all
MAX_TIME_SAMPLES = 10**6


@dataclass
class ResponseKernel:
    """Mode-pair data of the retarded current/charge response of a vacuum."""

    basis: ModeBasis
    omega: np.ndarray            # (P,) energy differences e_n - e_m
    transfer: np.ndarray         # (P,) integer momentum transfers k_m - k_n
    current_weight: np.ndarray   # (P,) q u_n^dag alpha u_m / L
    charge_weight: np.ndarray    # (P,) q u_n^dag u_m / L

    @classmethod
    def build(cls, basis: ModeBasis, occ: OccupationSet) -> "ResponseKernel":
        occupied = np.array(sorted(occ.indices), dtype=int)
        unoccupied = np.array(sorted(occ.complement), dtype=int)
        q, length = basis.config.charge, basis.config.box_length
        charge, current, omega, transfer = mode_pairs(basis, occupied, unoccupied)
        return cls(basis, omega.ravel(), transfer.ravel(),
                   (current * q / length).ravel(), (charge * q / length).ravel())


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


def first_order_current(kernel: ResponseKernel, potential, t,
                        t_start: float, smearing: str = "site",
                        samples_per_period: int = 40) -> np.ndarray:
    """Linear-in-potential vacuum current on the grid at time t, or at each
    time of an ascending 1-D array t.

    Each pair's source at a sample is a (conj(rho_p) A0_hat[d_p] - conj(j_p)
    A_hat[d_p]), with a = L/N and A_hat the FFT of the potential's grid
    samples, read at the pair's transfer d_p mod N.  ``smearing`` selects
    which bins count: "site" reads every pair's aliased bin, the
    site-diagonal coupling of the evolution module's Hamiltonian; "fourier"
    keeps only |d_p| <= (N-1)/2, the exact integrals of the pair functions
    against the potential's bandlimited interpolant, the convention under
    which the pure-gauge response reduces to the commutator-kernel
    contraction.

    One running Simpson sum covers [t_start, t_1], [t_1, t_2], ..., each
    segment on its own even grid of ``kubo_interval_count(segment)``
    intervals, so the first output time gets exactly the grid of a scalar
    call and no stretch of time is integrated twice.  A segment's first node
    is the one before's last, and its source is evaluated once.  The sum
    reaches the grid at each output time through the pairs' transfers
    (``transfer_sum``), with no (site, pair) array.  Returns (N,) for a
    scalar t and (n_times, N) for an array; times <= t_start give zero rows.
    """
    if smearing not in SMEARINGS:
        raise ValueError(f"unknown smearing {smearing!r}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.diff(times.ravel()) >= 0):
        raise ValueError("output times must be one time or an ascending 1-D "
                         "array")
    basis = kernel.basis
    n_sites = basis.config.site_count
    a = basis.config.spacing
    bins = kernel.transfer % n_sites
    kept = a if smearing == "site" else a * (
        np.abs(kernel.transfer) <= (n_sites - 1) // 2)
    charge = kept * kernel.charge_weight.conj()
    current = kept * kernel.current_weight.conj()

    # a gap depends only on the pair's two |p|: the filled sea at N = 41 has
    # 231 among its 1,681 pairs, so each phase is one exponential per gap
    gaps, gap_of_pair = np.unique(kernel.omega, return_inverse=True)
    out = np.zeros((times.size, n_sites))
    integral = np.zeros(kernel.omega.shape, dtype=complex)
    reached = t_start
    sampled = None  # time of the last node's source and phase
    for row, t_out in enumerate(times.ravel()):
        if t_out <= t_start:
            continue
        if t_out > reached:
            ts, weights = _time_grid(reached, t_out, kubo_interval_count(
                basis, t_out - reached, samples_per_period))
            for t_prime, w in zip(ts, weights):
                if t_prime != sampled:  # a segment starts on the last's end
                    sampled = t_prime
                    a0, vector = potential.fields(t_prime)
                    source = (charge * np.fft.fft(a0)[bins]
                              - current * np.fft.fft(vector)[bins])
                    phase = np.exp(-1j * gaps * t_prime)[gap_of_pair]
                integral += w * source * phase
            reached = t_out
        # delta<J> = -i * int <[J_I(t), V_I(t')]> dt'; the sign is fixed by
        # the integrated dynamics (centered-difference linearization of the
        # evolution module reproduces it)
        z = transfer_sum(kernel.current_weight
                         * np.exp(1j * gaps * t_out)[gap_of_pair] * integral,
                         kernel.transfer, n_sites)
        out[row] = 2.0 * z.imag
    return out.reshape(times.shape + (n_sites,))


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

    deep_eps = basis.eigenvalue[deep_mode]
    packet_eps = basis.eigenvalue[idx]
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
