"""Slater-determinant dynamics under classical external potentials.

The many-body Hamiltonian is quadratic in the field for unquantized
potentials, so determinant states stay determinants and the evolution is
carried entirely by the single-particle orbitals:

    i d/dt psi_o = [h0 - q alpha A(x,t) + q A0(x,t)] psi_o.

A kicked run steps with the commutator-free fourth-order Magnus integrator
CFM4:2, two exponentials per step, over m dt at a time, where m up to 5
divides the sample stride and leaves the run at least 8 such steps
(``_magnus_multiple``); elsewhere (m = 1) each step applies the midpoint
Hamiltonian's exponential over dt, second-order accurate (``_time_step``).
Both are unitary up to rounding, and the sample times still add dt one step
at a time.  Each exponential (``_propagate``) is evaluated without forming
h: as a Chebyshev series in h (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)) whose terms each apply -i h once, by one real product with the
cached derivative matrix ``ModeBasis.derivative_matrix`` and site-local 2x2
matrices for the mass and the potentials, with Bessel weights from Miller's
backward recurrence (numpy only), cut where the dropped tail falls below one
rounding unit; when its couplings vanish it is the exact per-momentum
rotation cos(E dt) - i sin(E dt) h(p)/E, applied by FFT.  A run whose
potentials are all ``ZeroPotential`` takes that rotation once per sample
interval.  Branches that share an initial state and step size advance, and
are recorded, together as one site-major tensor (N, n_branch, 2, n_orb)
(``run_branches``).  Every orbital evolves on its own, so a kicked run with
enough work forks one child process that advances the second half of the
orbital axis for the whole run, with BLAS on one thread in both processes
(``_second_process``); elsewhere the run goes in turn, in this process.

A potential gives both its fields at once, ``Potential.fields(t)`` ->
(A0, A), so the rate identity and the Kubo source ask once per time; a
pure-gauge potential holds its static profile and the profile's derivative,
and reads (d chi/dt, -d chi/dx) off one call of the ramp.  Each coupling
time (one per midpoint step, two per CFM4 step) stacks every branch's own
fields (``_couplings``).

The module also hosts the gauge-kick experiment: build a pure-gauge kick
from the density rate of a potential-free trajectory (``build_kick_chi``),
evolve branches of its shape at multiples of its strength
(``gauge_pair_sweep``), and compare the observables and the free-field
energy of each with the free branch.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeConfig, ModeBasis, spectral_derivative
from .operators import RenormalizationConstants, renorm_constants
from .vacua import OccupationSet, VacuumSpec, occupation_set


def ramp(s):
    """Quintic ramp g(s) of a float s, with two vanishing derivatives at both
    ends, and dg/ds; a NaN s stays NaN."""
    s = min(max(s, 0.0), 1.0)
    return s**3 * (10.0 + s * (-15.0 + 6.0 * s)), 30.0 * s**2 * (1.0 - s) ** 2


class Potential:
    """External classical potential (A0, A) sampled on the grid."""

    provenance = "custom"

    def __init__(self, config: LatticeConfig, a0_fn=None, a_fn=None):
        self.config = config
        self._fns = (a0_fn, a_fn)

    def fields(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(A0, A) at time t, each one sample per site; zeros where no
        function was given."""
        return tuple(np.zeros(self.config.site_count) if fn is None
                     else np.asarray(fn(t), dtype=float) for fn in self._fns)


class ZeroPotential(Potential):
    """No fields.  Takes no field functions, so ``run_branches`` may step it
    by exact free rotations without evaluating couplings."""

    provenance = "zero"

    def __init__(self, config: LatticeConfig):
        super().__init__(config)


class PureGaugePotential(Potential):
    """(A0, A) = (d chi/dt, -d chi/dx) of the gauge scalar
    chi(x,t) = strength * g(s) * P(x), s = (t - t_start) / span: zero field
    strength by construction.

    g is the quintic ``ramp``, reaching 1 at t_stop, so chi = 0 and
    d chi/dt = 0 at t_start.  P and dP/dx are stored on the grid once;
    ValueError unless P is one finite sample per site with a finite
    derivative and the window is finite and ordered.
    """

    provenance = "pure_gauge"

    def __init__(self, config: LatticeConfig, profile: np.ndarray,
                 strength: float, t_start: float, t_stop: float):
        profile = np.array(profile, dtype=float)
        if profile.shape != (config.site_count,):
            raise ValueError("profile must be one sample per grid site")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            profile_dx = spectral_derivative(profile, config.box_length)
        if not np.isfinite([profile, profile_dx]).all():
            raise ValueError("chi's profile and its derivative must be finite")
        if not (np.isfinite([t_start, t_stop]).all() and t_stop > t_start):
            raise ValueError("gauge window must have finite t_stop > t_start")
        super().__init__(config)
        self.profile, self.profile_dx = profile, profile_dx
        self.strength = float(strength)
        self.t_start = float(t_start)
        self.t_stop = float(t_stop)

    def chi(self, t: float) -> np.ndarray:
        s = (t - self.t_start) / (self.t_stop - self.t_start)
        return self.strength * ramp(s)[0] * self.profile

    def fields(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """chi's derivatives from one call of the ramp."""
        span = self.t_stop - self.t_start
        g, g_rate = ramp((t - self.t_start) / span)
        return (self.strength * g_rate / span * self.profile,
                -(self.strength * g * self.profile_dx))


@dataclass
class SlaterState:
    """Occupied orbitals on the grid plus the reference vacuum for subtractions.

    Orbitals are site-major flattened spinor fields, orthonormal under the
    a-weighted grid inner product.
    """

    basis: ModeBasis
    reference: OccupationSet
    orbitals: np.ndarray
    time: float
    subtractions: RenormalizationConstants = field(repr=False, default=None)

    def __post_init__(self):
        if self.subtractions is None:
            self.subtractions = renorm_constants(self.basis, self.reference)

    @property
    def orbital_count(self) -> int:
        return self.orbitals.shape[1]

    def gram_defect(self) -> float:
        g = self.basis.config.spacing * self.orbitals.conj().T @ self.orbitals
        return float(np.abs(g - np.eye(self.orbital_count)).max())


@dataclass
class Snapshot:
    density: np.ndarray
    current: np.ndarray
    free_energy: float
    density_rate: np.ndarray


@dataclass
class Trajectory:
    """Observable history of one evolution branch at uniform sample times.

    ``residual`` is the continuity residual L(x,t) = d rho/dt + div J: the
    density rate is the analytic form 2 q Im psi^dag h0 psi (``_observe``)
    and the divergence the N-point spectral derivative of the sampled
    current, so L measures the aliasing of bilinears at the cutoff rather
    than integrator error.
    """

    basis: ModeBasis
    provenance: str
    times: np.ndarray
    density: np.ndarray        # (n_t, N)
    current: np.ndarray        # (n_t, N)
    free_energy: np.ndarray    # (n_t,)
    density_rate: np.ndarray   # (n_t, N), analytic d rho/dt
    residual: np.ndarray       # (n_t, N), d rho/dt + div J

    @property
    def sample_spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 0.5 * self.sample_spacing + 1e-12:
            raise ValueError(f"time {t} not sampled in this trajectory")
        return i


def vacuum_state(basis: ModeBasis, spec: VacuumSpec | OccupationSet,
                 time: float = 0.0) -> SlaterState:
    """Determinant of the occupied modes of the requested vacuum."""
    occ = spec if isinstance(spec, OccupationSet) else occupation_set(spec, basis)
    orbitals = basis.flat[:, list(occ.indices)].copy()
    return SlaterState(basis, occ, orbitals, time)


def _couplings(config: LatticeConfig, potentials, t: float):
    """Site couplings v0 = q A0 and v1 = -q A at time t, (N, n_branch) with
    column b from potential b's own ``fields``."""
    a0 = np.empty((config.site_count, len(potentials)))
    a = np.empty_like(a0)
    for b, potential in enumerate(potentials):
        a0[:, b], a[:, b] = potential.fields(t)
    v0 = config.charge * a0
    v1 = -config.charge * a
    if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
        raise ValueError(f"potential is not finite at t={t}")
    return v0, v1


def _minus_i_h(basis: ModeBasis, v0: np.ndarray, v1: np.ndarray,
               scale: float = 1.0):
    """psi -> -i scale h psi for site-major orbitals psi of shape (N, ..., 2, n_orb).

    The kinetic term -i alpha (-i d/dx) = -alpha d/dx is one real product of
    the derivative matrix -D with a float view of psi (alpha swaps the spinor
    components); the mass, q A0 and -q alpha A terms are site-local, with the
    -i folded into them.  The couplings v0 = q A0 and v1 = -q A have shape
    psi.shape[:-2].  Multiplying by -i is exact, so the result is -i times
    the rounded h psi, bit for bit.
    """
    d = -scale * basis.derivative_matrix
    v0 = v0[..., None, None]
    mass = basis.config.mass
    diag = -1j * (scale * np.concatenate([v0 + mass, v0 - mass], axis=-2))
    off = -1j * (scale * v1[..., None, None])

    def apply(psi: np.ndarray) -> np.ndarray:
        real = np.ascontiguousarray(psi).reshape(len(d), -1).view(float)
        dpsi = (d @ real).view(complex).reshape(psi.shape)
        dpsi += off * psi
        out = diag * psi
        out += dpsi[..., ::-1, :]
        return out

    return apply


def _free_rotation(basis: ModeBasis, dt: float):
    """psi -> exp(-i h0 dt) psi: cos(E dt) - i sin(E dt) h(p)/E at each momentum."""
    p = 2.0 * np.pi * np.fft.fftfreq(basis.config.site_count, d=basis.config.spacing)
    p = p[:, None, None]  # broadcast over branches and orbitals
    mass = basis.config.mass
    energy = np.hypot(p, mass)
    cos = np.cos(energy * dt)
    sin_over_e = dt * np.sinc(energy * dt / np.pi)  # dt at E = 0

    def rotate(psi: np.ndarray) -> np.ndarray:
        ft = np.fft.fft(psi, axis=0)
        up, down = ft[..., 0, :], ft[..., 1, :]
        out = np.empty_like(ft)
        out[..., 0, :] = cos * up - 1j * sin_over_e * (mass * up + p * down)
        out[..., 1, :] = cos * down - 1j * sin_over_e * (p * up - mass * down)
        return np.fft.ifft(out, axis=0)

    return rotate


def _bessel_weights(z: float, count: int) -> np.ndarray:
    """J_0(z) .. J_{count-1}(z) by Miller's backward recurrence.

    J_{k-1} = (2k/z) J_k - J_{k+1} runs down from J_count = 0, J_{count-1} = 1
    and is normalized by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Review 9
    (1967) 24; Abramowitz & Stegun 9.1.27, 9.1.46).  The start error decays
    like (J_count / J_k)^2, negligible here because ``_propagate`` asks for
    ~30 orders past the last weight it keeps.  Against scipy.special.jv the
    weights differ by 2.2e-16 at the shipped R dt (<= 0.22), 1.6e-15 at 60
    and at most 1.1e-13 up to the largest R dt that ``MAX_SERIES_TERMS``
    admits (about 9500), the size of the series' own rounding over that many
    terms.  Unnormalized, the recurrence grows by about (2/z)^count count!;
    below z = 1e-9 that would overflow, but there J_0 rounds to 1, J_1 to z/2
    and J_2 < 1.3e-19 falls in the dropped tail (``_kept_terms``), so those
    are the weights.  From z = 1e-9 on, where ``_propagate`` asks for 30
    orders, the growth stays below (2e9)^29 29! = 5e300.
    """
    if z < 1e-9:
        return np.array([1.0, 0.5 * z] + [0.0] * (count - 2))
    j = [0.0] * count
    nxt, cur = 0.0, 1.0
    j[-1] = cur
    for k in range(count - 1, 0, -1):
        nxt, cur = cur, 2.0 * k / z * cur - nxt
        j[k - 1] = cur
    return np.array(j) / (j[0] + 2.0 * sum(j[2::2]))


def _kept_terms(weights: np.ndarray) -> int:
    """How many of the Bessel weights J_0, J_1, ... the series sums: the
    fewest k that leave a dropped tail 2 sum_{j >= k} |J_j| of at most one
    rounding unit, eps / 2.  Each term's polynomial is bounded by 1 on the
    spectrum, so the dropped terms change no orbital by more than that."""
    tail = 2.0 * np.cumsum(np.abs(weights[::-1]))[::-1]  # non-increasing in k
    return max(2, int(np.count_nonzero(tail > 0.5 * np.finfo(float).eps)))


def _series_radius(basis: ModeBasis, v0: np.ndarray, v1: np.ndarray) -> float:
    """R = E_max + max_b (max|v0[:, b]| + max|v1[:, b]|), which bounds the
    spectrum of every branch's h."""
    return basis.max_energy + float(
        (np.abs(v0).max(axis=0) + np.abs(v1).max(axis=0)).max())


def _series_fits(z: float) -> bool:
    """Whether the series at R dt = z, which asks for about z + 20 z^(1/3)
    + 30 Bessel orders, stays within ``MAX_SERIES_TERMS``; false for a NaN
    or infinite z."""
    return z + 20.0 * np.cbrt(z) + 30 <= MAX_SERIES_TERMS


def _propagate(basis: ModeBasis, psi: np.ndarray, v0: np.ndarray,
               v1: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) psi for stacked site-major orbitals psi
    (N, n_branch, 2, n_orb), or any slice of their orbital axis.

    Branch b feels the couplings v0[:, b], v1[:, b].  All branches share one
    Chebyshev series exp(-i h dt) = sum_k (2 - delta_k0) (-i)^k J_k(R dt)
    T_k(h / R), with R = E_max + max_b (max|v0[:, b]| + max|v1[:, b]|)
    bounding the spectrum of every branch's h.  R, the weights and the term
    count depend on v0, v1 and dt alone, so every orbital slice sums the same
    series; each orbital evolves on its own, so slices may run at the same
    time.  ValueError when the series would exceed ``MAX_SERIES_TERMS`` terms.
    """
    if not (v0.any() or v1.any()):
        return _free_rotation(basis, dt)(psi)
    radius = _series_radius(basis, v0, v1)
    z = radius * dt
    if not _series_fits(z):
        raise ValueError(f"a time step needs over {MAX_SERIES_TERMS} Chebyshev "
                         f"terms (R dt = {z:.3g}); lower the potential or dt")
    weights = _bessel_weights(z, int(z + 20.0 * np.cbrt(z)) + 30)
    n_terms = _kept_terms(weights)
    step = _minus_i_h(basis, v0, v1, 2.0 / radius)  # -2i h / R
    # phi_k = (-i)^k T_k(h / R) psi = -2i (h / R) phi_{k-1} + phi_{k-2}
    prev, cur = psi, 0.5 * step(psi)
    out = weights[0] * psi + (2.0 * weights[1]) * cur
    for k in range(2, n_terms):
        nxt = step(cur)
        nxt += prev
        prev, cur = cur, nxt
        out += (2.0 * weights[k]) * cur
    return out


# CFM4:2, the commutator-free fourth-order Magnus step (Blanes & Moan, Appl.
# Numer. Math. 56 (2006) 1519; Alvermann & Fehske, J. Comput. Phys. 230
# (2011) 5930): the Gauss nodes, as fractions of the step, and a_1, a_2.
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CFM4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0,
                 (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)


def _time_step(basis: ModeBasis, psi: np.ndarray, potentials, time: float,
               dt: float, multiple: int) -> np.ndarray:
    """psi advanced from ``time`` by h = multiple * dt.

    For multiple > 1, one CFM4:2 step, fourth order in h: with v(t_1),
    v(t_2) the couplings at the Gauss nodes t + (1/2 -+ sqrt(3)/6) h, two
    exponentials of h/2, first with the couplings 2 (a_2 v(t_1) + a_1
    v(t_2)), then with 2 (a_1 v(t_1) + a_2 v(t_2)), a_1,2 = (3 -+ 2 sqrt(3))
    / 12; h0 enters each with weight a_1 + a_2 = 1/2.  For multiple = 1,
    and where either CFM4 half-step's series would exceed
    ``MAX_SERIES_TERMS``, ``multiple`` midpoint steps, each the exponential
    of h(t + dt/2) over dt, second order in dt: so CFM4 refuses a kick only
    where the midpoint rule would.
    """
    if multiple > 1:
        h = multiple * dt
        (v0a, v1a), (v0b, v1b) = (_couplings(basis.config, potentials,
                                             time + node * h)
                                  for node in _GAUSS_NODES)
        a1, a2 = _CFM4_WEIGHTS
        halves = [(2.0 * (a2 * v0a + a1 * v0b), 2.0 * (a2 * v1a + a1 * v1b)),
                  (2.0 * (a1 * v0a + a2 * v0b), 2.0 * (a1 * v1a + a2 * v1b))]
        if all(_series_fits(_series_radius(basis, v0, v1) * 0.5 * h)
               for v0, v1 in halves):
            for v0, v1 in halves:
                psi = _propagate(basis, psi, v0, v1, 0.5 * h)
            return psi
    for _ in range(multiple):
        v0, v1 = _couplings(basis.config, potentials, time + 0.5 * dt)
        psi = _propagate(basis, psi, v0, v1, dt)
        time = time + dt
    return psi


def apply_hamiltonian(basis: ModeBasis, orbitals: np.ndarray) -> np.ndarray:
    """h0 applied to site-major orbitals without forming it.

    ``orbitals`` is (2N, n_orb), or one field of shape (2N,) or (N, 2); the
    result has the same shape.
    """
    n_sites = basis.config.site_count
    zeros = np.zeros((n_sites, 1))
    psi = np.asarray(orbitals, dtype=complex).reshape(n_sites, 1, 2, -1)
    return 1j * _minus_i_h(basis, zeros, zeros)(psi).reshape(orbitals.shape)


def _observe(basis: ModeBasis, subtractions: RenormalizationConstants,
             psi: np.ndarray):
    """Vacuum-subtracted (density, current, free energy, density rate) of
    site-major orbitals psi (N, n_branch, 2, n_orb), one row per branch.

    The density rate d rho/dt = 2 q Im sum_o psi_o^dag (h psi_o) per site
    takes h0 psi alone, the product the free energy needs: the couplings
    q A0 and -q alpha A are hermitian 2x2 matrices at each site, so
    psi_o^dag V psi_o is real there and drops out of the rate exactly.  This
    avoids differencing sampled densities.
    """
    config = basis.config
    q = config.charge
    zeros = np.zeros(psi.shape[:-2])
    minus_i_h0_psi = _minus_i_h(basis, zeros, zeros)(psi)
    density = q * (np.abs(psi) ** 2).sum(axis=(-2, -1)).T - subtractions.rho
    up, down = psi[..., 0, :], psi[..., 1, :]  # psi^dag alpha psi = 2 Re up* down
    current = 2.0 * q * (up.conj() * down).real.sum(axis=-1).T - subtractions.current
    # -i sum_o psi_o^dag (h0 psi_o): its real part is the density rate's sum
    weighted = (psi.conj() * minus_i_h0_psi).sum(axis=(-2, -1))
    energy = -config.spacing * weighted.imag.sum(axis=0) - subtractions.xi
    return density, current, energy, 2.0 * q * weighted.real.T


def observables(state: SlaterState) -> Snapshot:
    """Vacuum-subtracted density, current, free-field energy and density rate
    of one state; no potential enters the rate (see ``_observe``)."""
    psi = state.orbitals.reshape(state.basis.config.site_count, 1, 2, -1)
    density, current, energy, rate = _observe(state.basis, state.subtractions, psi)
    return Snapshot(density[0], current[0], float(energy[0]), rate[0])


MAX_STEPS = 10**6
# Longest Chebyshev series one step may sum: it has about R dt terms, and R
# grows with the potential, so a huge kick strength would never finish.
MAX_SERIES_TERMS = 10**4


def step_count(t_start: float, t_final: float, dt: float,
               sample_stride: int) -> tuple[int, float]:
    """Number of steps and the adjusted step that land samples on t_final;
    ValueError for a run of more than ``MAX_STEPS`` steps."""
    span = t_final - t_start
    if not span > 0:
        raise ValueError("t_final must exceed the state time")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be a positive integer")
    n_steps = max(1, round(min(span / dt, 2.0 * MAX_STEPS)))  # span/dt may be inf
    n_steps += (-n_steps) % sample_stride  # land samples on the final time
    if n_steps > MAX_STEPS:
        raise ValueError(f"the run needs more than {MAX_STEPS} time steps")
    return n_steps, span / n_steps


# A kicked run takes CFM4 steps of up to this many steps of dt, and only
# while that leaves it at least MIN_MAGNUS_STEPS of them (``_magnus_multiple``).
MAX_MAGNUS_MULTIPLE = 5
MIN_MAGNUS_STEPS = 8


def _magnus_multiple(n_steps: int, sample_stride: int) -> int:
    """How many steps of dt one step of a kicked run of ``n_steps`` spans:
    the largest m <= ``MAX_MAGNUS_MULTIPLE`` that divides the stride, so
    that samples fall between steps, and leaves at least
    ``MIN_MAGNUS_STEPS`` CFM4 steps; else 1, the midpoint step.

    Against CFM4 at dt/4 on the same sample times, CFM4 at 5 dt had 0.24 or
    less of the midpoint's xi0 error on runs of 40 to 320 steps of dt
    (N = 27, 81, 201; kick f = 0.02 and 2), but up to 1.9 times it on runs
    of 20 steps (4 CFM4 steps); at 10 dt the shipped extract-energy's
    density error was 3.5 times the midpoint's.  The midpoint step is also
    the faster one wherever m would be 1: at dt, CFM4's two exponentials
    cost 1.6 to 1.7 times the midpoint's one.
    """
    return max((m for m in range(2, MAX_MAGNUS_MULTIPLE + 1)
                if sample_stride % m == 0 and n_steps >= MIN_MAGNUS_STEPS * m),
               default=1)


def run_trajectory(state: SlaterState, potential: Potential, t_final: float,
                   dt: float, sample_stride: int = 1):
    """Evolve to t_final, recording observables every ``sample_stride`` steps.

    Returns (trajectory, final_state).  dt is adjusted so that an integer
    number of steps, a multiple of the stride, lands exactly on t_final; the
    final state is always sampled.
    """
    return run_branches(state, [potential], t_final, dt, sample_stride)[0]


# A kicked run splits across two processes from this many steps x tensor
# entries on (``_splits``): the fork, the pipe and the child's exit cost a
# few ms.  Whole kicked runs in turn against split, single-threaded BLAS on a
# 2-core Xeon, medians of 7: N = 41, one branch, 60 steps (2.1e5 entry-steps)
# 47 -> 50 ms and 100 steps (3.4e5) 73 -> 69 ms; N = 81, 10 steps (1.3e5)
# 27 -> 25 ms and 20 steps (2.7e5) 47 -> 40 ms; N = 27 with ten branches,
# 20 steps (3.0e5), 49 -> 42 ms; N = 201, 20 steps (1.6e6), 578 -> 269 ms.
# A CFM4 step counts as two steps, one per ``_propagate`` call.  Medians of
# 15, in two sessions: N = 81, 40 dt in 8 CFM4 steps (2.1e5), 29-31 ->
# 30-38 ms; N = 41, 100 dt in 20 (1.4e5), 18-20 -> 26-27 ms; N = 27 with ten
# branches, 100 dt in 20 (6.0e5), 57-65 -> 41-42 ms, and the shipped
# extract-energy, 320 dt in 64 (1.9e6), 149 -> 111 ms.
SPLIT_WORK = 300_000

# The thread-count getter and setter that numpy's bundled OpenBLAS exports.
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_set_num_threads64_")


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy links another BLAS or the library exports no such symbols."""
    import ctypes  # here, not at module level: only a split run needs it

    from numpy.linalg import _umath_linalg

    try:
        # dlsym on the extension searches the libraries it links, OpenBLAS too
        library = ctypes.CDLL(_umath_linalg.__file__)
        get_threads, set_threads = (getattr(library, name)
                                    for name in _OPENBLAS_THREADS)
    except (OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# How many processes run at once on this one's CPUs: 1, or the worker count
# inside a parallel sweep's workers (``share_cpus``).
_cpu_share = 1


def share_cpus(process_count: int) -> None:
    """Marks this process as one of ``process_count`` that run at once on
    the same CPUs, as a parallel sweep's workers do."""
    global _cpu_share
    _cpu_share = process_count


def _splits(psi: np.ndarray, n_steps: int) -> bool:
    """Whether a kicked run of ``n_steps`` steps on the tensor psi advances
    half its orbitals in a second process: at least ``SPLIT_WORK``
    entry-steps and two orbitals, two CPUs for each process that shares
    them (so a parallel sweep's workers run in turn), ``os.fork``, and
    numpy's OpenBLAS thread setter to pin BLAS with."""
    return (psi.shape[-1] >= 2 and n_steps * psi.size >= SPLIT_WORK
            and _usable_cpus() >= 2 * _cpu_share and hasattr(os, "fork")
            and _openblas_threads() is not None)


@contextmanager
def _second_process(psi: np.ndarray, time: float, advance, intervals: int):
    """Yields the first half of psi's orbital axis and ``receive``.

    A forked child advances the second half through the run's sample
    intervals, (part, time) = advance(part, time) ``intervals`` times, and
    writes it to a pipe after each; ``receive()`` returns the next one, or
    raises ChildProcessError with the child's exit status when the child
    ended first.  Both processes run BLAS on one thread, so that neither's
    BLAS threads compete with the other; the count is restored on leaving.
    The child always ends in ``os._exit``, never returning into the caller.
    On every way out the parent closes the pipe, kills the child if it still
    runs and reaps it.
    """
    import signal

    get_threads, set_threads = _openblas_threads()
    half = psi.shape[-1] // 2
    second = np.ascontiguousarray(psi[..., half:])
    threads = get_threads()
    set_threads(1)
    pid = None
    try:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    for _ in range(intervals):
                        second, time = advance(second, time)
                        pipe.write(np.ascontiguousarray(second))
                        pipe.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            def receive() -> np.ndarray:
                nonlocal pid
                part = np.empty_like(second)
                if pipe.readinto(part) < part.nbytes:  # the pipe closed early
                    _, status = os.waitpid(pid, 0)
                    pid = None
                    code = os.waitstatus_to_exitcode(status)
                    raise ChildProcessError(
                        "the process advancing the second orbital half ended "
                        "early: " + (f"exit status {code}" if code >= 0
                                     else f"killed by signal {-code}"))
                return part

            yield np.ascontiguousarray(psi[..., :half]), receive
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)  # harmless once it has exited
            os.waitpid(pid, 0)
        set_threads(threads)


def run_branches(state: SlaterState, potentials, t_final: float, dt: float,
                 sample_stride: int = 1) -> list[tuple[Trajectory, SlaterState]]:
    """``run_trajectory`` for several potentials from one initial state.

    The branches advance together as one stacked orbital tensor, and each
    sample makes one observation; every branch matches its own
    ``run_trajectory`` up to rounding.  A kicked run takes CFM4 steps of
    m dt, m = ``_magnus_multiple(n_steps, sample_stride)``, each two
    ``_couplings`` calls and two ``_propagate`` calls (Chebyshev series) for
    all branches; where m = 1, midpoint steps of dt, each one of each.  The
    sample times add dt one step at a time either way.
    When every potential is a ``ZeroPotential`` the run takes one exact free
    rotation by ``sample_stride`` steps per sample interval.  A kicked run
    that ``_splits`` advances the second half of its orbital axis in a second
    process (``_second_process``), which calls ``_propagate`` with the same
    couplings; the halves are joined only to be observed, and the outputs are
    those of the run in turn up to dgemm's rounding by column block.
    Returns one (trajectory, final_state) pair per potential.
    """
    n_steps, dt_eff = step_count(state.time, t_final, dt, sample_stride)
    potentials = list(potentials)
    if not potentials:
        return []
    basis = state.basis
    config = basis.config
    psi = np.stack([state.orbitals.reshape(config.site_count, 2, -1)]
                   * len(potentials), axis=1)
    # exp(-i h0 dt)^stride = exp(-i h0 stride dt): one rotation per sample
    free = (_free_rotation(basis, sample_stride * dt_eff)
            if all(isinstance(p, ZeroPotential) for p in potentials) else None)
    multiple = 1 if free is not None else _magnus_multiple(n_steps, sample_stride)

    def advance(part: np.ndarray, time: float):
        """The tensor and the time one sample interval on; the time adds dt
        one step at a time."""
        if free is not None:
            part = free(part)
        for k in range(sample_stride):
            if free is None and k % multiple == 0:
                part = _time_step(basis, part, potentials, time, dt_eff, multiple)
            time = time + dt_eff
        return part, time

    intervals = n_steps // sample_stride
    time = state.time
    times, samples = [time], [_observe(basis, state.subtractions, psi)]
    # the split's work is counted in ``_propagate`` calls, two per CFM4 step
    split = free is None and _splits(
        psi, n_steps if multiple == 1 else 2 * (n_steps // multiple))
    with (_second_process(psi, time, advance, intervals) if split
          else nullcontext((psi, None))) as (part, receive):
        for _ in range(intervals):
            part, time = advance(part, time)
            psi = part if receive is None else np.concatenate([part, receive()], axis=-1)
            times.append(time)
            samples.append(_observe(basis, state.subtractions, psi))
    # each (n_t, n_branch, ...)
    density, current, energy, rate = map(np.array, zip(*samples))
    residual = rate + spectral_derivative(current.T, config.box_length).T
    return [(Trajectory(basis, potential.provenance, np.array(times), density[:, b],
                        current[:, b], energy[:, b], rate[:, b], residual[:, b]),
             SlaterState(basis, state.reference,
                         psi[:, b].reshape(state.orbitals.shape), time,
                         state.subtractions))
            for b, potential in enumerate(potentials)]


def rate_identity_series(traj: Trajectory, potential: Potential) -> np.ndarray:
    """Per-sample defect of d xi0/dt = int (dJ/dt) A dx - int (d rho/dt) A0 dx.

    Time derivatives are centered differences of the sampled series, so the
    defect vanishes as the square of the sample spacing; the two endpoint
    entries are NaN.
    """
    n_t = len(traj.times)
    if n_t < 3:
        raise ValueError("need at least three samples for centered differences")
    a = traj.basis.config.spacing
    h = traj.sample_spacing
    out = np.full(n_t, np.nan)
    for i in range(1, n_t - 1):
        t = traj.times[i]
        dxi = (traj.free_energy[i + 1] - traj.free_energy[i - 1]) / (2 * h)
        dj = (traj.current[i + 1] - traj.current[i - 1]) / (2 * h)
        drho = (traj.density[i + 1] - traj.density[i - 1]) / (2 * h)
        a0, vector = potential.fields(t)
        rhs = a * np.sum(dj * vector) - a * np.sum(drho * a0)
        out[i] = abs(dxi - rhs)
    return out


def rate_identity_residual(traj: Trajectory, potential: Potential) -> float:
    """Max of ``rate_identity_series`` over the interior samples."""
    return float(np.nanmax(rate_identity_series(traj, potential)))


def gaussian_packet_coefficients(basis: ModeBasis, p_center: float,
                                 sigma: float):
    """Positive-branch mode indices and Gaussian weights for a wave packet."""
    if not (sigma > 0 and 0.0 < sigma * sigma < np.inf):
        raise ValueError("sigma must be positive, with a square that neither "
                         "underflows to 0 nor overflows")
    idx = np.where(basis.lam > 0)[0]
    p = basis.momentum[idx]
    # a far p_center overflows the square: refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(-((p - p_center) ** 2) / (4.0 * sigma**2))
    edge = np.abs(p).max()
    edge_weight = weights[np.abs(p) == edge].max()
    # false on NaN weights (a NaN p_center) and on weights that all underflow
    # (an infinite or far p_center), so those are refused too
    if not (weights.max() > 0 and edge_weight <= 1e-8 * weights.max()):
        raise ValueError(
            "packet support reaches the momentum cutoff; narrow sigma or "
            "recenter p_center"
        )
    coeffs = weights / np.sqrt(np.sum(weights**2))
    if np.sum(coeffs > 1e-3) < 2:
        warnings.warn(
            "packet is effectively a single eigenmode; its density is "
            "stationary and carries no density rate",
            stacklevel=2,
        )
    return idx, coeffs


def excite_wavepacket(state: SlaterState, p_center: float,
                      sigma: float) -> SlaterState:
    """Append a normalized positive-branch Gaussian packet orbital."""
    idx, coeffs = gaussian_packet_coefficients(state.basis, p_center, sigma)
    orbital = state.basis.flat[:, idx] @ coeffs
    orbitals = np.concatenate([state.orbitals, orbital[:, None]], axis=1)
    return SlaterState(state.basis, state.reference, orbitals, state.time,
                       state.subtractions)


def build_kick_chi(traj: Trajectory, strength: float, t_start: float,
                   t_stop: float) -> PureGaugePotential:
    """The density-rate kick of a potential-free trajectory:
    chi(x,t) = strength * ramp(t) * (d rho/dt)(x, t_stop), the ramp reaching
    exactly 1 at t_stop, so chi = d chi/dt = 0 at t_start."""
    if traj.provenance != "zero":
        raise ValueError("kick construction requires a potential-free trajectory")
    profile = traj.density_rate[traj.index_of(t_stop)]
    return PureGaugePotential(traj.basis.config, profile, strength, t_start,
                              t_stop)


@dataclass
class GaugePairReport:
    """Outcome of evolving the same state with and without a pure-gauge kick."""

    gauge_branch: Trajectory
    max_density_deviation: float
    max_current_deviation: float
    free_energy_free_tb: float
    free_energy_gauge_tb: float
    predicted_gauge_tb: float
    predicted_gauge_tb_branch2: float


def gauge_pair_sweep(state: SlaterState, kick: PureGaugePotential, factors,
                     free_branch: Trajectory, dt: float,
                     sample_stride: int = 1) -> list[GaugePairReport]:
    """One pure-gauge branch per factor f, each against ``free_branch``.

    Branch f is ``kick``'s profile and window at strength
    f * ``kick.strength`` (for a unit kick, f * +-1.0, exactly the strength
    of a kick built at f); the branches advance together
    (``run_branches``).  ``state`` is prepared at the kick's start;
    ``free_branch`` is its potential-free trajectory with the kick's window
    and the same step and stride.  Each
    report holds the worst observable deviation between its branch and the
    free one, the final free-field energies, and the first-order prediction
    xi0_free(t_b) - int (d rho_free/dt)(x, t_b) chi(x, t_b) dx, evaluated
    with the density rate of either branch (both are reported; they agree
    exactly only when the lattice is exactly gauge covariant).
    """
    if abs(state.time - kick.t_start) > 1e-12:
        raise ValueError("state must be prepared at the kick's start")
    if free_branch.provenance != "zero":
        raise ValueError("free_branch must be a potential-free trajectory")
    kicks = [PureGaugePotential(kick.config, kick.profile, f * kick.strength,
                                kick.t_start, kick.t_stop) for f in factors]
    branches = [traj for traj, _ in run_branches(state, kicks, kick.t_stop,
                                                 dt, sample_stride)]
    traj1 = free_branch
    if branches and not np.array_equal(branches[0].times, traj1.times):
        raise ValueError("free_branch is not sampled at the branch times")
    a = state.basis.config.spacing
    i_tb = traj1.index_of(kick.t_stop)
    reports = []
    for branch_kick, traj2 in zip(kicks, branches):
        dev_rho = float(np.abs(traj2.density - traj1.density).max())
        dev_cur = float(np.abs(traj2.current - traj1.current).max())
        chi_tb = branch_kick.chi(kick.t_stop)
        pred1 = traj1.free_energy[i_tb] - a * np.sum(traj1.density_rate[i_tb] * chi_tb)
        pred2 = traj1.free_energy[i_tb] - a * np.sum(traj2.density_rate[i_tb] * chi_tb)
        reports.append(GaugePairReport(traj2, dev_rho, dev_cur,
                                       float(traj1.free_energy[i_tb]),
                                       float(traj2.free_energy[i_tb]),
                                       float(pred1), float(pred2)))
    return reports
