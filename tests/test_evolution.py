import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

import dense_reference as dense
from dense_reference import single_particle_hamiltonian
from diracsea import cli
from diracsea import evolution as ev
from diracsea import fock
from diracsea.lattice import LatticeConfig, build_basis
from diracsea.operators import charge_kernel, current_kernel, free_hamiltonian_kernel, renorm_constants
from diracsea.vacua import VacuumSpec, coupled_band_spec, occupation_set

TWO_PI = 2.0 * np.pi


def default_dt(basis):
    return 0.01 * TWO_PI / basis.max_energy


def packet_state(basis, p_center=2.0, sigma=0.2):
    return ev.excite_wavepacket(
        ev.vacuum_state(basis, VacuumSpec("standard")), p_center, sigma)


def dense_propagator(h, dt):
    """Reference exp(-i h dt) by diagonalising the dense h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def one_step(state, potential, dt):
    """One midpoint-exponential step, through the package's evolution loop."""
    return ev.run_trajectory(state, potential, state.time + dt, dt)[1]


def apply_h(basis, orbitals, potential, t):
    """h(t) orbitals, (2N, n_orb), with the couplings a step uses at t."""
    psi = orbitals.reshape(basis.config.site_count, 1, 2, -1)
    couplings = ev._couplings(basis.config, [potential], t)
    return (1j * ev._minus_i_h(basis, *couplings)(psi)).reshape(orbitals.shape)


def kicked_packet(basis, strength, sigma=0.2, t_stop=1.0):
    """Packet state and the pure-gauge potential of its density-rate kick."""
    state = packet_state(basis, sigma=sigma)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config), t_stop,
                                default_dt(basis), sample_stride=10)
    gauge = ev.build_kick_chi(free, strength, 0.0, t_stop)
    return state, ev.PureGaugePotential(gauge)


def test_vacuum_observables_vanish(basis_n9):
    snap = ev.observables(ev.vacuum_state(basis_n9, VacuumSpec("standard")))
    assert np.abs(snap.density).max() < 1e-13
    assert np.abs(snap.current).max() < 1e-13
    assert abs(snap.free_energy) < 1e-12


def test_one_particle_energy_and_charge(basis_n9):
    state = ev.vacuum_state(basis_n9, VacuumSpec("standard"))
    added = np.where(basis_n9.lam > 0)[0][2]
    orbitals = np.concatenate(
        [state.orbitals, basis_n9.flat[:, [added]]], axis=1)
    state = ev.SlaterState(basis_n9, state.reference, orbitals, 0.0)
    snap = ev.observables(state)
    assert snap.free_energy == pytest.approx(basis_n9.energy[added], abs=1e-12)
    total = basis_n9.config.spacing * snap.density.sum()
    assert total == pytest.approx(basis_n9.config.charge, abs=1e-12)


def test_eigenmode_phase_evolution(basis_n9):
    mode = 3
    state = ev.SlaterState(
        basis_n9, occupation_set(VacuumSpec("bare"), basis_n9),
        basis_n9.flat[:, [mode]].copy(), 0.0)
    span = 0.7
    traj, final = ev.run_trajectory(
        state, ev.ZeroPotential(basis_n9.config), span, default_dt(basis_n9))
    phase = np.exp(-1j * basis_n9.lam[mode] * basis_n9.energy[mode] * span)
    assert np.abs(final.orbitals[:, 0]
                  - phase * basis_n9.flat[:, mode]).max() < 1e-10


def test_unitarity_and_norms(basis_n9):
    state = packet_state(basis_n9)
    profile = 0.4 * np.cos(basis_n9.config.grid)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, profile, 1.0,
                                            0.0, 1.0)
    final = state
    for _ in range(60):
        final = one_step(final, ev.PureGaugePotential(gauge), 1.0 / 60)
    assert final.gram_defect() < 1e-12


def test_matrix_free_hamiltonian_matches_dense(basis_n9):
    state, pot = kicked_packet(basis_n9, 0.3)
    t = 0.4
    dense = single_particle_hamiltonian(basis_n9, pot, t) @ state.orbitals
    matrix_free = apply_h(basis_n9, state.orbitals, pot, t)
    assert np.abs(matrix_free - dense).max() < 1e-13
    free = basis_n9.free_hamiltonian_matrix() @ state.orbitals
    assert np.abs(ev.apply_hamiltonian(basis_n9, state.orbitals) - free).max() < 1e-13


@pytest.mark.parametrize("n_sites", [125, 201])
def test_matrix_free_hamiltonian_matches_dense_at_large_n(n_sites, rng):
    """h psi under a potential at N = 5^3 and 3 * 67.  The tolerance is
    relative: the dense reference, built as U diag(lam E) U^dag, itself
    rounds to about 1e-12 absolute at N = 201, where |h psi| reaches 50."""
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
    x = basis.config.grid
    pot = ev.Potential(basis.config, a0_fn=lambda t: 3.0 * np.cos(x + t),
                       a_fn=lambda t: 2.0 * np.sin(2.0 * x - t))
    psi = rng.normal(size=(2 * n_sites, 6)) + 1j * rng.normal(size=(2 * n_sites, 6))
    psi /= np.sqrt(basis.config.spacing * (np.abs(psi) ** 2).sum(axis=0))
    dense = single_particle_hamiltonian(basis, pot, 0.3) @ psi
    matrix_free = apply_h(basis, psi, pot, 0.3)
    assert np.abs(matrix_free - dense).max() < 1e-12 * np.abs(dense).max()


def test_recorded_density_rate_matches_dense(basis_n9):
    state, pot = kicked_packet(basis_n9, 0.3)
    t = 0.4  # mid-window, where both A0 and A are nonzero
    traj, final = ev.run_trajectory(state, pot, t, default_dt(basis_n9))
    a0, a = pot.fields(t)
    assert np.abs(a0).max() > 0 and np.abs(a).max() > 0
    h = single_particle_hamiltonian(basis_n9, pot, final.time)
    h_psi = h @ final.orbitals
    psi = final.orbitals.reshape(9, 2, -1)
    dense = 2.0 * basis_n9.config.charge * np.einsum(
        "jso,jso->j", psi.conj(), h_psi.reshape(9, 2, -1)).imag
    assert np.abs(traj.density_rate[-1] - dense).max() < 1e-13


@pytest.mark.parametrize("n_sites, sigma", [(9, 0.2), (27, 0.8)])
def test_step_matches_dense_midpoint_exponential(n_sites, sigma):
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
    state, kicked = kicked_packet(basis, 4.0, sigma)
    # the ramp rate, and with it the Chebyshev radius, peaks mid-window
    start = ev.SlaterState(basis, state.reference, state.orbitals, 0.5,
                           state.subtractions)
    x = basis.config.grid
    strong = ev.Potential(basis.config, a0_fn=lambda t: 50.0 * np.cos(x),
                          a_fn=lambda t: 30.0 * np.sin(2.0 * x))
    cases = [(kicked, default_dt(basis)),
             (ev.ZeroPotential(basis.config), default_dt(basis)),
             (strong, 0.1)]  # R dt near 10: about 30 Chebyshev terms
    for pot, dt in cases:
        h = single_particle_hamiltonian(basis, pot, start.time + 0.5 * dt)
        expected = dense_propagator(h, dt) @ start.orbitals
        stepped = one_step(start, pot, dt)
        assert np.abs(stepped.orbitals - expected).max() < 1e-13
        assert stepped.time == start.time + dt


def magnus_cases(basis):
    """The kicked and strong cases of the midpoint test, from t = 0.5, each
    with a step dt that a CFM4 step of 5 dt spans."""
    state, kicked = kicked_packet(basis, 4.0, 0.2 if basis.config.site_count == 9
                                  else 0.8)
    start = ev.SlaterState(basis, state.reference, state.orbitals, 0.5,
                           state.subtractions)
    x = basis.config.grid
    strong = ev.Potential(basis.config, a0_fn=lambda t: 50.0 * np.cos(x + t),
                          a_fn=lambda t: 30.0 * np.sin(2.0 * x - t))
    return start, [(kicked, default_dt(basis)), (strong, 0.02)]


@pytest.mark.parametrize("n_sites", [9, 27])
def test_magnus_step_matches_dense_product_of_its_exponentials(n_sites):
    """One CFM4 step of h = 5 dt against the dense exp(-i H_2 h/2)
    exp(-i H_1 h/2), H_1 = 2 (a_2 h(t_1) + a_1 h(t_2)) and H_2 = 2 (a_1
    h(t_1) + a_2 h(t_2)) at the Gauss nodes t_1,2 = t + (1/2 -+ sqrt(3)/6) h."""
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
    start, cases = magnus_cases(basis)
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    psi = start.orbitals.reshape(n_sites, 1, 2, -1)
    for pot, dt in cases:
        h = 5 * dt
        h1, h2 = (single_particle_hamiltonian(basis, pot, start.time + c * h)
                  for c in (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0))
        expected = (dense_propagator(2.0 * (a1 * h1 + a2 * h2), 0.5 * h)
                    @ dense_propagator(2.0 * (a2 * h1 + a1 * h2), 0.5 * h)
                    @ start.orbitals)
        stepped = ev._time_step(basis, psi, [pot], start.time, dt, 5)
        assert np.abs(stepped.reshape(expected.shape) - expected).max() < 1e-13


def test_magnus_step_past_the_series_bound_takes_midpoint_steps(basis_n9,
                                                                monkeypatch):
    """Where a CFM4 half-step's series would exceed ``MAX_SERIES_TERMS``
    and a midpoint step's would not, a run takes midpoint steps, bit for bit
    the stride-1 run's, instead of refusing the kick."""
    start, cases = magnus_cases(basis_n9)
    strong, dt = cases[1]
    times = start.time + dt * np.arange(40)

    def orders(v0, v1, step):  # the Bessel orders ``_series_fits`` bounds
        z = ev._series_radius(basis_n9, v0, v1) * step
        return z + 20.0 * np.cbrt(z) + 30

    config = basis_n9.config
    midpoint = max(orders(*ev._couplings(config, [strong], t + 0.5 * dt), dt)
                   for t in times)
    half = min(orders(*ev._couplings(config, [strong], t + c * 5 * dt), 2.5 * dt)
               for t in times[::5]
               for c in (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0))
    assert int(midpoint) + 1 < half and ev._magnus_multiple(40, 5) == 5
    monkeypatch.setattr(ev, "MAX_SERIES_TERMS", int(midpoint) + 1)
    _, coarse = ev.run_trajectory(start, strong, start.time + 40 * dt, dt, 5)
    _, fine = ev.run_trajectory(start, strong, start.time + 40 * dt, dt, 1)
    assert np.array_equal(coarse.orbitals, fine.orbitals)


@pytest.mark.parametrize("n_steps, stride, multiple", [
    (320, 10, 5),  # the shipped extract-energy: 64 CFM4 steps
    (40, 5, 5),    # the bench's kick-large N = 81: 8 CFM4 steps
    (20, 5, 1),    # its N = 201: 4 CFM4 steps would be too few
    (320, 1, 1),   # every sample a step apart
    (320, 7, 1),   # no divisor of the stride from 2 to 5
    (36, 6, 3),
    (32, 4, 4),
    (24, 4, 2),    # 6 steps of 4 dt are too few, 12 of 2 dt are not
])
def test_magnus_multiple(n_steps, stride, multiple):
    assert ev._magnus_multiple(n_steps, stride) == multiple


def test_step_rejects_non_finite_input(basis_n9):
    state = packet_state(basis_n9)
    for bad in (np.nan, np.inf):
        pot = ev.Potential(basis_n9.config, a_fn=lambda t: np.full(9, bad))
        with pytest.raises(ValueError):
            one_step(state, pot, 0.01)
    with pytest.raises(ValueError):
        one_step(state, ev.ZeroPotential(basis_n9.config), np.nan)


def test_batched_branches_match_single_runs(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config), 1.0,
                                dt, sample_stride=5)
    strengths = (0.01, 0.4, 4.0)
    unit = ev.build_kick_chi(free, 1.0, 0.0, 1.0)
    reports = ev.gauge_pair_sweep(state, unit, strengths, free, dt, 5)
    for f, report in zip(strengths, reports):
        gauge = ev.build_kick_chi(free, f, 0.0, 1.0)
        single, _ = ev.run_trajectory(state, ev.PureGaugePotential(gauge), 1.0,
                                      dt, sample_stride=5)
        batched = report.gauge_branch
        assert np.array_equal(batched.times, single.times)
        for name in ("density", "current", "free_energy", "density_rate"):
            assert np.abs(getattr(batched, name)
                          - getattr(single, name)).max() < 1e-12, name
    with pytest.raises(ValueError):  # free branch sampled at another stride
        ev.gauge_pair_sweep(state, unit, strengths, free, dt, 10)


def shared_shape(gauge, strengths):
    """Pure-gauge potentials of ``gauge``'s shape and window at each strength
    times its own, built as ``gauge_pair_sweep`` builds its branches."""
    return [ev.PureGaugePotential(ev.GaugeFunction(
        gauge.config, f * gauge.strength, gauge.t_start, gauge.t_stop,
        gauge.profile)) for f in strengths]


def per_potential_couplings(config, potentials, t):
    """(q A0, -q A) of each potential's own ``fields``, stacked per branch."""
    fields = [potential.fields(t) for potential in potentials]
    return (np.stack([config.charge * a0 for a0, _ in fields], axis=-1),
            np.stack([-config.charge * a for _, a in fields], axis=-1))


SHIPPED_STRENGTHS = (0.01, 0.02, 0.03, 0.04, 0.1, 0.2, 0.4, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("batch", ["ramped_profile", "mixed"])
def test_batched_couplings_are_each_potentials_own(batch):
    """A group of kicks sharing one shape, and a mixed batch (that shape,
    also in another window, a plain ``Potential`` and a ``ZeroPotential``),
    give each branch its own potential's couplings, bit for bit."""
    config = LatticeConfig(TWO_PI, 9, 1.0, -0.5)
    kicks = synthetic_kicks(config)
    if batch == "mixed":
        x = config.grid
        shape = kicks["ramped_profile"]
        ramped = shared_shape(shape, (0.3, -2.0))
        other_window = ev.PureGaugePotential(ev.GaugeFunction(
            config, 0.5, 0.2, 0.8, shape.profile))
        potentials = [ramped[0], ev.Potential(
            config, a0_fn=lambda t: 0.2 * np.cos(x + t)),
            ramped[1], other_window, ev.ZeroPotential(config)]
    else:
        potentials = shared_shape(kicks[batch], SHIPPED_STRENGTHS + (-0.3,))
    for t in (-0.2, 0.0, 0.2137, 0.5311, 1.0, 1.3):
        v0, v1 = ev._couplings(config, potentials, t)
        expected0, expected1 = per_potential_couplings(config, potentials, t)
        assert v0.shape == v1.shape == (9, len(potentials))
        assert np.array_equal(v0, expected0) and np.array_equal(v1, expected1), t
        if 0.0 < t < 1.0:  # inside the kicks' window both fields act
            assert np.abs(v0).max() > 0 and np.abs(v1).max() > 0


def test_batched_couplings_refuse_a_nan_profile():
    config = LatticeConfig(TWO_PI, 9, 1.0)
    profile = np.cos(config.grid)
    profile[4] = np.nan
    # past ``ramped_profile``, which refuses a non-finite profile itself
    static = (profile, np.zeros(9))
    gauge = ev.GaugeFunction(config, 1.0, 0.0, 1.0, lambda t: static)
    with pytest.raises(ValueError, match=r"^potential is not finite at t=0\.5$"):
        ev._couplings(config, shared_shape(gauge, (0.01, 0.4)), 0.5)


def test_couplings_refuse_a_nan_time():
    """The ramp keeps a NaN time NaN, so its fields are refused, not clamped."""
    config = LatticeConfig(TWO_PI, 9, 1.0)
    gauge = ev.GaugeFunction.ramped_profile(config, np.cos(config.grid), 1.0,
                                            0.0, 1.0)
    assert np.isnan(ev.ramp(np.nan)).all()
    with pytest.raises(ValueError, match=r"^potential is not finite at t=nan$"):
        ev._couplings(config, [ev.PureGaugePotential(gauge)], np.float64(np.nan))


@pytest.mark.parametrize("t_start, t_stop", [
    (0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0), (1.0, 0.5)])
def test_gauge_window_must_be_finite_and_ordered(t_start, t_stop):
    config = LatticeConfig(TWO_PI, 9, 1.0)
    with pytest.raises(ValueError, match="gauge window"):
        ev.GaugeFunction.ramped_profile(config, np.cos(config.grid), 1.0,
                                        t_start, t_stop)


def test_shipped_sweep_evaluates_its_kick_shape_once_per_step(tmp_path,
                                                             monkeypatch):
    """In an in-turn run of the shipped extract-energy, each of the two
    Gauss nodes of its 64 CFM4 steps calls the ramp and the kicks' one
    profile once for all ten kicked strengths."""
    calls, per_step = [], []
    build, couplings, ramp = ev.build_kick_chi, ev._couplings, ev.ramp

    def spied_kick(*args):
        gauge = build(*args)
        profile = gauge.profile
        gauge.profile = lambda t: calls.append("profile") or profile(t)
        return gauge

    def counted(config, potentials, t):
        before = len(calls)
        out = couplings(config, potentials, t)
        per_step.append(sorted(calls[before:]))
        return out

    monkeypatch.setattr(ev, "build_kick_chi", spied_kick)
    monkeypatch.setattr(ev, "ramp", lambda s: calls.append("ramp") or ramp(s))
    monkeypatch.setattr(ev, "_couplings", counted)
    monkeypatch.setattr(ev, "_splits", lambda psi, n_steps: False)
    shipped = Path(__file__).resolve().parents[1] / "configs" / "extract_energy.json"
    assert cli.main(["extract-energy", "--config", str(shipped),
                     "--out", str(tmp_path)]) == 0
    assert len(per_step) == 128
    assert all(step == ["profile", "ramp"] for step in per_step)


def test_kicks_sharing_the_unit_shape_change_no_report(basis_n9):
    """The sweep's branches, which share the unit kick's shape, are bit for
    bit the branches of kicks built one per strength, and so is chi(t_b)."""
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config), 1.0,
                                dt, sample_stride=5)
    strengths = (0.01, 0.4, 4.0)
    unit = ev.build_kick_chi(free, 1.0, 0.0, 1.0)
    shared = [potential.gauge for potential in shared_shape(unit, strengths)]
    own = [ev.build_kick_chi(free, f, 0.0, 1.0) for f in strengths]
    assert len({g.profile for g in shared}) == 1
    assert len({g.profile for g in own}) == len(strengths)  # a shape each
    reports = ev.gauge_pair_sweep(state, unit, strengths, free, dt, 5)
    branches = ev.run_branches(state, [ev.PureGaugePotential(g) for g in own],
                               1.0, dt, 5)
    for report, (traj, _), gauge1, gauge2 in zip(reports, branches, shared, own):
        for field_name in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(report.gauge_branch, field_name),
                                  getattr(traj, field_name)), field_name
        assert np.array_equal(gauge1.chi(1.0), gauge2.chi(1.0))


def test_last_sample_observes_the_final_state(basis_n9):
    state, kicked = kicked_packet(basis_n9, 0.3)
    branches = ev.run_branches(state, [kicked, ev.ZeroPotential(basis_n9.config)],
                               0.6, default_dt(basis_n9), sample_stride=7)
    for traj, final in branches:
        snap = ev.observables(final)
        assert traj.times[-1] == final.time
        for name in ("density", "current", "free_energy", "density_rate"):
            assert np.abs(getattr(traj, name)[-1]
                          - getattr(snap, name)).max() < 1e-13, name


def test_step_is_second_order(basis_n9):
    state = packet_state(basis_n9)
    profile = 0.4 * np.cos(basis_n9.config.grid)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, profile, 1.0,
                                            0.0, 0.8)
    pot = ev.PureGaugePotential(gauge)

    def final_energy(dt):
        _, fin = ev.run_trajectory(state, pot, 0.8, dt)
        return ev.observables(fin).free_energy

    reference = final_energy(0.8 / 512)
    errors = [abs(final_energy(0.8 / n) - reference) for n in (16, 32, 64)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_magnus_steps_are_fourth_order(basis_n9):
    """The second-order test's run, sampled every 5 steps, so that it takes
    CFM4 steps of 5 dt: 8, 16 and 32 of them."""
    state = packet_state(basis_n9)
    profile = 0.4 * np.cos(basis_n9.config.grid)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, profile, 1.0,
                                            0.0, 0.8)
    pot = ev.PureGaugePotential(gauge)

    def final_energy(n_steps):
        assert ev._magnus_multiple(n_steps, 5) == 5
        _, fin = ev.run_trajectory(state, pot, 0.8, 0.8 / n_steps, 5)
        return ev.observables(fin).free_energy

    reference = final_energy(1280)
    errors = [abs(final_energy(n) - reference) for n in (40, 80, 160)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_zero_potential_conserves_free_energy(basis_n9):
    state = packet_state(basis_n9)
    traj, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                10.0 * TWO_PI / 1.0, default_dt(basis_n9),
                                sample_stride=50)
    drift = np.abs(traj.free_energy - traj.free_energy[0]).max()
    assert drift < 1e-8


def test_constant_scalar_potential_shifts_spectrum(basis_n9):
    shift = 0.37
    pot = ev.Potential(basis_n9.config,
                       a0_fn=lambda t: np.full(9, shift))
    h = single_particle_hamiltonian(basis_n9, pot, 0.0)
    h0 = basis_n9.free_hamiltonian_matrix()
    shifted = np.sort(np.linalg.eigvalsh(h))
    base = np.sort(np.linalg.eigvalsh(h0)) + basis_n9.config.charge * shift
    assert np.abs(shifted - base).max() < 1e-12


def test_pure_gauge_vanishes_at_start(basis_n9):
    state = packet_state(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.0, default_dt(basis_n9))
    gauge = ev.build_kick_chi(traj1, 0.5, 0.0, 1.0)
    assert np.abs(gauge.chi(0.0)).max() == 0.0
    pot = ev.PureGaugePotential(gauge)
    assert np.abs(pot.fields(0.0)[0]).max() == 0.0
    h = single_particle_hamiltonian(basis_n9, pot, 0.0)
    assert np.abs(h - basis_n9.free_hamiltonian_matrix()).max() < 1e-13


def test_observables_match_fock_oracle(basis_n3, rng):
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    state = ev.vacuum_state(basis_n3, occ)
    # N = 3 has no room for a guarded Gaussian packet; add a two-mode
    # superposition by hand
    pos = np.where(basis_n3.lam > 0)[0]
    orbital = (0.8 * basis_n3.flat[:, pos[0]] + 0.6 * basis_n3.flat[:, pos[1]])
    packet = ev.SlaterState(
        basis_n3, occ,
        np.concatenate([state.orbitals, orbital[:, None]], axis=1), 0.0)
    # rotate into the mode basis and rebuild the state in Fock space
    coeffs = np.stack([dense.mode_coefficients(basis_n3, packet.orbitals[:, o])
                       for o in range(packet.orbital_count)], axis=1)
    ladders = dense.build_ladders(6)
    vec = dense.slater_vector(ladders, coeffs)
    constants = renorm_constants(basis_n3, occ)
    snap = ev.observables(packet)
    for j in range(3):
        rho_op = dense.bilinear_matrix(
            ladders, charge_kernel(basis_n3, j).with_subtraction(constants.rho[j]))
        cur_op = dense.bilinear_matrix(
            ladders,
            current_kernel(basis_n3, j).with_subtraction(constants.current[j]))
        assert dense.expectation(vec, rho_op).real == pytest.approx(
            snap.density[j], abs=1e-11)
        assert dense.expectation(vec, cur_op).real == pytest.approx(
            snap.current[j], abs=1e-11)
    h0_op = dense.bilinear_matrix(ladders, free_hamiltonian_kernel(basis_n3, occ))
    assert dense.expectation(vec, h0_op).real == pytest.approx(
        snap.free_energy, abs=1e-11)


def test_wavepacket_guards(basis_n9):
    state = ev.vacuum_state(basis_n9, VacuumSpec("standard"))
    with pytest.raises(ValueError):
        ev.excite_wavepacket(state, 3.9, 1.5)  # reaches the cutoff
    with pytest.raises(ValueError, match="sigma must be positive"):
        ev.excite_wavepacket(state, 2.0, np.nan)
    for p_center in (np.nan, np.inf, 1e3):  # 1e3: every weight underflows
        with pytest.raises(ValueError, match="cutoff"):
            ev.excite_wavepacket(state, p_center, 0.5)
    with pytest.warns(UserWarning):
        ev.excite_wavepacket(state, 2.0, 0.05)  # single-mode packet
    packet = ev.excite_wavepacket(state, 2.0, 0.2)
    assert packet.gram_defect() < 1e-12


def test_two_mode_beat_frequency(basis_n9):
    """A two-mode superposition makes the density breathe at E1 - E2."""
    pos = np.where(basis_n9.lam > 0)[0]
    picked = [int(pos[1]), int(pos[3])]
    orbital = (basis_n9.flat[:, picked[0]] + basis_n9.flat[:, picked[1]]) / np.sqrt(2)
    state = ev.SlaterState(basis_n9,
                           occupation_set(VacuumSpec("bare"), basis_n9),
                           orbital[:, None], 0.0)
    beat = abs(basis_n9.energy[picked[0]] - basis_n9.energy[picked[1]])
    span = 3.0 * TWO_PI / beat
    traj, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                span, default_dt(basis_n9))
    series = traj.density[:, 0] - traj.density[:, 0].mean()
    freqs = np.fft.rfftfreq(len(series), d=traj.sample_spacing) * TWO_PI
    spectrum = np.abs(np.fft.rfft(series))
    assert freqs[spectrum.argmax()] == pytest.approx(beat, rel=0.05)


def test_density_rate_matches_finite_difference(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    traj, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                20 * dt, dt)
    i = len(traj.times) // 2
    fd = (traj.density[i + 1] - traj.density[i - 1]) / (2 * traj.sample_spacing)
    assert np.abs(traj.density_rate[i] - fd).max() < 5.0 * traj.sample_spacing**2


def test_unsampled_time_is_refused(basis_n9):
    free, _ = ev.run_trajectory(packet_state(basis_n9),
                                ev.ZeroPotential(basis_n9.config), 1.0,
                                default_dt(basis_n9), sample_stride=10)
    assert free.index_of(1.0) == len(free.times) - 1
    for t in (np.nan, np.inf, 1.5):
        with pytest.raises(ValueError, match="not sampled"):
            free.index_of(t)
    with pytest.raises(ValueError, match="not sampled"):
        ev.build_kick_chi(free, 0.1, 0.0, np.nan)


def test_kick_requires_free_trajectory(basis_n9):
    state = packet_state(basis_n9)
    profile = 0.1 * np.cos(basis_n9.config.grid)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, profile, 1.0,
                                            0.0, 1.0)
    traj, _ = ev.run_trajectory(state, ev.PureGaugePotential(gauge), 1.0,
                                default_dt(basis_n9))
    with pytest.raises(ValueError):
        ev.build_kick_chi(traj, 0.1, 0.0, 1.0)


def test_zero_strength_kick_is_inert(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.0, dt)
    gauge = ev.build_kick_chi(traj1, 0.0, 0.0, 1.0)
    report = ev.gauge_pair_sweep(state, gauge, [1.0], traj1, dt)[0]
    assert report.max_density_deviation == 0.0
    assert report.max_current_deviation == 0.0
    assert report.free_energy_gauge_tb == pytest.approx(
        report.free_energy_free_tb, abs=1e-14)


def test_uniform_gauge_function_leaves_observables_alone(basis_n9):
    """Spatially constant chi only multiplies every orbital by one phase."""
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    gauge = ev.GaugeFunction.ramped_profile(
        basis_n9.config, np.full(9, 0.7), 1.0, 0.0, 1.0)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config), 1.0,
                                dt)
    report = ev.gauge_pair_sweep(state, gauge, [1.0], free, dt)[0]
    assert report.max_density_deviation < 1e-12
    assert report.max_current_deviation < 1e-12
    assert report.free_energy_gauge_tb == pytest.approx(
        report.free_energy_free_tb, abs=1e-10)


def test_density_rate_kick_extracts_energy(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    t_stop = 1.5
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 t_stop, dt)
    rate = traj1.density_rate[traj1.index_of(t_stop)]
    predicted_slope = -basis_n9.config.spacing * np.sum(rate**2)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                t_stop, dt, sample_stride=10)
    energies = []
    strengths = (0.01, 0.02, 0.04)
    for f in strengths:
        gauge = ev.build_kick_chi(traj1, f, 0.0, t_stop)
        report = ev.gauge_pair_sweep(state, gauge, [1.0], free, dt,
                                     sample_stride=10)[0]
        energies.append(report.free_energy_gauge_tb)
        assert report.free_energy_gauge_tb < report.free_energy_free_tb
        assert report.predicted_gauge_tb == pytest.approx(
            report.free_energy_free_tb + f * predicted_slope, abs=1e-12)
    slope = np.polyfit(strengths, energies, 1)[0]
    assert slope == pytest.approx(predicted_slope, rel=0.05)


def test_rate_identity_zero_potential(basis_n9):
    state = packet_state(basis_n9)
    pot = ev.ZeroPotential(basis_n9.config)
    traj, _ = ev.run_trajectory(state, pot, 1.0, default_dt(basis_n9))
    assert ev.rate_identity_residual(traj, pot) < 1e-10


def test_rate_identity_second_order(basis_n9):
    state = packet_state(basis_n9)
    dt0 = 4 * default_dt(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.5, dt0)
    gauge = ev.build_kick_chi(traj1, 0.3, 0.0, 1.5)
    pot = ev.PureGaugePotential(gauge)
    residuals = []
    for k in (2, 4, 8):
        traj, _ = ev.run_trajectory(state, pot, 1.5, dt0 / k)
        residuals.append(ev.rate_identity_residual(traj, pot))
    order = np.polyfit(np.log([2, 4, 8]), np.log(residuals), 1)[0]
    assert -order > 1.9


def synthetic_kicks(config):
    """The kick recipe on a synthetic input: the ramp on cos x."""
    return {"ramped_profile": ev.GaugeFunction.ramped_profile(
        config, np.cos(config.grid), 0.7, 0.0, 1.0)}


@pytest.mark.parametrize("recipe", ["ramped_profile"])
def test_kick_recipe_is_pure_gauge(recipe):
    """(A0, A) = (d chi/dt, -d chi/dx) at interior times: A0 against a
    centred difference of chi, A against chi's spectral derivative, so the
    kick carries no electric field."""
    config = LatticeConfig(TWO_PI, 9, 1.0)
    gauge = synthetic_kicks(config)[recipe]
    pot = ev.PureGaugePotential(gauge)
    h = 1e-5
    for t in (0.2137, 0.5311, 0.7777):
        a0, a = pot.fields(t)
        rate = (gauge.chi(t + h) - gauge.chi(t - h)) / (2.0 * h)
        gradient = ev.spectral_derivative(gauge.chi(t), config.box_length)
        assert np.abs(a0).max() > 1e-2 and np.abs(a).max() > 1e-2
        assert np.abs(a0 - rate).max() < 1e-7 * np.abs(a0).max()
        assert np.abs(a + gradient).max() < 1e-14 * np.abs(a).max()


def test_rate_identity_static_scalar_potential(basis_n9):
    state = packet_state(basis_n9)
    pot = ev.Potential(basis_n9.config,
                       a0_fn=lambda t: 0.2 * np.cos(basis_n9.config.grid))
    dt = 0.25 * default_dt(basis_n9)
    traj, _ = ev.run_trajectory(state, pot, 1.0, dt)
    # with A = 0 the identity reduces to the charge-rate term alone
    series = ev.rate_identity_series(traj, pot)
    a = basis_n9.config.spacing
    h = traj.sample_spacing
    i = len(traj.times) // 2
    dxi = (traj.free_energy[i + 1] - traj.free_energy[i - 1]) / (2 * h)
    drho = (traj.density[i + 1] - traj.density[i - 1]) / (2 * h)
    reduced = abs(dxi + a * np.sum(drho * pot.fields(traj.times[i])[0]))
    assert series[i] == pytest.approx(reduced, abs=1e-15)
    assert ev.rate_identity_residual(traj, pot) < 1e-6


def test_continuity_residual_vacuum_and_eigenmode(basis_n9):
    vacuum = ev.vacuum_state(basis_n9, VacuumSpec("standard"))
    traj, _ = ev.run_trajectory(vacuum, ev.ZeroPotential(basis_n9.config),
                                0.5, default_dt(basis_n9))
    assert np.abs(traj.residual).max() < 1e-12

    mode = ev.SlaterState(basis_n9,
                          occupation_set(VacuumSpec("bare"), basis_n9),
                          basis_n9.flat[:, [5]].copy(), 0.0)
    traj, _ = ev.run_trajectory(mode, ev.ZeroPotential(basis_n9.config),
                                0.5, default_dt(basis_n9))
    assert np.abs(traj.residual).max() < 1e-10


def test_continuity_residual_shrinks_with_cutoff():
    """A packet with near-cutoff tails aliases; refining the grid calms it."""
    residuals = []
    for n_sites in (9, 13, 17):
        config = LatticeConfig(TWO_PI, n_sites, 1.0, 1.0)
        basis = build_basis(config)
        pos = np.where(basis.lam > 0)[0]
        weights = np.exp(-basis.momentum[pos] ** 2 / (4 * 0.55**2))
        weights /= np.sqrt(np.sum(weights**2))
        orbital = basis.flat[:, pos] @ weights
        state = ev.SlaterState(basis, occupation_set(VacuumSpec("bare"), basis),
                               orbital[:, None], 0.0)
        traj, _ = ev.run_trajectory(state, ev.ZeroPotential(config), 0.5,
                                    default_dt(basis))
        residuals.append(np.abs(traj.residual).max())
    assert residuals[0] > 10 * residuals[1] > 100 * residuals[2]


def test_band_vacuum_gauge_pair_residual_shrinks():
    devs = []
    for n_sites in (9, 15):
        config = LatticeConfig(TWO_PI, n_sites, 1.0, 1.0)
        basis = build_basis(config)
        state = ev.vacuum_state(basis, coupled_band_spec(basis))
        profile = 0.2 * np.cos(TWO_PI * config.grid / config.box_length)
        gauge = ev.GaugeFunction.ramped_profile(config, profile, 1.0, 0.0, 1.5)
        dt = default_dt(basis)
        free, _ = ev.run_trajectory(state, ev.ZeroPotential(config), 1.5, dt,
                                    sample_stride=10)
        report = ev.gauge_pair_sweep(state, gauge, [1.0], free, dt,
                                     sample_stride=10)[0]
        devs.append(max(report.max_density_deviation,
                        report.max_current_deviation))
    assert devs[1] < devs[0] / 2


def test_gauge_pair_requires_aligned_start(basis_n9):
    state = packet_state(basis_n9)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, np.zeros(9), 1.0,
                                            0.5, 1.0)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config), 1.0,
                                0.01)
    with pytest.raises(ValueError):
        ev.gauge_pair_sweep(state, gauge, [1.0], free, 0.01)[0]


@pytest.fixture(scope="module")
def basis_n201():
    return build_basis(LatticeConfig(TWO_PI, 201, 1.0, 1.0))


def weak_potential(config):
    x = config.grid
    return ev.Potential(config, a0_fn=lambda t: 0.05 * np.cos(x + t),
                        a_fn=lambda t: 0.03 * np.sin(2.0 * x - t))


def test_bessel_weights_match_scipy():
    """Miller's recurrence against scipy.special.jv, from z = 0 to the largest
    R dt that ``MAX_SERIES_TERMS`` admits, with the same kept term count."""
    from scipy.special import jv

    largest = 9540.0  # z + 20 z^(1/3) + 30 <= 10^4
    assert int(largest + 20.0 * np.cbrt(largest)) + 30 <= ev.MAX_SERIES_TERMS
    grid = np.concatenate([[0.0, 1e-300, 1e-12, 1e-9, 1e-8, 1e-3, 0.0628, 0.085],
                           np.logspace(-2, np.log10(largest), 120)])
    for z in grid:
        count = int(z + 20.0 * np.cbrt(z)) + 30  # the orders _propagate asks for
        mine, ref = ev._bessel_weights(z, count), jv(np.arange(count), z)
        bound = 2.3e-16 if z <= 1.0 else 2e-13  # 1.1e-13 measured near z = 9000
        assert np.abs(mine - ref).max() <= bound, z
        assert ev._kept_terms(mine) == ev._kept_terms(ref), z


@pytest.mark.parametrize("z, terms", [(0.0, 2), (0.061, 8), (0.065, 8), (0.085, 9)])
def test_series_stops_where_its_tail_drops_below_rounding(z, terms):
    """At the bench's R dt the kept count is one term below the old
    |J_k| >= 1e-18 cutoff."""
    weights = ev._bessel_weights(z, int(z + 20.0 * np.cbrt(z)) + 30)
    assert ev._kept_terms(weights) == terms


def test_kept_terms_leave_a_tail_below_one_rounding_unit():
    """The kept terms leave a tail 2 sum |J_j| of at most eps / 2, and one
    term fewer would not (or only two terms are kept)."""
    for z in np.concatenate([[0.0], np.logspace(-9, np.log10(9540.0), 400)]):
        weights = ev._bessel_weights(z, int(z + 20.0 * np.cbrt(z)) + 30)
        terms = ev._kept_terms(weights)
        tail = 2.0 * np.abs(weights[terms:]).sum()
        assert tail <= 0.5 * np.finfo(float).eps, z
        assert terms == 2 or (tail + 2.0 * abs(weights[terms - 1])
                              > 0.5 * np.finfo(float).eps), z


needs_split = pytest.mark.skipif(
    not hasattr(os, "fork") or ev._openblas_threads() is None,
    reason="no os.fork, or numpy's BLAS exports no OpenBLAS thread setter")


def split_any_run(monkeypatch):
    """Lets every kicked run split, whatever its size and the machine's CPUs."""
    monkeypatch.setattr(ev, "SPLIT_WORK", 0)
    monkeypatch.setattr(ev, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ev, "_cpu_share", 1)


def record_forks(monkeypatch) -> list[int]:
    """The pids of the children that ``os.fork`` starts from here on."""
    forked, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no child of ours by that pid
            os.waitpid(pid, os.WNOHANG)


TRAJECTORY_FIELDS = ("times", "density", "current", "free_energy",
                     "density_rate", "residual")


@needs_split
def test_split_run_is_byte_identical_to_the_run_in_turn(basis_n9, monkeypatch):
    """The same multi-branch N = 9 run, in turn and with its second orbital
    half in a child process, agrees bit for bit; a free run stays in turn."""
    state, kicked = kicked_packet(basis_n9, 0.3)
    potentials = [kicked, weak_potential(basis_n9.config)]
    dt = default_dt(basis_n9)
    forked = record_forks(monkeypatch)
    in_turn = ev.run_branches(state, potentials, 0.6, dt, 4)
    assert forked == []  # below SPLIT_WORK
    split_any_run(monkeypatch)
    split = ev.run_branches(state, potentials, 0.6, dt, 4)
    assert len(forked) == 1
    for (traj1, final1), (traj2, final2) in zip(in_turn, split):
        for name in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(traj1, name), getattr(traj2, name)), name
        assert np.array_equal(final1.orbitals, final2.orbitals)
    zero = ev.ZeroPotential(basis_n9.config)
    ev.run_branches(state, [zero, zero], 0.6, dt, 4)
    assert len(forked) == 1
    assert_reaped(forked)


def test_split_step_equals_serial_halves(basis_n201):
    """One step on each half of the orbital axis, cut where a split run cuts
    it, is the step on the whole within 1e-14 (dgemm rounds by column
    block); a one-step N = 201 run, below ``SPLIT_WORK``, is the whole step
    bit for bit."""
    state = packet_state(basis_n201, sigma=0.8)
    pot = weak_potential(basis_n201.config)
    dt = default_dt(basis_n201)
    _, final = ev.run_trajectory(state, pot, dt, dt)
    psi = state.orbitals.reshape(201, 1, 2, -1)
    half = psi.shape[-1] // 2
    v0, v1 = ev._couplings(basis_n201.config, [pot], 0.5 * dt)
    def step(part):
        return ev._propagate(basis_n201, part, v0, v1, dt)

    whole = step(psi)
    split = np.concatenate([step(np.ascontiguousarray(psi[..., :half])),
                            step(np.ascontiguousarray(psi[..., half:]))], axis=-1)
    assert np.array_equal(final.orbitals, whole.reshape(final.orbitals.shape))
    assert np.abs(split - whole).max() < 1e-14


@needs_split
@pytest.mark.parametrize("cpus, share, splits", [
    (1, 1, False),  # one CPU
    (2, 1, True),
    (2, 2, False),  # one of two sweep workers on two CPUs
    (4, 2, True),
])
def test_split_needs_two_cpus_per_process(cpus, share, splits, basis_n9,
                                          monkeypatch):
    split_any_run(monkeypatch)
    monkeypatch.setattr(ev, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(ev, "_cpu_share", share)
    forked = record_forks(monkeypatch)
    dt = default_dt(basis_n9)
    ev.run_trajectory(packet_state(basis_n9), weak_potential(basis_n9.config),
                      8 * dt, dt, 2)
    assert len(forked) == int(splits)
    assert_reaped(forked)


@needs_split
@pytest.mark.parametrize("shape, steps, splits", [
    ((27, 10, 2, 28), 320, True),   # the shipped extract-energy sweep
    ((81, 1, 2, 82), 40, True),     # 40 midpoint steps of an N = 81 packet
    ((201, 1, 2, 202), 20, True),
    ((81, 1, 2, 82), 10, False),    # 1.3e5 entry-steps
    ((9, 3, 2, 10), 40, False),
    ((201, 1, 2, 1), 20, False),    # one orbital has no halves
])
def test_split_needs_enough_work(shape, steps, splits, monkeypatch):
    monkeypatch.setattr(ev, "_usable_cpus", lambda: 2)
    assert ev._splits(np.zeros(shape, dtype=complex), steps) == splits


@pytest.mark.parametrize("n_steps, stride, counted", [
    (40, 5, 16),  # 8 CFM4 steps of 5 dt, two exponentials each
    (20, 5, 20),  # midpoint steps
])
def test_split_counts_each_exponential_as_a_step(n_steps, stride, counted,
                                                 basis_n9, monkeypatch):
    seen = []
    monkeypatch.setattr(ev, "_splits",
                        lambda psi, steps: seen.append(steps) or False)
    state, kicked = kicked_packet(basis_n9, 0.3)
    dt = default_dt(basis_n9)
    ev.run_trajectory(state, kicked, n_steps * dt, dt, stride)
    assert seen == [counted]


@needs_split
def test_no_child_outlives_a_run(basis_n9, monkeypatch):
    """Reaped after a run, and after one that a kick past
    ``MAX_SERIES_TERMS`` stops mid-run in both processes."""
    split_any_run(monkeypatch)
    forked = record_forks(monkeypatch)
    dt = default_dt(basis_n9)
    ev.run_trajectory(packet_state(basis_n9), weak_potential(basis_n9.config),
                      8 * dt, dt, 2)
    state, huge = kicked_packet(basis_n9, 1e9)
    with pytest.raises(ValueError, match="Chebyshev terms"):
        ev.run_trajectory(state, huge, 1.0, dt, 2)
    assert len(forked) == 2
    assert_reaped(forked)


def test_no_thread_outlives_a_run(basis_n9, monkeypatch):
    """A run starts no thread, split or in turn: a split run's second half
    runs in a child process."""
    split_any_run(monkeypatch)
    before = threading.enumerate()
    seen = []

    def a0(t):  # the parent's couplings, read during the run
        seen.append(threading.enumerate())
        return np.zeros(9)

    dt = default_dt(basis_n9)
    ev.run_trajectory(packet_state(basis_n9),
                      ev.Potential(basis_n9.config, a0_fn=a0), 8 * dt, dt, 2)
    assert seen and all(threads == before for threads in seen)
    assert threading.enumerate() == before


@needs_split
def test_blas_threads_are_pinned_for_a_split_run_and_restored(basis_n9,
                                                              monkeypatch):
    """BLAS runs on one thread while the run is split, and the count it had
    comes back after the run and after an error."""
    get_threads, set_threads = ev._openblas_threads()
    split_any_run(monkeypatch)
    seen = []

    def a0(t):  # the parent's couplings, read while the run is split
        seen.append(get_threads())
        return np.zeros(9)

    dt = default_dt(basis_n9)
    state, huge = kicked_packet(basis_n9, 1e9)
    before = get_threads()
    try:
        set_threads(2)
        ev.run_trajectory(state, ev.Potential(basis_n9.config, a0_fn=a0),
                          8 * dt, dt, 2)
        assert seen and set(seen) == {1}
        assert get_threads() == 2
        with pytest.raises(ValueError, match="Chebyshev terms"):
            ev.run_trajectory(state, huge, 1.0, dt, 2)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_run_goes_in_turn_without_the_openblas_thread_setter(basis_n9,
                                                             monkeypatch):
    monkeypatch.setattr(ev, "_OPENBLAS_THREADS", ("no_such_get_threads",
                                                  "no_such_set_threads"))
    assert ev._openblas_threads() is None
    split_any_run(monkeypatch)

    def forbidden():
        raise AssertionError("forked without a way to pin BLAS threads")

    monkeypatch.setattr(os, "fork", forbidden)
    state, kicked = kicked_packet(basis_n9, 0.3)
    traj, final = ev.run_trajectory(state, kicked, 0.6, default_dt(basis_n9), 4)
    assert abs(traj.times[-1] - 0.6) < 1e-12 and final.gram_defect() < 1e-12


def die_in_child_after(monkeypatch, t_dead: float):
    """Makes a split run's child kill itself once its steps pass t_dead."""
    parent, couplings = os.getpid(), ev._couplings

    def dying(config, potential, t):
        if os.getpid() != parent and t > t_dead:
            os.kill(os.getpid(), signal.SIGKILL)
        return couplings(config, potential, t)

    monkeypatch.setattr(ev, "_couplings", dying)


@needs_split
def test_a_dead_child_is_reported_not_waited_on(basis_n9, monkeypatch):
    split_any_run(monkeypatch)
    die_in_child_after(monkeypatch, 0.3)
    forked = record_forks(monkeypatch)
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        ev.run_trajectory(packet_state(basis_n9), weak_potential(basis_n9.config),
                          0.6, default_dt(basis_n9), 4)
    assert len(forked) == 1
    assert_reaped(forked)


def test_free_sample_times_accumulate_per_step(basis_n9):
    state = packet_state(basis_n9)
    dt, stride = default_dt(basis_n9), 7
    traj, final = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                    1.0, dt, stride)
    n_steps, dt_eff = ev.step_count(0.0, 1.0, dt, stride)
    time, expected = 0.0, [0.0]
    for k in range(n_steps):
        time = time + dt_eff
        if (k + 1) % stride == 0:
            expected.append(time)
    assert np.array_equal(traj.times, expected)
    assert final.time == expected[-1]


@pytest.mark.parametrize("n_sites", [27, 81, 201])
def test_free_stretch_matches_per_step_rotations(n_sites, basis_n201):
    """One rotation per sample interval against one per step: a plain
    ``Potential`` with no fields has zero couplings, so it takes the
    per-step free rotation.  The orbitals agree within 1e-13 (4e-15
    measured); the observables sum about N orbitals weighted by up to
    E_max (100 at N = 201), so they get 1e-10 (4.9e-11 measured in xi0)."""
    basis = (basis_n201 if n_sites == 201
             else build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0)))
    state = packet_state(basis, sigma=0.8)
    dt = default_dt(basis)
    stretch, per_step = (ev.run_trajectory(state, pot, 20 * dt, dt, 5)
                         for pot in (ev.ZeroPotential(basis.config),
                                     ev.Potential(basis.config)))
    assert np.array_equal(stretch[0].times, per_step[0].times)
    for name in ("density", "current", "free_energy", "density_rate"):
        assert np.abs(getattr(stretch[0], name)
                      - getattr(per_step[0], name)).max() < 1e-10, name
    assert np.abs(stretch[1].orbitals - per_step[1].orbitals).max() < 1e-13


def test_zero_potential_run_evaluates_no_couplings(basis_n9, monkeypatch):
    def forbidden(*args):
        raise AssertionError("couplings evaluated on a potential-free run")

    monkeypatch.setattr(ev, "_couplings", forbidden)
    state = packet_state(basis_n9)
    zero = ev.ZeroPotential(basis_n9.config)
    ev.run_branches(state, [zero, zero], 0.3, default_dt(basis_n9), 3)
    with pytest.raises(AssertionError):
        ev.run_branches(state, [zero, ev.Potential(basis_n9.config)], 0.3,
                        default_dt(basis_n9), 3)


def test_zero_potential_takes_no_fields(basis_n9):
    with pytest.raises(TypeError):
        ev.ZeroPotential(basis_n9.config, a0_fn=lambda t: np.ones(9))
