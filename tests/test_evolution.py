import numpy as np
import pytest

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


def kicked_packet(basis, strength, sigma=0.2, t_stop=1.0):
    """Packet state and the pure-gauge potential of its density-rate kick."""
    state = packet_state(basis, sigma=sigma)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config), t_stop,
                                default_dt(basis), sample_stride=10)
    gauge = ev.build_kick_chi(free, "density_rate", strength, 0.0, t_stop)
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
                                            0.0, 1.0, "fixed")
    final = state
    for _ in range(60):
        final = one_step(final, ev.PureGaugePotential(gauge), 1.0 / 60)
    assert final.gram_defect() < 1e-12


def test_matrix_free_hamiltonian_matches_dense(basis_n9):
    state, pot = kicked_packet(basis_n9, 0.3)
    t = 0.4
    dense = ev.single_particle_hamiltonian(basis_n9, pot, t) @ state.orbitals
    matrix_free = ev.apply_hamiltonian(basis_n9, state.orbitals, pot, t)
    assert np.abs(matrix_free - dense).max() < 1e-13
    free = basis_n9.free_hamiltonian_matrix() @ state.orbitals
    assert np.abs(ev.apply_hamiltonian(basis_n9, state.orbitals) - free).max() < 1e-13


def test_recorded_density_rate_matches_dense(basis_n9):
    state, pot = kicked_packet(basis_n9, 0.3)
    t = 0.4  # mid-window, where both A0 and A are nonzero
    traj, final = ev.run_trajectory(state, pot, t, default_dt(basis_n9))
    assert np.abs(pot.a0(t)).max() > 0 and np.abs(pot.a(t)).max() > 0
    h = ev.single_particle_hamiltonian(basis_n9, pot, final.time)
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
        h = ev.single_particle_hamiltonian(basis, pot, start.time + 0.5 * dt)
        expected = dense_propagator(h, dt) @ start.orbitals
        stepped = one_step(start, pot, dt)
        assert np.abs(stepped.orbitals - expected).max() < 1e-13
        assert stepped.time == start.time + dt


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
    gauges = [ev.build_kick_chi(free, "density_rate", f, 0.0, 1.0)
              for f in (0.01, 0.4, 4.0)]
    reports = ev.gauge_pair_sweep(state, gauges, 0.0, 1.0, dt, 5,
                                  free_branch=free)
    for gauge, report in zip(gauges, reports):
        single, _ = ev.run_trajectory(state, ev.PureGaugePotential(gauge), 1.0,
                                      dt, sample_stride=5)
        batched = report.gauge_branch
        assert np.array_equal(batched.times, single.times)
        for name in ("density", "current", "free_energy", "density_rate"):
            assert np.abs(getattr(batched, name)
                          - getattr(single, name)).max() < 1e-12, name
    with pytest.raises(ValueError):  # free branch sampled at another stride
        ev.gauge_pair_sweep(state, gauges, 0.0, 1.0, dt, 10, free_branch=free)


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
                                            0.0, 0.8, "fixed")
    pot = ev.PureGaugePotential(gauge)

    def final_energy(dt):
        _, fin = ev.run_trajectory(state, pot, 0.8, dt)
        return ev.observables(fin).free_energy

    reference = final_energy(0.8 / 512)
    errors = [abs(final_energy(0.8 / n) - reference) for n in (16, 32, 64)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


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
    h = ev.single_particle_hamiltonian(basis_n9, pot, 0.0)
    h0 = basis_n9.free_hamiltonian_matrix()
    shifted = np.sort(np.linalg.eigvalsh(h))
    base = np.sort(np.linalg.eigvalsh(h0)) + basis_n9.config.charge * shift
    assert np.abs(shifted - base).max() < 1e-12


def test_pure_gauge_vanishes_at_start(basis_n9):
    state = packet_state(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.0, default_dt(basis_n9))
    gauge = ev.build_kick_chi(traj1, "density_rate", 0.5, 0.0, 1.0)
    assert np.abs(gauge.chi(0.0)).max() == 0.0
    assert np.abs(gauge.dchi_dt(0.0)).max() == 0.0
    pot = ev.PureGaugePotential(gauge)
    h = ev.single_particle_hamiltonian(basis_n9, pot, 0.0)
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
    coeffs = np.stack([basis_n3.mode_coefficients(packet.orbitals[:, o])
                       for o in range(packet.orbital_count)], axis=1)
    ladders = fock.build_ladders(6)
    vec = fock.slater_vector(ladders, coeffs)
    constants = renorm_constants(basis_n3, occ)
    snap = ev.observables(packet)
    for j in range(3):
        rho_op = fock.bilinear_matrix(
            ladders, charge_kernel(basis_n3, j).with_subtraction(constants.rho[j]))
        cur_op = fock.bilinear_matrix(
            ladders,
            current_kernel(basis_n3, j).with_subtraction(constants.current[j]))
        assert fock.expectation(vec, rho_op).real == pytest.approx(
            snap.density[j], abs=1e-11)
        assert fock.expectation(vec, cur_op).real == pytest.approx(
            snap.current[j], abs=1e-11)
    h0_op = fock.bilinear_matrix(ladders, free_hamiltonian_kernel(basis_n3, occ))
    assert fock.expectation(vec, h0_op).real == pytest.approx(
        snap.free_energy, abs=1e-11)


def test_wavepacket_guards(basis_n9):
    state = ev.vacuum_state(basis_n9, VacuumSpec("standard"))
    with pytest.raises(ValueError):
        ev.excite_wavepacket(state, 3.9, 1.5)  # reaches the cutoff
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


def test_kick_requires_free_trajectory(basis_n9):
    state = packet_state(basis_n9)
    profile = 0.1 * np.cos(basis_n9.config.grid)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, profile, 1.0,
                                            0.0, 1.0, "fixed")
    traj, _ = ev.run_trajectory(state, ev.PureGaugePotential(gauge), 1.0,
                                default_dt(basis_n9))
    with pytest.raises(ValueError):
        ev.build_kick_chi(traj, "density_rate", 0.1, 0.0, 1.0)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config), 1.0,
                                default_dt(basis_n9))
    with pytest.raises(ValueError):
        ev.build_kick_chi(free, "unknown", 0.1, 0.0, 1.0)


def test_zero_strength_kick_is_inert(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.0, dt)
    gauge = ev.build_kick_chi(traj1, "density_rate", 0.0, 0.0, 1.0)
    report = ev.gauge_pair_sweep(state, [gauge], 0.0, 1.0, dt)[0]
    assert report.max_density_deviation == 0.0
    assert report.max_current_deviation == 0.0
    assert report.free_energy_gauge_tb == pytest.approx(
        report.free_energy_free_tb, abs=1e-14)


def test_continuity_rate_kick_is_compactly_supported(basis_n9):
    state = packet_state(basis_n9)
    dt = default_dt(basis_n9)
    traj1, _ = ev.run_trajectory(state, ev.ZeroPotential(basis_n9.config),
                                 1.0, dt)
    gauge = ev.build_kick_chi(traj1, "continuity_rate", 0.3, 0.0, 1.0)
    assert np.abs(gauge.chi(0.0)).max() == 0.0
    assert np.abs(gauge.chi(1.0)).max() == 0.0
    assert np.abs(gauge.dchi_dt(0.0)).max() < 1e-12
    assert np.abs(gauge.dchi_dt(1.0)).max() < 1e-12
    assert np.abs(gauge.chi(0.5)).max() >= 0.0  # defined inside the window


def test_uniform_gauge_function_leaves_observables_alone(basis_n9):
    """Spatially constant chi only multiplies every orbital by one phase."""
    state = packet_state(basis_n9)
    gauge = ev.GaugeFunction.ramped_profile(
        basis_n9.config, np.full(9, 0.7), 1.0, 0.0, 1.0, "uniform")
    report = ev.gauge_pair_sweep(state, [gauge], 0.0, 1.0,
                                 default_dt(basis_n9))[0]
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
    energies = []
    strengths = (0.01, 0.02, 0.04)
    for f in strengths:
        gauge = ev.build_kick_chi(traj1, "density_rate", f, 0.0, t_stop)
        report = ev.gauge_pair_sweep(state, [gauge], 0.0, t_stop, dt,
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
    gauge = ev.build_kick_chi(traj1, "density_rate", 0.3, 0.0, 1.5)
    pot = ev.PureGaugePotential(gauge)
    residuals = []
    for k in (2, 4, 8):
        traj, _ = ev.run_trajectory(state, pot, 1.5, dt0 / k)
        residuals.append(ev.rate_identity_residual(traj, pot))
    order = np.polyfit(np.log([2, 4, 8]), np.log(residuals), 1)[0]
    assert -order > 1.9


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
    reduced = abs(dxi + a * np.sum(drho * pot.a0(traj.times[i])))
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
        gauge = ev.GaugeFunction.ramped_profile(config, profile, 1.0, 0.0, 1.5,
                                                "fixed")
        report = ev.gauge_pair_sweep(state, [gauge], 0.0, 1.5,
                                     default_dt(basis), sample_stride=10)[0]
        devs.append(max(report.max_density_deviation,
                        report.max_current_deviation))
    assert devs[1] < devs[0] / 2


def test_gauge_pair_requires_aligned_start(basis_n9):
    state = packet_state(basis_n9)
    gauge = ev.GaugeFunction.ramped_profile(basis_n9.config, np.zeros(9), 1.0,
                                            0.5, 1.0, "fixed")
    with pytest.raises(ValueError):
        ev.gauge_pair_sweep(state, [gauge], 0.5, 1.0, 0.01)[0]
