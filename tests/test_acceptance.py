"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion PASS lines with the measured numbers).
"""

import time

import numpy as np
import pytest

from diracsea import checks
from diracsea import evolution as ev
from diracsea import response as rs
from diracsea import schwinger as sw
from diracsea.lattice import LatticeConfig, build_basis
from diracsea.vacua import VacuumSpec, coupled_band_spec

TWO_PI = 2.0 * np.pi


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def default_dt(basis):
    return 0.01 * TWO_PI / basis.max_energy


def test_criterion_1_algebra_gate():
    start = time.perf_counter()
    results = checks.algebra_gate(site_counts=(5, 7, 9, 11),
                                  masses=(0.0, 1.0, 5.0),
                                  ladder_sizes=(2, 6, 10))
    elapsed = time.perf_counter() - start
    for result in results:
        assert result.passed, result.line()
    assert elapsed < 1.0, f"algebra gate took {elapsed:.2f}s (budget 1s)"
    worst = max(r.value for r in results)
    report(1, f"algebra gate max defect {worst:.2e} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    basis3 = build_basis(LatticeConfig(TWO_PI, 3, 1.0))
    defects = [
        checks.oracle_commutator_defect(basis3, VacuumSpec("standard")),
        checks.oracle_commutator_defect(basis3, VacuumSpec("band", 0.2)),
    ]
    basis7 = build_basis(LatticeConfig(TWO_PI, 7, 1.0))
    subset = [i for i in range(basis7.mode_count)
              if basis7.momentum_index[i] in (-1, 0, 1, 2)]
    assert len(subset) == 8
    defects.append(checks.oracle_commutator_defect(
        basis7, VacuumSpec("standard"), subset))
    defects.append(checks.oracle_commutator_defect(
        basis7, VacuumSpec("band", 1.0), subset))
    elapsed = time.perf_counter() - start
    assert max(defects) < 1e-10
    assert elapsed < 30.0
    report(2, f"oracle vs mode sums, M=6 and M=8, both vacua: "
              f"max defect {max(defects):.2e} <= 1e-10 in {elapsed:.1f}s")


def test_criterion_3_schwinger_nonvanishing():
    worst_rel = 0.0
    worst_f2 = 0.0
    for n_sites in (5, 9, 13):
        basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
        closed = sw.divergence_diag_closed_form(basis)
        assert np.abs(closed.real).max() < 1e-12      # purely imaginary
        assert closed[0].imag < 0                     # strictly negative
        divergence = sw.divergence_of_kernel(sw.schwinger_standard(basis))
        diag = np.diag(divergence)
        scale = abs(closed[0])
        assert np.abs(diag - diag[0]).max() / scale < 1e-12  # x-independent
        rel = np.abs(diag - closed).max() / scale
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-10
        spec = coupled_band_spec(basis)
        f2 = sw.f2_identity_check(basis, spec)
        worst_f2 = max(worst_f2, f2)
        assert f2 <= 1e-12
    report(3, f"div I nonzero (Im < 0), two paths within {worst_rel:.2e} "
              f"relative, F2 residual {worst_f2:.2e} <= 1e-12")


def test_criterion_4_band_cancellation_sweep():
    start = time.perf_counter()
    # coincident points vanish for every admissible band width
    basis9 = build_basis(LatticeConfig(TWO_PI, 9, 1.0, 1.0))
    headroom = basis9.max_energy - basis9.config.mass
    for width in np.linspace(0.0, 0.95 * headroom, 20):
        kernel = sw.schwinger_band(basis9, VacuumSpec("band", width))
        assert np.abs(np.diag(kernel.values)).max() < 1e-12

    band_pairings, sea_pairings = [], []
    for n_sites in (9, 15, 21, 27):
        basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
        grid = basis.config.grid
        g = np.cos(3 * TWO_PI * grid / basis.config.box_length)
        h = np.sin(3 * TWO_PI * grid / basis.config.box_length)
        spec = coupled_band_spec(basis)
        band_pairings.append(abs(sw.weak_limit_pairing(
            sw.schwinger_band(basis, spec), g, h)))
        sea_pairings.append(abs(sw.weak_limit_pairing(
            sw.schwinger_standard(basis), g, h)))
    floor = 1e-12 * max(sea_pairings)
    violations = sum(1 for a, b in zip(band_pairings, band_pairings[1:])
                     if b > a + floor)
    assert violations <= 1, f"band pairing not monotone: {band_pairings}"
    assert band_pairings[-1] < 1e-10 * sea_pairings[-1]
    assert min(sea_pairings) > 0.5  # filled sea stays far from zero
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"band kernel diagonal zero; weak pairing falls "
              f"{band_pairings[0]:.2e} -> {band_pairings[-1]:.2e} while the "
              f"sea pairing stays >= {min(sea_pairings):.2f} ({elapsed:.0f}s)")


def test_criterion_5_spectrum_positivity():
    basis5 = build_basis(LatticeConfig(TWO_PI, 5, 1.0))
    minimum, zeros = checks.spectrum_positivity(basis5)
    assert minimum >= -1e-12
    assert zeros == 1
    spec = VacuumSpec("band", 0.5)
    band_min, move, present = checks.band_spectrum_negative_level(basis5, spec)
    assert band_min < 0
    assert present, "single band->below move level missing from spectrum"
    report(5, f"sea spectrum min {minimum:.1e} with a unique zero; band "
              f"vacuum reaches {band_min:.3f} including the single-move "
              f"level {move:.3f}")


def test_criterion_6_rate_identity_order():
    basis = build_basis(LatticeConfig(TWO_PI, 9, 1.0, 1.0))
    state = ev.excite_wavepacket(
        ev.vacuum_state(basis, VacuumSpec("standard")), 2.0, 0.2)
    t_stop = 1.5
    dt0 = 4 * default_dt(basis)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config), t_stop,
                                dt0)
    pot = ev.build_kick_chi(free, 0.3, 0.0, t_stop)
    halvings = (2, 4, 8)
    residuals = []
    for k in halvings:
        traj, _ = ev.run_trajectory(state, pot, t_stop, dt0 / k)
        residuals.append(ev.rate_identity_residual(traj, pot))
    order = -np.polyfit(np.log(halvings), np.log(residuals), 1)[0]
    assert order >= 1.9, f"measured order {order:.3f}"
    report(6, f"rate-identity residual order {order:.2f} >= 1.9 "
              f"(residuals {[f'{r:.1e}' for r in residuals]})")


def test_criterion_7_zero_potential_conservation():
    basis = build_basis(LatticeConfig(TWO_PI, 9, 1.0, 1.0))
    state = ev.excite_wavepacket(
        ev.vacuum_state(basis, VacuumSpec("standard")), 2.0, 0.2)
    slow_period = TWO_PI / basis.config.mass
    traj, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config),
                                10.0 * slow_period, default_dt(basis),
                                sample_stride=100)
    drift = float(np.abs(traj.free_energy - traj.free_energy[0]).max())
    assert drift <= 1e-8
    report(7, f"free-field energy drift {drift:.2e} <= 1e-8 over ten slow "
              f"periods at the default step")


def test_criterion_8_energy_extraction():
    start = time.perf_counter()
    basis = build_basis(LatticeConfig(TWO_PI, 27, 1.0, 1.0))
    state = ev.excite_wavepacket(
        ev.vacuum_state(basis, VacuumSpec("standard")), 2.0, 0.8)
    t_stop = 1.5
    dt = default_dt(basis)
    free, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config), t_stop,
                                dt)
    rate = free.density_rate[free.index_of(t_stop)]
    slope_predicted = -basis.config.spacing * float(np.sum(rate**2))
    assert slope_predicted < 0
    xi_free = free.free_energy[free.index_of(t_stop)]

    tested = (0.01, 0.02, 0.03, 0.04, 0.1, 0.2, 0.4)
    energies = []
    free20, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config),
                                  t_stop, dt, sample_stride=20)
    for f in tested:
        gauge = ev.build_kick_chi(free, f, 0.0, t_stop)
        rep = ev.gauge_pair_sweep(state, gauge, [1.0], free20, dt,
                                  sample_stride=20)[0]
        assert rep.free_energy_gauge_tb < rep.free_energy_free_tb
        energies.append(rep.free_energy_gauge_tb)
    small = tested[:4]
    slope = np.polyfit(small, energies[:4], 1)[0]
    rel_err = abs(slope - slope_predicted) / abs(slope_predicted)
    assert rel_err <= 0.05, f"slope off by {rel_err:.1%}"

    # saturation: the unbounded continuum extraction is not reproducible at
    # finite cutoff; the energy departs above the linear extrapolation with
    # growing defect and never crosses the truncated many-body floor (0)
    huge = (1.0, 2.0, 4.0, 8.0)
    saturated = []
    free50, _ = ev.run_trajectory(state, ev.ZeroPotential(basis.config),
                                  t_stop, dt, sample_stride=50)
    for f in huge:
        gauge = ev.build_kick_chi(free, f, 0.0, t_stop)
        rep = ev.gauge_pair_sweep(state, gauge, [1.0], free50, dt,
                                  sample_stride=50)[0]
        saturated.append(rep.free_energy_gauge_tb)
        assert rep.free_energy_gauge_tb >= 0.0  # criterion-5 floor
    linear_extrapolation = xi_free + slope_predicted * np.array(huge)
    departures = np.array(saturated) - linear_extrapolation
    assert np.all(departures > 0.0)
    assert np.all(np.diff(departures) > 0.0)  # sub-linear throughout
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, f"kick slope {slope:.4f} vs quadrature {slope_predicted:.4f} "
              f"({rel_err:.1%} <= 5%), extraction bottoms out at "
              f"{min(saturated):.2f} >= 0 with departure {departures[-1]:.2f} "
              f"at f={huge[-1]} ({elapsed:.0f}s)")


def test_criterion_9_gauge_pair_residual_trend():
    sweep = (9, 15, 21, 27)
    deviations = []
    sea_current_dev = None
    for n_sites in sweep:
        config = LatticeConfig(TWO_PI, n_sites, 1.0, 1.0)
        basis = build_basis(config)
        state = ev.excite_wavepacket(
            ev.vacuum_state(basis, coupled_band_spec(basis)), 2.0, 0.2)
        profile = 0.2 * np.cos(TWO_PI * config.grid / config.box_length)
        gauge = ev.PureGaugePotential(config, profile, 1.0, 0.0, 1.5)
        dt = default_dt(basis)
        free, _ = ev.run_trajectory(state, ev.ZeroPotential(config), 1.5, dt,
                                    sample_stride=10)
        rep = ev.gauge_pair_sweep(state, gauge, [1.0], free, dt,
                                  sample_stride=10)[0]
        deviations.append(max(rep.max_density_deviation,
                              rep.max_current_deviation))
        if n_sites == sweep[-1]:
            # contrast: the same kick on the filled sea keeps a finite
            # current deviation (its commutator kernel does not vanish)
            sea_state = ev.excite_wavepacket(
                ev.vacuum_state(basis, VacuumSpec("standard")), 2.0, 0.2)
            sea_free, _ = ev.run_trajectory(sea_state, ev.ZeroPotential(config),
                                            1.5, dt, sample_stride=10)
            sea_rep = ev.gauge_pair_sweep(sea_state, gauge, [1.0], sea_free,
                                          dt, sample_stride=10)[0]
            sea_current_dev = sea_rep.max_current_deviation
    assert all(b < a for a, b in zip(deviations, deviations[1:])), deviations
    assert deviations[0] / deviations[-1] >= 2.0
    assert sea_current_dev > 100 * deviations[-1]
    report(9, f"band-vacuum gauge residual falls {deviations[0]:.1e} -> "
              f"{deviations[-1]:.1e} over N={list(sweep)} (monotone, "
              f">=2x); filled-sea current deviation stays at "
              f"{sea_current_dev:.1e} (the commutator-kernel response)")


def test_criterion_10_response_equivalence():
    basis = build_basis(LatticeConfig(TWO_PI, 9, 1.0, 1.0))
    spec = VacuumSpec("standard")
    profile = 0.3 * np.cos(TWO_PI * basis.config.grid
                           / basis.config.box_length)
    pot = ev.PureGaugePotential(basis.config, profile, 1.0, 0.0, 1.5)
    kernel = rs.vacuum_response_kernel(basis, spec)
    worst = 0.0
    for t in (0.7, 1.1, 1.5):
        direct = rs.first_order_current(kernel, pot, t, 0.0,
                                        smearing="fourier",
                                        samples_per_period=80)
        contraction = rs.gauge_variation_response(sw.commutator_kernel(basis, spec),
                                                  pot, t)
        worst = max(worst, float(np.abs(direct - contraction).max()))
        assert np.abs(contraction).max() > 10 * 1e-6
    assert worst < 1e-6

    band = coupled_band_spec(basis)
    band_kernel = rs.vacuum_response_kernel(basis, band)
    band_direct = rs.first_order_current(band_kernel, pot, 1.1, 0.0,
                                         smearing="fourier",
                                         samples_per_period=80)
    band_contraction = rs.gauge_variation_response(
        sw.commutator_kernel(basis, band), pot, 1.1)
    assert np.abs(band_direct - band_contraction).max() < 1e-6

    # finite-difference scaling against the integrated dynamics
    def pulse(t):
        return (np.exp(-((t - 0.5) ** 2) / (2 * 0.12**2))
                * np.cos(basis.config.grid))

    t_eval = 0.9
    j1 = rs.first_order_current(kernel, ev.Potential(basis.config,
                                                     a0_fn=pulse),
                                t_eval, 0.0, smearing="site",
                                samples_per_period=200)
    state = ev.vacuum_state(basis, spec)

    def measured(eps):
        driven = ev.Potential(basis.config, a0_fn=lambda t: eps * pulse(t))
        _, fin = ev.run_trajectory(state, driven, t_eval, 1e-3)
        return ev.observables(fin).current

    amplitudes = (0.2, 0.1, 0.05)
    errors = [np.abs((measured(e) - measured(-e)) / (2 * e) - j1).max()
              for e in amplitudes]
    order = np.polyfit(np.log(amplitudes), np.log(errors), 1)[0]
    assert order >= 1.8, f"measured order {order:.2f}"

    # deep-state decoupling: doubling the deep momentum weakens the overlap
    basis17 = build_basis(LatticeConfig(TWO_PI, 17, 1.0, 1.0))
    idx, coeffs = ev.gaussian_packet_coefficients(basis17, 1.0, 0.3)

    def potential(x, t):
        return (np.exp(-((x - np.pi) ** 2) / (2 * 0.8**2))
                * np.exp(-((t - 0.5) ** 2) / (2 * 0.2**2)))

    negatives = np.where(basis17.lam < 0)[0]

    def coupling(k_target):
        deep = int(negatives[basis17.momentum_index[negatives] == k_target][0])
        return abs(rs.deep_state_coupling(basis17, potential, (0.0, 1.0),
                                          (idx, coeffs), deep))

    shallow, deep = coupling(-3), coupling(-6)
    assert deep < shallow
    report(10, f"response paths agree to {worst:.1e} <= 1e-6, "
               f"finite-difference order {order:.2f} >= 1.8, deep-state "
               f"coupling falls {shallow:.2e} -> {deep:.2e} on doubling |p|")
