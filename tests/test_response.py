import numpy as np
import pytest

import dense_reference as dense
from diracsea import evolution as ev
from diracsea import response as rs
from diracsea.lattice import LatticeConfig, build_basis, transfer_sum
from diracsea.schwinger import commutator_kernel
from diracsea.vacua import VacuumSpec, coupled_band_spec

TWO_PI = 2.0 * np.pi


def harmonic_gauge(config, amplitude=0.3, k=1, t_stop=1.5):
    profile = amplitude * np.cos(k * TWO_PI * config.grid / config.box_length)
    return ev.PureGaugePotential(config, profile, 1.0, 0.0, t_stop)


def test_zero_chi_zero_gauge_variation(basis_n9):
    gauge = ev.PureGaugePotential(basis_n9.config, np.zeros(9), 1.0, 0.0, 1.0)
    for spec in (VacuumSpec("standard"), coupled_band_spec(basis_n9)):
        out = rs.gauge_variation_response(commutator_kernel(basis_n9, spec),
                                          gauge, 0.7)
        assert np.abs(out).max() == 0.0


def test_zero_potential_zero_response(basis_n9):
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))
    pot = ev.Potential(basis_n9.config)
    for smearing in ("site", "fourier"):
        out = rs.first_order_current(kernel, pot, 1.0, 0.0, smearing=smearing)
        assert np.abs(out).max() < 1e-15
    assert np.abs(rs.first_order_current(kernel, pot, -0.5, 0.0)).max() == 0.0


def test_linearity(basis_n9):
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))

    def pulse(scale, harmonic):
        return ev.Potential(
            basis_n9.config,
            a0_fn=lambda t: scale * np.exp(-((t - 0.6) ** 2) / 0.05)
            * np.cos(harmonic * basis_n9.config.grid))

    base = rs.first_order_current(kernel, pulse(1.0, 1), 1.0, 0.0)
    scaled = rs.first_order_current(kernel, pulse(2.5, 1), 1.0, 0.0)
    assert np.abs(scaled - 2.5 * base).max() < 1e-12

    other = rs.first_order_current(kernel, pulse(1.0, 2), 1.0, 0.0)
    both = ev.Potential(
        basis_n9.config,
        a0_fn=lambda t: np.exp(-((t - 0.6) ** 2) / 0.05)
        * (np.cos(basis_n9.config.grid) + np.cos(2 * basis_n9.config.grid)))
    combined = rs.first_order_current(kernel, both, 1.0, 0.0)
    assert np.abs(combined - base - other).max() < 1e-12


def test_retarded_kernels_causal_and_real(basis_n9):
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))
    assert np.abs(dense.retarded_current_current(kernel, -0.1)).max() == 0.0
    assert np.abs(dense.retarded_current_charge(kernel, -2.0)).max() == 0.0
    for tau in (0.0, 0.3, 1.1):
        r_jj = dense.retarded_current_current(kernel, tau)
        r_jr = dense.retarded_current_charge(kernel, tau)
        assert np.isrealobj(r_jj) and np.isrealobj(r_jr)
        assert np.abs(r_jj).max() < 1e3  # finite


def test_path_equivalence_standard_vacuum(basis_n9):
    spec = VacuumSpec("standard")
    pot = harmonic_gauge(basis_n9.config)
    kernel = rs.vacuum_response_kernel(basis_n9, spec)
    for t in (0.7, 1.2, 1.5):
        direct = rs.first_order_current(kernel, pot, t, 0.0,
                                        smearing="fourier",
                                        samples_per_period=80)
        contraction = rs.gauge_variation_response(
            commutator_kernel(basis_n9, spec), pot, t)
        assert np.abs(direct - contraction).max() < 1e-6
        assert np.abs(contraction).max() > 1e-5  # visibly nonzero


def test_path_equivalence_band_vacuum(basis_n9):
    spec = coupled_band_spec(basis_n9)
    pot = harmonic_gauge(basis_n9.config)
    kernel = rs.vacuum_response_kernel(basis_n9, spec)
    direct = rs.first_order_current(kernel, pot, 1.2, 0.0, smearing="fourier",
                                    samples_per_period=80)
    contraction = rs.gauge_variation_response(commutator_kernel(basis_n9, spec),
                                              pot, 1.2)
    assert np.abs(direct - contraction).max() < 1e-6
    # the band vacuum's gauge response collapses where the sea's does not
    sea = rs.gauge_variation_response(
        commutator_kernel(basis_n9, VacuumSpec("standard")), pot, 1.2)
    assert np.abs(contraction).max() < 1e-12 * np.abs(sea).max() + 1e-12


def test_retarded_kernels_match_fock_oracle(basis_n3):
    """Interaction-picture commutators computed with literal many-body
    matrix exponentials reproduce the mode-pair retarded kernels."""
    import scipy.linalg

    from diracsea import fock
    from diracsea.operators import (charge_kernel, current_kernel,
                                    free_hamiltonian_kernel)
    from diracsea.vacua import occupation_set

    for spec in (VacuumSpec("standard"), VacuumSpec("band", 0.2)):
        occ = occupation_set(spec, basis_n3)
        kernel = rs.ResponseKernel.build(basis_n3, occ)
        ladders = dense.build_ladders(6)
        vacuum = fock.build_vacuum_vector(occ)
        h0 = dense.bilinear_matrix(
            ladders, free_hamiltonian_kernel(basis_n3, occ)).toarray()
        cur = [dense.bilinear_matrix(ladders,
                                    current_kernel(basis_n3, j)).toarray()
               for j in range(3)]
        rho = [dense.bilinear_matrix(ladders,
                                    charge_kernel(basis_n3, j)).toarray()
               for j in range(3)]
        for tau in (0.0, 0.45):
            u = scipy.linalg.expm(1j * h0 * tau)
            r_jj = dense.retarded_current_current(kernel, tau)
            r_jr = dense.retarded_current_charge(kernel, tau)
            for j in range(3):
                cur_t = u @ cur[j] @ u.conj().T
                for k in range(3):
                    expected_jj = 1j * np.vdot(
                        vacuum, (cur_t @ cur[k] - cur[k] @ cur_t) @ vacuum)
                    expected_jr = 1j * np.vdot(
                        vacuum, (cur_t @ rho[k] - rho[k] @ cur_t) @ vacuum)
                    assert abs(expected_jj.imag) < 1e-11
                    assert abs(expected_jr.imag) < 1e-11
                    assert r_jj[j, k] == pytest.approx(expected_jj.real,
                                                       abs=1e-11)
                    assert r_jr[j, k] == pytest.approx(expected_jr.real,
                                                       abs=1e-11)


def test_path_equivalence_random_profiles(basis_n9, rng):
    """The two response paths agree for any bandlimited gauge profile."""
    spec = VacuumSpec("standard")
    kernel = rs.vacuum_response_kernel(basis_n9, spec)
    for _ in range(3):
        coeffs = rng.normal(size=3) * [0.3, 0.2, 0.1]
        grid = basis_n9.config.grid
        profile = sum(c * np.cos((k + 1) * grid + rng.uniform(0, TWO_PI))
                      for k, c in enumerate(coeffs))
        pot = ev.PureGaugePotential(basis_n9.config, profile, 1.0, 0.0, 1.2)
        direct = rs.first_order_current(kernel, pot, 0.9, 0.0,
                                        smearing="fourier",
                                        samples_per_period=80)
        contraction = rs.gauge_variation_response(
            commutator_kernel(basis_n9, spec), pot, 0.9)
        assert np.abs(direct - contraction).max() < 1e-6


def test_site_smearing_matches_evolution(basis_n3):
    """Centered finite differences of the full evolution converge to the
    site-smeared Kubo current with a quadratic defect in the amplitude."""
    config = basis_n3.config
    spec = VacuumSpec("standard")

    def pulse(t):
        return np.exp(-((t - 0.5) ** 2) / (2 * 0.12**2)) * np.cos(config.grid)

    t_eval = 0.9
    kernel = rs.vacuum_response_kernel(basis_n3, spec)
    base = ev.Potential(config, a0_fn=pulse)
    j1 = rs.first_order_current(kernel, base, t_eval, 0.0, smearing="site",
                                samples_per_period=200)
    state = ev.vacuum_state(basis_n3, spec)

    def measured(eps):
        pot = ev.Potential(config, a0_fn=lambda t: eps * pulse(t))
        _, fin = ev.run_trajectory(state, pot, t_eval, 5e-4)
        return ev.observables(fin).current

    errors = []
    for eps in (0.2, 0.1, 0.05):
        centered = (measured(eps) - measured(-eps)) / (2 * eps)
        errors.append(np.abs(centered - j1).max())
    order = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errors), 1)[0]
    assert order > 1.8


def test_site_smearing_is_the_retarded_kernel_integral(basis_n9):
    """The site-smeared Kubo current is the Simpson sum of the Fock-validated
    retarded kernels: a sum_s w_s (R_JJ(t - s) A(s) - R_Jrho(t - s) A0(s))."""
    config = basis_n9.config
    t_start, t = 0.0, 1.1
    rng = np.random.default_rng(10)
    for spec in (VacuumSpec("standard"), coupled_band_spec(basis_n9)):
        kernel = rs.vacuum_response_kernel(basis_n9, spec)
        profile = rng.normal(size=config.site_count)
        pot = ev.PureGaugePotential(config, profile, 1.0, t_start, 1.5)
        direct = rs.first_order_current(kernel, pot, t, t_start,
                                        smearing="site")
        ts, weights = rs._time_grid(
            t_start, t, rs.kubo_interval_count(basis_n9, t - t_start))
        fields = [pot.fields(s) for s in ts]
        expected = config.spacing * sum(
            w * (dense.retarded_current_current(kernel, t - s) @ a
                 - dense.retarded_current_charge(kernel, t - s) @ a0)
            for s, w, (a0, a) in zip(ts, weights, fields))
        assert np.abs(direct).max() > 1e-3  # visibly nonzero
        assert np.abs(direct - expected).max() < 1e-12


@pytest.fixture(scope="module")
def basis_n41():
    return build_basis(LatticeConfig(TWO_PI, 41, 1.0, 1.0))


@pytest.mark.parametrize("n_sites", [9, 41])
def test_running_quadrature_matches_scalar_calls_and_contraction(
        basis_n9, basis_n41, n_sites):
    """One array call: row 0 is the scalar call at times[0] bit for bit,
    later rows move only with their Simpson nodes, and every row keeps
    criterion 10's agreement with the gauge-variation contraction."""
    basis = {9: basis_n9, 41: basis_n41}[n_sites]
    pot = harmonic_gauge(basis.config)
    times = np.linspace(0.0, 1.5, 6)[1:]
    for spec in (VacuumSpec("standard"), coupled_band_spec(basis)):
        kernel = rs.vacuum_response_kernel(basis, spec)
        commutator = commutator_kernel(basis, spec)
        for smearing in ("fourier", "site"):
            rows = rs.first_order_current(kernel, pot, times, 0.0,
                                          smearing=smearing)
            single = np.array([rs.first_order_current(kernel, pot, t, 0.0,
                                                      smearing=smearing)
                               for t in times])
            assert rows.shape == (len(times), n_sites)
            assert np.array_equal(rows[0], single[0])
            # measured: 3.1e-11 (fourier) and 5.0e-10 (site) at N=41
            assert np.abs(rows - single).max() < 1e-9
            if smearing == "fourier":  # criterion 10 at every output time
                for t, row in zip(times, rows):
                    contraction = rs.gauge_variation_response(commutator,
                                                              pot, t)
                    assert np.abs(row - contraction).max() < 1e-6


def test_running_quadrature_zero_rows_and_order(basis_n9):
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))
    pot = harmonic_gauge(basis_n9.config)
    rows = rs.first_order_current(kernel, pot, [-0.5, 0.2, 0.2, 0.7, 1.1],
                                  0.2)
    assert np.abs(rows[:3]).max() == 0.0
    assert np.array_equal(rows[3], rs.first_order_current(kernel, pot, 0.7,
                                                          0.2))
    assert np.abs(rows[4]).max() > 1e-5
    for times in ([0.7, 0.3], [0.2, 1.1, 0.9], [[0.3, 0.7]]):
        with pytest.raises(ValueError, match="ascending"):
            rs.first_order_current(kernel, pot, times, 0.0)


def test_running_quadrature_takes_each_sample_once(basis_n9, monkeypatch):
    """n output times cost the longest quadrature plus at most 17 samples
    per time, not one quadrature from t_start per time."""
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))
    pot = harmonic_gauge(basis_n9.config)
    grids = []
    time_grid = rs._time_grid

    def spy(*args):
        ts, weights = time_grid(*args)
        grids.append(ts)
        return ts, weights

    monkeypatch.setattr(rs, "_time_grid", spy)
    t_start, t_stop, n_times = 0.0, 1.5, 50
    times = np.linspace(t_start, t_stop, n_times + 1)[1:]
    rs.first_order_current(kernel, pot, times, t_start)
    assert len(grids) == n_times
    assert sum(map(len, grids)) <= (
        rs.kubo_interval_count(basis_n9, t_stop - t_start) + 17 * n_times)


def test_running_quadrature_samples_each_node_once(basis_n9, monkeypatch):
    """A segment's first node is the last node of the one before; the
    potential is evaluated there once, so once per distinct node."""
    kernel = rs.vacuum_response_kernel(basis_n9, VacuumSpec("standard"))
    pot = harmonic_gauge(basis_n9.config)
    grids, calls = [], []
    time_grid, fields = rs._time_grid, pot.fields

    def grid_spy(*args):
        ts, weights = time_grid(*args)
        grids.append(ts)
        return ts, weights

    def fields_spy(t):
        calls.append(t)
        return fields(t)

    monkeypatch.setattr(rs, "_time_grid", grid_spy)
    monkeypatch.setattr(pot, "fields", fields_spy)
    t_start, t_stop, n_times = 0.0, 1.5, 50
    times = np.linspace(t_start, t_stop, n_times + 1)[1:]
    rs.first_order_current(kernel, pot, times, t_start)
    nodes = np.concatenate(grids)
    assert len(grids) == n_times
    assert len(calls) == len(np.unique(nodes)) == len(nodes) - (n_times - 1)
    assert calls == sorted(set(calls))


@pytest.mark.parametrize("n_sites", [9, 41])
def test_transfer_sum_is_the_dense_pair_contraction(basis_n9, basis_n41,
                                                    n_sites):
    basis = {9: basis_n9, 41: basis_n41}[n_sites]
    rng = np.random.default_rng(n_sites)
    for spec in (VacuumSpec("standard"), coupled_band_spec(basis)):
        kernel = rs.vacuum_response_kernel(basis, spec)
        v = [1.0, 1j] @ rng.normal(size=(2, kernel.omega.size))
        expected = dense.current_pair_matrix(kernel) @ v
        ours = transfer_sum(kernel.current_weight * v, kernel.transfer,
                            n_sites)
        assert np.abs(ours - expected).max() < 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n_sites", [9, 41])
def test_phases_per_gap_match_phases_per_pair(basis_n9, basis_n41, n_sites):
    """Taking each node's phase once per distinct gap and gathering it to
    the pairs changes no float: both vacua, both smearings, bit for bit."""
    basis = {9: basis_n9, 41: basis_n41}[n_sites]
    pot = harmonic_gauge(basis.config)
    times = np.array([-0.2, 0.0, 0.3, 0.3, 0.9, 1.5])
    for spec in (VacuumSpec("standard"), coupled_band_spec(basis)):
        kernel = rs.vacuum_response_kernel(basis, spec)
        assert len(np.unique(kernel.omega)) < kernel.omega.size
        for smearing in rs.SMEARINGS:
            ours = rs.first_order_current(kernel, pot, times, 0.0,
                                          smearing=smearing)
            reference = dense.first_order_current_per_pair(
                kernel, pot, times, 0.0, smearing)
            assert np.abs(ours).max() > 0
            assert np.array_equal(ours, reference)


def test_first_order_current_memory_is_linear_in_pairs():
    """No (site, pair) array: one N=101 call peaks far below the 15.7 MiB
    of one complex 101 x 10,201 (site, pair) matrix."""
    import tracemalloc

    basis = build_basis(LatticeConfig(TWO_PI, 101, 1.0, 1.0))
    kernel = rs.vacuum_response_kernel(basis, VacuumSpec("standard"))
    pot = harmonic_gauge(basis.config)
    tracemalloc.start()
    try:
        rs.first_order_current(kernel, pot, 0.2, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_deep_state_coupling_zero_potential(basis_n9):
    idx, coeffs = ev.gaussian_packet_coefficients(basis_n9, 1.0, 0.2)
    deep = int(np.where(basis_n9.lam < 0)[0][-1])
    value = rs.deep_state_coupling(basis_n9, lambda x, t: np.zeros_like(x),
                                   (0.0, 1.0), (idx, coeffs), deep)
    assert value == 0.0


def test_deep_state_coupling_rejects_positive_modes(basis_n9):
    idx, coeffs = ev.gaussian_packet_coefficients(basis_n9, 1.0, 0.2)
    positive = int(np.where(basis_n9.lam > 0)[0][0])
    with pytest.raises(ValueError):
        rs.deep_state_coupling(basis_n9, lambda x, t: np.ones_like(x),
                               (0.0, 1.0), (idx, coeffs), positive)


def test_deep_state_coupling_sinc_factor(basis_n9):
    """Time-constant V against a single eigenmode gives the oscillatory
    window integral (e^{i w T} - 1) / (i w) exactly."""
    length = basis_n9.config.box_length
    v_profile = lambda x: 1.0 + 0.5 * np.cos(TWO_PI * x / length)
    # momentum transfer 1 so the potential's first harmonic connects the modes
    packet_mode = int(np.where((basis_n9.lam > 0)
                               & (basis_n9.momentum_index == 1))[0][0])
    deep = int(np.where((basis_n9.lam < 0)
                        & (basis_n9.momentum_index == 0))[0][0])
    window = 2.0
    value = rs.deep_state_coupling(
        basis_n9, lambda x, t: v_profile(x), (0.0, window),
        ([packet_mode], [1.0]), deep, x_oversample=8, samples_per_period=80)

    omega = basis_n9.energy[deep] + basis_n9.energy[packet_mode]
    n_fine = 8 * basis_n9.config.site_count
    xs = np.arange(n_fine) * length / n_fine
    phi = basis_n9.sample(xs)
    spatial = (length / n_fine) * np.einsum(
        "js,js->", phi[:, :, deep].conj(),
        v_profile(xs)[:, None] * phi[:, :, packet_mode])
    # phi_n^dag contributes exp(-i E_n t), the packet mode exp(-i E_k t)
    expected = spatial * (1.0 - np.exp(-1j * omega * window)) / (1j * omega)
    assert abs(value - expected) / abs(expected) < 1e-6


def test_deep_state_coupling_decays_with_depth(basis_n9):
    basis = build_basis(LatticeConfig(TWO_PI, 17, 1.0, 1.0))
    idx, coeffs = ev.gaussian_packet_coefficients(basis, 1.0, 0.3)

    def potential(x, t):
        spatial = np.exp(-((x - np.pi) ** 2) / (2 * 0.8**2))
        return spatial * np.exp(-((t - 0.5) ** 2) / (2 * 0.2**2))

    negatives = np.where(basis.lam < 0)[0]
    def coupling(k_target):
        deep = int(negatives[basis.momentum_index[negatives] == k_target][0])
        return abs(rs.deep_state_coupling(basis, potential, (0.0, 1.0),
                                          (idx, coeffs), deep))

    values = [coupling(k) for k in (-2, -4, -8)]
    assert values[0] > values[1] > values[2]
