import numpy as np
import pytest

import dense_reference as dense
from diracsea import schwinger as sw
from diracsea.checks import oracle_commutator_defect
from diracsea.lattice import ALPHA, LatticeConfig, build_basis
from diracsea.schwinger import (
    _intra_band_f2,
    divergence_diag_closed_form,
    divergence_of_kernel,
    f2_identity_check,
    schwinger_band,
    schwinger_standard,
    weak_limit_pairing,
)
from diracsea.vacua import VacuumSpec, classify_indices, coupled_band_spec

TWO_PI = 2.0 * np.pi


def fine_points(basis, factor=4):
    n = factor * basis.config.site_count
    return np.arange(n) * basis.config.box_length / n


def pair_sum_coefficients(basis, occupied, partners):
    """Reference C_d, one mode pair at a time, as a dict over transfers d."""
    q = basis.config.charge
    length = basis.config.box_length
    u = basis.spinors
    terms = {}
    for m in occupied:
        for n in partners:
            amp = np.vdot(u[:, m], u[:, n]) * (u[:, n].conj() @ ALPHA @ u[:, m])
            delta = int(basis.momentum_index[m] - basis.momentum_index[n])
            terms[delta] = terms.get(delta, 0.0) + q * q * amp / length**2
    deltas = set(terms) | {-d for d in terms}
    return {d: terms.get(d, 0.0) - np.conj(terms.get(-d, 0.0)) for d in deltas}


def refined_grid_divergence(kernel):
    """Reference d/dx I over grid pairs: the pair sum sampled on 2N+1 points,
    FFT-differentiated there and read back at the grid separations."""
    basis = kernel.basis
    n_sites = basis.config.site_count
    length = basis.config.box_length
    fine = 2 * n_sites + 1
    s_fine = np.arange(fine) * (length / fine)
    q = basis.config.charge
    u = basis.spinors
    prof = np.zeros(fine, dtype=complex)
    base = TWO_PI / length
    for m in kernel.occupied:
        for n in kernel.partners:
            amp = np.vdot(u[:, m], u[:, n]) * (u[:, n].conj() @ ALPHA @ u[:, m])
            amp = q * q * amp / length**2
            sign = basis.momentum_index[m] - basis.momentum_index[n]
            term = amp * np.exp(1j * base * sign * s_fine)
            prof += term - term.conj()
    freqs = np.fft.fftfreq(fine, d=1.0 / fine)
    spectrum = np.fft.fft(prof) / fine
    s_grid = np.arange(n_sites) * basis.config.spacing
    phases = np.exp(1j * base * np.outer(s_grid, freqs))
    deriv_profile = phases @ (1j * base * freqs * spectrum)
    j = np.arange(n_sites)
    return deriv_profile[(j[:, None] - j[None, :]) % n_sites]


@pytest.mark.parametrize("which", ["sea", "band", "sea-subset", "band-subset"])
def test_dense_coefficients_match_pair_sum(basis_n9, which):
    subset = None
    if which.endswith("subset"):
        subset = [i for i in range(18)
                  if basis_n9.momentum_index[i] in (-1, 0, 1, 2)]
    if which.startswith("sea"):
        kernel = schwinger_standard(basis_n9, mode_indices=subset)
    else:
        kernel = schwinger_band(basis_n9, coupled_band_spec(basis_n9),
                                mode_indices=subset)
    reference = pair_sum_coefficients(basis_n9, kernel.occupied,
                                      kernel.partners)
    dense = dict(zip(kernel.transfers.tolist(), kernel.coefficients))
    for d, c in dense.items():
        assert c == reference.get(d, 0.0)  # bit for bit
    assert set(reference) <= set(dense)

    divergence = divergence_of_kernel(kernel)
    expected = refined_grid_divergence(kernel)
    assert np.abs(divergence - expected).max() <= 1e-13 * np.abs(expected).max()


def test_zero_charge_gives_zero_kernel():
    basis = build_basis(LatticeConfig(TWO_PI, 5, 1.0, 0.0))
    kernel = schwinger_standard(basis)
    assert np.abs(kernel.values).max() == 0.0
    assert np.abs(divergence_diag_closed_form(basis)).max() == 0.0
    assert np.abs(divergence_of_kernel(kernel)).max() < 1e-15


def test_kernel_purely_imaginary(basis_n9):
    for kernel in (schwinger_standard(basis_n9),
                   schwinger_band(basis_n9, coupled_band_spec(basis_n9))):
        pts = fine_points(basis_n9)
        sampled = kernel.evaluate(pts, pts)
        assert np.abs(sampled.real).max() < 1e-12


def test_grid_values_vanish_on_complete_basis(basis_n9):
    """On the full truncated basis the site-sampled commutator vanishes:
    charge and current are commuting multiplication operators there."""
    kernel = schwinger_standard(basis_n9)
    assert np.abs(kernel.values).max() < 1e-13
    band = schwinger_band(basis_n9, coupled_band_spec(basis_n9))
    assert np.abs(band.values).max() < 1e-13


def test_subset_kernel_is_nonzero(basis_n9):
    subset = [i for i in range(18) if basis_n9.momentum_index[i] in (-1, 0, 1)]
    kernel = schwinger_standard(basis_n9, mode_indices=subset)
    assert np.abs(kernel.values).max() > 1e-3


def test_translation_covariance(basis_n9):
    kernel = schwinger_standard(basis_n9)
    pts = fine_points(basis_n9, 3)
    values = kernel.evaluate(pts, pts)
    n = len(pts)
    for shift in (1, 5):
        rolled = np.roll(np.roll(values, shift, axis=0), shift, axis=1)
        assert np.abs(rolled - values).max() < 1e-12
    subset = [i for i in range(18) if abs(basis_n9.momentum_index[i]) <= 1]
    grid_vals = schwinger_standard(basis_n9, mode_indices=subset).values
    for j in range(9):
        for k in range(9):
            assert grid_vals[j, k] == pytest.approx(
                grid_vals[(j + 1) % 9, (k + 1) % 9], abs=1e-13)


def test_oracle_equivalence_full_and_subset(basis_n3):
    assert oracle_commutator_defect(basis_n3, VacuumSpec("standard")) < 1e-10
    basis7 = build_basis(LatticeConfig(TWO_PI, 7, 1.0))
    subset = [i for i in range(14) if basis7.momentum_index[i] in (-1, 0, 1, 2)]
    assert oracle_commutator_defect(basis7, VacuumSpec("standard"),
                                    subset) < 1e-10
    assert oracle_commutator_defect(basis7, VacuumSpec("band", 1.0),
                                    subset) < 1e-10


def test_divergence_paths_agree(basis_n9):
    kernel = schwinger_standard(basis_n9)
    divergence = divergence_of_kernel(kernel)
    closed = divergence_diag_closed_form(basis_n9)
    scale = np.abs(closed[0])
    assert np.abs(np.diag(divergence) - closed).max() / scale < 1e-10


def test_divergence_sign_and_uniformity(basis_n9):
    closed = divergence_diag_closed_form(basis_n9)
    assert np.abs(closed.real).max() < 1e-14
    assert closed[0].imag < 0
    assert np.abs(closed - closed[0]).max() < 1e-14
    divergence = divergence_of_kernel(schwinger_standard(basis_n9))
    diag = np.diag(divergence)
    assert np.abs(diag - diag[0]).max() < 1e-12


def test_divergence_heavy_mass_asymptotics():
    """For heavy fermions each overlap tends to (dp / 2m)^2, so the
    coincident-point divergence falls off like 1/m."""
    config = LatticeConfig(TWO_PI, 5, 1e3)
    basis = build_basis(config)
    closed = divergence_diag_closed_form(basis)[0]
    total = 0.0
    occupied = np.where(basis.lam < 0)[0]
    partners = np.where(basis.lam > 0)[0]
    for m_idx in occupied:
        for n_idx in partners:
            dp = basis.momentum[n_idx] - basis.momentum[m_idx]
            total += 2.0 * config.mass * (dp / (2.0 * config.mass)) ** 2
    approx = -2j * total / config.box_length**2
    assert abs(closed - approx) / abs(closed) < 1e-5
    assert abs(closed) < 1e-1  # far below the light-mass value


def test_band_kernel_diagonal_zero(basis_n9):
    for width in (0.2, 1.0, coupled_band_spec(basis_n9).band_width):
        kernel = schwinger_band(basis_n9, VacuumSpec("band", width))
        assert np.abs(np.diag(kernel.values)).max() < 1e-12


def test_band_requires_band_spec(basis_n9):
    with pytest.raises(ValueError):
        schwinger_band(basis_n9, VacuumSpec("standard"))
    with pytest.raises(ValueError):
        schwinger_band(basis_n9, VacuumSpec("band",
                                            basis_n9.max_energy))


def test_f2_identity(basis_n9):
    spec = coupled_band_spec(basis_n9)
    assert f2_identity_check(basis_n9, spec) < 1e-12
    other_charge = build_basis(LatticeConfig(TWO_PI, 9, 1.0, 3.0))
    assert f2_identity_check(other_charge, spec) == pytest.approx(
        f2_identity_check(basis_n9, spec), abs=1e-15)


def test_f2_identity_at_large_cutoff():
    # the band runs of the `schwinger` gate reach N = 251 under 1e-12
    basis = build_basis(LatticeConfig(TWO_PI, 251, 1.0, 1.0))
    assert f2_identity_check(basis, coupled_band_spec(basis)) <= 1e-12


def without_one_plus_p_mode(basis, band):
    """``band`` less its first negative-branch mode of positive momentum, so
    the set is no longer closed under p -> -p."""
    plus_p = band[basis.momentum_index[band] > 0]
    return band[band != plus_p[0]]


@pytest.mark.parametrize("n_sites", [9, 27, 51])
def test_f2_projector_form_matches_pair_sum(n_sites):
    """On a band closed under p -> -p, F2 cancels to rounding and could hide a
    wrong contraction; without one +p mode it is of order one, and the
    projector form must still equal the band-pair double sum everywhere."""
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
    _, in_band, _ = classify_indices(coupled_band_spec(basis), basis)
    band = without_one_plus_p_mode(basis, in_band)
    expected = dense.band_pair_f2(basis.phi[:, :, band])
    assert np.abs(expected).max() > 0.01
    assert np.abs(_intra_band_f2(basis, band) - expected).max() <= 1e-12


@pytest.mark.parametrize("n_sites", [9, 51])
def test_f2_gate_fails_with_alpha_identity(monkeypatch, n_sites):
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))
    monkeypatch.setattr("diracsea.operators.ALPHA", np.eye(2, dtype=complex))
    assert f2_identity_check(basis, coupled_band_spec(basis)) > 1e-12


@pytest.mark.parametrize("n_sites", [9, 51])
def test_f2_gate_fails_on_band_missing_a_plus_p_mode(monkeypatch, n_sites):
    basis = build_basis(LatticeConfig(TWO_PI, n_sites, 1.0, 1.0))

    def asymmetric(spec, basis):
        positive, in_band, below = classify_indices(spec, basis)
        return positive, without_one_plus_p_mode(basis, in_band), below

    monkeypatch.setattr(sw, "classify_indices", asymmetric)
    assert f2_identity_check(basis, coupled_band_spec(basis)) > 1e-12


def test_f2_identity_memory_at_large_cutoff():
    """One check at N = 251 holds the (2N, 2N) projector and an (N, N) F2,
    not the (N, B, B) pair tensors: its tracemalloc peak stays below 16 MiB."""
    import tracemalloc
    basis = build_basis(LatticeConfig(TWO_PI, 251, 1.0, 1.0))
    spec = coupled_band_spec(basis)
    tracemalloc.start()
    try:
        f2_identity_check(basis, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_f2_single_mode_band_real_on_diagonal(basis_n9):
    # with one band mode the double sum is |phi|^2 (phi^dag alpha phi): real
    from diracsea.lattice import ALPHA
    from diracsea.vacua import classify_indices
    spec = VacuumSpec("band", 0.0)  # only the E = m shell
    _, in_band, _ = classify_indices(spec, basis_n9)
    assert len(in_band) == 1
    assert f2_identity_check(basis_n9, spec) < 1e-15
    phi = basis_n9.phi[:, :, in_band[0]]
    diag = np.einsum("ys,ys->y", phi.conj(), phi) * \
        np.einsum("xs,st,xt->x", phi.conj(), ALPHA, phi)
    assert np.abs(diag.imag).max() < 1e-15


def test_particle_hole_flip_negates(basis_n9):
    kernel = schwinger_standard(basis_n9)
    flipped = schwinger_standard(basis_n9, occupied_branch=+1)
    pts = fine_points(basis_n9)
    assert np.abs(kernel.evaluate(pts, pts)
                  + flipped.evaluate(pts, pts)).max() < 1e-12
    assert np.abs(np.diag(divergence_of_kernel(kernel))
                  + np.diag(divergence_of_kernel(flipped))).max() < 1e-12


def test_weak_pairing_zero_kernel():
    basis = build_basis(LatticeConfig(TWO_PI, 5, 1.0, 0.0))
    kernel = schwinger_standard(basis)
    g = np.cos(basis.config.grid)
    assert weak_limit_pairing(kernel, g, g) == 0.0


def test_weak_pairing_constant_test_functions(basis_n9):
    """Pairing against constants is the double charge integral, which
    vanishes because total charge commutes with everything."""
    kernel = schwinger_standard(basis_n9)
    ones = np.ones(9)
    assert abs(weak_limit_pairing(kernel, ones, ones)) < 1e-13

    # oracle side: [rho(y), total charge] has zero sea expectation
    from diracsea import fock
    from diracsea.operators import charge_kernel
    from diracsea.vacua import occupation_set
    basis3 = build_basis(LatticeConfig(TWO_PI, 3, 1.0))
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis3)
    sea = fock.build_vacuum_vector(occ)
    total_charge = basis3.config.spacing * dense.bilinear_matrix(
        ladders, charge_kernel(basis3, 0))
    for j in (1, 2):
        total_charge = total_charge + basis3.config.spacing * \
            dense.bilinear_matrix(ladders, charge_kernel(basis3, j))
    from diracsea.operators import current_kernel
    for j in range(3):
        current = dense.bilinear_matrix(ladders, current_kernel(basis3, j))
        assert abs(dense.commutator_expectation(sea, total_charge,
                                               current)) < 1e-12


def test_weak_pairing_band_collapse(basis_n9):
    g = np.cos(3 * basis_n9.config.grid)
    h = np.sin(3 * basis_n9.config.grid)
    standard = abs(weak_limit_pairing(schwinger_standard(basis_n9), g, h))
    band = abs(weak_limit_pairing(
        schwinger_band(basis_n9, coupled_band_spec(basis_n9)), g, h))
    assert standard > 1.0
    assert band < standard


def test_weak_pairing_accepts_callables(basis_n9):
    kernel = schwinger_standard(basis_n9)
    length = basis_n9.config.box_length
    from_arrays = weak_limit_pairing(
        kernel, np.cos(TWO_PI * basis_n9.config.grid / length),
        np.sin(TWO_PI * basis_n9.config.grid / length))
    from_callables = weak_limit_pairing(
        kernel, lambda x: np.cos(TWO_PI * x / length),
        lambda x: np.sin(TWO_PI * x / length))
    assert from_arrays == pytest.approx(from_callables, abs=1e-14)
