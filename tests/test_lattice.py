import numpy as np
import pytest

import dense_reference as dense
from diracsea.evolution import apply_hamiltonian
from diracsea.lattice import (
    ALPHA,
    LatticeConfig,
    build_basis,
    spectral_derivative,
)

TWO_PI = 2.0 * np.pi


def test_mode_energy_values():
    assert np.all(build_basis(LatticeConfig(TWO_PI, 1, 1.0)).energy == 1.0)
    basis = build_basis(LatticeConfig(TWO_PI, 7, 4.0))  # p = k
    at_3 = basis.energy[basis.momentum_index == 3]
    assert at_3 == pytest.approx([5.0, 5.0], abs=1e-15)
    basis = build_basis(LatticeConfig(TWO_PI / 2.5, 7, 0.0))  # p = 2.5 k
    assert -2.5 in basis.momentum and 0.0 in basis.momentum
    assert basis.energy == pytest.approx(np.abs(basis.momentum), abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(TWO_PI, 8, 1.0)   # even N
    with pytest.raises(ValueError):
        LatticeConfig(0.0, 9, 1.0)      # L <= 0
    with pytest.raises(ValueError):
        LatticeConfig(TWO_PI, 9, -1.0)  # negative mass
    for site_count in (9.0, True):      # not an integer
        with pytest.raises(ValueError):
            LatticeConfig(TWO_PI, site_count, 1.0)
    assert LatticeConfig(TWO_PI, np.int64(9), 1.0).site_count == 9


def test_config_grid_and_momenta():
    cfg = LatticeConfig(TWO_PI, 5, 1.0)
    assert np.allclose(cfg.grid, np.arange(5) * TWO_PI / 5)
    assert sorted(cfg.momentum_indices) == [-2, -1, 0, 1, 2]
    assert np.allclose(sorted(cfg.momenta), [-2, -1, 0, 1, 2])


def spinor_at(basis, k, lam):
    """Spinor of the mode with momentum index k on branch lam."""
    (index,) = np.flatnonzero((basis.momentum_index == k) & (basis.lam == lam))
    return basis.spinors[:, index]


def test_zero_momentum_spinors_massive(basis_n3):
    assert np.allclose(spinor_at(basis_n3, 0, +1), [1.0, 0.0])
    assert np.allclose(spinor_at(basis_n3, 0, -1), [0.0, 1.0])


def test_massless_energies_and_convention():
    basis = build_basis(LatticeConfig(TWO_PI, 3, 0.0))
    for lam in (+1, -1):
        energies = sorted(basis.energy[basis.lam == lam])
        assert energies == pytest.approx([0.0, 1.0, 1.0], abs=1e-15)
    assert np.allclose(spinor_at(basis, 0, +1), [1.0, 0.0])
    assert np.allclose(spinor_at(basis, 0, -1), [0.0, 1.0])


def test_mode_ordering(basis_n5):
    assert basis_n5.lam.tolist() == [1] * 5 + [-1] * 5
    assert basis_n5.momentum_index[:5].tolist() == [0, -1, 1, -2, 2]


def test_spinor_pair_orthogonality(basis_n9):
    for k in basis_n9.config.momentum_indices:
        pair = basis_n9.spinors[:, basis_n9.momentum_index == k]
        assert abs(np.vdot(pair[:, 0], pair[:, 1])) < 1e-14


@pytest.mark.parametrize("n_sites", [1, 3, 9, 27, 151])
def test_closed_form_basis_matches_eigh_reference(n_sites):
    """Mode order, momenta and energies are bit-identical to the per-mode
    eigh construction, and spinors agree to two units in the last place.
    ``flat`` stays a view of ``phi``, as with the eigh spinors."""
    for mass in (0.0, 1.0, 5.0):
        for length in (TWO_PI, 3.7):
            config = LatticeConfig(length, n_sites, mass)
            basis = build_basis(config)
            lam, index, momentum, energy, spinors = dense.eigh_modes(config)
            assert np.array_equal(basis.lam, lam)
            assert np.array_equal(basis.momentum_index, index)
            assert np.array_equal(basis.momentum, momentum)
            assert np.array_equal(basis.energy, energy)
            assert np.abs(basis.spinors - spinors).max() <= 4.4e-16
            assert np.shares_memory(basis.flat, basis.phi)  # a view, no copy


def test_spinor_first_component_nonnegative_in_huge_boxes():
    """Even where |p| << m, as at L = 1e13, the first component is the one
    made non-negative; at L = 1e200 and m = 0, E^2 underflows but the
    spinors stay unit vectors."""
    basis = build_basis(LatticeConfig(1e13, 3, 1.0))
    assert np.all(basis.spinors.imag == 0)
    assert np.all(basis.spinors.real[0] >= 0)
    assert spinor_at(basis, 1, -1)[0] > 0
    basis = build_basis(LatticeConfig(1e200, 3, 0.0))
    norms = np.linalg.norm(basis.spinors, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-15


def test_spinor_reflection_is_sigma_z():
    """u(-p) = +-sigma_z u(p) bit for bit, the symmetry that makes the
    intra-band F2 vanish."""
    for n_sites in (1, 9, 151):
        for mass in (0.0, 1.0, 5.0):
            for length in (TWO_PI, 3.7, 1e13):
                basis = build_basis(LatticeConfig(length, n_sites, mass))
                modes = list(zip(basis.momentum_index.tolist(), basis.lam.tolist()))
                position = {mode: n for n, mode in enumerate(modes)}
                mirror = [position[-k, lam] for k, lam in modes]
                image = np.array([[1.0], [-1.0]]) * basis.spinors[:, mirror]
                same = np.all(image == basis.spinors, axis=0)
                opposite = np.all(image == -basis.spinors, axis=0)
                assert np.all(same | opposite)


def test_build_basis_calls_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_basis called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    basis = build_basis(LatticeConfig(TWO_PI, 201, 1.0))
    assert basis.mode_count == 402


def test_orthonormality_and_completeness():
    for n_sites in (5, 9):
        for mass in (0.0, 1.0, 5.0):
            basis = build_basis(LatticeConfig(TWO_PI, n_sites, mass))
            gram = basis.config.spacing * basis.flat.conj().T @ basis.flat
            assert np.abs(gram - np.eye(2 * n_sites)).max() < 1e-12
            outer = np.einsum("jan,kbn->jakb", basis.phi, basis.phi.conj())
            target = np.zeros_like(outer)
            idx = np.arange(n_sites)
            for s in (0, 1):
                target[idx, s, idx, s] = 1.0 / basis.config.spacing
            assert np.abs(outer - target).max() < 1e-12


def test_free_hamiltonian_eigenrelation(basis_n9):
    for n in range(basis_n9.mode_count):
        image = apply_hamiltonian(basis_n9, basis_n9.phi[:, :, n])
        target = basis_n9.lam[n] * basis_n9.energy[n] * basis_n9.phi[:, :, n]
        assert np.abs(image - target).max() < 1e-12


def test_free_hamiltonian_constant_positive_spinor(basis_n9):
    field = np.zeros((9, 2), dtype=complex)
    field[:, 0] = 1.0  # p=0 positive-branch spinor at every site
    image = apply_hamiltonian(basis_n9, field)
    assert np.abs(image - field).max() < 1e-13  # m = 1 scales by +1


def test_free_hamiltonian_hermitian(basis_n9, rng):
    for _ in range(5):
        f = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        g = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        left = basis_n9.inner(f, apply_hamiltonian(basis_n9, g))
        right = np.conj(basis_n9.inner(g, apply_hamiltonian(basis_n9, f)))
        assert abs(left - right) < 1e-12
        diag = basis_n9.inner(f, apply_hamiltonian(basis_n9, f))
        assert abs(diag.imag) < 1e-12


def test_free_hamiltonian_size_mismatch(basis_n9):
    with pytest.raises(ValueError):
        apply_hamiltonian(basis_n9, np.zeros((7, 2), dtype=complex))


def test_kinetic_matrix_is_the_closed_form_circulant():
    """K = -i (2 pi/L) (1/2) (-1)^(j-k) csc((j-k) pi/N), zero diagonal."""
    for n_sites in (1, 3, 5, 9, 27, 81):
        for length in (TWO_PI, 3.7):
            basis = build_basis(LatticeConfig(length, n_sites, 1.0))
            k = dense.kinetic_matrix(basis)
            d = np.subtract.outer(np.arange(n_sites), np.arange(n_sites))
            off = d != 0
            closed = np.zeros((n_sites, n_sites), dtype=complex)
            closed[off] = (-1j * (TWO_PI / length) * 0.5 * (-1.0) ** d[off]
                           / np.sin(d[off] * np.pi / n_sites))
            assert k.shape == (n_sites, n_sites)
            assert np.abs(k - closed).max() <= 1e-14 * max(1.0, np.abs(closed).max())
            assert np.array_equal(k, k.conj().T)
            assert np.all(np.diag(k) == 0)


def test_derivative_matrix_is_real_antisymmetric_and_read_only():
    """D is real with D^T = -D exactly, K is -i D exactly, and neither
    array can be written through."""
    for n_sites in (1, 3, 9, 27, 125):
        for length in (TWO_PI, 3.7):
            basis = build_basis(LatticeConfig(length, n_sites, 1.0))
            d = basis.derivative_matrix
            assert d.dtype == np.float64 and d.shape == (n_sites, n_sites)
            assert np.array_equal(d.T, -d)
            assert np.array_equal(dense.kinetic_matrix(basis), -1j * d)
            for cached in (d, dense.kinetic_matrix(basis)):
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 1.0
            assert basis.derivative_matrix is d


def test_apply_hamiltonian_uses_each_lattice_kinetic_matrix(rng):
    """Interleaved lattices sharing N or L each get their own kinetic term."""
    lattices = [LatticeConfig(TWO_PI, 9, 1.0), LatticeConfig(3.7, 9, 1.0),
                LatticeConfig(TWO_PI, 9, 1.0), LatticeConfig(TWO_PI, 9, 2.5),
                LatticeConfig(3.7, 9, 1.0)]
    bases = [build_basis(config) for config in lattices]
    for basis in bases + bases[::-1]:
        psi = rng.normal(size=(18, 4)) + 1j * rng.normal(size=(18, 4))
        dense = basis.free_hamiltonian_matrix() @ psi
        assert np.abs(apply_hamiltonian(basis, psi) - dense).max() < 1e-12


def test_h0_matrix_spectrum(basis_n9):
    h0 = basis_n9.free_hamiltonian_matrix()
    assert np.abs(h0 - h0.conj().T).max() < 1e-13
    eigenvalues = np.sort(np.linalg.eigvalsh(h0))
    expected = np.sort(np.concatenate([basis_n9.energy[basis_n9.lam > 0],
                                       -basis_n9.energy[basis_n9.lam < 0]]))
    assert np.abs(eigenvalues - expected).max() < 1e-12


def test_h0_matrix_matches_spectral_application(basis_n9, rng):
    h0 = basis_n9.free_hamiltonian_matrix()
    psi = rng.normal(size=18) + 1j * rng.normal(size=18)
    assert np.abs(h0 @ psi - apply_hamiltonian(basis_n9, psi)).max() < 1e-12


def test_mode_coefficient_roundtrip(basis_n9, rng):
    psi = rng.normal(size=18) + 1j * rng.normal(size=18)
    coeff = dense.mode_coefficients(basis_n9, psi)
    assert np.abs(basis_n9.flat @ coeff - psi).max() < 1e-12


def test_sample_matches_grid(basis_n9):
    sampled = basis_n9.sample(basis_n9.config.grid)
    assert np.abs(sampled - basis_n9.phi).max() < 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("length, n_sites", [(TWO_PI, 101), (TWO_PI, 201),
                                             (1.0, 201)])
def test_grid_modes_take_exact_phases(length, n_sites):
    """``phi`` on the grid is exp(2 pi i j k / N) u_n / sqrt(L), with the
    phase taken in np.longdouble, within 4 eps of its largest entry (1.8
    eps measured); the float products p x that ``sample`` takes miss by
    about 300 eps at N = 101."""
    basis = build_basis(LatticeConfig(length, n_sites, 1.0))
    turns = (2 * np.arccos(np.longdouble(-1)) / n_sites
             * np.outer(np.arange(n_sites), basis.momentum_index))
    phase = (np.cos(turns) + 1j * np.sin(turns)).astype(complex)
    expected = (phase[:, None, :] * basis.spinors[None, :, :]
                / np.sqrt(length))
    bound = 4 * np.finfo(float).eps * np.abs(expected).max()
    assert np.abs(basis.phi - expected).max() < bound


@pytest.mark.parametrize("n_sites", [1, 41, 151, 201])
def test_sample_takes_one_exponential_per_momentum(n_sites):
    """Each momentum is on both branches; its one exponential, gathered to
    the two modes, is the per-mode exponential bit for bit."""
    config = LatticeConfig(TWO_PI, n_sites, 1.0)
    basis = build_basis(config)
    points = np.linspace(-1.0, 2.0 * TWO_PI, 3 * n_sites + 4)
    per_mode = np.exp(1j * np.outer(points, basis.momentum))
    expected = (per_mode[:, None, :] * basis.spinors[None, :, :]
                / np.sqrt(config.box_length))
    assert np.array_equal(basis.sample(points), expected)


def test_spectral_derivative():
    n = 9
    x = np.arange(n) * TWO_PI / n
    f = np.cos(2 * x) + 0.5 * np.sin(3 * x)
    expected = -2 * np.sin(2 * x) + 1.5 * np.cos(3 * x)
    assert np.abs(spectral_derivative(f, TWO_PI) - expected).max() < 1e-12
    # alpha really is sigma_x
    assert np.allclose(ALPHA, [[0, 1], [1, 0]])
