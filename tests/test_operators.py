import numpy as np
import pytest

import dense_reference as dense
from diracsea import fock
from diracsea.checks import oracle_subtraction_defect
from diracsea.lattice import ALPHA, LatticeConfig, build_basis
from diracsea.operators import (
    charge_kernel,
    continuity_pair_residual,
    current_kernel,
    free_hamiltonian_kernel,
    mode_pairs,
    renorm_constants,
)
from diracsea.vacua import OccupationSet, VacuumSpec, occupation_set

TWO_PI = 2.0 * np.pi


def test_kernels_hermitian(basis_n9):
    for j in (0, 3, 8):
        for maker in (charge_kernel, current_kernel):
            k = maker(basis_n9, j).coefficients
            assert np.abs(k - k.conj().T).max() < 1e-14
    h = free_hamiltonian_kernel(basis_n9).coefficients
    assert np.abs(h - h.conj().T).max() == 0.0


def test_charge_kernel_trace_relation(basis_n9):
    total = sum(charge_kernel(basis_n9, j).coefficients
                for j in range(9)) * basis_n9.config.spacing
    q = basis_n9.config.charge
    assert np.abs(total - q * np.eye(18)).max() < 1e-13


def test_charge_kernel_diagonal(basis_n9):
    q = basis_n9.config.charge
    length = basis_n9.config.box_length
    for j in (0, 4):
        diag = np.diag(charge_kernel(basis_n9, j).coefficients)
        assert np.abs(diag - q / length).max() < 1e-14


def test_current_kernel_diagonal_group_velocity(basis_n9):
    # diagonal entries are the mode group velocities lam * p / E over L
    q = basis_n9.config.charge
    length = basis_n9.config.box_length
    expected = q * basis_n9.lam * basis_n9.momentum / basis_n9.energy / length
    diag = np.diag(current_kernel(basis_n9, 2).coefficients)
    assert np.abs(diag - expected).max() < 1e-13


def test_current_kernel_heavy_mass_limit():
    # spinors freeze onto beta eigenstates: same-branch velocities die off and
    # the branch-flip elements at equal momentum saturate to q/L
    config = LatticeConfig(TWO_PI, 5, 1e3)
    basis = build_basis(config)
    k = current_kernel(basis, 1).coefficients
    length = config.box_length
    same_branch = np.abs(np.diag(k)).max() * length
    assert same_branch < 5e-3
    for kk in config.momentum_indices:
        pair = np.where(basis.momentum_index == kk)[0]
        flip = abs(k[pair[0], pair[1]]) * length
        if kk != 0:
            assert flip == pytest.approx(1.0, abs=5e-3)


def test_free_hamiltonian_kernel(basis_n9):
    kernel = free_hamiltonian_kernel(basis_n9)
    eigenvalues = np.sort(np.diag(kernel.coefficients).real)
    expected = np.sort(basis_n9.lam * basis_n9.energy)
    assert np.allclose(eigenvalues, expected)
    occ = occupation_set(VacuumSpec("standard"), basis_n9)
    subtracted = free_hamiltonian_kernel(basis_n9, occ)
    assert subtracted.subtraction == pytest.approx(-np.sum(
        basis_n9.energy[basis_n9.lam < 0]))


def test_renorm_constants_standard(basis_n9):
    occ = occupation_set(VacuumSpec("standard"), basis_n9)
    constants = renorm_constants(basis_n9, occ)
    q = basis_n9.config.charge
    n = basis_n9.config.site_count
    length = basis_n9.config.box_length
    assert np.abs(constants.rho - n * q / length).max() < 1e-13
    assert np.abs(constants.current).max() < 1e-13  # symmetric sea carries none
    assert constants.xi == pytest.approx(-np.sum(basis_n9.energy[basis_n9.lam < 0]))


def test_renorm_constants_band_site_independent(basis_n9):
    # momentum-symmetric band: per-site subtractions constant over the grid
    occ = occupation_set(VacuumSpec("band", 1.2), basis_n9)
    constants = renorm_constants(basis_n9, occ)
    assert np.abs(constants.rho - constants.rho[0]).max() < 1e-13
    assert np.abs(constants.current - constants.current[0]).max() < 1e-13
    assert np.abs(constants.current).max() < 1e-13


def test_renorm_constants_point_cases(basis_n9):
    empty = renorm_constants(basis_n9, OccupationSet((), 18))
    assert np.abs(empty.rho).max() == 0.0
    assert np.abs(empty.current).max() == 0.0
    assert empty.xi == 0.0
    # a "band" occupying every negative mode is the filled sea again
    standard = occupation_set(VacuumSpec("standard"), basis_n9)
    again = renorm_constants(basis_n9, standard)
    first = renorm_constants(basis_n9, standard)
    assert np.allclose(again.rho, first.rho)
    assert again.xi == first.xi


def test_vacuum_expectations_vanish_after_subtraction(basis_n3):
    for spec in (VacuumSpec("standard"), VacuumSpec("band", 0.2)):
        assert oracle_subtraction_defect(basis_n3, spec) < 1e-12


def test_charge_sum_counts_particles_above_vacuum(basis_n3):
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    ladders = dense.build_ladders(6)
    constants = renorm_constants(basis_n3, occ)
    added = np.where(basis_n3.lam > 0)[0][0]
    state = ladders.raising[added] @ fock.build_vacuum_vector(occ)
    total = 0.0
    for j in range(3):
        op = dense.bilinear_matrix(
            ladders, charge_kernel(basis_n3, j).with_subtraction(constants.rho[j]))
        total += basis_n3.config.spacing * dense.expectation(state, op).real
    assert total == pytest.approx(basis_n3.config.charge, abs=1e-12)


def test_continuity_identity_all_pairs():
    for n_sites in (5, 9):
        for mass in (0.0, 1.0, 5.0):
            basis = build_basis(LatticeConfig(TWO_PI, n_sites, mass))
            assert continuity_pair_residual(basis) < 1e-12


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_mode_pairs_are_the_sampled_pair_functions(mass):
    """Each row mode n and column mode m of the table give the grid samples
    phi_n(x_j)^dag phi_m(x_j) = overlap exp(i (p_m - p_n) x_j) / L, and the
    same with alpha for the flux; the gap and transfer are e_n - e_m and
    k_m - k_n.  Unequal row and column counts catch a transposed table,
    L != 2 pi a lost box length, and a random phase on each mode, under
    which the basis stays orthonormal, a lost complex conjugate."""
    rng = np.random.default_rng(22)
    basis = build_basis(LatticeConfig(3.7, 9, mass))
    basis.spinors = basis.spinors * np.exp(
        1j * rng.uniform(0.0, TWO_PI, basis.mode_count))
    phi = basis.sample(basis.config.grid)
    rows = rng.choice(basis.mode_count, size=7)
    cols = rng.choice(basis.mode_count, size=5)
    overlap, flux, gap, transfer = mode_pairs(basis, rows, cols)
    length = basis.config.box_length
    for a, n in enumerate(rows):
        for b, m in enumerate(cols):
            e_n = basis.lam[n] * basis.energy[n]
            assert gap[a, b] == e_n - basis.lam[m] * basis.energy[m]
            assert transfer[a, b] == round(
                (basis.momentum[m] - basis.momentum[n]) * length / TWO_PI)

    wave = np.exp(1j * (TWO_PI / length) * transfer[None]
                  * basis.config.grid[:, None, None]) / length
    phi_n = phi[:, :, rows].conj()
    phi_m = phi[:, :, cols]
    density = np.einsum("jsn,jsm->jnm", phi_n, phi_m)
    current = np.einsum("jsn,st,jtm->jnm", phi_n, ALPHA, phi_m)
    assert np.abs(overlap[None] * wave - density).max() < 1e-14
    assert np.abs(flux[None] * wave - current).max() < 1e-14


def test_kernel_restriction(basis_n9):
    kernel = charge_kernel(basis_n9, 0)
    sub = kernel.restricted([0, 2, 5])
    assert sub.coefficients.shape == (3, 3)
    assert sub.coefficients[1, 2] == kernel.coefficients[2, 5]
    assert kernel.with_subtraction(2.5).subtraction == 2.5
