from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse

import dense_reference as dense
from diracsea import checks, fock
from diracsea.checks import (
    anticommutator_defect,
    band_spectrum_negative_level,
    spectrum_positivity,
)
from diracsea.lattice import LatticeConfig, build_basis
from diracsea.operators import OneBodyKernel, free_hamiltonian_kernel
from diracsea.vacua import OccupationSet, VacuumSpec, occupation_set

TWO_PI = 2.0 * np.pi


def test_mode_count_guard():
    for bad in (0, 15, -3):
        with pytest.raises(ValueError):
            fock.build_vacuum_vector(OccupationSet((), bad))


def test_single_mode_matrices():
    ladders = dense.build_ladders(1)
    lower = ladders.lowering[0].toarray()
    raise_ = ladders.raising[0].toarray()
    assert np.allclose(lower, [[0, 1], [0, 0]])
    assert np.allclose(raise_, [[0, 0], [1, 0]])


def test_anticommutators_small():
    for mode_count in (1, 2, 4, 6):
        assert anticommutator_defect(mode_count) < 1e-12


def mutant_sign(target, value):
    """fock.ladder_sign with its sign on one (bitstring, mode) replaced by
    value(sign); every other sign is left as it was."""
    exact = fock.ladder_sign
    bits, mode = target

    def mutant(states, modes):
        sign = exact(states, modes)
        return np.where((states == bits) & (modes == mode), value(sign), sign)

    return mutant


def unsigned_sign(bits, mode):
    """No Jordan-Wigner string: a_i and a_j commute for i != j."""
    return np.ones(np.broadcast(bits, mode).shape)


def lowering_target(rng, mode_count):
    """A random (b, n) with b holding n, and with an empty mode if M > 1, so
    that a_n on b starts hops of a_m^dag a_n."""
    mode = int(rng.integers(mode_count))
    states = np.arange(1 << mode_count)
    holding = states[((states >> mode) & 1 == 1)
                     & ((states != states[-1]) | (mode_count == 1))]
    return int(rng.choice(holding)), mode


@pytest.mark.parametrize("mode_count", range(1, 9))
def test_stacked_gate_equals_per_pair_reference(mode_count, monkeypatch):
    rng = np.random.default_rng(500 + mode_count)
    flip = mutant_sign(lowering_target(rng, mode_count), lambda sign: -sign)
    poison = mutant_sign(lowering_target(rng, mode_count), lambda sign: np.nan)
    states = np.arange(1 << mode_count)
    defects, hop_signs = {}, {}
    for name, sign in (("intact", fock.ladder_sign), ("flipped", flip),
                       ("poisoned", poison), ("unsigned", unsigned_sign)):
        monkeypatch.setattr(fock, "ladder_sign", sign)
        defects[name] = anticommutator_defect(mode_count)
        hop_signs[name] = fock.hops(mode_count, states).sign
        ladders = (dense.build_ladders(mode_count) if name == "intact"
                   else dense.build_ladders(mode_count, sign))
        reference = dense.anticommutator_defect_per_pair(ladders)
        assert np.array_equal(defects[name], reference, equal_nan=True), name
        # every entry, not only the maximum: a mask that drops or adds
        # states can leave the maximum as it is
        entries = np.stack(list(checks._anticommutator_entries(mode_count)))
        assert np.array_equal(entries, dense.anticommutator_entries_per_pair(ladders),
                              equal_nan=True), name
    assert defects["intact"] == 0.0
    assert defects["flipped"] >= 1.0
    assert (defects["unsigned"] >= 1.0) == (mode_count > 1)
    assert np.isnan(defects["poisoned"])
    assert not checks.CheckResult("anticommutators", defects["poisoned"], 1e-12).passed
    if mode_count > 1:  # the oracle's hops read the same rule; one mode has none
        assert not np.array_equal(hop_signs["flipped"], hop_signs["intact"])


def test_number_operator_idempotent():
    ladders = dense.build_ladders(4)
    for n in range(4):
        number = (ladders.raising[n] @ ladders.lowering[n]).toarray()
        assert np.abs(number @ number - number).max() < 1e-14
        eigenvalues = np.unique(np.round(np.diag(number).real, 12))
        assert set(eigenvalues) == {0.0, 1.0}


def test_bare_vacuum():
    ladders = dense.build_ladders(4)
    bare = fock.build_vacuum_vector(OccupationSet((), 4))
    assert bare[0] == 1.0 and np.abs(bare[1:]).max() == 0.0
    for n in range(4):
        assert np.abs(ladders.lowering[n] @ bare).max() == 0.0


def test_vacuum_vector_bitstring_and_sign():
    occ = OccupationSet((0, 2, 3), 5)
    vec = fock.build_vacuum_vector(occ)
    index = (1 << 0) | (1 << 2) | (1 << 3)
    assert vec[index] == pytest.approx(1.0)
    assert np.abs(np.delete(vec, index)).max() == 0.0
    assert np.vdot(vec, vec) == pytest.approx(1.0)


@pytest.mark.parametrize("mode_count", range(1, 11))
def test_vacuum_vector_equals_ladder_product(mode_count):
    """The bitstring written directly carries the sign the descending-order
    creation product gives it."""
    rng = np.random.default_rng(600 + mode_count)
    ladders = dense.build_ladders(mode_count)
    sets = [(), tuple(range(mode_count))]
    sets += [tuple(np.flatnonzero(rng.random(mode_count) < 0.5).tolist())
             for _ in range(4)]
    for indices in sets:
        occ = OccupationSet(indices, mode_count)
        assert np.array_equal(fock.build_vacuum_vector(occ),
                              dense.ladder_vacuum_vector(ladders, occ)), indices


@pytest.mark.parametrize("spec", [VacuumSpec("standard"), VacuumSpec("band", 0.2)],
                         ids=["filled-sea", "band"])
def test_physical_vacuum_vectors_equal_ladder_products(basis_n3, basis_n5, spec):
    for basis in (basis_n3, basis_n5):
        occ = occupation_set(spec, basis)
        ladders = dense.build_ladders(basis.mode_count)
        assert np.array_equal(fock.build_vacuum_vector(occ),
                              dense.ladder_vacuum_vector(ladders, occ))


def test_occupation_number_expectations(basis_n3):
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    sea = fock.build_vacuum_vector(occ)
    for n in range(6):
        number = ladders.raising[n] @ ladders.lowering[n]
        value = dense.expectation(sea, number).real
        assert value == pytest.approx(1.0 if n in occ else 0.0, abs=1e-14)


def test_bilinear_number_operator(basis_n3):
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    sea = fock.build_vacuum_vector(occ)
    identity = OneBodyKernel(np.eye(6, dtype=complex), 0.0)
    total = dense.bilinear_matrix(ladders, identity)
    assert dense.expectation(sea, total).real == pytest.approx(len(occ))


def test_bilinear_shape_guard(basis_n3):
    ladders = dense.build_ladders(4)
    with pytest.raises(ValueError):
        dense.bilinear_matrix(ladders, OneBodyKernel(np.eye(6), 0.0))
    with pytest.raises(ValueError):
        fock.apply_bilinears(ladders.mode_count, [OneBodyKernel(np.eye(4), 0.0),
                                                  OneBodyKernel(np.eye(6), 0.0)],
                             np.ones(16, dtype=complex))
    for state in (np.ones(8, dtype=complex), np.ones((16, 1), dtype=complex)):
        with pytest.raises(ValueError):
            fock.apply_bilinears(ladders.mode_count, [OneBodyKernel(np.eye(4), 0.0)], state)


def ladder_product_reference(ladders, kernel):
    """-c I + sum_nm K_nm a_n^dag a_m from the ladder matrices, in the
    summation order bilinear_matrix promises for the diagonal."""
    k = kernel.coefficients
    out = -kernel.subtraction * sparse.identity(ladders.dimension, dtype=complex,
                                                format="csr")
    for n in range(ladders.mode_count):
        for m in range(ladders.mode_count):
            out = out + k[n, m] * (ladders.raising[n] @ ladders.lowering[m])
    return out


def random_kernel(rng, mode_count, subtraction):
    k = (rng.normal(size=(mode_count, mode_count))
         + 1j * rng.normal(size=(mode_count, mode_count)))
    k[rng.random((mode_count, mode_count)) < 0.3] = 0.0
    return OneBodyKernel(k, subtraction)


@pytest.mark.parametrize("mode_count", range(1, 9))
def test_bilinear_matrix_equals_ladder_products_bit_for_bit(mode_count):
    rng = np.random.default_rng(mode_count)
    ladders = dense.build_ladders(mode_count)
    kernel = random_kernel(rng, mode_count, 0.37)
    built = dense.bilinear_matrix(ladders, kernel)
    reference = ladder_product_reference(ladders, kernel)
    assert built.shape == reference.shape
    assert (built != reference).nnz == 0


@pytest.mark.parametrize("mode_count", [6, 10])
def test_apply_bilinears_matches_bilinear_matrix(mode_count):
    rng = np.random.default_rng(100 + mode_count)
    ladders = dense.build_ladders(mode_count)
    state = (rng.normal(size=ladders.dimension)
             + 1j * rng.normal(size=ladders.dimension))
    state /= np.linalg.norm(state)
    kernels = [random_kernel(rng, mode_count, c) for c in (0.0, 0.37, -1.5)]
    # the dense state, then one with about 10% support
    sparse_state = state * (rng.random(ladders.dimension) < 0.1)
    assert 0 < np.count_nonzero(sparse_state) < ladders.dimension // 5
    for vector in (state, sparse_state):
        columns = fock.apply_bilinears(ladders.mode_count, kernels, vector)
        assert columns.shape == (ladders.dimension, len(kernels))
        for column, kernel in zip(columns.T, kernels):
            expected = dense.bilinear_matrix(ladders, kernel) @ vector
            assert np.abs(column - expected).max() <= 1e-13


@pytest.mark.parametrize("mode_count", [6, 10])
def test_apply_bilinears_on_basis_vector_is_bit_exact(mode_count):
    """One amplitude means one term per output row.  The kernels carry no
    subtraction: bilinear_matrix adds -c before the K_nn, apply_bilinears
    after them."""
    rng = np.random.default_rng(300 + mode_count)
    ladders = dense.build_ladders(mode_count)
    kernels = [random_kernel(rng, mode_count, 0.0) for _ in range(3)]
    for index in rng.integers(ladders.dimension, size=8):
        state = np.zeros(ladders.dimension, dtype=complex)
        state[index] = 1.0
        columns = fock.apply_bilinears(ladders.mode_count, kernels, state)
        for column, kernel in zip(columns.T, kernels):
            assert np.array_equal(column, dense.bilinear_matrix(ladders, kernel) @ state)


@pytest.mark.parametrize("mode_count", [6, 10])
def test_apply_bilinears_zero_and_nan_states(mode_count):
    rng = np.random.default_rng(400 + mode_count)
    ladders = dense.build_ladders(mode_count)
    kernels = [random_kernel(rng, mode_count, c) for c in (0.0, 0.37)]
    zero = fock.apply_bilinears(ladders.mode_count, kernels,
                                np.zeros(ladders.dimension, complex))
    assert zero.shape == (ladders.dimension, len(kernels))
    assert not zero.any()
    state = np.zeros(ladders.dimension, dtype=complex)
    state[3] = np.nan
    columns = fock.apply_bilinears(ladders.mode_count, kernels, state)
    assert np.isnan(columns).any(axis=0).all()


def test_bilinear_linearity(basis_n3, rng):
    ladders = dense.build_ladders(6)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    combined = dense.bilinear_matrix(
        ladders, OneBodyKernel(2.0 * a + b, 0.0))
    separate = (2.0 * dense.bilinear_matrix(ladders, OneBodyKernel(a, 0.0))
                + dense.bilinear_matrix(ladders, OneBodyKernel(b, 0.0)))
    assert np.abs((combined - separate).toarray()).max() < 1e-12


def test_commutator_expectation_properties(basis_n3, rng):
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    sea = fock.build_vacuum_vector(occ)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op_a = dense.bilinear_matrix(ladders, OneBodyKernel(a + a.conj().T, 0.0))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op_b = dense.bilinear_matrix(ladders, OneBodyKernel(b + b.conj().T, 0.0))
    assert dense.commutator_expectation(sea, op_a, op_a) == pytest.approx(0.0)
    forward = dense.commutator_expectation(sea, op_a, op_b)
    backward = dense.commutator_expectation(sea, op_b, op_a)
    assert forward == pytest.approx(-backward, abs=1e-12)


def test_charge_charge_commutator_vanishes(basis_n3):
    from diracsea.operators import charge_kernel
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    sea = fock.build_vacuum_vector(occ)
    ops = [dense.bilinear_matrix(ladders, charge_kernel(basis_n3, j))
           for j in range(3)]
    for j in range(3):
        for k in range(3):
            value = dense.commutator_expectation(sea, ops[j], ops[k])
            assert abs(value) < 1e-13


def test_spectrum_standard_vacuum(basis_n5):
    minimum, zeros = spectrum_positivity(basis_n5)
    assert minimum >= -1e-12
    assert zeros == 1


def test_spectrum_single_particle(basis_n3):
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    kernel = free_hamiltonian_kernel(basis_n3, occ)
    spectrum = fock.spectrum_of_h0_sector(6, kernel)
    for n in np.where(basis_n3.lam > 0)[0]:
        index = sum(1 << i for i in occ.indices) | (1 << int(n))
        assert spectrum[index] == pytest.approx(basis_n3.energy[n], abs=1e-12)


def test_spectrum_band_vacuum(basis_n5):
    spec = VacuumSpec("band", 0.5)
    minimum, move, present = band_spectrum_negative_level(basis_n5, spec)
    assert minimum < 0
    assert move < 0
    assert present


def test_slater_vector_matches_vacuum(basis_n3):
    ladders = dense.build_ladders(6)
    occ = occupation_set(VacuumSpec("standard"), basis_n3)
    direct = fock.build_vacuum_vector(occ)
    columns = np.zeros((6, len(occ)), dtype=complex)
    for col, n in enumerate(sorted(occ.indices)):
        columns[n, col] = 1.0
    assert np.abs(dense.slater_vector(ladders, columns) - direct).max() < 1e-14


def test_orbital_creation_guard():
    ladders = dense.build_ladders(3)
    with pytest.raises(ValueError):
        dense.orbital_creation(ladders, np.zeros(3))
    with pytest.raises(ValueError):
        dense.orbital_creation(ladders, np.ones(4))


@pytest.fixture(scope="module")
def basis_n7():
    return build_basis(LatticeConfig(TWO_PI, 7, 1.0))


@pytest.mark.parametrize("spec", [VacuumSpec("standard"), VacuumSpec("band", 1.0)],
                         ids=["filled-sea", "band"])
def test_oracle_at_mode_cap(basis_n7, spec):
    assert basis_n7.mode_count == fock.MAX_MODES
    assert checks.oracle_commutator_defect(basis_n7, spec) <= 1e-10
    assert checks.oracle_subtraction_defect(basis_n7, spec) <= 1e-12


def test_oracle_hops_only_from_the_vacuum_bitstring(basis_n7, monkeypatch):
    """The filled sea at M = 14 occupies 7 modes, so a_n^dag a_m has
    7 * 7 = 49 nonzero entries on it, against 745,472 over all 2^14 rows."""
    sizes = []
    exact = fock.hops

    def counted(mode_count, columns):
        table = exact(mode_count, columns)
        sizes.append(len(table.row))
        return table

    monkeypatch.setattr(fock, "hops", counted)
    assert checks.oracle_subtraction_defect(basis_n7, VacuumSpec("standard")) <= 1e-12
    assert checks.oracle_commutator_defect(basis_n7, VacuumSpec("standard")) <= 1e-10
    assert sizes == [49, 49]


def test_oracle_builds_no_ladder_matrices(basis_n5, basis_n7):
    for spec in (VacuumSpec("standard"), VacuumSpec("band", 1.0)):
        assert checks.oracle_commutator_defect(basis_n7, spec) <= 1e-10
        assert checks.oracle_subtraction_defect(basis_n7, spec) <= 1e-12
    minimum, zeros = spectrum_positivity(basis_n5)
    assert minimum >= -1e-12
    assert zeros == 1
    minimum, move, present = band_spectrum_negative_level(
        basis_n5, VacuumSpec("band", 0.5))
    assert minimum < 0
    assert move < 0
    assert present


def test_oracle_at_mode_cap_sees_a_perturbed_kernel(basis_n7, monkeypatch):
    exact = checks.commutator_kernel

    def perturbed(*args, **kwargs):
        values = exact(*args, **kwargs).values.copy()
        values[2, 5] += 1e-6
        return SimpleNamespace(values=values)

    monkeypatch.setattr(checks, "commutator_kernel", perturbed)
    assert checks.oracle_commutator_defect(basis_n7, VacuumSpec("standard")) >= 1e-7
