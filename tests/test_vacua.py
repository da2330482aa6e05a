import numpy as np
import pytest

import dense_reference as dense
from diracsea import fock
from diracsea.vacua import (
    OccupationSet,
    VacuumSpec,
    classify_indices,
    coupled_band_spec,
    occupation_set,
)

TWO_PI = 2.0 * np.pi

POSITIVE, IN_BAND, BELOW_BAND = "positive", "in_band", "below_band"


def classify(basis, index, spec):
    """Region of one mode, read off ``classify_indices``."""
    positive, in_band, _ = classify_indices(spec, basis)
    if index in positive:
        return POSITIVE
    return IN_BAND if index in in_band else BELOW_BAND


def test_spec_validation():
    with pytest.raises(ValueError):
        VacuumSpec("sea")
    with pytest.raises(ValueError):
        VacuumSpec("band")                      # missing width
    with pytest.raises(ValueError):
        VacuumSpec("band", -0.5)
    with pytest.raises(ValueError):
        VacuumSpec("standard", 1.0)             # width without band


def test_classify_regions(basis_n9):
    mass = basis_n9.config.mass
    spec = VacuumSpec("band", 1.0)
    for index, (lam, energy) in enumerate(zip(basis_n9.lam, basis_n9.energy)):
        region = classify(basis_n9, index, spec)
        if lam > 0:
            assert region == POSITIVE
        elif energy <= mass + 1.0:
            assert region == IN_BAND
        else:
            assert region == BELOW_BAND
    # p=0 negative mode is in the band for any width, including zero
    rest = np.flatnonzero((basis_n9.momentum_index == 0) & (basis_n9.lam < 0))[0]
    assert classify(basis_n9, rest, VacuumSpec("band", 0.0)) == IN_BAND
    # exact upper edge counts as inside
    edge_mode = np.flatnonzero(basis_n9.lam < 0)[3]
    width = basis_n9.energy[edge_mode] - mass
    assert classify(basis_n9, edge_mode, VacuumSpec("band", width)) == IN_BAND
    # standard vacuum: every negative mode is band-classified
    for index, lam in enumerate(basis_n9.lam):
        expected = POSITIVE if lam > 0 else IN_BAND
        assert classify(basis_n9, index, VacuumSpec("standard")) == expected


def test_classify_partitions_negative_branch(basis_n9):
    positive, in_band, below = classify_indices(VacuumSpec("band", 1.2), basis_n9)
    negatives = set(np.where(basis_n9.lam < 0)[0])
    assert set(in_band) | set(below) == negatives
    assert set(in_band) & set(below) == set()
    assert set(positive) == set(np.where(basis_n9.lam > 0)[0])


def test_occupation_sets(basis_n5):
    assert occupation_set(VacuumSpec("bare"), basis_n5).indices == ()
    standard = occupation_set(VacuumSpec("standard"), basis_n5)
    assert len(standard) == 5
    assert all(basis_n5.lam[i] < 0 for i in standard.indices)


def test_band_occupation_counts(basis_n9):
    # width just above sqrt(p_1^2 + m^2) - m occupies the p = 0, +-p_1 modes
    p1 = TWO_PI / basis_n9.config.box_length
    width = np.hypot(p1, 1.0) - 1.0 + 1e-9
    occ = occupation_set(VacuumSpec("band", width), basis_n9)
    assert len(occ) == 3
    ks = sorted(basis_n9.momentum_index[list(occ.indices)])
    assert ks == [-1, 0, 1]


def test_band_headroom_guard(basis_n9):
    e_max = basis_n9.max_energy
    with pytest.raises(ValueError) as err:
        occupation_set(VacuumSpec("band", e_max - 1.0), basis_n9)
    assert "E_max" in str(err.value)


def test_band_monotone_in_width(basis_n9):
    previous = set()
    for width in np.linspace(0.0, 0.9 * (basis_n9.max_energy - 1.0), 12):
        occ = occupation_set(VacuumSpec("band", width), basis_n9)
        assert previous <= set(occ.indices)
        previous = set(occ.indices)


def test_occupation_set_bounds():
    with pytest.raises(ValueError):
        OccupationSet((7,), 6)


def test_coupled_band_spec(basis_n9):
    spec = coupled_band_spec(basis_n9)
    assert spec.kind == "band"
    assert spec.band_width == pytest.approx(
        0.5 * (basis_n9.max_energy - basis_n9.config.mass))
    with pytest.raises(ValueError):
        coupled_band_spec(basis_n9, headroom_fraction=1.0)


def test_vacuum_annihilation_conditions(basis_n3):
    """Oracle check of the defining conditions of each vacuum."""
    ladders = dense.build_ladders(basis_n3.mode_count)

    bare = fock.build_vacuum_vector(occupation_set(VacuumSpec("bare"), basis_n3))
    for n in range(basis_n3.mode_count):
        assert np.abs(ladders.lowering[n] @ bare).max() == 0.0

    standard_occ = occupation_set(VacuumSpec("standard"), basis_n3)
    sea = fock.build_vacuum_vector(standard_occ)
    for n in range(basis_n3.mode_count):
        if n in standard_occ:
            assert np.abs(ladders.raising[n] @ sea).max() < 1e-15
        else:
            assert np.abs(ladders.lowering[n] @ sea).max() < 1e-15

    band_occ = occupation_set(VacuumSpec("band", 0.2), basis_n3)
    band = fock.build_vacuum_vector(band_occ)
    _, in_band, below = classify_indices(VacuumSpec("band", 0.2), basis_n3)
    for n in np.where(basis_n3.lam > 0)[0]:
        assert np.abs(ladders.lowering[n] @ band).max() < 1e-15
    for n in in_band:
        assert np.abs(ladders.raising[n] @ band).max() < 1e-15
    for n in below:
        assert np.abs(ladders.lowering[n] @ band).max() < 1e-15
