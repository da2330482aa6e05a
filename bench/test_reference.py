"""The reference helpers against values worked by hand at N = 3.

Run with ``python3 -m pytest bench``.  At L = 2 pi and N = 3 the momenta are
p = -1, 0, 1 and the grid is x = 0, 2 pi / 3, 4 pi / 3.
"""

import numpy as np
import pytest

import reference as ref

TWO_PI = 2.0 * np.pi


def lattice(mass, charge=1.0):
    return {"L": TWO_PI, "N": 3, "m": mass, "q": charge}


def test_momenta_and_spinor_phase_convention():
    assert np.allclose(ref.momenta(TWO_PI, 3), [-1.0, 0.0, 1.0])
    # m = 0: (1, sign p) / sqrt 2, and (1, 0) at the degenerate p = 0 point
    expected = np.array([[1.0, -1.0], [np.sqrt(2.0), 0.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(ref.positive_spinors(np.array([-1.0, 0.0, 1.0]), 0.0), expected)


def test_packet_energy():
    # sigma = 1/2 at p_c = 0: weights e^{-p^2}, so c^2 is (e^-2, 1, e^-2) / (1 + 2 e^-2)
    # and E = (sqrt 2, 1, sqrt 2)
    hand = (1.0 + 2.0 * np.exp(-2.0) * np.sqrt(2.0)) / (1.0 + 2.0 * np.exp(-2.0))
    energy = ref.packet_energy(lattice(1.0), {"p_center": 0.0, "sigma": 0.5})
    assert energy == pytest.approx(hand, rel=1e-14)


def test_density_rate_and_slope_massless():
    # c = (0, 1, 1) / sqrt 2 over k = (-1, 0, 1), m = 0: u_0 = (1, 0), E_0 = 0,
    # u_1 = (1, 1) / sqrt 2, E_1 = 1, so rho = (1 + cos(x - t) / sqrt 2) / L and
    # d rho / dt = sin(x - t) / (sqrt 2 L)
    coefficients = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    x = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
    for t in (0.0, 0.7):
        rate = ref.density_rate(lattice(0.0), coefficients, t)
        assert np.allclose(rate, np.sin(x - t) / (np.sqrt(2.0) * TWO_PI), atol=1e-15)
    # at t = 0 the squares sum to 3 / (4 L^2); times -a = -L / 3 gives -1 / (4 L)
    rate = ref.density_rate(lattice(0.0), coefficients, 0.0)
    assert ref.kick_slope(lattice(0.0), rate) == pytest.approx(-1.0 / (4.0 * TWO_PI), rel=1e-14)


def test_density_rate_massive():
    # m = 1: u_0 = (1, 0), u_1 = (1 + sqrt 2, 1) / |.|, so u_0 . u_1 = cos(pi / 8);
    # E_1 - E_0 = sqrt 2 - 1, and d rho / dt = cos(pi/8) (sqrt 2 - 1) sin(x) / L at t = 0
    coefficients = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    x = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
    rate = ref.density_rate(lattice(1.0, charge=2.0), coefficients, 0.0)
    hand = 2.0 * np.cos(np.pi / 8) * (np.sqrt(2.0) - 1.0) * np.sin(x) / TWO_PI
    assert np.allclose(rate, hand, atol=1e-15)


def test_free_branch_slope_reads_the_config_window():
    config = {"lattice": lattice(1.0), "packet": {"p_center": 0.0, "sigma": 0.5},
              "t_a": 0.5, "t_b": 1.25}
    p = ref.momenta(TWO_PI, 3)
    rate = ref.density_rate(lattice(1.0), ref.packet_coefficients(p, 0.0, 0.5), 0.75)
    assert ref.free_branch_slope(config) == ref.kick_slope(lattice(1.0), rate)


def test_coincident_divergence():
    # nhat(p) = (p, 1) / E.  Pairs with one p = 0 end: four of (1 + sqrt 2)(1 - 1/sqrt 2)/2,
    # summing to sqrt 2; the two (1, -1) pairs: 2 sqrt 2 * 1/2 each; equal momenta give 0.
    # Total 3 sqrt 2, so the divergence is -2i * 3 sqrt 2 / (2 pi)^2.
    hand = -2j * 3.0 * np.sqrt(2.0) / TWO_PI**2
    assert ref.coincident_divergence(lattice(1.0)) == pytest.approx(hand, rel=1e-14)
    assert ref.coincident_divergence(lattice(1.0, charge=2.0)) == pytest.approx(4 * hand, rel=1e-14)
