"""Reference values the benchmark checks diracsea's outputs against.

Everything here is computed from the continuum formulas with numpy alone and
imports nothing from diracsea, so a fault in the package cannot hide in its
own reference.  Conventions follow the package README: h(p) = p sigma_x +
m sigma_z, momenta p_k = 2 pi k / L for k = -(N-1)/2 .. (N-1)/2, grid
x_j = j L / N, plane waves u exp(i p x) / sqrt(L).
"""

from __future__ import annotations

import numpy as np


def momenta(box_length: float, site_count: int) -> np.ndarray:
    half = (site_count - 1) // 2
    return 2.0 * np.pi * np.arange(-half, half + 1) / box_length


def positive_spinors(p: np.ndarray, mass: float) -> np.ndarray:
    """Positive-energy unit spinors, shape (len(p), 2).

    The +E eigenvector of [[m, p], [p, -m]] is proportional to (m + E, p);
    its first component is real and positive, the package's phase
    convention.  At p = m = 0 the spinor is (1, 0).
    """
    p = np.asarray(p, dtype=float)
    top = mass + np.hypot(p, mass)
    norm = np.hypot(top, p)
    out = np.zeros((len(p), 2))
    zero = norm == 0.0
    out[zero, 0] = 1.0
    out[~zero, 0] = top[~zero] / norm[~zero]
    out[~zero, 1] = p[~zero] / norm[~zero]
    return out


def packet_coefficients(p: np.ndarray, p_center: float, sigma: float) -> np.ndarray:
    """Normalized Gaussian weights exp(-(p - p_c)^2 / (4 sigma^2))."""
    weights = np.exp(-((np.asarray(p) - p_center) ** 2) / (4.0 * sigma**2))
    return weights / np.sqrt(np.sum(weights**2))


def packet_energy(lattice: dict, packet: dict) -> float:
    """Sum_k c_k^2 E_k of the positive-branch Gaussian packet in a config."""
    p = momenta(lattice["L"], lattice["N"])
    c = packet_coefficients(p, packet["p_center"], packet["sigma"])
    return float(np.sum(c**2 * np.hypot(p, lattice["m"])))


def density_rate(lattice: dict, coefficients: np.ndarray, elapsed: float) -> np.ndarray:
    """d rho / dt on the grid for one free positive-branch orbital.

    psi(x, t) = sum_k c_k u_k exp(i p_k x - i E_k t) / sqrt(L) is the exact
    mode expansion; the filled sea is stationary, so the vacuum-subtracted
    density rate is q d/dt |psi|^2 = 2 q Re(psi^dag d psi/dt).
    """
    length, n_sites, mass = lattice["L"], lattice["N"], lattice["m"]
    charge = lattice.get("q", 1.0)
    p = momenta(length, n_sites)
    energy = np.hypot(p, mass)
    x = np.arange(n_sites) * (length / n_sites)
    waves = np.exp(1j * (np.outer(x, p) - energy * elapsed)) / np.sqrt(length)
    spinors = positive_spinors(p, mass)
    psi = (waves * coefficients) @ spinors
    psi_dot = (waves * (-1j * energy * coefficients)) @ spinors
    return 2.0 * charge * np.sum(psi.conj() * psi_dot, axis=1).real


def kick_slope(lattice: dict, rate: np.ndarray) -> float:
    """Predicted d xi0 / d f of the density-rate kick: -a sum_j rate_j^2."""
    return -(lattice["L"] / lattice["N"]) * float(np.sum(rate**2))


def free_branch_slope(config: dict) -> float:
    """Kick slope from a config's lattice, packet and window [t_a, t_b]."""
    lattice = config["lattice"]
    p = momenta(lattice["L"], lattice["N"])
    c = packet_coefficients(p, config["packet"]["p_center"],
                            config["packet"]["sigma"])
    elapsed = config["t_b"] - config.get("t_a", 0.0)
    return kick_slope(lattice, density_rate(lattice, c, elapsed))


def coincident_divergence(lattice: dict) -> complex:
    """Filled-sea kernel divergence at coincident points.

    -2i q^2 sum_{m in sea, n positive} (E_n + E_m) (1 - nhat_n . nhat_m) / 2
    / L^2, with nhat = (p, m) / E the Bloch direction of the positive state
    at p; (1 - nhat_n . nhat_m) / 2 is the squared overlap of the negative
    state at p_m with the positive state at p_n.
    """
    length, mass = lattice["L"], lattice["m"]
    charge = lattice.get("q", 1.0)
    p = momenta(length, lattice["N"])
    energy = np.hypot(p, mass)
    nhat = np.stack([p, np.full_like(p, mass)], axis=1)
    moving = energy > 0
    nhat[moving] /= energy[moving, None]
    nhat[~moving] = (0.0, 1.0)
    overlap = 0.5 * (1.0 - nhat @ nhat.T)
    total = np.sum((energy[:, None] + energy[None, :]) * overlap)
    return -2j * charge**2 * total / length**2
