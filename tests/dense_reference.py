"""Dense references for paths that ``src`` computes another way.

``response.first_order_current`` reaches the grid through each pair's
momentum transfer and never forms the (site, pair) arrays below; the tests
compare it, and the Fock oracle, against them.  Those functions take a
``response.ResponseKernel``.  ``band_pair_tensors`` is the ``einsum`` form of
the intra-band double sum's tensors, which ``schwinger.f2_identity_check``
builds from spinor products.
"""

import numpy as np

from diracsea.lattice import ALPHA


def site_matrix(kernel, weights: np.ndarray) -> np.ndarray:
    """weights_p exp(i 2 pi d_p x_j / L) over (site j, pair p)."""
    base = 2.0 * np.pi / kernel.basis.config.box_length
    grid = kernel.basis.config.grid
    return weights[None, :] * np.exp(1j * base * np.outer(grid, kernel.transfer))


def current_pair_matrix(kernel) -> np.ndarray:
    """J_p(x) over (site, pair)."""
    return site_matrix(kernel, kernel.current_weight)


def charge_pair_matrix(kernel) -> np.ndarray:
    return site_matrix(kernel, kernel.charge_weight)


def retarded_current_current(kernel, tau: float) -> np.ndarray:
    """R_JJ(x, y; tau) = i <[J(x,tau), J(y,0)]>, zero for tau < 0."""
    return retarded(kernel, current_pair_matrix(kernel),
                    current_pair_matrix(kernel), tau)


def retarded_current_charge(kernel, tau: float) -> np.ndarray:
    """R_Jrho(x, y; tau) = i <[J(x,tau), rho(y,0)]>, zero for tau < 0."""
    return retarded(kernel, current_pair_matrix(kernel),
                    charge_pair_matrix(kernel), tau)


def retarded(kernel, amat, bmat, tau: float) -> np.ndarray:
    n = kernel.basis.config.site_count
    if tau < 0:
        return np.zeros((n, n))
    z = (amat * np.exp(1j * kernel.omega * tau)[None, :]) @ bmat.conj().T
    return -2.0 * z.imag


def band_pair_tensors(phi_band: np.ndarray):
    """overlap[y, m, n] = phi_m^dag phi_n and current[x, n, m] =
    phi_n^dag alpha phi_m over band modes of phi_band (N, 2, B)."""
    overlap = np.einsum("ysm,ysn->ymn", phi_band.conj(), phi_band)
    current = np.einsum("xsn,st,xtm->xnm", phi_band.conj(), ALPHA, phi_band)
    return overlap, current
