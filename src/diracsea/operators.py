"""One-body kernels of the charge density, current density and free energy,
and the mode-pair table ``mode_pairs`` that every mode-pair sum reads.

Each observable is a fermion bilinear sum_{nm} K_nm a_n^dag a_m minus a
c-number subtraction chosen so the reference vacuum expectation vanishes.
Kernels are built per grid site from the sampled modes ``phi``, not from
the pair table, so the Fock oracle built on them checks it independently;
the subtraction constants depend on the vacuum, so they are kept separate
from the kernels and attached on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import ALPHA, ModeBasis
from .vacua import OccupationSet


@dataclass(frozen=True)
class OneBodyKernel:
    """Mode-basis coefficient matrix plus subtraction constant."""

    coefficients: np.ndarray
    subtraction: float

    def with_subtraction(self, c: float) -> "OneBodyKernel":
        return replace(self, subtraction=float(c))

    def restricted(self, mode_indices) -> "OneBodyKernel":
        """Kernel restricted to a subset of modes (subtraction dropped)."""
        idx = np.asarray(mode_indices, dtype=int)
        return OneBodyKernel(self.coefficients[np.ix_(idx, idx)], 0.0)


@dataclass(frozen=True)
class RenormalizationConstants:
    """Per-site charge/current subtractions and the scalar energy subtraction."""

    rho: np.ndarray   # (N,)
    current: np.ndarray  # (N,)
    xi: float


def mode_pairs(basis: ModeBasis, rows, cols):
    """(overlap, flux, gap, transfer) of the pairs (n in rows, m in cols).

    Each is a (rows, cols) array: u_n^dag u_m, u_n^dag alpha u_m, e_n - e_m
    with e = lam E, and k_m - k_n, so phi_n(x)^dag phi_m(x) = overlap
    exp(i 2 pi transfer x / L) / L, and likewise with alpha for the flux.
    u_n^dag alpha u_m and u_m^dag alpha u_n differ in the last bit, so the
    modes whose spinors are conjugated go in ``rows``.
    """
    ur = basis.spinors[:, rows].conj().T
    uc = basis.spinors[:, cols]
    eps = basis.eigenvalue
    k = basis.momentum_index
    return (ur @ uc, ur @ ALPHA @ uc, eps[rows, None] - eps[None, cols],
            k[None, cols] - k[rows, None])


def charge_kernel(basis: ModeBasis, site: int) -> OneBodyKernel:
    """K_nm = q phi_n(x_j)^dag phi_m(x_j)."""
    f = basis.phi[site]  # (2, 2N)
    k = basis.config.charge * f.conj().T @ f
    return OneBodyKernel(k, 0.0)


def current_kernel(basis: ModeBasis, site: int) -> OneBodyKernel:
    """K_nm = q phi_n(x_j)^dag alpha phi_m(x_j)."""
    f = basis.phi[site]
    k = basis.config.charge * f.conj().T @ ALPHA @ f
    return OneBodyKernel(k, 0.0)


def free_hamiltonian_kernel(basis: ModeBasis, occ: OccupationSet | None = None) -> OneBodyKernel:
    """Diagonal kernel lam_n E_n; subtraction = occupied-energy sum if given."""
    k = np.diag(basis.eigenvalue.astype(complex))
    xi = 0.0
    if occ is not None:
        xi = float(np.sum(basis.eigenvalue[list(occ.indices)]))
    return OneBodyKernel(k, xi)


def renorm_constants(basis: ModeBasis, occ: OccupationSet) -> RenormalizationConstants:
    """Vacuum expectations of the unsubtracted bilinears, per site.

    rho_R(x) = q sum_occ |phi_n(x)|^2, J_R(x) = q sum_occ phi_n^dag alpha phi_n,
    xi_R = sum_occ lam_n E_n.  For momentum-symmetric occupations both per-site
    arrays are constant across the grid.
    """
    idx = list(occ.indices)
    q = basis.config.charge
    if not idx:
        n = basis.config.site_count
        return RenormalizationConstants(np.zeros(n), np.zeros(n), 0.0)
    occ_phi = basis.phi[:, :, idx]  # (N, 2, n_occ)
    rho = q * np.einsum("jsn,jsn->j", occ_phi.conj(), occ_phi).real
    cur = q * np.einsum("jsn,st,jtn->j", occ_phi.conj(), ALPHA, occ_phi).real
    xi = float(np.sum(basis.eigenvalue[idx]))
    return RenormalizationConstants(rho, cur, xi)


def continuity_pair_residual(basis: ModeBasis) -> float:
    """Max residual of d/dx(j_nm) = -i (e_n - e_m) rho_nm over all mode pairs.

    The pair functions rho_nm = q phi_n^dag phi_m and j_nm = q phi_n^dag
    alpha phi_m are both one plane wave exp(i (p_m - p_n) x) times the
    spinor coefficients overlap_nm and flux_nm, so d/dx is exactly a factor
    i (p_m - p_n) and the residual of a pair is
    |(p_m - p_n) flux_nm + (e_n - e_m) overlap_nm|, with e_n = lam_n E_n.
    The identity is exact up to rounding.
    """
    modes = np.arange(basis.mode_count)
    overlap, flux, gap, _ = mode_pairs(basis, modes, modes)
    p = basis.momentum
    norm = basis.config.charge / basis.config.box_length
    residual = ((p[None, :] - p[:, None]) * (norm * flux)
                + gap * (norm * overlap))
    return float(np.abs(residual).max())
