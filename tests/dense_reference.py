"""Dense references for paths that ``src`` computes another way.

``response.first_order_current`` reaches the grid through each pair's
momentum transfer and never forms the (site, pair) arrays below; the tests
compare it, and the Fock oracle, against them.  Those functions take a
``response.ResponseKernel``.  ``first_order_current_per_pair`` is the same
running quadrature with one phase exponential per pair and node, where
``src`` takes one per distinct energy gap.  ``band_pair_f2`` is the
intra-band double sum as written, one (N, N) sum over band-mode pairs of
``band_pair_tensors``, which ``schwinger.f2_identity_check`` reaches through
the band projector.
``kinetic_matrix``, ``mode_coefficients`` and ``single_particle_hamiltonian``
are the dense single-particle operators of a basis, which ``src`` applies
without forming them.  ``eigh_modes`` builds the mode arrays of a lattice
one momentum at a time from a 2x2 ``eigh``, which ``lattice.ModeBasis``
writes in closed form.

The Fock helpers build whole many-body operators and states from ladder
matrices.  ``build_ladders`` writes the sign rule out again, independently
of ``fock.ladder_sign``, as scipy CSR matrices, and ``src`` builds no
ladder matrix: the oracle in ``checks`` writes a vacuum vector as one
bitstring and only applies bilinears to it through ``fock.apply_bilinears``,
and the anticommutator gate works on bitstrings.  The tests compare both,
and the Wick mode sums of the other modules, against these.
``anticommutator_defect_per_pair`` is the pair-by-pair matrix form of that
gate.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from diracsea import fock, response
from diracsea.lattice import ALPHA, transfer_sum


@dataclass(frozen=True)
class LadderSet:
    """Annihilation/creation matrices for M fermionic modes."""

    mode_count: int
    lowering: tuple
    raising: tuple

    @property
    def dimension(self) -> int:
        return 1 << self.mode_count


def parity_sign(bits, mode):
    """(-1) to the number of occupied modes of ``bits`` below ``mode``."""
    return 1.0 - 2.0 * (np.bitwise_count(bits & ((1 << mode) - 1)).astype(np.int64) % 2)


def build_ladders(mode_count: int, sign=parity_sign) -> LadderSet:
    """Ladder operators over the occupation-number basis: a_n maps each state
    b holding n, and a_n^dag each state not holding it, to b ^ 2^n with
    sign(b, n).  A ``sign`` other than the default builds mutants."""
    dim = fock._dimension(mode_count)
    states = np.arange(dim)
    lowering, raising = [], []
    for n in range(mode_count):
        for ops, src in ((lowering, states[(states >> n) & 1 == 1]),
                         (raising, states[(states >> n) & 1 == 0])):
            ops.append(sparse.csr_matrix(
                (np.asarray(sign(src, n), dtype=complex), (src ^ (1 << n), src)),
                shape=(dim, dim)))
    return LadderSet(mode_count, tuple(lowering), tuple(raising))


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


def first_order_current_per_pair(kernel, potential, times, t_start: float,
                                 smearing: str) -> np.ndarray:
    """``response.first_order_current`` at an ascending array of times, with
    np.exp over every pair at each Simpson node: the same grids, products
    and accumulation order, so the same floats."""
    n_sites = kernel.basis.config.site_count
    a = kernel.basis.config.spacing
    bins = kernel.transfer % n_sites
    kept = a if smearing == "site" else a * (
        np.abs(kernel.transfer) <= (n_sites - 1) // 2)
    charge = kept * kernel.charge_weight.conj()
    current = kept * kernel.current_weight.conj()
    out = np.zeros((len(times), n_sites))
    integral = np.zeros(kernel.omega.shape, dtype=complex)
    reached, sampled = t_start, None
    for row, t_out in enumerate(times):
        if t_out <= t_start:
            continue
        if t_out > reached:
            ts, weights = response._time_grid(reached, t_out, (
                response.kubo_interval_count(kernel.basis, t_out - reached)))
            for t_prime, w in zip(ts, weights):
                if t_prime != sampled:
                    sampled = t_prime
                    a0, vector = potential.fields(t_prime)
                    source = (charge * np.fft.fft(a0)[bins]
                              - current * np.fft.fft(vector)[bins])
                    phase = np.exp(-1j * kernel.omega * t_prime)
                integral += w * source * phase
            reached = t_out
        z = transfer_sum(kernel.current_weight
                         * np.exp(1j * kernel.omega * t_out) * integral,
                         kernel.transfer, n_sites)
        out[row] = 2.0 * z.imag
    return out


def band_pair_tensors(phi_band: np.ndarray):
    """overlap[y, m, n] = phi_m^dag phi_n and current[x, n, m] =
    phi_n^dag alpha phi_m over band modes of phi_band (N, 2, B)."""
    overlap = np.einsum("ysm,ysn->ymn", phi_band.conj(), phi_band)
    current = np.einsum("xsn,st,xtm->xnm", phi_band.conj(), ALPHA, phi_band)
    return overlap, current


def band_pair_f2(phi_band: np.ndarray) -> np.ndarray:
    """F2[x, y] = sum over band pairs m, n of (phi_m^dag(y) phi_n(y))
    (phi_n^dag(x) alpha phi_m(x)), the O(N^2 B^2) double sum."""
    return np.einsum("ymn,xnm->xy", *band_pair_tensors(phi_band))


def eigh_modes(config):
    """(lam, momentum_index, momentum, energy, spinors) of the 2N free modes,
    sorted (lam desc, |k|, k), from the eigenvectors of [[m, p], [p, -m]].

    Each spinor's first component above 1e-12 in magnitude, else its second,
    is made positive; p = m = 0 is pinned to (1,0) / (0,1).
    """
    modes = []
    for k in config.momentum_indices:
        p = 2.0 * np.pi * k / config.box_length
        e = float(np.hypot(p, config.mass))
        if p == 0.0 and config.mass == 0.0:
            vec = np.array([[0.0, 1.0], [1.0, 0.0]])
        else:
            _, vec = np.linalg.eigh([[config.mass, p], [p, -config.mass]])
        for lam, u in ((+1, vec[:, 1]), (-1, vec[:, 0])):  # +E is column 1
            lead = u[0] if abs(u[0]) > 1e-12 else u[1]
            modes.append((lam, int(k), p, e, u * np.sign(lead)))
    modes.sort(key=lambda md: (-md[0], abs(md[1]), md[1]))
    lam, index, momentum, energy, spinors = zip(*modes)
    return (np.array(lam), np.array(index), np.array(momentum),
            np.array(energy), np.stack(spinors, axis=1).astype(complex))


def kinetic_matrix(basis) -> np.ndarray:
    """K = -i D, the Hermitian kinetic matrix -i d/dx; read-only."""
    k = -1j * basis.derivative_matrix
    k.flags.writeable = False
    return k


def mode_coefficients(basis, psi: np.ndarray) -> np.ndarray:
    """Expansion coefficients c with psi = sum_n c_n phi_n."""
    return basis.config.spacing * (basis.flat.conj().T @ psi.ravel())


def single_particle_hamiltonian(basis, potential, t: float) -> np.ndarray:
    """h(t) = h0 - q alpha A(x,t) + q A0(x,t), dense and hermitian.

    The reference for i times ``evolution._minus_i_h`` at the couplings of
    ``evolution._couplings``; evolution never forms it.
    """
    h = basis.free_hamiltonian_matrix().copy()
    q = basis.config.charge
    a0, a1 = potential.fields(t)
    a0 = q * a0
    a1 = -q * a1
    idx = np.arange(basis.config.site_count)
    h[2 * idx, 2 * idx] += a0
    h[2 * idx + 1, 2 * idx + 1] += a0
    h[2 * idx, 2 * idx + 1] += a1
    h[2 * idx + 1, 2 * idx] += a1
    return h


def bilinear_matrix(ladders, kernel):
    """sum_nm K_nm a_n^dag a_m - c * identity as a sparse matrix.

    Every off-diagonal entry is one signed kernel entry from the hop table
    over all 2^M columns; the diagonal sums -c, then K_nn occ_n for
    n = 0..M-1, so the matrix equals the ladder product sum in that order
    bit for bit.
    """
    k = fock._coefficients(ladders.mode_count, kernel)
    states = np.arange(ladders.dimension)
    table = fock.hops(ladders.mode_count, states)
    occ = fock._bits(states, ladders.mode_count)
    diagonal = np.full(ladders.dimension, -kernel.subtraction, dtype=complex)
    for n in range(ladders.mode_count):
        diagonal += k[n, n] * occ[:, n]
    out = sparse.csr_matrix(
        (np.concatenate([table.sign * k.ravel()[table.pair], diagonal]),
         (np.concatenate([table.row, states]), np.concatenate([table.col, states]))),
        shape=(ladders.dimension, ladders.dimension))
    out.eliminate_zeros()
    return out


def ladder_vacuum_vector(ladders, occ) -> np.ndarray:
    """Creation operators of the occupied set applied to the bare vacuum in
    descending mode order."""
    vec = np.zeros(ladders.dimension, dtype=complex)
    vec[0] = 1.0
    for n in sorted(occ.indices, reverse=True):
        vec = ladders.raising[n] @ vec
    return vec


def anticommutator_defect_per_pair(ladders) -> float:
    """Max |{a_i, a_j^dag} - delta_ij| and |{a_i, a_j}|, two products per
    anticommutator, one pair of modes at a time."""
    eye = sparse.identity(ladders.dimension, dtype=complex, format="csr")
    worst = 0.0

    def maxabs(matrix):
        return 0.0 if matrix.nnz == 0 else float(np.abs(matrix.data).max())

    for i in range(ladders.mode_count):
        for j in range(ladders.mode_count):
            mixed = (ladders.lowering[i] @ ladders.raising[j]
                     + ladders.raising[j] @ ladders.lowering[i])
            worst = np.maximum(worst, maxabs((mixed - eye) if i == j else mixed))
            both = (ladders.lowering[i] @ ladders.lowering[j]
                    + ladders.lowering[j] @ ladders.lowering[i])
            worst = np.maximum(worst, maxabs(both))
    return float(worst)


def anticommutator_entries_per_pair(ladders) -> np.ndarray:
    """[i, b, j]: the anticommutator of a_i with mode j's ladders read at its
    one possible row, b ^ 2^i ^ 2^j, in column b: {a_i, a_j^dag} - delta_ij
    plus {a_i, a_j}, which act on disjoint columns.  Two products per
    anticommutator, one pair of modes at a time."""
    count = ladders.mode_count
    eye = sparse.identity(ladders.dimension, dtype=complex, format="csr")
    states = np.arange(ladders.dimension)
    out = np.zeros((count, ladders.dimension, count))
    for i in range(count):
        for j in range(count):
            mixed = (ladders.lowering[i] @ ladders.raising[j]
                     + ladders.raising[j] @ ladders.lowering[i])
            both = (ladders.lowering[i] @ ladders.lowering[j]
                    + ladders.lowering[j] @ ladders.lowering[i])
            matrix = (mixed - eye if i == j else mixed + both).toarray()
            out[i, :, j] = matrix[states ^ (1 << i) ^ (1 << j), states].real
    return out


def expectation(state: np.ndarray, operator) -> complex:
    return complex(np.vdot(state, operator @ state))


def commutator_expectation(state: np.ndarray, op_a, op_b) -> complex:
    """<state| [A, B] |state> via matrix-vector products."""
    av = op_a @ (op_b @ state)
    bv = op_b @ (op_a @ state)
    return complex(np.vdot(state, av - bv))


def orbital_creation(ladders, coefficients: np.ndarray):
    """Creation operator of the orbital sum_n c_n a_n^dag."""
    if len(coefficients) != ladders.mode_count:
        raise ValueError("coefficient length does not match mode count")
    out = None
    for n, c in enumerate(coefficients):
        if c == 0:
            continue
        term = c * ladders.raising[n]
        out = term if out is None else out + term
    if out is None:
        raise ValueError("orbital coefficients are all zero")
    return out


def slater_vector(ladders, orbitals: np.ndarray) -> np.ndarray:
    """Determinant state from mode-basis orbital columns (M x k)."""
    vec = np.zeros(ladders.dimension, dtype=complex)
    vec[0] = 1.0
    for col in reversed(range(orbitals.shape[1])):
        vec = orbital_creation(ladders, orbitals[:, col]) @ vec
    return vec
