"""Brute-force fermionic Fock space for small mode counts.

This is the test instrument of the package: every Wick-theorem mode sum used
elsewhere can be checked against literal operator algebra on the full
2^M-dimensional space.  Conventions:

* basis vectors are occupation bitstrings, mode 0 in the least significant
  bit, so basis index b occupies mode n iff (b >> n) & 1;
* a_n^dag carries the sign (-1)^(number of occupied modes below n), which
  makes creation operators applied in descending mode order produce the
  bare product state with amplitude +1.

Ladder operators are scipy CSR matrices (each has 2^(M-1) entries; dense
storage at the M = 14 cap would cost gigabytes per operator for no benefit).
They serve only the anticommutator gate in ``checks`` and the tests.  The
oracle works on bitstrings: a vacuum vector is the one bitstring of its
occupied set with amplitude +1, and a many-body spectrum of a diagonal
operator is read off the occupation bits.

Bilinears sum_nm K_nm a_n^dag a_m - c act through a hop table built for the
columns they are applied to: every nonzero entry of a_n^dag a_m with n != m
in those columns (pair index n * M + m, row, column, sign).  This module is
the only place that knows the sign convention.  ``apply_bilinears`` applies
many kernels to one state at once, as a sparse (2^M, M^2) hop image of the
state's support times the stacked kernel coefficients plus the diagonal, so
a determinant, which is a single bitstring, costs M_occ * M_empty hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .operators import OneBodyKernel
from .vacua import OccupationSet

MAX_MODES = 14


@dataclass(frozen=True)
class HopTable:
    """Nonzero entries of a_n^dag a_m with n != m, ordered by column, then pair."""

    pair: np.ndarray   # n * M + m
    row: np.ndarray
    col: np.ndarray
    sign: np.ndarray   # +-1.0


@dataclass(frozen=True)
class LadderSet:
    """Annihilation/creation matrices for M fermionic modes."""

    mode_count: int
    lowering: tuple
    raising: tuple

    @property
    def dimension(self) -> int:
        return 1 << self.mode_count


def _dimension(mode_count: int) -> int:
    """2^M, once M is within the memory guard."""
    if not 1 <= mode_count <= MAX_MODES:
        raise ValueError(
            f"mode_count must be in 1..{MAX_MODES} (memory guard), got {mode_count}"
        )
    return 1 << mode_count


def _bits(columns: np.ndarray, mode_count: int) -> np.ndarray:
    """Occupation bits: row i, column n is (columns[i] >> n) & 1."""
    return (columns[:, None] >> np.arange(mode_count)) & 1


def hops(mode_count: int, columns: np.ndarray) -> HopTable:
    """a_n^dag a_m maps each column occupying m and not n to row = col ^ 2^n
    ^ 2^m; a_m contributes the parity of col below m, a_n^dag that of row
    below n."""
    occ = _bits(columns, mode_count).astype(bool)
    index, n, m = np.nonzero(~occ[:, :, None] & occ[:, None, :])
    col = columns[index]
    row = col ^ (1 << n) ^ (1 << m)
    # bitwise_count returns uint8, where 1 - 2 * parity would wrap to 255
    parity = (np.bitwise_count(col & ((1 << m) - 1))
              + np.bitwise_count(row & ((1 << n) - 1))) & 1
    return HopTable(n * mode_count + m, row, col, 1.0 - 2.0 * parity)


def build_ladders(mode_count: int) -> LadderSet:
    """Ladder operators over the occupation-number basis."""
    dim = _dimension(mode_count)
    states = np.arange(dim, dtype=np.uint64)
    lowering = []
    for n in range(mode_count):
        bit = np.uint64(1 << n)
        below = np.uint64((1 << n) - 1)
        src = states[(states & bit) != 0]
        dst = (src ^ bit).astype(np.int64)
        sign = 1.0 - 2.0 * (np.bitwise_count(src & below).astype(np.int64) % 2)
        op = sparse.csr_matrix(
            (sign.astype(complex), (dst, src.astype(np.int64))), shape=(dim, dim)
        )
        lowering.append(op)
    raising = tuple(op.conj().T.tocsr() for op in lowering)
    return LadderSet(mode_count, tuple(lowering), raising)


def build_vacuum_vector(occ: OccupationSet) -> np.ndarray:
    """Product of creation operators over the occupied set on the bare vacuum.

    Applied in descending mode order, the creation operators give amplitude
    +1 on the bitstring sum_n 2^n over the occupied n, which is written
    directly.
    """
    vec = np.zeros(_dimension(occ.mode_count), dtype=complex)
    vec[sum(1 << n for n in occ.indices)] = 1.0
    return vec


def _coefficients(mode_count: int, kernel: OneBodyKernel) -> np.ndarray:
    k = kernel.coefficients
    if k.shape != (mode_count, mode_count):
        raise ValueError(f"kernel shape {k.shape} does not match M={mode_count}")
    return k


def apply_bilinears(mode_count: int, kernels, state: np.ndarray) -> np.ndarray:
    """(sum_nm K_nm a_n^dag a_m - c) state for each kernel, as (2^M, K) columns.

    Only the state's support is visited: column n * M + m of the sparse hop
    image is a_n^dag a_m state (n != m), built from the hops out of nonzero
    amplitudes, so one product with the stacked (M^2, K) coefficients applies
    every off-diagonal part.  The diagonal, the support's occupation bits
    times K_nn, lands on the support rows.  A NaN amplitude is nonzero and
    so reaches the output.
    """
    dim = _dimension(mode_count)
    if state.shape != (dim,):
        raise ValueError(f"state shape {state.shape} does not match 2^M={dim}")
    coefficients = np.stack([_coefficients(mode_count, kernel) for kernel in kernels])
    subtractions = np.array([kernel.subtraction for kernel in kernels])
    m = mode_count
    support = np.flatnonzero(state)
    table = hops(m, support)
    hop_image = sparse.csr_matrix(
        (table.sign * state[table.col], (table.row, table.pair)), shape=(dim, m * m))
    stacked = np.ascontiguousarray(coefficients.reshape(len(kernels), m * m).T)
    out = hop_image @ stacked
    diagonal = (_bits(support, m) @ np.diagonal(coefficients, axis1=1, axis2=2).T
                - subtractions)
    out[support] += diagonal * state[support, None]
    return out


def spectrum_of_h0_sector(mode_count: int, kernel: OneBodyKernel) -> np.ndarray:
    """All 2^M eigenvalues of the subtracted many-body free Hamiltonian.

    The operator is diagonal in the occupation basis, so the eigenvalues are
    occupation sums of the diagonal kernel entries minus the subtraction; the
    result is indexed by basis bitstring.  The reference vacuum enters only
    through the subtraction attached to the kernel.
    """
    weights = np.real(np.diag(_coefficients(mode_count, kernel)))
    occupations = _bits(np.arange(_dimension(mode_count)), mode_count)
    return occupations @ weights - kernel.subtraction
