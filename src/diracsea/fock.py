"""Brute-force fermionic Fock space for small mode counts.

This is the test instrument of the package: every Wick-theorem mode sum used
elsewhere can be checked against literal operator algebra on the
2^M-dimensional space.  Conventions:

* basis vectors are occupation bitstrings, mode 0 in the least significant
  bit, so basis index b occupies mode n iff (b >> n) & 1;
* a_n maps b to b ^ 2^n when b occupies n, a_n^dag does the same when it
  does not, and both carry ``ladder_sign(b, n)``, (-1) to the number of
  occupied modes of b below n.  This makes creation operators applied in
  descending mode order produce the bare product state with amplitude +1.

``ladder_sign`` is the only place that knows the sign convention: the hop
table below and the anticommutator gate in ``checks`` both read it, and no
ladder matrix is ever built.  A vacuum vector is the one bitstring of its
occupied set with amplitude +1, and a many-body spectrum of a diagonal
operator is read off the occupation bits.

Bilinears sum_nm K_nm a_n^dag a_m - c act through a hop table built for the
columns they are applied to: every nonzero entry of a_n^dag a_m with n != m
in those columns (pair index n * M + m, row, column, sign).
``apply_bilinears`` applies many kernels to one state at once, one signed
kernel row per hop out of the state's support, accumulated onto the hop's
row, plus the diagonal, so a determinant, which is a single bitstring,
costs M_occ * M_empty hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def ladder_sign(bits, mode):
    """The sign a_mode and a_mode^dag carry on bitstrings ``bits``: (-1) to
    the number of occupied modes below ``mode``.  Broadcasts like ``&``."""
    # bitwise_count returns uint8, where 1 - 2 * parity would wrap to 255
    return 1.0 - 2.0 * (np.bitwise_count(bits & ((1 << mode) - 1)) & 1)


def hops(mode_count: int, columns: np.ndarray) -> HopTable:
    """a_n^dag a_m maps each column occupying m and not n to row = col ^ 2^n
    ^ 2^m: a_m acts on col, then a_n^dag on col ^ 2^m."""
    occ = _bits(columns, mode_count).astype(bool)
    index, n, m = np.nonzero(~occ[:, :, None] & occ[:, None, :])
    col = columns[index]
    emptied = col ^ (1 << m)
    return HopTable(n * mode_count + m, emptied ^ (1 << n), col,
                    ladder_sign(col, m) * ladder_sign(emptied, n))


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

    Only the state's support is visited: each hop out of a nonzero amplitude
    adds sign * amplitude times the kernels' (n, m) entries to its row, which
    applies every off-diagonal part.  The diagonal, the support's occupation
    bits times K_nn, lands on the support rows.  A NaN amplitude is nonzero
    and so reaches the output.
    """
    dim = _dimension(mode_count)
    if state.shape != (dim,):
        raise ValueError(f"state shape {state.shape} does not match 2^M={dim}")
    coefficients = np.stack([_coefficients(mode_count, kernel) for kernel in kernels])
    subtractions = np.array([kernel.subtraction for kernel in kernels])
    m = mode_count
    support = np.flatnonzero(state)
    table = hops(m, support)
    out = np.zeros((dim, len(kernels)), dtype=np.result_type(state, coefficients))
    entries = coefficients.reshape(len(kernels), m * m)[:, table.pair].T
    np.add.at(out, table.row, (table.sign * state[table.col])[:, None] * entries)
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
