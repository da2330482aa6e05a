"""Brute-force fermionic Fock space for small mode counts.

This is the test instrument of the package: every Wick-theorem mode sum used
elsewhere can be checked against literal operator algebra on the full
2^M-dimensional space.  Conventions:

* basis vectors are occupation bitstrings, mode 0 in the least significant
  bit, so basis index b occupies mode n iff (b >> n) & 1;
* a_n^dag carries the sign (-1)^(number of occupied modes below n), which
  makes creation operators applied in descending mode order produce the
  bare product state with amplitude +1.

Ladder operators are kept as scipy CSR matrices (each has 2^(M-1) entries;
dense storage at the M = 14 cap would cost gigabytes per operator for no
benefit).  Everything downstream treats them as plain matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .operators import OneBodyKernel
from .vacua import OccupationSet

MAX_MODES = 14


@dataclass(frozen=True)
class LadderSet:
    """Annihilation/creation matrices for M fermionic modes."""

    mode_count: int
    lowering: tuple
    raising: tuple

    @property
    def dimension(self) -> int:
        return 1 << self.mode_count

    def identity(self):
        return sparse.identity(self.dimension, dtype=complex, format="csr")


def build_ladders(mode_count: int) -> LadderSet:
    """Ladder operators over the occupation-number basis."""
    if not 1 <= mode_count <= MAX_MODES:
        raise ValueError(
            f"mode_count must be in 1..{MAX_MODES} (memory guard), got {mode_count}"
        )
    dim = 1 << mode_count
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


def build_vacuum_vector(ladders: LadderSet, occ: OccupationSet) -> np.ndarray:
    """Product of creation operators over the occupied set on the bare vacuum.

    Operators are applied in descending mode order, which gives amplitude +1
    on the corresponding bitstring.
    """
    if occ.mode_count != ladders.mode_count:
        raise ValueError("occupation set and ladder set disagree on mode count")
    vec = np.zeros(ladders.dimension, dtype=complex)
    vec[0] = 1.0
    for n in sorted(occ.indices, reverse=True):
        vec = ladders.raising[n] @ vec
    return vec


def bilinear_matrix(ladders: LadderSet, kernel: OneBodyKernel):
    """sum_nm K_nm a_n^dag a_m - c * identity as a sparse matrix."""
    k = kernel.coefficients
    if k.shape != (ladders.mode_count, ladders.mode_count):
        raise ValueError(
            f"kernel shape {k.shape} does not match M={ladders.mode_count}"
        )
    out = -kernel.subtraction * ladders.identity()
    for n in range(ladders.mode_count):
        row = None
        for m in range(ladders.mode_count):
            if k[n, m] == 0:
                continue
            term = k[n, m] * ladders.lowering[m]
            row = term if row is None else row + term
        if row is not None:
            out = out + ladders.raising[n] @ row
    return out.tocsr()


def expectation(state: np.ndarray, operator) -> complex:
    return complex(np.vdot(state, operator @ state))


def commutator_expectation(state: np.ndarray, op_a, op_b) -> complex:
    """<state| [A, B] |state> via matrix-vector products."""
    av = op_a @ (op_b @ state)
    bv = op_b @ (op_a @ state)
    return complex(np.vdot(state, av - bv))


def orbital_creation(ladders: LadderSet, coefficients: np.ndarray):
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


def slater_vector(ladders: LadderSet, orbitals: np.ndarray) -> np.ndarray:
    """Determinant state from mode-basis orbital columns (M x k)."""
    vec = np.zeros(ladders.dimension, dtype=complex)
    vec[0] = 1.0
    for col in reversed(range(orbitals.shape[1])):
        vec = orbital_creation(ladders, orbitals[:, col]) @ vec
    return vec


def spectrum_of_h0_sector(ladders: LadderSet, kernel: OneBodyKernel) -> np.ndarray:
    """All 2^M eigenvalues of the subtracted many-body free Hamiltonian.

    The operator is diagonal in the occupation basis, so the eigenvalues are
    occupation sums of the diagonal kernel entries minus the subtraction; the
    result is indexed by basis bitstring.  The reference vacuum enters only
    through the subtraction attached to the kernel.
    """
    weights = np.real(np.diag(kernel.coefficients))
    dim = 1 << ladders.mode_count
    bits = (np.arange(dim)[:, None] >> np.arange(ladders.mode_count)[None, :]) & 1
    return bits @ weights - kernel.subtraction
