"""Self-verification suite: exact-algebra gates and Fock-oracle comparisons.

Used by the command-line ``verify`` subcommand and by the acceptance tests.
Each check returns the measured defect together with the tolerance it is
held to, so callers can print one line per check and fail on any excess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .evolution import apply_hamiltonian
from .lattice import LatticeConfig, ModeBasis, build_basis
from .operators import (
    OneBodyKernel,
    charge_kernel,
    continuity_pair_residual,
    current_kernel,
    free_hamiltonian_kernel,
    renorm_constants,
)
from .schwinger import (
    commutator_kernel,
    divergence_diag_closed_form,
    divergence_of_kernel,
    divergence_paths_error,
    f2_identity_check,
    schwinger_band,
    schwinger_standard,
)
from .vacua import (OccupationSet, VacuumSpec, classify_indices,
                    coupled_band_spec, occupation_set)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def line(self) -> str:
        state = "ok  " if self.passed else "FAIL"
        return f"{state} {self.name}: {self.value:.3e} (tol {self.tolerance:.1e})"


def orthonormality_defect(basis: ModeBasis) -> float:
    gram = basis.config.spacing * basis.flat.conj().T @ basis.flat
    return float(np.abs(gram - np.eye(basis.mode_count)).max())


def completeness_defect(basis: ModeBasis) -> float:
    n = basis.config.site_count
    outer = np.einsum("jan,kbn->jakb", basis.phi, basis.phi.conj())
    target = np.zeros_like(outer)
    idx = np.arange(n)
    target[idx, 0, idx, 0] = 1.0 / basis.config.spacing
    target[idx, 1, idx, 1] = 1.0 / basis.config.spacing
    return float(np.abs(outer - target).max())


def eigenrelation_defect(basis: ModeBasis) -> float:
    """Max |h0 phi_n - lam_n E_n phi_n| with evolution's matrix-free h0."""
    image = apply_hamiltonian(basis, basis.flat)
    return float(np.abs(image - basis.flat * basis.eigenvalue).max())


def hermiticity_defect(basis: ModeBasis, rng: np.random.Generator) -> float:
    """Max |<f, h0 g> - <g, h0 f>*| over four random field pairs."""
    n = basis.config.site_count
    defects = []
    for _ in range(4):
        f = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        left = basis.inner(f, apply_hamiltonian(basis, g))
        right = np.conj(basis.inner(g, apply_hamiltonian(basis, f)))
        defects.append(abs(left - right))
    return float(np.max(defects))  # np.max, unlike max, keeps a NaN


def _anticommutator_entries(mode_count: int):
    """Per mode i, the (2^M, M) entries [b, j] of the anticommutators of a_i.

    Worked on bitstrings with ``fock.ladder_sign``, the rule the oracle's
    hops use.  Whichever ladder acts on mode j of b, a_j or a_j^dag, maps it
    to b ^ 2^j, so both orderings of a pair land on b ^ 2^i ^ 2^j.  For
    j != i entry [b, j] is then the sign of the mode-i step after the mode-j
    one plus that of the reverse order: {a_i, a_j^dag} acts where b holds i
    and not j, {a_i, a_j} where it holds both, and neither where b lacks i,
    so the entry is 0 there.  For j = i exactly one ordering of
    {a_i, a_i^dag} acts on each b, and entry [b, i] is its sign less 1.
    Entries are sums of +-1 products, hence exact; a NaN sign stays NaN.
    """
    states = np.arange(fock._dimension(mode_count))
    modes = np.arange(mode_count)
    holds = fock._bits(states, mode_count).astype(bool)
    first = fock.ladder_sign(states[:, None], modes)    # [b, j]: mode-j step on b
    for i in modes:
        i_after_j = fock.ladder_sign(states[:, None] ^ (1 << modes), i) * first
        j_after_i = fock.ladder_sign(states[:, None] ^ (1 << i), modes) * first[:, i, None]
        entries = np.where(holds[:, i, None], i_after_j + j_after_i, 0.0)
        entries[:, i] = i_after_j[:, i] - 1.0
        yield entries


def anticommutator_defect(mode_count: int) -> float:
    """Max |{a_i, a_j^dag} - delta_ij| and |{a_i, a_j}| over all mode pairs,
    one mode i at a time (``_anticommutator_entries``)."""
    # np.max, unlike max, keeps a NaN
    return float(np.max([np.abs(entries).max()
                         for entries in _anticommutator_entries(mode_count)]))


def algebra_gate(site_counts=(5, 7, 9, 11), masses=(0.0, 1.0, 5.0),
                 ladder_sizes=(2, 6, 10), seed: int = 0) -> list[CheckResult]:
    """Exact-identity gate: orthonormality, completeness, eigenrelation,
    hermiticity, per-pair continuity, and ladder anticommutators.

    The lattice identities run over the full (N, m) grid; the anticommutator
    check runs at the Fock-feasible mode counts (2^(2N) states put the larger
    lattices far beyond the oracle's reach).
    """
    rng = np.random.default_rng(seed)
    bases = [build_basis(LatticeConfig(2.0 * np.pi, n_sites, mass))
             for n_sites in site_counts for mass in masses]
    defects = {"orthonormality": orthonormality_defect,
               "completeness": completeness_defect,
               "eigenrelation": eigenrelation_defect,
               "hermiticity": lambda basis: hermiticity_defect(basis, rng),
               "continuity": continuity_pair_residual}
    # np.max, unlike max, keeps a NaN defect, so the gate fails on it
    results = [CheckResult(f"{name} (N={min(site_counts)}..{max(site_counts)}, "
                           f"m in {list(masses)})",
                           np.max([defect(basis) for basis in bases]), 1e-12)
               for name, defect in defects.items()]
    for mode_count in ladder_sizes:
        results.append(CheckResult(f"anticommutators (M={mode_count})",
                                   anticommutator_defect(mode_count), 1e-12))
    return results


def oracle_commutator_defect(basis: ModeBasis, spec: VacuumSpec,
                             mode_indices=None) -> float:
    """Brute-force <vac|[rho(y), J(x)]|vac> against the mode-sum kernel.

    With ``mode_indices`` the comparison runs on a mode subset, where the
    kernel has nonvanishing grid values; on the full basis both sides vanish
    identically and the comparison still exercises the whole pipeline.
    """
    subset = (np.arange(basis.mode_count) if mode_indices is None
              else np.asarray(mode_indices, dtype=int))
    occupied = np.isin(subset, occupation_set(spec, basis).indices)
    occ = OccupationSet(tuple(np.flatnonzero(occupied).tolist()), len(subset))
    vacuum = fock.build_vacuum_vector(occ)
    values = commutator_kernel(basis, spec, mode_indices=subset).values

    n_sites = basis.config.site_count
    kernels = ([charge_kernel(basis, k).restricted(subset) for k in range(n_sites)]
               + [current_kernel(basis, j).restricted(subset) for j in range(n_sites)])
    adjoints = [OneBodyKernel(kernel.coefficients.conj().T, kernel.subtraction)
                for kernel in kernels]
    rho, cur, rho_dag, cur_dag = np.split(
        fock.apply_bilinears(len(subset), kernels + adjoints, vacuum), 4, axis=1)
    # <v|rho_k J_j|v> - <v|J_j rho_k|v> = <rho_k^dag v|J_j v> - <J_j^dag v|rho_k v>
    oracle = cur.T @ rho_dag.conj() - cur_dag.conj().T @ rho    # [j (x), k (y)]
    return float(np.abs(oracle - values).max())


def oracle_subtraction_defect(basis: ModeBasis, spec: VacuumSpec) -> float:
    """Vacuum expectations of subtracted rho, J, H0 on the oracle vector."""
    occ = occupation_set(spec, basis)
    vacuum = fock.build_vacuum_vector(occ)
    constants = renorm_constants(basis, occ)
    sites = range(basis.config.site_count)
    kernels = ([charge_kernel(basis, j).with_subtraction(constants.rho[j]) for j in sites]
               + [current_kernel(basis, j).with_subtraction(constants.current[j])
                  for j in sites]
               + [free_hamiltonian_kernel(basis, occ)])
    expectations = vacuum.conj() @ fock.apply_bilinears(basis.mode_count, kernels, vacuum)
    return float(np.abs(expectations).max())


def spectrum_positivity(basis: ModeBasis) -> tuple[float, int]:
    """(most negative eigenvalue, number of zeros) of the sea-vacuum H0."""
    occ = occupation_set(VacuumSpec("standard"), basis)
    kernel = free_hamiltonian_kernel(basis, occ)
    spectrum = fock.spectrum_of_h0_sector(basis.mode_count, kernel)
    zeros = int(np.sum(np.abs(spectrum) <= 1e-12))
    return float(spectrum.min()), zeros


def band_spectrum_negative_level(basis: ModeBasis, spec: VacuumSpec):
    """(min eigenvalue, single-move level E_m - E_n, present-in-spectrum)."""
    occ = occupation_set(spec, basis)
    kernel = free_hamiltonian_kernel(basis, occ)
    spectrum = fock.spectrum_of_h0_sector(basis.mode_count, kernel)
    _, in_band, below = classify_indices(spec, basis)
    band_energies = basis.energy[in_band]
    below_energies = basis.energy[below]
    if len(below_energies) == 0:
        raise ValueError("band vacuum has no below-band modes")
    move = float(band_energies.min() - below_energies.max())   # closest move
    present = bool(np.any(np.abs(spectrum - move) <= 1e-12))
    return float(spectrum.min()), move, present


def oracle_suite() -> list[CheckResult]:
    """Fock-oracle comparisons at desk scale (M <= 10)."""
    results = []

    basis3 = build_basis(LatticeConfig(2.0 * np.pi, 3, 1.0))
    results.append(CheckResult(
        "oracle commutator, full basis (N=3, M=6), filled sea",
        oracle_commutator_defect(basis3, VacuumSpec("standard")), 1e-10))

    basis7 = build_basis(LatticeConfig(2.0 * np.pi, 7, 1.0))
    subset = [i for i in range(basis7.mode_count)
              if basis7.momentum_index[i] in (-1, 0, 1, 2)]
    results.append(CheckResult(
        "oracle commutator, 4-momentum subset (M=8), filled sea",
        oracle_commutator_defect(basis7, VacuumSpec("standard"), subset), 1e-10))
    band7 = VacuumSpec("band", 1.0)
    results.append(CheckResult(
        "oracle commutator, 4-momentum subset (M=8), band vacuum",
        oracle_commutator_defect(basis7, band7, subset), 1e-10))

    basis5 = build_basis(LatticeConfig(2.0 * np.pi, 5, 1.0))
    results.append(CheckResult(
        "oracle vacuum subtractions (M=10), filled sea",
        oracle_subtraction_defect(basis5, VacuumSpec("standard")), 1e-12))
    results.append(CheckResult(
        "oracle vacuum subtractions (M=10), band vacuum",
        oracle_subtraction_defect(basis5, VacuumSpec("band", 1.0)), 1e-12))

    minimum, zeros = spectrum_positivity(basis5)
    results.append(CheckResult(
        "sea-vacuum spectrum minimum (M=10)", abs(np.minimum(minimum, 0.0)), 1e-12))
    results.append(CheckResult(
        "sea-vacuum spectrum zero multiplicity defect", abs(zeros - 1), 0.5))

    band5 = VacuumSpec("band", 1.0)
    minimum, move, present = band_spectrum_negative_level(basis5, band5)
    results.append(CheckResult(
        "band-vacuum negative level exists", 0.0 if minimum < 0 else 1.0, 0.5))
    results.append(CheckResult(
        "band-vacuum single-move level present", 0.0 if present else 1.0, 0.5))
    return results


def schwinger_suite() -> list[CheckResult]:
    """Kernel invariants on a mid-size lattice."""
    results = []
    basis = build_basis(LatticeConfig(2.0 * np.pi, 9, 1.0))
    kernel = schwinger_standard(basis)
    fine = np.linspace(0.0, basis.config.box_length, 4 * 9, endpoint=False)
    results.append(CheckResult(
        "kernel real part (filled sea, oversampled)",
        float(np.abs(kernel.evaluate(fine, fine).real).max()), 1e-12))

    div = divergence_of_kernel(kernel)
    closed = divergence_diag_closed_form(basis)
    results.append(CheckResult(
        "divergence: spectral path vs closed form (relative)",
        divergence_paths_error(div, closed), 1e-10))
    results.append(CheckResult(
        "divergence diagonal imaginary part is negative",
        0.0 if closed[0].imag < 0 else 1.0, 0.5))

    spec = coupled_band_spec(basis)
    band_kernel = schwinger_band(basis, spec)
    results.append(CheckResult(
        "band kernel coincident-point values",
        float(np.abs(np.diag(band_kernel.values)).max()), 1e-12))
    results.append(CheckResult(
        "intra-band double-sum identity residual",
        f2_identity_check(basis, spec), 1e-12))
    return results


def run_verification(seed: int = 0) -> list[CheckResult]:
    results = []
    results.extend(algebra_gate(seed=seed))
    results.extend(oracle_suite())
    results.extend(schwinger_suite())
    return results
