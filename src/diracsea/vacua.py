"""Vacuum definitions: bare, filled sea, and finite-band sea.

The band vacuum occupies only the negative-branch modes with energies in
[-(m + width), -m], both edges inclusive, so width = 0 still occupies the
E = m shell and growing the width is monotone in the occupied set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModeBasis

KINDS = ("bare", "standard", "band")


@dataclass(frozen=True)
class VacuumSpec:
    kind: str
    band_width: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"vacuum kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "band":
            if self.band_width is None or not self.band_width >= 0:  # NaN too
                raise ValueError("band vacuum requires a non-negative band_width")
        elif self.band_width is not None:
            raise ValueError("band_width is only meaningful for kind='band'")


@dataclass(frozen=True)
class OccupationSet:
    """Occupied mode indices of a determinant vacuum, plus the mode count."""

    indices: tuple[int, ...]
    mode_count: int

    def __post_init__(self):
        if any(i < 0 or i >= self.mode_count for i in self.indices):
            raise ValueError("occupation indices out of range")

    def __len__(self):
        return len(self.indices)

    def __contains__(self, i):
        return i in set(self.indices)

    @property
    def complement(self) -> tuple[int, ...]:
        occupied = set(self.indices)
        return tuple(i for i in range(self.mode_count) if i not in occupied)


def classify_indices(spec: VacuumSpec, basis: ModeBasis):
    """Index arrays (positive, in_band, below_band) for the whole basis.

    This is the one band-edge rule of the package.  For bare/standard vacua
    every negative-branch mode counts as in_band; the band keeps energies in
    [m, m + width], both edges inclusive.
    """
    positive = np.flatnonzero(basis.lam > 0)
    negative = np.flatnonzero(basis.lam < 0)
    if spec.kind != "band":
        return positive, negative, np.array([], dtype=int)
    inside = basis.energy[negative] <= basis.config.mass + spec.band_width
    return positive, negative[inside], negative[~inside]


def occupation_set(spec: VacuumSpec, basis: ModeBasis) -> OccupationSet:
    """Occupied mode indices realizing the requested vacuum on this basis."""
    M = basis.mode_count
    if spec.kind == "bare":
        return OccupationSet((), M)
    if spec.kind == "band":
        m = basis.config.mass
        edge = m + spec.band_width
        e_max = basis.max_energy
        if edge >= e_max:
            raise ValueError(
                "band vacuum needs headroom below the momentum cutoff: "
                f"m + band_width = {edge:g} must stay below E_max = {e_max:g} "
                f"(max admissible band_width here is {e_max - m:g} exclusive)"
            )
    _, in_band, _ = classify_indices(spec, basis)
    return OccupationSet(tuple(in_band.tolist()), M)


def coupled_band_spec(basis: ModeBasis, headroom_fraction: float = 0.5) -> VacuumSpec:
    """Band spec with width tied to the cutoff: width = fraction * (E_max - m).

    This realizes the infinite-band limit as a family over growing cutoffs;
    at fixed truncation taking the width to the cutoff would collapse the band
    vacuum onto the filled sea and erase the distinction being studied.
    """
    if not 0.0 < headroom_fraction < 1.0:
        raise ValueError("headroom_fraction must lie strictly between 0 and 1")
    width = headroom_fraction * (basis.max_energy - basis.config.mass)
    return VacuumSpec("band", width)
