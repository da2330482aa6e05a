"""Batch scenario runner: subcommand per experiment, CSV/JSON artifacts.

Every run writes its outputs plus a manifest (config echo, package version,
checksums) into the output directory.  Exit codes: 0 success, 1 config or
argument error, 2 numerical invariant violation, 3 any other failure.  A
failed run prints one JSON line {"error", "exit_code"} to stderr (exit 3 adds
the traceback as a "traceback" string), never a raw traceback.

Only this module knows the config format.  Each value is read by one reader
per kind (``_section``, ``_number``, ``_integer``) that takes the section,
the key and a default; every number must be a finite JSON number.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from . import evolution as ev
from . import response as rs
from . import schwinger as sw
from .lattice import LatticeConfig, build_basis
from .operators import continuity_pair_residual
from .vacua import VacuumSpec

# config tokens of the one kick recipe, and of the one refused
KICK_RECIPES = ("density_rate", "eq39")
REFUSED_RECIPES = ("continuity_rate", "eq42")


class ConfigError(ValueError):
    exit_code = 1


class InvariantError(RuntimeError):
    exit_code = 2


class SweepError(RuntimeError):
    """Some sweep points failed; exits with the worst point's code."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _failure(exc: Exception) -> dict:
    """The JSON error report of a failed run; exit 3 (with the traceback) for
    anything unforeseen.  Call it inside the ``except`` block."""
    code = getattr(exc, "exit_code", 3)
    if code != 3:
        return {"error": str(exc), "exit_code": code}
    return {"error": f"{type(exc).__name__}: {exc}", "exit_code": code,
            "traceback": traceback.format_exc()}


_QUOTED = frozenset(',"\r\n')  # the characters the csv module quotes
_CSV_CHUNK_ROWS = 512  # rows joined into one string per write


def _formatted(values: np.ndarray) -> list[str]:
    """Each entry as its CSV cell: %.17e for a float, str for anything else."""
    cell = "%.17e".__mod__ if values.dtype.kind == "f" else str
    return list(map(cell, values.ravel().tolist()))


def _glued(values: np.ndarray, end: str) -> np.ndarray:
    """Each entry's cell followed by ``end``, as an object array."""
    return np.array([cell + end for cell in _formatted(values)], dtype=object)


def _write_csv(path: Path, header, columns):
    """One column per header name: an array (one cell per row), a scalar (the
    same cell on every row) or a pair (values, index), the array
    values[index].

    Cells are %.17e for floats and str for the rest, and rows end in CRLF.
    A scalar is formatted once per file and a pair's values once each, not
    once per row: each cell is glued to the separator and the scalars that
    follow it, up to the next non-scalar column or the row's end, and the
    index picks the glued cells.  An array's cells are formatted a chunk of
    rows at a time, and each chunk is one ``str.join`` of those pieces.
    Nothing is quoted: a text cell that the csv module would quote (holding
    , " CR or LF, or a row's only cell and empty) is refused before the
    file is opened.
    """
    texts, parts = [header], []
    for column in columns:
        pair = isinstance(column, tuple)
        values = np.asarray(column[0] if pair else column)
        index = np.ravel(column[1]) if pair else None
        if values.dtype.kind in "OSU":  # only text can need quotes
            cells = _formatted(values)
            texts.append(cells if index is None
                         else map(cells.__getitem__, index.tolist()))
        parts.append((values, index))
    for cell in (cell for text in texts for cell in text):
        if not _QUOTED.isdisjoint(cell) or (len(header) == 1 and cell == ""):
            raise ValueError(f"CSV cell {cell!r} would need quoting")

    # lead: the scalars before the first non-scalar column; runs: each
    # non-scalar column with the text that follows its cells
    lead, runs = "", []
    for (values, index), end in zip(parts, [","] * (len(parts) - 1) + ["\r\n"]):
        if index is None and values.ndim == 0:
            text = _formatted(values)[0] + end
            if runs:
                runs[-1][2] += text
            else:
                lead += text
        else:
            runs.append([values, index, end])
    lengths = {values.size if index is None else index.size
               for values, index, _ in runs}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns have different row counts {lengths}")
    # a pair's values are glued once, an array's cells chunk by chunk
    runs = [(values.ravel(), None, end) if index is None
            else (_glued(values, end), index, end) for values, index, end in runs]

    with _artifact(path) as write:
        write(",".join(header) + "\r\n")
        if not runs:
            write(lead)
            return
        n_rows = lengths.pop()
        tokens = np.full((min(_CSV_CHUNK_ROWS, n_rows), len(runs) + bool(lead)),
                         lead, dtype=object)
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, n_rows)
            rows = tokens[:stop - start]
            for col, (values, index, end) in enumerate(runs, bool(lead)):
                rows[:, col] = (_glued(values[start:stop], end) if index is None
                                else values[index[start:stop]])
            write("".join(rows.ravel().tolist()))


# sha256 of each artifact's bytes as ``_artifact`` wrote them, by path, until
# ``_write_manifest`` takes it
_DIGESTS: dict[Path, str] = {}


@contextmanager
def _artifact(path: Path):
    """Yields write(text) for the file at ``path``: the text goes to it
    UTF-8 encoded, untranslated, and into its sha256 in ``_DIGESTS``."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        def write(text: str):
            data = text.encode()
            digest.update(data)
            handle.write(data)

        yield write
    _DIGESTS[path] = digest.hexdigest()


def _write_json(path: Path, payload: dict):
    with _artifact(path) as write:
        write(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    files: list[Path]):
    """The manifest of a run whose artifacts ``files`` were each written by
    ``_write_csv`` or ``_write_json``, hashed from the bytes written."""
    manifest = {
        "command": command,
        "config": config,
        "package": "diracsea",
        "version": __version__,
        "seed": seed,
        "files": {f.name: _DIGESTS.pop(f) for f in sorted(files)},
    }
    _write_json(out_dir / "manifest.json", manifest)
    del _DIGESTS[out_dir / "manifest.json"]


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _section(config: dict, key: str, default=None) -> dict | None:
    """An optional config section (``default`` if absent or null), an object."""
    value = config.get(key)
    if value is None:
        return default
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


_REQUIRED = object()


def _number(section: dict, key: str, default=_REQUIRED) -> float:
    """``section[key]`` (``default`` if absent) as a finite JSON number: no
    bool, string, NaN, infinity or integer too large for a float.  A key
    without a default is required."""
    value = section.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"config is missing the key {key!r}")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, default=_REQUIRED,
             minimum: float = -np.inf, maximum: float = np.inf) -> int:
    """An integral ``_number`` (9.0 reads as 9) in [minimum, maximum]."""
    value = _number(section, key, default)
    if not (value.is_integer() and minimum <= value <= maximum):
        raise ConfigError(f"{key} must be an integer in [{minimum}, {maximum}], "
                          f"got {value!r}")
    return int(value)


@contextmanager
def _config_error(prefix: str = ""):
    """A ValueError raised inside, a value the package refuses, goes on as a
    ConfigError with the same message after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _basis_from(config: dict):
    lattice = _section(config, "lattice", {})
    values = (_number(lattice, "L"), _integer(lattice, "N"),
              _number(lattice, "m"), _number(lattice, "q", 1.0))
    with _config_error():
        return build_basis(LatticeConfig(*values))


def _vacuum_from(config: dict) -> VacuumSpec:
    kind = config.get("vacuum", "standard")
    width = _number(config, "delta_Ew") if kind == "band" else None
    with _config_error("invalid vacuum spec: "):
        return VacuumSpec(kind, width)


def _default_dt(basis) -> float:
    return 0.01 * 2.0 * np.pi / basis.max_energy


# ----------------------------------------------------------------- check-basis

def run_check_basis(config: dict, out_dir: Path, seed: int) -> list[Path]:
    # Imported here, not at module level: checks and fock, which only
    # check-basis and verify use, would add their import time to every command.
    from . import checks

    basis = _basis_from(config)
    rng = np.random.default_rng(seed)
    report = {
        "orthonormality_max_err": checks.orthonormality_defect(basis),
        "completeness_max_err": checks.completeness_defect(basis),
        "eigenrelation_max_err": checks.eigenrelation_defect(basis),
        "hermiticity_max_err": checks.hermiticity_defect(basis, rng),
        "continuity_pair_max_err": continuity_pair_residual(basis),
    }
    path = out_dir / "check_basis.json"
    _write_json(path, report)
    if not all(value <= 1e-12 for value in report.values()):
        raise InvariantError(
            f"basis invariant exceeded 1e-12: {json.dumps(report)}")
    return [path]


# ------------------------------------------------------------------- schwinger

def run_schwinger(config: dict, out_dir: Path, seed: int) -> list[Path]:
    del seed
    basis = _basis_from(config)
    spec = _vacuum_from(config)
    cfg = basis.config
    with _config_error():
        kernel = sw.commutator_kernel(basis, spec)
        divergence = sw.divergence_of_kernel(kernel)
    width = spec.band_width if spec.kind == "band" else ""
    values = kernel.values

    # translation covariance: cell [j, k] of either matrix is its profile,
    # column 0, at the cell's grid separation, so each value column is
    # formatted N times, and so are j, k, x and y, from the N sites
    profile, div_profile = values[:, 0], divergence[:, 0]
    sites = np.arange(cfg.site_count)
    j, k = np.divmod(np.arange(cfg.site_count**2), cfg.site_count)  # row-major
    sep = sw.over_pairs(sites).ravel()
    csv_path = out_dir / "schwinger.csv"
    _write_csv(csv_path, ["j", "k", "x", "y", "re_I", "im_I", "re_divI",
                          "im_divI", "vacuum", "N", "m", "q", "delta_Ew"],
               [(sites, j), (sites, k), (cfg.grid, j), (cfg.grid, k),
                (profile.real, sep), (profile.imag, sep),
                (div_profile.real, sep), (div_profile.imag, sep), spec.kind,
                cfg.site_count, cfg.mass, cfg.charge, width])

    summary = {
        "re_I_max": float(np.abs(values.real).max()),
        "abs_I_max": float(np.abs(values).max()),
        "div_I_diag_imag": float(np.diag(divergence).imag.min()),
    }
    if spec.kind == "standard":
        closed = sw.divergence_diag_closed_form(basis)
        summary["div_I_diag_imag_closed_form"] = float(closed[0].imag)
        summary["div_paths_rel_err"] = sw.divergence_paths_error(divergence, closed)
    else:
        summary["I_diag_abs_max"] = float(np.abs(np.diag(values)).max())
        summary["f2_residual"] = sw.f2_identity_check(basis, spec)
    summary_path = out_dir / "schwinger_summary.json"
    _write_json(summary_path, summary)

    if not summary["re_I_max"] <= 1e-12:
        raise InvariantError("kernel developed a real part above 1e-12")
    if spec.kind == "standard":
        if cfg.charge != 0 and not summary["div_I_diag_imag"] < 0:
            raise InvariantError("coincident-point divergence lost its sign")
        if not summary["div_paths_rel_err"] <= 1e-10:
            raise InvariantError("divergence paths disagree beyond 1e-10")
    else:
        if not summary["I_diag_abs_max"] <= 1e-12:
            raise InvariantError("band kernel nonzero at coincident points")
        if not summary["f2_residual"] <= 1e-12:
            raise InvariantError("intra-band identity residual above 1e-12")
    return [csv_path, summary_path]


# ---------------------------------------------------------------------- evolve

def _packet_from(config: dict, state):
    packet = _section(config, "packet")
    if packet is None:
        return state
    p_center, sigma = _number(packet, "p_center"), _number(packet, "sigma")
    with _config_error():
        return ev.excite_wavepacket(state, p_center, sigma)


def _window_from(config: dict, basis):
    t_start = _number(config, "t_a", 0.0)
    t_stop = _number(config, "t_b", t_start + 10.0 * _default_dt(basis) * 100)
    if not t_stop > t_start:
        raise ConfigError("need t_b > t_a")
    return t_start, t_stop


def _stepping_from(config: dict, basis, t_start: float, t_stop: float):
    """Time step and sample stride, if evolution accepts them for the window."""
    dt = _number(config, "dt", _default_dt(basis))
    stride = _integer(config, "sample_stride", 1, minimum=1)
    with _config_error():
        ev.step_count(t_start, t_stop, dt, stride)
    return dt, stride


def _kick_recipe(kick: dict) -> None:
    """ConfigError unless the kick's recipe is a ``density_rate`` token."""
    recipe = kick.get("recipe", "density_rate")
    if recipe in REFUSED_RECIPES:
        raise ConfigError(
            f"kick recipe {recipe!r} is refused: it builds chi from the "
            "continuity residual, which on this spectral lattice measures "
            "only aliasing at the momentum cutoff, so the kick vanishes")
    if recipe not in KICK_RECIPES:
        raise ConfigError(f"unknown kick recipe {recipe!r}")


def _trajectory_files(out_dir: Path, tag: str, traj, potential) -> list[Path]:
    rate_series = ev.rate_identity_series(traj, potential)
    grid = traj.basis.config.grid
    i, j = np.divmod(np.arange(traj.density.size), len(grid))  # row-major
    snap_path = out_dir / f"{tag}_snapshots.csv"
    run_path = out_dir / f"{tag}_series.csv"
    _write_csv(snap_path, ["t", "x", "rho_e", "J_e"],
               [(traj.times, i), (grid, j), traj.density.ravel(),
                traj.current.ravel()])
    _write_csv(run_path, ["t", "xi0", "rate_residual", "max_L"],
               [traj.times, traj.free_energy, rate_series,
                np.abs(traj.residual).max(axis=1)])
    return [snap_path, run_path]


def run_evolve(config: dict, out_dir: Path, seed: int) -> list[Path]:
    del seed
    basis = _basis_from(config)
    spec = _vacuum_from(config)
    t_start, t_stop = _window_from(config, basis)
    dt, stride = _stepping_from(config, basis, t_start, t_stop)
    samples = ev.step_count(t_start, t_stop, dt, stride)[0] // stride + 1
    if samples < 3:
        raise ConfigError(f"evolve records {samples} samples and needs at least "
                          "three; lower dt or sample_stride")
    state = _packet_from(config, ev.vacuum_state(basis, spec, time=t_start))
    if state.orbital_count == 0:
        raise ConfigError("evolve needs an orbital: a packet or a filled vacuum")

    kick = _section(config, "kick")
    if kick is None:
        potential = ev.Potential(basis.config)
    else:
        _kick_recipe(kick)
        strength = _number(kick, "f")
        free_traj, _ = ev.run_trajectory(state, ev.Potential(basis.config),
                                         t_stop, dt, stride)
        potential = ev.build_kick_chi(free_traj, strength, t_start, t_stop)

    with _config_error():  # a kick too strong to evolve
        traj, final = ev.run_trajectory(state, potential, t_stop, dt, stride)
    if not final.gram_defect() <= 1e-10:
        raise InvariantError("orbital orthonormality drifted above 1e-10")
    return _trajectory_files(out_dir, "evolve", traj, potential)


# -------------------------------------------------------------- extract-energy

def run_extract_energy(config: dict, out_dir: Path, seed: int) -> list[Path]:
    del seed
    basis = _basis_from(config)
    spec = _vacuum_from(config)
    t_start, t_stop = _window_from(config, basis)
    dt, stride = _stepping_from(config, basis, t_start, t_stop)
    state = _packet_from(config, ev.vacuum_state(basis, spec, time=t_start))
    if state.orbital_count == len(state.reference):
        raise ConfigError("extract-energy needs a packet on top of the vacuum")
    kick = _section(config, "kick", {})
    _kick_recipe(kick)
    strengths = kick.get("f", [0.0, 0.01, 0.02, 0.03, 0.04])
    if not isinstance(strengths, list):
        raise ConfigError("extract-energy needs a list of kick strengths 'f'")
    strengths = [_number({"f": f}, "f") for f in strengths]
    # regress only over the small-f head of the sweep; large strengths leave
    # the linear-response regime by design (the saturation diagnostic)
    small_count = _integer(config, "small_f_count", 5, minimum=1)
    order = np.argsort(strengths)
    head = order[:max(2, min(small_count, len(order)))]
    if len(set(np.take(strengths, head))) < 2:
        raise ConfigError("the small_f_count smallest kick strengths need two "
                          "distinct values to fit a slope")

    free_traj, _ = ev.run_trajectory(state, ev.Potential(basis.config),
                                     t_stop, dt, stride)
    i_stop = free_traj.index_of(t_stop)
    # the slope of xi0_2_predicted in f: -a sum (d rho/dt)(t_b) chi_1(t_b),
    # chi_1 the kick at f = 1
    unit = ev.build_kick_chi(free_traj, 1.0, t_start, t_stop)
    slope_predicted = -basis.config.spacing * float(
        np.sum(free_traj.density_rate[i_stop] * unit.chi(t_stop)))
    if abs(slope_predicted) < 1e-14:
        raise InvariantError("the density rate or the kick's chi vanishes "
                             "at t_b; the kick has nothing to extract")

    # every nonzero strength advances in one batch against the free branch
    kicked = [f for f in strengths if f != 0.0]
    with _config_error():  # a kick too strong to evolve
        reports = ev.gauge_pair_sweep(state, unit, kicked, free_traj, dt, stride)
    # one row per strength; f = 0 rows repeat the free branch
    xi_free = free_traj.free_energy[i_stop]
    table = np.tile([0.0, xi_free, xi_free, xi_free, 0.0, 0.0, 0.0],
                    (len(strengths), 1))
    table[np.array(strengths) != 0.0] = np.reshape([
        (f, r.free_energy_free_tb, r.free_energy_gauge_tb, r.predicted_gauge_tb,
         r.max_density_deviation, r.max_current_deviation,
         r.predicted_gauge_tb - r.predicted_gauge_tb_branch2)
        for f, r in zip(kicked, reports)], (-1, 7))
    csv_path = out_dir / "extract_energy.csv"
    _write_csv(csv_path, ["f", "xi0_1_tb", "xi0_2_tb", "xi0_2_predicted",
                          "max_rho_dev", "max_J_dev", "prediction_gap"],
               list(table.T))

    strengths_arr, energies = table[:, 0], table[:, 2]
    slope_measured = float(np.polyfit(strengths_arr[head], energies[head], 1)[0])
    occ_energies = np.sort(basis.eigenvalue)
    floor = float(np.sum(occ_energies[:state.orbital_count])
                  - state.subtractions.xi)
    summary = {
        "slope_measured": slope_measured,
        "slope_predicted": slope_predicted,
        "slope_rel_err": abs(slope_measured - slope_predicted)
                         / abs(slope_predicted),
        "small_f_values": [float(strengths_arr[i]) for i in head],
        "monotone_decreasing_small_f": bool(
            np.all(np.diff(energies[order][:len(head)]) < 0)),
        "free_energy_floor": floor,
        "min_free_energy": float(energies.min()),
    }
    summary_path = out_dir / "extract_energy_summary.json"
    _write_json(summary_path, summary)
    return [csv_path, summary_path]


# -------------------------------------------------------------------- response

def run_response(config: dict, out_dir: Path, seed: int) -> list[Path]:
    del seed
    basis = _basis_from(config)
    spec = _vacuum_from(config)
    chi_cfg = _section(config, "chi", {})
    harmonic = _integer(chi_cfg, "k", 1)
    amplitude = _number(chi_cfg, "amplitude", 0.3)
    t_start, t_stop = _window_from(config, basis)
    n_times = _integer(config, "n_times", 5, minimum=1, maximum=10**4)
    smearing = config.get("smearing", "fourier")
    if smearing not in rs.SMEARINGS:
        raise ConfigError(
            f"smearing must be one of {rs.SMEARINGS}, got {smearing!r}")
    with _config_error():
        rs.kubo_interval_count(basis, t_stop - t_start)  # the longest quadrature
        commutator = sw.commutator_kernel(basis, spec)

    cfg = basis.config
    with _config_error(), np.errstate(over="ignore", invalid="ignore"):
        # ``PureGaugePotential`` refuses a chi past the float range, unwarned
        profile = amplitude * np.cos(2.0 * np.pi * harmonic * cfg.grid
                                     / cfg.box_length)
        potential = ev.PureGaugePotential(cfg, profile, 1.0, t_start, t_stop)
    kernel = rs.vacuum_response_kernel(basis, spec)

    times = np.linspace(t_start, t_stop, n_times + 1)[1:]
    direct = rs.first_order_current(kernel, potential, times, t_start,
                                    smearing=smearing).ravel()
    contraction = np.concatenate([rs.gauge_variation_response(commutator,
                                                              potential, t)
                                  for t in times])
    width = spec.band_width if spec.kind == "band" else ""
    i, j = np.divmod(np.arange(direct.size), cfg.site_count)  # row-major
    csv_path = out_dir / "response.csv"
    _write_csv(csv_path, ["t", "x", "J1_direct", "J1_gauge_variation",
                          "vacuum", "N", "delta_Ew"],
               [(times, i), (cfg.grid, j), direct, contraction, spec.kind,
                cfg.site_count, width])
    summary_path = out_dir / "response_summary.json"
    _write_json(summary_path, {
        "max_path_difference": float(np.abs(direct - contraction).max()),
        "smearing": smearing})
    return [csv_path, summary_path]


# ---------------------------------------------------------------------- verify

def run_verify(config: dict, out_dir: Path, seed: int) -> list[Path]:
    from . import checks  # see run_check_basis
    del config
    results = checks.run_verification(seed=seed)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    path = out_dir / "verify.json"
    _write_json(path, {
        "checks": [
            {"name": r.name, "value": r.value, "tolerance": r.tolerance,
             "passed": r.passed}
            for r in results
        ]
    })
    failed = [r for r in results if not r.passed]
    if failed:
        raise InvariantError(f"{len(failed)} verification checks failed")
    return [path]


# ----------------------------------------------------------------------- sweep

RUNNERS = {}


def _set_by_path(config: dict, dotted: str, value):
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(
                f"sweep parameter {dotted!r} descends into the scalar {key!r}")
    node[keys[-1]] = value


def _sweep_point(args) -> dict | None:
    """Error report of one point run like its own subcommand, None if it ran."""
    experiment, config, out_dir, seed = args
    out_path = Path(out_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        files = RUNNERS[experiment](config, out_path, seed)
        _write_manifest(out_path, experiment, config, seed, files)
    except Exception as exc:  # reported in the index; the other points run
        return _failure(exc)
    return None


def run_sweep(config: dict, out_dir: Path, seed: int, jobs: int) -> list[Path]:
    """Run every point, index each one's exit code, then fail with the worst.

    Errors in the sweep section itself are config errors before any point
    runs.
    """
    sweep = _section(config, "sweep", {})
    experiment = sweep.get("experiment")
    parameter = sweep.get("parameter")
    values = sweep.get("values")
    if not isinstance(experiment, str) or experiment not in RUNNERS \
            or experiment == "sweep":
        raise ConfigError(f"cannot sweep unknown experiment {experiment!r}")
    if not isinstance(parameter, str):
        raise ConfigError(
            f"sweep parameter must be a dotted path, got {parameter!r}")
    if not isinstance(values, list):
        raise ConfigError(f"sweep values must be a list, got {values!r}")

    tasks = []
    for i, value in enumerate(values):
        point = copy.deepcopy(config)
        point.pop("sweep", None)
        _set_by_path(point, parameter, value)
        point_dir = out_dir / f"point_{i:03d}"
        tasks.append((experiment, point, str(point_dir), seed))

    # the executor forks all its workers at once, so ask for no idle ones
    workers = min(jobs, len(tasks), ev._usable_cpus())
    if workers > 1:
        import concurrent.futures  # not at module level: it loads logging

        # each worker's kicked runs then go in turn, unsplit (``ev.share_cpus``)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=ev.share_cpus,
                initargs=(workers,)) as pool:
            outcomes = list(pool.map(_sweep_point, tasks))
    else:
        outcomes = [_sweep_point(task) for task in tasks]

    index_path = out_dir / "sweep_index.json"
    _write_json(index_path, {
        "experiment": experiment,
        "parameter": parameter,
        "values": values,
        "points": [Path(t[2]).name for t in tasks],
        "exit_codes": [error["exit_code"] if error else 0 for error in outcomes],
        "errors": outcomes,
    })
    failed = [f"{Path(task[2]).name} (exit {error['exit_code']}: {error['error']})"
              for task, error in zip(tasks, outcomes) if error]
    if failed:
        raise SweepError(f"{len(failed)} of {len(tasks)} sweep points failed: "
                         + "; ".join(failed),
                         max(error["exit_code"] for error in outcomes if error))
    return [index_path]


RUNNERS.update({
    "check-basis": run_check_basis,
    "schwinger": run_schwinger,
    "evolve": run_evolve,
    "extract-energy": run_extract_energy,
    "response": run_response,
    "verify": run_verify,
})


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a config error, so that it exits 1 with one
    JSON line instead of printing usage text and exiting 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="diracsea",
        description="Batch experiments on Dirac sea vacua: mode-basis checks, "
                    "commutator kernels, gauge-kick evolution, linear response.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("check-basis", "verify mode-basis identities for a lattice config"),
        ("schwinger", "emit the commutator kernel and its divergence as CSV"),
        ("evolve", "run one evolution branch and emit observables"),
        ("extract-energy", "run the gauge-kick energy-extraction sweep"),
        ("response", "compare the two first-order response paths"),
        ("verify", "run the oracle verification suite"),
        ("sweep", "run any experiment over a parameter grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON scenario config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized test vectors")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the sweep points, at "
                                "most one per point and per CPU")
    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "sweep" and args.jobs < 1:
            parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
        if args.seed < 0:
            parser.error(f"argument --seed: must be non-negative, got {args.seed}")
        config = {} if args.command == "verify" and args.config is None \
            else _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            files = run_sweep(config, out_dir, args.seed, args.jobs)
        else:
            files = RUNNERS[args.command](config, out_dir, args.seed)
        _write_manifest(out_dir, args.command, config, args.seed, files)
    except Exception as exc:  # catch-all: one JSON line, never a raw traceback
        report = _failure(exc)
        print(json.dumps(report), file=sys.stderr)
        return report["exit_code"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
