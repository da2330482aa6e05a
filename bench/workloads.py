"""The benchmark's four workloads: their operations and output checks.

An operation is one call into diracsea's public entry points: ``cli.main``
for a subcommand, or a ``checks`` function for the M = 14 Fock oracle, looked
up on its module at call time so that a traced pass reaches the wrapped
function.  Each runs in its own output directory; its check reads what it
wrote and returns the problems found, comparing against ``reference`` (numpy
only) or against properties the method must have, never against stored
program output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import diracsea.lattice
import diracsea.vacua
from diracsea import checks, cli

import reference as ref

# Lattice sizes of the extended cutoff sweep: the shipped sweep's points,
# then up to N = 151 where the Python mode-pair loops and CSV rows dominate.
SCHWINGER_SIZES = [9, 15, 21, 27, 51, 101, 151]
RESPONSE_SIZE = 41
# (N, time steps) of the kicked evolve runs: few, large steps.
KICK_LARGE = [(81, 40), (201, 20)]
KICK_STRENGTH = 0.02
SAMPLE_STRIDE = 5
ORACLE_SIZE = 7  # M = 2N = 14 modes, the Fock oracle's cap


@dataclass
class Op:
    """``run(out_dir)`` returns (exit code, payload); ``check`` lists problems."""

    name: str
    run: Callable[[Path], tuple[int, object]]
    check: Callable[[Path, object], list[str]]


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    columns = {}
    for i, name in enumerate(rows[0]):
        values = [row[i] for row in rows[1:]]
        try:
            columns[name] = np.array(values, dtype=float)
        except ValueError:
            columns[name] = np.array(values)
    return columns


def _read_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _within(value, target, tol) -> bool:
    """|value - target| <= tol, false on NaN."""
    return bool(abs(value - target) <= tol)


def _max_energy(lattice: dict) -> float:
    return float(np.hypot(ref.momenta(lattice["L"], lattice["N"]), lattice["m"]).max())


class Workloads:
    """Builds operations whose configs live in ``work``; they run with ``work``
    as the current directory and write under it."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed

    def build(self, name: str) -> list[Op]:
        return {"kick-sweep": self.kick_sweep, "kick-large": self.kick_large,
                "kernels": self.kernels, "oracle": self.oracle}[name]()

    # ------------------------------------------------------------ helpers

    def _shipped(self, name: str) -> dict:
        return _read_json(self.root / "configs" / name)

    def _cli_op(self, name: str, command: str, config: dict | None, check,
                extra=()) -> Op:
        argv = [command, "--seed", str(self.seed), *extra]
        if config is not None:
            path = self.work / f"{name.replace(' ', '_').replace('=', '')}.json"
            path.write_text(json.dumps(config, indent=1))
            argv += ["--config", path.name]  # operations run from ``work``

        def run(out: Path):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv + ["--out", str(out)])
            return code, printed.getvalue()

        return Op(name, run, check)

    # ---------------------------------------------------------- kick-sweep

    def kick_sweep(self) -> list[Op]:
        config = self._shipped("extract_energy.json")
        mass = config["lattice"]["m"]
        packet_energy = ref.packet_energy(config["lattice"], config["packet"])
        slope = ref.free_branch_slope(config)
        small_count = int(config.get("small_f_count", 5))

        def check(out: Path, _):
            rows = _read_csv(out / "extract_energy.csv")
            summary = _read_json(out / "extract_energy_summary.json")
            problems = []
            if len(rows["f"]) != len(config["kick"]["f"]):
                problems.append("extract-energy wrote the wrong number of strengths")
            if not np.all(np.abs(rows["xi0_1_tb"] - packet_energy) <= 1e-8):
                problems.append("free-branch xi0 differs from the packet energy")
            if not _within(summary["slope_predicted"], slope, 1e-8 * abs(slope)):
                problems.append("slope_predicted differs from the reference slope")
            if not summary["slope_rel_err"] <= 0.05:
                problems.append("slope_rel_err above 0.05")
            order = np.argsort(rows["f"])
            head = rows["xi0_2_tb"][order][:max(2, small_count)]
            if not np.all(np.diff(head) < 0):
                problems.append("small-f energies do not fall monotonically")
            if not np.all(rows["xi0_2_tb"] >= mass):
                problems.append("a kicked energy fell below m")
            return problems

        return [self._cli_op("extract-energy", "extract-energy", config, check)]

    # ---------------------------------------------------------- kick-large

    def kick_large(self) -> list[Op]:
        shipped = self._shipped("extract_energy.json")
        ops = []
        for n_sites, steps in KICK_LARGE:
            lattice = dict(shipped["lattice"], N=n_sites)
            dt = 0.01 * 2.0 * np.pi / _max_energy(lattice)
            config = {"lattice": lattice, "vacuum": "standard",
                      "packet": shipped["packet"], "t_a": 0.0,
                      "t_b": steps * dt, "dt": dt,
                      "sample_stride": SAMPLE_STRIDE,
                      "kick": {"recipe": "density_rate", "f": KICK_STRENGTH}}
            ops.append(self._cli_op(f"evolve N={n_sites}", "evolve", config,
                                    self._evolve_check(lattice, config, steps)))
        return ops

    @staticmethod
    def _evolve_check(lattice: dict, config: dict, steps: int):
        packet_energy = ref.packet_energy(lattice, config["packet"])
        spacing = lattice["L"] / lattice["N"]
        samples = steps // SAMPLE_STRIDE + 1

        def check(out: Path, _):
            series = _read_csv(out / "evolve_series.csv")
            snaps = _read_csv(out / "evolve_snapshots.csv")
            problems = []
            if len(series["t"]) != samples:
                problems.append(f"expected {samples} samples, got {len(series['t'])}")
            charge = spacing * snaps["rho_e"].reshape(-1, lattice["N"]).sum(axis=1)
            if not np.all(np.abs(charge - lattice["q"]) <= 1e-9):
                problems.append("a * sum_j rho_e differs from q")
            if not _within(series["xi0"][0], packet_energy, 1e-8):
                problems.append("first xi0 differs from the packet energy")
            if not series["xi0"][-1] < packet_energy:
                problems.append("the kick did not lower xi0")
            return problems

        return check

    # ------------------------------------------------------------- kernels

    def kernels(self) -> list[Op]:
        base = self._shipped("schwinger_sweep.json")
        base.pop("sweep")
        sweep = dict(base, sweep={"experiment": "schwinger",
                                  "parameter": "lattice.N",
                                  "values": SCHWINGER_SIZES})
        ops = [self._cli_op("schwinger sweep", "sweep", sweep,
                            self._sweep_check(base["lattice"]),
                            extra=("--jobs", "1"))]
        for n_sites in SCHWINGER_SIZES:
            lattice = dict(base["lattice"], N=n_sites)
            config = {"lattice": lattice, "vacuum": "band",
                      "delta_Ew": self._half_headroom(lattice)}
            ops.append(self._cli_op(f"schwinger band N={n_sites}", "schwinger",
                                    config, self._band_check))

        shipped = self._shipped("response_paths.json")
        lattice = dict(shipped["lattice"], N=RESPONSE_SIZE)
        sea = dict(shipped, lattice=lattice, vacuum="standard")
        band = dict(sea, vacuum="band", delta_Ew=self._half_headroom(lattice))
        sea_peak = {}

        def check_sea(out: Path, _):
            problems = self._response_check(out)
            sea_peak["value"] = np.abs(_read_csv(out / "response.csv")["J1_direct"]).max()
            if not sea_peak["value"] > 1e-5:
                problems.append("filled-sea response vanishes")
            return problems

        def check_band(out: Path, _):
            problems = self._response_check(out)
            peak = np.abs(_read_csv(out / "response.csv")["J1_direct"]).max()
            if not peak <= 1e-8 * sea_peak.pop("value", np.nan):
                problems.append("band-vacuum response not below 1e-8 of the filled sea's")
            return problems

        ops.append(self._cli_op("response filled sea", "response", sea, check_sea))
        ops.append(self._cli_op("response band", "response", band, check_band))
        return ops

    @staticmethod
    def _half_headroom(lattice: dict) -> float:
        return 0.5 * (_max_energy(lattice) - lattice["m"])

    @staticmethod
    def _sweep_check(lattice: dict):
        def check(out: Path, _):
            index = _read_json(out / "sweep_index.json")
            points = sorted(out.glob("point_*"))
            problems = []
            if index["values"] != SCHWINGER_SIZES or len(points) != len(SCHWINGER_SIZES):
                problems.append("sweep did not write one point per cutoff")
            for n_sites, point in zip(SCHWINGER_SIZES, points):
                summary = _read_json(point / "schwinger_summary.json")
                target = ref.coincident_divergence(dict(lattice, N=n_sites)).imag
                if not (summary["re_I_max"] <= 1e-12
                        and summary["div_I_diag_imag"] < 0
                        and summary["div_paths_rel_err"] <= 1e-10):
                    problems.append(f"schwinger gate failed at N={n_sites}")
                if not _within(summary["div_I_diag_imag"], target, 1e-10 * abs(target)):
                    problems.append(f"divergence differs from the reference at N={n_sites}")
            return problems

        return check

    @staticmethod
    def _band_check(out: Path, _):
        summary = _read_json(out / "schwinger_summary.json")
        if not (summary["re_I_max"] <= 1e-12 and summary["I_diag_abs_max"] <= 1e-12
                and summary["f2_residual"] <= 1e-12):
            return ["band schwinger gate failed"]
        return []

    @staticmethod
    def _response_check(out: Path) -> list[str]:
        if not _read_json(out / "response_summary.json")["max_path_difference"] <= 1e-6:
            return ["response paths differ by more than 1e-6"]
        return []

    # -------------------------------------------------------------- oracle

    def oracle(self) -> list[Op]:
        def check_verify(out: Path, printed: str):
            lines = printed.splitlines()
            recorded = _read_json(out / "verify.json")["checks"]
            if not lines or len(lines) != len(recorded):
                return ["verify printed no line per check"]
            if not all(line.startswith("ok ") for line in lines):
                return ["a verify line does not read ok"]
            return []

        def oracle_op(name: str, function: str, tolerance: float) -> Op:
            def run(_: Path):
                basis = diracsea.lattice.build_basis(
                    diracsea.lattice.LatticeConfig(2.0 * np.pi, ORACLE_SIZE, 1.0))
                vacuum = diracsea.vacua.VacuumSpec("standard")
                return 0, getattr(checks, function)(basis, vacuum)

            def check(_: Path, defect):
                return [] if defect <= tolerance else [f"{name} defect {defect:.3e}"]

            return Op(name, run, check)

        return [
            self._cli_op("verify", "verify", None, check_verify),
            oracle_op("oracle commutator M=14", "oracle_commutator_defect", 1e-10),
            oracle_op("oracle subtractions M=14", "oracle_subtraction_defect", 1e-12),
        ]
