"""Run one fixed set of CLI commands on two checkouts and compare their outputs.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each command runs in a fresh ``python3 -m diracsea.cli`` process with
``PYTHONPATH=<root>/src`` and ``OPENBLAS_NUM_THREADS=1``, once per checkout,
on the same config files (the shipped ones are read from PARENT_ROOT).  The
report gives each command's exit code on both sides, then every output file,
manifests included, as "identical" or, for a CSV that differs, the largest
absolute difference per column.  Exit status 0 only when every file is
byte-identical on both sides and every exit code matches; 1 otherwise.

The set: the shipped ``extract-energy``, ``response`` and Schwinger
``sweep`` configs; ``verify``; ``check-basis`` at N = 101; three kicked
``evolve`` runs on the shipped packet at sample stride 5 (N = 81 over 40
steps at f = 0.02 and at f = 2, where the midpoint step's error is
largest, and N = 201 over 20 steps at f = 0.02); a small kicked
``evolve`` at N = 27 (f = 0.3, window [0, 1], stride 10); and the kernel
sizes: the Schwinger sweep over N = 9, 15, 21, 27, 51, 101, 151 on the
filled sea, ``schwinger`` on the coupled band (half the headroom below the
cutoff) at N = 151, and the shipped ``response`` at N = 41 on the filled
sea and on the coupled band.  ``tools/step_accuracy.py`` reruns the
evolving ones against a finer step.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _kicked_evolve(shipped: dict, n_sites: int, steps: int,
                   strength: float = 0.02) -> dict:
    """A density-rate kicked ``evolve`` of ``steps`` steps at the default dt."""
    lattice = dict(shipped["lattice"], N=n_sites)
    p_max = math.pi * (n_sites - 1) / lattice["L"]  # largest |p| = 2 pi k / L
    dt = 0.01 * 2.0 * math.pi / math.hypot(p_max, lattice["m"])
    return {"lattice": lattice, "vacuum": "standard",
            "packet": shipped["packet"], "t_a": 0.0, "t_b": steps * dt,
            "dt": dt, "sample_stride": 5,
            "kick": {"recipe": "density_rate", "f": strength}}


def _coupled_band(config: dict, n_sites: int) -> dict:
    """``config`` at N = n_sites on the band half the headroom wide."""
    lattice = dict(config["lattice"], N=n_sites)
    p_max = math.pi * (n_sites - 1) / lattice["L"]
    headroom = math.hypot(p_max, lattice["m"]) - lattice["m"]
    return dict(config, lattice=lattice, vacuum="band", delta_Ew=0.5 * headroom)


def commands(parent_root: Path) -> dict[str, tuple[str, dict | None]]:
    """Name -> (subcommand, config or None) of every command in the set."""
    shipped = {name: json.loads((parent_root / "configs" / f"{name}.json").read_text())
               for name in ("extract_energy", "response_paths", "schwinger_sweep")}
    energy = shipped["extract_energy"]
    small_kick = {"lattice": energy["lattice"], "vacuum": "standard",
                  "packet": energy["packet"], "t_a": 0.0, "t_b": 1.0,
                  "sample_stride": 10,
                  "kick": {"recipe": "density_rate", "f": 0.3}}
    schwinger = shipped["schwinger_sweep"]
    kernel_sweep = dict(schwinger, sweep=dict(
        schwinger["sweep"], values=[9, 15, 21, 27, 51, 101, 151]))
    response = shipped["response_paths"]
    sea_n41 = dict(response, lattice=dict(response["lattice"], N=41),
                   vacuum="standard")
    return {
        "extract-energy": ("extract-energy", energy),
        "response": ("response", shipped["response_paths"]),
        "schwinger-sweep": ("sweep", shipped["schwinger_sweep"]),
        "verify": ("verify", None),
        "check-basis-N101": ("check-basis",
                             {"lattice": dict(energy["lattice"], N=101)}),
        "evolve-kick-N81": ("evolve", _kicked_evolve(energy, 81, 40)),
        "evolve-kick-N81-f2": ("evolve", _kicked_evolve(energy, 81, 40, 2.0)),
        "evolve-kick-N201": ("evolve", _kicked_evolve(energy, 201, 20)),
        "evolve-kick-N27": ("evolve", small_kick),
        "schwinger-sweep-N151": ("sweep", kernel_sweep),
        "schwinger-band-N151": ("schwinger", _coupled_band(
            {"lattice": schwinger["lattice"]}, 151)),
        "response-sea-N41": ("response", sea_n41),
        "response-band-N41": ("response", _coupled_band(response, 41)),
    }


def run(root: Path, subcommand: str, config: Path | None, out: Path) -> int:
    """Exit code of one CLI command in a fresh process on ``root``'s source."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "diracsea.cli", subcommand, "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _column_differences(left: Path, right: Path) -> str:
    """Largest absolute difference per column of two CSVs, or why there is none."""
    with open(left, newline="") as a, open(right, newline="") as b:
        rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "headers differ"
    if len(rows_a) != len(rows_b):
        return f"row counts differ ({len(rows_a) - 1} against {len(rows_b) - 1})"
    parts = []
    for j, name in enumerate(rows_a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        try:  # equal cells, NaN on both sides among them, differ by 0
            gaps = [abs(float(x) - float(y)) for x, y in pairs if x != y]
            gap = math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)
            parts.append(f"{name} {gap:.3g}")
        except ValueError:  # a text column
            parts.append(f"{name} {sum(x != y for x, y in pairs)} cells differ")
    return "max |diff| per column: " + ", ".join(parts)


def compare(left: Path, right: Path) -> list[tuple[str, bool, str]]:
    """(relative path, identical, description) of every file on either side."""
    names = sorted({p.relative_to(left) for p in left.rglob("*") if p.is_file()}
                   | {p.relative_to(right) for p in right.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            out.append((str(name), False, "only in " + ("parent" if a.is_file()
                                                      else "change")))
        elif a.read_bytes() == b.read_bytes():
            out.append((str(name), True, "identical"))
        elif name.suffix == ".csv":
            out.append((str(name), False, _column_differences(a, b)))
        else:
            out.append((str(name), False, "differs"))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT",
              file=sys.stderr)
        return 2
    roots = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    same = True
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for name, (subcommand, config) in commands(roots["parent"]).items():
            config_path = None
            if config is not None:
                config_path = work / f"{name}.json"
                config_path.write_text(json.dumps(config, indent=1))
            codes = {side: run(root, subcommand, config_path, work / side / name)
                     for side, root in roots.items()}
            match = codes["parent"] == codes["change"]
            same &= match
            print(f"{name}: exit {codes['parent']} (parent), {codes['change']} "
                  f"(change){'' if match else '  EXIT CODES DIFFER'}")
            for file, identical, text in compare(work / "parent" / name,
                                                 work / "change" / name):
                same &= identical
                print(f"  {file}: {text}")
    print("all outputs identical" if same else "OUTPUTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
