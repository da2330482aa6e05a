"""Step error of two checkouts against a finer step, per output column.

    python3 tools/step_accuracy.py PARENT_ROOT CHANGE_ROOT

For every evolving command of ``tools/same_outputs.py`` (``evolve`` and
``extract-energy``), each checkout runs the command at its configured step,
and CHANGE_ROOT runs it again at a quarter of the step the run takes
(``evolution.step_count``'s adjusted dt) with four times the sample stride,
so the reference is sampled at the same times.  The report gives, for every
numeric column of every CSV and every number of the summary JSON, the
largest absolute difference of each side from that reference.

A difference of two errors is resolved only beyond the reference's own
error, so CHANGE_ROOT also runs at an eighth of the step (eight times the
stride), and the largest difference of the two references is reported as
the reference's uncertainty u.  A value is flagged "LARGER" where the
change's error exceeds the parent's by more than u and either is at least
1e-12.  Exit status 0 only when no value is flagged, every command exits 0
and each reference's sample times match the change's within 1e-12; 1
otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from same_outputs import commands, run

# Errors below this are not compared, and sample times this close match.
FLOOR = 1e-12


def _step(config: dict) -> tuple[float, int]:
    """The step a run of ``config`` takes and its sample stride: the
    configured dt (or the default, 0.01 * 2 pi / E_max) adjusted as
    ``evolution.step_count`` adjusts it."""
    lattice = config["lattice"]
    p_max = math.pi * (lattice["N"] - 1) / lattice["L"]
    dt = config.get("dt", 0.01 * 2.0 * math.pi / math.hypot(p_max, lattice["m"]))
    stride = config.get("sample_stride", 1)
    span = config["t_b"] - config.get("t_a", 0.0)
    n_steps = max(1, round(span / dt))
    n_steps += (-n_steps) % stride
    return span / n_steps, stride


def _columns(path: Path) -> dict[str, list[float]]:
    """Numeric columns of a CSV, or the numbers of a JSON object, by name."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return {key: [float(value)] for key, value in payload.items()
                if isinstance(value, (int, float))}
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    out = {}
    for j, name in enumerate(rows[0]):
        try:
            out[name] = [float(row[j]) for row in rows[1:]]
        except ValueError:  # a text column
            pass
    return out


def _error(values: list[float], reference: list[float]) -> float:
    """Largest |value - reference|; NaN on both sides differs by 0."""
    gaps = [abs(x - y) for x, y in zip(values, reference)
            if not (math.isnan(x) and math.isnan(y))]
    return math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)


SIDES = ("parent", "change", "reference", "finer")


def report(dirs: dict[str, Path]) -> tuple[list[str], bool]:
    """Report lines for one command's outputs on each of ``SIDES``, and
    whether no value is flagged."""
    lines, ok = [], True
    files = sorted(p.relative_to(dirs["reference"])
                   for p in dirs["reference"].rglob("*")
                   if p.suffix in (".csv", ".json") and p.name != "manifest.json")
    for name in files:
        tables = {side: _columns(dirs[side] / name) for side in SIDES}
        ref = tables["reference"]
        lengths = {len(values) for table in tables.values()
                   for values in table.values()}
        if any(table.keys() != ref.keys() for table in tables.values()) \
                or len(lengths) > 1:
            lines.append(f"  {name}: columns or row counts differ from the reference")
            ok = False
            continue
        if "t" in ref and max(_error(tables[side]["t"], tables["change"]["t"])
                              for side in ("reference", "finer")) > FLOOR:
            lines.append(f"  {name}: sample times differ from the reference")
            ok = False
            continue
        for column in ref:
            if column in ("t", "x", "f"):
                continue
            parent, change, spread = (_error(tables[side][column], ref[column])
                                      for side in ("parent", "change", "finer"))
            good = change <= parent + spread or max(parent, change) < FLOOR
            ok &= good
            lines.append(f"  {name} {column}: parent {parent:.2g}, change "
                         f"{change:.2g} (u {spread:.1g}){'' if good else '  LARGER'}")
    return lines, ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/step_accuracy.py PARENT_ROOT CHANGE_ROOT",
              file=sys.stderr)
        return 2
    roots = {"parent": Path(args[0]).resolve(), "change": Path(args[1]).resolve()}
    evolving = {name: (subcommand, config) for name, (subcommand, config)
                in commands(roots["parent"]).items()
                if subcommand in ("evolve", "extract-energy")}
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="step_accuracy_") as tmp:
        work = Path(tmp)
        for name, (subcommand, config) in evolving.items():
            dt, stride = _step(config)
            configs = {"parent": config, "change": config,
                       "reference": dict(config, dt=dt / 4, sample_stride=4 * stride),
                       "finer": dict(config, dt=dt / 8, sample_stride=8 * stride)}
            codes = {}
            for side, side_config in configs.items():
                path = work / f"{name}-{side}.json"
                path.write_text(json.dumps(side_config, indent=1))
                root = roots["parent" if side == "parent" else "change"]
                codes[side] = run(root, subcommand, path, work / side / name)
            print(f"{name}: dt {dt:.6g}, stride {stride}; reference dt/4, "
                  f"stride {4 * stride}; u against dt/8")
            if any(codes.values()):
                print(f"  exit codes {codes}")
                all_ok = False
                continue
            lines, ok = report({side: work / side / name for side in SIDES})
            all_ok &= ok
            print("\n".join(lines))
    print("no error grew" if all_ok else "AN ERROR GREW")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
