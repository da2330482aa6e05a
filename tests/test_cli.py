import concurrent.futures
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsea import checks, cli
from diracsea import evolution as ev
from diracsea import schwinger as sw
from diracsea.cli import main
from diracsea.lattice import LatticeConfig, build_basis
from diracsea.vacua import VacuumSpec, coupled_band_spec
from test_evolution import kick_large_evolve

TWO_PI = 2.0 * np.pi

BASE_LATTICE = {"L": TWO_PI, "N": 9, "m": 1.0, "q": 1.0}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_check_basis_ok(tmp_path):
    for i, n_sites in enumerate((5, 9, 101)):
        lattice = dict(BASE_LATTICE, N=n_sites)
        cfg = write_config(tmp_path / f"cfg{i}.json",
                           {"lattice": lattice, "vacuum": "standard"})
        out = tmp_path / f"out{i}"
        assert main(["check-basis", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "check_basis.json").read_text())
        for key in ("orthonormality_max_err", "completeness_max_err",
                    "eigenrelation_max_err", "hermiticity_max_err",
                    "continuity_pair_max_err"):
            assert report[key] < 1e-12
        manifest = read_manifest(out)
        assert manifest["command"] == "check-basis"
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest


@pytest.mark.parametrize("length, n_sites", [
    (TWO_PI, 105), (TWO_PI, 151), (TWO_PI, 201), (1.0, 51), (1.0, 101)])
def test_check_basis_passes_on_large_lattices(tmp_path, length, n_sites):
    """Bases whose float phases p x once pushed the eigenrelation defect
    past the 1e-12 gate (1.0e-12 at L = 2 pi, N = 105 up to 1.1e-11 at
    L = 1, N = 101) pass it with exact grid phases."""
    lattice = dict(BASE_LATTICE, L=length, N=n_sites)
    cfg = write_config(tmp_path / "cfg.json", {"lattice": lattice})
    assert main(["check-basis", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


def test_config_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check-basis", "--config", str(missing),
                 "--out", str(tmp_path / "o1")]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["check-basis", "--config", str(bad_json),
                 "--out", str(tmp_path / "o2")]) == 1
    even = write_config(tmp_path / "even.json",
                        {"lattice": {"L": TWO_PI, "N": 8, "m": 1.0}})
    assert main(["check-basis", "--config", even,
                 "--out", str(tmp_path / "o3")]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    parsed = json.loads(err)
    assert parsed["exit_code"] == 1


def assert_config_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["exit_code"] == 1


@pytest.mark.parametrize("lattice", [
    dict(BASE_LATTICE, L=float("nan")),
    dict(BASE_LATTICE, L=float("inf")),
    dict(BASE_LATTICE, N=9.7),
    dict(BASE_LATTICE, m=float("inf")),
    dict(BASE_LATTICE, m=float("nan")),
    dict(BASE_LATTICE, q=float("nan")),
    dict(BASE_LATTICE, L=None),
    [TWO_PI, 9, 1.0],
    {"L": TWO_PI, "N": 9},
], ids=["nan-L", "inf-L", "fractional-N", "inf-m", "nan-m", "nan-q", "null-L",
        "list", "missing-m"])
def test_bad_lattice_is_config_error(tmp_path, capsys, lattice):
    cfg = write_config(tmp_path / "cfg.json", {"lattice": lattice})
    assert_config_error(["check-basis", "--config", cfg,
                         "--out", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize("command, config, module, name", [
    ("check-basis", {"lattice": BASE_LATTICE}, checks, "completeness_defect"),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "standard"}, sw,
     "divergence_diag_closed_form"),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "band", "delta_Ew": 1.5},
     sw, "f2_identity_check"),
    ("verify", {}, checks, "completeness_defect"),
], ids=["check-basis", "schwinger-sea", "schwinger-band", "verify"])
def test_nan_defect_fails_gate(tmp_path, monkeypatch, command, config, module,
                               name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: np.nan * original(*args))
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def nan_defect(values):
    return np.nan * values


def imaginary_diagonal(values):
    return values + 1e-6j * np.eye(len(values))


@pytest.mark.parametrize("command, config, owner, name, defect, message", [
    ("schwinger", {"lattice": BASE_LATTICE}, sw.SchwingerKernel, "values",
     nan_defect, "kernel developed a real part above 1e-12"),
    ("schwinger", {"lattice": BASE_LATTICE}, sw, "divergence_of_kernel",
     nan_defect, "coincident-point divergence lost its sign"),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "band", "delta_Ew": 1.5},
     sw.SchwingerKernel, "values", imaginary_diagonal,
     "band kernel nonzero at coincident points"),
    ("evolve", {"lattice": BASE_LATTICE, "packet": {"p_center": 2.0,
                                                     "sigma": 0.2}},
     ev.SlaterState, "gram_defect", nan_defect,
     "orbital orthonormality drifted above 1e-10"),
], ids=["real-part", "divergence-sign", "band-diagonal", "gram"])
def test_gate_fails_with_its_message(tmp_path, capsys, monkeypatch, command,
                                     config, owner, name, defect, message):
    """Each gate, fed a defect only it checks, exits 2 with its message."""
    original = vars(owner)[name]
    if isinstance(original, property):
        patched = property(lambda self: defect(original.fget(self)))
    else:
        patched = lambda *args: defect(original(*args))  # noqa: E731
    monkeypatch.setattr(owner, name, patched)
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert single_error_line(capsys) == {"error": message, "exit_code": 2}


def test_schwinger_outputs(tmp_path):
    # no "vacuum" key: the filled sea is the default
    cfg = write_config(tmp_path / "cfg.json", {"lattice": BASE_LATTICE})
    out = tmp_path / "out"
    assert main(["schwinger", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "schwinger_summary.json").read_text())
    assert summary["div_I_diag_imag"] < 0
    assert summary["re_I_max"] < 1e-12
    assert summary["div_paths_rel_err"] < 1e-10
    header, first_row = (out / "schwinger.csv").read_text().splitlines()[:2]
    assert header == "j,k,x,y,re_I,im_I,re_divI,im_divI,vacuum,N,m,q,delta_Ew"
    first_row = first_row.split(",")
    assert (first_row[8], first_row[12]) == ("standard", "")


def test_schwinger_sea_at_zero_charge(tmp_path):
    # the closed-form divergence is exactly 0, so the paths compare absolutely
    cfg = write_config(tmp_path / "cfg.json",
                       {"lattice": dict(BASE_LATTICE, q=0.0)})
    out = tmp_path / "out"
    assert main(["schwinger", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "schwinger_summary.json").read_text())
    assert summary["div_I_diag_imag_closed_form"] == 0.0
    assert summary["div_paths_rel_err"] == 0.0


def test_schwinger_band_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"lattice": BASE_LATTICE, "vacuum": "band",
                        "delta_Ew": 1.5})
    out = tmp_path / "out"
    assert main(["schwinger", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "schwinger_summary.json").read_text())
    assert summary["I_diag_abs_max"] < 1e-12
    assert summary["f2_residual"] < 1e-12
    first_row = (out / "schwinger.csv").read_text().splitlines()[1].split(",")
    assert (first_row[8], float(first_row[12])) == ("band", 1.5)


@pytest.mark.parametrize("n_sites", [9, 27])
@pytest.mark.parametrize("kind", ["standard", "band"])
def test_schwinger_csv_cells_are_the_kernel_matrices(tmp_path, n_sites, kind):
    """Each row [j, k] holds the kernel and divergence matrices' own floats.

    The divergence matrix is symmetric only to rounding, so only an exact
    comparison catches a row written at the separation (k - j) mod N."""
    lattice = dict(BASE_LATTICE, N=n_sites)
    basis = build_basis(LatticeConfig(lattice["L"], n_sites, lattice["m"],
                                      lattice["q"]))
    spec = coupled_band_spec(basis) if kind == "band" else VacuumSpec(kind)
    config = {"lattice": lattice, "vacuum": kind}
    if kind == "band":
        config["delta_Ew"] = spec.band_width
    kernel = sw.commutator_kernel(basis, spec)
    values, divergence = kernel.values, sw.divergence_of_kernel(kernel)
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main(["schwinger", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "schwinger.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == n_sites**2
    grid = basis.config.grid
    for row, (j, k) in zip(rows, np.ndindex(n_sites, n_sites), strict=True):
        assert (int(row["j"]), int(row["k"])) == (j, k)
        assert (float(row["x"]), float(row["y"])) == (grid[j], grid[k])
        assert float(row["re_I"]) == values[j, k].real
        assert float(row["im_I"]) == values[j, k].imag
        assert float(row["re_divI"]) == divergence[j, k].real
        assert float(row["im_divI"]) == divergence[j, k].imag


def test_deterministic_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"lattice": BASE_LATTICE, "vacuum": "standard"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["schwinger", "--config", cfg, "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["schwinger", "--config", cfg, "--out", str(out2),
                 "--seed", "7"]) == 0
    assert (out1 / "schwinger.csv").read_bytes() == \
        (out2 / "schwinger.csv").read_bytes()
    assert read_manifest(out1)["files"] == read_manifest(out2)["files"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_manifests_hash_the_bytes_on_disk(tmp_path, jobs):
    """Each manifest of a sweep, the points' (written by worker processes
    at --jobs 2) and the sweep's own, gives each artifact the sha256 of its
    bytes on disk, and no digest is left behind in this process."""
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [5, 7]},
    })
    out = tmp_path / "out"
    before = dict(cli._DIGESTS)
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    assert cli._DIGESTS == before
    manifests = sorted(out.rglob("manifest.json"))
    assert len(manifests) == 3
    for path in manifests:
        files = read_manifest(path.parent)["files"]
        assert files
        for name, digest in files.items():
            assert hashlib.sha256((path.parent / name).read_bytes()).hexdigest() == digest


def test_evolve_free_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "packet": {"p_center": 2.0, "sigma": 0.2},
        "t_a": 0.0, "t_b": 1.0, "sample_stride": 10,
    })
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    series = (out / "evolve_series.csv").read_text().splitlines()
    assert series[0] == "t,xi0,rate_residual,max_L"
    xi = [float(line.split(",")[1]) for line in series[1:]]
    assert abs(xi[-1] - xi[0]) < 1e-8
    snaps = (out / "evolve_snapshots.csv").read_text().splitlines()
    assert snaps[0] == "t,x,rho_e,J_e"


def test_evolve_with_kick_and_recipe_alias(tmp_path):
    for recipe in ("density_rate", "eq39"):
        cfg = write_config(tmp_path / f"cfg_{recipe}.json", {
            "lattice": BASE_LATTICE, "vacuum": "standard",
            "packet": {"p_center": 2.0, "sigma": 0.2},
            "t_a": 0.0, "t_b": 1.0, "sample_stride": 20,
            "kick": {"recipe": recipe, "f": 0.05},
        })
        out = tmp_path / f"out_{recipe}"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0


def test_extract_energy(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "packet": {"p_center": 2.0, "sigma": 0.2},
        "t_a": 0.0, "t_b": 1.5, "sample_stride": 10,
        "kick": {"recipe": "eq39", "f": [0.0, 0.02, 0.04]},
    })
    out = tmp_path / "out"
    assert main(["extract-energy", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "extract_energy.csv").read_text().splitlines()[1:]
    xi2 = [float(r.split(",")[2]) for r in rows]
    assert all(b < a for a, b in zip(xi2, xi2[1:]))  # monotone decreasing
    summary = json.loads((out / "extract_energy_summary.json").read_text())
    assert summary["slope_rel_err"] < 0.05
    assert summary["monotone_decreasing_small_f"] is True


def test_extract_energy_needs_packet(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "t_a": 0.0, "t_b": 1.0,
        "kick": {"recipe": "eq39", "f": [0.0, 0.01]},
    })
    assert main(["extract-energy", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 1


def test_stationary_packet_violates_invariant(tmp_path):
    # a single-mode packet has no density rate: exit code 2
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "packet": {"p_center": 2.0, "sigma": 0.05},
        "t_a": 0.0, "t_b": 1.0, "sample_stride": 10,
        "kick": {"recipe": "eq39", "f": [0.0, 0.01]},
    })
    with pytest.warns(UserWarning):
        code = main(["extract-energy", "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("command, recipe", [
    ("evolve", "continuity_rate"), ("evolve", "eq42"),
    ("extract-energy", "continuity_rate"), ("extract-energy", "eq42"),
    ("evolve", "eq40"),
])
def test_refused_kick_recipe_is_config_error(command, recipe, tmp_path, capsys,
                                             monkeypatch):
    """A continuity_rate kick (alias eq42) is refused before anything
    evolves, and says why: its chi comes from the continuity residual, which
    on this lattice is aliasing at the cutoff alone, so the kick vanishes.
    An unknown token is refused as unknown."""
    reason = ("continuity residual" if recipe in ("continuity_rate", "eq42")
              else "unknown kick recipe")

    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution ran before the recipe was checked")

    monkeypatch.setattr(ev, "run_branches", no_evolution)
    f = 0.3 if command == "evolve" else [0.0, 0.01, 0.02]
    cfg = write_config(tmp_path / "cfg.json",
                       dict(KICKED_PACKET, kick={"recipe": recipe, "f": f}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = single_error_line(capsys)
    assert err["exit_code"] == 1
    assert repr(recipe) in err["error"] and reason in err["error"]


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, command, output, invariant", [
    ("extract_energy.json", "extract-energy", "extract_energy_summary.json",
     lambda s: s["slope_rel_err"] <= 0.05 and s["monotone_decreasing_small_f"]),
    ("response_paths.json", "response", "response_summary.json",
     lambda s: s["max_path_difference"] <= 1e-6),
    ("schwinger_sweep.json", "sweep", "sweep_index.json",
     lambda s: s["exit_codes"] and all(code == 0 for code in s["exit_codes"])),
], ids=["extract_energy", "response_paths", "schwinger_sweep"])
def test_shipped_config_runs(tmp_path, name, command, output, invariant):
    out = tmp_path / "out"
    assert main([command, "--config", str(SHIPPED_CONFIGS / name),
                 "--out", str(out)]) == 0
    assert invariant(json.loads((out / output).read_text()))


KICKED_PACKET = {
    "lattice": BASE_LATTICE, "vacuum": "standard",
    "packet": {"p_center": 2.0, "sigma": 0.2},
    "t_a": 0.0, "t_b": 1.0, "sample_stride": 10,
}


@pytest.mark.parametrize("command, overrides", [
    ("evolve", {"kick": {"recipe": "density_rate", "f": float("nan")}}),
    ("evolve", {"kick": {"recipe": "density_rate", "f": [0.1, 0.2]}}),
    ("extract-energy", {"kick": {"recipe": "eq39", "f": [0.0, float("nan")]}}),
    ("evolve", {"sample_stride": 0}),
    ("extract-energy", {"dt": -0.01, "kick": {"f": [0.0, 0.01]}}),
    ("evolve", {"dt": float("nan")}),
    ("evolve", {"dt": 1.0, "sample_stride": 1}),
    ("evolve", {"dt": 1e-300}),
    ("evolve", {"sample_stride": 1e9}),
    ("evolve", {"t_b": 1e9}),
    ("extract-energy", {"t_b": 1e9, "kick": {"f": [0.0, 0.01]}}),
    ("evolve", {"kick": {"recipe": "density_rate", "f": 1e9}}),
    ("extract-energy", {"kick": {"f": [0.0, 1e9]}}),
], ids=["evolve-nan-f", "evolve-list-f", "extract-energy-nan-f",
        "zero-stride", "negative-dt", "nan-dt", "two-samples", "tiny-dt",
        "huge-stride", "huge-t_b", "extract-energy-huge-t_b", "huge-kick",
        "extract-energy-huge-kick"])
def test_bad_evolution_input_is_config_error(tmp_path, capsys, command,
                                             overrides):
    cfg = write_config(tmp_path / "cfg.json", dict(KICKED_PACKET, **overrides))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["exit_code"] == 1


def single_error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_evolve_refuses_too_much_series_work_before_its_first_step(
        tmp_path, capsys, monkeypatch):
    """The bench's kicked N = 81 evolve at f = 1e5 would sum about 1.1e11
    multiply-adds of Chebyshev terms (12 s in turn); it exits 1 with one
    JSON line, and no kicked step runs."""
    def no_step(*args):
        raise AssertionError("a kicked step ran before the work was bounded")

    monkeypatch.setattr(ev, "_time_step", no_step)
    monkeypatch.setattr(ev, "_split_operator_interval", no_step)
    config = kick_large_evolve(81, 40)
    config["kick"]["f"] = 1e5
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = single_error_line(capsys)
    assert err["exit_code"] == 1
    assert err["error"].startswith("the run's Chebyshev series need about 1.1e+11 "
                                   "multiply-adds, over the bound of 5e+10")


def test_evolve_refuses_under_three_samples_before_evolving(tmp_path, capsys,
                                                           monkeypatch):
    """A stride that leaves two samples is refused before the free branch or
    the kicked one evolves."""
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution ran before the sample count was checked")

    monkeypatch.setattr(ev, "run_branches", no_evolution)
    cfg = write_config(tmp_path / "cfg.json", dict(
        KICKED_PACKET, sample_stride=40000,
        kick={"recipe": "density_rate", "f": 0.02}))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert single_error_line(capsys) == {
        "error": "evolve records 2 samples and needs at least three; lower "
                 "dt or sample_stride", "exit_code": 1}


@pytest.mark.parametrize("command, config", [
    ("evolve", dict(KICKED_PACKET, t_a="x")),
    ("evolve", dict(KICKED_PACKET, t_b=None)),
    ("evolve", dict(KICKED_PACKET, kick=[1])),
    ("evolve", dict(KICKED_PACKET, packet=[1])),
    ("response", {"lattice": BASE_LATTICE, "chi": [1]}),
    ("response", {"lattice": BASE_LATTICE, "chi": {"k": "x"}}),
    ("response", {"lattice": BASE_LATTICE, "smearing": "bogus"}),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "band", "delta_Ew": None}),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "band",
                   "delta_Ew": float("nan")}),
    ("extract-energy", dict(KICKED_PACKET, kick={"f": [0.0, 0.01]},
                            small_f_count="x")),
    ("extract-energy", dict(KICKED_PACKET, kick={"f": [0.01]})),
    ("extract-energy", dict(KICKED_PACKET, kick={"f": [0.0, -0.0]})),
    ("extract-energy", dict(KICKED_PACKET, kick={"f": [0.0, 0.0, 0.01]},
                            small_f_count=1)),
    ("sweep", {"lattice": BASE_LATTICE,
               "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                         "values": 5}}),
    ("check-basis", [BASE_LATTICE]),
    ("evolve", dict(KICKED_PACKET, t_b="1.5")),
    ("extract-energy", dict(KICKED_PACKET, kick={"f": [0.0, 0.01]},
                            packet={"p_center": float("nan"), "sigma": 0.2})),
    ("response", {"lattice": BASE_LATTICE, "t_b": float("inf")}),
    ("evolve", dict(KICKED_PACKET, kick={"recipe": ["eq39"], "f": 0.01})),
    ("response", {"lattice": BASE_LATTICE, "chi": {"amplitude": float("nan")}}),
    ("response", {"lattice": BASE_LATTICE, "t_b": 1e9}),
    ("check-basis", {"lattice": dict(BASE_LATTICE, N=200001)}),
    ("evolve", {"lattice": BASE_LATTICE, "vacuum": "bare", "t_a": 0.0,
                "t_b": 1.0, "kick": {"recipe": "density_rate", "f": 0.01}}),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "bare"}),
    ("schwinger", {"lattice": BASE_LATTICE, "vacuum": "band", "delta_Ew": 50.0}),
    ("evolve", dict(KICKED_PACKET, packet={"p_center": 1e3, "sigma": 0.5})),
], ids=["text-t_a", "null-t_b", "list-kick", "list-packet", "list-chi",
        "text-chi-k", "unknown-smearing", "null-delta_Ew", "nan-delta_Ew",
        "text-small_f_count", "one-strength", "equal-strengths",
        "tied-small-f-head", "scalar-sweep-values", "list-config",
        "numeric-text-t_b", "nan-p_center", "inf-t_b", "list-recipe",
        "nan-chi-amplitude", "huge-response-t_b", "huge-N", "bare-no-packet",
        "bare-schwinger", "band-past-cutoff-schwinger", "far-p_center"])
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch,
                                          command, config):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution ran before the config was checked")

    monkeypatch.setattr(ev, "run_branches", no_evolution)
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert single_error_line(capsys)["exit_code"] == 1


RESPONSE = {"lattice": BASE_LATTICE, "t_a": 0.0, "t_b": 1.5, "n_times": 5}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, config, message", [
    ("response", dict(RESPONSE, chi={"k": 1e308}), "chi's profile"),
    ("response", dict(RESPONSE, chi={"amplitude": 1e308}), "chi's profile"),
    ("schwinger", {"lattice": dict(BASE_LATTICE, L=1e160)}, "box length"),
    ("schwinger", {"lattice": dict(BASE_LATTICE, L=1e300)}, "box length"),
    ("schwinger", {"lattice": dict(BASE_LATTICE, L=1e-300)}, "box length"),
    ("schwinger", {"lattice": dict(BASE_LATTICE, L=1e-150)}, "box length"),
    ("schwinger", {"lattice": dict(BASE_LATTICE, L=1e-155)}, "box length"),
    ("response", dict(RESPONSE, lattice=dict(BASE_LATTICE, q=1e155)),
     "box length"),
    ("response", dict(RESPONSE, lattice=dict(BASE_LATTICE, L=1e160)),
     "box length"),
    ("evolve", dict(KICKED_PACKET, packet={"p_center": 1e200, "sigma": 0.2}),
     "cutoff"),
    ("evolve", dict(KICKED_PACKET, packet={"p_center": 2.0, "sigma": 1e-200}),
     "sigma"),
    ("evolve", dict(KICKED_PACKET, packet={"p_center": 2.0, "sigma": 1e200}),
     "sigma"),
], ids=["huge-chi-k", "huge-chi-amplitude", "L-1e160", "L-1e300", "L-1e-300",
        "L-1e-150", "L-1e-155", "response-q-1e155", "response-L-1e160",
        "huge-p_center", "tiny-sigma", "huge-sigma"])
def test_value_past_float_range_is_one_config_error_line(tmp_path, capsys,
                                                         command, config,
                                                         message):
    """A finite value whose arithmetic overflows or underflows is refused
    with exit 1 and one JSON line: no warning, NaN output or traceback."""
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in single_error_line(capsys)["error"]


def test_check_basis_takes_a_box_the_kernel_refuses(tmp_path):
    """L = 1e300 has no finite square for the kernel's pair sums, but the
    basis checks do not divide by it."""
    cfg = write_config(tmp_path / "cfg.json",
                       {"lattice": dict(BASE_LATTICE, L=1e300)})
    assert main(["check-basis", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("read, config, prefix", [
    (cli._vacuum_from, {"vacuum": "bogus"}, "invalid vacuum spec: "),
    (cli._basis_from, {"lattice": dict(BASE_LATTICE, N=8)}, ""),
], ids=["vacuum", "basis"])
def test_refused_value_keeps_its_message_and_cause(read, config, prefix):
    """A ValueError from the package goes on as a ConfigError with the same
    message after the reader's prefix, chained to it."""
    with pytest.raises(cli.ConfigError) as caught:
        read(config)
    cause = caught.value.__cause__
    assert type(cause) is ValueError
    assert str(caught.value) == prefix + str(cause)


@pytest.mark.parametrize("argv", [
    ["check-basis", "--config", "CFG", "--out", "OUT", "--jobs", "2"],
    ["sweep", "--config", "CFG", "--out", "OUT", "--jobs", "x"],
    ["check-basis", "--config", "CFG", "--out", "OUT", "--seed", "1.5"],
    ["check-basis", "--config", "CFG", "--out", "OUT", "--seed", "-5"],
    ["check-basis", "--config", "CFG", "--out", "OUT", "--bogus"],
    ["nope"],
    [],
], ids=["jobs-outside-sweep", "text-jobs", "fractional-seed", "negative-seed",
        "unknown-option", "unknown-subcommand", "no-subcommand"])
def test_argument_error_is_config_error(tmp_path, capsys, argv):
    paths = {"CFG": write_config(tmp_path / "cfg.json", {"lattice": BASE_LATTICE}),
             "OUT": str(tmp_path / "out")}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    assert single_error_line(capsys)["exit_code"] == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert "--jobs" in capsys.readouterr().out


def test_unforeseen_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(config, out_dir, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.RUNNERS, "check-basis", broken)
    cfg = write_config(tmp_path / "cfg.json", {"lattice": BASE_LATTICE})
    assert main(["check-basis", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    error = single_error_line(capsys)
    assert error["exit_code"] == 3
    assert error["error"] == "RuntimeError: boom"
    assert "in broken" in error["traceback"]


@pytest.mark.skipif(not hasattr(os, "fork") or ev._openblas_threads() is None,
                    reason="no os.fork, or no OpenBLAS thread setter to split with")
def test_dead_evolution_child_exits_3(tmp_path, capsys, monkeypatch):
    """A split run whose child process dies is reported in the usual JSON
    error, with the child's status, instead of waited on."""
    monkeypatch.setattr(ev, "SPLIT_WORK", 0)
    monkeypatch.setattr(ev, "_usable_cpus", lambda: 2)
    parent, couplings = os.getpid(), ev._couplings

    def dying(config, potential, t):
        if os.getpid() != parent and t > 0.5:
            os._exit(7)
        return couplings(config, potential, t)

    monkeypatch.setattr(ev, "_couplings", dying)
    cfg = write_config(tmp_path / "cfg.json", dict(
        KICKED_PACKET, kick={"recipe": "density_rate", "f": 0.05}))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    error = single_error_line(capsys)
    assert error["exit_code"] == 3
    assert error["error"].startswith("ChildProcessError: ")
    assert error["error"].endswith("exit status 7")


def test_response_paths(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "chi": {"k": 1, "amplitude": 0.3},
        "t_a": 0.0, "t_b": 1.5, "n_times": 3,
    })
    out = tmp_path / "out"
    assert main(["response", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "response_summary.json").read_text())
    assert summary["max_path_difference"] < 1e-6
    header = (out / "response.csv").read_text().splitlines()[0]
    assert header == "t,x,J1_direct,J1_gauge_variation,vacuum,N,delta_Ew"


@pytest.mark.parametrize("n_times", [0, -2, 2.5, "3", True, 1e9, 10001])
def test_response_rejects_bad_n_times(tmp_path, capsys, n_times):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "t_a": 0.0, "t_b": 1.5, "n_times": n_times,
    })
    assert_config_error(["response", "--config", cfg,
                         "--out", str(tmp_path / "out")], capsys)


def test_verify_subcommand(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert all(check["passed"] is True for check in payload["checks"])


def test_sweep_parallel(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [5, 7, 9]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", "2"]) == 0
    index = json.loads((out / "sweep_index.json").read_text())
    assert len(index["points"]) == 3
    for i, n_sites in enumerate([5, 7, 9]):
        point = out / f"point_{i:03d}"
        manifest = read_manifest(point)
        assert manifest["config"]["lattice"]["N"] == n_sites
        assert (point / "schwinger.csv").exists()


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and the worker
    initializer, and maps in this process, so no worker is started."""

    max_workers = []
    initializers = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        RecordingExecutor.max_workers.append(max_workers)
        RecordingExecutor.initializers.append((initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs, cpus, points, workers", [
    ("5000", 8, 2, [2]),
    ("5000", 2, 3, [2]),
    ("2", 8, 3, [2]),
    ("3", 1, 3, []),
    ("1", 8, 3, []),
])
def test_sweep_workers_bounded_by_points_and_cpus(tmp_path, monkeypatch, jobs,
                                                  cpus, points, workers):
    monkeypatch.setattr(RecordingExecutor, "max_workers", [])
    monkeypatch.setattr(RecordingExecutor, "initializers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(ev, "_usable_cpus", lambda: cpus)
    values = [5, 7, 9][:points]
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": values},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", jobs]) == 0
    assert RecordingExecutor.max_workers == workers
    # workers that share the CPUs run split evolution halves in turn
    assert RecordingExecutor.initializers == [(ev.share_cpus, (w,)) for w in workers]
    index = json.loads((out / "sweep_index.json").read_text())
    assert index["exit_codes"] == [0] * points


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_sweep_workers_bounded_by_cpu_affinity(tmp_path, monkeypatch):
    """Two CPUs in the machine but one in this process's affinity mask:
    ``--jobs 2`` runs the points in turn, with no pool."""
    monkeypatch.setattr(RecordingExecutor, "max_workers", [])
    monkeypatch.setattr(RecordingExecutor, "initializers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [5, 7]},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    assert RecordingExecutor.max_workers == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    def no_point(task):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [5, 7]},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 1
    assert "--jobs" in single_error_line(capsys)["error"]
    assert not (tmp_path / "out").exists()


def test_sweep_index_does_not_depend_on_out_path(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [5, 7]},
    })
    indexes = []
    for out in (tmp_path / "a", tmp_path / "second" / "b"):
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        indexes.append((out / "sweep_index.json").read_bytes())
    assert indexes[0] == indexes[1]
    assert json.loads(indexes[0])["points"] == ["point_000", "point_001"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_runs_and_reports_every_point(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                  "values": [9, 8, 11]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", jobs]) == 1
    error = single_error_line(capsys)
    assert error["exit_code"] == 1
    assert "point_001" in error["error"]
    assert "point_000" not in error["error"]
    index = json.loads((out / "sweep_index.json").read_text())
    assert index["values"] == [9, 8, 11]
    assert len(index["points"]) == 3
    assert index["exit_codes"] == [0, 1, 0]
    assert (out / "point_002" / "schwinger.csv").exists()


def test_sweep_rejects_unknown_experiment(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE,
        "sweep": {"experiment": "nope", "parameter": "lattice.N",
                  "values": [5]},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_sweep_rejects_parameter_inside_a_scalar(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": BASE_LATTICE, "vacuum": "standard",
        "sweep": {"experiment": "schwinger", "parameter": "lattice.N.x",
                  "values": [5]},
    })
    assert_config_error(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "o")], capsys)


# one valid N=9 config per subcommand that reads a config; the sweep's lattice
# leaves out N, which each point sets, so that every key the fuzzer reaches is
# read by the run
FUZZ_BASES = {
    "check-basis": {"lattice": BASE_LATTICE},
    "schwinger": {"lattice": BASE_LATTICE, "vacuum": "band", "delta_Ew": 1.5},
    "evolve": dict(KICKED_PACKET, dt=0.02,
                   kick={"recipe": "density_rate", "f": 0.05}),
    "extract-energy": dict(KICKED_PACKET, dt=0.02, small_f_count=3,
                           kick={"recipe": "eq39", "f": [0.0, 0.02, 0.04]}),
    "response": {"lattice": BASE_LATTICE, "vacuum": "standard",
                 "chi": {"k": 1, "amplitude": 0.3}, "t_a": 0.0, "t_b": 1.5,
                 "n_times": 3, "smearing": "fourier"},
    "sweep": {"lattice": {"L": TWO_PI, "m": 1.0, "q": 1.0},
              "vacuum": "standard",
              "sweep": {"experiment": "schwinger", "parameter": "lattice.N",
                        "values": [5, 9]}},
}


def dotted_paths(node: dict, prefix: str = ""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_paths(value, prefix + key + ".")


FUZZ_CASES = [(command, path) for command, base in FUZZ_BASES.items()
              for path in dotted_paths(base)]
FUZZ_MENU = [math.nan, math.inf, -math.inf, None, "x", "1.5", True, [1],
             {"a": 1}, -1, 0]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_MENU))
def test_fuzzed_config_fails_cleanly(case, value):
    command, path = case
    config = copy.deepcopy(FUZZ_BASES[command])
    cli._set_by_path(config, path, value)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = write_config(Path(tmp) / "cfg.json", config)
        code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == code
    if isinstance(value, float) and not math.isfinite(value):
        assert code == 1


@pytest.mark.parametrize("code", [
    # fock and checks load in the runners that use them, so a run's
    # start-up costs numpy alone
    "import sys, diracsea.cli; print(sorted("
    "{'scipy.sparse', 'scipy.special'} & set(sys.modules)))",
    # the oracle and its algebra gate work on bitstrings, not sparse matrices
    "import sys; from diracsea import checks; checks.run_verification(); "
    "print(sorted({'scipy.sparse'} & set(sys.modules)))",
    # the Chebyshev step takes its Bessel weights from a recurrence, not
    # scipy.special, so a density_rate kicked evolve loads no scipy module
    # at all (run in the test's temporary directory)
    "import json, sys; from diracsea import cli; "
    "open('cfg.json', 'w').write(json.dumps({'lattice': {'L': 6.283185307179586, "
    "'N': 9, 'm': 1.0, 'q': 1.0}, 'vacuum': 'standard', "
    "'packet': {'p_center': 2.0, 'sigma': 0.2}, 't_a': 0.0, 't_b': 0.5, "
    "'sample_stride': 10, 'kick': {'recipe': 'density_rate', 'f': 0.05}})); "
    "assert cli.main(['evolve', '--config', 'cfg.json', '--out', 'out']) == 0; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    # no command loads scipy: a refused continuity_rate kick (exit 1) and an
    # extract-energy sweep, in one process
    "import json, sys; from diracsea import cli; "
    "base = {'lattice': {'L': 6.283185307179586, 'N': 9, 'm': 1.0, 'q': 1.0}, "
    "'vacuum': 'standard', 'packet': {'p_center': 2.0, 'sigma': 0.2}, "
    "'t_a': 0.0, 't_b': 0.5, 'sample_stride': 10}; "
    "open('evolve.json', 'w').write(json.dumps(dict(base, kick={"
    "'recipe': 'continuity_rate', 'f': 0.3}))); "
    "open('energy.json', 'w').write(json.dumps(dict(base, kick={"
    "'recipe': 'eq39', 'f': [0.0, 0.01, 0.02]}))); "
    "assert cli.main(['evolve', '--config', 'evolve.json', '--out', 'a']) == 1; "
    "assert cli.main(['extract-energy', '--config', 'energy.json', "
    "'--out', 'b']) == 0; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    # only a parallel sweep imports concurrent.futures, and with it logging
    "import sys, diracsea.cli; print(sorted("
    "{'concurrent.futures', 'logging'} & set(sys.modules)))",
], ids=["cli-import", "run-verification", "kicked-evolve",
        "refused-kick-and-extract-energy", "cli-import-futures"])
def test_cli_import_loads_neither_sparse_nor_special(code, tmp_path):
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def reference_write_csv(path, header, columns):
    """The csv-module writer that ``cli._write_csv`` replaced."""
    n_rows = max((len(c) for c in columns if np.ndim(c) > 0), default=1)
    cells = []
    for column in columns:
        values = np.asarray(column)
        fmt = "{:.17e}".format if values.dtype.kind == "f" else str
        cells.append([fmt(values.item())] * n_rows if values.ndim == 0
                     else list(map(fmt, values.tolist())))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


CSV_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.8e308]),
    st.floats())
CSV_INTS = st.integers(-2**63, 2**63 - 1)
# no NUL: numpy's str arrays drop trailing NULs, so "\x00" would become the
# lone empty cell that csv quotes
CSV_TEXT_CHARS = st.characters(blacklist_categories=("Cs",),
                               blacklist_characters=',"\r\n\x00')
CSV_DTYPES = {"float": float, "int": np.int64, "text": str}


@st.composite
def csv_tables(draw):
    """(header, columns): scalar and array columns of floats, ints and text
    that the csv module writes unquoted."""
    n_rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    # a row of one empty cell is the one unquoted-looking cell csv quotes
    text = st.text(CSV_TEXT_CHARS, min_size=int(width == 1), max_size=6)
    cells = {"float": CSV_FLOATS, "int": CSV_INTS, "text": text}
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(sorted(cells)))
        if draw(st.booleans()):
            columns.append(draw(cells[kind]))  # a scalar, repeated per row
        else:
            values = draw(st.lists(cells[kind], min_size=n_rows,
                                   max_size=n_rows))
            columns.append(np.array(values, dtype=CSV_DTYPES[kind]))
    return draw(st.lists(text, min_size=width, max_size=width)), columns


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=csv_tables())
def test_write_csv_matches_csv_module(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        cli._write_csv(ours, header, columns)
        reference_write_csv(theirs, header, columns)
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["x", "vacuum"], [np.zeros(2), "a,b"]),
    (["x", "vacuum"], [np.zeros(2), 'say "sea"']),
    (["x", "vacuum"], [np.zeros(2), np.array(["band", "two\nlines"])]),
    (["x", "vacuum"], [np.zeros(2), "cr\r"]),
    (["delta_Ew"], [""]),
    (["x,y"], [np.zeros(2)]),
], ids=["comma", "quote", "newline", "carriage-return", "lone-empty-cell",
        "header-comma"])
def test_write_csv_refuses_cells_csv_would_quote(tmp_path, header, columns):
    reference_write_csv(tmp_path / "theirs.csv", header, columns)
    assert '"' in (tmp_path / "theirs.csv").read_text()  # csv quotes this
    with pytest.raises(ValueError, match="quoting"):
        cli._write_csv(tmp_path / "ours.csv", header, columns)
    assert not (tmp_path / "ours.csv").exists()


@st.composite
def indexed_csv_tables(draw):
    """(header, columns, plain): columns hold (values, index) pairs beside
    scalars and arrays; ``plain`` is the same table with values[index]."""
    n_rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    text = st.text(CSV_TEXT_CHARS, min_size=int(width == 1), max_size=6)
    cells = {"float": CSV_FLOATS, "int": CSV_INTS, "text": text}
    columns, plain = [], []
    for _ in range(width):
        kind = draw(st.sampled_from(sorted(cells)))
        shape = draw(st.sampled_from(["scalar", "array", "indexed"]))
        if shape == "scalar":
            columns.append(draw(cells[kind]))
            plain.append(columns[-1])
            continue
        size = n_rows if shape == "array" else draw(st.integers(1, 4))
        values = np.array(draw(st.lists(cells[kind], min_size=size,
                                        max_size=size)), dtype=CSV_DTYPES[kind])
        if shape == "array":
            columns.append(values)
        else:
            index = np.array(draw(st.lists(st.integers(0, size - 1),
                                           min_size=n_rows, max_size=n_rows)))
            columns.append((values, index))
            values = values[index]
        plain.append(values)
    return draw(st.lists(text, min_size=width, max_size=width)), columns, plain


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=indexed_csv_tables())
def test_write_csv_indexed_columns_match_csv_module(table):
    header, columns, plain = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        cli._write_csv(ours, header, columns)
        reference_write_csv(theirs, header, plain)
        assert ours.read_bytes() == theirs.read_bytes()


SPECIAL_FLOATS = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324])


@pytest.mark.parametrize("header, columns, plain", [
    (["x", "tag"], [np.zeros(2), "%"], [np.zeros(2), "%"]),
    (["x", "tag"], [np.zeros(2), "%%"], [np.zeros(2), "%%"]),
    (["x", "tag"], [np.zeros(2), "%s"], [np.zeros(2), "%s"]),
    (["tag", "x"], ["100%", (SPECIAL_FLOATS, [5, 4, 3, 2, 1, 0, 0])],
     ["100%", SPECIAL_FLOATS[[5, 4, 3, 2, 1, 0, 0]]]),
    (["tag"], [(np.array(["%d", "%%", "a%sb"]), [2, 0, 1, 1])],
     [np.array(["a%sb", "%d", "%%", "%%"])]),
], ids=["percent", "double-percent", "percent-s", "special-floats",
        "indexed-percent-text"])
def test_write_csv_percent_and_special_cells(tmp_path, header, columns, plain):
    cli._write_csv(tmp_path / "ours.csv", header, columns)
    reference_write_csv(tmp_path / "theirs.csv", header, plain)
    assert ((tmp_path / "ours.csv").read_bytes()
            == (tmp_path / "theirs.csv").read_bytes())


def test_write_csv_refuses_indexed_cells_csv_would_quote(tmp_path):
    columns = [np.zeros(2), (np.array(["sea", "a,b"]), [0, 1])]
    with pytest.raises(ValueError, match="quoting"):
        cli._write_csv(tmp_path / "ours.csv", ["x", "vacuum"], columns)
    assert not (tmp_path / "ours.csv").exists()


def chunked_table(n_rows: int):
    """(header, columns, plain) over ``n_rows`` rows: a leading scalar, an
    array, two scalars, a pair and a trailing empty text cell."""
    rng = np.random.default_rng(n_rows)
    values = rng.normal(size=7)
    index = rng.integers(0, 7, n_rows)
    array = rng.normal(size=n_rows)
    header = ["run", "x", "tag", "N", "y", "empty"]
    columns = [3, array, "band", 151, (values, index), ""]
    plain = [3, array, "band", 151, values[index], ""]
    return header, columns, plain


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_write_csv_at_chunk_boundaries(tmp_path, offset):
    """Rows go out in chunks of ``_CSV_CHUNK_ROWS``; one row short of a
    chunk, a whole chunk and one row into the next write the same bytes."""
    for chunks in (1, 2):
        header, columns, plain = chunked_table(
            chunks * cli._CSV_CHUNK_ROWS + offset)
        cli._write_csv(tmp_path / "ours.csv", header, columns)
        reference_write_csv(tmp_path / "theirs.csv", header, plain)
        assert ((tmp_path / "ours.csv").read_bytes()
                == (tmp_path / "theirs.csv").read_bytes())


def test_write_csv_zero_rows_is_the_header(tmp_path):
    header, columns, plain = chunked_table(0)
    cli._write_csv(tmp_path / "ours.csv", header, columns)
    reference_write_csv(tmp_path / "theirs.csv", header, plain)
    assert (tmp_path / "ours.csv").read_bytes() == b"run,x,tag,N,y,empty\r\n"
    assert ((tmp_path / "ours.csv").read_bytes()
            == (tmp_path / "theirs.csv").read_bytes())


def test_write_csv_schwinger_shaped_table(tmp_path):
    """The N = 151 schwinger table: pair columns over j, k and the grid
    separation, then five scalars; 22,801 rows."""
    n_sites = 151
    rng = np.random.default_rng(151)
    sites = np.arange(n_sites)
    grid = sites * (TWO_PI / n_sites)
    j, k = np.divmod(np.arange(n_sites**2), n_sites)
    sep = sw.over_pairs(sites).ravel()
    profiles = rng.normal(size=(4, n_sites))
    header = ["j", "k", "x", "y", "re_I", "im_I", "re_divI", "im_divI",
              "vacuum", "N", "m", "q", "delta_Ew"]
    scalars = ["standard", n_sites, 1.0, 1.0, ""]
    columns = [(sites, j), (sites, k), (grid, j), (grid, k),
               *[(profile, sep) for profile in profiles], *scalars]
    plain = [j, k, grid[j], grid[k], *profiles[:, sep], *scalars]
    cli._write_csv(tmp_path / "ours.csv", header, columns)
    reference_write_csv(tmp_path / "theirs.csv", header, plain)
    assert ((tmp_path / "ours.csv").read_bytes()
            == (tmp_path / "theirs.csv").read_bytes())
