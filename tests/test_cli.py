import contextlib
import copy
import hashlib
import io
import json
import math
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
    for recipe in ("density_rate", "eq39", "continuity_rate", "eq42"):
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
], ids=["evolve-nan-f", "evolve-list-f", "extract-energy-nan-f",
        "zero-stride", "negative-dt", "nan-dt", "two-samples", "tiny-dt",
        "huge-stride", "huge-t_b", "extract-energy-huge-t_b"])
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
], ids=["text-t_a", "null-t_b", "list-kick", "list-packet", "list-chi",
        "text-chi-k", "unknown-smearing", "null-delta_Ew", "nan-delta_Ew",
        "text-small_f_count", "one-strength", "equal-strengths",
        "tied-small-f-head", "scalar-sweep-values", "list-config",
        "numeric-text-t_b", "nan-p_center", "inf-t_b", "list-recipe",
        "nan-chi-amplitude", "huge-response-t_b"])
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch,
                                          command, config):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution ran before the config was checked")

    monkeypatch.setattr(ev, "run_branches", no_evolution)
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert single_error_line(capsys)["exit_code"] == 1


@pytest.mark.parametrize("argv", [
    ["check-basis", "--config", "CFG", "--out", "OUT", "--jobs", "2"],
    ["sweep", "--config", "CFG", "--out", "OUT", "--jobs", "x"],
    ["check-basis", "--config", "CFG", "--out", "OUT", "--seed", "1.5"],
    ["check-basis", "--config", "CFG", "--out", "OUT", "--bogus"],
    ["nope"],
    [],
], ids=["jobs-outside-sweep", "text-jobs", "fractional-seed", "unknown-option",
        "unknown-subcommand", "no-subcommand"])
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
