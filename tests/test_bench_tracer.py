"""The benchmark's tracer still finds every name it wraps.

``bench/run.py`` also runs traced, and the tracer dies if a function or
method it wraps has been renamed or deleted; this runs it on one small
``schwinger``.
"""

import json
from pathlib import Path

from diracsea import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_and_restores_the_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = cli._write_csv
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"lattice": {"L": 6.283185307179586, "N": 9, "m": 1.0, "q": 1.0}}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli._write_csv is not original
        code = cli.main(["schwinger", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.write_csv", "schwinger.kernel_build"} <= names
    assert cli._write_csv is original
