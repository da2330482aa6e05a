"""Benchmark of diracsea, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]

One workload runs in this process as a closed loop: a warm-up pass, then
passes back to back until the ``run_seconds`` of BENCHMARK.json have gone by.
``--seconds`` is accepted for callers that pass the run length along, and must
equal ``run_seconds``, so a run has one length however it is launched.
Every operation's outputs are checked.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer
metrics.  ``--workload all`` (the default) runs every workload, untraced and
traced, each in a fresh process, and prints a summary of all of them.  See
bench/README.md.
"""

import os

# Single-threaded BLAS, pinned before numpy loads: on a 2-core machine thread
# scheduling alone swings one N = 27 step tenfold.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing diracsea.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import diracsea.cli"], cwd=ROOT,
                       env=_env_with_src(), check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = found.stdout.strip() if found.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                "openblas configuration")},
        "threads": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def artifact_bytes(out: Path) -> int:
    """Bytes of the hashed artifacts listed in every manifest under ``out``."""
    total = 0
    for manifest in out.rglob("manifest.json"):
        files = json.loads(manifest.read_text()).get("files", {})
        total += sum((manifest.parent / name).stat().st_size for name in files)
    return total


class Runner:
    """Runs passes over one workload's operations and tallies the outcome."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.op_seconds = {op.name: [] for op in ops}
        self.passes = 0

    def run_pass(self, traced: bool = False):
        """One pass; returns (wall seconds, artifact bytes)."""
        # relative, fixed-width names under the work directory (the current
        # one): a sweep's index records its point paths, so the artifact bytes
        # must depend neither on where the checkout is nor on the pass number
        outs = [Path(f"pass{self.passes:04d}_op{i:02d}") for i in range(len(self.ops))]
        results = []
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            for i, (op, out) in enumerate(zip(self.ops, outs)):
                if traced:
                    self.tracer.op = self.passes * len(self.ops) + i
                op_start = time.perf_counter()
                try:
                    results.append(op.run(out))
                except Exception:  # an operation's crash is counted, not fatal
                    results.append((None, traceback.format_exc()))
                except SystemExit as exc:  # argparse, or sys.exit in the package
                    code = 0 if exc.code is None else exc.code
                    results.append((code if isinstance(code, int) else 1, str(exc.code)))
                self.op_seconds[op.name].append(time.perf_counter() - op_start)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        written = sum(artifact_bytes(out) for out in outs if out.exists())
        for op, out, (code, payload) in zip(self.ops, outs, results):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                what = "raised" if code is None else f"exit code {code}"
                self.note(f"{op.name}: {what}: {str(payload).strip()[-400:]}")
                continue
            try:
                found = op.check(out, payload)
            except Exception:  # unreadable output is a wrong output
                found = [traceback.format_exc(limit=2)]
            if found:
                self.failed += 1
                self.correct = False
                self.note(f"{op.name}: " + "; ".join(found))
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        self.passes += 1
        return elapsed, written

    def compare_counts(self, name: str, values: list):
        """A count that differs between traced passes is a wrong result."""
        if len(set(values)) > 1:
            self.correct = False
            self.note(f"count {name} differs between traced passes: {values}")

    def note(self, text: str):
        print(f"bench: {text}", file=sys.stderr)
        if len(self.problems) < 10:
            self.problems.append(text)


def run_workload(args, spec: dict) -> dict:
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import diracsea

    if Path(diracsea.__file__).resolve().parent != (SRC / "diracsea").resolve():
        sys.exit(f"bench: imported diracsea from {diracsea.__file__}, not {SRC}")
    from tracing import Tracer, layer_metrics, metric_value, write
    from workloads import Workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid():07d}"
    work.mkdir(parents=True)
    os.chdir(work)  # operations get paths relative to it
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(Workloads(ROOT, work, args.seed).build(args.workload), tracer)
        runner.run_pass()  # warm-up: lazy imports, caches, first allocations
        plain, traced, totals = [], [], []
        start = time.perf_counter()
        # a traced run makes at least two traced passes, to compare their counts
        while (time.perf_counter() - start < spec["run_seconds"]
               or (args.trace and len(traced) < 2)):
            plain.append(runner.run_pass()[0])
            if args.trace:
                first = len(tracer.spans)
                elapsed, written = runner.run_pass(traced=True)
                traced.append(elapsed)
                pass_totals = layer_metrics(tracer.spans[first:])
                pass_totals["cli.artifact_bytes"] = written
                totals.append(pass_totals)
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            write(tracer.spans,
                  out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(plain)
    if args.trace:
        overhead = statistics.median(traced) - run_s
        metrics = {}
        for entry in spec["per_layer"]:
            values = [metric_value(entry["name"], t) for t in totals]
            if entry["name"] == "trace.overhead_s":
                value = overhead
            elif entry["unit"] in ("count", "bytes"):
                value = values[0]
                runner.compare_counts(entry["name"], values)
            else:
                value = statistics.median(values)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        measured = {"setup_s": setup_s, "run_s": run_s,
                    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": runner.passes, "run_s_samples": plain,
            "op_s_median": {name: statistics.median(times)
                            for name, times in runner.op_seconds.items()},
            "problems": runner.problems, "environment": environment()}
    print(json.dumps({"info": info}))
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args, spec: dict) -> dict:
    """Each workload in a fresh process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(found.stderr)
            lines = found.stdout.strip().splitlines()
            if found.returncode != 0 or len(lines) < 2:
                sys.exit(f"bench: workload {name} (trace {trace}) exited "
                         f"{found.returncode}")
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            if trace == 0:
                print(f"== {name}: attempted {result['attempted']}, failed "
                      f"{result['failed']}, correct {result['correct']}, "
                      f"{info['passes']} passes")
                print("   environment: " + json.dumps(info["environment"]))
                for op, seconds in info["op_s_median"].items():
                    print(f"   op {op}: {seconds:.4f} s")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"   {metric} = {shown} {entry['unit']}")
                combined["metrics"][f"{name}.{metric}"] = entry
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    return combined


def main() -> int:
    if not (SRC / "diracsea" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"bench: needs BENCHMARK.json and the diracsea source under {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="forwarded to the CLI's --seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g}: the run length is "
                     f"run_seconds = {spec['run_seconds']} in BENCHMARK.json")
    result = run_all(args, spec) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
