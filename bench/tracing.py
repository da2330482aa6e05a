"""Spans around calls into diracsea's modules, installed from outside.

``Tracer.install`` wraps every public function of each package module, plus
the few methods and private helpers that per-layer metrics name, in every
module namespace (and module-level dict, such as ``cli.RUNNERS``) that binds
them.  No source is edited; ``uninstall`` puts the originals back.  Spans
stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter

LAYERS = ("lattice", "vacua", "operators", "fock", "schwinger", "evolution",
          "response", "checks", "cli")

# Span names that differ from "<layer>.<function>".  Several functions may
# share one name; a span nested inside another of the same name does not add
# to that name's busy time, so shared names never count time twice.
ALIASES = {
    "lattice.ModeBasis.free_hamiltonian_matrix": "lattice.free_hamiltonian_matrix",
    "operators.charge_kernel": "operators.one_body_kernel",
    "operators.current_kernel": "operators.one_body_kernel",
    "operators.free_hamiltonian_kernel": "operators.one_body_kernel",
    "schwinger.schwinger_standard": "schwinger.kernel_build",
    "schwinger.schwinger_band": "schwinger.kernel_build",
    "schwinger.SchwingerKernel.values": "schwinger.values",
    "schwinger.divergence_of_kernel": "schwinger.divergence",
    "schwinger.divergence_diag_closed_form": "schwinger.closed_form",
    "schwinger.f2_identity_check": "schwinger.f2_identity",
    "response.ResponseKernel.build": "response.kernel_build",
    "response._time_grid": "response.time_grid",
    "response.gauge_variation_response": "response.contraction",
    "checks.oracle_suite": "checks.oracle",
    "checks.oracle_commutator_defect": "checks.oracle",
    "checks.oracle_subtraction_defect": "checks.oracle",
    "checks.spectrum_positivity": "checks.oracle",
    "checks.band_spectrum_negative_level": "checks.oracle",
    "cli._write_csv": "cli.write_csv",
    "cli._write_manifest": "cli.manifest",
}

# Work counted per span, read from the call's arguments and result.  For a
# time step the value is the lattice site count, which splits step times by N.
COUNTS = {
    "evolution.step": lambda args, out: args[0].basis.config.site_count,
    "schwinger.kernel_build": lambda args, out: len(out.occupied) * len(out.partners),
    "response.kernel_build": lambda args, out: len(out.omega),
    "response.time_grid": lambda args, out: len(out[0]),
    "fock.bilinear_matrix": lambda args, out: int(out.nnz),
    "cli.write_csv": lambda args, out: len(args[2]),
}

STEP_SIZES = (27, 81, 201)
PACKAGE = "diracsea"


def _targets():
    """(qualified name, owner, attribute, original) for every wrapped callable."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not name.startswith("_") or f"{layer}.{name}" in ALIASES)):
                found.append((f"{layer}.{name}", module, name, obj))
        for qualified in ALIASES:
            parts = qualified.split(".")
            if parts[0] == layer and len(parts) == 3:
                cls = getattr(module, parts[1])
                found.append((qualified, cls, parts[2], cls.__dict__[parts[2]]))
    return found


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent, op, count, child_s, nested]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None, 0.0, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1
                if parent >= 0:
                    spans[parent][6] += span[2] - span[1]
            if count is not None:
                span[5] = count(args, out)
            return out

        return traced

    def install(self):
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for qualified, owner, attr, original in _targets():
            name = ALIASES.get(qualified, qualified)
            if isinstance(original, property):
                replacement = property(self._wrap(name, original.fget))
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            self._patch(owner, attr, replacement)
            if inspect.isclass(owner):
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, replacement)
                    elif isinstance(value, dict):
                        for entry, bound in list(value.items()):
                            if bound is original:
                                self._patch(value, entry, replacement)

    def _patch(self, owner, key, replacement):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, replacement)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-pass totals keyed "<span>.s", "<span>.calls", "<span>.count",
    "<layer>.self_s" and "evolution.step.ms_N<n>"."""
    out: dict[str, float] = Counter()
    steps: dict[int, list[float]] = {}
    for name, start, end, _, _, count, child_s, nested in spans:
        duration = end - start
        if not nested:
            out[f"{name}.s"] += duration
        out[f"{name}.calls"] += 1
        if count is not None:
            out[f"{name}.count"] += count
        out[f"{name.split('.')[0]}.self_s"] += duration - child_s
        if name == "evolution.step":
            steps.setdefault(count, []).append(duration)
    for size in STEP_SIZES:
        durations = steps.get(size)
        out[f"evolution.step.ms_N{size}"] = (
            1e3 * statistics.median(durations) if durations else 0.0)
    return out


def metric_value(name: str, totals: dict[str, float]) -> float:
    """Value of a per-layer metric named in BENCHMARK.json from pass totals."""
    stem, _, stat = name.rpartition(".")
    if stat in ("pairs", "nnz", "rows"):
        return int(totals.get(f"{stem}.count", 0))
    if name == "response.time_samples":
        return int(totals.get("response.time_grid.count", 0))
    if stat == "calls" or name == "cli.artifact_bytes":
        return int(totals.get(name, 0))
    return float(totals.get(name, 0.0))


def write(spans: list[list], path) -> None:
    """One CSV line per span: name, start, end, parent, op, count."""
    with open(path, "w") as handle:
        handle.write("name,start_s,end_s,parent,op,count\n")
        for name, start, end, parent, op, count, _, _ in spans:
            handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op},"
                         f"{'' if count is None else count}\n")
