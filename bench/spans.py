"""Span tracing of cbftorus from outside the package, and the layer metrics
computed from the spans.

Only a traced workload process calls :func:`install`.  It wraps every public
module-level function of the cbftorus modules, a few class methods, and
``numpy.fft.fftn``/``ifftn`` (``operators.physical_jacobian`` calls numpy
directly rather than ``fields.to_physical``).  A span is (name, start, end,
parent); spans stay in memory and :meth:`SpanRecorder.save` writes them to one
``.npz`` file when the execution ends.  A layer's self time is its span's
duration minus the durations of its direct child spans (the process is
single-threaded, so children never overlap).
"""

import os
import sys
import time
import types

import numpy as np

# The package's modules; their names are the layer names.
LAYER_MODULES = ("grid", "fields", "spectral", "operators", "families",
                 "solver", "verification", "config", "snapshot", "cli")

# The 17 checks of ``cbftorus verify`` with ``checks = all``.
VERIFY_CHECKS = (
    "trilinear", "monotone_shifted", "monotone_critical", "advection_splitting",
    "local_2d", "damping_monotone", "damping_lipschitz", "mvt",
    "dissipation_identity", "interpolation", "advection_bounds", "filter",
    "operator_continuity", "gronwall", "continuous_dependence", "apriori",
    "regularity")

NORM_FUNCTIONS = ("l2_norm", "grad_norm", "h1_norm", "dual_norm", "lp_norm",
                  "l2_pairing")

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes


def _package_modules():
    return [sys.modules[f"cbftorus.{name}"] for name in LAYER_MODULES]


def rebind(original, replacement):
    """Point every module-level reference to ``original`` at ``replacement``.

    The package imports with ``from .x import name``, so each importing module
    holds its own reference; registries such as ``families.FAMILIES`` hold
    more of them.
    """
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement


class SpanRecorder:
    """Spans in flat lists; ``value`` and ``nbytes`` carry per-span counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id, self.start, self.end, self.parent = [], [], [], []
        self.value, self.nbytes = [], []
        self._stack = [-1]

    def name_id_of(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(0)
        self.nbytes.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx):
        self.end[idx] = clock()
        self._stack.pop()

    def wrap(self, fn, name, measure=None):
        """``fn`` inside a span; ``measure(args, kwargs, result)`` gives
        (value, nbytes) for the span."""
        nid = self.name_id_of(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.value[idx], self.nbytes[idx] = measure(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 value=np.array(self.value, dtype=np.int64),
                 nbytes=np.array(self.nbytes, dtype=np.int64))


def _fft_work(args, kwargs, result):
    """Component transforms in one fftn/ifftn call, and the bytes it reads
    and writes as computed from the array sizes (not measured traffic)."""
    a = np.asarray(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(a.ndim) if axes is None else axes
    points = int(np.prod([a.shape[ax] for ax in axes]))
    return a.size // points, a.nbytes + result.nbytes


def _seed_of_draw(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["s"]), 0


def _snapshot_bytes(args, kwargs, result):
    return 0, os.path.getsize(args[0] if args else kwargs["path"])


def install(recorder):
    """Wrap the cbftorus layers so that every call records a span."""
    import cbftorus  # noqa: F401  (loads every layer module)
    fields = sys.modules["cbftorus.fields"]
    grid = sys.modules["cbftorus.grid"]
    verification = sys.modules["cbftorus.verification"]
    cli = sys.modules["cbftorus.cli"]

    measures = {"snapshot.write_snapshot_file": _snapshot_bytes}
    for short in LAYER_MODULES:
        module = sys.modules[f"cbftorus.{short}"]
        for name, fn in list(vars(module).items()):
            if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                span = f"{short}.{name}"
                rebind(fn, recorder.wrap(fn, span, measures.get(span)))

    for cls in (fields.SpectralField, fields.PhysicalField):
        cls.__post_init__ = recorder.wrap(cls.__post_init__, "fields.construct")
    fields.SpectralField.symmetry_defect = recorder.wrap(
        fields.SpectralField.symmetry_defect, "fields.symmetry_defect")
    grid.TorusGrid.compatible = recorder.wrap(grid.TorusGrid.compatible,
                                              "grid.compatible")
    verification.FieldSampler.field_from_seed = recorder.wrap(
        verification.FieldSampler.field_from_seed, "verification.sampler.draw",
        _seed_of_draw)
    np.fft.fftn = recorder.wrap(np.fft.fftn, "fields.fft", _fft_work)
    np.fft.ifftn = recorder.wrap(np.fft.ifftn, "fields.fft", _fft_work)

    run_one_check = cli._run_one_check

    def traced_check(name, *args, **kwargs):
        idx = recorder.open(recorder.name_id_of(f"verification.check.{name}"))
        try:
            return run_one_check(name, *args, **kwargs)
        finally:
            recorder.close(idx)

    rebind(run_one_check, traced_check)


def _inside(starts, outer_start, outer_end):
    """Mask of ``starts`` that fall inside one of the sorted, disjoint
    intervals [outer_start, outer_end)."""
    i = np.searchsorted(outer_start, starts, side="right") - 1
    hit = i >= 0
    hit[hit] = starts[hit] < outer_end[i[hit]]
    return hit


def layer_metrics(path):
    """Per-layer metrics of one traced execution, from its span file.

    Times are per execution in ms; ``fields.fft.*_per_step`` and
    ``solver.compute_rates.transforms`` are per solver step / per call.
    """
    s = np.load(path)
    names = list(s["names"])
    nid, parent, value, nbytes = s["name_id"], s["parent"], s["value"], s["nbytes"]
    dur = (s["end"] - s["start"]) * 1e3
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ms = np.bincount(nid, weights=dur - child, minlength=len(names))
    total_ms = np.bincount(nid, weights=dur, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))

    def idx(name):
        return names.index(name) if name in names else None

    def agg(array, *span_names):
        return float(sum(array[i] for i in map(idx, span_names) if i is not None))

    def spans_of(name):
        i = idx(name)
        return np.flatnonzero(nid == i) if i is not None else np.array([], int)

    fft = spans_of("fields.fft")
    steps = spans_of("solver.step")
    rates = spans_of("solver.compute_rates")
    in_step = _inside(s["start"][fft], s["start"][steps], s["end"][steps])
    in_rates = _inside(s["start"][fft], s["start"][rates], s["end"][rates])
    draws = spans_of("verification.sampler.draw")
    snaps = spans_of("snapshot.write_snapshot_file")

    m = {
        "fields.fft.transforms_per_step":
            float(value[fft][in_step].sum() / max(len(steps), 1)),
        "fields.fft.self_ms": agg(self_ms, "fields.fft"),
        "fields.fft.bytes_computed_per_step":
            float(nbytes[fft][in_step].sum() / max(len(steps), 1)),
        "fields.symmetry_defect.self_ms": agg(self_ms, "fields.symmetry_defect"),
        "fields.to_physical.self_ms": agg(self_ms, "fields.to_physical"),
        "fields.to_spectral.self_ms": agg(self_ms, "fields.to_spectral"),
        "fields.construct.calls": agg(calls, "fields.construct"),
        "fields.construct.self_ms": agg(self_ms, "fields.construct"),
        "spectral.leray_project.self_ms": agg(self_ms, "spectral.leray_project"),
        "spectral.dealias.self_ms": agg(self_ms, "spectral.dealias"),
        "spectral.norms.self_ms":
            agg(self_ms, *(f"spectral.{n}" for n in NORM_FUNCTIONS)),
        "operators.physical_jacobian.self_ms":
            agg(self_ms, "operators.physical_jacobian"),
        "operators.damping_pointwise.self_ms":
            agg(self_ms, "operators.damping_pointwise"),
        "operators.advect_samples.self_ms": agg(self_ms, "operators.advect_samples"),
        "operators.cbf_operator.calls": agg(calls, "operators.cbf_operator"),
        "operators.cbf_operator.self_ms": agg(self_ms, "operators.cbf_operator"),
        "operators.advection.self_ms": agg(self_ms, "operators.advection"),
        "operators.advection_form.self_ms": agg(self_ms, "operators.advection_form"),
        "solver.step.self_ms": agg(self_ms, "solver.step"),
        "solver.compute_rates.self_ms": agg(self_ms, "solver.compute_rates"),
        "solver.compute_rates.transforms":
            float(value[fft][in_rates].sum() / max(len(rates), 1)),
        "solver.initialize_state.ms": agg(total_ms, "solver.initialize_state"),
        "families.random_band_limited.calls":
            agg(calls, "families.random_band_limited"),
        "families.random_band_limited.self_ms":
            agg(self_ms, "families.random_band_limited"),
        "config.load_config.ms": agg(total_ms, "config.load_config"),
        "verification.sampler.draws": float(len(draws)),
        "verification.sampler.unique_seed_ratio":
            float(len(np.unique(value[draws])) / max(len(draws), 1)),
        "grid.compatible.calls": agg(calls, "grid.compatible"),
        "grid.compatible.self_ms": agg(self_ms, "grid.compatible"),
        "snapshot.write.ms_per_file":
            float(dur[snaps].sum() / max(len(snaps), 1)),
        "snapshot.write.bytes": float(nbytes[snaps].sum()),
        "cli.write_diagnostics.ms": agg(total_ms, "cli.write_diagnostics"),
    }
    for check in VERIFY_CHECKS:
        m[f"verification.check.{check}.ms"] = agg(
            total_ms, f"verification.check.{check}")
    return m
