"""Per-layer tracing of me2ph from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
listed public function, under every name a caller can look it up by (the
defining module, the modules that imported it, the package), with a wrapper
that records a span: name, start, end and the index of the enclosing span.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Public functions wrapped per layer: the ones on the conversion and
# evaluation paths that an optimisation is likely to move.
LAYER_FUNCTIONS = {
    "pipeline": ("convert",),
    "spectral": ("cluster_eigenvalues", "analyze_spectrum", "minimal_representation",
                 "expansion_values", "density_evaluator", "check_dec", "check_c_conditions"),
    "core": ("derivatives_at_zero", "pdf_eval", "pdf_eval_many"),
    "deconv": ("zero_multiplicity", "choose_mu", "deconvolve", "recompose"),
    "monocyclic": ("build_generator", "fe_block_for", "solve_transformation_matrix",
                   "solve_gamma"),
    "tail": ("find_tau", "compute_bounds", "append_tail", "phrep_pdf", "phrep_cdf_grid"),
    "validate": ("check_markovian", "check_positive_density", "simulate_absorption_times",
                 "monte_carlo_check"),
    "io": ("write_ph_file", "read_ph_file"),
}

# Counters beyond self time and calls, with their units (README: what each is).
EXTRA_METRICS = {
    "monocyclic.w_system_mb": "MB",  # largest dense W system, computed
    "deconv.mu_doublings": "count",
    "tail.states": "states",
    "tail.retries": "count",
    "io.bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            out += [(f"{layer}.{fn}_s", "s"), (f"{layer}.{fn}_calls", "count")]
    out += list(EXTRA_METRICS.items())
    return out


def _w_system(counters, args, kwargs, result):
    rep, mono = args[0], args[1]
    n, u = rep.order, mono.order
    itemsize = 16 if rep.is_complex() else 8
    mb = (n * u + n) * (n * u) * itemsize / 1e6
    counters["monocyclic.w_system_mb"] = max(counters["monocyclic.w_system_mb"], mb)


def _tail_counts(counters, args, kwargs, result):
    bounds = args[1] if len(args) > 1 else kwargs["bounds"]
    counters["tail.states"] += result.tail_n
    counters["tail.retries"] += int(result.tail_n != bounds.n)


def _bytes_written(counters, args, kwargs, result):
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    counters["io.bytes"] += sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


OBSERVERS = {
    "monocyclic.solve_transformation_matrix": _w_system,
    "tail.append_tail": _tail_counts,
    "io.write_ph_file": _bytes_written,
}


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself around a call into the package."""
        idx = self._open(name) if self.active else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "me2ph") -> None:
        """Wrap every listed function under each name that refers to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Self time and calls per round for every wrapped function, plus
        the extra counters (per round, except the largest W system)."""
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        doublings = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "deconv.deconvolve" and parent >= 0 and self.spans[parent][0] == "deconv.choose_mu":
                doublings += 1
        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fn in names:
                key = f"{layer}.{fn}"
                out[key + "_s"] = self_time[key] / rounds
                out[key + "_calls"] = calls[key] / rounds
        out["monocyclic.w_system_mb"] = self.counters["monocyclic.w_system_mb"]
        out["deconv.mu_doublings"] = doublings / rounds
        for key in ("tail.states", "tail.retries", "io.bytes"):
            out[key] = self.counters[key] / rounds
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(s, 9), round(e, 9), p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}))
