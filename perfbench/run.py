#!/usr/bin/env python3
"""me2ph benchmark: conversion and evaluation, end to end and per layer.

    python3 perfbench/run.py --workload paper-example --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process calls the public API sequentially (closed loop) in
whole rounds until ``--seconds`` have passed.  A round makes passes over the
workload's inputs: conversions, pdf and cdf on fixed grids, the Monte Carlo
check, and file round trips.  Every operation is checked against references
computed apart from the package; one that raises or misses its check counts
as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, each the median over the run's passes; with
``--trace 1`` they are per-layer self times and counts from wrapped functions.
"""

import os

# one BLAS thread, here and in the set-up processes: dense solves time
# steadier between processes than with two
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Passes per round over the workload's inputs, per operation (convert first).
# Short operations are repeated so that their median over a run repeats
# within the bound; one paper-example round takes about 20 s.
PASSES = {
    "paper-example": {"convert": 8, "pdf": 1, "cdf": 1, "mc": 1, "io": 2},
    "long-cycle": {"convert": 5, "pdf": 3, "cdf": 2, "mc": 1, "io": 15},
    "random-batch": {"convert": 2, "pdf": 1, "cdf": 1, "mc": 2, "io": 6},
}
SETUP_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"), ("convert_s", "s"), ("ph_order", "states"), ("pdf_s", "s"),
    ("cdf_s", "s"), ("mc_s", "s"), ("io_s", "s"), ("output_mb", "MB"), ("peak_rss_mb", "MB"),
)


def require_source() -> None:
    """Exit with a message, printing no result, if the checkout has no package source."""
    if not (SRC / "me2ph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'me2ph'}")


def import_package():
    """Import me2ph from this checkout's ``src``."""
    require_source()
    sys.path.insert(0, str(SRC))
    import me2ph

    if Path(me2ph.__file__).resolve().parent != (SRC / "me2ph").resolve():
        sys.exit(f"perfbench: imported me2ph from {me2ph.__file__}, not from {SRC}")
    return me2ph


def setup_child(workload: str, seed: int) -> None:
    """What ``setup_s`` times: import, build the inputs, one warm-up conversion."""
    me2ph = import_package()
    from workloads import build_cases

    cases = build_cases(workload, seed)
    me2ph.convert(cases[0].rep)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time, from spawn to ready, of fresh set-up processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-child", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - started
        if not ready or proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


# --------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _rel_err(values, ref) -> float:
    """Largest relative error, with the floor the package's own equivalence
    check uses (1e-9 of the largest reference value)."""
    floor = max(float(np.abs(ref).max()), 1e-300) * 1e-9
    return float((np.abs(values - ref) / np.maximum(np.abs(ref), floor)).max())


def check_conversion(me2ph, case, ph, rel_tol):
    w = np.concatenate([ph.head_gamma, ph.tail_weights])
    if w.min() < 0:
        return f"negative initial weight {w.min():.3g}"
    if abs(w.sum() - 1.0) > 1e-9:
        return f"initial mass {w.sum():.15g}"
    if any(not (b.sigma > 0 and 0 <= b.z < 1) for b in ph.blocks):
        return "block with a nonpositive rate or a feedback outside [0, 1)"
    if ph.tail_n and not ph.tail_lambda > 0:
        return "nonpositive tail rate"
    if ph.prefix_length != case.prefix_l:
        return f"prefix length {ph.prefix_length}, expected {case.prefix_l}"
    if ph.prefix_length and not ph.prefix.mu > 0:
        return "nonpositive prefix rate"
    err = _rel_err(np.asarray(me2ph.phrep_moments(ph, 3)), case.moments_ref)
    if err > rel_tol:
        return f"moments off by {err:.3g} relative"
    return None


def check_pdf(case, values, rel_tol):
    err = _rel_err(values, case.pdf_ref)
    if case.closed_form is not None:
        err = max(err, _rel_err(values, case.closed_form(case.pdf_grid)))
    return None if err <= rel_tol else f"pdf off by {err:.3g} relative"


def check_cdf(case, values, rel_tol):
    err = float(np.abs(values - case.cdf_ref).max())
    return None if err <= rel_tol else f"cdf off by {err:.3g}"


def check_round_trip(ph, back):
    same = (
        back.blocks == ph.blocks
        and back.tail_n == ph.tail_n
        and back.tail_lambda == ph.tail_lambda
        and np.array_equal(back.head_gamma, ph.head_gamma)
        and np.array_equal(back.tail_weights, ph.tail_weights)
        and back.prefix_length == ph.prefix_length
        and (not ph.prefix_length or back.prefix.mu == ph.prefix.mu)
    )
    return None if same else "file did not round-trip bit-exactly"


# --------------------------------------------------------------------------


class Runner:
    """Runs rounds of one workload and keeps samples and failures."""

    def __init__(self, me2ph, workload, cases, tracer):
        from workloads import MC_SAMPLES, MC_SEED

        self.me2ph = me2ph
        self.workload = workload
        self.cases = cases
        self.tracer = tracer
        rel_tol = me2ph.DEFAULT_TOL.equivalence_rel
        self.rel_tol = rel_tol
        ks_max = me2ph.ks_threshold(MC_SAMPLES, 0.01)
        # evaluation operations: which inputs, the call, the check of the result
        self.evaluations = {
            "pdf": (lambda c: True, lambda ph, c: me2ph.phrep_pdf(ph, c.pdf_grid),
                    lambda c, v: check_pdf(c, v, rel_tol)),
            "cdf": (lambda c: True,
                    lambda ph, c: me2ph.phrep_cdf_grid(ph, c.cdf_grid),
                    lambda c, v: check_cdf(c, v, rel_tol)),
            "mc": (lambda c: c.monte_carlo,
                   lambda ph, c: me2ph.monte_carlo_check(ph, MC_SAMPLES, MC_SEED),
                   lambda c, ks: None if ks < ks_max else f"KS {ks:.4g} >= {ks_max:.4g}"),
        }
        self.samples = {op: [] for op in PASSES[workload]}
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (operation, case, reason)
        self.round_failures: list[set] = []
        self.ph_order = 0
        self.output_bytes = 0
        self.peak_rss_mb = None

    def _op(self, op, case, call, check):
        """Time one call into the package, then check its result outside
        the timed region.  Returns (seconds, result or None)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self.tracer.span(f"bench.{op}"):
                result = call()
        except Exception as exc:  # any raise is a failed operation; keep going
            elapsed = time.perf_counter() - started
            self._fail(op, case, f"{type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - started
        tracing = self.tracer.active
        self.tracer.active = False  # checks are not part of any layer's time
        try:
            reason = check(result)
        finally:
            self.tracer.active = tracing
        if reason is not None:
            self._fail(op, case, reason)
        return elapsed, result

    def _fail(self, op, case, reason):
        self.failures.append((op, case.name, reason))
        self.round_failures[-1].add((op, case.name))

    def round(self):
        """One round: each input in turn goes through every operation's
        passes, spread evenly (convert first).  A pass total sums one call
        per input, so its calls fall all over the round, and a slow spell of
        the machine touches every metric alike."""
        self.round_failures.append(set())
        passes = PASSES[self.workload]
        slots = sorted((k / n, i, op, k) for i, (op, n) in enumerate(passes.items())
                       for k in range(n))
        totals = {op: [0.0] * n for op, n in passes.items()}
        self.ph_order = self.output_bytes = 0
        OUT.mkdir(parents=True, exist_ok=True)
        for index, case in enumerate(self.cases):
            ph, written = None, 0
            for _, _, op, k in slots:
                if op == "convert":
                    dt, ph = self._convert(case)
                elif op == "io":
                    dt, written = self._round_trip(case, ph, OUT / f"{self.workload}-{index}.json")
                else:
                    dt = self._evaluate(op, case, ph)
                totals[op][k] += dt
            self.ph_order += ph.order if ph is not None else 0
            self.output_bytes += written
        for op, pass_totals in totals.items():
            self.samples[op] += pass_totals
        if self.peak_rss_mb is None:
            # high-water mark after one round: the package keeps the state of
            # every evaluated object alive, so each later round adds to it,
            # and their number depends on the run length
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _convert(self, case):
        me2ph = self.me2ph
        dt, res = self._op("convert", case, lambda: me2ph.convert(case.rep),
                           lambda r: check_conversion(me2ph, case, r[0], self.rel_tol))
        return dt, (res[0] if res is not None else None)

    def _evaluate(self, op, case, ph) -> float:
        """Evaluations run on a fresh equal copy of the output: the package
        caches evaluation state per object, so every timing is cold."""
        applies, call, check = self.evaluations[op]
        if not applies(case):
            return 0.0
        if ph is None:
            self.attempted += 1
            self._fail(op, case, "no conversion output")
            return 0.0
        fresh = dataclasses.replace(ph)
        dt, _ = self._op(op, case, lambda: call(fresh, case), lambda v: check(case, v))
        return dt

    def _round_trip(self, case, ph, path) -> tuple[float, int]:
        """Seconds of one write and read back, and the bytes written."""
        if ph is None:
            self.attempted += 1
            self._fail("io", case, "no conversion output")
            return 0.0, 0
        me2ph = self.me2ph
        for old in OUT.glob(path.name + "*"):
            old.unlink()

        def round_trip():
            me2ph.io.write_ph_file(ph, path)
            return me2ph.io.read_ph_file(path)

        dt, _ = self._op("io", case, round_trip, lambda back: check_round_trip(ph, back))
        return dt, sum(p.stat().st_size for p in OUT.glob(path.name + "*"))

    def run_rounds(self, seconds: float) -> int:
        """Whole rounds until ``seconds`` have passed; at least one."""
        started = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - started < seconds:
            self.round()
            rounds += 1
        return rounds


def published_regression(me2ph, case) -> bool:
    """Paper example with the published constants: rate 806600, order 403309."""
    from workloads import PUBLISHED_ORDER, PUBLISHED_RATE

    try:
        ph, report = me2ph.convert(case.rep, paper_bounds=me2ph.PaperBounds())
    except Exception as exc:  # a raise here is a wrong result, not a crash
        print(f"perfbench: published constants raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return False
    ok = report.bounds.rate == PUBLISHED_RATE and ph.order == PUBLISHED_ORDER
    if not ok:
        print(f"perfbench: published constants gave rate {report.bounds.rate}, "
              f"order {ph.order}", file=sys.stderr)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-example", "long-cycle", "random-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    require_source()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    me2ph = import_package()
    import me2ph.io  # noqa: F401  (file round trips go through me2ph.io)
    from tracing import Tracer, metric_names
    from workloads import attach_references, build_cases

    cases = build_cases(args.workload, args.seed)
    for case in cases:
        attach_references(case)
    me2ph.convert(cases[0].rep)  # warm-up, as in set-up
    correct = True
    if args.workload == "paper-example":
        correct = published_regression(me2ph, cases[0])

    tracer = Tracer()
    runner = Runner(me2ph, args.workload, cases, tracer)
    if args.trace:
        # traced and untraced rounds alternate, traced first, so the first
        # round's one-off costs count against tracing, not for it
        durations = {True: [], False: []}
        tracer.install()
        started = time.perf_counter()
        while not durations[False] or time.perf_counter() - started < args.seconds:
            tracer.active = len(durations[True]) <= len(durations[False])
            t0 = time.perf_counter()
            runner.round()
            durations[tracer.active].append(time.perf_counter() - t0)
        tracer.active = False
        tracer.uninstall()
        rounds = len(durations[True])
        values = tracer.layer_metrics(rounds)
        values["trace.overhead_ratio"] = (statistics.median(durations[True])
                                          / statistics.median(durations[False]))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        units = dict(metric_names())
    else:
        rounds = runner.run_rounds(args.seconds)
        values = {f"{op}_s": statistics.median(v) for op, v in runner.samples.items()}
        values["setup_s"] = setup_s
        values["ph_order"] = runner.ph_order
        values["output_mb"] = runner.output_bytes / 1e6
        values["peak_rss_mb"] = runner.peak_rss_mb
        units = dict(END_TO_END)

    # the same operations must fail in every round: rounds repeat exactly
    if any(f != runner.round_failures[0] for f in runner.round_failures):
        print("perfbench: failures differ between rounds", file=sys.stderr)
        correct = False
    for op, name, reason in sorted(set(runner.failures)):
        print(f"perfbench: failed {op} on {name}: {reason}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
