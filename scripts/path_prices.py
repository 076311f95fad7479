#!/usr/bin/env python3
"""Time both Poisson paths of the evaluator and check the pick of its rule.

``tail._cheapest_path`` prices three ways to evaluate a structured output:
the powers of one step on a uniform grid, the Poisson sums of the one chain,
and those of the slow chain convolved with the tail.  This script times
``phrep_pdf``'s two Poisson paths, each forced, on scattered points, where no
grid path exists, and prints which the rule picks.

The outputs are the paper example's (41 states), the four tail anchors' of
the benchmark's random batch, the certified 219-state output of the first
anchor (its 8-state body with the certificate's tail, in units of the mean),
and a 305-state output (a 241-state body whose certificate overflows, with a
searched tail).  Each is evaluated at 1 point (0.7 means), at 16 sorted
uniform points on [0, 4 means) and at 257 on [0, 20 means), the same draws
from ``default_rng(0)`` for every output.  A path's time is the smallest of
at least three calls and 0.2 s of calls.

Run from the root of a source checkout, with one BLAS thread:

    python3 scripts/path_prices.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

from me2ph import (  # noqa: E402
    MERep,
    TailChoice,
    analyze_spectrum,
    append_tail,
    build_generator,
    compute_bounds,
    convert,
    find_tau,
    phrep_moments,
    solve_gamma,
)
from me2ph.tail import _cheapest_path, _poisson_values, _progression  # noqa: E402
from workloads import PAPER_A, PAPER_ALPHA, TAIL_ANCHORS, _damped_terms, _rep_from_terms  # noqa: E402

# the damped oscillation whose certified rate exceeds 1e15: a 241-state body
OVERFLOWING = (1.39252846017499, 29.982029705468896, 1.0038715080476077, 3.402101183476623)


def certified_output(rep):
    """The body of ``rep`` with the certificate's tail, in units of the mean."""
    spec = analyze_spectrum(rep).scaled(rep.mean_scale)
    mono = solve_gamma(spec, build_generator(spec))
    return append_tail(mono, TailChoice.certified(compute_bounds(mono, *find_tau(mono, spec), spec)))


def outputs():
    """``(name, output)`` of every output timed."""
    yield "paper", convert(MERep(PAPER_ALPHA, PAPER_A))[0]
    anchors = [_rep_from_terms(_damped_terms(*p)) for p in TAIL_ANCHORS]
    for i, rep in enumerate(anchors):
        yield f"anchor-{i}", convert(rep)[0]
    yield "anchor-0 certified", certified_output(anchors[0])
    yield "overflowing", convert(_rep_from_terms(_damped_terms(*OVERFLOWING)))[0]


def seconds(call) -> float:
    """The smallest time of at least three calls and 0.2 s of calls."""
    times, spent = [], 0.0
    while len(times) < 3 or spent < 0.2:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return min(times)


def main() -> None:
    rng = np.random.default_rng(0)
    draws = {1: np.array([0.7]), 16: 4 * np.sort(rng.random(16)), 257: 20 * np.sort(rng.random(257))}
    picked_faster = cases = 0
    print(f"{'output':<20}{'order':>7}{'points':>8}{'one chain ms':>14}{'convolution ms':>16}  pick")
    for name, ph in outputs():
        mean = phrep_moments(ph, 1)[0]
        for size, unit in draws.items():
            xs = mean * unit
            pick = _cheapest_path(ph, xs, _progression(xs))
            ms = {path: 1e3 * seconds(lambda: _poisson_values(ph, xs, False, path == "one chain"))
                  for path in ("one chain", "convolution")}
            faster = min(ms, key=ms.get)
            cases += 1
            picked_faster += pick == faster
            mark = "" if pick == faster else "  (slower)"
            print(f"{name:<20}{ph.order:>7}{size:>8}{ms['one chain']:>14.3f}{ms['convolution']:>16.3f}"
                  f"  {pick}{mark}")
    print(f"picked the faster path: {picked_faster} of {cases}")


if __name__ == "__main__":
    main()
