#!/usr/bin/env python3
"""Simulate absorption times of converted representations and report KS stats.

Small sanity experiment: convert a handful of distributions, draw samples from
the resulting absorbing chains, and compare the empirical law against the
structured distribution function.  ``monte_carlo_check`` takes it from
``phrep_cdf_grid`` on a uniform 4,097-point grid ``x_j = j h``, which on an
output of up to ``tail._SPARSE_STATES`` states the evaluator's rule gives to
the powers of one step ``exp(B h)`` of the dense pair: the running sum of the
masses absorbed in one step ``h``.  Larger outputs take windowed Poisson sums.

``--compare`` also evaluates each check's grid by both paths, forced: the
powers of one step (only up to ``tail._SPARSE_STATES`` states) and the Poisson
path the rule prices lower, the one chain or the convolution.  It prints the
largest ``|F_steps - F_poisson|`` with the KS statistic from each.
"""

import argparse

import numpy as np

from me2ph import MERep, convert, ks_threshold, monte_carlo_check
from me2ph.spectral import SpectralData, SpectralTerm, minimal_representation
from me2ph.tail import _SPARSE_STATES, _cheapest_path, _grid_values, _poisson_values, _progression
from me2ph.validate import _check_sample, _ks_statistic


def damped_rep(amp: complex, eta: complex):
    """exp(-x) plus the damped oscillation ``2 Re(amp exp(eta x))``, normalized."""
    raw = {(-1.0 + 0j): 1.0, eta: amp, eta.conjugate(): amp.conjugate()}
    total = sum(c / -e for e, c in raw.items()).real
    terms = tuple(SpectralTerm(e, (c / total,)) for e, c in raw.items())
    return minimal_representation(SpectralData(terms, dominant=0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare", action="store_true",
                        help="evaluate each grid both ways and print how far they differ")
    args = parser.parse_args()

    cases = {
        "exponential(1)": MERep(np.array([1.0]), np.array([[-1.0]])),
        "erlang(4, 2)": MERep(
            np.array([1.0, 0, 0, 0]), np.diag([-2.0] * 4) + np.diag([2.0] * 3, 1)
        ),
        # a deeper damped oscillation; needs a genuine tail
        "damped oscillation": damped_rep((0.35 + 0.3j) / 0.62, -2.0 + 1.2j),
        # one feedback-Erlang block of 189 states, no tail
        "long cycle": damped_rep(0.3 + 0j, -1.1 + 6j),
    }
    threshold = ks_threshold(args.samples)
    print(f"samples per case: {args.samples}, KS threshold (1%): {threshold:.5f}")
    for name, rep in cases.items():
        ph, report = convert(rep)
        ks = monte_carlo_check(ph, samples=args.samples, seed=args.seed)
        tail = f"tail n={ph.tail_n}" if ph.tail_n else "no tail"
        flag = "ok" if ks <= threshold else "FAIL"
        print(f"{name}: order {ph.order} ({tail}), KS = {ks:.5f} [{flag}]")
        if args.compare:
            times, grid = _check_sample(ph, args.samples, args.seed)
            one_chain = _cheapest_path(ph, grid, None) == "one chain"
            poisson = np.clip(_poisson_values(ph, grid, True, one_chain), 0.0, 1.0)
            if ph.order > _SPARSE_STATES:
                print(f"  above {_SPARSE_STATES} states: Poisson sums only, "
                      f"KS {_ks_statistic(times, grid, poisson):.15f}")
                continue
            steps = _grid_values(ph, *_progression(grid), grid.size, True)
            print(f"  max |F_steps - F_poisson| = {np.abs(steps - poisson).max():.2e}, "
                  f"KS steps {_ks_statistic(times, grid, steps):.15f}, "
                  f"poisson {_ks_statistic(times, grid, poisson):.15f}")


if __name__ == "__main__":
    main()
