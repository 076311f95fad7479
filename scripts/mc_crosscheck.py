#!/usr/bin/env python3
"""Simulate absorption times of converted representations and report KS stats.

Small sanity experiment: convert a handful of distributions, draw samples from
the resulting absorbing chains, and compare the empirical law against the
structured distribution function (the Poisson-sum cdf of ``phrep_cdf_grid``;
these outputs are short, so it sweeps each as one uniformized chain).
"""

import argparse

import numpy as np

from me2ph import MERep, convert, ks_threshold, monte_carlo_check
from me2ph.spectral import SpectralData, SpectralTerm, minimal_representation


def oscillating_rep():
    # exp(-x) body with a deeper damped oscillation; needs a genuine tail
    raw = {(-1.0 + 0j): 0.62, (-2.0 + 1.2j): 0.35 + 0.3j, (-2.0 - 1.2j): 0.35 - 0.3j}
    total = sum(c / -eta for eta, c in raw.items()).real
    terms = tuple(SpectralTerm(eta, (c / total,)) for eta, c in raw.items())
    return minimal_representation(SpectralData(terms, dominant=0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cases = {
        "exponential(1)": MERep(np.array([1.0]), np.array([[-1.0]])),
        "erlang(4, 2)": MERep(
            np.array([1.0, 0, 0, 0]), np.diag([-2.0] * 4) + np.diag([2.0] * 3, 1)
        ),
        "damped oscillation": oscillating_rep(),
    }
    threshold = ks_threshold(args.samples)
    print(f"samples per case: {args.samples}, KS threshold (1%): {threshold:.5f}")
    for name, rep in cases.items():
        ph, report = convert(rep)
        ks = monte_carlo_check(ph, samples=args.samples, seed=args.seed)
        tail = f"tail n={ph.tail_n}" if ph.tail_n else "no tail"
        flag = "ok" if ks <= threshold else "FAIL"
        print(f"{name}: order {ph.order} ({tail}), KS = {ks:.5f} [{flag}]")


if __name__ == "__main__":
    main()
