#!/usr/bin/env python3
"""Sensitivity of the semi-empirical fork rate to unlucky zero-block miners.

Appends miners that mined nothing to the reference period and recomputes
the independent semi-empirical fork rate; each of them contributes the
posterior conditioned on zero blocks.

    python3 scripts/run_zero_miner_scan.py --delta0 0.5,1,2 --zeros 0,1,5,20
"""

import argparse
import sys

from forkcast.estimate import add_zero_miners
from forkcast.forkrate import fork_rate_curve
from forkcast.model import BlockCounts, SemiEmpiricalINID
from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta0", default="0.5,1,2")
    ap.add_argument("--zeros", default="0,1,5,20")
    args = ap.parse_args()

    base = BlockCounts(REFERENCE_COUNTS)
    gamma = base.total / REFERENCE_LAMBDA
    delays = [float(d) for d in args.delta0.split(",")]
    zero_counts = [int(z) for z in args.zeros.split(",")]

    print("n_zero,delta0,fork_rate,rel_change_vs_baseline")
    baseline = fork_rate_curve(SemiEmpiricalINID(base, gamma), delays)
    for n_zero in zero_counts:
        model = SemiEmpiricalINID(add_zero_miners(base, n_zero), gamma)
        for d0, res, base_res in zip(delays, fork_rate_curve(model, delays), baseline):
            rel = (res.value - base_res.value) / base_res.value
            print(f"{n_zero},{d0!r},{res.value!r},{rel:+.4%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
