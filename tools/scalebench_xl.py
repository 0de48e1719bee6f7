#!/usr/bin/env python
"""One beyond-paper scalebench cell under wall-clock and memory budgets.

The CI ``scalebench-xl`` job runs a single 128K-rank (or larger) cell
one rank window at a time and fails when the cell blows its wall-clock
budget, when peak RSS suggests the global block table was materialized
after all (the real memory gate), or when one window's cost and
assignment arrays outgrow the largest window.  Prints one
machine-greppable summary line.

Usage::

    PYTHONPATH=src python tools/scalebench_xl.py \
        --ranks 131072 --shard-ranks 4096 --budget-s 120 --max-rss-mb 768
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return rss / 2**20
    return rss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="gate one sharded scalebench cell on wall clock + peak RSS"
    )
    ap.add_argument("--ranks", type=int, default=131072)
    ap.add_argument("--shard-ranks", type=int, default=4096)
    ap.add_argument("--distribution", default="exponential")
    ap.add_argument("--x", type=float, default=50.0)
    ap.add_argument("--budget-s", type=float, default=120.0,
                    help="max wall-clock seconds for the cell")
    ap.add_argument("--max-rss-mb", type=float, default=768.0,
                    help="max peak RSS of the whole process in MiB")
    args = ap.parse_args(argv)

    from repro.bench.scalebench import (
        ScalebenchConfig,
        _place_sharded,
        _ScalebenchCell,
    )
    from repro.core.policy import get_policy

    config = ScalebenchConfig(
        scales=(args.ranks,),
        distributions=(args.distribution,),
        x_values=(args.x,),
        repeats=1,
        shard_ranks=args.shard_ranks,
    )
    cell = _ScalebenchCell(
        config=config, n_ranks=args.ranks,
        distribution=args.distribution, x=args.x,
    )
    shard_ranks = config.effective_shard_ranks(args.ranks)
    policy = get_policy(f"cplx:{args.x:g}")
    t0 = time.perf_counter()
    norm, placement_s, peak_shard = _place_sharded(
        policy, cell, config.seed + args.ranks, shard_ranks
    )
    wall_s = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    print(
        f"scalebench-xl: ranks={args.ranks} shard_ranks={shard_ranks} "
        f"norm_makespan={norm:.4f} placement_s={placement_s:.2f} "
        f"wall_s={wall_s:.2f} peak_rss_mb={rss_mb:.1f} "
        f"peak_shard_bytes={peak_shard}"
    )

    failures = []
    if wall_s > args.budget_s:
        failures.append(
            f"wall clock {wall_s:.1f} s exceeds budget {args.budget_s:.1f} s"
        )
    if rss_mb > args.max_rss_mb:
        failures.append(
            f"peak RSS {rss_mb:.1f} MiB exceeds budget {args.max_rss_mb:.1f} MiB"
        )
    # Window edges floor ``r * blocks_per_rank``, so with a non-integer
    # block count per window the largest window holds the ceiling;
    # its cost (f64) and assignment (i64) arrays take 16 B per block.
    expected_shard = math.ceil(shard_ranks * config.blocks_per_rank) * 16
    if peak_shard > expected_shard:
        failures.append(
            f"peak shard bytes {peak_shard} exceed the largest window's "
            f"table ({expected_shard}): sharding is not bounding the "
            f"working set"
        )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
