"""One batch operation in a fresh interpreter: ``repro sedov`` or
``repro scalebench`` with no flags.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py MODE WORKLOAD EXPECTED_DIGEST

MODE is one of

* ``setup`` -- do the imports a run needs, then exit;
* ``run``   -- the untraced entry call ``JobRunner().run(spec)``, the
  same call ``repro sedov`` / ``repro scalebench`` make;
* ``trace`` -- the same sweep composed from the layers' public calls,
  with spans around each call;
* ``import`` -- time ``import repro.telemetry`` alone.

The parent passes ``time.monotonic()`` at spawn in ``PERFBENCH_SPAWN``
(CLOCK_MONOTONIC is system-wide, so the two clocks agree).  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from spans import Trace


def _ready() -> dict:
    now = time.monotonic()
    return {"setup_s": now - float(os.environ["PERFBENCH_SPAWN"]), "t0": now}


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# untraced
# ---------------------------------------------------------------------- #


def run_entry(kind: str, expected: str) -> dict:
    from repro.service import JobRunner, spec_from_params

    out = _ready()
    result = JobRunner().run(spec_from_params(kind, {}))
    ok = result.exit_code == 0 and result.digest == expected
    out.update(wall_s=time.monotonic() - out["t0"], digest=result.digest,
               ok=ok)
    return out


# ---------------------------------------------------------------------- #
# traced: the sweep composed from public calls, spans from this file
# ---------------------------------------------------------------------- #


def _engine_hook(trace: Trace, parent: int):
    """An EpochHook that times the three engine phases of every epoch."""
    from repro.engine import EpochHook

    class PhaseSpans(EpochHook):
        def on_epoch_start(self, ctx, epoch):
            self.t = time.monotonic()

        def before_redistribute(self, ctx, epoch):
            self.t = trace.add("engine.measure", self.t, parent)

        def after_redistribute(self, ctx, epoch):
            trace.count("core.place_calls")
            trace.count("core.place_s", ctx.outcome.placement_s)
            self.t = trace.add("engine.redistribute", self.t, parent)

        def on_step(self, ctx, epoch, s, phases):
            trace.count("simnet.bsp_steps")

        def on_epoch_end(self, ctx, epoch):
            trace.add("engine.steps", self.t, parent)
            trace.count("engine.epochs")

    return PhaseSpans()


def trace_sedov(trace: Trace) -> str:
    """``run_sedov_sweep`` for the default spec, one public call at a time."""
    from repro.amr.driver import run_trajectory
    from repro.bench.reporting import cplx_label
    from repro.bench.sedov_experiment import PolicyOutcome, SedovSweepResult
    from repro.core.policy import get_policy
    from repro.perf.trajcache import cached_full_trajectory
    from repro.service import spec_from_params

    config = spec_from_params("sedov", {}).config
    outcomes = []
    for scale in config.scales:
        with trace.span("mesh.trajectory"):
            trajectory = cached_full_trajectory(config.sedov_config(scale))
        trace.count("mesh.epochs", len(trajectory))
        trace.count("mesh.blocks_final", len(trajectory[-1].blocks))
        cluster = config.sweep_cluster(scale)
        for name in config.policies:
            with trace.span("engine.run") as sid:
                summary = run_trajectory(
                    get_policy(name), trajectory, cluster, config.driver,
                    hooks=[_engine_hook(trace, sid)],
                )
            trace.count("engine.redistributions", summary.lb_invocations)
            trace.count("perf.pattern_cache_hits", summary.pattern_cache_hits)
            trace.count("perf.pattern_cache_misses",
                        summary.pattern_cache_misses)
            label = (
                cplx_label(float(name.split(":")[1]))
                if name.startswith("cplx:") else name
            )
            outcomes.append(PolicyOutcome(
                scale=scale, policy_label=label, summary=summary,
                msg_local=summary.msg_local, msg_remote=summary.msg_remote,
                msg_intra=summary.msg_intra_rank,
            ))
    with trace.span("verify"):
        return SedovSweepResult(outcomes=outcomes, table_i=[]).digest()


def trace_scalebench(trace: Trace) -> str:
    """``run_scalebench`` for the default spec, one public call at a time."""
    import numpy as np

    from repro.bench.distributions import make_costs
    from repro.bench.scalebench import ScalebenchRow, scalebench_digest
    from repro.core.metrics import normalized_makespan
    from repro.core.policy import get_policy
    from repro.service import spec_from_params

    config = spec_from_params("scalebench", {}).config
    rows = []
    for n_ranks in config.scales:
        n_blocks = int(n_ranks * config.blocks_per_rank)
        for dist in config.distributions:
            for x in config.x_values:
                with trace.span("bench.cell") as cell:
                    policy = get_policy(f"cplx:{x}")
                    ms, ts = [], []
                    for rep in range(config.repeats):
                        seed = config.seed + 7919 * rep + n_ranks
                        with trace.span("bench.make_costs", cell):
                            costs = make_costs(dist, n_blocks, seed=seed)
                        with trace.span(f"core.place.r{n_ranks}", cell):
                            result = policy.place(costs, n_ranks)
                        with trace.span("core.makespan", cell):
                            ms.append(normalized_makespan(
                                costs, result.assignment, n_ranks))
                        ts.append(result.elapsed_s)
                        trace.count("core.place_calls")
                rows.append(ScalebenchRow(
                    n_ranks=n_ranks, distribution=dist, x=x,
                    norm_makespan=float(np.mean(ms)),
                    placement_s=float(np.mean(ts)),
                ))
    with trace.span("verify"):
        return scalebench_digest(rows)


def run_traced(kind: str, expected: str) -> dict:
    import repro.service  # noqa: F401  (same imports as the untraced run)

    out = _ready()
    trace = Trace()
    digest = (trace_sedov if kind == "sedov" else trace_scalebench)(trace)
    wall = time.monotonic() - out["t0"]
    out.update(
        wall_s=wall,
        digest=digest,
        ok=digest == expected,
        counts=trace.counts,
        untraced_s=wall - trace.top_level_s(),
        spans=trace.summary(),
    )
    return out


# ---------------------------------------------------------------------- #


def main(argv) -> int:
    mode, kind, expected = argv[1], argv[2], argv[3]
    if mode == "import":
        t0 = time.monotonic()
        import repro.telemetry  # noqa: F401
        out = {"import_s": time.monotonic() - t0,
               "scipy_stats_loaded": int("scipy.stats" in sys.modules)}
    elif mode == "setup":
        import repro.service  # noqa: F401
        out = _ready()
    elif mode == "run":
        out = run_entry(kind, expected)
    elif mode == "trace":
        out = run_traced(kind, expected)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["rss_mib"] = _rss_mib()
    out.pop("t0", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
