"""End-to-end benchmark of ``repro sedov``, ``repro scalebench`` and
``repro serve``, with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sedov_default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and what each
layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import serve_load

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = ("sedov_default", "scalebench_default", "serve_mixed")
#: seconds one untraced entry call takes on a 2-CPU host; sets how many
#: calls fit in ``--seconds`` (a count, so every run does equal work)
NOMINAL_CALL_S = {"sedov_default": 13.0, "scalebench_default": 12.0}
#: fresh interpreters (batch) or server spawns (serve) timed per run
SETUP_SAMPLES = 5
SERVE_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mib": "MiB",
    "success_frac": "ratio",
}
PER_LAYER = {
    "telemetry.import_s": "s",
    "telemetry.scipy_stats_loaded": "flag",
    "mesh.trajectory_s": "s",
    "mesh.epochs": "count",
    "mesh.blocks_final": "count",
    "engine.measure_s": "s",
    "engine.redistribute_s": "s",
    "engine.steps_s": "s",
    "engine.epochs": "count",
    "engine.redistributions": "count",
    "simnet.bsp_steps": "count",
    "perf.pattern_cache_hit_rate": "ratio",
    "core.place_s": "s",
    "core.place_s.r512": "s",
    "core.place_s.r2048": "s",
    "core.place_s.r8192": "s",
    "core.place_calls": "count",
    "bench.make_costs_s": "s",
    "core.makespan_s": "s",
    "service.submit_ms": "ms",
    "service.exec_s.tiny": "s",
    "service.exec_s.warm": "s",
    "service.exec_s.fresh": "s",
    "service.queue_wait_s.p50": "s",
    "service.queue_wait_s.p90": "s",
    "service.status_ms.p50": "ms",
    "service.status_ms.p90": "ms",
    "service.query_ms.p50": "ms",
    "service.query_ms.p90": "ms",
    "rpc_p50_ms": "ms",
    "rpc_p99_ms": "ms",
    "perf.traj_cache_hit_rate": "ratio",
    "service.store_bytes": "bytes",
    "perf.journal_bytes": "bytes",
    "loadgen.late_max_ms": "ms",
    "loadgen.jobs": "count",
    "loadgen.rpcs": "count",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    """The environment of every process the benchmark starts: the
    checkout's sources, one BLAS/OpenMP thread, no inherited caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("REPRO_TRAJ_CACHE", None)
    env.pop("REPRO_SWEEP_JOURNAL", None)
    return env


def run_child(mode: str, workload: str, expected: str = "-") -> dict:
    """One fresh interpreter; returns its JSON report (``{}`` on failure)."""
    env = child_env()
    kind = workload.split("_")[0]
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, kind, expected],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# batch workloads: sedov_default, scalebench_default
# ---------------------------------------------------------------------- #


def batch(workload: str, seconds: int, traced: bool) -> tuple:
    expected = EXPECTED[workload]
    if traced:
        probe = run_child("import", workload)
        plain = run_child("run", workload, expected)
        traced_run = run_child("trace", workload, expected)
        reports = [plain, traced_run]
        failures = [f"{mode} run failed or digest mismatch"
                    for mode, r in (("untraced", plain), ("traced", traced_run))
                    if not r.get("ok")]
        if plain.get("digest") != traced_run.get("digest"):
            failures.append("traced digest != untraced digest")
        if not (probe and plain and traced_run):
            return None, failures, 2, reports
        return (batch_layers(probe, plain, traced_run), failures, 2,
                reports)
    calls = max(1, int(seconds // NOMINAL_CALL_S[workload]))
    setups = [run_child("setup", workload)
              for _ in range(max(0, SETUP_SAMPLES - calls))]
    reports = [run_child("run", workload, expected) for _ in range(calls)]
    failures = [f"call {i}: failed or digest mismatch"
                for i, r in enumerate(reports) if not r.get("ok")]
    done = [r for r in reports if r]
    if not done or not all(setups):
        return None, failures, calls, reports
    walls = [r["wall_s"] for r in done]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + done),
        "latency_p50_s": serve_load.quantile(walls, 0.5),
        "latency_p90_s": serve_load.quantile(walls, 0.9),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in done),
    }
    return metrics, failures, calls, reports


def batch_layers(probe: dict, plain: dict, traced: dict) -> dict:
    t = {name: row["total_s"] for name, row in traced["spans"].items()}
    c = traced["counts"]
    m = {
        "telemetry.import_s": probe["import_s"],
        "telemetry.scipy_stats_loaded": probe["scipy_stats_loaded"],
        "mesh.trajectory_s": t.get("mesh.trajectory", 0.0),
        "engine.measure_s": t.get("engine.measure", 0.0),
        "engine.redistribute_s": t.get("engine.redistribute", 0.0),
        "engine.steps_s": t.get("engine.steps", 0.0),
        "bench.make_costs_s": t.get("bench.make_costs", 0.0),
        "core.makespan_s": t.get("core.makespan", 0.0),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_s": traced["untraced_s"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    }
    for name in ("mesh.epochs", "mesh.blocks_final", "engine.epochs",
                 "engine.redistributions", "simnet.bsp_steps",
                 "core.place_calls"):
        m[name] = c.get(name, 0)
    per_scale = {k: v for k, v in t.items() if k.startswith("core.place.r")}
    for name, total in per_scale.items():
        m["core.place_s." + name.split(".")[-1]] = total
    m["core.place_s"] = c.get("core.place_s", sum(per_scale.values()))
    hits = c.get("perf.pattern_cache_hits", 0)
    total = hits + c.get("perf.pattern_cache_misses", 0)
    m["perf.pattern_cache_hit_rate"] = hits / total if total else 0.0
    return m


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #


def session(seed: int, seconds: float, traced: bool, extra=None,
            expected=None) -> dict:
    root = WORK / f"serve-{os.getpid()}-{time.monotonic_ns()}"
    jobs = serve_load.schedule(seed, seconds, extra)
    return serve_load.run_session(
        root, child_env(), jobs, expected or EXPECTED["serve_mixed"], traced)


def serve(seed: int, seconds: int, traced: bool) -> tuple:
    if traced:
        probe = run_child("import", "serve_mixed")
        plain = session(seed, seconds / 2, traced=False)
        figures = session(seed, seconds / 2, traced=True)
        m = {k: v for k, v in figures.items() if k in PER_LAYER}
        m.update({
            "telemetry.import_s": probe["import_s"],
            "telemetry.scipy_stats_loaded": probe["scipy_stats_loaded"],
            "service.store_bytes": figures["store_bytes"],
            "perf.journal_bytes": figures["journal_bytes"],
            "trace.wall_s": figures["wall_s"],
            "trace.untraced_s": figures["untraced_s"],
            "trace.overhead_ratio": (figures["latency_p50_s"]
                                     / plain["latency_p50_s"]),
        })
        runs = [plain, figures]
        return (m, plain["failures"] + figures["failures"],
                sum(r["attempted"] for r in runs), runs)
    setups = []
    for _ in range(SERVE_SETUP_SAMPLES - 1):
        server, setup_s = serve_load.start_server(
            WORK / f"probe-{os.getpid()}-{time.monotonic_ns()}", child_env())
        server.stop()
        setups.append(setup_s)
    figures = session(seed, seconds, traced=False)
    print(f"loadgen.late_max_ms {figures['loadgen.late_max_ms']:.1f}",
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups + [figures["setup_s"]]),
        "latency_p50_s": figures["latency_p50_s"],
        "latency_p90_s": figures["latency_p90_s"],
        "peak_rss_mib": figures["peak_rss_mib"],
    }
    return metrics, figures["failures"], figures["attempted"], [figures]


# ---------------------------------------------------------------------- #


def selftest(seed: int) -> int:
    """Failure accounting: an invalid job and a tampered pinned digest
    must each be counted as failed, without crashing the generator."""
    invalid = ("sedov", {"scales": [256], "steps": 120,
                         "policies": ["cplx:50"]})
    first = serve_load.schedule(seed, 6)[0]
    tampered_key = serve_load.spec_key(first.kind, first.params)
    expected = dict(EXPECTED["serve_mixed"], **{tampered_key: "0" * 64})
    fig = session(seed, 6, traced=False, extra=[invalid], expected=expected)
    jobs = serve_load.schedule(seed, 6, [invalid])
    n_tampered = sum(serve_load.spec_key(j.kind, j.params) == tampered_key
                     for j in jobs)
    invalid_errors = [f for f in fig["failures"] if "[256]" in f]
    digest_errors = [f for f in fig["failures"] if "!= pinned 000" in f]
    checks = {
        "invalid job counted": len(invalid_errors) == 1,
        "tampered digest counted": len(digest_errors) == n_tampered,
        "nothing else failed": (len(fig["failures"])
                                == 1 + n_tampered),
    }
    for line in fig["failures"]:
        print("failure:", line)
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def meta(load_before) -> dict:
    commit = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "threads": {v: child_env()[v] for v in THREAD_VARS},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the failure accounting on a short serve run")
    args = p.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print("error: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.selftest:
        return selftest(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    load_before = os.getloadavg()
    traced = bool(args.trace)
    if args.workload == "serve_mixed":
        metrics, failures, attempted, reports = serve(
            args.seed, args.seconds, traced)
    else:
        metrics, failures, attempted, reports = batch(
            args.workload, args.seconds, traced)
    if metrics is None:
        print("error: no operation completed: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    for line in failures:
        print("failure:", line, file=sys.stderr)
    info = meta(load_before)
    units = PER_LAYER if traced else END_TO_END
    if not traced:
        metrics["success_frac"] = 1.0 - len(failures) / attempted
    metrics = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    if traced:
        spans = [r.get("spans") for r in reports if r.get("spans")]
        (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"meta": info, "metrics": metrics, "spans": spans},
                       indent=1))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print("meta: " + json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
