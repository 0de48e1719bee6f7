"""The ``serve_mixed`` workload: one ``repro serve`` process driven open
loop by this process over two connections.

Connection A submits each job at its scheduled time and, between
submits, issues a ``status`` RPC for the job it just submitted and a
live ``query`` RPC against the oldest job still in flight.  Connection
B collects results: it polls ``result`` with a short ``wait`` on every
job in flight, so a short job finishing behind a long one is seen
within a poll, not when the long one ends.  Job latency is timed from
the scheduled send time, so a late send is charged to the job.

The schedule repeats one fixed cycle of send times and job classes, so
every seed offers the same load shape; the seed draws which spec of its
class each job runs.  Fresh jobs all come from one tenant and the
other jobs alternate between two more, so the fresh jobs queue only
behind each other under the per-tenant quota.  A job's class sets its
spec pool:

* ``tiny``  -- one-cell scalebench, 2048 ranks, one distribution,
  ``x=50``;
* ``warm``  -- sedov, 512 ranks, 120 steps, one CPLX arm; every warm
  job shares one trajectory, so all but the first hit the trajectory
  cache (the first job of every schedule is a warm job, in the slot of
  the first fresh one);
* ``fresh`` -- sedov, 512 ranks, a step count unique in the run: a
  trajectory-cache miss.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: one cycle of the schedule: (send offset in seconds, job class).  A
#: fresh job runs alone for the first half of the cycle and the short
#: jobs follow it, so jobs seldom share the server's interpreter lock;
#: with equal send times in every run, run-to-run spread stays low.
CYCLE_S = 8.0
CYCLE = ((0.0, "fresh"), (5.0, "tiny"), (5.4, "tiny"), (5.8, "warm"),
         (6.2, "tiny"), (6.6, "tiny"), (7.0, "tiny"))
FRESH_TENANT = "carol"
TENANTS = ("alice", "bob")
SQL = "SELECT kind, count(cell) FROM events GROUP BY kind"
#: seconds the result connection waits on one job per poll
POLL_WAIT_S = 0.02
#: give up on jobs still in flight this long after the last submit
DRAIN_LIMIT_S = 60.0

DISTRIBUTIONS = ("exponential", "gaussian", "power-law")
WARM_ARMS = ("cplx:0", "cplx:25", "cplx:50", "cplx:75", "cplx:100")
FRESH_STEPS = tuple(range(121, 141))


def spec_pool() -> Dict[str, List[tuple]]:
    """Every (kind, params) a schedule can draw, by class."""
    return {
        "tiny": [("scalebench", {"scales": [2048], "distributions": [d],
                                 "x_values": [50]}) for d in DISTRIBUTIONS],
        "warm": [("sedov", {"scales": [512], "steps": 120, "policies": [p]})
                 for p in WARM_ARMS],
        "fresh": [("sedov", {"scales": [512], "steps": s,
                             "policies": ["cplx:50"]}) for s in FRESH_STEPS],
    }


def spec_key(kind: str, params: Dict) -> str:
    return json.dumps([kind, params], sort_keys=True)


@dataclasses.dataclass
class Job:
    offset_s: float
    cls: str
    kind: str
    params: Dict
    tenant: str
    due: float = 0.0
    job_id: Optional[str] = None
    done_at: Optional[float] = None
    error: Optional[str] = None
    exec_s: Optional[float] = None
    result: Optional[Dict] = None


def schedule(seed: int, seconds: float, extra: Optional[List[tuple]] = None
             ) -> List[Job]:
    """The seeded open-loop schedule for ``seconds`` of traffic.

    ``extra`` inserts (kind, params) jobs of class ``extra`` at seeded
    slots -- the failure-accounting self-test uses it.
    """
    rng = random.Random(seed)
    pool = spec_pool()
    slots = [(k * CYCLE_S + t, c) for k in range(int(seconds // CYCLE_S) + 1)
             for t, c in CYCLE if k * CYCLE_S + t < seconds]
    # The first job fills the trajectory cache the later warm jobs hit.
    slots[0] = (0.0, "warm")
    offsets = [t for t, _ in slots]
    classes = [c for _, c in slots]
    fresh = iter(rng.sample(pool["fresh"], classes.count("fresh")))
    specs = [next(fresh) if c == "fresh" else rng.choice(pool[c])
             for c in classes]
    for kind, params in extra or ():
        slot = rng.randrange(1, len(classes))
        offsets.insert(slot, offsets[slot])
        classes.insert(slot, "extra")
        specs.insert(slot, (kind, params))
    jobs = []
    for i, (cls, (kind, params)) in enumerate(zip(classes, specs)):
        tenant = (FRESH_TENANT if cls == "fresh"
                  else TENANTS[sum(c != "fresh" for c in classes[:i]) % 2])
        jobs.append(Job(offset_s=offsets[i], cls=cls, kind=kind,
                        params=params, tenant=tenant))
    return jobs


# ---------------------------------------------------------------------- #
# the server process
# ---------------------------------------------------------------------- #


class Server:
    """A ``repro serve`` child with fresh state, journal and cache dirs."""

    def __init__(self, root: Path, env: Dict[str, str]) -> None:
        self.root = root
        root.mkdir(parents=True)
        self.log = open(root / "server.log", "wb")
        self.port: Optional[int] = None
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state", str(root / "state"),
             "--traj-cache", str(root / "traj"),
             "--journal-root", str(root / "journal")],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self.port = self._read_port(deadline=self.spawned + 60.0)

    def _read_port(self, deadline: float) -> int:
        """Port from the start-up banner, which ends with the quotas line."""
        fd = self.proc.stdout.fileno()
        banner = b""
        while b"\nquotas:" not in banner or not banner.endswith(b"\n"):
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError("server did not start: " + self.log_tail)
            banner += chunk
        for line in banner.decode().splitlines():
            if line.startswith("repro service listening on"):
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError(f"no listening line in {banner!r}")

    @property
    def log_tail(self) -> str:
        return (self.root / "server.log").read_text(errors="replace")[-2000:]

    def vm_hwm_mib(self) -> float:
        """Peak resident set of the server process so far."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def bytes_under(self, name: str) -> int:
        return sum(p.stat().st_size for p in (self.root / name).rglob("*")
                   if p.is_file())

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(_one_rpc(self.port, {"op": "shutdown"}))
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        elif self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode != 0:
            sys.stderr.write(self.log_tail)
        shutil.rmtree(self.root, ignore_errors=True)


async def _rpc(reader, writer, request: Dict) -> Dict:
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


async def _one_rpc(port: int, request: Dict) -> Dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _rpc(reader, writer, request)
    finally:
        writer.close()
        await writer.wait_closed()


def start_server(root: Path, env: Dict[str, str]) -> tuple:
    """Spawn a server and wait until ``ping`` answers; returns the server
    and its set-up time (spawn until the first ping reply)."""
    server = Server(root, env)
    try:
        reply = asyncio.run(_one_rpc(server.port, {"op": "ping"}))
    except OSError:
        server.stop()
        raise
    if not reply.get("ok"):
        server.stop()
        raise RuntimeError(f"ping failed: {reply}")
    return server, time.monotonic() - server.spawned


# ---------------------------------------------------------------------- #
# the load generator
# ---------------------------------------------------------------------- #


@dataclasses.dataclass
class Session:
    jobs: List[Job]
    rpcs: List[tuple] = dataclasses.field(default_factory=list)  # (op, ms, ok)
    submit_ms: List[float] = dataclasses.field(default_factory=list)
    late_s: List[float] = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    end: float = 0.0


async def _drive(port: int, jobs: List[Job], expected: Dict[str, str],
                 traced: bool) -> Session:
    session = Session(jobs=jobs)
    ra, wa = await asyncio.open_connection("127.0.0.1", port)
    rb, wb = await asyncio.open_connection("127.0.0.1", port)
    in_flight: List[Job] = []
    wake = asyncio.Event()
    submits_done = False

    async def timed(op: str, reader, writer, request: Dict) -> Dict:
        t = time.monotonic()
        reply = await _rpc(reader, writer, request)
        ms = (time.monotonic() - t) * 1e3
        if op == "submit":
            session.submit_ms.append(ms)
        else:
            session.rpcs.append((op, ms, bool(reply.get("ok"))))
        return reply

    async def submitter() -> None:
        nonlocal submits_done
        t0 = time.monotonic() + 0.05
        try:
            for job in jobs:
                job.due = t0 + job.offset_s
                await asyncio.sleep(max(0.0, job.due - time.monotonic()))
                session.late_s.append(time.monotonic() - job.due)
                reply = await timed("submit", ra, wa, {
                    "op": "submit", "kind": job.kind, "params": job.params,
                    "tenant": job.tenant})
                if not reply.get("ok"):
                    job.error = f"submit refused: {reply.get('error')}"
                    continue
                job.job_id = reply["job_id"]
                in_flight.append(job)
                wake.set()
                await timed("status", ra, wa,
                            {"op": "status", "job_id": job.job_id})
                live = in_flight[0] if in_flight else job
                await timed("query", ra, wa,
                            {"op": "query", "job_id": live.job_id, "sql": SQL})
        finally:
            submits_done = True
            wake.set()

    async def collector() -> None:
        give_up = None
        while True:
            if not in_flight:
                if submits_done:
                    return
                wake.clear()
                await wake.wait()
                continue
            if submits_done and give_up is None:
                give_up = time.monotonic() + DRAIN_LIMIT_S
            if give_up is not None and time.monotonic() > give_up:
                for job in in_flight:
                    job.error = "no result before the drain limit"
                in_flight.clear()
                return
            for job in list(in_flight):
                reply = await _rpc(rb, wb, {
                    "op": "result", "job_id": job.job_id, "wait": True,
                    "timeout_s": POLL_WAIT_S})
                if not reply.get("ok") and reply.get("error") == "timeout":
                    continue
                job.done_at = time.monotonic()
                in_flight.remove(job)
                _check(job, reply, expected)
                if traced and job.error is None:
                    events = await _rpc(rb, wb, {
                        "op": "events", "job_id": job.job_id})
                    job.exec_s = max(e["t_s"] for e in events["events"])

    t_start = time.monotonic()
    try:
        await asyncio.gather(submitter(), collector())
    finally:
        session.end = time.monotonic()
        session.wall_s = session.end - t_start
        for w in (wa, wb):
            w.close()
            await w.wait_closed()
    return session


def _check(job: Job, reply: Dict, expected: Dict[str, str]) -> None:
    """A job succeeds only in state ``done`` with its pinned digest."""
    if not reply.get("ok") or reply.get("state") != "done":
        job.error = (f"state {reply.get('state')}: "
                     f"{reply.get('error', 'no error text')}")
        return
    job.result = reply["result"]
    want = expected.get(spec_key(job.kind, job.params))
    if job.result["digest"] != want:
        job.error = f"digest {job.result['digest']} != pinned {want}"


def run_session(root: Path, env: Dict[str, str], jobs: List[Job],
                expected: Dict[str, str], traced: bool) -> Dict:
    """One fresh server driven through ``jobs``; returns its figures."""
    server, setup_s = start_server(root, env)
    try:
        session = asyncio.run(_drive(server.port, jobs, expected, traced))
        figures = {
            "setup_s": setup_s,
            "peak_rss_mib": server.vm_hwm_mib(),
            "store_bytes": server.bytes_under("state"),
            "journal_bytes": server.bytes_under("journal"),
        }
    finally:
        server.stop()
    figures.update(summarize(session))
    return figures


# ---------------------------------------------------------------------- #
# figures
# ---------------------------------------------------------------------- #


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summarize(s: Session) -> Dict:
    """End-to-end and per-layer figures of one session.  A failed job
    counts as finishing when the session ended, so it misses every
    latency limit the others meet."""
    lat = [(j.done_at if j.error is None else s.end) - j.due for j in s.jobs]
    ok_jobs = [j for j in s.jobs if j.error is None]
    rpc_ms = [ms for _, ms, _ in s.rpcs]
    failures = [f"{j.job_id or '-'} {j.kind} {j.params}: {j.error}"
                for j in s.jobs if j.error is not None]
    failures += [f"{op} RPC failed" for op, _, ok in s.rpcs if not ok]
    out = {
        "attempted": len(s.jobs) + len(s.rpcs),
        "failures": failures,
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, 0.9),
        "rpc_p50_ms": quantile(rpc_ms, 0.5),
        "rpc_p99_ms": quantile(rpc_ms, 0.99),
        "service.submit_ms": quantile(s.submit_ms, 0.5),
        "loadgen.late_max_ms": max(s.late_s, default=0.0) * 1e3,
        "loadgen.jobs": len(s.jobs),
        "loadgen.rpcs": len(s.rpcs),
        "wall_s": s.wall_s,
    }
    for op in ("status", "query"):
        ms = [m for o, m, _ in s.rpcs if o == op]
        out[f"service.{op}_ms.p50"] = quantile(ms, 0.5)
        out[f"service.{op}_ms.p90"] = quantile(ms, 0.9)
    for cls in ("tiny", "warm", "fresh"):
        out[f"service.exec_s.{cls}"] = quantile(
            [j.exec_s for j in ok_jobs if j.cls == cls and j.exec_s is not None],
            0.5)
    waits = [j.done_at - j.due - j.exec_s for j in ok_jobs
             if j.exec_s is not None]
    out["service.queue_wait_s.p50"] = quantile(waits, 0.5)
    out["service.queue_wait_s.p90"] = quantile(waits, 0.9)
    out["perf.pattern_cache_hit_rate"] = _hit_rate(
        [j.result["pattern_cache"] for j in ok_jobs])
    out["perf.traj_cache_hit_rate"] = _hit_rate(
        [j.result["traj_cache"] for j in ok_jobs if j.kind == "sedov"])
    out["untraced_s"] = s.wall_s - _union_s(
        [(j.due, j.done_at if j.error is None else s.end) for j in s.jobs])
    return out


def _hit_rate(counters: List[Dict]) -> float:
    hits = sum(c.get("hits", 0) for c in counters)
    total = hits + sum(c.get("misses", 0) for c in counters)
    return hits / total if total else 0.0


def _union_s(intervals: List[tuple]) -> float:
    """Seconds covered by at least one interval."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered
