"""Vectorized BSP execution model for AMR timesteps.

This is the fast path used by the Sedov experiments and microbenchmarks:
instead of simulating every message as a discrete event, each timestep
is evaluated with closed-form, vectorized phase arithmetic over ranks
and cross-rank block edges.  The model captures the mechanisms the paper
measures:

* per-rank **compute** time from assigned block costs, node speed
  (throttling) and machine noise;
* **send dispatch** timing as a function of task ordering — with send
  priority, a rank's boundary data dispatches while it computes; without
  it, sends queue behind compute *and waits*, creating the cascading
  delays of §IV-B (modeled as a cross-rank fixpoint);
* per-message transport latency split into **local** (shared-memory) and
  **remote** (fabric) paths, with receiver-side service backlog that
  serializes incoming messages (traffic hotspots, Fig. 7a) and
  heavy-tailed local service when the shared-memory queue is undersized
  (Fig. 1a / Fig. 3);
* **ACK-loss sender stalls** when the drain queue is disabled (Fig. 1b);
* **synchronization** as a terminal allreduce: every rank stalls until
  the straggler arrives (Fig. 6a's dominant phase).

One step costs O(ranks + cross-rank edges), so 50k-step runs at 4096
ranks are tractable; the driver additionally compresses
constant-placement epochs (see :mod:`repro.amr.driver`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..core.metrics import DEFAULT_MESSAGE_WEIGHTS, MessageStats
from ..mesh.neighbors import NeighborGraph
from .cluster import Cluster
from .faults import NO_FAULTS, FaultModel
from .machine import DEFAULT_FABRIC, FabricSpec
from .tuning import TUNED, TuningConfig

__all__ = ["ExchangePattern", "StepPhases", "BSPModel"]


@dataclasses.dataclass(frozen=True)
class ExchangePattern:
    """Boundary-exchange structure for a fixed (mesh, assignment) epoch.

    All arrays are precomputed once per redistribution epoch; per-step
    evaluation only adds noise terms.

    Attributes
    ----------
    n_ranks:
        World size.
    pair_src, pair_dst, pair_local, pair_latency:
        One entry per cross-rank block pair; messages flow both ways.
        The two endpoint ranks, the locality flag, and the transport
        latency of one message (base path latency + the message's
        serialization).
    in_local, in_remote:
        Per-rank incoming message counts (block-pair granularity).
    out_remote:
        Per-rank outgoing remote message counts (ACK-stall exposure).
    loads:
        Per-rank compute load (sum of assigned block costs).
    intra_volume:
        Per-rank same-rank boundary volume serviced by ``memcpy``.
    stats:
        The epoch's :class:`~repro.core.metrics.MessageStats`, equal to
        :func:`~repro.core.metrics.message_stats` without a context.
    """

    n_ranks: int
    pair_src: np.ndarray
    pair_dst: np.ndarray
    pair_local: np.ndarray
    pair_latency: np.ndarray
    in_local: np.ndarray
    in_remote: np.ndarray
    out_remote: np.ndarray
    loads: np.ndarray
    intra_volume: np.ndarray
    stats: MessageStats

    @classmethod
    def from_mesh(
        cls,
        graph: NeighborGraph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec = DEFAULT_FABRIC,
        weights: Dict | None = None,
    ) -> "ExchangePattern":
        """Reduce a block-level neighbor graph to cross-rank edge arrays.

        One pass over the graph's edges: same-rank edges become memcpy
        volume, every cross-rank edge keeps one entry (its messages flow
        both ways), and the message counts are classified alongside.
        """
        n_ranks = cluster.n_ranks
        assignment = np.asarray(assignment, dtype=np.int64)
        if graph.n_blocks != assignment.shape[0]:
            raise ValueError(
                f"assignment covers {assignment.shape[0]} blocks, "
                f"graph has {graph.n_blocks}"
            )
        loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
        w = graph.edge_weights(weights or DEFAULT_MESSAGE_WEIGHTS)

        if graph.n_edges == 0:
            z = np.zeros(n_ranks, dtype=np.float64)
            return cls(
                n_ranks=n_ranks,
                pair_src=np.empty(0, dtype=np.int64),
                pair_dst=np.empty(0, dtype=np.int64),
                pair_local=np.empty(0, dtype=bool),
                pair_latency=np.empty(0, dtype=np.float64),
                in_local=z.copy(),
                in_remote=z.copy(),
                out_remote=z.copy(),
                loads=loads,
                intra_volume=z.copy(),
                stats=MessageStats(0, 0, 0, 0.0, 0.0, 0.0),
            )

        ra = assignment[graph.edges[:, 0]]
        rb = assignment[graph.edges[:, 1]]
        cross = ra != rb
        same = ~cross
        intra_volume = np.bincount(
            ra[same], weights=w[same], minlength=n_ranks
        ).astype(np.float64)

        a, b, size = ra[cross], rb[cross], w[cross]
        rpn = cluster.ranks_per_node
        local = (a // rpn) == (b // rpn)
        remote = ~local

        def incoming(m: np.ndarray) -> np.ndarray:
            # Each edge in ``m`` delivers one message to each endpoint.
            return (
                np.bincount(a[m], minlength=n_ranks)
                + np.bincount(b[m], minlength=n_ranks)
            ).astype(np.float64)

        in_local = incoming(local)
        in_remote = incoming(remote)

        if cluster.node_nic_gbps is not None:
            # Mixed NIC tiers: a cross-node pair's payload bandwidth is
            # governed by the slower endpoint's NIC.
            nic = cluster.rank_nic()
            remote_bw = fabric.remote_pair_bandwidth(np.minimum(nic[a], nic[b]))
        else:
            remote_bw = fabric.remote_bandwidth
        lat = np.where(
            local,
            fabric.local_latency_s + size / fabric.local_bandwidth,
            fabric.remote_latency_s + size / remote_bw,
        )
        if fabric.cross_switch_extra_s > 0:
            far = np.asarray(cluster.switch_of(a)) != np.asarray(cluster.switch_of(b))
            lat = lat + far * fabric.cross_switch_extra_s
        # Same element selections, in the same order, as message_stats:
        # the volume sums are bit-equal to it.
        stats = MessageStats(
            intra_rank=int(same.sum()),
            local=int(local.sum()),
            remote=int(remote.sum()),
            intra_rank_volume=float(w[same].sum()),
            local_volume=float(size[local].sum()),
            remote_volume=float(size[remote].sum()),
        )
        return cls(
            n_ranks=n_ranks,
            pair_src=a,
            pair_dst=b,
            pair_local=local,
            pair_latency=lat.astype(np.float64),
            in_local=in_local,
            in_remote=in_remote,
            # Every cross-rank edge sends one message each way.
            out_remote=in_remote,
            loads=np.asarray(loads, dtype=np.float64),
            intra_volume=intra_volume,
            stats=stats,
        )

    def arrivals(self, dispatch: np.ndarray) -> np.ndarray:
        """Per-rank latest incoming message arrival for send times ``dispatch``.

        Each cross-rank edge carries one message each way.  A maximum
        ignores order and duplicates, and rounding is monotone, so this
        equals scattering only each rank pair's largest message.
        """
        arr = np.zeros(self.n_ranks, dtype=np.float64)
        if self.pair_src.size:
            src, dst, lat = self.pair_src, self.pair_dst, self.pair_latency
            np.maximum.at(arr, dst, dispatch[src] + lat)
            np.maximum.at(arr, src, dispatch[dst] + lat)
        return arr


@dataclasses.dataclass(frozen=True)
class StepPhases:
    """Per-rank phase times for one simulated timestep (seconds)."""

    compute: np.ndarray
    comm: np.ndarray
    sync: np.ndarray

    @property
    def step_time(self) -> float:
        """Wall-clock duration of the step (identical for all ranks)."""
        return float((self.compute + self.comm + self.sync).max())

    def totals(self) -> Dict[str, float]:
        """Aggregate rank-seconds per phase."""
        return {
            "compute": float(self.compute.sum()),
            "comm": float(self.comm.sum()),
            "sync": float(self.sync.sum()),
        }


class BSPModel:
    """Evaluates BSP timesteps over an :class:`ExchangePattern`.

    Parameters
    ----------
    cluster, fabric, tuning, faults:
        The simulated environment.
    seed:
        Seed for the per-step noise stream.
    """

    #: fixpoint iterations for the untuned send-after-wait cascade
    CASCADE_ITERS = 4
    #: memcpy throughput for intra-rank boundary copies (cells/second)
    MEMCPY_BANDWIDTH = 2.0e10

    def __init__(
        self,
        cluster: Cluster,
        fabric: FabricSpec = DEFAULT_FABRIC,
        tuning: TuningConfig = TUNED,
        faults: FaultModel = NO_FAULTS,
        seed: int = 0,
        exchange_rounds: int = 1,
    ) -> None:
        if exchange_rounds < 1:
            raise ValueError("exchange_rounds must be >= 1")
        self.cluster = cluster
        self.fabric = fabric
        self.tuning = tuning
        self.faults = faults
        self.rng = np.random.default_rng(seed)
        self.exchange_rounds = exchange_rounds
        # Health slowdown / hardware class speed; identical to
        # rank_speed_factor() on homogeneous clusters.
        self._speed = cluster.rank_time_factor()

    # ------------------------------------------------------------------ #

    def reconfigure(
        self,
        cluster: Cluster | None = None,
        tuning: TuningConfig | None = None,
        faults: FaultModel | None = None,
    ) -> None:
        """Apply mid-run environment changes without resetting the noise RNG.

        The resilient driver calls this when a mitigation or fault onset
        changes the world: node eviction shrinks the cluster, enabling
        the drain queue swaps the tuning, a fabric-degradation window
        swaps the effective fault model.  Keeping the RNG stream intact
        preserves determinism across reconfigurations.
        """
        if cluster is not None:
            self.cluster = cluster
            self._speed = cluster.rank_time_factor()
        if tuning is not None:
            self.tuning = tuning
        if faults is not None:
            self.faults = faults

    def rng_state(self) -> dict:
        """Snapshot of the noise-stream RNG (checkpointable)."""
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`rng_state`."""
        self.rng.bit_generator.state = state

    def step(self, pattern: ExchangePattern, compute_scale: float = 1.0) -> StepPhases:
        """Simulate one timestep; returns per-rank phase times.

        ``compute_scale`` converts block cost units into seconds
        (defaults to the machine's per-unit-cost kernel time via the
        cluster's machine spec when 1.0 is passed to :meth:`step_seconds`).
        """
        rng = self.rng
        f = self.fabric
        t = self.tuning
        n = pattern.n_ranks

        # -- compute phase ---------------------------------------------
        noise = rng.lognormal(0.0, self.cluster.machine.compute_noise_sigma, size=n)
        compute = (
            pattern.loads
            * self.cluster.machine.block_compute_s
            * compute_scale
            * self._speed
            * noise
        )

        # -- send dispatch ----------------------------------------------
        if t.send_priority:
            # Boundary cells are computed and sent first (the §IV-B
            # reordering): the message a neighbor waits on dispatches
            # early in the sender's compute phase.
            frac = rng.uniform(0.10, 0.35, size=n)
            dispatch = compute * frac
        else:
            dispatch = compute.copy()  # refined by the cascade below

        # -- receiver-side service backlog ------------------------------
        # Per exchange round; a timestep issues `exchange_rounds` rounds
        # (multi-stage integrators + flux correction + ghost refills).
        rounds = self.exchange_rounds
        local_sigma = t.queue_contention_sigma(
            float(pattern.in_local.mean()) if n else 0.0
        )
        local_service = (
            pattern.in_local
            * f.local_service_s
            * rng.lognormal(0.0, local_sigma, size=n)
        )
        remote_service = pattern.in_remote * f.remote_service_s
        backlog = (local_service + remote_service) * rounds

        # -- ACK-loss sender stalls --------------------------------------
        stalls = self.faults.sample_ack_stalls(
            (pattern.out_remote * rounds).astype(np.int64), t.drain_queue, rng
        )

        # -- memcpy for co-located neighbors ------------------------------
        memcpy = pattern.intra_volume * rounds / self.MEMCPY_BANDWIDTH

        # -- arrival fixpoint ---------------------------------------------
        if t.send_priority:
            # Early dispatch means a rank rarely waits on neighbor skew:
            # arrivals race only against the receiver's own compute.
            max_arrival = pattern.arrivals(dispatch)
            ready = np.maximum(compute, max_arrival) + backlog + memcpy
        else:
            # Sends scheduled after compute *and* waits: dispatch depends
            # on the rank's own wait, which depends on other ranks'
            # dispatches — iterate the cascade to (near) fixpoint.
            ready = compute + backlog + memcpy
            for _ in range(self.CASCADE_ITERS):
                dispatch = ready
                max_arrival = pattern.arrivals(dispatch)
                ready = np.maximum(compute, max_arrival) + backlog + memcpy

        # Senders blocked in MPI_Wait by ACK recovery: the recovery path
        # serializes before the rank can proceed to the collective, so the
        # stall adds to the rank's ready time (Fig. 1b's spike signature).
        ready = ready + stalls

        comm = ready - compute

        # -- synchronization ----------------------------------------------
        t_done = float(ready.max()) + f.collective_cost_s(n)
        sync = t_done - ready
        return StepPhases(compute=compute, comm=comm, sync=sync)

    def simulate_steps(
        self, pattern: ExchangePattern, n_steps: int, max_samples: int = 4
    ) -> Tuple[StepPhases, float]:
        """Simulate an epoch of ``n_steps`` identical-structure steps.

        Samples ``min(n_steps, max_samples)`` steps and scales the mean —
        placement, mesh, and loads are constant within an epoch, so only
        the noise stream differs step to step.  Returns (mean per-step
        phases, total epoch wall time).
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        k = min(n_steps, max_samples)
        acc_c = np.zeros(pattern.n_ranks)
        acc_m = np.zeros(pattern.n_ranks)
        acc_s = np.zeros(pattern.n_ranks)
        wall = 0.0
        for _ in range(k):
            ph = self.step(pattern)
            acc_c += ph.compute
            acc_m += ph.comm
            acc_s += ph.sync
            wall += ph.step_time
        mean = StepPhases(compute=acc_c / k, comm=acc_m / k, sync=acc_s / k)
        return mean, wall / k * n_steps
