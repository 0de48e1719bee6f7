"""The full AMR pipeline in one object: solve → measure → place.

:class:`Simulation` is the Parthenon-shaped front door of this library:
it advances a real block solver, adapts the mesh on the solver's own
refinement tags, tracks *measured* per-block kernel costs, consults a
cost/benefit trigger, and redistributes blocks with a placement policy —
while collecting the same rank-step telemetry the performance study
uses.  Blocks execute serially in-process, but every bookkeeping step
(block→rank ownership, migration counts, per-rank phase attribution)
mirrors a distributed run, so the resulting telemetry feeds
:func:`repro.telemetry.diagnose` and the placement policies directly.

This is the integration point a downstream user adopts; the pieces
remain usable separately.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from ..core.policy import PlacementPolicy
from ..mesh.geometry import BlockIndex
from ..mesh.keys import block_keys
from ..mesh.mesh import AmrMesh
from ..telemetry.collector import TelemetryCollector
from .block import BlockCostTracker
from .redistribution import carry_assignment_keys
from .trigger import ImbalanceTrigger

__all__ = ["BlockSolver", "Simulation", "SimulationResult"]


class BlockSolver(Protocol):
    """What :class:`Simulation` needs from a solver.

    Satisfied by :class:`~repro.amr.hydro.EulerSolver2D`; any solver
    exposing the same surface plugs in.
    """

    mesh: AmrMesh
    time: float
    kernel_times: Dict[BlockIndex, float]

    def step(self, dt: float | None = None) -> float: ...
    def adapt(self, threshold: float = ..., coarsen_below: float = ...) -> Tuple[int, int]: ...
    def measured_costs(self) -> np.ndarray: ...


@dataclasses.dataclass
class SimulationResult:
    """Outcome of a :meth:`Simulation.run`."""

    n_steps: int
    final_time: float
    n_blocks: int
    redistributions: int
    trigger_skips: int
    migrated_blocks: int
    collector: TelemetryCollector

    def summary(self) -> str:
        return (
            f"{self.n_steps} steps to t={self.final_time:.4f}; "
            f"{self.n_blocks} blocks; "
            f"{self.redistributions} redistributions "
            f"({self.trigger_skips} skipped by trigger, "
            f"{self.migrated_blocks} blocks migrated)"
        )


class Simulation:
    """Driver binding a solver, a placement policy, and telemetry.

    Parameters
    ----------
    solver:
        A block solver (e.g. ``EulerSolver2D``) already initialized.
    policy:
        Placement policy fed with *measured* kernel costs.
    n_ranks:
        Simulated rank count for ownership/telemetry bookkeeping.
    adapt_interval:
        Steps between refinement checks (the paper's cadence knob).
    trigger:
        Optional cost/benefit trigger consulted on *cost-drift* epochs
        (mesh-change epochs always redistribute).  ``None`` = always
        redistribute at every check, like the paper's codes.
    ranks_per_node:
        Topology for the telemetry's node column.
    """

    def __init__(
        self,
        solver: BlockSolver,
        policy: PlacementPolicy,
        n_ranks: int,
        adapt_interval: int = 5,
        trigger: Optional[ImbalanceTrigger] = None,
        ranks_per_node: int = 16,
        adapt_threshold: float = 0.15,
        coarsen_below: float = 0.03,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")
        self.solver = solver
        self.policy = policy
        self.n_ranks = n_ranks
        self.adapt_interval = adapt_interval
        self.trigger = trigger
        self.adapt_threshold = adapt_threshold
        self.coarsen_below = coarsen_below
        self.tracker = BlockCostTracker()
        self.collector = TelemetryCollector(n_ranks, ranks_per_node)
        self.assignment: Optional[np.ndarray] = None
        self._prev_keys: Optional[np.ndarray] = None
        self._block_counts: np.ndarray = np.zeros(0, dtype=np.int64)
        self._zero_comm = np.zeros(n_ranks)
        self.redistributions = 0
        self.trigger_skips = 0
        self.migrated_blocks = 0
        self._step_index = 0
        self._epoch = 0

    # ------------------------------------------------------------------ #

    @property
    def mesh(self) -> AmrMesh:
        return self.solver.mesh

    def _measured_costs(self) -> np.ndarray:
        """EWMA-smoothed measured cost per block in SFC order."""
        kt = self.solver.kernel_times
        if kt:
            self.tracker.observe_keys(
                block_keys(kt),
                np.fromiter(kt.values(), dtype=np.float64, count=len(kt)),
                self.mesh.dim,
            )
        return self.tracker.estimates_keys(self.mesh.keys(), self.mesh.dim)

    def _set_assignment(self, assignment: np.ndarray) -> None:
        """Adopt a placement of the current mesh.

        ``_block_counts`` is handed to the collector (which keeps
        references), so each assignment gets a fresh array.
        """
        self.assignment = assignment
        self._prev_keys = self.mesh.keys()
        self._block_counts = np.bincount(assignment, minlength=self.n_ranks)

    def _redistribute(self, force: bool) -> None:
        costs = self._measured_costs()
        carried = (
            carry_assignment_keys(
                self._prev_keys, self.assignment, self.mesh.keys(), self.mesh.dim
            )
            if self._prev_keys is not None and self.assignment is not None
            else None
        )
        if not force and self.trigger is not None and carried is not None:
            if (carried >= 0).all():
                decision = self.trigger.evaluate(costs, carried, self.n_ranks)
                if not decision.rebalance:
                    self.trigger_skips += 1
                    self._set_assignment(carried)
                    return
        result = self.policy.place(costs, self.n_ranks)
        if carried is not None:
            moved = int(((carried != result.assignment) & (carried >= 0)).sum())
            self.migrated_blocks += moved
        self._set_assignment(result.assignment)
        self.redistributions += 1

    def _record_step(self) -> None:
        """Attribute measured kernel times to simulated ranks.

        Between redistributions the stepped mesh is the assigned mesh,
        so the solver's SFC-ordered costs line up with the assignment.
        """
        if self.assignment is None:
            return
        compute = np.bincount(
            self.assignment,
            weights=self.solver.measured_costs(),
            minlength=self.n_ranks,
        )
        # BSP attribution: everyone waits for the slowest rank.
        sync = compute.max() - compute
        self.collector.record_step(
            step=self._step_index,
            epoch=self._epoch,
            compute_s=compute,
            comm_s=self._zero_comm,
            sync_s=sync,
            n_blocks=self._block_counts,
            load=compute,
        )

    # ------------------------------------------------------------------ #

    def run(self, n_steps: int) -> SimulationResult:
        """Advance ``n_steps`` with periodic adaptation + redistribution."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.assignment is None:
            # Startup placement: no measurements yet -> unit costs, like
            # the framework default the paper starts from.
            self._set_assignment(
                self.policy.place(np.ones(self.mesh.n_blocks), self.n_ranks).assignment
            )
            self.redistributions += 1

        for _ in range(n_steps):
            self.solver.step()
            self._record_step()
            self._step_index += 1
            if self._step_index % self.adapt_interval == 0:
                n_ref, n_coarse = self.solver.adapt(
                    self.adapt_threshold, self.coarsen_below
                )
                changed = bool(n_ref or n_coarse)
                self._epoch += 1
                self._redistribute(force=changed)
        return SimulationResult(
            n_steps=self._step_index,
            final_time=self.solver.time,
            n_blocks=self.mesh.n_blocks,
            redistributions=self.redistributions,
            trigger_skips=self.trigger_skips,
            migrated_blocks=self.migrated_blocks,
            collector=self.collector,
        )
