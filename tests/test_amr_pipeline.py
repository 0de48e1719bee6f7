"""Integration tests for the Simulation pipeline (solver x placement)."""

import hashlib

import numpy as np
import pytest

from repro.amr import (
    EulerSolver2D,
    ImbalanceTrigger,
    Simulation,
    blast_initial_state,
)
from repro.core import get_policy
from repro.mesh import AmrMesh, RootGrid


def make_sim(policy="cplx:50", n_ranks=8, trigger=None, adapt_interval=5):
    mesh = AmrMesh(RootGrid((4, 4)), block_cells=8, max_level=1,
                   domain_size=(1.0, 1.0))
    solver = EulerSolver2D(mesh, cfl=0.4, stiffness_work=40)
    solver.initialize(blast_initial_state((0.5, 0.5), 0.1))
    return Simulation(solver, get_policy(policy), n_ranks=n_ranks,
                      adapt_interval=adapt_interval, trigger=trigger,
                      ranks_per_node=4)


class TestSimulation:
    def test_run_produces_result_and_telemetry(self):
        sim = make_sim()
        res = sim.run(20)
        assert res.n_steps == 20
        assert res.final_time > 0
        assert res.redistributions >= 1  # startup at minimum
        t = res.collector.steps_table()
        assert t.n_rows == 20 * 8
        assert t["compute_s"].sum() > 0
        assert "steps" in res.summary()

    def test_assignment_tracks_mesh(self):
        sim = make_sim()
        sim.run(15)
        assert sim.assignment is not None
        assert sim.assignment.shape == (sim.mesh.n_blocks,)
        assert sim.assignment.max() < 8

    def test_refinement_triggers_redistribution(self):
        sim = make_sim(adapt_interval=3)
        res = sim.run(15)
        # The blast refines within the run -> beyond the startup placement.
        assert res.n_blocks > 16
        assert res.redistributions >= 2
        assert res.migrated_blocks >= 0

    def test_trigger_can_skip_drift_epochs(self):
        # Extremely reluctant trigger: never worth rebalancing on drift.
        reluctant = ImbalanceTrigger(
            step_seconds_per_cost=1e-9, redistribution_cost_s=1e9
        )
        sim = make_sim(trigger=reluctant, adapt_interval=2)
        res = sim.run(20)
        assert res.trigger_skips > 0

    def test_measured_costs_drive_placement(self):
        """CPLX with measured costs balances better than count-based
        baseline on the same physics.

        Compared on placement *quality against the learned costs* (the
        deterministic consequence of feeding telemetry to the policy),
        not on raw wall-clock sync fractions, which jitter with machine
        load during the test run.
        """
        from repro.core import load_stats

        sim = make_sim(policy="cplx:100")
        sim.run(25)
        # The pipeline's learned per-block costs (EWMA of real kernel
        # measurements, CV ~ 1 near the shock):
        costs = sim.tracker.estimates_keys(sim.mesh.keys(), sim.mesh.dim)
        assert costs.std() / costs.mean() > 0.2  # real variability learned

        def makespan(policy):
            a = get_policy(policy).place(costs, sim.n_ranks).assignment
            return load_stats(costs, a, sim.n_ranks).makespan

        # On those learned costs, the telemetry-driven policy strictly
        # beats the count-based split (deterministic given the costs).
        assert makespan("cplx:100") < makespan("baseline")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sim(n_ranks=0)
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.run(0)

    def test_continuation_runs(self):
        sim = make_sim()
        sim.run(10)
        r2 = sim.run(10)
        assert r2.n_steps == 20
        assert r2.collector.steps_table().n_rows == 20 * 8


class _DeterministicSolver(EulerSolver2D):
    """Kernel times as a fixed function of each block's density field.

    Wall-clock kernel times jitter run to run; this stand-in makes every
    measurement a pure function of the solver state, so a whole
    :class:`Simulation` run is reproducible bit for bit.
    """

    def step(self, dt=None):
        dt = super().step(dt)
        self.kernel_times = {
            b: 1e-3 * (1.0 + float(np.abs(np.diff(U[..., 0], axis=0)).sum()
                                   + np.abs(np.diff(U[..., 0], axis=1)).sum()))
            for b, U in self.data.items()
        }
        return dt


def _pinned_sim(policy, trigger=None, adapt_interval=5):
    mesh = AmrMesh(RootGrid((4, 4)), block_cells=8, max_level=2,
                   domain_size=(1.0, 1.0))
    solver = _DeterministicSolver(mesh, cfl=0.4, stiffness_work=0)
    solver.initialize(blast_initial_state((0.5, 0.5), 0.1))
    return Simulation(solver, get_policy(policy), n_ranks=8,
                      adapt_interval=adapt_interval, trigger=trigger,
                      ranks_per_node=4)


def _sim_digest(sim, res):
    """SHA-256 over counts, final assignment, step telemetry, estimates."""
    h = hashlib.sha256()
    h.update(repr((res.n_steps, res.final_time, res.n_blocks,
                   res.redistributions, res.trigger_skips,
                   res.migrated_blocks)).encode())
    h.update(np.asarray(sim.assignment, dtype=np.int64).tobytes())
    table = res.collector.steps_table()
    for name in table.names:
        h.update(name.encode())
        h.update(np.ascontiguousarray(table[name]).tobytes())
    h.update(sim.tracker.estimates_keys(sim.mesh.keys(), sim.mesh.dim).tobytes())
    return h.hexdigest()


#: ``examples/full_pipeline.py``'s trigger.
_EXAMPLE_TRIGGER = dict(step_seconds_per_cost=1.0, redistribution_cost_s=0.002,
                        horizon_steps=5)
#: Never worth rebalancing on drift: every unchanged-mesh epoch is skipped.
_NEVER_TRIGGER = dict(step_seconds_per_cost=1e-9, redistribution_cost_s=1e9)
#: A 30-step ``cplx:50`` run, whole or as two 15-step continuation runs.
_CPLX50_DIGEST = "914d6e31d65568b6e3f8ecfedacc3201df66e091d439a93f1d4e3346124db61f"


class TestSimulationPinned:
    """Whole-run digests of deterministic-cost Simulations.

    Pinned when ``Simulation`` kept ``BlockIndex`` lists and a
    block-to-row scatter; the packed-key port must reproduce them.
    """

    def test_baseline(self):
        sim = _pinned_sim("baseline")
        res = sim.run(30)
        assert _sim_digest(sim, res) == (
            "1f3e6b25c0271466bef176bccd4972119f7497a32031d0df2fa6e36932bee9a9")

    def test_cplx50_example_trigger(self):
        sim = _pinned_sim("cplx:50", ImbalanceTrigger(**_EXAMPLE_TRIGGER))
        res = sim.run(30)
        assert _sim_digest(sim, res) == _CPLX50_DIGEST

    def test_lpt_trigger_never_fires(self):
        sim = _pinned_sim("lpt", ImbalanceTrigger(**_NEVER_TRIGGER),
                          adapt_interval=2)
        res = sim.run(30)
        assert res.trigger_skips > 0
        assert _sim_digest(sim, res) == (
            "e618875127baf75caca88f1f96ddec1aa58f6d54bfeb98ec3dc5455738bd1607")

    def test_continuation(self):
        sim = _pinned_sim("cplx:50", ImbalanceTrigger(**_EXAMPLE_TRIGGER))
        sim.run(15)
        res = sim.run(15)
        assert res.n_steps == 30
        assert _sim_digest(sim, res) == _CPLX50_DIGEST
