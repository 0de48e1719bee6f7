"""Tests for the advection mini-solver and the redistribution trigger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import AdvectionSolver, ImbalanceTrigger
from repro.mesh import AmrMesh, RefinementTags, RootGrid


def uniform_mesh(periodic=True, blocks=4, cells=8):
    return AmrMesh(
        RootGrid((blocks, blocks), periodic=(periodic, periodic)),
        block_cells=cells,
        domain_size=(1.0, 1.0),
    )


def refined_mesh():
    mesh = AmrMesh(RootGrid((2, 2), periodic=(True, True)), block_cells=8,
                   max_level=2, domain_size=(1.0, 1.0))
    mesh.remesh(RefinementTags(refine=mesh.keys()[:1]))
    return mesh


class TestSolverBasics:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            AdvectionSolver(AmrMesh(RootGrid((2, 2, 2))))

    def test_cfl_validation(self):
        with pytest.raises(ValueError):
            AdvectionSolver(uniform_mesh(), cfl=1.5)

    def test_step_before_initialize(self):
        s = AdvectionSolver(uniform_mesh())
        with pytest.raises(RuntimeError):
            s.step()

    def test_initialize_from_function(self):
        s = AdvectionSolver(uniform_mesh())
        s.initialize(lambda x, y: x + y)
        lo, hi = s.extrema()
        assert lo == pytest.approx(2 * (0.5 / 32), rel=1e-9)
        assert hi == pytest.approx(2 * (1 - 0.5 / 32), rel=1e-9)


class TestSolverPhysics:
    def test_mass_conserved_on_uniform_periodic(self):
        s = AdvectionSolver(uniform_mesh(), velocity=(1.0, 0.5))
        s.initialize(lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02))
        m0 = s.total_mass()
        s.run(0.2)
        assert s.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_max_principle_upwind(self):
        s = AdvectionSolver(uniform_mesh(), velocity=(1.0, 0.3))
        s.initialize(lambda x, y: (np.abs(x - 0.5) < 0.2).astype(float))
        lo0, hi0 = s.extrema()
        s.run(0.15)
        lo, hi = s.extrema()
        assert lo >= lo0 - 1e-12
        assert hi <= hi0 + 1e-12

    def test_translation_matches_analytic(self):
        s = AdvectionSolver(uniform_mesh(blocks=4, cells=16), velocity=(1.0, 0.0),
                            cfl=0.5)
        s.initialize(lambda x, y: np.exp(-((x - 0.3) ** 2) / 0.01))
        s.run(0.4)
        # Peak moved from x=0.3 to x=0.7 (periodic domain).
        assert s.sample_point(0.7, 0.5) > 0.5
        assert s.sample_point(0.3, 0.5) < 0.3

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=10)
    def test_constant_preserved_any_velocity(self, vx, vy):
        s = AdvectionSolver(uniform_mesh(blocks=2, cells=4), velocity=(vx, vy))
        s.initialize(lambda x, y: np.full_like(x, 7.0))
        for _ in range(3):
            s.step(min(s.max_dt(), 0.01))
        lo, hi = s.extrema()
        assert lo == pytest.approx(7.0)
        assert hi == pytest.approx(7.0)

    def test_constant_preserved_on_refined_mesh(self):
        """Ghost fill across refinement levels must be consistent."""
        s = AdvectionSolver(refined_mesh(), velocity=(0.8, -0.4))
        s.initialize(lambda x, y: np.full_like(x, 2.5))
        for _ in range(5):
            s.step()
        lo, hi = s.extrema()
        assert lo == pytest.approx(2.5) and hi == pytest.approx(2.5)

    def test_smooth_advection_on_refined_mesh_stable(self):
        s = AdvectionSolver(refined_mesh(), velocity=(1.0, 0.0))
        s.initialize(lambda x, y: np.sin(2 * np.pi * x) + 2.0)
        s.run(0.1)
        lo, hi = s.extrema()
        assert 0.9 <= lo and hi <= 3.1  # bounded, no blow-up

    def test_cfl_timestep_scales_with_finest_level(self):
        # Same root grid, with and without one level of refinement: the
        # refined mesh's finest cells are 2x smaller -> dt halves.
        coarse = AdvectionSolver(uniform_mesh(blocks=2, cells=8))
        coarse.initialize(lambda x, y: x)
        fine = AdvectionSolver(refined_mesh())
        fine.initialize(lambda x, y: x)
        assert fine.max_dt() == pytest.approx(coarse.max_dt() / 2)


class TestImbalanceTrigger:
    def test_fires_on_heavy_imbalance(self):
        trig = ImbalanceTrigger(horizon_steps=25, redistribution_cost_s=0.1)
        costs = np.array([10.0, 1.0, 1.0, 1.0])
        assignment = np.array([0, 0, 1, 1])  # rank 0 overloaded
        d = trig.evaluate(costs, assignment, 2)
        assert d.rebalance
        assert d.expected_benefit_s > d.estimated_cost_s
        assert "REBALANCE" in str(d)

    def test_holds_when_balanced(self):
        trig = ImbalanceTrigger()
        costs = np.ones(8)
        assignment = np.repeat(np.arange(4), 2)
        d = trig.evaluate(costs, assignment, 4)
        assert not d.rebalance
        assert d.imbalance_loss_s == pytest.approx(0.0)

    def test_hysteresis_damps_borderline(self):
        costs = np.array([1.2, 1.0, 1.0, 1.0])
        assignment = np.array([0, 1, 2, 3])
        eager = ImbalanceTrigger(hysteresis=1.0, redistribution_cost_s=0.004,
                                 horizon_steps=1)
        damped = ImbalanceTrigger(hysteresis=10.0, redistribution_cost_s=0.004,
                                  horizon_steps=1)
        assert eager.evaluate(costs, assignment, 4).rebalance
        assert not damped.evaluate(costs, assignment, 4).rebalance

    def test_longer_horizon_favors_rebalance(self):
        costs = np.array([2.0, 1.0, 1.0, 1.0])
        assignment = np.array([0, 0, 1, 1])
        short = ImbalanceTrigger(horizon_steps=1, redistribution_cost_s=0.5)
        long = ImbalanceTrigger(horizon_steps=100, redistribution_cost_s=0.5)
        assert not short.evaluate(costs, assignment, 2).rebalance
        assert long.evaluate(costs, assignment, 2).rebalance

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceTrigger(step_seconds_per_cost=0)
        with pytest.raises(ValueError):
            ImbalanceTrigger(horizon_steps=0)
        with pytest.raises(ValueError):
            ImbalanceTrigger(hysteresis=0.5)


class TestSolver3D:
    def test_3d_conservation_and_translation(self):
        import numpy as np

        mesh = AmrMesh(RootGrid((2, 2, 2), periodic=(True,) * 3),
                       block_cells=8, domain_size=(1.0, 1.0, 1.0))
        s = AdvectionSolver(mesh, velocity=(1.0, 0.0, 0.0), cfl=0.5)
        s.initialize(lambda x, y, z: np.exp(-((x - 0.3) ** 2) / 0.01))
        m0 = s.total_mass()
        s.run(0.2)
        assert s.total_mass() == pytest.approx(m0, rel=1e-12)
        # Pulse moved from x=0.3 to x=0.5.
        assert s.sample_point(0.5, 0.5, 0.5) > s.sample_point(0.3, 0.5, 0.5)

    def test_3d_refined_constant_preserved(self):
        import numpy as np

        mesh = AmrMesh(RootGrid((2, 2, 2), periodic=(True,) * 3),
                       block_cells=4, max_level=1)
        mesh.remesh(RefinementTags(refine=mesh.keys()[:1]))
        s = AdvectionSolver(mesh, velocity=(0.5, 0.3, 0.2))
        s.initialize(lambda x, y, z: np.full_like(x, 1.5))
        for _ in range(3):
            s.step()
        lo, hi = s.extrema()
        assert lo == pytest.approx(1.5) and hi == pytest.approx(1.5)

    def test_velocity_dimensionality_checked(self):
        mesh = AmrMesh(RootGrid((2, 2, 2)), block_cells=4)
        with pytest.raises(ValueError, match="components"):
            AdvectionSolver(mesh, velocity=(1.0, 0.5))

    def test_1d_mesh_rejected(self):
        with pytest.raises(ValueError):
            AdvectionSolver(AmrMesh(RootGrid((4,)), block_cells=4),
                            velocity=(1.0,))
