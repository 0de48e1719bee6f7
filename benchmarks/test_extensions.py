"""Extension studies beyond the paper's evaluation.

1. Hilbert vs Z-order SFC under the baseline/CDP placements — how much
   of the locality story is curve-specific (§V-A1 notes Z-order falls
   out of the octree; Hilbert is the standard stricter-locality
   alternative).
2. Graph-partitioner placement (parMETIS/Zoltan-style) vs CPLX
   end-to-end — the §VIII claim that edge cut is a poor proxy for
   runtime communication cost, plus the placement-budget comparison.
3. Zonal placement at large scale — overhead reduction vs quality.
4. Redistribution triggers — skipping unprofitable rebalances.
"""


import numpy as np

from repro.amr import ImbalanceTrigger
from repro.bench import make_costs, random_refined_mesh
from repro.core import (
    CPLX,
    GraphPartitionPolicy,
    ZonalPolicy,
    edge_cut,
    get_policy,
    load_stats,
    measure_policy,
    message_stats,
)
from repro.mesh import hilbert_sort_blocks
from repro.simnet import BSPModel, Cluster, ExchangePattern


def test_extension_hilbert_vs_morton(benchmark):
    def run():
        rng = np.random.default_rng(0)
        mesh = random_refined_mesh(256, 2.0, rng)
        graph = mesh.neighbor_graph
        n = mesh.n_blocks
        cluster = Cluster(n_ranks=256)

        def contiguous_assignment(order_blocks):
            pos = {b: i for i, b in enumerate(order_blocks)}
            rank_of_pos = np.minimum(
                (np.arange(n) * 256) // n, 255
            )
            a = np.empty(n, dtype=np.int64)
            for i, b in enumerate(graph.blocks):
                a[i] = rank_of_pos[pos[b]]
            return a

        morton = contiguous_assignment(mesh.blocks)
        hilbert = contiguous_assignment(hilbert_sort_blocks(mesh.blocks))
        out = {}
        for name, a in (("morton", morton), ("hilbert", hilbert)):
            ms = message_stats(graph, a, cluster.ranks_per_node)
            out[name] = {
                "intra_rank": ms.intra_rank,
                "remote_frac": ms.remote_fraction,
                "cut": edge_cut(graph, a),
            }
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension 1 — SFC curve choice (contiguous split, 256 ranks):")
    for name, d in result.items():
        print(f"  {name:8s} co-located pairs={d['intra_rank']:5d}  "
              f"remote share={d['remote_frac']:.0%}  edge cut={d['cut']:.3g}")
    # Hilbert preserves at least as much locality as Z-order.
    assert result["hilbert"]["intra_rank"] >= result["morton"]["intra_rank"]
    # But the majority-remote reality (Fig. 6c's 64%) holds for both:
    # dimensionality reduction, not the curve, is the limiting factor.
    assert result["hilbert"]["remote_frac"] > 0.5
    assert result["morton"]["remote_frac"] > 0.5


def test_extension_graph_partitioner_end_to_end(benchmark):
    def run():
        rng = np.random.default_rng(1)
        mesh = random_refined_mesh(128, 2.0, rng)
        graph = mesh.neighbor_graph
        costs = rng.lognormal(0.0, 0.4, size=mesh.n_blocks)
        cluster = Cluster(n_ranks=128)
        out = {}
        for name, policy in (
            ("graph-partition", GraphPartitionPolicy(graph)),
            ("cplx:50", get_policy("cplx:50")),
        ):
            res = policy.place(costs, 128)
            pattern = ExchangePattern.from_mesh(graph, res.assignment, costs, cluster)
            model = BSPModel(cluster, seed=3, exchange_rounds=4)
            _, wall = model.simulate_steps(pattern, 50, max_samples=8)
            out[name] = {
                "cut": edge_cut(graph, res.assignment),
                "makespan": load_stats(costs, res.assignment, 128).makespan,
                "wall": wall,
                "placement_ms": res.elapsed_s * 1e3,
            }
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension 2 — edge-cut partitioner vs CPLX (end-to-end, 128 ranks):")
    for name, d in result.items():
        print(f"  {name:16s} cut={d['cut']:9.3g}  makespan={d['makespan']:7.3f}  "
              f"simulated wall={d['wall']:8.2f}s  placement={d['placement_ms']:7.2f}ms")
    gp, cx = result["graph-partition"], result["cplx:50"]
    # The partitioner wins its own objective...
    assert gp["cut"] < cx["cut"]
    # ...but loses end-to-end: edge cut is a poor proxy for runtime
    # (the paper's §VIII claim).
    assert gp["wall"] > cx["wall"]


def test_extension_zonal_overhead(benchmark):
    """Zonal decomposition vs a *global* (unchunked) CPLX solve — the
    paper's hierarchical-balancing comparison.  (CPLX's own internal
    chunking already captures most of the benefit; the zonal wrapper
    additionally confines the LPT stage.)"""
    n_ranks = 4096
    costs = make_costs("exponential", int(n_ranks * 2.25), seed=2)
    global_cplx = lambda: CPLX(x_percent=50, ranks_per_chunk=10**9)  # noqa: E731

    def run():
        zonal = measure_policy(
            ZonalPolicy(lambda: CPLX(x_percent=50), ranks_per_zone=512),
            costs, n_ranks, repeats=2,
        )
        flat = measure_policy(global_cplx(), costs, n_ranks, repeats=2)
        za = ZonalPolicy(lambda: CPLX(x_percent=50), ranks_per_zone=512).compute(
            costs, n_ranks
        )
        fa = global_cplx().compute(costs, n_ranks)
        return {
            "zonal_ms": zonal.mean_s * 1e3,
            "flat_ms": flat.mean_s * 1e3,
            "zonal_makespan": load_stats(costs, za, n_ranks).makespan,
            "flat_makespan": load_stats(costs, fa, n_ranks).makespan,
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nExtension 3 — zonal vs global CPL50 @ {n_ranks} ranks:")
    print(f"  global CPL50: {r['flat_ms']:8.2f} ms, makespan {r['flat_makespan']:.3f}")
    print(f"  zonal  CPL50: {r['zonal_ms']:8.2f} ms, makespan {r['zonal_makespan']:.3f}")
    assert r["zonal_ms"] < r["flat_ms"]
    assert r["zonal_makespan"] <= r["flat_makespan"] * 1.5


def test_extension_redistribution_trigger(benchmark):
    """Cost/benefit triggering skips unprofitable rebalances."""

    def run():
        rng = np.random.default_rng(4)
        trig = ImbalanceTrigger(
            step_seconds_per_cost=0.1, redistribution_cost_s=0.13,
            horizon_steps=25, hysteresis=1.5,
        )
        fired = skipped = 0
        wasted_without_trigger = 0.0
        for epoch in range(40):
            # Alternate nearly-balanced epochs (round-robin placement of
            # near-uniform costs) with imbalanced ones (random placement
            # of high-variance costs).
            from repro.core import load_stats, lpt_assign

            if epoch % 2:
                # Freshly rebalanced placement whose costs drifted ~3%:
                # rebalancing again should NOT pay off.
                base = rng.lognormal(0.0, 0.4, size=256)
                costs = base * rng.lognormal(0.0, 0.03, size=256)
                assignment = lpt_assign(base, 64)
            else:
                # Stale random placement of high-variance costs: should fire.
                costs = rng.lognormal(0.0, 0.6, size=256)
                assignment = rng.integers(0, 64, size=256)
            # Compare against what the balancer could actually achieve
            # (LPT), not the unreachable area bound.
            achievable = load_stats(costs, lpt_assign(costs, 64), 64).makespan
            d = trig.evaluate(costs, assignment, 64, achievable_makespan=achievable)
            if d.rebalance:
                fired += 1
            else:
                skipped += 1
                # Rebalancing here would have cost more than it saved.
                wasted_without_trigger += max(
                    0.0, d.estimated_cost_s - d.expected_benefit_s
                )
        return fired, skipped, wasted_without_trigger

    fired, skipped, wasted = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension 4 — redistribution trigger over 40 epochs:")
    print(f"  rebalanced: {fired}, skipped: {skipped}, "
          f"avoided waste: {wasted:.2f}s")
    assert fired > 0 and skipped > 0  # discriminates, not constant


def test_extension_des_cross_validation(benchmark):
    """The vectorized BSP model agrees with message-level discrete-event
    execution — the fidelity evidence behind using the fast model for
    the 50k-step Sedov sweeps."""
    from repro.simnet import compare_models

    def run():
        rng = np.random.default_rng(7)
        out = {}
        for policy in ("baseline", "lpt"):
            mesh = random_refined_mesh(32, 2.0, rng)
            costs = rng.lognormal(0.0, 0.3, size=mesh.n_blocks)
            a = get_policy(policy).place(costs, 32).assignment
            cmp = compare_models(
                mesh.neighbor_graph, a, costs, Cluster(n_ranks=32), n_steps=3
            )
            out[policy] = cmp
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension 5 — DES vs vectorized model (32 ranks):")
    for policy, cmp in result.items():
        print(f"  {policy:9s} DES {cmp.des_wall_s:7.4f}s  "
              f"vectorized {cmp.vectorized_wall_s:7.4f}s  "
              f"gap {cmp.relative_gap:6.1%}")
    for cmp in result.values():
        assert cmp.relative_gap < 0.15


def test_extension_switch_topology(benchmark):
    """Two-tier fat-tree topology: cross-switch hops penalize scattered
    placements more than contiguous ones."""
    from repro.simnet import BSPModel, ExchangePattern, FabricSpec

    def run():
        rng = np.random.default_rng(8)
        mesh = random_refined_mesh(128, 2.0, rng)
        costs = np.ones(mesh.n_blocks)
        cluster = Cluster(n_ranks=128, nodes_per_switch=2)
        fabric = FabricSpec(cross_switch_extra_s=200e-6)
        out = {}
        for policy in ("cplx:0", "cplx:100"):
            a = get_policy(policy).place(costs, 128).assignment
            pattern = ExchangePattern.from_mesh(
                mesh.neighbor_graph, a, costs, cluster, fabric
            )
            model = BSPModel(cluster, fabric=fabric, seed=9, exchange_rounds=1)
            _, wall = model.simulate_steps(pattern, 30, max_samples=6)
            cross = (
                np.asarray(cluster.switch_of(pattern.pair_src))
                != np.asarray(cluster.switch_of(pattern.pair_dst))
            ).sum()
            out[policy] = {"wall": wall, "cross_switch_edges": int(cross)}
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension 6 — two-tier switch topology (128 ranks, 4 switches):")
    for policy, d in result.items():
        print(f"  {policy:9s} cross-switch block edges={d['cross_switch_edges']:4d}  "
              f"round wall={d['wall'] * 1e3:7.2f} ms (30 rounds)")
    # Locality-destroying placement crosses switches more.
    assert (
        result["cplx:100"]["cross_switch_edges"]
        > result["cplx:0"]["cross_switch_edges"]
    )
