//! The chaos script as a cross-crate integration test: three announced
//! serve nodes behind two gossip-replicated routers, open-loop Poisson
//! traffic through the router list, a node crashed and restarted
//! mid-stream, then a rolling hot swap across the cluster — with the
//! cluster tier's full contract asserted at the end of every seed:
//!
//! * every arrival is accounted for (completed + shed == submitted),
//! * zero admitted requests dropped or refused downstream,
//! * every completion bit-identical to a single-node oracle,
//! * the routers re-converge on the final membership.
//!
//! This is the test CI's `drill` stage runs on one kernel thread; it must
//! hold under any thread interleaving and any seed, not just the fast
//! path.

use fluid_models::{Arch, FluidModel};
use fluid_router::{run_drill, DrillConfig, DrillEvent};
use fluid_tensor::Prng;
use std::time::Duration;

/// The seeds every run of the chaos script sweeps.
const SEEDS: [u64; 3] = [4242, 777, 31337];

#[test]
fn three_node_drill_survives_a_kill_and_a_rolling_swap() {
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    for seed in SEEDS {
        let mut cfg = DrillConfig::default();
        cfg.nodes = 3;
        cfg.workers_per_node = 1;
        cfg.routers = 2;
        cfg.replication = 2;
        cfg.lambda = 120.0;
        cfg.requests = 240;
        cfg.concurrency = 12;
        cfg.script = vec![
            DrillEvent::CrashNode(0),
            DrillEvent::RestartNode(0),
            DrillEvent::RollingSwap,
        ];
        cfg.pause = Duration::from_millis(150);
        cfg.seed = seed;

        let report = run_drill(model.net(), &spec, cfg).expect("drill infrastructure");

        // The chaos actually happened: one node died and came back, and
        // every node was hot-swapped in place afterwards.
        assert_eq!(report.kills, 1, "seed {seed}: {report}");
        assert_eq!(report.restarts, 1, "seed {seed}: {report}");
        assert_eq!(report.swaps, 3, "seed {seed}: {report}");

        // The contract: nothing admitted was lost, refused downstream, or
        // answered with logits that differ from the oracle.
        assert!(
            report.passed(),
            "seed {seed}: drill contract violated:\n{report}"
        );
        assert_eq!(report.mismatched, 0, "seed {seed}: {report}");
        assert_eq!(report.rejected_downstream, 0, "seed {seed}: {report}");
        assert_eq!(
            report.loadgen.completed + report.loadgen.shed,
            report.loadgen.submitted,
            "seed {seed}: {report}"
        );
        assert!(report.loadgen.completed > 0, "seed {seed}: {report}");

        // Every router saw all three nodes, and the nodes served exactly
        // what the clients (and the settling trickle) got answered.
        assert_eq!(report.routers.len(), 2, "seed {seed}: {report}");
        for router in &report.routers {
            assert_eq!(router.nodes.len(), 3, "seed {seed}: {report}");
        }
        let served: u64 = report
            .routers
            .iter()
            .flat_map(|r| &r.nodes)
            .map(|n| n.served)
            .sum();
        assert_eq!(
            served,
            (report.loadgen.completed + report.settled) as u64,
            "seed {seed}: {report}"
        );
    }
}

#[test]
fn degraded_cluster_still_answers_every_shard() {
    // Replication 2 of 3 nodes: with one node crashed (and never
    // restarted), every shard keeps a live replica, and the cluster still
    // converges — a crashed node stays a member until it says Leave.
    use fluid_router::{DynamicCluster, DynamicClusterConfig, RouterConfig};
    use fluid_tensor::Tensor;

    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(31));
    let spec = model.spec("combined100").expect("spec").clone();
    let mut router_cfg = RouterConfig::default();
    router_cfg.connect_timeout = Duration::from_millis(250);
    router_cfg.probe_backoff = Duration::from_millis(50);
    let mut cfg = DynamicClusterConfig::default();
    cfg.nodes = 3;
    cfg.router = router_cfg;
    let mut cluster = DynamicCluster::boot(model.net(), &spec, cfg).expect("boot");
    assert!(cluster.wait_converged(Duration::from_secs(10)));

    let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 6) as f32 / 6.0);
    let mut oracle = model.net().clone();
    let expected = oracle.forward_subnet(&x, &spec, false);

    cluster.crash_node(2);
    for r in 0..cluster.routers_len() {
        let router = cluster.router(r).router();
        for key in 0..24u64 {
            let got = router
                .infer(key, &x)
                .expect("degraded cluster must still answer");
            assert!(
                got.allclose(&expected, 0.0),
                "router {r} key {key} diverged"
            );
        }
    }
    assert!(
        cluster.wait_converged(Duration::from_secs(10)),
        "a crashed node must not block convergence"
    );
}
