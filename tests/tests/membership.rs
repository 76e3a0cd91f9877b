//! The membership script as a cross-crate integration test: three
//! announced serve nodes behind two gossip-replicated routers, open-loop
//! Poisson traffic through the *router list*, while the drill kills one
//! router, joins a fourth node, and a seeded fault plan drops/duplicates
//! router→node messages and severs `node-0` for a two-second partition
//! window — with the dynamic-membership contract asserted at the end:
//!
//! * every arrival is accounted for (completed + shed == submitted),
//! * zero admitted requests dropped or refused downstream — the killed
//!   router is invisible to clients retrying across the list, and the
//!   partitioned node's shards are covered by replication,
//! * every completion bit-identical to a single-process oracle,
//! * the surviving routers re-converge on the final membership (joined
//!   node included) after the partition heals.
//!
//! This is the test CI's `membership` stage runs on one kernel thread,
//! over a fixed set of seeds. Each run — inputs, arrivals, gossip peer
//! choices, and the fault schedule — replays from its seed.

use fluid_models::{Arch, FluidModel};
use fluid_router::{run_drill, DrillConfig, DrillEvent};
use fluid_tensor::Prng;
use std::time::Duration;

/// The seeds every run of the membership script sweeps.
const SEEDS: [u64; 3] = [777, 4242, 31337];

#[test]
fn membership_drill_survives_router_kill_node_join_and_partition() {
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    for seed in SEEDS {
        let mut cfg = DrillConfig::default();
        cfg.nodes = 3;
        cfg.workers_per_node = 1;
        cfg.routers = 2;
        cfg.replication = 2;
        cfg.lambda = 100.0;
        cfg.requests = 200;
        cfg.concurrency = 12;
        cfg.script = vec![DrillEvent::KillRouter(1), DrillEvent::JoinNode];
        cfg.pause = Duration::from_millis(200);
        cfg.partition = Some((Duration::from_millis(400), Duration::from_millis(2400)));
        cfg.drop_p = 0.02;
        cfg.duplicate_p = 0.02;
        cfg.seed = seed;

        let report = run_drill(model.net(), &spec, cfg).expect("drill infrastructure");

        // The chaos actually happened: a router died, a node joined, and
        // the fault plan attached links (the partition is time-driven, so
        // severed operation counts vary with scheduling — attachment is
        // the invariant).
        assert_eq!(report.router_kills, 1, "seed {seed}: {report}");
        assert_eq!(report.joins, 1, "seed {seed}: {report}");
        assert!(report.faults.links > 0, "seed {seed}: {report}");

        // The contract: nothing admitted was lost, refused downstream, or
        // answered with logits that differ from the oracle — under
        // injected drops, duplicates, a partition, and the router kill
        // all at once.
        assert!(
            report.passed(),
            "seed {seed}: membership drill contract violated:\n{report}"
        );
        assert_eq!(report.mismatched, 0, "seed {seed}: {report}");
        assert_eq!(report.rejected_downstream, 0, "seed {seed}: {report}");
        assert_eq!(
            report.loadgen.completed + report.loadgen.shed,
            report.loadgen.submitted,
            "seed {seed}: {report}"
        );
        assert!(report.loadgen.completed > 0, "seed {seed}: {report}");

        // The survivor's final view: all four nodes (three booted + one
        // joined), every one of them healthy after the heal.
        assert!(report.converged, "seed {seed}: {report}");
        assert_eq!(
            report.routers.len(),
            1,
            "seed {seed}: one router survived: {report}"
        );
        assert_eq!(report.routers[0].nodes.len(), 4, "seed {seed}: {report}");
        assert!(
            report.routers[0].nodes.iter().all(|n| n.up),
            "seed {seed}: every node healthy after heal:\n{report}"
        );
    }
}

#[test]
fn same_seed_replays_the_same_fault_schedule() {
    // Determinism of the *injected* part of the drill: two benign-traffic
    // runs with the same seed must draw identical drop/duplicate
    // schedules (the counters can differ only through scheduling of the
    // partition window, which these configs don't use).
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    let run = |seed| {
        let mut cfg = DrillConfig::default();
        cfg.nodes = 2;
        cfg.routers = 2;
        cfg.lambda = 80.0;
        cfg.requests = 60;
        cfg.concurrency = 6;
        cfg.script = Vec::new();
        cfg.seed = seed;
        run_drill(model.net(), &spec, cfg).expect("drill")
    };
    let a = run(5);
    let b = run(5);
    assert!(a.passed(), "{a}");
    assert!(b.passed(), "{b}");
    assert_eq!(a.loadgen.submitted, b.loadgen.submitted);
    assert_eq!(a.loadgen.completed, b.loadgen.completed);
    assert_eq!(
        (a.faults.dropped, a.faults.duplicated),
        (b.faults.dropped, b.faults.duplicated),
        "same seed must inject the same faults"
    );
}
