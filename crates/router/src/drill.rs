//! The cluster drill: open-loop Poisson traffic through the router list
//! of a [`DynamicCluster`] while a scripted chaos thread crashes,
//! restarts, joins and removes nodes, kills routers and rolls a hot swap
//! across the cluster — under a seeded fault plan, with every accepted
//! answer checked bit-identically against a single-process oracle.
//!
//! The drill's contract is the cluster tier's contract:
//!
//! * **Zero admitted requests dropped** — a request some router admits is
//!   either answered with logits or (under pathological overlap of
//!   failures) refused *explicitly*; the drill counts those downstream
//!   refusals separately so a passing run can require exactly zero.
//! * **Bit-identical logits** — replication, retry, restart, gossip and
//!   the rolling swap must never change an answer: every completion is
//!   compared `allclose(·, 0.0)` against `forward_subnet` on an oracle
//!   copy of the model.
//! * **Convergence** — after the run, the surviving routers agree on the
//!   final membership and see every running node healthy.
//!
//! Disruptions must fit the replication: [`DrillConfig::check`] refuses a
//! script that ever takes `replication` nodes out of service at once, and
//! a rolling swap waits out an active partition (a real operator would
//! hold a rollout during an incident, too).

use crate::cluster::{DynamicCluster, DynamicClusterConfig};
use crate::router::{RouterConfig, RouterMetrics};
use fluid_dist::{FaultPlan, FaultReport, FaultSpec, PartitionWindow};
use fluid_models::{ConvNet, SubnetSpec};
use fluid_serve::loadgen::{run_open_loop_indexed, LoadgenReport};
use fluid_serve::{ServeConfig, ServeError, TcpClient};
use fluid_tensor::{Prng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scripted chaos action. Node indices count every node ever booted
/// (`node-{i}`), so a [`JoinNode`](DrillEvent::JoinNode) makes the next
/// index valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillEvent {
    /// Abruptly kill node `i`: no Leave, the routers find out from
    /// failed traffic.
    CrashNode(usize),
    /// Restart node `i` on a fresh port; the routers learn the new
    /// address from its announcements.
    RestartNode(usize),
    /// Boot one more node; the routers learn it from its announcements.
    JoinNode,
    /// Gracefully remove node `i` (it says Leave first).
    LeaveNode(usize),
    /// Kill router `i`; clients ride through by retrying across the
    /// router list.
    KillRouter(usize),
    /// Roll a hot swap across every running node (same weights — a
    /// rolling rebuild, so answers stay bit-identical).
    RollingSwap,
}

/// Shape of one drill run: the cluster, the traffic, the fault draws and
/// the chaos script.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DrillConfig {
    /// Serve nodes to boot (announced, not statically wired).
    pub nodes: usize,
    /// Engine workers per node.
    pub workers_per_node: usize,
    /// Routers to boot (front-end each, gossip when there are peers).
    pub routers: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Poisson arrival rate, requests/s.
    pub lambda: f64,
    /// Total arrivals to generate.
    pub requests: usize,
    /// Concurrent submitter threads draining the arrival process.
    pub concurrency: usize,
    /// Chaos actions, run in order by the chaos thread.
    pub script: Vec<DrillEvent>,
    /// Pause before each script event (the first one is the warmup).
    pub pause: Duration,
    /// Partition window `(from, to)` severing every router's links to
    /// `node-0`, measured from traffic start. It heals on schedule.
    pub partition: Option<(Duration, Duration)>,
    /// Probability a router→node message is silently dropped (surfaces
    /// upstream as a reply deadline, then a retry on the replica).
    pub drop_p: f64,
    /// Probability a router→node message is delivered twice (the reply
    /// matcher must not be confused by the echo).
    pub duplicate_p: f64,
    /// Seed for inputs, arrivals, gossip schedules, and the fault plan —
    /// one seed replays the whole run, faults included.
    pub seed: u64,
    /// Per-node serving configuration.
    pub serve: ServeConfig,
}

impl Default for DrillConfig {
    /// Three nodes behind two routers, one crash/restart cycle then a
    /// rolling swap, no injected faults.
    fn default() -> DrillConfig {
        DrillConfig {
            nodes: 3,
            workers_per_node: 1,
            routers: 2,
            replication: 2,
            lambda: 150.0,
            requests: 300,
            concurrency: 16,
            script: vec![
                DrillEvent::CrashNode(0),
                DrillEvent::RestartNode(0),
                DrillEvent::RollingSwap,
            ],
            pause: Duration::from_millis(150),
            partition: None,
            drop_p: 0.0,
            duplicate_p: 0.0,
            seed: 42,
            serve: ServeConfig::default(),
        }
    }
}

/// A [`DrillConfig`] the drill refuses to run: a precondition on the
/// named field does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrillConfigError {
    /// The offending [`DrillConfig`] field.
    pub field: &'static str,
    /// Why the value is refused.
    pub reason: String,
}

impl std::fmt::Display for DrillConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for DrillConfigError {}

impl DrillConfig {
    /// The drill's preconditions: a real cluster and real traffic,
    /// probabilities in `[0, 1]`, script indices that name booted nodes
    /// and routers, at least one router left alive, and never
    /// `replication` nodes out of service at once. Out of service counts
    /// crashed nodes not yet restarted, `node-0` when a partition is set,
    /// and the node a rolling swap has cordoned (a swap waits out the
    /// partition).
    ///
    /// # Errors
    ///
    /// The first violated precondition.
    pub fn check(&self) -> Result<(), DrillConfigError> {
        let refuse = |field, reason: String| Err(DrillConfigError { field, reason });
        if self.nodes < 2 {
            return refuse("nodes", "a drill needs at least 2 nodes".into());
        }
        if self.routers == 0 {
            return refuse("routers", "a drill needs a router".into());
        }
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return refuse("lambda", format!("must be positive, got {}", self.lambda));
        }
        if self.requests == 0 || self.concurrency == 0 {
            return refuse("requests", "a drill needs traffic and a submitter".into());
        }
        for (field, p) in [("drop_p", self.drop_p), ("duplicate_p", self.duplicate_p)] {
            if !(0.0..=1.0).contains(&p) {
                return refuse(field, format!("must be a probability in [0, 1], got {p}"));
            }
        }
        let mut booted = self.nodes;
        let mut crashed: Vec<usize> = Vec::new();
        let mut killed_routers: Vec<usize> = Vec::new();
        let severed = self.partition.is_some();
        let mut worst = usize::from(severed);
        for &event in &self.script {
            let named = match event {
                DrillEvent::CrashNode(i)
                | DrillEvent::RestartNode(i)
                | DrillEvent::LeaveNode(i) => i < booted,
                DrillEvent::KillRouter(i) => i < self.routers,
                DrillEvent::JoinNode | DrillEvent::RollingSwap => true,
            };
            if !named {
                return refuse("script", format!("{event:?} names nothing that was booted"));
            }
            match event {
                DrillEvent::CrashNode(i) if !crashed.contains(&i) => crashed.push(i),
                DrillEvent::RestartNode(i) => crashed.retain(|&n| n != i),
                DrillEvent::JoinNode => booted += 1,
                DrillEvent::KillRouter(i) if !killed_routers.contains(&i) => killed_routers.push(i),
                _ => {}
            }
            worst = worst.max(if event == DrillEvent::RollingSwap {
                crashed.len() + 1
            } else {
                crashed.len() + usize::from(severed && !crashed.contains(&0))
            });
        }
        if killed_routers.len() >= self.routers {
            return refuse(
                "routers",
                "killing every router (or the only one) is guaranteed unavailability".into(),
            );
        }
        if worst >= self.replication {
            return refuse(
                "replication",
                format!(
                    "{worst} node(s) out of service at once at replication {} is guaranteed \
                     data loss",
                    self.replication
                ),
            );
        }
        Ok(())
    }
}

/// What one drill run did and observed.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The traffic ledger: submitted / completed / shed / failed.
    pub loadgen: LoadgenReport,
    /// Completions whose logits differed from the oracle (must be 0).
    pub mismatched: usize,
    /// Requests some router admitted but then refused downstream after
    /// the client exhausted its retries — every error other than
    /// admission-control [`ServeError::Overloaded`] (must be 0).
    pub rejected_downstream: usize,
    /// Nodes crashed.
    pub kills: usize,
    /// Nodes restarted (fresh port, re-announced).
    pub restarts: usize,
    /// Nodes joined mid-run.
    pub joins: usize,
    /// Nodes that left gracefully mid-run.
    pub leaves: usize,
    /// Routers killed mid-run.
    pub router_kills: usize,
    /// Nodes the rolling swaps replaced in place.
    pub swaps: usize,
    /// What the fault plan's links actually did.
    pub faults: FaultReport,
    /// Whether the surviving routers re-converged after the run.
    pub converged: bool,
    /// Requests the post-run settling trickle sent straight to the
    /// routers and got answered (router-side `served` counts include
    /// them).
    pub settled: usize,
    /// Final counters of every surviving router.
    pub routers: Vec<RouterMetrics>,
}

impl DrillReport {
    /// Whether the run met the drill's contract: every arrival accounted
    /// for, zero admitted requests dropped or refused downstream, every
    /// answer bit-identical to the oracle, and the surviving routers
    /// agreeing on the final membership.
    pub fn passed(&self) -> bool {
        self.loadgen.failed == 0
            && self.rejected_downstream == 0
            && self.mismatched == 0
            && self.converged
            && self.loadgen.completed + self.loadgen.shed == self.loadgen.submitted
    }
}

impl std::fmt::Display for DrillReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "drill: {} | submitted {} | completed {} | shed {} | failed {} | mismatched {} | \
             downstream rejects {}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.loadgen.submitted,
            self.loadgen.completed,
            self.loadgen.shed,
            self.loadgen.failed,
            self.mismatched,
            self.rejected_downstream
        )?;
        writeln!(
            f,
            "chaos: kills {} | restarts {} | joins {} | leaves {} | router kills {} | \
             rolling swaps {} | converged {} | achieved {:.1} req/s",
            self.kills,
            self.restarts,
            self.joins,
            self.leaves,
            self.router_kills,
            self.swaps,
            if self.converged { "yes" } else { "NO" },
            self.loadgen.achieved_rps
        )?;
        writeln!(f, "{}", self.faults)?;
        for r in &self.routers {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// One submitter's set of per-router connections, checked out of a pool
/// around each request so clients are reused, not re-dialed.
type ClientSet = Vec<Option<TcpClient>>;

/// Submits one keyed request through the router list, retrying across
/// routers (and briefly across time) so only a *cluster-wide* refusal
/// surfaces: a dead router, a dropped reply, or a partitioned node must
/// be absorbed by another router, a retry, or a replica.
fn submit_via_routers(
    clients: &mut ClientSet,
    addrs: &[String],
    k: usize,
    x: &Tensor,
    connect_timeout: Duration,
    request_timeout: Duration,
) -> Result<Tensor, ServeError> {
    const PASSES: usize = 3;
    let mut last: Option<ServeError> = None;
    for pass in 0..PASSES {
        if pass > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        for attempt in 0..addrs.len() {
            let i = (k + attempt) % addrs.len();
            if clients[i].is_none() {
                clients[i] = TcpClient::connect_timeout(&addrs[i], connect_timeout)
                    .ok()
                    .map(|c| c.with_timeout(request_timeout));
            }
            let Some(client) = clients[i].as_mut() else {
                continue; // router unreachable (likely killed): next one
            };
            match client.infer_keyed(k as u64, x) {
                Ok(logits) => return Ok(logits),
                Err(ServeError::Rejected(reason)) => {
                    if reason.contains("overloaded") {
                        // Admission shed: an explicit verdict, not a drop.
                        return Err(ServeError::Overloaded { queue_cap: 0 });
                    }
                    // "no live workers" or a downstream refusal: this
                    // router's view may be stale — try the others, then
                    // wait out a gossip/probe beat and try again.
                    last = Some(ServeError::Rejected(reason));
                }
                Err(e) => {
                    // Transport-level failure: the connection is suspect
                    // (killed router, mid-request silence). Drop it and
                    // move on; the next pass re-dials.
                    clients[i] = None;
                    last = Some(e);
                }
            }
        }
    }
    Err(last.unwrap_or(ServeError::NoWorkers))
}

/// Sleeps until `when` (no-op once it has passed).
fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

/// Runs one drill: boot a [`DynamicCluster`], converge, arm a seeded
/// [`FaultPlan`] on every router, then drive open-loop Poisson traffic
/// through the router list while the chaos thread plays the script —
/// and the plan drops, duplicates, and severs `node-0` for its window.
/// After the traffic, a light settling trickle lets every router re-probe
/// the healed nodes before convergence is judged.
///
/// The whole cluster lives in this process; the only network is loopback
/// TCP. The same seed replays the same inputs, arrivals, gossip schedule
/// and fault schedule; thread interleaving varies, but the *contract* —
/// zero drops, zero mismatches — must hold under every interleaving.
///
/// # Errors
///
/// Infrastructure failures only (boot, convergence before traffic,
/// restart, join, or swap machinery); per-request failures are
/// *reported*, so a failing drill comes back as a [`DrillReport`] whose
/// [`passed`](DrillReport::passed) is false.
///
/// # Panics
///
/// If [`DrillConfig::check`] refuses the config (the drill would be
/// guaranteed to drop requests, which is a configuration error, not a
/// finding).
pub fn run_drill(
    net: &ConvNet,
    spec: &SubnetSpec,
    cfg: DrillConfig,
) -> Result<DrillReport, ServeError> {
    if let Err(e) = cfg.check() {
        panic!("invalid drill config: {e}");
    }

    // Deterministic inputs and their single-process oracle answers.
    let arch = net.arch();
    let dims = [1, arch.image_channels, arch.image_side, arch.image_side];
    let mut rng = Prng::new(cfg.seed);
    let inputs: Vec<Tensor> = (0..16)
        .map(|_| Tensor::from_fn(&dims, |_| rng.next_f32()))
        .collect();
    let mut oracle = net.clone();
    let expected: Vec<Tensor> = inputs
        .iter()
        .map(|x| oracle.forward_subnet(x, spec, false))
        .collect();

    let connect_timeout = Duration::from_millis(250);
    let request_timeout = Duration::from_secs(2);
    let cluster_cfg = DynamicClusterConfig {
        nodes: cfg.nodes,
        workers_per_node: cfg.workers_per_node,
        routers: cfg.routers,
        serve: cfg.serve.clone(),
        router: RouterConfig {
            replication: cfg.replication,
            connect_timeout,
            // Low enough that a dropped reply turns into a retry well
            // inside the client's patience.
            request_timeout: Duration::from_millis(800),
            probe_backoff: Duration::from_millis(50),
            ..RouterConfig::default()
        },
        seed: cfg.seed,
        ..DynamicClusterConfig::default()
    };
    let mut cluster = DynamicCluster::boot(net, spec, cluster_cfg)?;
    if !cluster.wait_converged(Duration::from_secs(30)) {
        return Err(ServeError::Elastic(
            "cluster never converged before traffic".into(),
        ));
    }

    // One shared fault plan (clones share schedule, clock, counters):
    // every router's node links draw from it, and the partition window is
    // measured from the single arm() below.
    let plan = FaultPlan::new(
        FaultSpec {
            drop_p: cfg.drop_p,
            duplicate_p: cfg.duplicate_p,
            partitions: cfg
                .partition
                .iter()
                .map(|&(from, to)| PartitionWindow {
                    from,
                    to,
                    peer_match: Some("node-0".to_string()),
                })
                .collect(),
            ..FaultSpec::default()
        },
        cfg.seed,
    );
    for r in 0..cluster.routers_len() {
        cluster
            .router(r)
            .router()
            .set_fault_plan(Some(plan.clone()));
    }

    let addrs: Vec<String> = cluster.router_addrs().to_vec();
    let mismatched = AtomicUsize::new(0);
    let rejected_downstream = AtomicUsize::new(0);
    let pool: Mutex<Vec<ClientSet>> = Mutex::new(Vec::new());
    let mut report = DrillReport {
        loadgen: LoadgenReport::default(),
        mismatched: 0,
        rejected_downstream: 0,
        kills: 0,
        restarts: 0,
        joins: 0,
        leaves: 0,
        router_kills: 0,
        swaps: 0,
        faults: plan.report(),
        converged: false,
        settled: 0,
        routers: Vec::new(),
    };

    // The partition clock starts with the traffic.
    let healed = cfg.partition.map(|(_, to)| Instant::now() + to);
    plan.arm();
    let (loadgen, chaos) = std::thread::scope(|scope| {
        let chaos = scope.spawn(|| -> Result<(), ServeError> {
            let r = &mut report;
            for &event in &cfg.script {
                std::thread::sleep(cfg.pause);
                match event {
                    DrillEvent::CrashNode(i) => {
                        cluster.crash_node(i);
                        r.kills += 1;
                    }
                    DrillEvent::RestartNode(i) => {
                        cluster.restart_node(i)?;
                        r.restarts += 1;
                    }
                    DrillEvent::JoinNode => {
                        cluster.join_node()?;
                        r.joins += 1;
                    }
                    DrillEvent::LeaveNode(i) => {
                        cluster.leave_node(i);
                        r.leaves += 1;
                    }
                    DrillEvent::KillRouter(i) => {
                        cluster.kill_router(i);
                        r.router_kills += 1;
                    }
                    DrillEvent::RollingSwap => {
                        // Replication covers one unavailable node: hold
                        // the rollout until the partition heals.
                        if let Some(healed) = healed {
                            sleep_until(healed);
                        }
                        let timeout = Duration::from_secs(10);
                        r.swaps += cluster.rolling_swap(net, spec, timeout, timeout)?;
                    }
                }
            }
            Ok(())
        });

        let loadgen = run_open_loop_indexed(
            |k| {
                let x = &inputs[k % inputs.len()];
                let mut clients = lock_pool(&pool)
                    .pop()
                    .unwrap_or_else(|| addrs.iter().map(|_| None).collect());
                let result = submit_via_routers(
                    &mut clients,
                    &addrs,
                    k,
                    x,
                    connect_timeout,
                    request_timeout,
                );
                lock_pool(&pool).push(clients);
                match result {
                    Ok(got) => {
                        if !got.allclose(&expected[k % expected.len()], 0.0) {
                            mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(got)
                    }
                    Err(e) => {
                        if !matches!(e, ServeError::Overloaded { .. }) {
                            rejected_downstream.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e)
                    }
                }
            },
            cfg.concurrency,
            cfg.lambda,
            cfg.requests,
            cfg.seed,
        );
        let chaos = chaos
            .join()
            .unwrap_or_else(|_| Err(ServeError::Elastic("chaos thread panicked".into())));
        (loadgen, chaos)
    });
    chaos?;

    // Let the partition heal before judging convergence.
    if let Some(healed) = healed {
        sleep_until(healed);
    }
    // Health is passive — a marked-down node only comes back when a
    // request probes it — so drive a light settling trickle through the
    // survivors until every router has re-probed the healed nodes (or the
    // timeout names the failure). Heartbeats keep the probes expedited;
    // the trickle is what executes them.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut key = 0u64;
    report.converged = loop {
        if cluster.wait_converged(Duration::from_millis(100)) {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        for r in (0..cluster.routers_len()).filter(|&r| cluster.router(r).is_up()) {
            let router = cluster.router(r).router();
            for _ in 0..8 {
                let x = &inputs[key as usize % inputs.len()];
                report.settled += usize::from(router.infer(key, x).is_ok());
                key += 1;
            }
        }
    };

    report.routers = (0..cluster.routers_len())
        .filter(|&r| cluster.router(r).is_up())
        .map(|r| cluster.router(r).router().metrics())
        .collect();
    report.loadgen = loadgen;
    report.mismatched = mismatched.into_inner();
    report.rejected_downstream = rejected_downstream.into_inner();
    report.faults = plan.report();
    Ok(report)
}

/// Locks the client pool, recovering from a poisoned lock (a panicked
/// submitter forfeits its client set; others keep theirs).
fn lock_pool(pool: &Mutex<Vec<ClientSet>>) -> std::sync::MutexGuard<'_, Vec<ClientSet>> {
    pool.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::{Arch, FluidModel};

    fn model() -> (ConvNet, SubnetSpec) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(3));
        let spec = model.spec("combined100").expect("spec").clone();
        (model.net().clone(), spec)
    }

    #[test]
    fn quiet_drill_without_chaos_is_clean() {
        // Harness sanity: announced membership + 2 routers + benign plan,
        // empty script — nothing may be shed, refused, or mismatched.
        let (net, spec) = model();
        let cfg = DrillConfig {
            nodes: 2,
            lambda: 80.0,
            requests: 40,
            concurrency: 8,
            script: Vec::new(),
            ..DrillConfig::default()
        };
        let report = run_drill(&net, &spec, cfg).expect("drill");
        assert!(report.passed(), "quiet drill failed:\n{report}");
        assert_eq!(report.loadgen.completed, 40, "{report}");
        assert_eq!(report.routers.len(), 2, "{report}");
        assert_eq!(
            report.kills + report.restarts + report.joins + report.leaves,
            0
        );
        assert_eq!(report.router_kills + report.swaps, 0);
        let text = report.to_string();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("kills 0"), "{text}");
    }

    #[test]
    #[should_panic(expected = "guaranteed data loss")]
    fn killing_at_replication_one_is_refused() {
        let (net, spec) = model();
        let cfg = DrillConfig {
            replication: 1,
            ..DrillConfig::default()
        };
        let _ = run_drill(&net, &spec, cfg);
    }

    #[test]
    #[should_panic(expected = "guaranteed unavailability")]
    fn killing_the_only_router_is_refused() {
        let (net, spec) = model();
        let cfg = DrillConfig {
            routers: 1,
            script: vec![DrillEvent::KillRouter(0)],
            ..DrillConfig::default()
        };
        let _ = run_drill(&net, &spec, cfg);
    }

    #[test]
    fn check_counts_nodes_out_of_service_at_once() {
        use DrillEvent::*;
        let field = |script: Vec<DrillEvent>, partition: bool| {
            DrillConfig {
                script,
                partition: partition.then_some((Duration::ZERO, Duration::from_secs(1))),
                ..DrillConfig::default()
            }
            .check()
            .err()
            .map(|e| e.field)
        };
        // One node out at a time fits replication 2.
        assert_eq!(
            field(vec![CrashNode(0), RestartNode(0), CrashNode(1)], false),
            None
        );
        assert_eq!(
            field(vec![CrashNode(0), CrashNode(1)], false),
            Some("replication")
        );
        // The partitioned node may crash; another node may not.
        assert_eq!(field(vec![CrashNode(0)], true), None);
        assert_eq!(field(vec![CrashNode(1)], true), Some("replication"));
        // A swap waits out the partition, but not a crashed node.
        assert_eq!(field(vec![RollingSwap], true), None);
        assert_eq!(
            field(vec![CrashNode(2), RollingSwap], false),
            Some("replication")
        );
        // Indices must name something booted; a join makes one more.
        assert_eq!(field(vec![CrashNode(3)], false), Some("script"));
        assert_eq!(field(vec![JoinNode, LeaveNode(3)], false), None);
        assert_eq!(field(vec![KillRouter(2)], false), Some("script"));
        assert_eq!(
            field(vec![KillRouter(0), KillRouter(1)], false),
            Some("routers")
        );

        let bad_p = DrillConfig {
            drop_p: 1.5,
            ..DrillConfig::default()
        };
        assert_eq!(bad_p.check().map_err(|e| e.field), Err("drop_p"));
    }
}
