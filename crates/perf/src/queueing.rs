//! Discrete-event queueing simulation of the adaptive runtime.
//!
//! The paper claims Fluid DyDNNs "seamlessly transition between two modes
//! to meet varying performance demands". This simulator makes that claim
//! quantitative: Poisson request arrivals hit a two-device system that can
//! serve in High-Accuracy mode (one logical server, best accuracy) or
//! High-Throughput mode (two independent servers), with a backlog-driven
//! switching policy. Reported: sojourn-time statistics, achieved
//! throughput, time share per mode.

use crate::scenario::{DeviceAvailability, ModelFamily, SystemModel};
use fluid_tensor::Prng;
use std::collections::VecDeque;

/// Nearest-rank percentile of an ascending-sorted slice: `sorted[round(q·(n-1))]`.
///
/// `q` is clamped to `[0, 1]`; an empty slice yields `0.0`. This is the
/// convention the queueing simulator has always used for its p95, factored
/// out so live serving metrics (`fluid-serve`) report percentiles the same
/// way the simulator predicts them.
///
/// # Example
///
/// ```
/// use fluid_perf::percentile;
/// let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&sorted, 0.5), 3.0);
/// assert_eq!(percentile(&sorted, 1.0), 5.0);
/// assert_eq!(percentile(&[], 0.95), 0.0); // empty window
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// An append-only window of latency (or any scalar) samples with lazy
/// sorting, shared by the queueing simulator and the live serving metrics.
///
/// Percentiles follow [`percentile`]'s nearest-rank convention; an empty
/// window reports `0.0` for every statistic, and a single-sample window
/// reports that sample at every quantile.
///
/// # Example
///
/// ```
/// use fluid_perf::SampleWindow;
/// let mut w = SampleWindow::new();
/// assert_eq!(w.percentile(0.95), 0.0); // empty window
/// w.push(4.0);
/// assert_eq!(w.percentile(0.5), 4.0); // single sample ⇒ every quantile
/// assert_eq!(w.percentile(0.99), 4.0);
/// w.push(2.0);
/// assert_eq!(w.mean(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleWindow {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `0.0` for an empty window.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample, or `0.0` for an empty window.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }

    /// Nearest-rank percentile (see [`percentile`]); sorts lazily, so a run
    /// of percentile queries after a burst of pushes sorts once.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.samples, q)
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

/// The mode-switching policy of the simulated controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Always serve collectively (peak accuracy).
    AlwaysHa,
    /// Always serve independently (peak throughput).
    AlwaysHt,
    /// Switch to HT when the backlog exceeds `hi`, back to HA at `lo`
    /// (hysteresis).
    Adaptive {
        /// Backlog that triggers High-Throughput mode.
        hi: usize,
        /// Backlog at which the system returns to High-Accuracy mode.
        lo: usize,
    },
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Requests completed.
    pub completed: usize,
    /// Mean sojourn time (queueing + service), seconds.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn time, seconds.
    pub p95_sojourn_s: f64,
    /// Achieved throughput over the run, images/s.
    pub throughput_ips: f64,
    /// Fraction of completions served in High-Accuracy mode.
    pub ha_fraction: f64,
    /// Number of mode switches the policy performed.
    pub mode_switches: usize,
}

/// Simulates `duration_s` seconds of Poisson arrivals at `lambda` req/s.
///
/// Service rates come from the calibrated system model: HA mode serves at
/// the collective rate on one logical server; HT mode serves with two
/// servers at the Master/Worker standalone rates.
///
/// # Panics
///
/// Panics if `lambda <= 0` or `duration_s <= 0`.
pub fn simulate(
    system: &SystemModel,
    policy: Policy,
    lambda: f64,
    duration_s: f64,
    seed: u64,
) -> SimReport {
    assert!(lambda > 0.0, "non-positive arrival rate");
    assert!(duration_s > 0.0, "non-positive duration");
    let ha_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::Both, false)
            .throughput_ips;
    let master_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::OnlyMaster, false)
            .throughput_ips;
    let worker_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::OnlyWorker, false)
            .throughput_ips;

    let mut rng = Prng::new(seed);
    // Pre-draw the arrival process.
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(lambda);
        if t > duration_s {
            break;
        }
        arrivals.push(t);
    }

    let mut queue: VecDeque<f64> = VecDeque::new(); // arrival stamps
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    // Server busy-until times: in HA mode only server 0 is used.
    let mut busy_until = [0.0f64; 2];
    let mut ht_mode = matches!(policy, Policy::AlwaysHt);
    let mut sojourns = SampleWindow::new();
    let mut ha_count = 0usize;
    let mut switches = 0usize;

    loop {
        // Next event: arrival or a server becoming free with work queued.
        let arrival_t = arrivals.get(next_arrival).copied().unwrap_or(f64::INFINITY);
        if arrival_t == f64::INFINITY && queue.is_empty() {
            break;
        }
        // Admit all arrivals up to the time we can next serve.
        let serve_t = if queue.is_empty() {
            arrival_t
        } else {
            let earliest_server = if ht_mode {
                busy_until[0].min(busy_until[1])
            } else {
                busy_until[0]
            };
            earliest_server.max(now)
        };
        if arrival_t <= serve_t {
            queue.push_back(arrival_t);
            now = now.max(arrival_t);
            next_arrival += 1;
        } else {
            // Serve one request.
            let arrived = queue.pop_front().expect("non-empty queue");
            now = serve_t;
            let (server, latency) = if ht_mode {
                if busy_until[0] <= busy_until[1] {
                    (0, master_latency)
                } else {
                    (1, worker_latency)
                }
            } else {
                (0, ha_latency)
            };
            let start = now.max(busy_until[server]);
            let done = start + latency;
            busy_until[server] = done;
            sojourns.push(done - arrived);
            if !ht_mode {
                ha_count += 1;
            }
        }
        // Apply the switching policy on the current backlog.
        if let Policy::Adaptive { hi, lo } = policy {
            if !ht_mode && queue.len() >= hi {
                ht_mode = true;
                switches += 1;
            } else if ht_mode && queue.len() <= lo {
                ht_mode = false;
                switches += 1;
                // Collapse to the single logical server.
                busy_until[0] = busy_until[0].max(busy_until[1]);
            }
        }
    }

    let completed = sojourns.len();
    let mean = sojourns.mean();
    let p95 = sojourns.percentile(0.95);
    let last_done = busy_until[0].max(busy_until[1]).max(now);
    SimReport {
        completed,
        mean_sojourn_s: mean,
        p95_sojourn_s: p95,
        throughput_ips: if last_done > 0.0 {
            completed as f64 / last_done
        } else {
            0.0
        },
        ha_fraction: if completed == 0 {
            0.0
        } else {
            ha_count as f64 / completed as f64
        },
        mode_switches: switches,
    }
}

/// One node becoming unavailable for a window of simulated time (a crash
/// + restart, or a rolling-swap drain) inside [`simulate_cluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutage {
    /// Index of the node that goes dark.
    pub node: usize,
    /// Outage start, seconds into the run.
    pub from_s: f64,
    /// Outage end, seconds into the run.
    pub to_s: f64,
}

/// One router front going dark for a window of simulated time inside
/// [`simulate_cluster`]. Clients hold the *list* of routers, so with two
/// or more routers an outage costs the affected arrivals one retry (the
/// client reconnects to the next list entry); with a single router every
/// arrival of the window is simply lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOutage {
    /// Index of the router that goes dark.
    pub router: usize,
    /// Outage start, seconds into the run.
    pub from_s: f64,
    /// Outage end, seconds into the run.
    pub to_s: f64,
}

/// A multi-shard serving cluster for [`simulate_cluster`]: `nodes`
/// single-server nodes, keys hashed over `shards` buckets, each bucket
/// served by `replication` consecutive nodes (an abstraction of the
/// router's rendezvous replica sets — the queueing behaviour only depends
/// on the replica *count*, not which hash picked them), fronted by
/// `routers` replicated routers that clients spread over uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScenario {
    /// Serve nodes in the cluster.
    pub nodes: usize,
    /// Replicas per shard (clamped to `nodes`).
    pub replication: usize,
    /// Hash buckets the key space splits into.
    pub shards: usize,
    /// Poisson arrival rate, requests/s.
    pub lambda: f64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Per-request service time on any node, seconds.
    pub service_s: f64,
    /// At most one node outage per run (the drill's discipline: never two
    /// nodes dark at once).
    pub outage: Option<NodeOutage>,
    /// Replicated router fronts; clients hold the full list and pick one
    /// uniformly per request.
    pub routers: usize,
    /// At most one router outage per run.
    pub router_outage: Option<RouterOutage>,
    /// A reachability partition: the node is *healthy* but severed from
    /// every router for the window (contrast `outage`, where the node is
    /// gone). Its shards fail over to replicas; until the verdict has
    /// gossiped to every router, each affected arrival also pays one
    /// failed attempt on the severed primary.
    pub partition: Option<NodeOutage>,
    /// Anti-entropy gossip interval between routers, seconds: the bound
    /// on how long routers keep dialing a partitioned node after the
    /// first failed attempt produced a health verdict somewhere.
    pub gossip_interval_s: f64,
    /// Client-visible cost of one failed attempt plus its retry (a
    /// connect timeout, roughly), seconds.
    pub retry_penalty_s: f64,
}

impl ClusterScenario {
    /// A scenario with 64 shards, one router, a 100 ms gossip interval, a
    /// 250 ms retry penalty, and no failure windows; set `outage`,
    /// `router_outage`, or `partition` afterwards to model one.
    pub fn new(
        nodes: usize,
        replication: usize,
        lambda: f64,
        duration_s: f64,
        service_s: f64,
    ) -> ClusterScenario {
        ClusterScenario {
            nodes,
            replication,
            shards: 64,
            lambda,
            duration_s,
            service_s,
            outage: None,
            routers: 1,
            router_outage: None,
            partition: None,
            gossip_interval_s: 0.1,
            retry_penalty_s: 0.25,
        }
    }
}

/// Result of one [`simulate_cluster`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimReport {
    /// Requests served by some replica.
    pub completed: usize,
    /// Requests that arrived while *every* replica of their shard was in
    /// outage — the cluster-level drop the router's replication exists to
    /// prevent.
    pub dropped: usize,
    /// Mean sojourn (queueing + service), seconds, over completions.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn, seconds.
    pub p95_sojourn_s: f64,
    /// Completions per second of simulated time.
    pub throughput_ips: f64,
    /// Completions served by each node.
    pub per_node_served: Vec<usize>,
    /// Completions that paid at least one retry penalty (a dead router in
    /// the client's list, or an undetected partitioned primary).
    pub retried: usize,
}

/// Simulates Poisson arrivals against a sharded, replicated cluster
/// behind replicated routers: each arrival picks a router uniformly and
/// hashes to a shard; the least-backlogged *reachable* replica serves it
/// FIFO; if every replica is in outage (or partitioned) the request is
/// dropped.
///
/// This is the model that justifies `fluid-router`'s defaults:
///
/// * At `replication = 1` any node outage drops every request of that
///   node's shards for the whole window, while `replication = 2` rides
///   through a single-node outage with zero drops and only a latency
///   bump — why 2 is the default and the drill's crash discipline is
///   one-node-at-a-time (`one_replica_drops_two_replicas_ride_through`).
/// * With a single router, a router outage drops its whole window; a
///   second router turns the same window into per-request retries
///   (`one_router_drops_its_outage_two_routers_retry_through_it`).
/// * During a node partition, arrivals keep paying a failed attempt on
///   the severed primary until the health verdict has gossiped to every
///   router — so the retry tail is proportional to the gossip interval,
///   which is why `fluid-router`'s anti-entropy default is 100 ms
///   (`shorter_gossip_interval_shrinks_the_partition_tail`).
///
/// # Panics
///
/// Panics if `nodes`, `replication`, `shards`, `routers`, `lambda`,
/// `duration_s`, `service_s`, or `gossip_interval_s` is
/// zero/non-positive, or `retry_penalty_s` is negative.
pub fn simulate_cluster(scenario: &ClusterScenario, seed: u64) -> ClusterSimReport {
    assert!(scenario.nodes > 0, "cluster needs at least one node");
    assert!(scenario.replication > 0, "replication must be >= 1");
    assert!(scenario.shards > 0, "cluster needs at least one shard");
    assert!(scenario.routers > 0, "cluster needs at least one router");
    assert!(scenario.lambda > 0.0, "non-positive arrival rate");
    assert!(scenario.duration_s > 0.0, "non-positive duration");
    assert!(scenario.service_s > 0.0, "non-positive service time");
    assert!(
        scenario.gossip_interval_s > 0.0,
        "non-positive gossip interval"
    );
    assert!(scenario.retry_penalty_s >= 0.0, "negative retry penalty");
    let replication = scenario.replication.min(scenario.nodes);
    let windowed = |w: &Option<NodeOutage>, node: usize, t: f64| match *w {
        Some(o) => node == o.node && t >= o.from_s && t < o.to_s,
        None => false,
    };
    // A node serves nothing while dead (outage) *or* severed (partition);
    // the difference is only in the retry tail below.
    let unreachable = |node: usize, t: f64| {
        windowed(&scenario.outage, node, t) || windowed(&scenario.partition, node, t)
    };

    let mut rng = Prng::new(seed);
    let mut busy_until = vec![0.0f64; scenario.nodes];
    let mut per_node_served = vec![0usize; scenario.nodes];
    let mut sojourns = SampleWindow::new();
    let mut dropped = 0usize;
    let mut retried = 0usize;
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(scenario.lambda);
        if t > scenario.duration_s {
            break;
        }
        let shard = rng.below(scenario.shards);
        // Drawn unconditionally so scenarios differing only in failure
        // windows or router count see the same arrival/shard stream.
        let router = rng.below(scenario.routers);
        let mut penalty = 0.0f64;
        if let Some(o) = scenario.router_outage {
            if router == o.router && t >= o.from_s && t < o.to_s {
                if scenario.routers == 1 {
                    // No list to retry across: the request is lost.
                    dropped += 1;
                    continue;
                }
                // The client's next list entry serves; the dead router
                // cost one reconnect.
                penalty += scenario.retry_penalty_s;
            }
        }
        // Replica set: `replication` consecutive nodes starting at the
        // shard's primary. Which nodes they are doesn't matter to the
        // queueing; that they are distinct and fixed per shard does.
        let primary = shard % scenario.nodes;
        if let Some(p) = scenario.partition {
            // Until every router has heard the verdict (one gossip
            // interval after the first failed attempt at window start),
            // a request whose replica set holds the severed node pays
            // one failed attempt before its replica answers.
            let undetected =
                t >= p.from_s && t < p.to_s && t < p.from_s + scenario.gossip_interval_s;
            let targets_severed =
                (0..replication).any(|j| (primary + j) % scenario.nodes == p.node);
            if undetected && targets_severed {
                penalty += scenario.retry_penalty_s;
            }
        }
        let chosen = (0..replication)
            .map(|j| (primary + j) % scenario.nodes)
            .filter(|&node| !unreachable(node, t))
            .min_by(|&a, &b| busy_until[a].total_cmp(&busy_until[b]));
        match chosen {
            None => dropped += 1,
            Some(node) => {
                let start = t.max(busy_until[node]);
                let done = start + scenario.service_s;
                busy_until[node] = done;
                per_node_served[node] += 1;
                // The retry penalty is client-side latency: it delays the
                // response, not the node's service slot.
                sojourns.push(done - t + penalty);
                if penalty > 0.0 {
                    retried += 1;
                }
            }
        }
    }

    let completed = sojourns.len();
    let last_done = busy_until.iter().copied().fold(t, f64::max);
    ClusterSimReport {
        completed,
        dropped,
        mean_sojourn_s: sojourns.mean(),
        p95_sojourn_s: sojourns.percentile(0.95),
        throughput_ips: if last_done > 0.0 {
            completed as f64 / last_done
        } else {
            0.0
        },
        per_node_served,
        retried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemModel {
        SystemModel::paper_testbed()
    }

    #[test]
    fn light_load_ha_keeps_up() {
        // λ = 5 req/s against ~12 img/s HA capacity: stable queue.
        let r = simulate(&sys(), Policy::AlwaysHa, 5.0, 60.0, 1);
        assert!(r.completed > 200);
        assert!(r.mean_sojourn_s < 0.5, "mean sojourn {}", r.mean_sojourn_s);
        assert!((r.ha_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overload_ha_queue_explodes_ht_does_not() {
        // λ = 20 req/s exceeds HA capacity (~12) but not HT (~28).
        let ha = simulate(&sys(), Policy::AlwaysHa, 20.0, 60.0, 2);
        let ht = simulate(&sys(), Policy::AlwaysHt, 20.0, 60.0, 2);
        assert!(
            ha.p95_sojourn_s > 5.0 * ht.p95_sojourn_s,
            "HA p95 {} vs HT p95 {}",
            ha.p95_sojourn_s,
            ht.p95_sojourn_s
        );
        assert!(ht.throughput_ips > 19.0);
    }

    #[test]
    fn adaptive_policy_tracks_load() {
        // Under overload the adaptive policy must serve mostly in HT and
        // keep latency near the HT baseline while still taking HA requests
        // when the queue drains.
        let adaptive = simulate(&sys(), Policy::Adaptive { hi: 8, lo: 1 }, 20.0, 60.0, 3);
        let ht = simulate(&sys(), Policy::AlwaysHt, 20.0, 60.0, 3);
        assert!(adaptive.mode_switches > 0);
        assert!(adaptive.ha_fraction > 0.0 && adaptive.ha_fraction < 1.0);
        assert!(
            adaptive.p95_sojourn_s < 4.0 * ht.p95_sojourn_s,
            "adaptive p95 {} vs HT {}",
            adaptive.p95_sojourn_s,
            ht.p95_sojourn_s
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        let b = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-positive arrival rate")]
    fn zero_lambda_panics() {
        let _ = simulate(&sys(), Policy::AlwaysHa, 0.0, 1.0, 0);
    }

    #[test]
    fn empty_window_percentiles_are_zero() {
        // A measurement window that saw no completions must report zeros,
        // not NaN or a panic — live serving metrics snapshot whenever asked.
        let mut w = SampleWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.max(), 0.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(w.percentile(q), 0.0, "q={q}");
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn single_sample_window_reports_that_sample_everywhere() {
        let mut w = SampleWindow::new();
        w.push(3.25);
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), 3.25);
        assert_eq!(w.max(), 3.25);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(w.percentile(q), 3.25, "q={q}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_clamps_q() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 40.0);
        // round(0.5 * 3) = 2 → 30.0 (nearest rank, not interpolation).
        assert_eq!(percentile(&sorted, 0.5), 30.0);
        // Out-of-range q is clamped, never an index panic.
        assert_eq!(percentile(&sorted, -1.0), 10.0);
        assert_eq!(percentile(&sorted, 7.0), 40.0);
    }

    #[test]
    fn max_of_all_negative_window_is_a_member() {
        // "any scalar" means negatives too: max must come from the window,
        // never from a 0.0 fold seed.
        let mut w = SampleWindow::new();
        w.push(-5.0);
        w.push(-2.0);
        assert_eq!(w.max(), -2.0);
    }

    #[test]
    fn window_sorts_lazily_and_clear_resets() {
        let mut w = SampleWindow::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.percentile(0.0), 1.0);
        assert_eq!(w.percentile(1.0), 5.0);
        // Pushing after a sort re-dirties the window.
        w.push(0.5);
        assert_eq!(w.percentile(0.0), 0.5);
        w.clear();
        assert_eq!(w.percentile(0.95), 0.0);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn one_replica_drops_two_replicas_ride_through() {
        // The replication-default justification: a 20 s single-node outage
        // at replication 1 drops every arrival of that node's shards, while
        // replication 2 serves all of them — same arrivals, same seed.
        let outage = NodeOutage {
            node: 1,
            from_s: 20.0,
            to_s: 40.0,
        };
        let mut r1 = ClusterScenario::new(3, 1, 60.0, 60.0, 0.01);
        r1.outage = Some(outage);
        let mut r2 = ClusterScenario::new(3, 2, 60.0, 60.0, 0.01);
        r2.outage = Some(outage);
        let seed = 5;
        let rep1 = simulate_cluster(&r1, seed);
        let rep2 = simulate_cluster(&r2, seed);
        assert!(
            rep1.dropped > 200,
            "a third of 20 s × 60 req/s should drop, saw {}",
            rep1.dropped
        );
        assert_eq!(rep2.dropped, 0, "replication 2 must ride out one outage");
        assert_eq!(rep2.completed, rep1.completed + rep1.dropped);
    }

    #[test]
    fn replicas_spread_load_and_absorb_the_outage_window() {
        let outage = NodeOutage {
            node: 0,
            from_s: 10.0,
            to_s: 20.0,
        };
        let mut sc = ClusterScenario::new(3, 2, 90.0, 30.0, 0.005);
        sc.outage = Some(outage);
        let rep = simulate_cluster(&sc, 11);
        assert_eq!(rep.dropped, 0);
        assert_eq!(rep.per_node_served.len(), 3);
        assert!(rep.per_node_served.iter().all(|&n| n > 0));
        // The downed node serves the least; its peers absorbed its window.
        let min = rep.per_node_served.iter().min().copied().unwrap_or(0);
        assert_eq!(rep.per_node_served[0], min);
        assert!(rep.throughput_ips > 80.0, "{}", rep.throughput_ips);
    }

    #[test]
    fn one_router_drops_its_outage_two_routers_retry_through_it() {
        // The replicated-router justification: a 10 s router outage with a
        // single router loses its entire window, while a second router
        // turns every one of those arrivals into a completed (if slightly
        // slower) request — same arrivals, same seed.
        let outage = RouterOutage {
            router: 0,
            from_s: 10.0,
            to_s: 20.0,
        };
        let mut one = ClusterScenario::new(3, 2, 60.0, 30.0, 0.005);
        one.router_outage = Some(outage);
        let mut two = ClusterScenario::new(3, 2, 60.0, 30.0, 0.005);
        two.routers = 2;
        two.router_outage = Some(outage);
        let a = simulate_cluster(&one, 21);
        let b = simulate_cluster(&two, 21);
        assert!(
            a.dropped > 200,
            "a single-router outage should drop ~600 arrivals, saw {}",
            a.dropped
        );
        assert_eq!(b.dropped, 0, "a second router absorbs the outage");
        assert!(b.retried > 0, "the dead router must cost retries");
        assert_eq!(b.completed, a.completed + a.dropped);
    }

    #[test]
    fn shorter_gossip_interval_shrinks_the_partition_tail() {
        // The 100 ms anti-entropy default: while a partition verdict has
        // not yet gossiped to every router, requests targeting the severed
        // primary pay a failed attempt before the replica answers. The
        // retry tail — and with it the p95 — scales with the interval.
        let partition = NodeOutage {
            node: 1,
            from_s: 10.0,
            to_s: 20.0,
        };
        let mk = |gossip_interval_s: f64| {
            let mut sc = ClusterScenario::new(3, 2, 60.0, 30.0, 0.005);
            sc.routers = 2;
            sc.partition = Some(partition);
            sc.gossip_interval_s = gossip_interval_s;
            sc
        };
        let fast = simulate_cluster(&mk(0.1), 23);
        let slow = simulate_cluster(&mk(5.0), 23);
        // Replication rides the partition out either way…
        assert_eq!(fast.dropped, 0);
        assert_eq!(slow.dropped, 0);
        assert_eq!(fast.completed, slow.completed);
        // …but a 50× slower gossip interval means a 50×-ish longer tail of
        // failed first attempts, and a visibly worse p95.
        assert!(
            10 * fast.retried < slow.retried,
            "fast {} vs slow {} retried",
            fast.retried,
            slow.retried
        );
        assert!(
            fast.p95_sojourn_s < slow.p95_sojourn_s,
            "fast p95 {} vs slow p95 {}",
            fast.p95_sojourn_s,
            slow.p95_sojourn_s
        );
    }

    #[test]
    fn cluster_sim_is_deterministic_given_seed() {
        let sc = ClusterScenario::new(4, 2, 50.0, 20.0, 0.01);
        assert_eq!(simulate_cluster(&sc, 3), simulate_cluster(&sc, 3));
    }

    #[test]
    fn stable_cluster_keeps_sojourns_near_service_time() {
        // Far under capacity, sojourn ≈ service time: queueing is rare.
        let sc = ClusterScenario::new(3, 2, 30.0, 30.0, 0.004);
        let rep = simulate_cluster(&sc, 8);
        assert_eq!(rep.dropped, 0);
        assert!(rep.mean_sojourn_s < 0.02, "{}", rep.mean_sojourn_s);
        assert!(rep.p95_sojourn_s >= rep.mean_sojourn_s * 0.5);
    }

    #[test]
    fn zero_arrivals_is_an_empty_report_not_a_nan() {
        // A rate so low the duration sees no arrivals: every counter is
        // zero and the percentiles are defined (0.0), not NaN.
        let sc = ClusterScenario::new(2, 2, 1e-9, 1.0, 0.01);
        let rep = simulate_cluster(&sc, 5);
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.dropped, 0);
        assert_eq!(rep.mean_sojourn_s, 0.0);
        assert_eq!(rep.p95_sojourn_s, 0.0);
        assert_eq!(rep.throughput_ips, 0.0);
        assert!(rep.per_node_served.iter().all(|&n| n == 0));
    }

    #[test]
    fn single_shard_cluster_still_spreads_over_its_replicas() {
        // One shard with replication 2 on 3 nodes: exactly two nodes
        // serve; the third never sees a request.
        let sc = ClusterScenario {
            shards: 1,
            ..ClusterScenario::new(3, 2, 60.0, 20.0, 0.005)
        };
        let rep = simulate_cluster(&sc, 13);
        assert!(rep.completed > 0);
        assert_eq!(rep.dropped, 0);
        let serving = rep.per_node_served.iter().filter(|&&n| n > 0).count();
        assert_eq!(serving, 2, "{:?}", rep.per_node_served);
    }

    #[test]
    fn replication_beyond_node_count_is_clamped_not_fatal() {
        // Asking for 5 replicas on 2 nodes behaves exactly like full
        // replication: same completions, same spread, nothing panics.
        let want = ClusterScenario::new(2, 5, 40.0, 10.0, 0.005);
        let full = ClusterScenario::new(2, 2, 40.0, 10.0, 0.005);
        let a = simulate_cluster(&want, 17);
        let b = simulate_cluster(&full, 17);
        assert_eq!(a, b, "clamped replication must match full replication");
        assert!(a.completed > 0);
    }

    #[test]
    #[should_panic(expected = "replication must be >= 1")]
    fn zero_replication_panics() {
        let sc = ClusterScenario {
            replication: 0,
            ..ClusterScenario::new(2, 1, 10.0, 1.0, 0.01)
        };
        let _ = simulate_cluster(&sc, 0);
    }

    #[test]
    fn simulator_percentiles_match_the_shared_helper() {
        // The refactored simulate() must agree with a hand computation via
        // the public helper on the same sojourn distribution.
        let r = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        assert!(r.p95_sojourn_s >= r.mean_sojourn_s * 0.5);
        assert!(r.p95_sojourn_s.is_finite() && r.p95_sojourn_s > 0.0);
    }
}
