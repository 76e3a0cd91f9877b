//! The cluster harness: N announcing serve nodes behind R
//! gossip-replicated routers.
//!
//! Every node runs a background [`Announcer`](fluid_serve::Announcer)
//! that Joins and heartbeats every router, every router runs a TCP
//! front-end ([`route_tcp`]) plus a gossip thread ([`spawn_gossip`]) when
//! it has peers, and nothing is wired by hand — a router learns the
//! cluster from announcements and from its peers, and clients learn to
//! survive a router by retrying across the router list. A static cluster
//! is just nodes that joined at boot. The drill
//! ([`run_drill`](crate::run_drill)) runs against exactly this harness.

use crate::gossip::{spawn_gossip, GossipConfig};
use crate::node::ServeNode;
use crate::router::{route_tcp, NodeStatus, Router, RouterConfig};
use fluid_models::{ConvNet, SubnetSpec};
use fluid_serve::{AnnounceConfig, Announcer, ServeConfig, ServeError};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One router process-in-miniature: the [`Router`] state, its TCP
/// front-end thread, and (optionally) its gossip thread, with a kill
/// switch that takes all of it down at once — the unit the membership
/// drill kills to prove router loss is invisible.
pub struct RouterNode {
    router: Router,
    addr: String,
    shutdown: Arc<AtomicBool>,
    front: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    gossip: Option<std::thread::JoinHandle<()>>,
}

impl RouterNode {
    /// Spawns a router front-end on `listener`, plus a gossip thread when
    /// `gossip` is given.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the listener's local address cannot
    /// be read.
    pub fn spawn_on(
        listener: TcpListener,
        router: Router,
        gossip: Option<GossipConfig>,
    ) -> Result<RouterNode, ServeError> {
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Transport(e.to_string()))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (router, shutdown) = (router.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || route_tcp(listener, router, shutdown))
        };
        let gossip = gossip.map(|cfg| spawn_gossip(router.clone(), cfg, Arc::clone(&shutdown)));
        Ok(RouterNode {
            router,
            addr,
            shutdown,
            front: Some(front),
            gossip,
        })
    }

    /// Spawns on a fresh loopback port.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the port cannot be bound.
    pub fn spawn(router: Router, gossip: Option<GossipConfig>) -> Result<RouterNode, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ServeError::Transport(format!("bind router: {e}")))?;
        RouterNode::spawn_on(listener, router, gossip)
    }

    /// The router state behind this front-end (cheap clone; see
    /// [`Router`]).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The front-end's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the front-end is still accepting.
    pub fn is_up(&self) -> bool {
        self.front.is_some()
    }

    /// Kills the router: front-end and gossip stop, open client
    /// connections die. Idempotent. The [`Router`] state survives (it is
    /// shared), but nothing serves it anymore — from a client's point of
    /// view this router is gone.
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(front) = self.front.take() {
            let _ = front.join();
        }
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
    }
}

impl Drop for RouterNode {
    fn drop(&mut self) {
        self.kill();
    }
}

impl std::fmt::Debug for RouterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterNode")
            .field("addr", &self.addr)
            .field("up", &self.is_up())
            .finish_non_exhaustive()
    }
}

/// Shape of a [`DynamicCluster`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DynamicClusterConfig {
    /// Serve nodes to boot (`node-0` …).
    pub nodes: usize,
    /// Engine workers per node.
    pub workers_per_node: usize,
    /// Routers to boot (`router-0` …), each with a TCP front-end and a
    /// gossip thread over the others.
    pub routers: usize,
    /// Per-node serving configuration.
    pub serve: ServeConfig,
    /// Router template; each router gets it with its own `id`.
    pub router: RouterConfig,
    /// Gossip cadence between routers.
    pub gossip_interval: Duration,
    /// Node heartbeat cadence.
    pub announce_interval: Duration,
    /// Seed for the routers' gossip peer-choice streams.
    pub seed: u64,
}

impl Default for DynamicClusterConfig {
    fn default() -> DynamicClusterConfig {
        DynamicClusterConfig {
            nodes: 3,
            workers_per_node: 1,
            routers: 2,
            serve: ServeConfig::default(),
            router: RouterConfig::default(),
            gossip_interval: Duration::from_millis(100),
            announce_interval: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// One announcing serve node: the node itself plus its membership
/// announcer (absent after a crash or a leave).
struct Member {
    node: ServeNode,
    announcer: Option<Announcer>,
    /// Whether the node said Leave to the routers (a crash says nothing,
    /// so a crashed node stays a member until it leaves).
    left: bool,
}

/// N announcing serve nodes behind R gossip-replicated routers. See the
/// module docs for the wiring.
pub struct DynamicCluster {
    members: Vec<Member>,
    routers: Vec<RouterNode>,
    router_addrs: Vec<String>,
    net: ConvNet,
    spec: SubnetSpec,
    cfg: DynamicClusterConfig,
}

impl DynamicCluster {
    /// Boots the routers first (so nodes have someone to announce to),
    /// then the nodes with their announcers. Returns as soon as
    /// everything is *spawned*; call
    /// [`wait_converged`](DynamicCluster::wait_converged) before
    /// asserting on membership.
    ///
    /// # Errors
    ///
    /// Any bind or spawn failure aborts the boot (already-started pieces
    /// are dropped, which kills them).
    ///
    /// # Panics
    ///
    /// If the config asks for zero routers (nodes would announce into the
    /// void).
    pub fn boot(
        net: &ConvNet,
        spec: &SubnetSpec,
        cfg: DynamicClusterConfig,
    ) -> Result<DynamicCluster, ServeError> {
        assert!(cfg.routers >= 1, "a dynamic cluster needs a router");
        // Bind every router port first: gossip configs need the full
        // peer list before any router starts.
        let listeners = (0..cfg.routers)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| ServeError::Transport(format!("bind router: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router_addrs = listeners
            .iter()
            .map(|l| {
                l.local_addr()
                    .map(|a| a.to_string())
                    .map_err(|e| ServeError::Transport(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let routers = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let router = Router::new(RouterConfig {
                    id: format!("router-{i}"),
                    ..cfg.router.clone()
                });
                let peers: Vec<String> = router_addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect();
                let gossip = (!peers.is_empty()).then(|| GossipConfig {
                    peers,
                    interval: cfg.gossip_interval,
                    seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..GossipConfig::new(Vec::new())
                });
                RouterNode::spawn_on(listener, router, gossip)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut cluster = DynamicCluster {
            members: Vec::new(),
            routers,
            router_addrs,
            net: net.clone(),
            spec: spec.clone(),
            cfg,
        };
        for _ in 0..cluster.cfg.nodes {
            cluster.join_node()?;
        }
        Ok(cluster)
    }

    /// Boots one more serve node (`node-{next}`) with an announcer and
    /// returns its id — the "scale up under traffic" move the membership
    /// drill performs. The routers learn it from its Join/heartbeats; no
    /// router is touched directly.
    ///
    /// # Errors
    ///
    /// Node spawn failures pass through.
    pub fn join_node(&mut self) -> Result<String, ServeError> {
        let id = format!("node-{}", self.members.len());
        let node = ServeNode::spawn(
            &id,
            &self.net,
            &self.spec,
            self.cfg.workers_per_node,
            self.cfg.serve.clone(),
        )?;
        let announcer = Some(self.announcer(&node)?);
        self.members.push(Member {
            node,
            announcer,
            left: false,
        });
        Ok(id)
    }

    /// Starts announcing `node` at its current address to every router.
    fn announcer(&self, node: &ServeNode) -> Result<Announcer, ServeError> {
        let announce = AnnounceConfig {
            interval: self.cfg.announce_interval,
            ..AnnounceConfig::new(node.id(), node.addr(), self.router_addrs.clone())
        };
        Ok(Announcer::spawn(announce, node.handle()?))
    }

    /// Gracefully removes node `index`: its announcer sends Leave to
    /// every reachable router, then the node shuts down. A crashed node
    /// has no announcer left to say Leave, so it stays a member.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn leave_node(&mut self, index: usize) {
        let member = &mut self.members[index];
        if let Some(announcer) = member.announcer.take() {
            announcer.stop();
            member.left = true;
        }
        member.node.kill();
    }

    /// Restarts node `index` (crashing it first if it is still up) on a
    /// fresh port with a fresh announcer. The routers learn the new
    /// address from its Join and heartbeats; a node that had left joins
    /// again.
    ///
    /// # Errors
    ///
    /// Node boot failures pass through.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn restart_node(&mut self, index: usize) -> Result<(), ServeError> {
        self.crash_node(index);
        self.members[index].node.restart()?;
        let announcer = self.announcer(&self.members[index].node)?;
        let member = &mut self.members[index];
        member.announcer = Some(announcer);
        member.left = false;
        Ok(())
    }

    /// Rolls a new model across the cluster one node at a time: cordon
    /// the node on every live router (cordon is per-router state, never
    /// gossiped), wait until its in-flight count summed over those
    /// routers reaches zero, hot-swap it in place (its own zero-drop
    /// drain), uncordon, next. With `replication ≥ 2` every shard keeps a
    /// serving replica throughout, so the cluster as a whole never
    /// refuses a shard.
    ///
    /// Downed nodes are skipped; a router that does not list a node
    /// routes nothing to it and is left alone. Returns the number of
    /// nodes swapped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] when a node's in-flight count does not
    /// drain within `drain_timeout`, or when the node's own hot swap
    /// fails. The node is uncordoned either way — a failed swap must not
    /// leave the cluster smaller.
    pub fn rolling_swap(
        &mut self,
        net: &ConvNet,
        spec: &SubnetSpec,
        drain_timeout: Duration,
        retire_timeout: Duration,
    ) -> Result<usize, ServeError> {
        let live: Vec<&Router> = self
            .routers
            .iter()
            .filter(|r| r.is_up())
            .map(RouterNode::router)
            .collect();
        let mut swapped = 0;
        for member in self.members.iter_mut().filter(|m| m.node.is_up()) {
            let id = member.node.id().to_string();
            let cordoned: Vec<&Router> = live
                .iter()
                .copied()
                .filter(|r| r.cordon(&id).is_ok())
                .collect();
            let deadline = Instant::now() + drain_timeout;
            let drained = loop {
                let in_flight: usize = cordoned
                    .iter()
                    .map(|r| r.node_in_flight(&id).unwrap_or(0))
                    .sum();
                if in_flight == 0 {
                    break true;
                }
                if Instant::now() >= deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let result = if drained {
                member.node.hot_swap(net, spec, retire_timeout)
            } else {
                Err(ServeError::Elastic(format!(
                    "node {id} did not drain within {drain_timeout:?}"
                )))
            };
            for router in &cordoned {
                let _ = router.uncordon(&id);
            }
            result?;
            swapped += 1;
        }
        Ok(swapped)
    }

    /// Abruptly kills node `index` — no Leave, no goodbye; routers find
    /// out from failed traffic and health marking.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn crash_node(&mut self, index: usize) {
        if let Some(announcer) = self.members[index].announcer.take() {
            announcer.abort();
        }
        self.members[index].node.kill();
    }

    /// Kills router `index` (front-end and gossip). Clients holding its
    /// address must retry elsewhere; surviving routers keep serving.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_router(&mut self, index: usize) {
        self.routers[index].kill();
    }

    /// Every router front-end address, killed ones included — exactly the
    /// list a client should retry across.
    pub fn router_addrs(&self) -> &[String] {
        &self.router_addrs
    }

    /// The router at `index`.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn router(&self, index: usize) -> &RouterNode {
        &self.routers[index]
    }

    /// Number of routers (up or down).
    pub fn routers_len(&self) -> usize {
        self.routers.len()
    }

    /// Number of serve nodes ever booted (alive or not).
    pub fn nodes_len(&self) -> usize {
        self.members.len()
    }

    /// The serve node at `index`.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn node(&self, index: usize) -> &ServeNode {
        &self.members[index].node
    }

    /// Blocks until every *living* router agrees with the harness about
    /// the cluster: identical membership epochs, exactly the nodes that
    /// have not left (a crashed node sends no Leave, so it stays a
    /// member), and every node that is up listed healthy at its current
    /// address. Returns `false` on timeout — callers assert on it, so a
    /// convergence failure names itself instead of surfacing as
    /// downstream flakiness.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let mut expected: Vec<&str> = self
            .members
            .iter()
            .filter(|m| !m.left)
            .map(|m| m.node.id())
            .collect();
        expected.sort_unstable();
        let healthy = |n: &NodeStatus| {
            self.members.iter().all(|m| {
                m.node.id() != n.id || !m.node.is_up() || (n.up && n.addr == m.node.addr())
            })
        };
        let deadline = Instant::now() + timeout;
        loop {
            let live: Vec<&RouterNode> = self.routers.iter().filter(|r| r.is_up()).collect();
            let settled = !live.is_empty()
                && live.iter().all(|r| {
                    let m = r.router().metrics();
                    let mut ids: Vec<&str> = m.nodes.iter().map(|n| n.id.as_str()).collect();
                    ids.sort_unstable();
                    ids == expected && m.nodes.iter().all(healthy)
                })
                && live
                    .windows(2)
                    .all(|w| w[0].router().membership_epoch() == w[1].router().membership_epoch());
            if settled {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl std::fmt::Debug for DynamicCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicCluster")
            .field("nodes", &self.members.len())
            .field("routers", &self.routers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::{Arch, FluidModel};
    use fluid_serve::TcpClient;
    use fluid_tensor::{Prng, Tensor};

    fn model() -> (ConvNet, SubnetSpec) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(11));
        let spec = model.spec("combined100").expect("spec").clone();
        (model.net().clone(), spec)
    }

    fn fast_cfg() -> DynamicClusterConfig {
        DynamicClusterConfig {
            nodes: 2,
            routers: 2,
            router: RouterConfig {
                connect_timeout: Duration::from_millis(300),
                request_timeout: Duration::from_secs(5),
                probe_backoff: Duration::from_millis(50),
                ..RouterConfig::default()
            },
            gossip_interval: Duration::from_millis(50),
            announce_interval: Duration::from_millis(50),
            ..DynamicClusterConfig::default()
        }
    }

    #[test]
    fn nodes_announce_themselves_and_routers_converge() {
        let (net, spec) = model();
        let cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(
            cluster.wait_converged(Duration::from_secs(10)),
            "routers never converged: {:?} vs {:?}",
            cluster.router(0).router().metrics(),
            cluster.router(1).router().metrics(),
        );
        // Both routers route — no static membership was ever given.
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 7) as f32 / 7.0);
        let mut oracle = net.clone();
        let expected = oracle.forward_subnet(&x, &spec, false);
        for r in 0..cluster.routers_len() {
            let mut client = TcpClient::connect(cluster.router(r).addr()).expect("connect");
            let got = client.infer_keyed(5, &x).expect("routed infer");
            assert!(got.allclose(&expected, 0.0), "router {r} diverged");
        }
    }

    #[test]
    fn graceful_leave_tombstones_the_node_on_every_router() {
        let (net, spec) = model();
        let mut cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        cluster.leave_node(1);
        assert!(
            cluster.wait_converged(Duration::from_secs(10)),
            "leave did not converge: {:?} vs {:?}",
            cluster.router(0).router().member_ids(),
            cluster.router(1).router().member_ids(),
        );
        for r in 0..cluster.routers_len() {
            assert_eq!(cluster.router(r).router().member_ids(), vec!["node-0"]);
        }
    }

    #[test]
    fn a_joining_node_is_learned_by_every_router() {
        let (net, spec) = model();
        let mut cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let id = cluster.join_node().expect("join");
        assert_eq!(id, "node-2");
        assert!(
            cluster.wait_converged(Duration::from_secs(10)),
            "join did not converge"
        );
        for r in 0..cluster.routers_len() {
            assert!(
                cluster
                    .router(r)
                    .router()
                    .member_ids()
                    .contains(&"node-2".to_string()),
                "router {r} never learned node-2"
            );
        }
    }

    #[test]
    fn a_killed_router_leaves_the_survivor_serving() {
        let (net, spec) = model();
        let mut cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        cluster.kill_router(0);
        assert!(!cluster.router(0).is_up());
        // Convergence is now defined over the survivor alone.
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 3) as f32 / 3.0);
        let mut client = TcpClient::connect(cluster.router(1).addr()).expect("survivor");
        client.infer_keyed(9, &x).expect("survivor still routes");
    }

    fn x(div: usize) -> Tensor {
        Tensor::from_fn(&[1, 1, 28, 28], |i| (i % div) as f32 / div as f32)
    }

    #[test]
    fn wait_converged_counts_a_crashed_node_as_a_member() {
        // A crash sends no Leave, so the routers keep listing the node;
        // convergence must not wait for a departure that never comes.
        let (net, spec) = model();
        let mut cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        cluster.crash_node(1);
        assert!(
            cluster.wait_converged(Duration::from_secs(3)),
            "a crash must not block convergence"
        );
        for r in 0..cluster.routers_len() {
            assert_eq!(
                cluster.router(r).router().member_ids(),
                vec!["node-0", "node-1"]
            );
        }
    }

    #[test]
    fn routes_around_a_crashed_node_and_back() {
        let (net, spec) = model();
        let cfg = DynamicClusterConfig {
            nodes: 3,
            ..fast_cfg()
        };
        let mut cluster = DynamicCluster::boot(&net, &spec, cfg).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let x = x(9);
        let mut oracle = net.clone();
        let expected = oracle.forward_subnet(&x, &spec, false);
        let router = cluster.router(0).router().clone();

        // Every key routes correctly on the healthy cluster.
        for key in 0..16u64 {
            let got = router.infer(key, &x).expect("healthy infer");
            assert!(got.allclose(&expected, 0.0), "key {key} diverged");
        }
        // Crash one node: with replication 2 every shard keeps a replica,
        // so every key still gets bit-identical logits (retries allowed).
        cluster.crash_node(1);
        for key in 0..16u64 {
            let got = router.infer(key, &x).expect("degraded infer");
            assert!(
                got.allclose(&expected, 0.0),
                "key {key} diverged while degraded"
            );
        }
        // Restart: the node re-announces at its new port and serves again.
        cluster.restart_node(1).expect("restart");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        for key in 0..16u64 {
            router.infer(key, &x).expect("recovered infer");
        }
        let served: u64 = router.metrics().nodes.iter().map(|n| n.served).sum();
        assert_eq!(served, 48, "every request must be served by some node");
    }

    #[test]
    fn restart_node_serves_at_its_new_port_through_both_routers() {
        let (net, spec) = model();
        let mut cluster = DynamicCluster::boot(&net, &spec, fast_cfg()).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let old_addr = cluster.node(1).addr().to_string();
        cluster.restart_node(1).expect("restart");
        let new_addr = cluster.node(1).addr().to_string();
        assert_ne!(new_addr, old_addr, "restart must take a fresh port");
        assert!(
            cluster.wait_converged(Duration::from_secs(10)),
            "routers never learned the new address"
        );

        let x = x(5);
        let mut oracle = net.clone();
        let expected = oracle.forward_subnet(&x, &spec, false);
        for r in 0..cluster.routers_len() {
            let mut client = TcpClient::connect(cluster.router(r).addr()).expect("connect");
            for key in 0..32u64 {
                let got = client.infer_keyed(key, &x).expect("routed infer");
                assert!(
                    got.allclose(&expected, 0.0),
                    "router {r} key {key} diverged"
                );
            }
            let status = cluster
                .router(r)
                .router()
                .metrics()
                .nodes
                .into_iter()
                .find(|n| n.id == "node-1")
                .expect("node-1 row");
            assert_eq!(status.addr, new_addr, "router {r}");
            assert!(status.up && status.served > 0, "router {r}: {status:?}");
        }
    }

    #[test]
    fn tenant_requests_ride_through_the_router_to_a_tenanted_node() {
        use fluid_serve::{TenancyConfig, TenantClass, TenantPolicy};
        let (net, spec) = model();
        let mut cfg = fast_cfg();
        cfg.serve.tenancy = Some(TenancyConfig::new(vec![
            TenantPolicy::new(7, "web", TenantClass::Interactive),
            TenantPolicy::new(8, "etl", TenantClass::Batch),
        ]));
        let cluster = DynamicCluster::boot(&net, &spec, cfg).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let router = cluster.router(0).router();
        let x = x(6);
        let mut oracle = net.clone();
        let expected = oracle.forward_subnet(&x, &spec, false);
        for tenant in [7u64, 8] {
            let got = router.infer_tenant(tenant, &x).expect("tenant infer");
            assert!(got.allclose(&expected, 0.0), "tenant {tenant} diverged");
        }
        // A tenant id missing from every node's table is an explicit
        // end-to-end reject, not a timeout or a silent default.
        match router.infer_tenant(99, &x).expect_err("unknown tenant") {
            ServeError::Rejected(reason) => assert!(reason.contains("99"), "{reason}"),
            other => panic!("expected Rejected, got {other}"),
        }
    }

    #[test]
    fn rolling_swap_behind_two_routers_changes_the_model_with_zero_refusals() {
        use std::sync::atomic::AtomicUsize;
        let (net, spec) = model();
        let cfg = DynamicClusterConfig {
            nodes: 3,
            ..fast_cfg()
        };
        let mut cluster = DynamicCluster::boot(&net, &spec, cfg).expect("boot");
        assert!(cluster.wait_converged(Duration::from_secs(10)));
        let x = x(4);
        let replacement = FluidModel::new(Arch::tiny_28(), &mut Prng::new(77));
        let new_spec = replacement.spec("combined100").expect("spec").clone();
        let mut oracle = replacement.net().clone();
        let expected = oracle.forward_subnet(&x, &new_spec, false);

        // Closed-loop traffic on both routers for the whole swap.
        let addrs = cluster.router_addrs().to_vec();
        let stop = AtomicBool::new(false);
        let answered = AtomicUsize::new(0);
        let (swapped, traffic) = std::thread::scope(|s| {
            let threads: Vec<_> = addrs
                .iter()
                .map(|addr| {
                    let (stop, answered, x) = (&stop, &answered, &x);
                    s.spawn(move || {
                        let mut client = TcpClient::connect(addr).expect("connect");
                        let (mut ok, mut refused) = (0usize, 0usize);
                        for key in 0u64.. {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            match client.infer_keyed(key, x) {
                                Ok(_) => ok += 1,
                                Err(_) => refused += 1,
                            }
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        (ok, refused)
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while answered.load(Ordering::SeqCst) < 20 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let swapped = cluster.rolling_swap(
                replacement.net(),
                &new_spec,
                Duration::from_secs(5),
                Duration::from_secs(5),
            );
            stop.store(true, Ordering::SeqCst);
            let traffic: Vec<(usize, usize)> = threads
                .into_iter()
                .map(|t| t.join().expect("traffic thread"))
                .collect();
            (swapped, traffic)
        });
        assert_eq!(swapped.expect("rolling swap"), 3);
        for (r, &(ok, refused)) in traffic.iter().enumerate() {
            assert!(ok > 0, "router {r} carried no traffic");
            assert_eq!(refused, 0, "router {r} refused during the swap");
        }

        for r in 0..cluster.routers_len() {
            let router = cluster.router(r).router();
            for key in 0..12u64 {
                let got = router.infer(key, &x).expect("post-swap infer");
                assert!(
                    got.allclose(&expected, 0.0),
                    "router {r} key {key} not on the new model"
                );
            }
            let m = router.metrics();
            assert_eq!(m.nodes.len(), 3);
            assert!(
                m.nodes.iter().all(|n| !n.cordoned),
                "swap must uncordon every node on router {r}"
            );
        }
    }
}
