//! `cluster_tcp`: lone requests over TCP through the router tier. A
//! `DynamicCluster` of 2 gossiping routers and 2 announced serve nodes at
//! replication 2; 2 closed-loop `TcpClient`s send keyed batch-1 requests,
//! one client per router. Batches are about one row, so the node's
//! batching window and the two TCP hops dominate the round trip.

use crate::inputs::{stream, InputPool, Oracle, POOL_IMAGES};
use crate::replay::{common_layers, Inputs, Specs};
use crate::report::{
    median, median_window_percentile, ms, percentile, window_rates, Outcome, Tally,
};
use crate::trace::Tracer;
use crate::Workload;
use fluid_core::training::TrainConfig;
use fluid_models::{Arch, ConvNet, FluidModel};
use fluid_router::{DynamicCluster, DynamicClusterConfig};
use fluid_serve::TcpClient;
use fluid_tensor::Prng;
use std::time::{Duration, Instant};

/// Seconds per window of the median throughput: short, so most windows
/// miss the host's scheduling stalls and the median window is one of them.
const RATE_WINDOW_S: f64 = 0.25;
/// Seconds per window of the median tail latency: long enough that each
/// window's p99 has more than ten samples beyond it at about 600 req/s.
const TAIL_WINDOW_S: f64 = 2.0;

/// One client's requests: accounting, `(completion s, round trip ms)`
/// samples, and its spans when traced.
type ClientRun = (Tally, Vec<(f64, f64)>, Option<Tracer>);

/// Requests each client sends during set-up, so every router→node
/// connection is open before timing starts.
const WARMUP_PER_CLIENT: usize = 32;

pub struct ClusterTcp;

pub struct State {
    seed: u64,
    cfg: DynamicClusterConfig,
    cluster: DynamicCluster,
    clients: Vec<TcpClient>,
    net: ConvNet,
    specs: Specs,
    pool: InputPool,
    oracle: Oracle,
}

fn cluster_config(seed: u64) -> DynamicClusterConfig {
    let mut cfg = DynamicClusterConfig::default();
    cfg.nodes = 2;
    cfg.routers = 2;
    cfg.workers_per_node = 1;
    cfg.router.replication = 2;
    cfg.seed = seed;
    cfg
}

impl Workload for ClusterTcp {
    type State = State;

    fn setup(seed: u64) -> Result<State, String> {
        let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(seed));
        let spec = model
            .spec("combined100")
            .expect("standard sub-network")
            .clone();
        let pool = InputPool::new(seed, POOL_IMAGES);
        let specs = Specs::of(&model);
        let net = model.net_mut();
        let oracle = Oracle::new(&pool, |x| net.forward_subnet(x, &spec, false));
        let net = model.net().clone();
        let cfg = cluster_config(seed);
        let cluster = DynamicCluster::boot(&net, &spec, cfg.clone())
            .map_err(|e| format!("boot cluster: {e}"))?;
        if !cluster.wait_converged(Duration::from_secs(20)) {
            return Err("routers did not converge on the announced nodes".into());
        }
        let mut clients = cluster
            .router_addrs()
            .iter()
            .map(|a| TcpClient::connect(a).map(|c| c.with_timeout(Duration::from_secs(10))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect client: {e}"))?;
        let mut rng = stream(seed, 29);
        for client in &mut clients {
            for _ in 0..WARMUP_PER_CLIENT {
                let i = rng.below(pool.len());
                let y = client
                    .infer_keyed(rng.next_u64(), &pool.images[i])
                    .map_err(|e| format!("warm-up request: {e}"))?;
                if !oracle.matches(i, &y) {
                    return Err("warm-up answer differs from the oracle".into());
                }
            }
        }
        Ok(State {
            seed,
            cfg,
            cluster,
            clients,
            net,
            specs,
            pool,
            oracle,
        })
    }

    fn config(s: &State) -> Vec<String> {
        vec![
            format!("{:?}", s.cfg),
            format!(
                "arch=paper clients={} closed_loop=1 keyed=1 pool_images={POOL_IMAGES}",
                s.clients.len()
            ),
        ]
    }

    fn run(mut s: State, budget: Duration, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let epoch_before = s.cluster.router(0).router().membership_epoch();
        let traced = tracer.is_some();
        let (pool, oracle, seed) = (&s.pool, &s.oracle, s.seed);
        let t0 = Instant::now();
        let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
            let threads: Vec<_> = s
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut rng = stream(seed, 30 + c as u64);
                        let mut tally = Tally::default();
                        let mut lat = Vec::new();
                        let mut local = traced.then(Tracer::new);
                        while t0.elapsed() < budget {
                            let (key, i) = (rng.next_u64(), rng.below(pool.len()));
                            let start = Instant::now();
                            let r = client.infer_keyed(key, &pool.images[i]);
                            let end = Instant::now();
                            if let Some(t) = local.as_mut() {
                                t.record("client.round_trip", key, start, end);
                            }
                            lat.push(((end - t0).as_secs_f64(), ms(end - start)));
                            tally.answer(r.ok().map(|y| oracle.matches(i, &y)));
                        }
                        (tally, lat, local)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();

        let mut tally = Tally::default();
        let mut lat = Vec::new();
        let mut merged = Tracer::new();
        for (t, l, local) in per_client {
            tally.merge(&t);
            lat.extend(l);
            if let Some(local) = local {
                merged.merge(local);
            }
        }
        let epoch_after = s.cluster.router(0).router().membership_epoch();
        let done: Vec<f64> = lat.iter().map(|&(t, _)| t).collect();
        let lat_ms: Vec<f64> = lat.iter().map(|&(_, l)| l).collect();
        let rates = window_rates(&done, 0.0, elapsed, RATE_WINDOW_S);
        let rate_windows = rates.len();
        let tail_windows = ((elapsed / TAIL_WINDOW_S).round() as usize).max(1);
        let p99 = median_window_percentile(&lat, 0.0, elapsed, tail_windows, 0.99);
        out.e2e("throughput_per_s", median(&rates), "1/s");
        out.e2e("p50_ms", percentile(&lat_ms, 0.50), "ms");
        out.e2e("rps", median(&rates), "req/s");
        out.note(format!(
            "client round trips: {} samples over {elapsed:.2} s; rps: median of {rate_windows} \
             windows; p99 {p99:.4} ms: median of {tail_windows} windows; membership epoch \
             {epoch_before} -> {epoch_after}",
            lat.len()
        ));
        if epoch_before != epoch_after {
            out.note("WARNING: membership changed during the measured window".into());
        }
        out.phase("closed_loop", tally);

        if let Some(t) = tracer {
            t.merge(merged);
            out.layer("router.client_p99_ms", p99, "ms");
            layers(&mut s, t, &mut out)?;
        }
        drop(s.clients);
        Ok(out)
    }
}

/// The `router` and `serve` rows of the traced pass, and the replays every
/// workload runs.
fn layers(s: &mut State, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let routers: Vec<_> = (0..s.cluster.routers_len())
        .map(|i| s.cluster.router(i).router().metrics())
        .collect();
    let sum =
        |f: fn(&fluid_router::RouterMetrics) -> u64| routers.iter().map(f).sum::<u64>() as f64;
    let mean = |f: fn(&fluid_router::RouterMetrics) -> f64| {
        routers.iter().map(f).sum::<f64>() / routers.len() as f64
    };
    let router_p50 = mean(|m| m.p50_ms);
    let nodes = (0..s.cluster.nodes_len())
        .map(|i| s.cluster.node(i).handle().map(|h| h.metrics()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("node metrics: {e}"))?;
    let batches: u64 = nodes.iter().map(|m| m.batches).sum();
    let rows: f64 = nodes
        .iter()
        .map(|m| m.mean_batch_requests * m.batches as f64)
        .sum();
    let sojourn_p50 = nodes.iter().map(|m| m.p50_ms).sum::<f64>() / nodes.len() as f64;
    let sojourn_p99 = nodes.iter().map(|m| m.p99_ms).sum::<f64>() / nodes.len() as f64;
    let client_p50 = t.median_ms("client.round_trip");

    let cfg = TrainConfig {
        seed: s.seed,
        ..TrainConfig::default()
    };
    let inputs = Inputs {
        net: &s.net,
        specs: &s.specs,
        pool: &s.pool,
        train: &s.pool.dataset,
        cfg: &cfg,
        echo_core: None,
    };
    common_layers(&inputs, out)?;

    out.layer("router.admitted", sum(|m| m.admitted), "count");
    out.layer("router.completed", sum(|m| m.completed), "count");
    out.layer("router.shed", sum(|m| m.shed), "count");
    out.layer("router.retries", sum(|m| m.retries), "count");
    out.layer("router.unroutable", sum(|m| m.unroutable), "count");
    out.layer(
        "router.epoch",
        routers.iter().map(|m| m.epoch).max().unwrap_or(0) as f64,
        "count",
    );
    out.layer("router.p50_ms", router_p50, "ms");
    out.layer("router.p99_ms", mean(|m| m.p99_ms), "ms");
    out.layer("router.front_ms", client_p50 - router_p50, "ms");
    out.layer("router.node_hop_ms", router_p50 - sojourn_p50, "ms");
    out.layer("serve.sojourn_p50_ms", sojourn_p50, "ms");
    out.layer("serve.sojourn_p99_ms", sojourn_p99, "ms");
    out.layer("serve.batches", batches as f64, "count");
    out.layer(
        "serve.mean_batch_rows",
        rows / batches.max(1) as f64,
        "rows",
    );
    out.note(format!(
        "derived self times: router.front_ms = client p50 {client_p50:.4} - router p50 \
         {router_p50:.4} ms; router.node_hop_ms = router p50 - node sojourn p50 {sojourn_p50:.4} ms"
    ));
    Ok(())
}
