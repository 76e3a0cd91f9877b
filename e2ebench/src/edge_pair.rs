//! `edge_pair`: the paper's system. A Master and a Worker over a loopback
//! `TcpTransport`, one closed-loop caller sending batch-1 images.
//!
//! Each one-second round runs every phase: High-Accuracy on `combined100`
//! (lower50 local + upper50 partial remote, logits summed); High-Throughput
//! (lower50 local, upper50 standalone remote, two image streams); the
//! HA↔HT switch repeated to time it; then the worker's socket is shut down
//! from outside and the caller keeps answering through
//! `Master::infer_local`; finally a fresh worker is attached and the
//! remote half redeployed for the next round. The kernel pool runs at 1
//! thread and the Master's and the Worker's threads are pinned to one
//! core each, so each of the two simulated devices owns one of the two
//! cores. Unpinned, the scheduler's wake-up placement sometimes stacks
//! both on one core and HA latency doubles for a whole run.

use crate::inputs::{stream, InputPool, Oracle, POOL_IMAGES};
use crate::replay::{common_layers, Inputs, Specs};
use crate::report::{median, ms, percentile, Outcome, Tally};
use crate::trace::{replay_ms, Tracer};
use crate::Workload;
use fluid_core::training::TrainConfig;
use fluid_dist::{
    extract_branch_weights, DistError, Master, MasterConfig, Mode, NamedTensor, TcpTransport,
    Worker, WorkerEngine, WorkerExit,
};
use fluid_models::{Arch, BranchSpec, ConvNet, FluidModel};
use fluid_tensor::Prng;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct EdgePair;

type WorkerThread = JoinHandle<(WorkerExit, WorkerEngine)>;

pub struct State {
    master: Master<TcpTransport>,
    worker: Option<WorkerThread>,
    /// The worker's end of the link, kept to cut it from outside.
    worker_sock: TcpStream,
    listener: TcpListener,
    arch: Arch,
    net: ConvNet,
    specs: Specs,
    seed: u64,
    remote_partial: BranchSpec,
    remote_standalone: BranchSpec,
    partial_windows: Vec<NamedTensor>,
    standalone_windows: Vec<NamedTensor>,
    pool: InputPool,
    ha: Oracle,
    lower: Oracle,
    upper: Oracle,
    rng: Prng,
    /// `(master, worker)` cores, when pinned.
    cores: Option<(usize, usize)>,
    /// Requests issued so far; the request id of trace spans.
    req: u64,
}

/// The cores the two simulated devices own: `(master, worker)`, when the
/// process may use at least two. Read once, before the first pin narrows
/// the main thread's mask.
fn device_cores() -> Option<(usize, usize)> {
    static CORES: std::sync::OnceLock<Option<(usize, usize)>> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| match crate::affinity::allowed_cpus()[..] {
        [a, b, ..] => Some((a, b)),
        _ => None,
    })
}

impl Drop for State {
    /// Stops and joins the worker of a state dropped before (or without)
    /// a measured pass.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.master.shutdown_worker();
            let _ = worker.join();
        }
    }
}

/// Accepts one master connection on `listener` and runs a Worker on it,
/// on the worker device's core.
fn connect_pair(
    listener: &TcpListener,
    arch: &Arch,
    worker_core: Option<usize>,
) -> Result<(TcpTransport, TcpStream, WorkerThread), String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpStream::connect(addr).map_err(|e| format!("connect worker: {e}"))?;
    let (server, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let cut = server.try_clone().map_err(|e| e.to_string())?;
    let worker_t = TcpTransport::new(server).map_err(|e| e.to_string())?;
    let arch = arch.clone();
    let worker = std::thread::spawn(move || {
        if let Some(core) = worker_core {
            crate::affinity::pin_current_thread(core);
        }
        Worker::new(worker_t, arch, "worker").run()
    });
    let master_t = TcpTransport::new(client).map_err(|e| e.to_string())?;
    Ok((master_t, cut, worker))
}

fn dist_err(what: &str) -> impl Fn(DistError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Workload for EdgePair {
    type State = State;

    fn setup(seed: u64) -> Result<State, String> {
        fluid_tensor::pool::set_threads(1);
        let cores = device_cores();
        if let Some((master_core, _)) = cores {
            crate::affinity::pin_current_thread(master_core);
        }
        let arch = Arch::paper();
        let mut model = FluidModel::new(arch.clone(), &mut Prng::new(seed));
        let spec = |name: &str| model.spec(name).expect("standard sub-network").clone();
        let (combined, lower50, upper50) = (spec("combined100"), spec("lower50"), spec("upper50"));
        let local = lower50.branches[0].clone();
        let remote_partial = combined.branches[1].clone();
        let remote_standalone = upper50.branches[0].clone();
        let pool = InputPool::new(seed, POOL_IMAGES);
        let specs = Specs::of(&model);
        let net = model.net_mut();
        let ha = Oracle::new(&pool, |x| net.forward_subnet(x, &combined, false));
        let lower = Oracle::new(&pool, |x| net.forward_subnet(x, &lower50, false));
        let upper = Oracle::new(&pool, |x| net.forward_subnet(x, &upper50, false));
        let net = model.net().clone();
        let partial_windows = extract_branch_weights(&net, &remote_partial);
        let standalone_windows = extract_branch_weights(&net, &remote_standalone);

        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let (transport, worker_sock, worker) = connect_pair(&listener, &arch, cores.map(|c| c.1))?;
        let mut master = Master::new(transport, net.clone(), MasterConfig::default());
        master.await_hello().map_err(dist_err("hello"))?;
        master.deploy_local(local.clone());
        master
            .deploy_remote(remote_partial.clone(), partial_windows.clone())
            .map_err(dist_err("deploy"))?;
        master
            .switch_mode(Mode::HighAccuracy)
            .map_err(dist_err("switch"))?;
        Ok(State {
            master,
            worker: Some(worker),
            worker_sock,
            listener,
            arch,
            net,
            specs,
            seed,
            remote_partial,
            remote_standalone,
            partial_windows,
            standalone_windows,
            pool,
            ha,
            lower,
            upper,
            rng: stream(seed, 1),
            cores,
            req: 0,
        })
    }

    fn config(s: &State) -> Vec<String> {
        vec![
            format!("{:?}", MasterConfig::default()),
            format!(
                "arch=paper transport=tcp-loopback pool_threads={} pool_images={POOL_IMAGES} \
                 round_s={ROUND_S} (master_core, worker_core)={:?}",
                fluid_tensor::pool::threads(),
                s.cores
            ),
        ]
    }

    fn run(
        mut s: State,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, String> {
        let rounds = ((budget.as_secs_f64() / ROUND_S).round() as usize).max(1);
        let round = budget / rounds as u32;
        let mut r = Rounds::default();
        for _ in 0..rounds {
            ha_slice(&mut s, round.mul_f64(0.30), tracer.as_deref_mut(), &mut r);
            r.switches.push(switch(&mut s, Mode::HighThroughput)?);
            ht_slice(&mut s, round.mul_f64(0.30), tracer.as_deref_mut(), &mut r);
            // Mode switches HT→HA→HT…, ending in HA for the link cut.
            let t0 = Instant::now();
            while t0.elapsed() < round.mul_f64(0.15) || s.master.mode() != Mode::HighAccuracy {
                let to = match s.master.mode() {
                    Mode::HighAccuracy => Mode::HighThroughput,
                    Mode::HighThroughput => Mode::HighAccuracy,
                };
                r.switches.push(switch(&mut s, to)?);
            }
            degraded_slice(&mut s, round.mul_f64(0.25), tracer.as_deref_mut(), &mut r)?;
            r.redeploy_ms.push(redeploy(&mut s)?);
        }
        s.master.shutdown_worker();
        if s.worker.take().expect("worker thread").join().is_err() {
            return Err("worker thread panicked".into());
        }

        let mut out = Outcome::default();
        let lat_ms: Vec<f64> = r.ha_lat.iter().flatten().copied().collect();
        let p99s: Vec<f64> = r.ha_lat.iter().map(|l| percentile(l, 0.99)).collect();
        let ha_p50 = percentile(&lat_ms, 0.50);
        // The closed loop's rate at its median call: images per call over
        // the median call latency. Completions per second (printed below)
        // also count the host's scheduling stalls of either thread, which
        // swing them by up to 2x between runs on a shared machine.
        // HT is the paper's throughput mode, HA its accuracy (and latency)
        // mode.
        let ht_img_per_s = 2e3 / median(&r.ht_call_ms);
        out.e2e("throughput_per_s", ht_img_per_s, "1/s");
        out.e2e("p50_ms", ha_p50, "ms");
        out.e2e("ha_img_per_s", 1e3 / ha_p50, "img/s");
        out.e2e("ht_img_per_s", ht_img_per_s, "img/s");
        out.e2e(
            "degraded_img_per_s",
            1e3 / median(&r.local_call_ms),
            "img/s",
        );
        out.e2e("mode_switch_ms", median(&r.switches), "ms");
        out.note(format!(
            "completions per second, host stalls included: HA {:.0}, HT {:.0}, degraded {:.0}; \
             HA p99 {:.4} ms (median over rounds)",
            lat_ms.len() as f64 / r.busy_s[0],
            2.0 * r.ht_call_ms.len() as f64 / r.busy_s[1],
            r.local_call_ms.len() as f64 / r.busy_s[2],
            median(&p99s),
        ));
        out.note(format!(
            "{rounds} rounds of {:.2} s; rates are images per call over the median call; HA \
             latency over {} images (>= {} per round); {} mode switches; failover {:.3} ms, \
             redeploy {:.3} ms (medians)",
            round.as_secs_f64(),
            lat_ms.len(),
            r.ha_lat.iter().map(Vec::len).min().unwrap_or(0),
            r.switches.len(),
            median(&r.failover_ms),
            median(&r.redeploy_ms)
        ));
        out.phase("ha", r.ha);
        out.phase("ht", r.ht);
        out.phase("degraded", r.degraded);
        if let Some(t) = tracer {
            out.layer("dist.ha_p99_ms", median(&p99s), "ms");
            layers(
                &mut s,
                t,
                &mut out,
                median(&r.failover_ms),
                median(&r.redeploy_ms),
            )?;
        }
        Ok(out)
    }
}

/// Seconds per round. A round runs every phase once, so each phase
/// samples the whole run rather than one stretch of it, and a slow spell
/// of the host hits all phases alike.
const ROUND_S: f64 = 1.0;

/// Per-round observations, accumulated over the run.
#[derive(Default)]
struct Rounds {
    ha: Tally,
    ht: Tally,
    degraded: Tally,
    /// HA per-image latency (ms), one vector per round.
    ha_lat: Vec<Vec<f64>>,
    /// `infer_ht` call latency (ms, two images per call).
    ht_call_ms: Vec<f64>,
    /// `infer_local` call latency (ms) after the failover answer.
    local_call_ms: Vec<f64>,
    /// Seconds spent in the HA, HT and post-failover degraded slices.
    busy_s: [f64; 3],
    switches: Vec<f64>,
    failover_ms: Vec<f64>,
    redeploy_ms: Vec<f64>,
}

/// High-Accuracy: both devices on one image, partial logits summed.
fn ha_slice(s: &mut State, dur: Duration, mut tracer: Option<&mut Tracer>, r: &mut Rounds) {
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let i = s.rng.below(s.pool.len());
        let x = &s.pool.images[i];
        let start = Instant::now();
        let y = match tracer.as_deref_mut() {
            Some(t) => t.span("dist.infer_ha", s.req, || s.master.infer_ha(x)),
            None => s.master.infer_ha(x),
        };
        lat.push(ms(start.elapsed()));
        r.ha.answer(y.ok().map(|l| s.ha.matches(i, &l)));
        s.req += 1;
    }
    r.ha_lat.push(lat);
    r.busy_s[0] += t0.elapsed().as_secs_f64();
}

/// High-Throughput: lower50 on the Master and standalone upper50 on the
/// worker serve two independent image streams.
fn ht_slice(s: &mut State, dur: Duration, mut tracer: Option<&mut Tracer>, r: &mut Rounds) {
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let (i, j) = (s.rng.below(s.pool.len()), s.rng.below(s.pool.len()));
        let (xa, xb) = (&s.pool.images[i], &s.pool.images[j]);
        let start = Instant::now();
        let y = match tracer.as_deref_mut() {
            Some(t) => t.span("dist.infer_ht", s.req, || s.master.infer_ht(xa, xb)),
            None => s.master.infer_ht(xa, xb),
        };
        let call_ms = ms(start.elapsed());
        match y {
            Ok((a, b)) => {
                r.ht.answer(Some(s.lower.matches(i, &a)));
                r.ht.answer(Some(s.upper.matches(j, &b)));
            }
            Err(_) => {
                r.ht.answer(None);
                r.ht.answer(None);
            }
        }
        r.ht_call_ms.push(call_ms);
        s.req += 1;
    }
    r.busy_s[1] += t0.elapsed().as_secs_f64();
}

/// Worker loss: cut the worker's socket from outside; the caller keeps
/// answering through `infer_local`.
fn degraded_slice(
    s: &mut State,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
    r: &mut Rounds,
) -> Result<(), String> {
    let cut = Instant::now();
    s.worker_sock
        .shutdown(Shutdown::Both)
        .map_err(|e| format!("cut: {e}"))?;
    let mut failover: Option<Instant> = None;
    while cut.elapsed() < dur {
        let i = s.rng.below(s.pool.len());
        let x = &s.pool.images[i];
        let start = Instant::now();
        let answer = if s.master.worker_dead() {
            match tracer.as_deref_mut() {
                Some(t) => t.span("dist.infer_local", s.req, || s.master.infer_local(x)),
                None => s.master.infer_local(x),
            }
            .ok()
            .map(|l| s.lower.matches(i, &l))
        } else {
            // The request that meets the cut counts as answered only if
            // infer_local answers it.
            match s.master.infer_ha(x) {
                Ok(l) => Some(s.ha.matches(i, &l)),
                Err(_) => s.master.infer_local(x).ok().map(|l| s.lower.matches(i, &l)),
            }
        };
        r.degraded.answer(answer);
        if s.master.worker_dead() {
            match failover {
                None => failover = Some(Instant::now()),
                Some(_) => r.local_call_ms.push(ms(start.elapsed())),
            }
        }
        s.req += 1;
    }
    let failover = failover.ok_or("the worker link never failed after the cut")?;
    r.failover_ms.push(ms(failover - cut));
    r.busy_s[2] += failover.elapsed().as_secs_f64();
    match s.worker.take().expect("worker thread").join() {
        Ok((WorkerExit::LinkLost(_), _)) => Ok(()),
        Ok((exit, _)) => Err(format!("worker exit after the cut: {exit:?}")),
        Err(_) => Err("worker thread panicked".into()),
    }
}

/// Recovery: attaches a fresh worker and redeploys the remote half;
/// returns the redeploy time (ms). The next round's HA answers check it.
fn redeploy(s: &mut State) -> Result<f64, String> {
    let (transport, sock, worker) = connect_pair(&s.listener, &s.arch, s.cores.map(|c| c.1))?;
    let t0 = Instant::now();
    s.master.reattach(transport);
    s.master.await_hello().map_err(dist_err("re-hello"))?;
    s.master
        .deploy_remote(s.remote_partial.clone(), s.partial_windows.clone())
        .map_err(dist_err("redeploy"))?;
    s.master
        .switch_mode(Mode::HighAccuracy)
        .map_err(dist_err("re-switch"))?;
    let redeploy_ms = ms(t0.elapsed());
    s.worker = Some(worker);
    s.worker_sock = sock;
    Ok(redeploy_ms)
}

/// One timed mode switch: ship the branch form the target mode needs,
/// then notify the worker.
fn switch(s: &mut State, to: Mode) -> Result<f64, String> {
    let (branch, windows) = match to {
        Mode::HighAccuracy => (s.remote_partial.clone(), s.partial_windows.clone()),
        Mode::HighThroughput => (s.remote_standalone.clone(), s.standalone_windows.clone()),
    };
    let t0 = Instant::now();
    s.master
        .deploy_remote(branch, windows)
        .map_err(dist_err("switch deploy"))?;
    s.master.switch_mode(to).map_err(dist_err("switch"))?;
    Ok(ms(t0.elapsed()))
}

/// The `dist` rows of the traced pass, and the replays every workload runs.
fn layers(
    s: &mut State,
    t: &mut Tracer,
    out: &mut Outcome,
    failover_ms: f64,
    redeploy_ms: f64,
) -> Result<(), String> {
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
        echo_core: s.cores.map(|c| c.1),
    };
    common_layers(&inputs, out)?;
    let n = s.pool.len();
    let (images, net, partial) = (&s.pool.images, &mut s.net, &s.remote_partial);
    let partial_ms = replay_ms(400, |k| {
        let y = net.forward_branch(&images[k % n], partial, false);
        net.recycle(y);
    });
    let lower_ms = out.layer_value("models.lower50_fwd_b1_ms");
    let ha_ms = t.median_ms("dist.infer_ha");

    out.layer("dist.infer_ha_ms", ha_ms, "ms");
    out.layer("dist.infer_ht_ms", t.median_ms("dist.infer_ht"), "ms");
    out.layer("dist.infer_local_ms", t.median_ms("dist.infer_local"), "ms");
    out.layer("dist.ha_self_ms", ha_ms - lower_ms.max(partial_ms), "ms");
    out.layer("dist.failover_ms", failover_ms, "ms");
    out.layer("dist.redeploy_ms", redeploy_ms, "ms");
    out.note(format!(
        "derived self time: dist.ha_self_ms = infer_ha {ha_ms:.4} ms - slower branch \
         max(lower50 {lower_ms:.4}, upper50 partial {partial_ms:.4}) ms"
    ));
    Ok(())
}
