//! `serve_poisson`: the batching scheduler under independent users. An
//! open loop through `ServerHandle::submit` — one generator thread sends
//! on a seeded Poisson schedule regardless of replies, one collector thread
//! waits the tickets in submission order — on one worker at
//! `ServeConfig::default()`. One worker answers in submission order, so
//! the collector timestamps each answer as it arrives.
//!
//! Phases: `steady` (a fixed rate below capacity, for latency measured
//! from each request's due time), `over` (about twice capacity, f32) and
//! `over_int8` (the same rate on a `QuantBackend`).

use crate::inputs::{poisson_schedule, stream, InputPool, Oracle, POOL_IMAGES};
use crate::replay::{common_layers, Inputs, Specs};
use crate::report::{median, ms, percentile, Outcome, Tally};
use crate::trace::{replay_ms, subnet_forward_ms, Tracer};
use crate::Workload;
use fluid_core::training::TrainConfig;
use fluid_data::SynthDigits;
use fluid_models::{calibrate, Arch, ConvNet, FluidModel, QuantizedNet, SubnetSpec};
use fluid_serve::{
    Backend, EngineBackend, QuantBackend, ServeConfig, ServeError, ServeMetrics, Server,
    ServerHandle, Ticket,
};
use fluid_tensor::Prng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load of the `steady` phase (req/s): well below the one-worker
/// capacity even when the shared host runs slow, so latency is not
/// dominated by a growing queue.
const STEADY_RPS: f64 = 1000.0;
/// Offered load of the `over` phases (req/s): about twice capacity.
const OVER_RPS: f64 = 9000.0;
/// Seconds per round. Each round runs `steady`, `over` and `over_int8`
/// for half, a quarter and a quarter of it, so every phase samples the
/// whole run and a slow spell of the host hits all three alike.
const ROUND_S: f64 = 2.0;
/// Seconds of an overload slice skipped before counting completions, so
/// the queue (256 deep) is full when the capacity window opens.
const OVER_WARMUP_S: f64 = 0.1;

pub struct ServePoisson;

pub struct State {
    seed: u64,
    net: ConvNet,
    spec: SubnetSpec,
    specs: Specs,
    qnet: QuantizedNet,
    pool: InputPool,
    f32_oracle: Oracle,
    int8_oracle: Oracle,
}

/// What one phase observed, accumulated over rounds.
#[derive(Default)]
struct Phase {
    tally: Tally,
    /// Due → answer (ms) per answered request, one vector per round.
    latency_ms: Vec<Vec<f64>>,
    /// Due → submit (ms) per request.
    late_ms: Vec<f64>,
    /// Completions per second after the warm-up, one per round.
    completion_rps: Vec<f64>,
}

impl Workload for ServePoisson {
    type State = State;

    fn setup(seed: u64) -> Result<State, String> {
        let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(seed));
        let spec = model
            .spec("combined100")
            .expect("standard sub-network")
            .clone();
        let held_out = SynthDigits::new(seed ^ 0xca11_b8a7e).generate(64);
        let calib = calibrate(model.net_mut(), &spec, held_out.images());
        let mut qnet = QuantizedNet::from_net(model.net(), &spec, &calib);
        let pool = InputPool::new(seed, POOL_IMAGES);
        let specs = Specs::of(&model);
        let net = model.net_mut();
        let f32_oracle = Oracle::new(&pool, |x| net.forward_subnet(x, &spec, false));
        let int8_oracle = Oracle::new(&pool, |x| qnet.forward(x));
        Ok(State {
            seed,
            net: model.net().clone(),
            spec,
            specs,
            qnet,
            pool,
            f32_oracle,
            int8_oracle,
        })
    }

    fn config(_: &State) -> Vec<String> {
        vec![
            format!("{:?}", ServeConfig::default()),
            format!(
                "arch=paper workers=1 steady_rps={STEADY_RPS} over_rps={OVER_RPS} \
                 round_s={ROUND_S} over_warmup_s={OVER_WARMUP_S} pool_images={POOL_IMAGES}"
            ),
        ]
    }

    fn run(s: State, budget: Duration, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
        // One single-worker server per phase, so each server's metrics
        // describe one kind of traffic.
        let start = |backend: Box<dyn Backend>| {
            Server::start(ServeConfig::default(), vec![backend])
                .map_err(|e| format!("start server: {e}"))
        };
        let f32_backend = || Box::new(EngineBackend::new("f32", s.net.clone(), s.spec.clone()));
        let servers = [
            start(f32_backend())?,
            start(f32_backend())?,
            start(Box::new(QuantBackend::new("int8", s.qnet.clone())))?,
        ];
        // (offered req/s, share of a round, oracle) for steady, over, over_int8.
        let plan = [
            (STEADY_RPS, 0.5, &s.f32_oracle),
            (OVER_RPS, 0.25, &s.f32_oracle),
            (OVER_RPS, 0.25, &s.int8_oracle),
        ];
        let rounds = ((budget.as_secs_f64() / ROUND_S).round() as usize).max(1);
        let round = budget / rounds as u32;
        let mut phases: [Phase; 3] = Default::default();
        for r in 0..rounds {
            for (k, &(rate, share, oracle)) in plan.iter().enumerate() {
                let label = (r * plan.len() + k) as u64;
                let t = if k == 0 { tracer.as_deref_mut() } else { None };
                let slice = (label, rate, round.mul_f64(share));
                open_loop(&s, &servers[k].handle(), oracle, slice, t, &mut phases[k]);
            }
        }
        let [steady_m, over_m, int8_m] = servers.map(Server::shutdown);
        let [steady, over, int8] = phases;

        let mut out = Outcome::default();
        let steady_ms: Vec<f64> = steady.latency_ms.iter().flatten().copied().collect();
        let p99s: Vec<f64> = steady
            .latency_ms
            .iter()
            .map(|l| percentile(l, 0.99))
            .collect();
        let (f32_rps, int8_rps) = (median(&over.completion_rps), median(&int8.completion_rps));
        out.e2e("throughput_per_s", f32_rps, "1/s");
        out.e2e("p50_ms", percentile(&steady_ms, 0.50), "ms");
        out.e2e("capacity_rps", f32_rps, "req/s");
        out.e2e("int8_capacity_rps", int8_rps, "req/s");
        out.note(format!(
            "{rounds} rounds of {:.2} s; steady latency from due time over {} requests at \
             {STEADY_RPS} req/s (>= {} per round); capacity: median over rounds of \
             completions/s at {OVER_RPS} req/s offered",
            round.as_secs_f64(),
            steady_ms.len(),
            steady.latency_ms.iter().map(Vec::len).min().unwrap_or(0),
        ));
        out.note(format!(
            "per-round steady p99 ms: min {:.3} / median {:.3} / max {:.3}; per-round capacity \
             req/s: f32 {:.0}..{:.0}, int8 {:.0}..{:.0}",
            percentile(&p99s, 0.0),
            median(&p99s),
            percentile(&p99s, 1.0),
            percentile(&over.completion_rps, 0.0),
            percentile(&over.completion_rps, 1.0),
            percentile(&int8.completion_rps, 0.0),
            percentile(&int8.completion_rps, 1.0),
        ));
        for (name, p, m) in [
            ("steady", &steady, &steady_m),
            ("over", &over, &over_m),
            ("over_int8", &int8, &int8_m),
        ] {
            out.note(format!(
                "{name}: generator late p50 {:.3} / p99 {:.3} / max {:.3} ms; mean batch {:.2} rows",
                percentile(&p.late_ms, 0.5),
                percentile(&p.late_ms, 0.99),
                percentile(&p.late_ms, 1.0),
                m.mean_batch_requests,
            ));
        }
        if let Some(t) = tracer {
            out.layer("serve.p99_from_due_ms", median(&p99s), "ms");
            layers(s, t, &mut out, &steady, &steady_m, &over_m)?;
        }
        for (name, p) in [("steady", steady), ("over", over), ("over_int8", int8)] {
            out.phase(name, p.tally);
        }
        Ok(out)
    }
}

/// Runs one open-loop slice `(label, rate, duration)` against `handle`:
/// a generator thread submits on a seeded Poisson schedule regardless of
/// replies, a collector thread waits the tickets in submission order.
fn open_loop(
    s: &State,
    handle: &ServerHandle,
    oracle: &Oracle,
    (label, rate, duration): (u64, f64, Duration),
    tracer: Option<&mut Tracer>,
    phase: &mut Phase,
) {
    let due = poisson_schedule(
        &mut stream(s.seed, 1000 + label),
        rate,
        duration.as_secs_f64(),
    );
    let mut picks = stream(s.seed, 2000 + label);
    let picks: Vec<usize> = due.iter().map(|_| picks.below(s.pool.len())).collect();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let expected = due.len();
    let t0 = Instant::now();

    let ((mut tally, late, local), answers) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut answers = Vec::with_capacity(expected);
            for (i, due_at, ticket) in rx {
                let r = ticket.wait();
                answers.push((i, due_at, Instant::now(), r));
            }
            answers
        });
        let generator = scope.spawn(|| {
            let mut shed = Tally::default();
            let mut late = Vec::with_capacity(due.len());
            let mut local = tracer.is_some().then(Tracer::new);
            for (k, (&d, &i)) in due.iter().zip(&picks).enumerate() {
                let due_at = t0 + Duration::from_secs_f64(d);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let x = s.pool.images[i].clone();
                let start = Instant::now();
                late.push(ms(start.saturating_duration_since(due_at)));
                let r = handle.submit(x);
                if let Some(t) = local.as_mut() {
                    t.record(
                        "serve.submit",
                        label << 32 | k as u64,
                        start,
                        Instant::now(),
                    );
                }
                match r {
                    Ok(ticket) => tx.send((i, due_at, ticket)).expect("collector alive"),
                    Err(ServeError::Overloaded { .. }) => shed.shed(),
                    Err(_) => shed.answer(None),
                }
            }
            drop(tx);
            (shed, late, local)
        });
        let gen = generator.join().expect("generator thread");
        let answers = collector.join().expect("collector thread");
        (gen, answers)
    });

    if let (Some(t), Some(local)) = (tracer, local) {
        t.merge(local);
    }
    let end = duration.as_secs_f64();
    let mut latency = Vec::with_capacity(answers.len());
    let mut window = 0u64;
    for (i, due_at, done, r) in answers {
        // An admitted request must be answered; any error is a failure.
        let matched = r.ok().map(|logits| oracle.matches(i, &logits));
        if matched.is_some() {
            latency.push(ms(done - due_at));
            window += u64::from((OVER_WARMUP_S..end).contains(&(done - t0).as_secs_f64()));
        }
        tally.answer(matched);
    }
    phase.tally.merge(&tally);
    phase.latency_ms.push(latency);
    phase.late_ms.extend(late);
    phase
        .completion_rps
        .push(window as f64 / (end - OVER_WARMUP_S));
}

/// The `serve`, `gen` and int8 `models` rows of the traced pass, and the
/// replays every workload runs.
fn layers(
    mut s: State,
    t: &mut Tracer,
    out: &mut Outcome,
    steady: &Phase,
    m: &ServeMetrics,
    over: &ServeMetrics,
) -> Result<(), String> {
    const REPS: usize = 300;
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
    let (pool, net, spec, qnet) = (&s.pool, &mut s.net, &s.spec, &mut s.qnet);
    let mut int8_ms = |rows: usize| {
        let xs = pool.batches(rows, 8);
        replay_ms(REPS, |i| {
            let y = qnet.forward(&xs[i % xs.len()]);
            qnet.recycle(y);
        })
    };
    let (int8_b1, int8_b8) = (int8_ms(1), int8_ms(8));
    // Queue wait: sojourn minus compute at the observed batch size.
    let rows = m.mean_batch_requests.round().clamp(1.0, 8.0) as usize;
    let fwd_rows = subnet_forward_ms(net, spec, pool, rows, REPS);

    out.layer("serve.submit_us", t.median_ms("serve.submit") * 1e3, "us");
    out.layer("serve.sojourn_p50_ms", m.p50_ms, "ms");
    out.layer("serve.sojourn_p99_ms", m.p99_ms, "ms");
    out.layer("serve.batches", m.batches as f64, "count");
    out.layer("serve.mean_batch_rows", m.mean_batch_requests, "rows");
    out.layer(
        "serve.over_mean_batch_rows",
        over.mean_batch_requests,
        "rows",
    );
    out.layer("serve.shed", m.shed as f64, "count");
    out.layer("serve.failed", m.failed as f64, "count");
    out.layer("serve.retried", m.retried as f64, "count");
    out.layer("serve.queue_wait_ms", m.p50_ms - fwd_rows, "ms");
    out.layer("gen.late_p99_ms", percentile(&steady.late_ms, 0.99), "ms");
    out.layer("gen.late_max_ms", percentile(&steady.late_ms, 1.0), "ms");
    out.layer("models.int8_fwd_b1_ms", int8_b1, "ms");
    out.layer("models.int8_fwd_b8_ms", int8_b8, "ms");
    out.note(format!(
        "derived self time: serve.queue_wait_ms = sojourn p50 {:.4} ms - forward at the \
         observed {rows}-row batch {fwd_rows:.4} ms; submit spans {}; median lateness {:.4} ms",
        m.p50_ms,
        t.span_count("serve.submit"),
        median(&steady.late_ms)
    ));
    Ok(())
}
