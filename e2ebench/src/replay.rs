//! The layer replays every traced pass runs, whatever its workload: each
//! layer's public functions called again on the workload's own model and
//! inputs, after the measured pass. They give the per-layer rows of the
//! result line, so every workload reports the same rows; the spans and
//! counters only one workload has (`dist.infer_ha_ms`, `router.p50_ms`,
//! `core.train_nested_s`, …) are printed in its per-layer table beside them.

use crate::inputs::InputPool;
use crate::report::{median, Outcome};
use crate::trace::{replay_ms, subnet_forward_ms};
use fluid_core::training::{evaluate_subnet, TrainConfig};
use fluid_data::{DataLoader, Dataset};
use fluid_dist::{Message, TcpTransport, Transport};
use fluid_models::{BranchSpec, ConvNet, FluidModel, SubnetSpec};
use fluid_nn::{softmax_cross_entropy, Flatten, MaxPool2d, Optimizer, Relu, Sgd, Workspace};
use fluid_router::{RouterConfig, ShardMap};
use fluid_serve::{EngineBackend, ServeConfig, Server};
use fluid_tensor::Tensor;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The per-layer rows of the result line, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 23] = [
    "models.subnet_fwd_b1_ms",
    "models.subnet_fwd_b8_ms",
    "models.lower50_fwd_b1_ms",
    "models.upper50_fwd_b1_ms",
    "models.train_fwd_ms",
    "models.train_bwd_ms",
    "nn.conv1_fwd_ms",
    "nn.conv2_fwd_ms",
    "nn.conv3_fwd_ms",
    "nn.conv1_bwd_ms",
    "nn.conv2_bwd_ms",
    "nn.conv3_bwd_ms",
    "nn.fc_fwd_ms",
    "nn.fc_bwd_ms",
    "nn.loss_ms",
    "nn.sgd_step_ms",
    "data.next_batch_ms",
    "core.evaluate_ms",
    "dist.encode_us",
    "dist.decode_us",
    "dist.tcp_rtt_us",
    "serve.roundtrip_b1_ms",
    "router.shard_lookup_us",
];

/// How far the `nn` per-stage rows may sum from the `models` rows they
/// replay, as a share of the latter.
pub const NN_SUM_TOLERANCE: f64 = 0.25;
/// Whole training steps (and as many per-stage steps) replayed.
const STEP_REPS: usize = 30;
/// Replays of each batch-1 call.
const REPS: usize = 300;

/// The three sub-networks the replays run: `combined100`, and the two
/// branches of `lower50` and `upper50`.
#[derive(Debug, Clone)]
pub struct Specs {
    pub combined: SubnetSpec,
    pub lower: BranchSpec,
    pub upper: BranchSpec,
}

impl Specs {
    pub fn of(model: &FluidModel) -> Specs {
        let spec = |name: &str| model.spec(name).expect("standard sub-network").clone();
        Specs {
            combined: spec("combined100"),
            lower: spec("lower50").branches[0].clone(),
            upper: spec("upper50").branches[0].clone(),
        }
    }
}

/// What the replays run on: the workload's weights, request images and
/// labelled training data.
pub struct Inputs<'a> {
    pub net: &'a ConvNet,
    pub specs: &'a Specs,
    pub pool: &'a InputPool,
    /// Source of the training batch, the data loader and the evaluation.
    pub train: &'a Dataset,
    pub cfg: &'a TrainConfig,
    /// The core the TCP echo thread runs on, when the workload pins.
    pub echo_core: Option<usize>,
}

/// Runs every replay and adds its rows (every name in [`PER_LAYER`],
/// plus `nn.merge_ms`) to `out`, with the `nn`-sum check.
pub fn common_layers(inp: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let pool = inp.pool;
    let mut net = inp.net.clone();
    let n = pool.len();
    let combined = &inp.specs.combined;
    out.layer(
        "models.subnet_fwd_b1_ms",
        subnet_forward_ms(&mut net, combined, pool, 1, REPS),
        "ms",
    );
    out.layer(
        "models.subnet_fwd_b8_ms",
        subnet_forward_ms(&mut net, combined, pool, 8, REPS / 4),
        "ms",
    );
    for (name, branch) in [
        ("models.lower50_fwd_b1_ms", &inp.specs.lower),
        ("models.upper50_fwd_b1_ms", &inp.specs.upper),
    ] {
        let ms = replay_ms(REPS, |k| {
            let y = net.forward_branch(&pool.images[k % n], branch, false);
            net.recycle(y);
        });
        out.layer(name, ms, "ms");
    }
    let eval_ms = replay_ms(4, |_| {
        std::hint::black_box(evaluate_subnet(&mut net, combined, inp.train));
    });
    out.layer("core.evaluate_ms", eval_ms, "ms");
    training_rows(inp, &mut net, out);

    // The wire codec on this workload's own frames.
    let infer = Message::Infer {
        request_id: 1,
        input: pool.images[0].clone(),
    };
    let logits = Message::Logits {
        request_id: 1,
        logits: net.forward_subnet(&pool.images[0], combined, false),
    };
    let frames = [infer.encode(), logits.encode()];
    let encode_ms = replay_ms(REPS * 10, |_| {
        std::hint::black_box((infer.encode(), logits.encode()));
    });
    let decode_ms = replay_ms(REPS * 10, |_| {
        for f in &frames {
            std::hint::black_box(Message::decode(f).expect("own frame decodes"));
        }
    });
    out.layer("dist.encode_us", encode_ms * 1e3, "us");
    out.layer("dist.decode_us", decode_ms * 1e3, "us");
    out.note(format!(
        "dist frames: Infer + Logits = {} bytes",
        frames.iter().map(Vec::len).sum::<usize>()
    ));
    out.layer(
        "dist.tcp_rtt_us",
        tcp_rtt_ms(&infer, REPS * 2, inp.echo_core)? * 1e3,
        "us",
    );
    out.layer("serve.roundtrip_b1_ms", serve_roundtrip_ms(inp)?, "ms");
    out.layer("router.shard_lookup_us", shard_lookup_ms() * 1e3, "us");
    Ok(())
}

/// The `models.train_*`, `nn` and `data` rows: one `combined100` training
/// step at the training batch size, whole and stage by stage.
fn training_rows(inp: &Inputs, net: &mut ConvNet, out: &mut Outcome) {
    let cfg = inp.cfg;
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut loader = DataLoader::new(inp.train, cfg.batch_size, true, cfg.seed);
    let mut next_ms = Vec::new();
    while next_ms.len() < 64 {
        let t0 = Instant::now();
        match loader.next_batch() {
            Some(b) => {
                next_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(b);
            }
            None => loader.reset(),
        }
    }
    out.layer("data.next_batch_ms", median(&next_ms[1..]), "ms");
    loader.reset();
    let (x, labels) = loader.next_batch().expect("one batch");
    let combined = &inp.specs.combined;

    // Whole steps and per-stage steps, alternating so host drift hits
    // both alike; the first of each warms the workspaces.
    let mut ws = Workspace::new();
    let logits = net.forward_subnet(&x, combined, false);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    let mut whole = Vec::new();
    let mut stages = Vec::new();
    for _ in 0..=STEP_REPS {
        whole.push(step_once(net, combined, &x, &labels, &mut opt));
        stages.push(replay_stages(net, combined, &x, &grad, &mut ws));
    }
    let med =
        |f: &dyn Fn(&StageTimes) -> f64| median(&stages[1..].iter().map(f).collect::<Vec<_>>());
    let conv_fwd: Vec<f64> = (0..3).map(|k| med(&|st| st.conv_fwd[k])).collect();
    let conv_bwd: Vec<f64> = (0..3).map(|k| med(&|st| st.conv_bwd[k])).collect();
    let (fc_fwd, fc_bwd, merge) = (
        med(&|st| st.fc_fwd),
        med(&|st| st.fc_bwd),
        med(&|st| st.merge),
    );
    let wm = |f: &dyn Fn(&StepTimes) -> f64| median(&whole[1..].iter().map(f).collect::<Vec<_>>());
    let (fwd, bwd) = (wm(&|w| w.fwd), wm(&|w| w.bwd));

    out.layer("models.train_fwd_ms", fwd, "ms");
    out.layer("models.train_bwd_ms", bwd, "ms");
    for (k, ms) in conv_fwd.iter().enumerate() {
        out.layer(&format!("nn.conv{}_fwd_ms", k + 1), *ms, "ms");
    }
    for (k, ms) in conv_bwd.iter().enumerate() {
        out.layer(&format!("nn.conv{}_bwd_ms", k + 1), *ms, "ms");
    }
    out.layer("nn.fc_fwd_ms", fc_fwd, "ms");
    out.layer("nn.fc_bwd_ms", fc_bwd, "ms");
    out.layer("nn.loss_ms", wm(&|w| w.loss), "ms");
    out.layer("nn.sgd_step_ms", wm(&|w| w.step), "ms");
    out.layer("nn.merge_ms", merge, "ms");

    let fwd_sum: f64 = conv_fwd.iter().sum::<f64>() + fc_fwd + merge;
    let bwd_sum: f64 = conv_bwd.iter().sum::<f64>() + fc_bwd;
    for (what, sum, whole) in [("fwd", fwd_sum, fwd), ("bwd", bwd_sum, bwd)] {
        let off = (sum - whole) / whole;
        let verdict = if off.abs() <= NN_SUM_TOLERANCE {
            "ok"
        } else {
            "FAIL"
        };
        out.note(format!(
            "nn {what} rows sum to {sum:.4} ms vs models.train_{what}_ms {whole:.4} ms \
             ({:+.1}%, bound ±{:.0}%): {verdict}",
            off * 100.0,
            NN_SUM_TOLERANCE * 100.0
        ));
        if verdict != "ok" {
            out.violations.push(format!(
                "nn {what} rows do not sum to models.train_{what}_ms"
            ));
        }
    }
}

/// Times (ms) of one replayed SGD step's parts.
pub struct StepTimes {
    pub fwd: f64,
    pub bwd: f64,
    pub loss: f64,
    pub step: f64,
}

/// Replays one whole training step of `spec` on `(x, labels)`.
fn step_once(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    x: &Tensor,
    labels: &[usize],
    opt: &mut Sgd,
) -> StepTimes {
    net.zero_grad();
    let t0 = Instant::now();
    let logits = net.forward_subnet(x, spec, true);
    let t1 = Instant::now();
    let (_, grad) = softmax_cross_entropy(&logits, labels);
    let t2 = Instant::now();
    net.backward_subnet(&grad, spec);
    let t3 = Instant::now();
    opt.step(&mut net.param_set());
    let t4 = Instant::now();
    net.recycle(logits);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    StepTimes {
        fwd: ms(t0, t1),
        loss: ms(t1, t2),
        bwd: ms(t2, t3),
        step: ms(t3, t4),
    }
}

/// Medians over `reps` replayed training steps of `spec` on `(x, labels)`,
/// after one warm-up step.
pub fn replay_step(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    x: &Tensor,
    labels: &[usize],
    reps: usize,
    opt: &mut Sgd,
) -> StepTimes {
    let steps: Vec<StepTimes> = (0..=reps)
        .map(|_| step_once(net, spec, x, labels, opt))
        .collect();
    let m = |f: fn(&StepTimes) -> f64| median(&steps[1..].iter().map(f).collect::<Vec<_>>());
    StepTimes {
        fwd: m(|s| s.fwd),
        bwd: m(|s| s.bwd),
        loss: m(|s| s.loss),
        step: m(|s| s.step),
    }
}

/// Per-stage times (ms) of one training step, replayed through
/// `ConvNet::convs_mut()` and `fc_mut()`. A conv stage row is the conv
/// plus its ReLU and 2×2 max-pool; the FC row includes the flatten.
#[derive(Default, Clone)]
struct StageTimes {
    conv_fwd: [f64; 3],
    conv_bwd: [f64; 3],
    fc_fwd: f64,
    fc_bwd: f64,
    merge: f64,
}

fn replay_stages(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    x: &Tensor,
    grad: &Tensor,
    ws: &mut Workspace,
) -> StageTimes {
    let arch = net.arch().clone();
    let mut st = StageTimes::default();
    let nb = spec.branches.len();
    let mut relus: Vec<Vec<Relu>> = (0..nb)
        .map(|_| (0..3).map(|_| Relu::new()).collect())
        .collect();
    let mut pools: Vec<Vec<MaxPool2d>> = (0..nb)
        .map(|_| (0..3).map(|_| MaxPool2d::new(2, 2)).collect())
        .collect();
    let mut flats: Vec<Flatten> = (0..nb).map(|_| Flatten::new()).collect();
    net.zero_grad();
    let mut acc: Option<Tensor> = None;
    for (b, branch) in spec.branches.iter().enumerate() {
        let mut h = ws.tensor_copy(x);
        for stage in 0..arch.conv_stages {
            let t0 = Instant::now();
            let in_range = branch.in_range(stage, arch.image_channels);
            let next =
                net.convs_mut()[stage].forward_ws(&h, in_range, branch.channels[stage], true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
            let next = relus[b][stage].forward_ws(&h, true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
            let next = pools[b][stage].forward_ws(&h, true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
            st.conv_fwd[stage] += (t0.elapsed()).as_secs_f64() * 1e3;
        }
        let t0 = Instant::now();
        let flat = flats[b].forward_ws(&h, true, ws);
        ws.recycle(h);
        let partial =
            net.fc_mut()
                .forward_ws(&flat, branch.fc_range(&arch), branch.fc_bias, true, ws);
        ws.recycle(flat);
        st.fc_fwd += t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        acc = Some(match acc {
            None => partial,
            Some(mut a) => {
                a.add_assign(&partial);
                ws.recycle(partial);
                a
            }
        });
        st.merge += t0.elapsed().as_secs_f64() * 1e3;
    }
    ws.recycle(acc.expect("sub-network has branches"));
    for b in (0..nb).rev() {
        let t0 = Instant::now();
        let g = net.fc_mut().backward_ws(grad, ws);
        let mut g = {
            let next = flats[b].backward_ws(&g, ws);
            ws.recycle(g);
            next
        };
        st.fc_bwd += t0.elapsed().as_secs_f64() * 1e3;
        for stage in (0..arch.conv_stages).rev() {
            let t0 = Instant::now();
            let next = pools[b][stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
            let next = relus[b][stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
            let next = net.convs_mut()[stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
            st.conv_bwd[stage] += t0.elapsed().as_secs_f64() * 1e3;
        }
        ws.recycle(g);
    }
    st
}

/// Median round trip (ms) of one `Infer` frame echoed over a loopback
/// `TcpTransport` pair.
fn tcp_rtt_ms(frame: &Message, reps: usize, echo_core: Option<usize>) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind echo: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || {
        if let Some(core) = echo_core {
            crate::affinity::pin_current_thread(core);
        }
        let Ok((sock, _)) = listener.accept() else {
            return;
        };
        let Ok(mut t) = TcpTransport::new(sock) else {
            return;
        };
        while let Ok(Some(m)) = t.recv_timeout(Duration::from_secs(5)) {
            if t.send(&m).is_err() {
                break;
            }
        }
    });
    let rtt = TcpStream::connect(addr)
        .map_err(|e| format!("connect echo: {e}"))
        .and_then(|sock| TcpTransport::new(sock).map_err(|e| e.to_string()))
        .and_then(|mut client| {
            let mut failed = false;
            let rtt = replay_ms(reps, |_| {
                let ok = client.send(frame).is_ok()
                    && matches!(client.recv_timeout(Duration::from_secs(5)), Ok(Some(_)));
                failed |= !ok;
            });
            if failed {
                Err("echo round trip failed".to_string())
            } else {
                Ok(rtt)
            }
        });
    // The client is dropped by now, so the echo loop has ended (or the
    // listener was never connected and `accept` returns once it is).
    if rtt.is_err() {
        let _ = TcpStream::connect(addr);
    }
    echo.join().map_err(|_| "echo thread panicked")?;
    rtt
}

/// Median round trip (ms) of a lone batch-1 `submit` + `wait` through a
/// one-worker `Server` at `ServeConfig::default()`.
fn serve_roundtrip_ms(inp: &Inputs) -> Result<f64, String> {
    let backend = EngineBackend::new("f32", inp.net.clone(), inp.specs.combined.clone());
    let server = Server::start(ServeConfig::default(), vec![Box::new(backend)])
        .map_err(|e| format!("start server: {e}"))?;
    let handle = server.handle();
    let n = inp.pool.len();
    let mut failed = false;
    let rt = replay_ms(REPS, |k| {
        let answered = handle
            .submit(inp.pool.images[k % n].clone())
            .map(|t| t.wait().is_ok());
        failed |= answered != Ok(true);
    });
    server.shutdown();
    if failed {
        return Err("a replayed serve request was not answered".into());
    }
    Ok(rt)
}

/// Median time (ms) of 1000 keyed lookups (`shard_of` + `replicas`) in a
/// two-node shard map at the default `RouterConfig`.
fn shard_lookup_ms() -> f64 {
    let cfg = RouterConfig::default();
    let ids = ["node-0".to_string(), "node-1".to_string()];
    let map = ShardMap::new(&ids, cfg.shards, 2);
    let mut key = 0x9e37_79b9_7f4a_7c15u64;
    replay_ms(REPS, |_| {
        for _ in 0..1000 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(map.replicas(map.shard_of(key)));
        }
    })
}
