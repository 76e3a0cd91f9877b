//! Elastic serving, end to end: a server that starts with one worker,
//! grows under a Poisson traffic surge (watch the autoscaler's decision
//! log), shrinks back when the surge passes, and finally hot-swaps its
//! model under live load without dropping a request — the serving-layer
//! version of the paper's "seamlessly transition to meet varying
//! performance demands" claim.
//!
//! The backends emulate the paper's edge devices with a fixed per-batch
//! service floor (a Jetson-class device serves ~14 img/s; this demo's
//! 5 ms floor ≈ 200 req/s per worker keeps the run short while keeping
//! the capacity arithmetic host-independent).
//!
//! Run with `cargo run --release -p fluid-examples --bin elastic`.

use fluid_dist::DistError;
use fluid_models::{Arch, FluidModel};
use fluid_serve::{
    loadgen, simulate_elastic, AutoscaleConfig, Autoscaler, Backend, EngineBackend, ServeConfig,
    Server,
};
use fluid_tensor::{Prng, Tensor};
use std::time::Duration;

/// Per-batch service floor: one worker ≈ 200 req/s at `max_batch 1`.
const SERVICE_FLOOR: Duration = Duration::from_millis(5);

/// An engine that emulates a slow edge device: every batch pays a fixed
/// service floor on top of the real forward pass.
struct EdgeBackend(EngineBackend);

impl Backend for EdgeBackend {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn input_dims(&self) -> [usize; 3] {
        self.0.input_dims()
    }
    fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, DistError> {
        std::thread::sleep(SERVICE_FLOOR);
        self.0.infer_batch(x)
    }
}

fn backends(model: &FluidModel, count: usize, prefix: &str) -> Vec<Box<dyn Backend>> {
    let spec = model.spec("combined100").expect("spec").clone();
    (0..count)
        .map(|i| {
            Box::new(EdgeBackend(EngineBackend::new(
                &format!("{prefix}{i}"),
                model.net().clone(),
                spec.clone(),
            ))) as Box<dyn Backend>
        })
        .collect()
}

fn main() {
    println!("=== Elastic serving: autoscale + zero-downtime hot swap ===\n");

    let model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let mut cfg = ServeConfig::default();
    // Batching off: a worker slot is the unit of capacity, so the surge
    // visibly outruns one slot and scaling up is what restores headroom.
    cfg.max_batch = 1;
    cfg.max_wait = Duration::from_millis(1);
    cfg.queue_cap = 1024;
    let server = Server::start(cfg, backends(&model, 1, "base")).expect("start");

    let mut scale_cfg = AutoscaleConfig::default();
    scale_cfg.min_workers = 1;
    scale_cfg.max_workers = 3;
    scale_cfg.tick = Duration::from_millis(10);
    scale_cfg.up_queue_depth = 8;
    scale_cfg.idle_ticks = 15;

    // What should the controller do under a 2.5× surge? Ask the offline
    // decision simulator first — the same rule and knobs, no threads.
    let predicted = simulate_elastic(0.005, &scale_cfg, &[(1.0, 50.0), (2.0, 500.0)], 42);
    println!(
        "offline decision sim: a 50→500 req/s surge should grow the pool to ~{} servers\n",
        predicted.peak_servers
    );

    let factory = {
        let model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
        move |slot: usize| Ok(backends(&model, 1, &format!("auto{slot}-")).remove(0))
    };
    let scaler = Autoscaler::spawn(server.elastic(), factory, scale_cfg).expect("autoscaler");

    let handle = server.handle();
    let inputs: Vec<Tensor> = {
        let mut rng = Prng::new(7);
        (0..16)
            .map(|_| Tensor::from_fn(&[1, 1, 28, 28], |_| rng.uniform(0.0, 1.0)))
            .collect()
    };

    for (phase, lambda, n) in [
        ("calm", 50.0, 30),
        ("surge", 500.0, 300),
        ("calm again", 50.0, 60),
    ] {
        println!("-- {phase}: Poisson arrivals at {lambda:.0} req/s, {n} requests --");
        let report = loadgen::run_open_loop(&handle, lambda, n, &inputs, 42);
        println!("{report}");
        println!("   workers accepting: {}\n", server.alive_workers());
    }

    println!("controller decision log:");
    for e in scaler.stop() {
        println!("  {e}");
    }

    println!("\n-- hot swap: replace the model under live load --");
    let load = {
        let handle = handle.clone();
        let inputs = inputs.clone();
        std::thread::spawn(move || {
            loadgen::run_closed_loop(|_| Ok(handle.clone()), 4, 120, &inputs)
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    server
        .elastic()
        .hot_swap(backends(&model, 2, "v2-"), Duration::from_secs(10))
        .expect("hot swap");
    let report = load.join().expect("load thread").expect("loadgen");
    println!("{report}");

    let end = server.shutdown();
    println!("\n{end}");
    println!(
        "\nThe pool followed the load ({} slots added, {} retired), and the",
        end.workers_added, end.workers_retired
    );
    println!(
        "model swap completed mid-traffic with {} failed requests — capacity",
        report.failed
    );
    println!("and even the model itself are now runtime-mutable, not boot-time constants.");
}
