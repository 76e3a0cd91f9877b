//! End-to-end elasticity: the autoscaler grows capacity under an
//! open-loop Poisson ramp (and p95 recovers), draining never drops an
//! in-flight ticket, a model hot-swap is zero-downtime — even while a
//! worker dies mid-swap — and a same-checkpoint swap is bit-identical.

use fluid_models::{load_net_from_path, save_net_to_path, Arch, FluidModel};
use fluid_perf::percentile;
use fluid_serve::{
    AutoscaleConfig, Autoscaler, Backend, EngineBackend, MasterBackend, ScaleAction, ServeConfig,
    Server,
};
use fluid_tensor::{Prng, Tensor};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn model(seed: u64) -> FluidModel {
    FluidModel::new(Arch::tiny_28(), &mut Prng::new(seed))
}

fn input(k: usize) -> Tensor {
    Tensor::from_fn(&[1, 1, 28, 28], |i| {
        (((i * 29 + k * 13) % 89) as f32) / 89.0
    })
}

fn engine_backend(name: &str, m: &FluidModel) -> Box<dyn Backend> {
    Box::new(EngineBackend::new(
        name,
        m.net().clone(),
        m.spec("combined100").expect("spec").clone(),
    ))
}

/// An engine that also sleeps per batch — a stand-in for a device whose
/// service rate an arrival process can actually exceed.
struct SlowBackend {
    inner: EngineBackend,
    delay: Duration,
}

impl SlowBackend {
    fn boxed(name: &str, m: &FluidModel, delay: Duration) -> Box<dyn Backend> {
        Box::new(SlowBackend {
            inner: EngineBackend::new(
                name,
                m.net().clone(),
                m.spec("combined100").expect("spec").clone(),
            ),
            delay,
        })
    }
}

impl Backend for SlowBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn input_dims(&self) -> [usize; 3] {
        self.inner.input_dims()
    }
    fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, fluid_dist::DistError> {
        std::thread::sleep(self.delay);
        self.inner.infer_batch(x)
    }
}

/// Open-loop Poisson arrivals at `lambda` req/s; every response is
/// checked against `reference` outputs and its end-to-end latency
/// recorded. Returns the latencies in milliseconds.
fn verified_open_loop(
    server: &Server,
    reference: &mut FluidModel,
    lambda: f64,
    n: usize,
    seed: u64,
) -> Vec<f64> {
    let spec = reference.spec("combined100").expect("spec").clone();
    let handle = server.handle();
    let mut rng = Prng::new(seed);
    let latencies_ms = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        let mut next_arrival_s = 0.0f64;
        for k in 0..n {
            next_arrival_s += rng.exponential(lambda);
            let due = t0 + Duration::from_secs_f64(next_arrival_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submitted = Instant::now();
            let ticket = handle.submit(input(k)).expect("submit");
            let latencies_ms = &latencies_ms;
            let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
            scope.spawn(move || {
                let got = ticket.wait().expect("open-loop request served");
                latencies_ms
                    .lock()
                    .expect("latency log")
                    .push(submitted.elapsed().as_secs_f64() * 1e3);
                assert!(want.allclose(&got, 0.0), "request {k} answered incorrectly");
            });
        }
    });
    latencies_ms.into_inner().expect("latency log")
}

fn p95(mut latencies_ms: Vec<f64>) -> f64 {
    latencies_ms.sort_by(f64::total_cmp);
    percentile(&latencies_ms, 0.95)
}

/// The acceptance scenario: a Poisson ramp saturates the single worker,
/// the autoscaler adds slots, p95 recovers once capacity follows, and a
/// hot-swap under continued load completes with zero dropped or incorrect
/// responses.
#[test]
fn poisson_ramp_scales_up_p95_recovers_and_hot_swap_is_lossless() {
    let m = model(41);
    let mut reference = model(41);
    // 10ms per single-request batch → ~100 req/s per worker.
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 1;
    cfg.max_wait = Duration::from_micros(200);
    cfg.queue_cap = 512;
    let server = Server::start(
        cfg,
        vec![SlowBackend::boxed("base0", &m, Duration::from_millis(10))],
    )
    .expect("start");

    // Surge at ~2.5× one worker's capacity with the pool still pinned at
    // one slot: the queue balloons and latency climbs — the baseline the
    // controller must beat.
    let surge = verified_open_loop(&server, &mut reference, 250.0, 80, 7);

    let mut scale_cfg = AutoscaleConfig::default();
    scale_cfg.min_workers = 1;
    scale_cfg.max_workers = 3;
    scale_cfg.tick = Duration::from_millis(5);
    scale_cfg.up_queue_depth = 4;
    scale_cfg.cooldown_ticks = 2;
    scale_cfg.idle_ticks = usize::MAX; // no scale-down in this test
    let factory = {
        let factory_model = model(41);
        move |slot: usize| {
            Ok(SlowBackend::boxed(
                &format!("auto{slot}"),
                &factory_model,
                Duration::from_millis(10),
            ))
        }
    };
    let scaler = Autoscaler::spawn(server.elastic(), factory, scale_cfg).expect("autoscaler");

    // Same arrival rate, controller live: it adds slots within a few
    // ticks and the grown pool's p95 recovers.
    let settled = verified_open_loop(&server, &mut reference, 250.0, 80, 8);
    let events = scaler.events();
    assert!(
        events.iter().any(|e| e.action == ScaleAction::Up),
        "no scale-up under 2.5× overload: {events:?}"
    );
    assert!(
        server.alive_workers() >= 2,
        "autoscaler added no accepting slot"
    );
    let (surge_p95, settled_p95) = (p95(surge), p95(settled));
    assert!(
        settled_p95 < surge_p95 / 2.0,
        "p95 did not recover after scale-up: surge {surge_p95:.1}ms, settled {settled_p95:.1}ms"
    );
    drop(scaler);

    // Hot-swap the (identical) model under continued load: every response
    // during and after the swap must be correct, none dropped.
    let elastic = server.elastic();
    let swap = {
        let replacements = vec![
            engine_backend("v2-0", &model(41)),
            engine_backend("v2-1", &model(41)),
        ];
        std::thread::spawn(move || elastic.hot_swap(replacements, Duration::from_secs(30)))
    };
    let during = verified_open_loop(&server, &mut reference, 150.0, 40, 9);
    assert_eq!(during.len(), 40, "requests dropped during the swap");
    let new_slots = swap.join().expect("swap thread").expect("hot swap");
    assert_eq!(new_slots.len(), 2);

    let end = server.shutdown();
    assert_eq!(end.hot_swaps, 1);
    assert!(end.workers_added >= 3, "{end:?}"); // autoscaler + swap slots
    assert_eq!(end.failed, 0, "hot swap dropped requests: {end}");
    assert_eq!(end.completed, 200);
    // The swapped-in engines actually serve.
    assert!(
        end.workers
            .iter()
            .filter(|w| w.name.starts_with("v2-"))
            .any(|w| w.batches > 0),
        "{end}"
    );
}

#[test]
fn drain_completes_in_flight_tickets_before_retire() {
    let m = model(43);
    let mut reference = model(43);
    let spec = reference.spec("combined100").expect("spec").clone();
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 1;
    cfg.max_wait = Duration::from_micros(100);
    cfg.queue_cap = 64;
    let server = Server::start(
        cfg,
        vec![
            SlowBackend::boxed("slow0", &m, Duration::from_millis(25)),
            SlowBackend::boxed("slow1", &m, Duration::from_millis(25)),
        ],
    )
    .expect("start");
    let handle = server.handle();
    let elastic = server.elastic();

    // Queue up more work than fits in flight, so slot 0 is mid-batch (or
    // has batches queued on its channel) when the drain lands.
    let tickets: Vec<_> = (0..8)
        .map(|k| handle.submit(input(k)).expect("submit"))
        .collect();
    elastic.drain(0).expect("drain");
    assert_eq!(server.alive_workers(), 1);

    // Retire waits for slot 0's in-flight batches; nothing is dropped.
    elastic.retire(0, Duration::from_secs(30)).expect("retire");
    for (k, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("in-flight ticket answered");
        let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
        assert!(want.allclose(&got, 0.0), "request {k} wrong after drain");
    }
    let end = server.shutdown();
    assert_eq!(end.failed, 0);
    assert_eq!(end.completed, 8);
    assert!(end.workers[0].retired);
    assert_eq!(end.workers_retired, 1);
}

#[test]
fn hot_swap_during_worker_death_drops_nothing() {
    let m = model(47);
    let mut reference = model(47);
    let combined = m.spec("combined100").expect("spec");
    let pair = fluid_dist::spawn_ha_pair(
        m.net(),
        combined.branches[0].clone(),
        combined.branches[1].clone(),
        "pair0",
    )
    .expect("spawn pair");
    let (switch, worker_thread) = (pair.switch.clone(), pair.worker);
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(MasterBackend::new("pair0", pair.master)),
        SlowBackend::boxed("slow0", &m, Duration::from_millis(5)),
    ];
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 2;
    cfg.max_wait = Duration::from_micros(200);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, backends).expect("start");
    let elastic = server.elastic();

    // Kick off the swap on one thread and kill the pair's link right
    // behind it, so the old generation dies *while* it is being drained.
    let swap = {
        let elastic = elastic.clone();
        let replacements = vec![
            engine_backend("v2-0", &model(47)),
            engine_backend("v2-1", &model(47)),
        ];
        std::thread::spawn(move || elastic.hot_swap(replacements, Duration::from_secs(30)))
    };
    switch.kill();
    let latencies = verified_open_loop(&server, &mut reference, 200.0, 40, 11);
    assert_eq!(latencies.len(), 40);
    swap.join()
        .expect("swap thread")
        .expect("hot swap survives a mid-swap worker death");
    worker_thread.join().expect("worker exits on link death");

    let end = server.shutdown();
    assert_eq!(end.hot_swaps, 1);
    assert_eq!(end.failed, 0, "{end}");
    assert_eq!(end.completed, 40);
}

#[test]
fn zero_load_scales_to_minimum_and_still_serves_correctly() {
    let m = model(53);
    let mut reference = model(53);
    let spec = reference.spec("combined100").expect("spec").clone();
    let server = Server::start(
        ServeConfig::default(),
        vec![
            engine_backend("b0", &m),
            engine_backend("b1", &m),
            engine_backend("b2", &m),
        ],
    )
    .expect("start");
    let mut scale_cfg = AutoscaleConfig::default();
    scale_cfg.min_workers = 1;
    scale_cfg.max_workers = 3;
    scale_cfg.tick = Duration::from_millis(2);
    scale_cfg.idle_ticks = 3;
    scale_cfg.cooldown_ticks = 1;
    let factory = {
        let factory_model = model(53);
        move |slot: usize| Ok(engine_backend(&format!("auto{slot}"), &factory_model))
    };
    let scaler = Autoscaler::spawn(server.elastic(), factory, scale_cfg).expect("autoscaler");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.alive_workers() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.alive_workers(),
        1,
        "zero load never drained to min_workers"
    );
    let events = scaler.stop();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.action == ScaleAction::Down)
            .count(),
        2,
        "{events:?}"
    );

    // The remaining slot answers, and answers correctly.
    let got = server.handle().infer(input(3)).expect("floor serves");
    let want = reference.net_mut().forward_subnet(&input(3), &spec, false);
    assert!(want.allclose(&got, 0.0));
    let end = server.shutdown();
    assert_eq!(end.workers_retired, 2);
    assert_eq!(end.failed, 0);
}

#[test]
fn same_checkpoint_hot_swap_is_bit_identical() {
    let m = model(59);
    // Round-trip the serving weights through an on-disk checkpoint — the
    // `fluidctl reload` path.
    let dir = std::env::temp_dir().join("fluid_autoscale_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("same.fldn");
    save_net_to_path(m.net(), &path).expect("save");
    let reloaded = load_net_from_path(&path).expect("load");
    let _ = std::fs::remove_file(&path);

    let server =
        Server::start(ServeConfig::default(), vec![engine_backend("v1", &m)]).expect("start");
    let handle = server.handle();
    let before: Vec<Tensor> = (0..12)
        .map(|k| handle.infer(input(k)).expect("before swap"))
        .collect();

    let spec = m.spec("combined100").expect("spec").clone();
    let replacement = Box::new(EngineBackend::new("v2", reloaded, spec)) as Box<dyn Backend>;
    server
        .elastic()
        .hot_swap(vec![replacement], Duration::from_secs(10))
        .expect("hot swap");

    for (k, want) in before.iter().enumerate() {
        let got = handle.infer(input(k)).expect("after swap");
        assert!(
            want.allclose(&got, 0.0),
            "request {k}: same-checkpoint swap changed an answer"
        );
    }
    let end = server.shutdown();
    assert_eq!(end.hot_swaps, 1);
    assert_eq!(end.failed, 0);
    assert_eq!(end.completed, 24);
}
