//! `train_nested`: Algorithm 1. Runs `train_nested` (one iteration over
//! the base ladder and the nested upper ladder) on a seeded `SynthDigits`
//! split, then `evaluate_subnet` of `combined100`, `lower50` and `upper50`
//! on the held-out split, three times. The only workload where backward,
//! the optimiser and the data loader do the work.
//!
//! Training and evaluation are repeated from the same initial weights
//! until the budget is spent; every repeat must reproduce the first one's
//! losses and accuracies bit for bit (training is deterministic at any
//! thread count), and the reported figures are medians over repeats. One
//! iteration, not more, so that about seven runs fit in 20 s.

use crate::inputs::{InputPool, POOL_IMAGES};
use crate::replay::{common_layers, replay_step, Inputs, Specs};
use crate::report::{median, Outcome, Tally};
use crate::trace::Tracer;
use crate::Workload;
use fluid_core::training::{
    evaluate_subnet, train_nested, NestedSchedule, TrainConfig, TrainStats,
};
use fluid_data::{DataLoader, Dataset, SynthDigits};
use fluid_models::{Arch, FluidModel};
use fluid_nn::Sgd;
use fluid_tensor::Prng;
use std::time::{Duration, Instant};

const TRAIN_IMAGES: usize = 1000;
const TEST_IMAGES: usize = 500;
/// An accuracy at or below this (chance is 0.1) counts as a failed
/// evaluation: the sub-network did not learn.
const MIN_TOP1: f32 = 0.3;
/// The sub-networks evaluated after every training run.
const EVALUATED: [&str; 3] = ["combined100", "lower50", "upper50"];
/// Evaluations of every trained model: each gives one `p50_ms` sample.
const EVAL_REPS: usize = 3;

pub struct TrainNested;

pub struct State {
    model: FluidModel,
    train: Dataset,
    test: Dataset,
    pool: InputPool,
    cfg: TrainConfig,
    schedule: NestedSchedule,
}

impl Workload for TrainNested {
    type State = State;

    fn setup(seed: u64) -> Result<State, String> {
        let (train, test) = SynthDigits::new(seed).train_test(TRAIN_IMAGES, TEST_IMAGES);
        let model = FluidModel::new(Arch::paper(), &mut Prng::new(seed));
        let cfg = TrainConfig {
            seed,
            ..TrainConfig::default()
        };
        let schedule = NestedSchedule {
            iterations: 1,
            ..NestedSchedule::default()
        };
        Ok(State {
            model,
            train,
            test,
            pool: InputPool::new(seed, POOL_IMAGES),
            cfg,
            schedule,
        })
    }

    fn config(s: &State) -> Vec<String> {
        vec![
            format!("{:?}", s.cfg),
            format!("{:?}", s.schedule),
            format!("arch=paper train_images={TRAIN_IMAGES} test_images={TEST_IMAGES}"),
        ]
    }

    fn run(s: State, budget: Duration, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let batches_per_phase = s.train.len() / s.cfg.batch_size * s.cfg.epochs_per_phase;
        let phases =
            s.schedule.iterations * (s.schedule.base_ladder.len() + s.schedule.upper_ladder.len());
        let images = (batches_per_phase * phases * s.cfg.batch_size) as f64;

        let mut tally = Tally::default();
        let mut rates = Vec::new();
        let mut eval_ms = Vec::new();
        let mut first: Option<(FluidModel, TrainStats, [f32; 3])> = None;
        let start = Instant::now();
        loop {
            let mut model = s.model.clone();
            let t0 = Instant::now();
            let stats = train_nested(&mut model, &s.train, &s.cfg, &s.schedule);
            let t1 = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("core.train_nested", rates.len() as u64, t0, t1);
            }
            rates.push(images / (t1 - t0).as_secs_f64());
            let mut top1 = Vec::with_capacity(EVAL_REPS);
            for _ in 0..EVAL_REPS {
                let e0 = Instant::now();
                top1.push(EVALUATED.map(|name| {
                    let spec = model.spec(name).expect("standard sub-network").clone();
                    evaluate_subnet(model.net_mut(), &spec, &s.test).to_bits()
                }));
                eval_ms.push(e0.elapsed().as_secs_f64() * 1e3);
            }
            let t2 = Instant::now();
            let top1_repeats = top1.iter().all(|t| *t == top1[0]);
            match &first {
                None => {
                    tally.answer(Some(top1_repeats));
                    first = Some((model, stats, top1[0].map(f32::from_bits)));
                }
                Some((_, want, want_top1)) => tally.answer(Some(
                    top1_repeats
                        && same_losses(want, &stats)
                        && top1[0] == want_top1.map(f32::to_bits),
                )),
            }
            // Stop before a repeat that would overrun the budget.
            if (start.elapsed() + (t2 - t0)) > budget {
                break;
            }
        }
        out.phase("train", tally);

        let (model, _, top1) = first.expect("at least one training run");
        out.e2e("throughput_per_s", median(&rates), "1/s");
        out.e2e("p50_ms", median(&eval_ms), "ms");
        out.e2e("train_img_per_s", median(&rates), "img/s");
        let mut tally = Tally::default();
        for (name, acc) in EVALUATED.iter().zip(top1) {
            tally.answer(Some(acc > MIN_TOP1));
            out.e2e(&format!("top1_{name}"), f64::from(acc), "frac");
        }
        out.phase("evaluate", tally);
        out.note(format!(
            "{} training runs of {images} images ({phases} phases x {batches_per_phase} \
             batches of {}); img/s per run {rates:.0?}; p50_ms: evaluating {} sub-networks \
             on {} held-out images, ms per evaluation {eval_ms:.1?}",
            rates.len(),
            s.cfg.batch_size,
            EVALUATED.len(),
            s.test.len()
        ));

        if let Some(t) = tracer {
            layers(&s, &model, t, &mut out, batches_per_phase)?;
        }
        Ok(out)
    }
}

fn same_losses(a: &TrainStats, b: &TrainStats) -> bool {
    a.phases.len() == b.phases.len()
        && a.phases.iter().zip(&b.phases).all(|(x, y)| {
            x.subnet == y.subnet
                && x.epoch_losses.len() == y.epoch_losses.len()
                && x.epoch_losses
                    .iter()
                    .zip(&y.epoch_losses)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The `core` rows of the traced pass, and the replays every workload
/// runs (on the trained weights and the training set).
fn layers(
    s: &State,
    model: &FluidModel,
    t: &mut Tracer,
    out: &mut Outcome,
    batches_per_phase: usize,
) -> Result<(), String> {
    let specs = Specs::of(model);
    let inputs = Inputs {
        net: model.net(),
        specs: &specs,
        pool: &s.pool,
        train: &s.train,
        cfg: &s.cfg,
        echo_core: None,
    };
    common_layers(&inputs, out)?;
    let next_batch_ms = out.layer_value("data.next_batch_ms");

    // Replayed cost of everything train_nested runs, phase by phase; every
    // iteration repeats the same phases.
    let cfg = &s.cfg;
    let mut net = model.net().clone();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let (x, labels) = DataLoader::new(&s.train, cfg.batch_size, true, cfg.seed)
        .next_batch()
        .expect("one batch");
    let per_phase = (batches_per_phase * s.schedule.iterations) as f64;
    let mut replayed_ms = 0.0;
    let mut batches = 0.0;
    for name in s
        .schedule
        .base_ladder
        .iter()
        .chain(&s.schedule.upper_ladder)
    {
        let spec = model.spec(name).expect("scheduled sub-network");
        let st = replay_step(&mut net, spec, &x, &labels, 8, &mut opt);
        replayed_ms += (st.fwd + st.bwd + st.loss + st.step + next_batch_ms) * per_phase;
        batches += per_phase;
    }
    let nested_ms = t.median_ms("core.train_nested");
    out.layer("core.train_nested_s", nested_ms / 1e3, "s");
    out.layer("core.self_ms", (nested_ms - replayed_ms) / batches, "ms");
    out.note(format!(
        "derived self time: core.self_ms = (train_nested {nested_ms:.1} ms - replayed \
         {replayed_ms:.1} ms) / {batches} batches"
    ));
    Ok(())
}
