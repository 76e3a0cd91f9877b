//! End-to-end benchmark of the Fluid DyDNN workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload edge_pair --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! measures it for `--seconds`, checks every answer against an oracle
//! computed in set-up, and prints a human-readable report followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` splits the time between an untraced and a traced pass and reports
//! the per-layer metrics, the per-layer table and the tracing overhead.
//! Both tables print every metric the workload has; the JSON line holds
//! the ones `BENCHMARK.json` names, which every workload reports.
//! See `e2ebench/README.md` for the workloads and what each metric means.

mod affinity;
mod cluster_tcp;
mod edge_pair;
mod inputs;
mod replay;
mod report;
mod serve_poisson;
mod trace;
mod train_nested;

use replay::PER_LAYER;
use report::{median, result_json, select, Metric, Outcome};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["edge_pair", "serve_poisson", "cluster_tcp", "train_nested"];

/// The end-to-end metrics of the result line, in `BENCHMARK.json` order.
/// Every workload reports each; what `throughput_per_s` and `p50_ms`
/// count is set by the workload (see `e2ebench/README.md`).
const END_TO_END: [&str; 3] = ["setup_s", "throughput_per_s", "p50_ms"];

/// One benchmark workload: a set-up that builds everything a pass needs
/// (model, oracles, deployment, cluster), and a measured pass that
/// consumes it.
pub trait Workload {
    type State;

    /// Builds a fresh state from the run seed.
    fn setup(seed: u64) -> Result<Self::State, String>;

    /// Configuration lines for the result's fingerprint.
    fn config(state: &Self::State) -> Vec<String>;

    /// Measures for `budget`; with a tracer, also records spans and
    /// replays the layers for the per-layer metrics.
    fn run(
        state: Self::State,
        budget: Duration,
        tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, String>;
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "edge_pair" => drive::<edge_pair::EdgePair>(&opts),
        "serve_poisson" => drive::<serve_poisson::ServePoisson>(&opts),
        "cluster_tcp" => drive::<cluster_tcp::ClusterTcp>(&opts),
        "train_nested" => drive::<train_nested::TrainNested>(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", opts.workload);
            ExitCode::from(2)
        }
    }
}

fn timed_setup<W: Workload>(seed: u64, times: &mut Vec<f64>) -> Result<W::State, String> {
    let t0 = Instant::now();
    let state = W::setup(seed)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(state)
}

/// Runs one workload end to end and prints the report; returns whether
/// every answer was correct.
fn drive<W: Workload>(opts: &Opts) -> Result<bool, String> {
    let mut setup_times = Vec::new();
    for _ in 1..SETUPS {
        drop(timed_setup::<W>(opts.seed, &mut setup_times)?);
    }
    let state = timed_setup::<W>(opts.seed, &mut setup_times)?;
    print_fingerprint(opts, &W::config(&state));

    let budget = Duration::from_secs_f64(opts.seconds);
    let (untraced, traced) = if opts.trace {
        let half = budget / 2;
        let untraced = W::run(state, half, None)?;
        let state = timed_setup::<W>(opts.seed, &mut setup_times)?;
        let mut tracer = Tracer::new();
        let traced = W::run(state, half, Some(&mut tracer))?;
        println!(
            "trace: {} spans kept in memory over {} requests",
            tracer.len(),
            tracer.requests()
        );
        (untraced, Some(traced))
    } else {
        (W::run(state, budget, None)?, None)
    };
    let setup_s = median(&setup_times);

    let mut total = untraced.total();
    let mut violations = untraced.violations.clone();
    print_phases("untraced", &untraced);
    let metrics: Vec<Metric> = match &traced {
        None => {
            let mut m = vec![Metric {
                name: "setup_s".into(),
                value: setup_s,
                unit: "s",
            }];
            m.extend(untraced.e2e.iter().cloned());
            println!(
                "setup_s {setup_s:.4} s (median of {} set-ups: {:.4?})",
                setup_times.len(),
                setup_times
            );
            print_metrics("end-to-end metrics", &m);
            select(&m, &END_TO_END)?
        }
        Some(t) => {
            total.merge(&t.total());
            violations.extend(t.violations.iter().cloned());
            print_phases("traced", t);
            let mut layers = t.layers.clone();
            layers.push(Metric {
                name: "tensor.pool_threads".into(),
                value: fluid_tensor::pool::threads() as f64,
                unit: "count",
            });
            print_metrics("per-layer metrics", &layers);
            print_overhead(&untraced, t);
            select(&layers, &PER_LAYER)?
        }
    };
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let bad = metrics.iter().find(|m| !m.value.is_finite());
    if let Some(m) = bad {
        return Err(format!("metric {} is not finite", m.name));
    }
    let correct = total.failed == 0 && violations.is_empty();
    println!(
        "{}",
        result_json(correct, total.sent, total.failed, &metrics)
    );
    Ok(correct)
}

fn print_fingerprint(opts: &Opts, config: &[String]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fingerprint: workload={} seed={} seconds={} trace={} visible_cores={} simd={} \
         pool_threads={} fluid_threads_env={:?}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cores,
        fluid_tensor::simd::active_name(),
        fluid_tensor::pool::threads(),
        std::env::var("FLUID_THREADS").ok(),
    );
    for line in config {
        println!("config: {line}");
    }
}

fn print_phases(pass: &str, out: &Outcome) {
    println!("{pass} phases:");
    println!(
        "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "phase", "sent", "ok", "shed", "failed", "failed_frac"
    );
    for (name, t) in &out.phases {
        let frac = if t.sent > 0 {
            t.failed as f64 / t.sent as f64
        } else {
            0.0
        };
        println!(
            "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>11.6}",
            name, t.sent, t.ok, t.shed, t.failed, frac
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// Traced vs untraced end-to-end figures: what recording spans costs.
fn print_overhead(untraced: &Outcome, traced: &Outcome) {
    println!("tracing overhead (traced vs untraced pass, same budget):");
    for m in &untraced.e2e {
        if let Some(t) = traced.e2e_value(&m.name) {
            let pct = (t - m.value) / m.value * 100.0;
            println!(
                "  {:<22} untraced {:>12.4}  traced {:>12.4} {:<6} ({pct:+.1}%)",
                m.name, m.value, t, m.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_names_are_the_manifests() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = manifest
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let want: Vec<&str> = WORKLOADS
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        assert_eq!(names, want);
    }
}
