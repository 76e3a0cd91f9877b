//! Offline discrete-event simulators of the serving policies.
//!
//! Before trusting quota, weight or watermark knobs in production — and
//! to sanity-check the live fairness and elasticity suites — these
//! functions replay a policy against a queueing model: Poisson arrivals
//! hit a pool of identical servers whose service time is a parameter.
//! Each simulator calls the code it models, so the offline answer and the
//! live server cannot drift apart:
//!
//! * [`simulate_tenants`] admits through [`TokenBucket::try_take`] and
//!   assembles batches with [`DrrState::assemble`] over the live ring;
//! * [`simulate_elastic`] ticks the autoscaler's own decision rule.
//!
//! The paper's HA/HT model and the routed-cluster simulator model no
//! serving policy; they stay in `fluid_perf`.

use crate::autoscale::{AutoscaleConfig, Decision, Observation, ScaleRule};
use crate::sched::{drr_ring, DrrState, TokenBucket};
use crate::server::ServeConfig;
use fluid_perf::{percentile, SampleWindow};
use fluid_tensor::Prng;
use std::collections::VecDeque;

/// How the simulated front-end picks the next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantDiscipline {
    /// One global FIFO across tenants — the untenanted scheduler. A
    /// flooding tenant's backlog delays everyone behind it.
    GlobalFifo,
    /// Weighted deficit round robin over per-tenant queues, interactive
    /// tenants first — the live tenancy scheduler.
    WeightedDrr,
}

/// What one tenant observed in a [`simulate_tenants`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSimRow {
    /// The tenant's name.
    pub name: String,
    /// Requests served.
    pub completed: usize,
    /// Requests refused by the tenant's own token bucket.
    pub quota_rejected: usize,
    /// Requests shed by the shared queue capacity.
    pub shed: usize,
    /// Mean sojourn (queueing + service), seconds, over completions.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn, seconds.
    pub p95_sojourn_s: f64,
}

/// Result of one [`simulate_tenants`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSimReport {
    /// Per-tenant rows, in tenancy-table order.
    pub tenants: Vec<TenantSimRow>,
    /// Total requests served across tenants.
    pub completed: usize,
    /// Completions per second of simulated time.
    pub throughput_rps: f64,
}

/// Simulates `duration_s` seconds of multi-tenant serving under `cfg`'s
/// tenancy table, `max_batch` and `queue_cap`: tenant `i` offers Poisson
/// arrivals at `lambdas[i]`, admission charges its token bucket and then
/// the shared queue cap (counting queued requests), and every time one of
/// `servers` servers frees up it assembles a batch of one-row requests
/// under `discipline`. A batch of `b` requests occupies its server for
/// `batch_overhead_s + b * service_s` (the overhead is what makes
/// batching worthwhile, exactly as on the live path).
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `cfg` fails the checks `Server::start` makes, has no tenancy
/// table, or `lambdas` does not give one non-negative rate per tenant; or
/// if `servers` is zero or `service_s`, `batch_overhead_s` or
/// `duration_s` is out of range.
///
/// # Example
///
/// ```
/// use fluid_serve::{
///     simulate_tenants, ServeConfig, TenancyConfig, TenantClass, TenantDiscipline, TenantPolicy,
/// };
/// let mut cfg = ServeConfig::default();
/// cfg.tenancy = Some(TenancyConfig::new(vec![
///     TenantPolicy::new(1, "web", TenantClass::Interactive),
///     TenantPolicy::new(2, "etl", TenantClass::Batch),
/// ]));
/// let run = |d| simulate_tenants(&cfg, &[20.0, 200.0], d, 0.005, 0.002, 1, 5.0, 42);
/// let fifo = run(TenantDiscipline::GlobalFifo);
/// let drr = run(TenantDiscipline::WeightedDrr);
/// assert!(drr.tenants[0].p95_sojourn_s < fifo.tenants[0].p95_sojourn_s);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate_tenants(
    cfg: &ServeConfig,
    lambdas: &[f64],
    discipline: TenantDiscipline,
    service_s: f64,
    batch_overhead_s: f64,
    servers: usize,
    duration_s: f64,
    seed: u64,
) -> TenantSimReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let tenancy = cfg
        .tenancy
        .as_ref()
        .expect("simulate_tenants needs a tenancy table");
    let n = tenancy.tenants.len();
    assert_eq!(lambdas.len(), n, "one arrival rate per tenant");
    assert!(lambdas.iter().all(|&l| l >= 0.0), "negative arrival rate");
    assert!(service_s > 0.0, "non-positive service time");
    assert!(batch_overhead_s >= 0.0, "negative batch overhead");
    assert!(servers >= 1, "no servers");
    assert!(duration_s > 0.0, "non-positive duration");

    // Pre-draw every tenant's arrival process, then merge to one timeline.
    let mut rng = Prng::new(seed);
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for (i, &lambda) in lambdas.iter().enumerate() {
        poisson(&mut rng, lambda, 0.0, duration_s, |t| arrivals.push((t, i)));
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    // The live scheduler's ring: per-tenant queues, or one merged FIFO
    // with the untenanted path's credit. Queue items are (tenant, arrival).
    let fifo = discipline == TenantDiscipline::GlobalFifo;
    let (order, weights) = drr_ring((!fifo).then_some(tenancy), cfg.max_batch);
    let mut queues: Vec<VecDeque<(usize, f64)>> = vec![VecDeque::new(); order.len()];
    let mut drr = DrrState::new(order.len());
    let mut buckets: Vec<TokenBucket> = tenancy
        .tenants
        .iter()
        .map(|t| TokenBucket::new(t.rate, t.burst, 0.0))
        .collect();
    let mut servers_busy: Vec<f64> = vec![0.0; servers]; // busy-until stamps
    let mut sojourns: Vec<SampleWindow> = (0..n).map(|_| SampleWindow::new()).collect();
    let mut quota_rejected = vec![0usize; n];
    let mut shed = vec![0usize; n];
    let mut batch = Vec::new();
    let mut queued_total = 0usize;
    let mut last_done = 0.0f64;
    let mut ai = 0usize;

    loop {
        let arrival = arrivals.get(ai).copied();
        // Work-conserving: a freed server immediately takes whatever is
        // queued (a batch starts no earlier than its latest member's
        // arrival, handled at dispatch below).
        let serve_t = if queued_total == 0 {
            f64::INFINITY
        } else {
            servers_busy.iter().copied().fold(f64::INFINITY, f64::min)
        };
        match arrival {
            None if queued_total == 0 => break,
            Some((at, tenant)) if at <= serve_t => {
                ai += 1;
                if !buckets[tenant].try_take(at) {
                    quota_rejected[tenant] += 1;
                    continue;
                }
                if queued_total >= cfg.queue_cap {
                    shed[tenant] += 1;
                    continue;
                }
                queues[if fifo { 0 } else { tenant }].push_back((tenant, at));
                queued_total += 1;
            }
            _ => {
                // A server frees: assemble one batch under the discipline.
                let slot = earliest_free(&servers_busy);
                let now = servers_busy[slot];
                batch.clear();
                let rows = drr.assemble(
                    &mut queues,
                    &order,
                    &weights,
                    cfg.max_batch,
                    |_| 1,
                    &mut batch,
                );
                debug_assert!(rows > 0, "serve event with empty backlog");
                queued_total -= rows;
                let latest = batch.iter().map(|&(_, (_, at))| at).fold(0.0, f64::max);
                let done = now.max(latest) + batch_overhead_s + rows as f64 * service_s;
                servers_busy[slot] = done;
                last_done = last_done.max(done);
                for &(_, (tenant, arrived)) in &batch {
                    sojourns[tenant].push(done - arrived);
                }
            }
        }
    }

    let rows: Vec<TenantSimRow> = tenancy
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantSimRow {
            name: t.name.clone(),
            completed: sojourns[i].len(),
            quota_rejected: quota_rejected[i],
            shed: shed[i],
            mean_sojourn_s: sojourns[i].mean(),
            p95_sojourn_s: sojourns[i].percentile(0.95),
        })
        .collect();
    let completed = rows.iter().map(|r| r.completed).sum();
    TenantSimReport {
        tenants: rows,
        completed,
        throughput_rps: if last_done > 0.0 {
            completed as f64 / last_done
        } else {
            0.0
        },
    }
}

/// What one [`simulate_elastic`] run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSimReport {
    /// Requests completed.
    pub completed: usize,
    /// Mean sojourn time (queueing + service), seconds.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn time, seconds.
    pub p95_sojourn_s: f64,
    /// Achieved throughput over the run, requests/s.
    pub throughput_rps: f64,
    /// Servers added by the controller.
    pub scale_ups: usize,
    /// Servers retired by the controller.
    pub scale_downs: usize,
    /// Largest pool size reached.
    pub peak_servers: usize,
    /// Pool size when the run ended.
    pub final_servers: usize,
    /// Time-weighted mean pool size — the capacity (cost) actually spent.
    pub mean_servers: f64,
}

/// Simulates the autoscaler under `cfg` against Poisson arrivals whose
/// rate is piecewise-constant: `phases` is a sequence of
/// `(duration_s, lambda)` segments (a `lambda` of `0.0` is a silent
/// stretch). Each server completes one request per `service_s` seconds;
/// the pool starts at `cfg.min_workers`, and every `cfg.tick` the live
/// controller's rule sees the queue length, the p95 of the sojourns
/// dispatched since the previous tick, and no shedding (the simulated
/// queue is unbounded).
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `cfg` fails the checks `Autoscaler::spawn` makes,
/// `service_s <= 0`, or `phases` is empty or contains a non-positive
/// duration or negative lambda.
///
/// # Example
///
/// ```
/// use fluid_serve::{simulate_elastic, AutoscaleConfig};
/// // One server does 40 req/s; a 120 req/s surge should grow the pool.
/// let phases = [(1.0, 10.0), (2.0, 120.0)];
/// let r = simulate_elastic(0.025, &AutoscaleConfig::default(), &phases, 7);
/// assert!(r.peak_servers > 1);
/// ```
pub fn simulate_elastic(
    service_s: f64,
    cfg: &AutoscaleConfig,
    phases: &[(f64, f64)],
    seed: u64,
) -> ElasticSimReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    assert!(service_s > 0.0, "non-positive service time");
    assert!(!phases.is_empty(), "no arrival phases");
    let tick_s = cfg.tick.as_secs_f64();

    // Pre-draw the arrival process across the phases.
    let mut rng = Prng::new(seed);
    let mut arrivals = Vec::new();
    let mut phase_start = 0.0f64;
    for &(duration, lambda) in phases {
        assert!(duration > 0.0, "non-positive phase duration");
        assert!(lambda >= 0.0, "negative arrival rate");
        poisson(&mut rng, lambda, phase_start, phase_start + duration, |t| {
            arrivals.push(t);
        });
        phase_start += duration;
    }

    let mut queue: VecDeque<f64> = VecDeque::new();
    let mut servers: Vec<f64> = vec![0.0; cfg.min_workers]; // busy-until stamps
    let mut ai = 0usize;
    let mut now = 0.0f64;
    let mut tick_i = 1u64;
    let mut sojourns = SampleWindow::new();
    let mut recent_ms: Vec<f64> = Vec::new(); // dispatched since the last tick
    let mut rule = ScaleRule::default();
    let mut scale_ups = 0usize;
    let mut scale_downs = 0usize;
    let mut peak_servers = servers.len();
    let mut server_seconds = 0.0f64;
    let mut last_done = 0.0f64;

    let advance = |now: &mut f64, to: f64, pool: usize, server_seconds: &mut f64| {
        if to > *now {
            *server_seconds += pool as f64 * (to - *now);
            *now = to;
        }
    };

    let total_duration = phase_start;
    loop {
        let arrival_t = arrivals.get(ai).copied().unwrap_or(f64::INFINITY);
        let drained = arrival_t.is_infinite() && queue.is_empty();
        // The controller ticks for the whole configured timeline (so calm
        // stretches produce scale-down decisions), and past it only while
        // work remains.
        let tick_t = {
            let t = tick_i as f64 * tick_s;
            if drained && t > total_duration {
                f64::INFINITY
            } else {
                t
            }
        };
        let serve_t = if queue.is_empty() {
            f64::INFINITY
        } else {
            let earliest = servers.iter().copied().fold(f64::INFINITY, f64::min);
            earliest.max(now)
        };
        if drained && serve_t.is_infinite() && tick_t.is_infinite() {
            break;
        }

        if serve_t <= arrival_t && serve_t <= tick_t {
            // Serve one request on the earliest-free server.
            let arrived = queue.pop_front().expect("non-empty queue");
            advance(&mut now, serve_t, servers.len(), &mut server_seconds);
            let slot = earliest_free(&servers);
            let start = servers[slot].max(now);
            let done = start + service_s;
            servers[slot] = done;
            last_done = last_done.max(done);
            sojourns.push(done - arrived);
            recent_ms.push((done - arrived) * 1e3);
        } else if arrival_t <= tick_t {
            advance(&mut now, arrival_t, servers.len(), &mut server_seconds);
            queue.push_back(arrival_t);
            ai += 1;
        } else {
            advance(&mut now, tick_t, servers.len(), &mut server_seconds);
            tick_i += 1;
            recent_ms.sort_by(f64::total_cmp);
            let obs = Observation {
                queue_depth: queue.len(),
                shed_delta: 0,
                recent_p95_ms: percentile(&recent_ms, 0.95),
                recent_samples: recent_ms.len(),
                alive: servers.len(),
            };
            recent_ms.clear();
            match rule.decide(cfg, &obs) {
                Decision::Hold => {}
                Decision::Up(_) => {
                    servers.push(now); // fresh server, free from `now`
                    scale_ups += 1;
                    peak_servers = peak_servers.max(servers.len());
                }
                Decision::Down(_) => {
                    // Retire the idlest server (the live drain protocol
                    // lets its in-flight work finish, which this model's
                    // dispatch-time completion already accounts for).
                    servers.remove(earliest_free(&servers));
                    scale_downs += 1;
                }
            }
        }
    }

    let completed = sojourns.len();
    let end = last_done.max(now);
    ElasticSimReport {
        completed,
        mean_sojourn_s: sojourns.mean(),
        p95_sojourn_s: sojourns.percentile(0.95),
        throughput_rps: if end > 0.0 {
            completed as f64 / end
        } else {
            0.0
        },
        scale_ups,
        scale_downs,
        peak_servers,
        final_servers: servers.len(),
        mean_servers: if now > 0.0 {
            server_seconds / now
        } else {
            servers.len() as f64
        },
    }
}

/// Calls `push` with each arrival time of a Poisson process at `lambda`
/// over `(start, end]`; a zero `lambda` offers nothing.
fn poisson(rng: &mut Prng, lambda: f64, start: f64, end: f64, mut push: impl FnMut(f64)) {
    if lambda <= 0.0 {
        return;
    }
    let mut t = start;
    loop {
        t += rng.exponential(lambda);
        if t > end {
            return;
        }
        push(t);
    }
}

/// The server of a pool (busy-until stamps) that frees first; ties go to
/// the lowest index.
fn earliest_free(servers: &[f64]) -> usize {
    let (slot, _) = servers
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("pool is never empty");
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{TenancyConfig, TenantClass, TenantPolicy};

    /// 5ms per row, 2ms per batch: one server sustains ~190 rows/s at
    /// batch 8.
    const SERVICE_S: f64 = 0.005;
    const OVERHEAD_S: f64 = 0.002;

    fn tenant(id: u64, class: TenantClass, weight: u32) -> TenantPolicy {
        let mut t = TenantPolicy::new(id, format!("t{id}"), class);
        t.weight = weight;
        t
    }

    /// Batch 8 over `tenants`, sharing `queue_cap` queued requests.
    fn serve_cfg(tenants: Vec<TenantPolicy>, queue_cap: usize) -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            queue_cap,
            tenancy: Some(TenancyConfig::new(tenants)),
            ..ServeConfig::default()
        }
    }

    fn run(
        discipline: TenantDiscipline,
        tenants: Vec<TenantPolicy>,
        lambdas: &[f64],
    ) -> TenantSimReport {
        let cfg = serve_cfg(tenants, 64);
        simulate_tenants(
            &cfg, lambdas, discipline, SERVICE_S, OVERHEAD_S, 1, 10.0, 42,
        )
    }

    fn web_etl() -> Vec<TenantPolicy> {
        vec![
            tenant(1, TenantClass::Interactive, 1),
            tenant(2, TenantClass::Batch, 1),
        ]
    }

    #[test]
    fn drr_protects_interactive_p95_from_a_flood() {
        // A polite interactive tenant next to a 10× batch flood. Under
        // global FIFO the interactive tenant waits behind the flood's
        // backlog; under DRR it boards every batch.
        let fifo = run(TenantDiscipline::GlobalFifo, web_etl(), &[20.0, 200.0]);
        let drr = run(TenantDiscipline::WeightedDrr, web_etl(), &[20.0, 200.0]);
        let (f_web, d_web) = (&fifo.tenants[0], &drr.tenants[0]);
        assert!(
            d_web.p95_sojourn_s < f_web.p95_sojourn_s / 2.0,
            "DRR web p95 {} vs FIFO {}",
            d_web.p95_sojourn_s,
            f_web.p95_sojourn_s
        );
        // The flood still gets served — fairness, not starvation.
        assert!(drr.tenants[1].completed > 0);
    }

    #[test]
    fn weights_drain_a_shared_burst_proportionally() {
        // Both tenants dump ~100-request bursts in the first 100ms; the
        // weight-3 tenant drains ~3 rows for every 1 of its rival's, so
        // its backlog clears far sooner and its sojourns stay far lower.
        let cfg = serve_cfg(
            vec![
                tenant(1, TenantClass::Batch, 3),
                tenant(2, TenantClass::Batch, 1),
            ],
            512,
        );
        let r = simulate_tenants(
            &cfg,
            &[1000.0, 1000.0],
            TenantDiscipline::WeightedDrr,
            SERVICE_S,
            OVERHEAD_S,
            1,
            0.1,
            7,
        );
        assert_eq!(r.tenants[0].shed + r.tenants[1].shed, 0, "{r:?}");
        assert!(r.tenants[0].completed > 50, "{r:?}");
        assert!(
            r.tenants[0].mean_sojourn_s * 1.8 < r.tenants[1].mean_sojourn_s,
            "weight 3 did not drain faster: a {} vs b {} ({r:?})",
            r.tenants[0].mean_sojourn_s,
            r.tenants[1].mean_sojourn_s
        );
    }

    #[test]
    fn outsized_weight_flood_cannot_starve_a_light_tenant() {
        // A weight-9 flood (9 ≥ max_batch 8) at 1000 req/s — five times
        // capacity, with room to queue all of it — next to a weight-1
        // tenant at 10 req/s. A DRR that re-credits the capacity-blocked
        // queue on every resume pins its cursor on the flood, and the
        // light tenant waits for the whole flood backlog (p95 ~26 s); the
        // live assembler serves it within a few batches.
        let cfg = serve_cfg(
            vec![
                tenant(1, TenantClass::Batch, 9),
                tenant(2, TenantClass::Batch, 1),
            ],
            100_000,
        );
        let r = simulate_tenants(
            &cfg,
            &[1000.0, 10.0],
            TenantDiscipline::WeightedDrr,
            SERVICE_S,
            OVERHEAD_S,
            1,
            5.0,
            42,
        );
        let light = &r.tenants[1];
        assert!(light.completed > 0, "{r:?}");
        assert!(
            light.p95_sojourn_s < 1.0,
            "light tenant starved behind the flood: p95 {}s ({r:?})",
            light.p95_sojourn_s
        );
    }

    #[test]
    fn quota_clips_a_tenant_without_touching_the_other() {
        let mut metered = tenant(1, TenantClass::Batch, 1);
        metered.rate = 10.0;
        metered.burst = 5.0;
        let free = tenant(2, TenantClass::Batch, 1);
        let r = run(
            TenantDiscipline::WeightedDrr,
            vec![metered, free],
            &[100.0, 20.0],
        );
        assert!(r.tenants[0].quota_rejected > 0, "{r:?}");
        assert_eq!(r.tenants[1].quota_rejected, 0);
        assert!(
            r.tenants[0].completed as f64 <= 10.0 * 10.0 + 5.0 + 1.0,
            "metered tenant served past its quota: {r:?}"
        );
    }

    #[test]
    fn zero_lambda_tenant_is_an_empty_row() {
        let tenants = vec![
            tenant(1, TenantClass::Batch, 1),
            tenant(2, TenantClass::Interactive, 1),
        ];
        let r = run(TenantDiscipline::WeightedDrr, tenants, &[50.0, 0.0]);
        assert!(r.tenants[0].completed > 0);
        assert_eq!(r.tenants[1].completed, 0);
        assert_eq!(r.tenants[1].quota_rejected, 0);
        assert_eq!(r.tenants[1].shed, 0);
    }

    #[test]
    fn work_is_conserved_across_disciplines() {
        // Same arrivals (same seed), no quota, ample cap: both
        // disciplines must serve every request — they only reorder.
        let fifo = run(TenantDiscipline::GlobalFifo, web_etl(), &[30.0, 60.0]);
        let drr = run(TenantDiscipline::WeightedDrr, web_etl(), &[30.0, 60.0]);
        assert_eq!(fifo.completed, drr.completed, "{fifo:?} vs {drr:?}");
        for (f, d) in fifo.tenants.iter().zip(&drr.tenants) {
            assert_eq!(f.completed, d.completed);
        }
    }

    #[test]
    fn tenants_are_deterministic_given_seed() {
        let a = run(TenantDiscipline::WeightedDrr, web_etl(), &[40.0, 80.0]);
        let b = run(TenantDiscipline::WeightedDrr, web_etl(), &[40.0, 80.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "no tenants")]
    fn empty_tenant_table_panics() {
        let cfg = serve_cfg(vec![], 64);
        let _ = simulate_tenants(
            &cfg,
            &[],
            TenantDiscipline::WeightedDrr,
            SERVICE_S,
            OVERHEAD_S,
            1,
            1.0,
            0,
        );
    }

    /// 25ms service → one server sustains 40 req/s.
    const ELASTIC_SERVICE_S: f64 = 0.025;

    #[test]
    fn ramp_overload_grows_the_pool_and_recovers_p95() {
        let cfg = AutoscaleConfig::default();
        // Phase 2 offers 3× one server's capacity.
        let phases = [(2.0, 10.0), (4.0, 120.0), (2.0, 10.0)];
        let elastic = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 7);
        assert!(elastic.scale_ups >= 1, "{elastic:?}");
        assert!(elastic.peak_servers > 1, "{elastic:?}");

        let mut fixed = cfg.clone();
        fixed.max_workers = 1;
        let pinned = simulate_elastic(ELASTIC_SERVICE_S, &fixed, &phases, 7);
        assert_eq!(pinned.peak_servers, 1);
        assert!(
            elastic.p95_sojourn_s < pinned.p95_sojourn_s / 2.0,
            "elastic p95 {} vs pinned {}",
            elastic.p95_sojourn_s,
            pinned.p95_sojourn_s
        );
        assert_eq!(
            elastic.completed, pinned.completed,
            "work must be conserved"
        );
    }

    #[test]
    fn latency_trigger_grows_a_pool_the_queue_trigger_leaves_alone() {
        // 30 req/s on a 40 req/s server rarely queues 8 deep, but its
        // sojourns often exceed one service time: only the p95 trigger
        // (sampled from the sojourns dispatched since the last tick)
        // scales up.
        let phases = [(5.0, 30.0)];
        let mut cfg = AutoscaleConfig {
            up_queue_depth: 1000,
            ..AutoscaleConfig::default()
        };
        let quiet = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 3);
        assert_eq!(quiet.scale_ups, 0, "{quiet:?}");
        cfg.up_p95_ms = 30.0;
        let hot = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 3);
        assert!(hot.scale_ups >= 1, "{hot:?}");
        assert!(
            hot.p95_sojourn_s < quiet.p95_sojourn_s,
            "{hot:?} vs {quiet:?}"
        );
    }

    #[test]
    fn calm_tail_scales_back_to_min() {
        let cfg = AutoscaleConfig {
            idle_ticks: 10,
            ..AutoscaleConfig::default()
        };
        // A burst, then a long silent stretch for the drain decisions.
        let phases = [(2.0, 120.0), (20.0, 0.0)];
        let r = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 3);
        assert!(r.scale_ups >= 1, "{r:?}");
        assert!(r.scale_downs >= 1, "{r:?}");
        assert_eq!(r.final_servers, cfg.min_workers, "{r:?}");
        assert!(r.mean_servers < cfg.max_workers as f64);
    }

    #[test]
    fn quiet_load_never_scales() {
        let cfg = AutoscaleConfig::default();
        let r = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &[(10.0, 5.0)], 11);
        assert_eq!(r.scale_ups, 0, "{r:?}");
        assert_eq!(r.scale_downs, 0);
        assert_eq!(r.peak_servers, 1);
        assert!(r.completed > 20);
    }

    #[test]
    fn elastic_is_deterministic_given_seed() {
        let cfg = AutoscaleConfig::default();
        let phases = [(3.0, 60.0), (3.0, 10.0)];
        let a = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 42);
        let b = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &phases, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn silent_timeline_completes_nothing_and_scales_nothing_up() {
        // Every phase offers zero arrivals: the controller still ticks
        // (and may scale down to min, where it already is), but nothing
        // completes and no percentile is NaN.
        let cfg = AutoscaleConfig::default();
        let r = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &[(1.0, 0.0), (1.0, 0.0)], 5);
        assert_eq!(r.completed, 0);
        assert_eq!(r.scale_ups, 0);
        assert_eq!(r.peak_servers, cfg.min_workers);
        assert_eq!(r.final_servers, cfg.min_workers);
        assert_eq!(r.mean_sojourn_s, 0.0);
        assert_eq!(r.p95_sojourn_s, 0.0);
        assert_eq!(r.throughput_rps, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-positive service time")]
    fn zero_service_time_panics() {
        let _ = simulate_elastic(0.0, &AutoscaleConfig::default(), &[(1.0, 1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "below min_workers")]
    fn inverted_bounds_panic() {
        let cfg = AutoscaleConfig {
            min_workers: 3,
            max_workers: 2,
            ..AutoscaleConfig::default()
        };
        let _ = simulate_elastic(ELASTIC_SERVICE_S, &cfg, &[(1.0, 1.0)], 0);
    }
}
