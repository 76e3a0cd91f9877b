//! Deterministic load generation against a serving instance.
//!
//! Two arrival disciplines:
//!
//! * **Closed loop** — `clients` concurrent clients, each submitting its
//!   next request the moment the previous one resolves. Offered load
//!   adapts to service capacity; concurrency is what creates batching
//!   opportunities.
//! * **Open loop** — requests arrive on a Poisson process at `lambda`
//!   req/s (exponential inter-arrivals drawn from the workspace's seeded
//!   [`Prng`]), regardless of how the server is coping — the discipline
//!   that actually exercises backpressure and shedding. Two flavours:
//!   [`run_open_loop`] submits tickets to an in-proc [`ServerHandle`];
//!   [`run_open_loop_indexed`] drives any blocking submit closure from a
//!   submitter pool — the driver the cluster drill
//!   (`fluid_router::run_drill`) runs through the router list.

use crate::error::ServeError;
use crate::server::ServerHandle;
use fluid_tensor::{Prng, Tensor};
use std::time::{Duration, Instant};

/// A blocking inference client the closed-loop driver can hammer: the
/// in-proc [`ServerHandle`] and the TCP [`TcpClient`](crate::TcpClient)
/// both qualify.
pub trait InferClient: Send {
    /// One blocking request → response round trip.
    ///
    /// # Errors
    ///
    /// Returns the serving layer's per-request verdict.
    fn infer(&mut self, x: &Tensor) -> Result<Tensor, ServeError>;
}

impl InferClient for ServerHandle {
    fn infer(&mut self, x: &Tensor) -> Result<Tensor, ServeError> {
        ServerHandle::infer(self, x.clone())
    }
}

/// What a loadgen run observed, from the client side.
///
/// `shed` counts explicit [`ServeError::Overloaded`] /
/// [`ServeError::Rejected`] verdicts; `failed` is every other error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenReport {
    /// Requests the generator attempted.
    pub submitted: usize,
    /// Requests answered with logits.
    pub completed: usize,
    /// Requests explicitly refused by backpressure.
    pub shed: usize,
    /// Requests that errored for any other reason.
    pub failed: usize,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// Completed requests per second over the run.
    pub achieved_rps: f64,
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loadgen: {}/{} ok, {} shed, {} failed in {:.2}s → {:.1} req/s",
            self.completed,
            self.submitted,
            self.shed,
            self.failed,
            self.elapsed_s,
            self.achieved_rps
        )
    }
}

fn classify(
    result: &Result<Tensor, ServeError>,
    completed: &mut usize,
    shed: &mut usize,
    failed: &mut usize,
) {
    match result {
        Ok(_) => *completed += 1,
        Err(
            ServeError::Overloaded { .. }
            | ServeError::Rejected(_)
            | ServeError::QuotaExhausted { .. },
        ) => *shed += 1,
        Err(_) => *failed += 1,
    }
}

fn report(
    submitted: usize,
    completed: usize,
    shed: usize,
    failed: usize,
    t0: Instant,
) -> LoadgenReport {
    let elapsed_s = t0.elapsed().as_secs_f64();
    LoadgenReport {
        submitted,
        completed,
        shed,
        failed,
        elapsed_s,
        achieved_rps: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
    }
}

/// Closed-loop run: `clients` concurrent clients issue `requests` total
/// requests (split evenly, remainder to the first clients), cycling
/// through `inputs`.
///
/// `make_client` builds one client per thread — clone a [`ServerHandle`]
/// for in-proc runs, open a [`TcpClient`](crate::TcpClient) for remote
/// ones.
///
/// # Errors
///
/// Returns the first client-construction error; per-request errors are
/// *counted*, not propagated.
///
/// # Panics
///
/// Panics if `inputs` is empty or `clients == 0`.
///
/// # Example
///
/// ```
/// use fluid_serve::{loadgen, EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let backend = EngineBackend::new(
///     "m0",
///     model.net().clone(),
///     model.spec("combined100").unwrap().clone(),
/// );
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
/// let inputs = vec![Tensor::zeros(&[1, 1, 28, 28])];
/// let handle = server.handle();
/// let rep = loadgen::run_closed_loop(|_| Ok(handle.clone()), 2, 6, &inputs).unwrap();
/// assert_eq!(rep.completed, 6);
/// ```
pub fn run_closed_loop<C, F>(
    make_client: F,
    clients: usize,
    requests: usize,
    inputs: &[Tensor],
) -> Result<LoadgenReport, ServeError>
where
    C: InferClient,
    F: Fn(usize) -> Result<C, ServeError> + Sync,
{
    assert!(clients > 0, "closed loop needs at least one client");
    assert!(!inputs.is_empty(), "loadgen needs at least one input");
    let t0 = Instant::now();
    let mut completed = 0;
    let mut shed = 0;
    let mut failed = 0;
    std::thread::scope(|scope| -> Result<(), ServeError> {
        let mut joins = Vec::with_capacity(clients);
        for id in 0..clients {
            let mut client = make_client(id)?;
            let share = requests / clients + usize::from(id < requests % clients);
            let join = scope.spawn(move || {
                let (mut ok, mut sh, mut fa) = (0, 0, 0);
                for k in 0..share {
                    let x = &inputs[(id + k * clients) % inputs.len()];
                    classify(&client.infer(x), &mut ok, &mut sh, &mut fa);
                }
                (ok, sh, fa)
            });
            joins.push((share, join));
        }
        for (share, j) in joins {
            // A panicked client thread must not make its share vanish from
            // the accounting: count it as failed.
            let (ok, sh, fa) = j.join().unwrap_or((0, 0, share));
            completed += ok;
            shed += sh;
            failed += fa;
        }
        Ok(())
    })?;
    Ok(report(requests, completed, shed, failed, t0))
}

/// Open-loop run: `requests` arrivals on a Poisson process at `lambda`
/// req/s, submitted without waiting (tickets are resolved after the last
/// arrival). Sheds show up immediately at submission; this is the
/// discipline that drives a server past its knee.
///
/// # Panics
///
/// Panics if `lambda <= 0` or `inputs` is empty.
///
/// # Example
///
/// ```
/// use fluid_serve::{loadgen, EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let backend = EngineBackend::new(
///     "m0",
///     model.net().clone(),
///     model.spec("combined100").unwrap().clone(),
/// );
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
/// let inputs = vec![Tensor::zeros(&[1, 1, 28, 28])];
/// let rep = loadgen::run_open_loop(&server.handle(), 200.0, 5, &inputs, 42);
/// assert_eq!(rep.submitted, 5);
/// assert_eq!(rep.completed + rep.shed + rep.failed, 5);
/// ```
pub fn run_open_loop(
    handle: &ServerHandle,
    lambda: f64,
    requests: usize,
    inputs: &[Tensor],
    seed: u64,
) -> LoadgenReport {
    assert!(lambda > 0.0, "non-positive arrival rate");
    assert!(!inputs.is_empty(), "loadgen needs at least one input");
    let mut rng = Prng::new(seed);
    let t0 = Instant::now();
    let mut completed = 0;
    let mut shed = 0;
    let mut failed = 0;
    let mut tickets = Vec::new();
    // Arrivals are scheduled on an absolute clock (t0 + cumulative gaps),
    // so per-iteration sleep overshoot and submission time do not
    // accumulate into a rate below the requested lambda.
    let mut next_arrival_s = 0.0f64;
    for k in 0..requests {
        next_arrival_s += rng.exponential(lambda);
        let due = t0 + Duration::from_secs_f64(next_arrival_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match handle.submit(inputs[k % inputs.len()].clone()) {
            Ok(t) => tickets.push(t),
            Err(e) => classify(&Err(e), &mut completed, &mut shed, &mut failed),
        }
    }
    for t in tickets {
        classify(&t.wait(), &mut completed, &mut shed, &mut failed);
    }
    report(requests, completed, shed, failed, t0)
}

/// One tenant's arrival plan for [`run_open_loop_tenants`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Wire-level tenant id (must be in the server's tenancy table).
    pub tenant: u64,
    /// Poisson arrival rate, req/s.
    pub lambda: f64,
    /// Total arrivals for this tenant.
    pub requests: usize,
}

/// Multi-tenant open-loop run: each entry of `plans` gets its own arrival
/// thread running an independent Poisson process at its `lambda`, tagging
/// every submission with its tenant id
/// ([`ServerHandle::submit_for`](crate::ServerHandle::submit_for)). Returns
/// one [`LoadgenReport`] per plan, in order — quota refusals and queue
/// sheds both land in that tenant's `shed` count.
///
/// This is the client side of the fairness story: run an abusive tenant at
/// 10× its quota next to a polite interactive one and read both verdicts
/// from the reports (and the server's per-tenant metrics).
///
/// # Panics
///
/// Panics if `plans` is empty or any plan has `lambda <= 0`.
pub fn run_open_loop_tenants(
    handle: &ServerHandle,
    plans: &[TenantLoad],
    inputs: &[Tensor],
    seed: u64,
) -> Vec<LoadgenReport> {
    assert!(!plans.is_empty(), "loadgen needs at least one tenant plan");
    assert!(!inputs.is_empty(), "loadgen needs at least one input");
    assert!(
        plans.iter().all(|p| p.lambda > 0.0),
        "non-positive arrival rate"
    );
    std::thread::scope(|scope| {
        let joins: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                scope.spawn(move || {
                    let mut rng = Prng::new(seed.wrapping_add(i as u64));
                    let t0 = Instant::now();
                    let (mut completed, mut shed, mut failed) = (0, 0, 0);
                    let mut tickets = Vec::new();
                    let mut next_arrival_s = 0.0f64;
                    for k in 0..plan.requests {
                        next_arrival_s += rng.exponential(plan.lambda);
                        let due = t0 + Duration::from_secs_f64(next_arrival_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        match handle.submit_for(plan.tenant, inputs[k % inputs.len()].clone()) {
                            Ok(t) => tickets.push(t),
                            Err(e) => classify(&Err(e), &mut completed, &mut shed, &mut failed),
                        }
                    }
                    for t in tickets {
                        classify(&t.wait(), &mut completed, &mut shed, &mut failed);
                    }
                    report(plan.requests, completed, shed, failed, t0)
                })
            })
            .collect();
        joins
            .into_iter()
            .zip(plans)
            .map(|(j, plan)| {
                j.join().unwrap_or_else(|_| {
                    // A panicked tenant thread must not silently vanish.
                    report(plan.requests, 0, 0, plan.requests, Instant::now())
                })
            })
            .collect()
    })
}

/// Open-loop run against *any* blocking submit function: arrivals come on
/// a Poisson process at `lambda` req/s and are handed (by arrival index
/// `0..requests`) to a pool of `concurrency` submitter threads calling
/// `submit(k)`. This is the cluster-drill driver — the submit closure can
/// route through a `fluid-router`, verify responses against an oracle, or
/// anything else a [`ServerHandle`] ticket cannot express.
///
/// The arrival process is open-loop (the clock never waits for the
/// server); the submitter pool only bounds client-side concurrency, so
/// pick `concurrency` comfortably above the expected in-flight count and
/// let the serving side's admission control be the binding constraint.
///
/// # Panics
///
/// Panics if `lambda <= 0` or `concurrency == 0`.
///
/// # Example
///
/// ```
/// use fluid_serve::{loadgen, EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let backend = EngineBackend::new(
///     "m0",
///     model.net().clone(),
///     model.spec("combined100").unwrap().clone(),
/// );
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
/// let handle = server.handle();
/// let x = Tensor::zeros(&[1, 1, 28, 28]);
/// let rep = loadgen::run_open_loop_indexed(|_k| handle.infer(x.clone()), 2, 300.0, 6, 42);
/// assert_eq!(rep.submitted, 6);
/// assert_eq!(rep.completed, 6);
/// ```
pub fn run_open_loop_indexed<F>(
    submit: F,
    concurrency: usize,
    lambda: f64,
    requests: usize,
    seed: u64,
) -> LoadgenReport
where
    F: Fn(usize) -> Result<Tensor, ServeError> + Sync,
{
    assert!(lambda > 0.0, "non-positive arrival rate");
    assert!(concurrency > 0, "open loop needs at least one submitter");
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let rx = std::sync::Mutex::new(rx);
    let mut completed = 0;
    let mut shed = 0;
    let mut failed = 0;
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..concurrency)
            .map(|_| {
                scope.spawn(|| {
                    let (mut ok, mut sh, mut fa) = (0, 0, 0);
                    loop {
                        // Take the lock only to pull the next arrival, not
                        // across the (slow) submit call.
                        let k = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                            Ok(k) => k,
                            Err(_) => break, // arrival thread is done
                        };
                        classify(&submit(k), &mut ok, &mut sh, &mut fa);
                    }
                    (ok, sh, fa)
                })
            })
            .collect();
        // Same absolute-clock Poisson schedule as `run_open_loop`.
        let mut rng = Prng::new(seed);
        let mut next_arrival_s = 0.0f64;
        for k in 0..requests {
            next_arrival_s += rng.exponential(lambda);
            let due = t0 + Duration::from_secs_f64(next_arrival_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if tx.send(k).is_err() {
                break; // every submitter panicked; reconciled below
            }
        }
        drop(tx);
        for j in joins {
            let (ok, sh, fa) = j.join().unwrap_or((0, 0, 0));
            completed += ok;
            shed += sh;
            failed += fa;
        }
    });
    // A panicked submitter takes its unaccounted arrivals with it: they
    // must show up as failures, not silently shrink the report.
    failed += requests - (completed + shed + failed).min(requests);
    report(requests, completed, shed, failed, t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use crate::server::{ServeConfig, Server};
    use fluid_models::{Arch, FluidModel};

    fn tiny_server(workers: usize, cfg: ServeConfig) -> Server {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(11));
        let backends = (0..workers)
            .map(|i| {
                Box::new(EngineBackend::new(
                    &format!("w{i}"),
                    model.net().clone(),
                    model.spec("combined100").expect("spec").clone(),
                )) as Box<dyn crate::Backend>
            })
            .collect();
        Server::start(cfg, backends).expect("start")
    }

    fn inputs(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|k| Tensor::from_fn(&[1, 1, 28, 28], |i| ((i + k) % 23) as f32 / 23.0))
            .collect()
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let server = tiny_server(2, ServeConfig::default());
        let handle = server.handle();
        let xs = inputs(3);
        let rep = run_closed_loop(|_| Ok(handle.clone()), 3, 10, &xs).expect("run");
        assert_eq!(rep.submitted, 10);
        assert_eq!(rep.completed, 10);
        assert_eq!(rep.shed + rep.failed, 0);
        assert!(rep.achieved_rps > 0.0);
        assert_eq!(server.metrics().completed, 10);
    }

    #[test]
    fn open_loop_accounts_for_every_arrival() {
        let server = tiny_server(1, ServeConfig::default());
        let xs = inputs(2);
        let rep = run_open_loop(&server.handle(), 500.0, 12, &xs, 7);
        assert_eq!(rep.submitted, 12);
        assert_eq!(rep.completed + rep.shed + rep.failed, 12);
        assert_eq!(rep.failed, 0);
    }

    #[test]
    fn tenant_open_loop_reports_per_tenant_and_meters_quota() {
        use crate::sched::{TenancyConfig, TenantClass, TenantPolicy};
        let mut web = TenantPolicy::new(1, "web", TenantClass::Interactive);
        web.rate = f64::INFINITY; // unmetered
        let mut scraper = TenantPolicy::new(2, "scraper", TenantClass::Batch);
        scraper.rate = 1.0; // ~1 req/s sustained...
        scraper.burst = 3.0; // ...after a 3-request burst allowance
        let cfg = ServeConfig {
            tenancy: Some(TenancyConfig::new(vec![web, scraper])),
            ..ServeConfig::default()
        };
        let server = tiny_server(1, cfg);
        let xs = inputs(2);
        let plans = [
            TenantLoad {
                tenant: 1,
                lambda: 400.0,
                requests: 10,
            },
            TenantLoad {
                tenant: 2,
                lambda: 400.0,
                requests: 10,
            },
        ];
        let reps = run_open_loop_tenants(&server.handle(), &plans, &xs, 21);
        assert_eq!(reps.len(), 2);
        // The unmetered tenant completes everything.
        assert_eq!(reps[0].completed, 10, "{:?}", reps[0]);
        // The metered tenant is clipped near its burst; nothing is lost.
        assert_eq!(reps[1].completed + reps[1].shed + reps[1].failed, 10);
        assert!(reps[1].shed >= 5, "quota did not bite: {:?}", reps[1]);
        let metrics = server.shutdown();
        let scraper_row = metrics
            .tenants
            .iter()
            .find(|t| t.name == "scraper")
            .expect("scraper row");
        assert_eq!(scraper_row.quota_rejected as usize, reps[1].shed);
    }

    #[test]
    fn indexed_open_loop_accounts_for_every_arrival() {
        let server = tiny_server(1, ServeConfig::default());
        let handle = server.handle();
        let xs = inputs(3);
        let seen = std::sync::Mutex::new(Vec::new());
        let rep = run_open_loop_indexed(
            |k| {
                seen.lock().expect("seen").push(k);
                handle.infer(xs[k % xs.len()].clone())
            },
            4,
            800.0,
            15,
            3,
        );
        assert_eq!(rep.submitted, 15);
        assert_eq!(rep.completed + rep.shed + rep.failed, 15);
        assert_eq!(rep.failed, 0);
        let mut ks = seen.into_inner().expect("seen");
        ks.sort_unstable();
        assert_eq!(ks, (0..15).collect::<Vec<_>>(), "every index dispatched");
    }

    #[test]
    fn indexed_open_loop_counts_a_panicked_submitter_as_failures() {
        // One submitter thread, and it panics on the first arrival: the
        // remaining arrivals must surface as failed, not vanish.
        let rep = run_open_loop_indexed(|_k| panic!("boom"), 1, 5_000.0, 4, 1);
        assert_eq!(rep.submitted, 4);
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.failed, 4, "{rep:?}");
    }

    /// An [`EngineBackend`] that also sleeps per batch — a stand-in for a
    /// device much slower than the arrival process.
    struct SlowBackend {
        inner: EngineBackend,
        delay: Duration,
    }

    impl crate::Backend for SlowBackend {
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

    #[test]
    fn open_loop_sheds_when_queue_is_tiny() {
        // A 25ms-per-batch worker behind a 1-slot admission bound, hit by
        // a much faster arrival process: most requests must be shed, and
        // every shed is an explicit Overloaded verdict, not a hang.
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(11));
        let slow = Box::new(SlowBackend {
            inner: EngineBackend::new(
                "slow",
                model.net().clone(),
                model.spec("combined100").expect("spec").clone(),
            ),
            delay: Duration::from_millis(25),
        });
        let cfg = ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, vec![slow]).expect("start");
        let xs = inputs(1);
        let rep = run_open_loop(&server.handle(), 2_000.0, 40, &xs, 9);
        assert!(rep.shed > 0, "{rep:?}");
        assert!(rep.completed >= 1, "{rep:?}");
        assert_eq!(rep.completed + rep.shed + rep.failed, 40);
        assert_eq!(server.metrics().shed as usize, rep.shed);
    }

    #[test]
    fn report_display_is_readable() {
        let rep = LoadgenReport {
            submitted: 10,
            completed: 8,
            shed: 2,
            failed: 0,
            elapsed_s: 0.5,
            achieved_rps: 16.0,
        };
        let text = rep.to_string();
        assert!(text.contains("8/10 ok"), "{text}");
        assert!(text.contains("2 shed"), "{text}");
    }
}
