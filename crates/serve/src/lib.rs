//! # fluid-serve
//!
//! The batched serving layer: what turns the `fluid-dist` runtime from
//! "one request at a time over one socket" into a throughput-oriented
//! serving instance with dynamic micro-batching, multi-worker dispatch,
//! explicit backpressure, and operator metrics.
//!
//! The request lifecycle (details in `docs/SERVING.md` and the "Serving
//! layer" section of `docs/ARCHITECTURE.md`):
//!
//! ```text
//! client → ServerHandle::submit ─▶ bounded queue ─▶ batcher ─▶ dispatcher ─▶ Backend
//!            │ sheds past            (queue_cap)     (max_batch,  (least-loaded, │
//!            ▼ queue_cap                              max_wait)    retry+reattach)
//!          Ticket ◀──────────────── per-request logits ◀── split batch ◀─────────┘
//! ```
//!
//! * **Micro-batching** ([`Server`], [`ServeConfig`]): queued requests are
//!   coalesced into one forward pass of up to `max_batch` rows; the first
//!   request waits at most `max_wait` for co-riders. Batched rows are
//!   bit-identical to serving each request alone.
//! * **Dispatch** ([`Backend`], [`EngineBackend`], [`QuantBackend`],
//!   [`MasterBackend`]):
//!   batches route to the least-loaded live worker (ties round-robin). A
//!   failing worker's batch is retried elsewhere; the slot stays dead until
//!   [`Server::reattach`] — the serving-layer face of the paper's
//!   failure-resilience story.
//! * **Backpressure** ([`ServeError::Overloaded`]): the queue is bounded at
//!   `queue_cap` requests; submissions past it are shed with an explicit
//!   error (and [`Message::Reject`] on the wire), never queued into
//!   unbounded latency.
//! * **Metrics** ([`ServeMetrics`]): p50/p95/p99 latency (via
//!   [`fluid_perf::SampleWindow`], the same percentile convention as the
//!   queueing simulator), throughput, batch-size histogram, shed count,
//!   per-worker liveness.
//! * **Elasticity** ([`ElasticHandle`], [`Autoscaler`]): the worker pool
//!   reconfigures at runtime — slots are added, drained, and retired under
//!   live traffic, an autoscaling controller follows queue depth / shed
//!   rate / recent p95, and [`ElasticHandle::hot_swap`] replaces the model
//!   behind the server batch-boundary-atomically with zero dropped
//!   requests (the "Elasticity" section of `docs/SERVING.md`).
//! * **Load generation** ([`loadgen`]): closed-loop and open-loop-Poisson
//!   drivers over the workspace's deterministic RNG, including the
//!   closure-driven open loop the cluster tier's drill runs.
//! * **Remote serving** ([`serve_tcp`], [`TcpClient`]): the existing wire
//!   protocol (`Infer`/`Logits`) plus [`Message::Reject`] for shed
//!   requests.
//!
//! [`Message::Reject`]: fluid_dist::Message::Reject
//!
//! ## Example: batch, measure, shed
//!
//! ```
//! use fluid_serve::{loadgen, EngineBackend, ServeConfig, Server};
//! use fluid_models::{Arch, FluidModel};
//! use fluid_tensor::{Prng, Tensor};
//! use std::time::Duration;
//!
//! let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
//! let spec = model.spec("combined100").unwrap().clone();
//! let backends: Vec<Box<dyn fluid_serve::Backend>> = (0..2)
//!     .map(|i| {
//!         Box::new(EngineBackend::new(
//!             &format!("w{i}"),
//!             model.net().clone(),
//!             spec.clone(),
//!         )) as Box<dyn fluid_serve::Backend>
//!     })
//!     .collect();
//! let mut cfg = ServeConfig::default();
//! cfg.max_batch = 8;
//! cfg.max_wait = Duration::from_millis(2);
//! cfg.queue_cap = 64;
//! let server = Server::start(cfg, backends).unwrap();
//!
//! // Closed loop: 4 concurrent clients → the scheduler has co-riders to
//! // coalesce.
//! let inputs = vec![Tensor::zeros(&[1, 1, 28, 28])];
//! let handle = server.handle();
//! let report = loadgen::run_closed_loop(|_| Ok(handle.clone()), 4, 24, &inputs).unwrap();
//! assert_eq!(report.completed, 24);
//!
//! let metrics = server.shutdown();
//! assert_eq!(metrics.completed, 24);
//! assert!(metrics.p99_ms >= metrics.p50_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod announce;
mod autoscale;
mod backend;
mod error;
pub mod loadgen;
mod metrics;
mod sched;
mod server;
mod sim;
mod tcp;

pub use announce::{AnnounceConfig, Announcer};
pub use autoscale::{AutoscaleConfig, Autoscaler, BackendFactory, ScaleAction, ScaleEvent};
pub use backend::{Backend, EngineBackend, MasterBackend, QuantBackend};
pub use error::ServeError;
pub use loadgen::{InferClient, LoadgenReport, TenantLoad};
pub use metrics::{ServeMetrics, TenantMetric, WorkerMetric};
pub use sched::{adaptive_wait, DrrState, TenancyConfig, TenantClass, TenantPolicy, TokenBucket};
pub use server::{ElasticHandle, ServeConfig, Server, ServerHandle, Ticket};
pub use sim::{
    simulate_elastic, simulate_tenants, ElasticSimReport, TenantDiscipline, TenantSimReport,
    TenantSimRow,
};
pub use tcp::{serve_tcp, TcpClient};
