//! # fluid-perf
//!
//! Calibrated device and communication latency models, and the scenario
//! evaluator that regenerates the paper's Fig. 2 throughput panel.
//!
//! ## Methodology (the paper's own)
//!
//! The paper measures computation latency on two Jetson Xavier NX CPUs and
//! communication latency offline, then composes system throughput as the
//! sum of the two. We reproduce exactly that composition:
//!
//! * [`DeviceModel`] — per-image latency = per-image overhead +
//!   MACs / effective MAC rate. MAC counts come from
//!   [`fluid_models::branch_cost`], so the numbers are driven by the actual
//!   sub-network structure.
//! * [`CommModel`] — per-transfer latency = per-message setup +
//!   bytes / bandwidth, with message counts and byte volumes derived from
//!   each model family's connectivity class (dense / triangular / block).
//! * [`SystemModel`] — composes the two into the paper's ten bars.
//!
//! The preset constants are calibrated so the *anchor* configurations land
//! on the paper's measurements (50% sub-network on the Master ⇒
//! ≈ 14.4 img/s; distributed Static ⇒ ≈ 11.1 img/s); every other scenario
//! is then **derived**, not fitted — reproducing the paper's headline
//! ratios (HT ≈ 2.5× Static, ≈ 2× Dynamic) is a consequence of the
//! structure, which is the point of the reproduction.
//!
//! ## Discrete-event simulators
//!
//! * [`simulate`] — the paper's two-device runtime switching between HA
//!   and HT modes under Poisson load.
//! * [`simulate_cluster`] — keyed traffic through routers onto
//!   replicated serve nodes, with node and router outages.
//!
//! The serving-policy simulators (`simulate_tenants`, `simulate_elastic`)
//! live in `fluid-serve`, beside the DRR scheduler, token bucket and
//! autoscaler rule they run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod device;
mod energy;
mod queueing;
mod scenario;

pub use comm::CommModel;
pub use device::DeviceModel;
pub use energy::{scenario_energy, standalone_energy, EnergyReport, PowerModel};
pub use queueing::{
    percentile, simulate, simulate_cluster, ClusterScenario, ClusterSimReport, NodeOutage, Policy,
    RouterOutage, SampleWindow, SimReport,
};
pub use scenario::{DeviceAvailability, Fig2Row, ModelFamily, ScenarioResult, SystemModel};
