//! Multi-tenant scheduling policy: tenant/class configuration, token-bucket
//! admission quotas, weighted deficit-round-robin (DRR) batch assembly, and
//! SLO-driven adaptive batching windows.
//!
//! This module is the *policy core* — pure data structures with no threads
//! and no clocks of their own (callers pass the time in), so every rule the
//! live scheduler enforces is unit-testable in isolation, and the offline
//! simulator [`simulate_tenants`](crate::simulate_tenants) runs the very
//! same ring order, token bucket and DRR assembly. The live wiring lives in
//! `server.rs`; the adversarial proof lives in `tests/tests/fairness.rs`
//! and the DRR proptests in `crates/serve/tests/drr_props.rs`.

use std::collections::VecDeque;
use std::time::Duration;

/// A tenant's scheduling class.
///
/// Interactive tenants sit first in the DRR ring (their queued requests
/// board a forming batch before batch-class rows) and their rolling p95
/// drives the adaptive batching window against
/// [`TenancyConfig::interactive_slo_ms`]. Batch tenants get throughput, not
/// latency: they are never starved (DRR guarantees every backlogged queue
/// its weight's worth of rows per round) but they wait behind interactive
/// rows inside each batch-formation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Latency-sensitive traffic with an SLO on its rolling p95.
    Interactive,
    /// Throughput traffic: weighted fair share, no latency objective.
    Batch,
}

impl std::fmt::Display for TenantClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantClass::Interactive => write!(f, "interactive"),
            TenantClass::Batch => write!(f, "batch"),
        }
    }
}

/// One tenant's scheduling policy: identity, class, DRR weight and
/// token-bucket admission quota.
///
/// The struct is `#[non_exhaustive]`: build it with [`TenantPolicy::new`]
/// and mutate the knobs, so a future knob cannot break construction sites.
///
/// # Example
///
/// ```
/// use fluid_serve::{TenantClass, TenantPolicy};
/// let mut t = TenantPolicy::new(7, "analytics", TenantClass::Batch);
/// t.weight = 2; // two rows per DRR round for every one of a weight-1 peer
/// t.rate = 50.0; // at most 50 admitted requests/s sustained...
/// t.burst = 10.0; // ...with bursts of up to 10 above the sustained rate
/// assert_eq!(t.id, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TenantPolicy {
    /// Wire-visible tenant id (`Message::InferTenant { tenant, .. }`).
    pub id: u64,
    /// Operator-facing name, shown in per-tenant metrics.
    pub name: String,
    /// Scheduling class; see [`TenantClass`].
    pub class: TenantClass,
    /// DRR weight: rows of service credit per scheduling round. Higher
    /// weight ⇒ proportionally more rows of every contended batch. Must be
    /// at least 1.
    pub weight: u32,
    /// Token-bucket refill rate in admitted requests per second.
    /// [`f64::INFINITY`] (the default) disables metering for this tenant.
    pub rate: f64,
    /// Token-bucket capacity: the largest burst admitted at once. Ignored
    /// while `rate` is infinite.
    pub burst: f64,
}

impl TenantPolicy {
    /// A policy with weight 1 and no admission quota.
    pub fn new(id: u64, name: impl Into<String>, class: TenantClass) -> TenantPolicy {
        TenantPolicy {
            id,
            name: name.into(),
            class,
            weight: 1,
            rate: f64::INFINITY,
            burst: f64::INFINITY,
        }
    }
}

/// Multi-tenant scheduling configuration, attached to a server via
/// `ServeConfig::tenancy`.
///
/// `None` tenancy (the default) keeps the classic single-FIFO behaviour:
/// one anonymous queue, no quotas, a fixed batching window. With tenancy
/// configured, every request is admitted under a tenant's quota, queued
/// per-tenant and batched by weighted deficit round robin.
///
/// The struct is `#[non_exhaustive]`: build it with [`TenancyConfig::new`].
///
/// # Example
///
/// ```
/// use fluid_serve::{TenancyConfig, TenantClass, TenantPolicy};
/// let mut cfg = TenancyConfig::new(vec![
///     TenantPolicy::new(1, "chat", TenantClass::Interactive),
///     TenantPolicy::new(2, "analytics", TenantClass::Batch),
/// ]);
/// cfg.interactive_slo_ms = 25.0;
/// assert_eq!(cfg.default_tenant, 1);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TenancyConfig {
    /// The tenant table. Requests for ids outside it are refused with
    /// `ServeError::UnknownTenant` — a protocol error, not a silent drop.
    pub tenants: Vec<TenantPolicy>,
    /// The tenant that untagged requests (`ServerHandle::submit`, wire
    /// `Infer`/`InferKeyed`) are billed to. Defaults to the first tenant.
    pub default_tenant: u64,
    /// Target rolling p95 for the interactive class, in milliseconds. The
    /// scheduler shrinks its batching window as the observed p95 nears
    /// this; see [`adaptive_wait`].
    pub interactive_slo_ms: f64,
}

impl TenancyConfig {
    /// A tenancy over `tenants` with the first tenant as the default and a
    /// 50 ms interactive SLO.
    pub fn new(tenants: Vec<TenantPolicy>) -> TenancyConfig {
        let default_tenant = tenants.first().map_or(0, |t| t.id);
        TenancyConfig {
            tenants,
            default_tenant,
            interactive_slo_ms: 50.0,
        }
    }

    /// Checks the configuration invariants `Server::start` enforces.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant: no tenants, duplicate ids, a zero weight, a non-positive
    /// or NaN rate/burst, an absent default tenant, or a non-positive SLO.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("tenancy configured with no tenants".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|u| u.id == t.id) {
                return Err(format!("duplicate tenant id {}", t.id));
            }
            if t.weight == 0 {
                return Err(format!("tenant {} has zero weight", t.name));
            }
            if t.rate.is_nan() || t.rate <= 0.0 {
                return Err(format!("tenant {} has non-positive rate", t.name));
            }
            if t.burst.is_nan() || t.burst < 1.0 {
                return Err(format!(
                    "tenant {} burst must admit at least one request",
                    t.name
                ));
            }
        }
        if !self.tenants.iter().any(|t| t.id == self.default_tenant) {
            return Err(format!(
                "default tenant {} is not in the tenant table",
                self.default_tenant
            ));
        }
        if !self.interactive_slo_ms.is_finite() || self.interactive_slo_ms <= 0.0 {
            return Err("interactive_slo_ms must be positive and finite".into());
        }
        Ok(())
    }
}

/// A token bucket metering one tenant's admissions: refills continuously at
/// `rate` tokens/s up to `burst`, spends one token per admitted request.
///
/// Time is passed in by the caller as seconds since an epoch of its
/// choosing (the live server's tenant table counts from its creation,
/// [`simulate_tenants`](crate::simulate_tenants) from the start of the
/// simulated run), so the bucket is deterministic under test and the
/// offline simulator replays exactly the live admission rule.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A bucket that starts full at time `now_s`.
    pub fn new(rate: f64, burst: f64, now_s: f64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            rate,
            burst,
            last_s: now_s,
        }
    }

    /// Refills for the time elapsed up to `now_s` (none if the clock went
    /// backwards), then tries to spend one token. Returns whether the
    /// request is admitted. An infinite rate always admits.
    pub fn try_take(&mut self, now_s: f64) -> bool {
        if self.rate.is_infinite() {
            return true;
        }
        let dt = (now_s - self.last_s).max(0.0);
        self.last_s = now_s;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Weighted deficit-round-robin state: one deficit counter per tenant plus
/// the ring cursor, both persistent across [`DrrState::assemble`] calls.
///
/// The guarantees (proved by `crates/serve/tests/drr_props.rs`):
///
/// * **No starvation** — a backlogged queue's deficit grows by its weight
///   every round it is passed over, and a queue whose head was blocked by
///   batch capacity becomes the ring's starting position for the next
///   batch, so every non-empty queue is served within a bounded number of
///   batches.
/// * **Weight proportionality** — under saturation, tenants receive rows
///   in proportion to their weights (each round hands every backlogged
///   tenant exactly its weight in new credit).
/// * **Conservation** — items leave queues only into the assembled batch;
///   nothing is dropped or duplicated.
#[derive(Debug, Clone)]
pub struct DrrState {
    deficits: Vec<u64>,
    cursor: usize,
    /// Set when the previous batch filled while the cursor queue still had
    /// credit: that queue resumes its interrupted visit with its leftover
    /// deficit but takes no fresh per-round credit. Re-crediting on resume
    /// would let any tenant with `weight ≥ max_batch` grow its deficit
    /// faster than batches drain it and pin the cursor forever.
    resuming: bool,
}

impl DrrState {
    /// State for `n` tenant queues, all deficits zero.
    pub fn new(n: usize) -> DrrState {
        DrrState {
            deficits: vec![0; n],
            cursor: 0,
            resuming: false,
        }
    }

    /// Assembles one batch of at most `max_batch` rows from `queues`.
    ///
    /// `order` is the ring (interactive tenants first — within a round
    /// their rows board before batch-class rows); `weights[i]` is queue
    /// `i`'s per-round credit in rows; `rows(item)` is an item's row count.
    /// Popped items are appended to `out` as `(queue_index, item)` in
    /// boarding order. Returns the total rows assembled.
    ///
    /// An item larger than `max_batch` is only ever boarded onto an empty
    /// batch (it becomes a batch of its own — the pre-existing oversized-
    /// request contract); otherwise an item that would overflow the batch
    /// ends the assembly and its queue becomes the next ring start.
    pub fn assemble<T>(
        &mut self,
        queues: &mut [VecDeque<T>],
        order: &[usize],
        weights: &[u32],
        max_batch: usize,
        rows: impl Fn(&T) -> usize,
        out: &mut Vec<(usize, T)>,
    ) -> usize {
        assert_eq!(self.deficits.len(), queues.len());
        let n = order.len();
        let mut total = 0usize;
        if n == 0 {
            return total;
        }
        // A batch that filled mid-visit left the cursor queue with leftover
        // credit; it finishes that visit now without a fresh quantum.
        let mut skip_credit = std::mem::take(&mut self.resuming);
        loop {
            let mut progress = false;
            for k in 0..n {
                let slot = order[(self.cursor + k) % n];
                let fresh = !std::mem::take(&mut skip_credit);
                if queues[slot].is_empty() {
                    // Standard DRR: an emptied queue banks no credit.
                    self.deficits[slot] = 0;
                    continue;
                }
                if fresh {
                    self.deficits[slot] =
                        self.deficits[slot].saturating_add(u64::from(weights[slot]));
                }
                while let Some(head) = queues[slot].front() {
                    let r = rows(head);
                    if total > 0 && total + r > max_batch {
                        // Capacity-blocked: this queue opens the next batch,
                        // with its accumulated deficit intact (but no fresh
                        // credit — see `resuming`).
                        self.cursor = (self.cursor + k) % n;
                        self.resuming = true;
                        return total;
                    }
                    if (r as u64) > self.deficits[slot] && total > 0 {
                        break; // out of credit this round
                    }
                    if (r as u64) > self.deficits[slot] && total == 0 && r <= max_batch {
                        // An empty batch waits for credit like anyone else —
                        // unless nothing else can move (handled below by the
                        // round loop re-crediting until the head affords).
                        break;
                    }
                    let item = queues[slot].pop_front().expect("front was Some");
                    self.deficits[slot] = self.deficits[slot].saturating_sub(r as u64);
                    total += r;
                    out.push((slot, item));
                    progress = true;
                    if total >= max_batch {
                        self.cursor = (self.cursor + k) % n;
                        self.resuming = true;
                        return total;
                    }
                }
                if queues[slot].is_empty() {
                    self.deficits[slot] = 0;
                }
            }
            if !progress && (total > 0 || queues.iter().all(VecDeque::is_empty)) {
                return total;
            }
            // !progress with total == 0 and non-empty queues: no head could
            // afford its rows yet. Deficits grew this round and keep
            // growing, so within ceil(head_rows/weight) rounds something
            // boards.
        }
    }
}

/// The DRR ring a scheduler assembles over: the queue visiting order and
/// each queue's per-round credit in rows.
///
/// With a tenancy table there is one queue per tenant, each credited its
/// weight, and interactive tenants come first in the ring (their rows
/// board a forming batch before batch-class rows; ties keep table order).
/// Without one there is a single anonymous queue whose credit fills a
/// whole batch every round, so [`DrrState::assemble`] degenerates to the
/// classic FIFO coalescing.
pub(crate) fn drr_ring(
    tenancy: Option<&TenancyConfig>,
    max_batch: usize,
) -> (Vec<usize>, Vec<u32>) {
    match tenancy {
        Some(t) => {
            let mut order: Vec<usize> = (0..t.tenants.len()).collect();
            order.sort_by_key(|&i| t.tenants[i].class != TenantClass::Interactive);
            (order, t.tenants.iter().map(|p| p.weight).collect())
        }
        None => (
            vec![0],
            vec![u32::try_from(max_batch).unwrap_or(u32::MAX).max(1)],
        ),
    }
}

/// The SLO-driven batching window: how long the scheduler waits for
/// co-riders, given the interactive class's rolling p95 against its SLO.
///
/// * p95 ≥ 80 % of SLO — emergency: `base / 8`. Dispatch nearly
///   immediately; latency headroom is gone.
/// * p95 ≥ 50 % of SLO — pressure: `base / 2`.
/// * p95 < 20 % of SLO — idle: `base × 2` (capped at the SLO's
///   remaining headroom), growing batches for throughput when latency is
///   far from mattering.
/// * otherwise — the configured `base`.
///
/// With no SLO (non-finite or non-positive `slo_ms`) the window is always
/// `base`.
pub fn adaptive_wait(base: Duration, p95_ms: f64, slo_ms: f64) -> Duration {
    if !slo_ms.is_finite() || slo_ms <= 0.0 {
        return base;
    }
    let ratio = p95_ms / slo_ms;
    if ratio >= 0.8 {
        base / 8
    } else if ratio >= 0.5 {
        base / 2
    } else if ratio < 0.2 {
        let grown = base.saturating_mul(2);
        grown.min(Duration::from_secs_f64(slo_ms / 1e3 / 2.0))
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(
        state: &mut DrrState,
        queues: &mut [VecDeque<usize>],
        order: &[usize],
        weights: &[u32],
        max_batch: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        let mut batches = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            let mut out = Vec::new();
            let rows = state.assemble(queues, order, weights, max_batch, |&r| r, &mut out);
            assert!(rows > 0, "assemble made no progress on a backlog");
            assert_eq!(rows, out.iter().map(|(_, r)| r).sum::<usize>());
            batches.push(out);
        }
        batches
    }

    #[test]
    fn single_queue_degenerates_to_fifo() {
        let mut q = VecDeque::from(vec![1usize; 10]);
        let mut state = DrrState::new(1);
        let batches = drain_all(&mut state, std::slice::from_mut(&mut q), &[0], &[1], 4);
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn weights_split_a_contended_batch_proportionally() {
        // Two saturated tenants, weights 3:1, batch 8 → 6:2 rows per batch.
        let mut queues = [
            VecDeque::from(vec![1usize; 60]),
            VecDeque::from(vec![1usize; 60]),
        ];
        let mut state = DrrState::new(2);
        let mut heavy = 0usize;
        let mut light = 0usize;
        for _ in 0..10 {
            let mut out = Vec::new();
            state.assemble(&mut queues, &[0, 1], &[3, 1], 8, |&r| r, &mut out);
            heavy += out.iter().filter(|(s, _)| *s == 0).count();
            light += out.iter().filter(|(s, _)| *s == 1).count();
        }
        assert_eq!(heavy, 60);
        assert_eq!(light, 20);
    }

    #[test]
    fn interactive_first_boarding_order() {
        // Ring order [interactive, batch]: the interactive row is first in
        // the assembled batch even though the batch tenant enqueued first.
        let mut queues = [VecDeque::from(vec![1usize]), VecDeque::from(vec![1usize])];
        let mut state = DrrState::new(2);
        let mut out = Vec::new();
        state.assemble(&mut queues, &[0, 1], &[1, 1], 8, |&r| r, &mut out);
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn oversized_head_gets_its_own_batch() {
        let mut queues = [
            VecDeque::from(vec![9usize, 1]),
            VecDeque::from(vec![1usize]),
        ];
        let mut state = DrrState::new(2);
        let mut out = Vec::new();
        let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
        // The 9-row request boards an empty batch alone (deficit accrues
        // over rounds until it affords the fare).
        assert_eq!(rows, 9);
        assert_eq!(out.len(), 1);
        let mut out = Vec::new();
        let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
        assert_eq!(rows, 2, "both 1-row items share the next batch");
    }

    #[test]
    fn capacity_blocked_queue_opens_the_next_batch() {
        // Tenant 0 floods 1-row items; tenant 1's head needs 3 rows. With
        // batch 4 and equal weights, tenant 1 must not be starved by the
        // flood: once capacity blocks it, it boards first next batch.
        let mut queues = [
            VecDeque::from(vec![1usize; 40]),
            VecDeque::from(vec![3usize; 4]),
        ];
        let mut state = DrrState::new(2);
        let mut t1_first_batch = None;
        for batch_no in 0..20 {
            let mut out = Vec::new();
            let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
            if rows == 0 {
                break;
            }
            if t1_first_batch.is_none() && out.iter().any(|(s, _)| *s == 1) {
                t1_first_batch = Some(batch_no);
            }
        }
        let first = t1_first_batch.expect("tenant 1 starved entirely");
        assert!(first <= 3, "tenant 1 first served in batch {first}");
    }

    #[test]
    fn outsized_weight_cannot_pin_the_cursor() {
        // weight 8 ≥ batch 4: if the capacity-blocked queue were handed a
        // fresh quantum on every resume, its deficit would grow faster
        // than batches drain it, the cursor would never advance, and the
        // rival queue would starve under a continuous flood.
        let mut queues = [
            VecDeque::from(vec![1usize; 40]),
            VecDeque::from(vec![1usize; 8]),
        ];
        let mut state = DrrState::new(2);
        let mut calls = 0;
        while !queues[1].is_empty() {
            let mut out = Vec::new();
            state.assemble(&mut queues, &[0, 1], &[8, 1], 4, |&r| r, &mut out);
            calls += 1;
            assert!(calls < 100, "rival queue starved behind an 8-weight flood");
            while queues[0].len() < 40 {
                queues[0].push_back(1); // the flood never drains
            }
        }
    }

    #[test]
    fn conservation_across_random_weights() {
        let mut queues = [
            VecDeque::from(vec![2usize, 1, 3]),
            VecDeque::from(vec![1usize, 1]),
            VecDeque::from(vec![4usize]),
        ];
        let pushed: usize = queues.iter().flatten().count();
        let mut state = DrrState::new(3);
        let batches = drain_all(&mut state, &mut queues, &[2, 0, 1], &[1, 5, 2], 4);
        let dispatched: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(dispatched, pushed);
    }

    #[test]
    fn ring_puts_interactive_first_and_fifo_credit_fills_a_batch() {
        let mut bulk = TenantPolicy::new(1, "bulk", TenantClass::Batch);
        bulk.weight = 3;
        let chat = TenantPolicy::new(2, "chat", TenantClass::Interactive);
        let more = TenantPolicy::new(3, "more", TenantClass::Batch);
        let cfg = TenancyConfig::new(vec![bulk, chat, more]);
        assert_eq!(drr_ring(Some(&cfg), 8), (vec![1, 0, 2], vec![3, 1, 1]));
        assert_eq!(drr_ring(None, 8), (vec![0], vec![8]));
        assert_eq!(drr_ring(None, usize::MAX), (vec![0], vec![u32::MAX]));
    }

    #[test]
    fn token_bucket_meters_and_refills() {
        let mut b = TokenBucket::new(10.0, 2.0, 0.0);
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0), "burst of 2 exhausted");
        // 100 ms at 10 tokens/s refills one token.
        assert!(b.try_take(0.1));
        assert!(!b.try_take(0.1));
        // A clock that steps backwards refills nothing.
        assert!(!b.try_take(0.05));
    }

    #[test]
    fn infinite_rate_never_meters() {
        let mut b = TokenBucket::new(f64::INFINITY, f64::INFINITY, 0.0);
        for _ in 0..1000 {
            assert!(b.try_take(0.0));
        }
    }

    #[test]
    fn adaptive_wait_tiers() {
        let base = Duration::from_millis(8);
        // Emergency: p95 at 90 % of a 100 ms SLO.
        assert_eq!(adaptive_wait(base, 90.0, 100.0), base / 8);
        // Pressure at 60 %.
        assert_eq!(adaptive_wait(base, 60.0, 100.0), base / 2);
        // Comfortable at 30 %.
        assert_eq!(adaptive_wait(base, 30.0, 100.0), base);
        // Idle at 5 %: grown, but never past half the SLO.
        assert_eq!(adaptive_wait(base, 5.0, 100.0), base * 2);
        assert_eq!(
            adaptive_wait(Duration::from_millis(40), 5.0, 100.0),
            Duration::from_millis(50)
        );
        // No SLO: always the base.
        assert_eq!(adaptive_wait(base, 90.0, f64::INFINITY), base);
    }

    #[test]
    fn tenancy_validation_rejects_bad_tables() {
        let ok = TenancyConfig::new(vec![
            TenantPolicy::new(1, "a", TenantClass::Interactive),
            TenantPolicy::new(2, "b", TenantClass::Batch),
        ]);
        assert!(ok.validate().is_ok());

        let mut dup = ok.clone();
        dup.tenants[1].id = 1;
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut zero_w = ok.clone();
        zero_w.tenants[0].weight = 0;
        assert!(zero_w.validate().unwrap_err().contains("weight"));

        let mut bad_default = ok.clone();
        bad_default.default_tenant = 99;
        assert!(bad_default.validate().unwrap_err().contains("default"));

        let mut tiny_burst = ok.clone();
        tiny_burst.tenants[0].rate = 5.0;
        tiny_burst.tenants[0].burst = 0.5;
        assert!(tiny_burst.validate().unwrap_err().contains("burst"));

        let mut bad_slo = ok;
        bad_slo.interactive_slo_ms = 0.0;
        assert!(bad_slo.validate().unwrap_err().contains("slo"));

        assert!(TenancyConfig::new(vec![]).validate().is_err());
    }
}
