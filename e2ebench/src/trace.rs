//! In-memory spans, recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside the program is instrumented).
//! Spans are kept in memory and summarised when the run ends.

use crate::inputs::InputPool;
use crate::report::median;
use fluid_models::{ConvNet, SubnetSpec};
use std::collections::BTreeSet;
use std::time::Instant;

/// One timed call: its name, the request it belongs to (spans of one
/// request share `request`), start and end.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

/// A per-thread trace buffer; threads merge theirs at the end.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Times `f` as span `name` of `request`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, request, start, Instant::now());
        r
    }

    /// Records a span timed by the caller.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            request,
            start,
            end,
        });
    }

    /// Moves another thread's spans into this buffer.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Median duration (ms) of the spans called `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        median(&ms)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Distinct requests the recorded spans belong to.
    pub fn requests(&self) -> usize {
        let ids: BTreeSet<(&str, u64)> = self.spans.iter().map(|s| (s.name, s.request)).collect();
        ids.len()
    }

    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Median wall time (ms) of `reps` calls to `f`, after one untimed warm-up
/// call — how a layer is replayed on the workload's own inputs.
pub fn replay_ms(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Median time (ms) of `reps` replayed `forward_subnet` calls on batches
/// of `rows` pool images.
pub fn subnet_forward_ms(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    pool: &InputPool,
    rows: usize,
    reps: usize,
) -> f64 {
    let xs = pool.batches(rows, 8);
    replay_ms(reps, |i| {
        let y = net.forward_subnet(&xs[i % xs.len()], spec, false);
        net.recycle(y);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_merge_across_threads_and_summarise() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new();
        tr.record("call", 1, at(0), at(2));
        tr.record("call", 2, at(2), at(6));
        let mut other = Tracer::new();
        other.record("call", 3, at(0), at(8));
        other.record("other", 3, at(0), at(1));
        tr.merge(other);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.span_count("call"), 3);
        assert_eq!(tr.requests(), 4);
        assert!((tr.median_ms("call") - 4.0).abs() < 1e-9);
        assert!(tr.span("other", 9, || 7) == 7 && tr.span_count("other") == 2);
    }
}
