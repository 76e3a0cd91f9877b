//! What a run reports: per-phase request accounting, named metrics with
//! units, the summary statistics behind them, and the one-line JSON result.

use std::fmt::Write as _;

/// Request accounting for one phase of a workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the load generator tried to issue.
    pub sent: u64,
    /// Requests answered with logits bit-identical to the oracle's.
    pub ok: u64,
    /// Requests refused explicitly by backpressure (expected under overload).
    pub shed: u64,
    /// Requests with no answer or a wrong one.
    pub failed: u64,
}

impl Tally {
    /// Records one answer: `Some(true)` matched the oracle, `Some(false)`
    /// did not, `None` never arrived.
    pub fn answer(&mut self, matched: Option<bool>) {
        self.sent += 1;
        match matched {
            Some(true) => self.ok += 1,
            _ => self.failed += 1,
        }
    }

    /// Records one request refused explicitly by backpressure.
    pub fn shed(&mut self) {
        self.sent += 1;
        self.shed += 1;
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.failed += other.failed;
    }
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, as a user of the system sees them.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// Request accounting per phase, in execution order.
    pub phases: Vec<(String, Tally)>,
    /// Human-readable lines: sample counts, derived checks.
    pub notes: Vec<String>,
    /// Consistency checks that failed (a non-empty list fails the run).
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn phase(&mut self, name: &str, tally: Tally) {
        self.phases.push((name.to_string(), tally));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The sum of every phase's accounting.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for (_, p) in &self.phases {
            t.merge(p);
        }
        t
    }

    /// Looks up an end-to-end metric by name.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Looks up a per-layer metric by name; `NaN` when absent.
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

/// The metrics named in `names`, in that order; an error names the first
/// one `metrics` lacks.
pub fn select(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&name| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .ok_or_else(|| format!("the workload did not produce metric {name}"))
        })
        .collect()
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the window of `[from, to)` split into `windows` equal parts
/// that `t` falls in, if any.
fn window_of(t: f64, from: f64, to: f64, windows: usize) -> Option<usize> {
    (t >= from && t < to)
        .then(|| (((t - from) / (to - from) * windows as f64) as usize).min(windows - 1))
}

/// Event rates (per second) in consecutive `width`-second windows of
/// `[from, to)`, given event times in seconds; a trailing partial window
/// is dropped. The median of these is the run's throughput, so a host
/// stall moves the few windows it falls in, not the figure.
pub fn window_rates(times_s: &[f64], from: f64, to: f64, width: f64) -> Vec<f64> {
    let windows = ((to - from) / width).floor() as usize;
    let mut counts = vec![0u64; windows];
    for &t in times_s {
        if t >= from {
            if let Some(c) = counts.get_mut(((t - from) / width) as usize) {
                *c += 1;
            }
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// The `q`-quantile of `(time_s, value)` samples within each of
/// `windows` equal windows of `[from, to)`; the median over windows.
pub fn median_window_percentile(
    samples: &[(f64, f64)],
    from: f64,
    to: f64,
    windows: usize,
    q: f64,
) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if let Some(k) = window_of(t, from, to, windows) {
            per[k].push(v);
        }
    }
    let qs: Vec<f64> = per
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect();
    median(&qs)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Appends `"name": {"value": v, "unit": u}` pairs as a JSON object body.
fn metrics_json(out: &mut String, metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    metrics_json(&mut out, metrics);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn window_statistics_take_the_median_window() {
        // 100 events/s for 4 s, except a stalled second with 10 events.
        let mut times = Vec::new();
        let mut samples = Vec::new();
        for sec in 0..4 {
            let n = if sec == 2 { 10 } else { 100 };
            for k in 0..n {
                let t = sec as f64 + k as f64 / n as f64;
                times.push(t);
                samples.push((t, if sec == 2 { 50.0 } else { 1.0 }));
            }
        }
        assert_eq!(
            window_rates(&times, 0.0, 4.0, 1.0),
            vec![100.0, 100.0, 10.0, 100.0]
        );
        assert_eq!(median(&window_rates(&times, 0.0, 4.0, 1.0)), 100.0);
        assert_eq!(median_window_percentile(&samples, 0.0, 4.0, 4, 0.99), 1.0);
        // Events outside the range and a partial last window are ignored.
        assert_eq!(window_rates(&times, 1.0, 3.5, 1.0), vec![100.0, 10.0]);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric {
            name: "p50_ms".into(),
            value: 1.25,
            unit: "ms",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
