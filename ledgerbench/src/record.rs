//! Samples, output checks and the printed result of one run.

use crate::hostspeed::{Scale, Timed, REFERENCE_S};
use crate::registry::{self, MetricDef};
use crate::stats::{p90, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples per metric, collected over one run.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// Add one sample of `name`.
    ///
    /// # Panics
    /// If `name` is not a registered metric (a benchmark bug).
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(registry::find(name).is_some(), "unregistered metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summaries of every metric the run must emit, in registry order.
    ///
    /// # Panics
    /// If a metric the run must emit was never sampled (a benchmark
    /// bug: the run would print an incomplete result).
    pub fn summarize(&self, traced: bool) -> Vec<(MetricDef, Summary)> {
        registry::emitted(traced)
            .iter()
            .map(|d| {
                let s = self.samples(d.name);
                assert!(!s.is_empty(), "metric {} was never measured", d.name);
                (*d, Summary::of(s))
            })
            .collect()
    }
}

/// The end-to-end samples of one untraced run, raw, each with the
/// probe interval it was measured in.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up times.
    pub setup: Vec<Timed>,
    /// Wall time of each epoch (a service epoch, or one pass over a
    /// batch workload's fixed input).
    pub epochs: Vec<Timed>,
    /// Per repetition: segments analyzed, and the epochs that analyzed
    /// them; the rate is the segments over the epochs' summed time.
    pub rates: Vec<(u64, Vec<Timed>)>,
    /// Time from a crash to the same output again.
    pub recovery: Vec<Timed>,
    /// Detection quality of the run's output.
    pub quality: crate::ledger::Quality,
}

impl EndToEnd {
    /// Record every end-to-end metric, with times at the reference
    /// host speed of `scale` and peak memory read now; the tail's
    /// percentile and the host speed go to `notes`.
    pub fn record(&self, rec: &mut Recorder, notes: &mut Vec<String>, scale: &Scale) {
        let norm =
            |v: &[Timed]| -> Vec<f64> { v.iter().map(|t| scale.secs(t.at, t.secs)).collect() };
        for v in norm(&self.setup) {
            rec.add("setup_s", v);
        }
        for (segments, epochs) in &self.rates {
            rec.add(
                "segments_per_s",
                *segments as f64 / norm(epochs).iter().sum::<f64>(),
            );
        }
        let epochs = norm(&self.epochs);
        for &v in &epochs {
            rec.add("epoch_s_p50", v);
        }
        let (value, beyond) = p90(&epochs);
        rec.add("epoch_s_tail", value);
        notes.push(format!(
            "epoch_s_tail is the p90 of {} epochs, {beyond} beyond it",
            epochs.len()
        ));
        for v in norm(&self.recovery) {
            rec.add("recovery_s", v);
        }
        rec.add("peak_rss_mb", crate::host::peak_rss_mb());
        rec.add("macro_recall", self.quality.recall);
        rec.add("alert_precision", self.quality.precision);
        let raw: Vec<f64> = self.epochs.iter().map(|t| t.secs).collect();
        notes.push(format!(
            "times are at the reference host speed ({:.3} s per reference kernel); \
             this run's kernel median was {:.6} s over {} probes; raw epoch median {:.6} s",
            REFERENCE_S,
            scale.median_probe_s(),
            scale.probes(),
            Summary::of(&raw).median
        ));
    }
}

/// Output checks: every operation the run performed, and the ones whose
/// output differed from the reference.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; `ok == false` fails it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) run?
    pub traced: bool,
    /// Output checks.
    pub checks: Checks,
    /// Every emitted metric with its samples' summary.
    pub metrics: Vec<(MetricDef, Summary)>,
    /// Facts about the input and the statistics (input size, tail
    /// percentile, ...), printed with the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Did every checked operation produce the reference output?
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The summary of metric `name`, if emitted.
    pub fn metric(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, s)| *s)
    }

    /// The human-readable table: one line per metric with its unit,
    /// median, quartiles and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>16} {:>16} {:>16} {:>6}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for (d, s) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>6}",
                d.name, d.unit, s.median, s.q1, s.q3, s.n
            );
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// each metric's median with its unit. Numbers print with every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checks.attempted,
            self.checks.failed
        );
        for (i, (d, s)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, s.median, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}
