//! Layer-ledger benchmark of the jupyter-audit pipeline.
//!
//! Three closed-loop workloads, each on the inline engine (one scenario
//! producer, one monitor shard, so one thread). A run makes its inputs
//! from the seed, repeats a fixed unit of work for the given number of
//! seconds, checks every output against a reference, and reports
//! medians over the repetitions. An untraced run reports the end-to-end
//! metrics, with times scaled to a reference host speed (see
//! [`hostspeed`]); a traced run times each layer's public calls and
//! reports the per-layer ledger. See `README.md` for the workloads and
//! metrics.

mod capture_replay;
mod fleet_mix;
pub mod host;
pub mod hostspeed;
mod ledger;
pub mod record;
pub mod registry;
mod soc_service;
pub mod stats;

use std::time::{Duration, Instant};

/// Input size of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// A few-second version for the benchmark's own tests.
    Tiny,
}

impl Size {
    /// `full` at full size, `tiny` at tiny size.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fleet_mix", "capture_replay", "soc_service"];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub traced: bool,
    /// Input size.
    pub size: Size,
}

impl Options {
    /// When the measured loop must stop repeating. At full size a run
    /// makes at least two repetitions; a `soc_service` lifetime takes
    /// about half of a 30-second run, so a higher floor would stretch
    /// its runs past their measured time.
    pub(crate) fn deadline(&self) -> Loop {
        Loop {
            until: Instant::now() + Duration::from_secs_f64(self.seconds),
            min: self.size.pick(2, 1),
        }
    }
}

/// The measured loop's stop rule: repeat until the time is up, but at
/// least `min` times.
pub(crate) struct Loop {
    until: Instant,
    min: usize,
}

impl Loop {
    /// Run another repetition after `done` of them?
    pub(crate) fn more(&self, done: usize) -> bool {
        done < self.min || Instant::now() < self.until
    }
}

/// Run one workload.
///
/// # Errors
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<record::Outcome, String> {
    match opts.workload.as_str() {
        "fleet_mix" => Ok(fleet_mix::run(opts)),
        "capture_replay" => Ok(capture_replay::run(opts)),
        "soc_service" => Ok(soc_service::run(opts)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}
