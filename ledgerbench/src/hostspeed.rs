//! Host-speed normalization of the end-to-end times.
//!
//! The benchmark runs on a few cores of a shared host. For this
//! program's kind of work (allocation, string formatting, branchy tree
//! and map code) such a host changes speed by up to 2x, for seconds to
//! minutes at a time, as other tenants load it; plain arithmetic does
//! not slow. A run that fell in a slow spell would read as a
//! regression of the program. So a fixed reference kernel of the same
//! kind of work is timed between repetitions, at most every
//! [`PROBE_EVERY`], and each end-to-end time is divided by the host's
//! slowness around it: the mean of the two probes that bracket the
//! sample, over [`REFERENCE_S`].
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! program, so a slower program still reads slower; a slower host does
//! not. Its footprint is about 0.5 MB, which leaves peak memory to the
//! program. The unit stays seconds: seconds on a host that runs the
//! kernel in [`REFERENCE_S`]. Per-layer times are raw.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal time of one reference kernel: the host speed that
/// normalized times are expressed at.
pub const REFERENCE_S: f64 = 0.04;

/// Least time between two probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(250);

/// One reference kernel, timed: rounds of building and dropping a tree
/// of formatted string keys with small vectors as values.
pub fn reference_kernel() -> f64 {
    let t = Instant::now();
    for round in 0..24u64 {
        let mut tree = BTreeMap::new();
        for k in 0..4_000u64 {
            let key = (k + round * 4_000).wrapping_mul(2_654_435_761) % 1_000_003;
            tree.insert(format!("k{key}"), vec![k; 4]);
        }
        black_box(tree.len());
    }
    t.elapsed().as_secs_f64()
}

/// The probes of one run.
#[derive(Debug)]
pub struct HostSpeed {
    probes: Vec<f64>,
    last: Instant,
}

/// Which probe interval a sample was taken in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mark(usize);

impl HostSpeed {
    /// Take the first probe.
    pub fn start() -> HostSpeed {
        let mut h = HostSpeed {
            probes: Vec::new(),
            last: Instant::now(),
        };
        h.probe();
        h
    }

    fn probe(&mut self) {
        self.probes.push(reference_kernel());
        self.last = Instant::now();
    }

    /// Call right before a timed sample: probes if one is due, and
    /// names the interval the sample falls in.
    pub fn mark(&mut self) -> Mark {
        if self.last.elapsed() >= PROBE_EVERY {
            self.probe();
        }
        Mark(self.probes.len() - 1)
    }

    /// Take the closing probe and turn the probes into scale factors.
    pub fn finish(mut self) -> Scale {
        self.probe();
        let factors = self
            .probes
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0 / REFERENCE_S)
            .collect();
        Scale {
            factors,
            probes: self.probes,
        }
    }
}

/// How slow the host was in each probe interval of a run.
#[derive(Debug)]
pub struct Scale {
    factors: Vec<f64>,
    probes: Vec<f64>,
}

impl Scale {
    /// `raw` seconds measured in interval `at`, at the reference speed.
    pub fn secs(&self, at: Mark, raw: f64) -> f64 {
        raw / self.factors[at.0]
    }

    /// How many probes the run took.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Median time of the reference kernel over the run.
    pub fn median_probe_s(&self) -> f64 {
        crate::stats::Summary::of(&self.probes).median
    }
}

/// A raw time and the interval it was measured in.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall seconds as measured.
    pub secs: f64,
    /// Probe interval of the measurement.
    pub at: Mark,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_scaled_by_the_mean_of_its_bracketing_probes() {
        let s = Scale {
            factors: vec![1.0, 2.0],
            probes: vec![0.04, 0.04, 0.12],
        };
        assert_eq!(s.secs(Mark(0), 0.3), 0.3);
        assert_eq!(s.secs(Mark(1), 0.3), 0.15);
        assert_eq!(s.median_probe_s(), 0.04);
    }

    #[test]
    fn marks_advance_only_when_a_probe_is_due() {
        let mut h = HostSpeed::start();
        assert_eq!(h.mark(), Mark(0));
        h.last -= PROBE_EVERY;
        assert_eq!(h.mark(), Mark(1));
        assert_eq!(h.finish().probes(), 3);
    }
}
