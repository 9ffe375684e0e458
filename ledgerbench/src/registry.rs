//! Every metric the benchmark emits, by name and unit. `BENCHMARK.json`
//! lists the same names and units; the self-test holds the two equal.

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; emitted by every untraced run
/// (`--trace 0`). Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("segments_per_s", "1/s"),
    m("epoch_s_p50", "s"),
    m("epoch_s_tail", "s"),
    m("recovery_s", "s"),
    m("peak_rss_mb", "MB"),
    m("macro_recall", "ratio"),
    m("alert_precision", "ratio"),
];

/// One layer each; emitted by every traced run (`--trace 1`). Times are
/// taken from outside the program, around the public call of each
/// layer. A layer a workload never calls from outside reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("kernelsim.build_s", "s"),
    m("attackgen.busy_s", "s"),
    m("attackgen.share", "ratio"),
    m("attackgen.ns_per_segment", "ns"),
    m("attackgen.items", "count"),
    m("attackgen.segments", "count"),
    m("attackgen.sys_events", "count"),
    m("attackgen.auth_events", "count"),
    m("attackgen.captured_mb", "MB"),
    m("attackgen.wire_mb", "MB"),
    m("attackgen.peak_pending", "count"),
    m("monitor.build_s", "s"),
    m("monitor.push_s", "s"),
    m("monitor.finish_s", "s"),
    m("monitor.auth_s", "s"),
    m("monitor.share", "ratio"),
    m("monitor.ns_per_segment", "ns"),
    m("monitor.mb_per_s", "MB/s"),
    m("monitor.flows", "count"),
    m("monitor.kernel_msgs", "count"),
    m("monitor.peak_live_flows", "count"),
    m("monitor.peak_retained_mb", "MB"),
    m("audit.ingest_s", "s"),
    m("audit.detect_s", "s"),
    m("audit.events", "count"),
    m("audit.completeness", "ratio"),
    m("core.report_s", "s"),
    m("core.alerts", "count"),
    m("core.incidents", "count"),
    m("core.false_positives", "count"),
    m("core.service.epoch_s", "s"),
    m("core.service.us_per_item", "us"),
    m("core.service.checkpoint_s", "s"),
    m("core.service.checkpoint_kb", "KB"),
    m("core.service.restore_s", "s"),
    m("core.service.replay_s", "s"),
    m("core.service.replayed_items", "count"),
    m("core.service.cadence_checkpoints", "count"),
    m("core.service.intel_rules", "count"),
    m("ledger.coverage", "ratio"),
    m("ledger.overhead", "ratio"),
];

/// The metrics a run emits.
pub fn emitted(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|d| d.name == name)
}
