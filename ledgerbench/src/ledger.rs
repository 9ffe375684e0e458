//! The traced path: the pipeline's inline streamed run rebuilt from its
//! public calls, with a timer around each call, so the wall time splits
//! by layer. The traced output must equal the untraced output bit for
//! bit; the workloads check that on every traced pass.

use jupyter_audit::attackgen::campaign::{Campaign, GroundTruth};
use jupyter_audit::attackgen::stream::{ScenarioItem, ScenarioStream};
use jupyter_audit::audit::detectors::AuditDetector;
use jupyter_audit::audit::tracer::Tracer;
use jupyter_audit::core::classify::incidents;
use jupyter_audit::core::metrics::score;
use jupyter_audit::core::pipeline::PipelineConfig;
use jupyter_audit::core::report::Report;
use jupyter_audit::kernelsim::deployment::Deployment;
use jupyter_audit::kernelsim::events::SysEvent;
use jupyter_audit::kernelsim::hub::AuthEvent;
use jupyter_audit::monitor::alerts::{Alert, AlertSource};
use jupyter_audit::monitor::detectors::scan_config;
use jupyter_audit::monitor::engine::{Monitor, MonitorConfig, MonitorStats};
use jupyter_audit::monitor::streaming::{StreamingConfig, StreamingMonitor};
use jupyter_audit::netsim::segment::SegmentRecord;
use jupyter_audit::netsim::time::SimTime;
use jupyter_audit::netsim::trace::Trace;
use std::time::Instant;

use crate::record::Recorder;

/// The seed salt `Pipeline` applies to the scenario stream of a run.
/// The traced path must use the same stream to reproduce the run; the
/// traced-versus-untraced digest check catches any drift.
pub const STREAM_SALT: u64 = 0xA0D17;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The monitor configuration `Pipeline` wires for a deployment: server
/// attribution, TLS-inspection secrets when granted, and full-capture
/// audit tracing of decoys.
pub fn fleet_monitor_config(cfg: &PipelineConfig, dep: &Deployment) -> MonitorConfig {
    let mut mcfg = cfg.monitor.clone();
    for (idx, srv) in dep.servers.iter().enumerate() {
        mcfg.server_ids.insert(srv.addr, srv.id);
        if cfg.tls_inspection {
            mcfg.inspect_secrets
                .insert(srv.addr, srv.transport_secret.clone());
        }
        if dep.is_decoy(idx) {
            mcfg.audit_trace_hosts.insert(srv.addr);
        }
    }
    mcfg
}

/// The report tail of a run: configuration scan of production servers,
/// canonical sort, incident grouping and scoring (config-scan findings
/// are not scored).
pub fn report_tail(
    mut alerts: Vec<Alert>,
    dep: &Deployment,
    ground_truth: &[GroundTruth],
    cfg: &PipelineConfig,
) -> Report {
    for (idx, srv) in dep.servers.iter().enumerate() {
        if dep.is_decoy(idx) {
            continue;
        }
        alerts.extend(scan_config(srv.id, &srv.config).into_iter().map(|(_, a)| a));
    }
    alerts.sort_by_key(|a| a.time);
    let incs = incidents(&alerts, cfg.merge_window);
    let board = score(
        alerts
            .iter()
            .filter(|a| a.source != AlertSource::ConfigScan),
        ground_truth,
        &cfg.scoring,
    );
    Report {
        alerts,
        incidents: incs,
        scoreboard: Some(board),
    }
}

/// What a run's output is compared by: a digest of the whole alert
/// stream, the incident count, and a digest of the scoreboard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Alerts in the report.
    pub alerts: usize,
    /// FNV-1a digest over every alert's full `Debug` form, in order.
    pub alert_digest: u64,
    /// Incidents in the report.
    pub incidents: usize,
    /// FNV-1a digest of the scoreboard's `Debug` form.
    pub scoreboard_digest: u64,
}

impl Fingerprint {
    /// Fingerprint a report.
    pub fn of(report: &Report) -> Fingerprint {
        let mut h = Fnv::new();
        for a in &report.alerts {
            h.write(format!("{a:?}").as_bytes());
        }
        let mut b = Fnv::new();
        b.write(format!("{:?}", report.scoreboard).as_bytes());
        Fingerprint {
            alerts: report.alerts.len(),
            alert_digest: h.0,
            incidents: report.incidents.len(),
            scoreboard_digest: b.0,
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Detection quality of a report's scoreboard.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Macro-averaged recall over the classes that had campaigns.
    pub recall: f64,
    /// True-positive alerts over all scored alerts.
    pub precision: f64,
    /// False-positive alerts.
    pub false_positives: u64,
}

impl Quality {
    /// The quality of `report`.
    pub fn of(report: &Report) -> Quality {
        let board = report
            .scoreboard
            .as_ref()
            .expect("every run scores its report");
        let tp: usize = board.classes.iter().map(|(_, c)| c.tp_alerts).sum();
        let fp = board.total_fp();
        Quality {
            recall: board.macro_recall(),
            precision: tp as f64 / (tp + fp).max(1) as f64,
            false_positives: fp as u64,
        }
    }
}

/// Layer times and counts of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Deployment::build`.
    pub build_s: f64,
    /// `ScenarioStream::new` and every `next_item`.
    pub gen_s: f64,
    /// `Monitor::new` plus `StreamingMonitor::new` (rule compilation).
    pub monitor_build_s: f64,
    /// Every `StreamingMonitor::push`.
    pub push_s: f64,
    /// `StreamingMonitor::finish` (evictions and cross-flow detectors).
    pub finish_s: f64,
    /// `Monitor::analyze_auth`.
    pub auth_s: f64,
    /// Every `Tracer::ingest`.
    pub ingest_s: f64,
    /// `Tracer::collect` plus `AuditDetector::analyze`.
    pub detect_s: f64,
    /// The report tail ([`report_tail`]).
    pub report_s: f64,
    /// Scenario items produced.
    pub items: u64,
    /// Segments produced.
    pub segments: u64,
    /// Kernel events produced.
    pub sys_events: u64,
    /// Auth events produced.
    pub auth_events: u64,
    /// Payload bytes captured (what the monitor scans).
    pub captured_bytes: u64,
    /// On-the-wire bytes (`wire_len`, including snapped records).
    pub wire_bytes: u64,
    /// Producer high-water mark of items awaiting the watermark.
    pub peak_pending: u64,
    /// Monitor statistics of the pass.
    pub monitor: MonitorStats,
    /// Kernel events the tracer delivered to the detectors.
    pub audit_events: u64,
    /// Tracer completeness (1.0 = no ring drops).
    pub completeness: f64,
    /// Alerts in the report.
    pub alerts: u64,
    /// Incidents in the report.
    pub incidents: u64,
    /// False-positive alerts in the report.
    pub false_positives: u64,
    /// `build_s` and `gen_s` were spent in the run's set-up, outside the
    /// measured pass (a stored capture): they are reported, but shares
    /// and coverage are of the pass alone.
    pub setup_outside_pass: bool,
}

impl Layers {
    /// Time of the pass accounted to some layer.
    pub fn busy_s(&self) -> f64 {
        self.in_pass(self.build_s)
            + self.in_pass(self.gen_s)
            + self.monitor_build_s
            + self.push_s
            + self.finish_s
            + self.auth_s
            + self.ingest_s
            + self.detect_s
            + self.report_s
    }

    fn in_pass(&self, setup_layer_s: f64) -> f64 {
        if self.setup_outside_pass {
            0.0
        } else {
            setup_layer_s
        }
    }

    /// Add this pass's per-layer samples; `wall` is the traced pass's
    /// wall time. The service layer is not called by these workloads
    /// and reports 0.
    pub fn record(&self, rec: &mut Recorder, wall: f64) {
        let segs = self.segments.max(1) as f64;
        let monitor_s = self.monitor_build_s + self.push_s + self.finish_s + self.auth_s;
        rec.add("kernelsim.build_s", self.build_s);
        rec.add("attackgen.busy_s", self.gen_s);
        rec.add("attackgen.share", self.in_pass(self.gen_s) / wall);
        rec.add("attackgen.ns_per_segment", self.gen_s * 1e9 / segs);
        rec.add("attackgen.items", self.items as f64);
        rec.add("attackgen.segments", self.segments as f64);
        rec.add("attackgen.sys_events", self.sys_events as f64);
        rec.add("attackgen.auth_events", self.auth_events as f64);
        rec.add("attackgen.captured_mb", self.captured_bytes as f64 / 1e6);
        rec.add("attackgen.wire_mb", self.wire_bytes as f64 / 1e6);
        rec.add("attackgen.peak_pending", self.peak_pending as f64);
        rec.add("monitor.build_s", self.monitor_build_s);
        rec.add("monitor.push_s", self.push_s);
        rec.add("monitor.finish_s", self.finish_s);
        rec.add("monitor.auth_s", self.auth_s);
        rec.add("monitor.share", monitor_s / wall);
        rec.add("monitor.ns_per_segment", monitor_s * 1e9 / segs);
        rec.add(
            "monitor.mb_per_s",
            self.captured_bytes as f64 / 1e6 / (self.push_s + self.finish_s),
        );
        rec.add("monitor.flows", self.monitor.flows as f64);
        rec.add("monitor.kernel_msgs", self.monitor.kernel_msgs as f64);
        rec.add(
            "monitor.peak_live_flows",
            self.monitor.peak_live_flows as f64,
        );
        rec.add(
            "monitor.peak_retained_mb",
            self.monitor.peak_retained_bytes as f64 / 1e6,
        );
        rec.add("audit.ingest_s", self.ingest_s);
        rec.add("audit.detect_s", self.detect_s);
        rec.add("audit.events", self.audit_events as f64);
        rec.add("audit.completeness", self.completeness);
        rec.add("core.report_s", self.report_s);
        rec.add("core.alerts", self.alerts as f64);
        rec.add("core.incidents", self.incidents as f64);
        rec.add("core.false_positives", self.false_positives as f64);
        for name in [
            "core.service.epoch_s",
            "core.service.us_per_item",
            "core.service.checkpoint_s",
            "core.service.checkpoint_kb",
            "core.service.restore_s",
            "core.service.replay_s",
            "core.service.replayed_items",
            "core.service.cadence_checkpoints",
            "core.service.intel_rules",
        ] {
            rec.add(name, 0.0);
        }
        rec.add("ledger.coverage", self.busy_s() / wall);
    }

    fn count_segment(&mut self, rec: &SegmentRecord) {
        self.segments += 1;
        self.captured_bytes += rec.payload.len() as u64;
        self.wire_bytes += u64::from(rec.wire_len);
    }
}

/// A stored capture: everything one scenario produced, materialized.
pub struct Capture {
    /// The captured segments, in capture order.
    pub trace: Trace,
    /// Kernel-audit events.
    pub sys_events: Vec<SysEvent>,
    /// Hub auth log.
    pub auth_log: Vec<AuthEvent>,
    /// Ground-truth labels.
    pub ground_truth: Vec<GroundTruth>,
}

impl Capture {
    /// Segments, captured payload bytes, kernel events and auth events:
    /// equal for two captures of the same input.
    pub fn shape(&self) -> (usize, u64, usize, usize) {
        let records = self.trace.records();
        let bytes = records.iter().map(|r| r.payload.len() as u64).sum();
        (
            records.len(),
            bytes,
            self.sys_events.len(),
            self.auth_log.len(),
        )
    }
}

/// Run `campaigns` against `dep` and store everything they produce.
/// With `layers`, every producer call is timed and counted into it.
pub fn build_capture(
    dep: &mut Deployment,
    campaigns: Vec<(SimTime, Campaign)>,
    stream_seed: u64,
    layers: Option<&mut Layers>,
) -> Capture {
    let traced = layers.is_some();
    let t = Instant::now();
    let mut stream = ScenarioStream::new(dep, campaigns, stream_seed);
    let mut gen_s = secs(t);
    let mut records = Vec::new();
    let mut sys_events = Vec::new();
    let mut auth_log = Vec::new();
    loop {
        let item = if traced {
            let t = Instant::now();
            let item = stream.next_item();
            gen_s += secs(t);
            item
        } else {
            stream.next_item()
        };
        let Some(item) = item else { break };
        match item {
            ScenarioItem::Segment(r) => records.push(r),
            ScenarioItem::Auth(e) => auth_log.push(e),
            ScenarioItem::Sys(e) => sys_events.push(e),
        }
    }
    let peak_pending = stream.peak_pending() as u64;
    let (ground_truth, _) = stream.into_labels();
    if let Some(l) = layers {
        l.gen_s += gen_s;
        l.peak_pending = peak_pending;
        l.sys_events = sys_events.len() as u64;
        l.auth_events = auth_log.len() as u64;
        for r in &records {
            l.count_segment(r);
        }
        l.items = l.segments + l.sys_events + l.auth_events;
    }
    Capture {
        trace: Trace::new(records),
        sys_events,
        auth_log,
        ground_truth,
    }
}

/// One traced streamed run of `campaigns` under `cfg`: exactly what
/// `Pipeline::new` followed by `Pipeline::run_campaigns_streamed` does
/// on the inline engine (one producer, one shard, no intel loop), with
/// every layer call timed.
pub fn traced_streamed(
    cfg: &PipelineConfig,
    campaigns: Vec<(SimTime, Campaign)>,
    seed: u64,
) -> (Report, Layers) {
    let mut l = Layers::default();
    let t = Instant::now();
    let mut dep = Deployment::build(&cfg.deployment);
    l.build_s = secs(t);

    let t = Instant::now();
    let monitor = Monitor::new(fleet_monitor_config(cfg, &dep));
    let mut engine = StreamingMonitor::new(&monitor, StreamingConfig::close_evict());
    l.monitor_build_s = secs(t);

    let mut tracer = Tracer::new(cfg.tracer_capacity);
    let mut auth_log: Vec<AuthEvent> = Vec::new();
    let t = Instant::now();
    let mut stream = ScenarioStream::new(&mut dep, campaigns, seed ^ STREAM_SALT);
    l.gen_s = secs(t);
    loop {
        let t = Instant::now();
        let item = stream.next_item();
        l.gen_s += secs(t);
        let Some(item) = item else { break };
        l.items += 1;
        match item {
            ScenarioItem::Segment(rec) => {
                l.count_segment(&rec);
                let t = Instant::now();
                engine.push(&rec);
                l.push_s += secs(t);
            }
            ScenarioItem::Auth(ev) => {
                l.auth_events += 1;
                auth_log.push(ev);
            }
            ScenarioItem::Sys(ev) => {
                l.sys_events += 1;
                let t = Instant::now();
                tracer.ingest(ev);
                l.ingest_s += secs(t);
            }
        }
    }
    l.peak_pending = stream.peak_pending() as u64;
    let t = Instant::now();
    let (ground_truth, _) = stream.into_labels();
    l.gen_s += secs(t);

    let report = analyze_tail(&mut l, engine, &monitor, &auth_log, tracer, |alerts| {
        report_tail(alerts, &dep, &ground_truth, cfg)
    });
    (report, l)
}

/// The timed analysis tail shared by the traced paths: finish the
/// monitor engine, analyze auth, drain the tracer into the audit
/// detectors, and build the report with `tail`.
pub fn analyze_tail(
    l: &mut Layers,
    engine: StreamingMonitor<'_>,
    monitor: &Monitor,
    auth_log: &[AuthEvent],
    mut tracer: Tracer,
    tail: impl FnOnce(Vec<Alert>) -> Report,
) -> Report {
    let t = Instant::now();
    let (mut alerts, stats) = engine.finish();
    l.finish_s = secs(t);
    l.monitor = stats;

    let t = Instant::now();
    alerts.extend(monitor.analyze_auth(auth_log));
    l.auth_s = secs(t);

    let t = Instant::now();
    let audited = tracer.collect();
    alerts.extend(AuditDetector::new().analyze(&audited));
    l.detect_s = secs(t);
    l.audit_events = audited.len() as u64;
    l.completeness = tracer.completeness();

    let t = Instant::now();
    let report = tail(alerts);
    l.report_s = secs(t);
    l.alerts = report.alerts.len() as u64;
    l.incidents = report.incidents.len() as u64;
    l.false_positives = Quality::of(&report).false_positives;
    report
}
