//! `soc_service`: the always-on `SocService` over a seeded plan queue —
//! 8 production servers and 1 decoy, 2 benign sessions per server,
//! every `AttackClass` plus all four `InteractiveScenario`s per epoch,
//! a 2 h horizon. The intel loop is live with a per-epoch
//! `WaveSpec::default()` sweep, and a cadence checkpoint is taken every
//! 512 items.
//!
//! One repetition is a service lifetime: `SocService::new` (set-up),
//! then a fixed queue of 50 epochs. Each epoch is followed by a
//! boundary checkpoint serialized to JSON, as an operator persists it,
//! and by a crash at the epoch's last cadence checkpoint: a service
//! restored from that checkpoint's JSON replays the epoch (recovery)
//! and carries on. Chosen because it uses the same generator and
//! monitor differently: durable state is snapshotted beside the
//! analysis, rules are published while flows are scanned, and
//! adversaries react to kernel output, so a gain that costs
//! checkpointing, replay or intel reload shows here. The reference
//! output is the same queue run by one service without cadence
//! checkpoints; every restored service must also equal the one that
//! crashed.

use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::intel::IntelConfig;
use jupyter_audit::core::pipeline::{CampaignPlan, InteractiveScenario, PipelineConfig};
use jupyter_audit::core::{QueueSource, ServiceConfig, SocService, WaveSpec};
use jupyter_audit::kernelsim::deployment::DeploymentSpec;
use jupyter_audit::netsim::rng::split_seed;
use jupyter_audit::netsim::time::SimTime;
use std::time::Instant;

use crate::host::peak_rss_mb;
use crate::hostspeed::{HostSpeed, Mark, Timed};
use crate::ledger::{secs, Fingerprint, Quality};
use crate::record::{Checks, EndToEnd, Outcome, Recorder};
use crate::{Options, Size};

/// Scenario items between cadence checkpoints.
const CADENCE_ITEMS: u64 = 512;

/// The service configuration; `cadence` turns mid-epoch checkpoints on.
pub fn config(size: Size, seed: u64, cadence: bool) -> ServiceConfig {
    let mut pcfg = PipelineConfig::small_lab(seed);
    pcfg.deployment = DeploymentSpec {
        servers: size.pick(8, 2),
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 1,
        seed,
    };
    pcfg.shards = Some(1);
    pcfg.producers = Some(1);
    pcfg.intel = Some(IntelConfig::default());
    let mut cfg = ServiceConfig::new(pcfg, seed);
    cfg.checkpoint_items = cadence.then_some(CADENCE_ITEMS);
    cfg.wave = Some(WaveSpec::default());
    cfg
}

/// The plan queue, made from the seed: one plan per epoch.
pub fn plans(size: Size, seed: u64) -> QueueSource {
    let epochs = size.pick(50, 2);
    QueueSource {
        plans: (0..epochs)
            .map(|e| CampaignPlan {
                benign_sessions_per_server: 2,
                attacks: AttackClass::ALL.to_vec(),
                interactive: InteractiveScenario::ALL.to_vec(),
                horizon_secs: 2 * 3600,
                stretch: 1.0,
                seed: split_seed(seed, 100 + e),
            })
            .collect(),
    }
}

/// Samples of one lifetime. Time fields are seconds.
#[derive(Default)]
struct Lifetime {
    /// Probe interval of the set-ups, and of each epoch with its
    /// checkpoint and recovery (all zero in a traced lifetime).
    setup_at: Mark,
    at: Vec<Mark>,
    /// `SocService::new`, several times.
    setup: Vec<f64>,
    /// Per epoch: `run_epoch`.
    run: Vec<f64>,
    /// Per epoch: `checkpoint()` plus `to_json`.
    checkpoint: Vec<f64>,
    /// Per epoch: serializing the crash checkpoint.
    crash: Vec<f64>,
    /// Per epoch: `SocService::restore` from the JSON.
    restore: Vec<f64>,
    /// Per epoch: the replayed, interrupted epoch.
    replay: Vec<f64>,
    /// The whole lifetime.
    wall: f64,
    /// Size of the last crash checkpoint.
    crash_kb: f64,
    items: u64,
    segments: u64,
    cadence_checkpoints: u64,
    replayed_items: u64,
    intel_rules: u64,
    peak_live_flows: u64,
    alerts: u64,
    incidents: u64,
    quality: Quality,
    /// Output at the end of the lifetime.
    output: Option<Fingerprint>,
    /// Epochs whose restored service differed from the crashed one.
    diverged: Vec<u64>,
    /// An epoch, checkpoint or restore that failed, if any.
    error: Option<String>,
}

/// Set-up repetitions per lifetime: construction is microseconds, so
/// its median needs more samples than a run has lifetimes.
const SETUPS_PER_LIFETIME: usize = 25;

/// The output and position of a service: what a restored service must
/// reproduce.
fn state(svc: &SocService) -> (Fingerprint, SimTime, u64, u64) {
    let stats = svc.stats();
    (
        Fingerprint::of(svc.report()),
        svc.clock(),
        stats.segments,
        stats.intel_rules,
    )
}

/// One service lifetime. After every epoch the service crashes at that
/// epoch's last cadence checkpoint and a service restored from the
/// checkpoint's JSON replays the epoch and carries on, so recovery is
/// sampled once per plan of the queue and the lifetime still ends where
/// an uninterrupted service ends. With `speed`, the host is probed
/// between epochs (an untraced lifetime: a traced one times every call
/// it makes, and a probe would land in its wall time).
fn lifetime(
    cfg: &ServiceConfig,
    source: &QueueSource,
    mut speed: Option<&mut HostSpeed>,
) -> Lifetime {
    let mut mark = || {
        speed
            .as_deref_mut()
            .map_or(Mark::default(), HostSpeed::mark)
    };
    let mut lt = Lifetime {
        setup_at: mark(),
        ..Lifetime::default()
    };
    let start = Instant::now();
    let mut svc = None;
    for _ in 0..SETUPS_PER_LIFETIME {
        let cfg = cfg.clone();
        let t = Instant::now();
        let s = SocService::new(cfg);
        lt.setup.push(secs(t));
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one set-up");
    for _ in 0..source.plans.len() {
        let epoch = svc.epoch();
        lt.at.push(mark());
        let t = Instant::now();
        let ran = svc.run_epoch(source);
        lt.run.push(secs(t));
        if let Err(e) = ran {
            lt.error = Some(format!("epoch {epoch}: {e}"));
            return lt;
        }
        let t = Instant::now();
        let json = svc.checkpoint().to_json();
        lt.checkpoint.push(secs(t));
        std::hint::black_box(json);

        let t = Instant::now();
        let crash = svc.last_checkpoint().map(|c| c.to_json());
        lt.crash.push(secs(t));
        let Some(crash) = crash else {
            lt.error = Some(format!("epoch {epoch} took no cadence checkpoint"));
            return lt;
        };
        lt.crash_kb = crash.len() as f64 / 1e3;
        // What the crashed service ended with; it is dropped before the
        // restore, as a crashed process would be.
        let expected = state(&svc);
        drop(svc);
        let restart_cfg = cfg.clone();
        let t = Instant::now();
        let revived = SocService::restore(restart_cfg, &crash);
        lt.restore.push(secs(t));
        let mut revived = match revived {
            Ok(r) => r,
            Err(e) => {
                lt.error = Some(format!("restore in epoch {epoch}: {e}"));
                return lt;
            }
        };
        let t = Instant::now();
        let replayed = revived.run_epoch(source);
        lt.replay.push(secs(t));
        if let Err(e) = replayed {
            lt.error = Some(format!("replay of epoch {epoch}: {e}"));
            return lt;
        }
        if state(&revived) != expected {
            lt.diverged.push(epoch);
        }
        svc = revived;
    }
    lt.wall = secs(start);
    let stats = svc.stats();
    lt.items = stats.items;
    lt.segments = stats.segments;
    lt.cadence_checkpoints = stats.checkpoints;
    lt.replayed_items = stats.replayed_items;
    lt.intel_rules = stats.intel_rules;
    lt.peak_live_flows = stats.peak_live_flows;
    lt.alerts = svc.report().alerts.len() as u64;
    lt.incidents = svc.report().incidents.len() as u64;
    lt.quality = Quality::of(svc.report());
    lt.output = Some(Fingerprint::of(svc.report()));
    lt
}

impl Lifetime {
    fn busy_s(&self) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        self.setup.last().copied().unwrap_or(0.0)
            + sum(&self.run)
            + sum(&self.checkpoint)
            + sum(&self.crash)
            + sum(&self.restore)
            + sum(&self.replay)
    }

    /// Per-layer samples. Only the service layer is called from
    /// outside here; layers inside `run_epoch` report the counts the
    /// service exposes and 0 for their times.
    fn record(&self, rec: &mut Recorder) {
        for &v in &self.run {
            rec.add("core.service.epoch_s", v);
        }
        for &v in &self.checkpoint {
            rec.add("core.service.checkpoint_s", v);
        }
        let run_s: f64 = self.run.iter().sum();
        rec.add(
            "core.service.us_per_item",
            run_s * 1e6 / self.items.max(1) as f64,
        );
        rec.add("core.service.checkpoint_kb", self.crash_kb);
        for &v in &self.restore {
            rec.add("core.service.restore_s", v);
        }
        for &v in &self.replay {
            rec.add("core.service.replay_s", v);
        }
        rec.add("core.service.replayed_items", self.replayed_items as f64);
        rec.add(
            "core.service.cadence_checkpoints",
            self.cadence_checkpoints as f64,
        );
        rec.add("core.service.intel_rules", self.intel_rules as f64);
        rec.add("attackgen.items", self.items as f64);
        rec.add("attackgen.segments", self.segments as f64);
        rec.add("monitor.peak_live_flows", self.peak_live_flows as f64);
        rec.add("core.alerts", self.alerts as f64);
        rec.add("core.incidents", self.incidents as f64);
        rec.add("core.false_positives", self.quality.false_positives as f64);
        for name in [
            "kernelsim.build_s",
            "attackgen.busy_s",
            "attackgen.share",
            "attackgen.ns_per_segment",
            "attackgen.sys_events",
            "attackgen.auth_events",
            "attackgen.captured_mb",
            "attackgen.wire_mb",
            "attackgen.peak_pending",
            "monitor.build_s",
            "monitor.push_s",
            "monitor.finish_s",
            "monitor.auth_s",
            "monitor.share",
            "monitor.ns_per_segment",
            "monitor.mb_per_s",
            "monitor.flows",
            "monitor.kernel_msgs",
            "monitor.peak_retained_mb",
            "audit.ingest_s",
            "audit.detect_s",
            "audit.events",
            "audit.completeness",
            "core.report_s",
        ] {
            rec.add(name, 0.0);
        }
        rec.add("ledger.coverage", self.busy_s() / self.wall);
    }
}

/// Run the workload.
pub fn run(o: &Options) -> Outcome {
    let cfg = config(o.size, o.seed, true);
    let source = plans(o.size, o.seed);
    let mut rec = Recorder::default();
    let mut notes = vec![format!(
        "{} servers + 1 decoy, {} epochs per lifetime",
        cfg.pipeline.deployment.servers,
        source.plans.len()
    )];
    // The reference goes first and doubles as the warm-up: one service
    // through the queue without cadence checkpoints or crashes. Its
    // memory peak stays below a measured lifetime's, which keeps a
    // crash checkpoint beside the restored service.
    let reference = {
        let mut svc = SocService::new(config(o.size, o.seed, false));
        match svc.run_epochs(&source, source.plans.len() as u64) {
            Ok(_) => Some(Fingerprint::of(svc.report())),
            Err(_) => None,
        }
    };
    notes.push(format!("reference peak memory {:.3} MB", peak_rss_mb()));
    let mut lifetimes = Vec::new();
    let lp = o.deadline();
    let mut e2e = EndToEnd::default();
    let mut speed = (!o.traced).then(HostSpeed::start);
    let mut done = 0;
    while lp.more(done) {
        let lt = lifetime(&cfg, &source, speed.as_mut());
        if lt.error.is_some() {
            // Counted as a failure below; its partial timings are not
            // samples.
        } else if o.traced {
            // The service ledger only times calls the untraced run
            // times too (per epoch, checkpoint and recovery), so the
            // untraced twin is another lifetime of the same code.
            let plain = lifetime(&cfg, &source, None);
            lt.record(&mut rec);
            if plain.error.is_none() {
                rec.add("ledger.overhead", lt.wall / plain.wall);
            }
            lifetimes.push(("untraced", plain));
        } else {
            let timed = |secs, at| Timed { secs, at };
            e2e.setup
                .extend(lt.setup.iter().map(|&s| timed(s, lt.setup_at)));
            let epochs: Vec<Timed> = lt
                .run
                .iter()
                .zip(&lt.checkpoint)
                .zip(&lt.at)
                .map(|((r, c), &at)| timed(r + c, at))
                .collect();
            e2e.rates.push((lt.segments, epochs.clone()));
            e2e.epochs.extend(epochs);
            e2e.recovery.extend(
                lt.restore
                    .iter()
                    .zip(&lt.replay)
                    .zip(&lt.at)
                    .map(|((r, p), &at)| timed(r + p, at)),
            );
            e2e.quality = lt.quality;
        }
        lifetimes.push((if o.traced { "traced" } else { "lifetime" }, lt));
        done += 1;
    }
    if let Some(speed) = speed {
        e2e.record(&mut rec, &mut notes, &speed.finish());
        notes.push(format!(
            "setup_s is the median of {} constructions",
            e2e.setup.len()
        ));
    }
    notes.push(format!("{done} measured lifetimes"));
    let mut checks = Checks::default();
    for (what, lt) in &lifetimes {
        if let Some(e) = &lt.error {
            checks.check(false, || format!("{what} lifetime failed: {e}"));
            continue;
        }
        checks.check(lt.output.is_some() && lt.output == reference, || {
            format!(
                "{what} output {:?} differs from the uninterrupted reference {reference:?}",
                lt.output
            )
        });
        checks.check(lt.diverged.is_empty(), || {
            format!(
                "{what}: the restored service differed from the crashed one after epochs {:?}",
                lt.diverged
            )
        });
    }
    Outcome {
        workload: "soc_service",
        seed: o.seed,
        traced: o.traced,
        checks,
        metrics: rec.summarize(o.traced),
        notes,
    }
}
