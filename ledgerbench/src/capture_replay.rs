//! `capture_replay`: offline forensics on a stored capture. Set-up
//! builds the deployment, runs the scenario once into a stored capture
//! and builds the monitor; each epoch then pushes the whole capture
//! through a `StreamingMonitor` (`close_evict`), followed by
//! `Monitor::analyze_auth`, the tracer with `AuditDetector`, and the
//! report tail.
//!
//! The capture comes from 8 servers, each running 4 code-dense sessions
//! of 60 analysis cells plus one benign session, with one campaign of
//! every `AttackClass`; a 1024-signature honeypot feed is published
//! before the run, and almost every one of its rules misses. Chosen
//! because generation does no timed work here: monitor changes
//! (matcher, scanner, reassembly) do nearly all their work in this
//! workload, and producer changes are predicted not to move it except
//! through set-up. It differs from `fleet_mix` in flow length and rule
//! count. The reference output is the batch `Monitor::analyze` of the
//! same capture.

use jupyter_audit::attackgen::benign::{session, BenignProfile};
use jupyter_audit::attackgen::campaign::{Campaign, CampaignStep};
use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::audit::detectors::AuditDetector;
use jupyter_audit::audit::tracer::Tracer;
use jupyter_audit::core::pipeline::PipelineConfig;
use jupyter_audit::core::report::Report;
use jupyter_audit::kernelsim::actions::CellScript;
use jupyter_audit::kernelsim::deployment::{Deployment, DeploymentSpec};
use jupyter_audit::monitor::alerts::Alert;
use jupyter_audit::monitor::engine::{Monitor, MonitorConfig};
use jupyter_audit::monitor::rules::{Pattern, Rule, RuleOrigin};
use jupyter_audit::monitor::streaming::{StreamingConfig, StreamingMonitor};
use jupyter_audit::netsim::addr::{HostAddr, HostId};
use jupyter_audit::netsim::rng::{split_seed, SimRng};
use jupyter_audit::netsim::time::{Duration, SimTime};
use std::time::Instant;

use crate::fleet_mix::attack;
use crate::hostspeed::{HostSpeed, Timed};
use crate::ledger::{
    analyze_tail, build_capture, fleet_monitor_config, report_tail, secs, Capture, Fingerprint,
    Layers, Quality, STREAM_SALT,
};
use crate::record::{Checks, EndToEnd, Outcome, Recorder};
use crate::{Options, Size};

/// The pipeline configuration: the inline engine, with the honeypot
/// signature feed published at time zero so every rule applies to
/// every flow.
pub fn config(size: Size, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers: size.pick(8, 2),
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    cfg.shards = Some(1);
    cfg.producers = Some(1);
    for rule in signatures(size.pick(1024, 64), seed) {
        cfg.monitor.intel.publish(SimTime::ZERO, rule);
    }
    cfg
}

/// `n` honeypot-learned signatures. Rule 0 is the ransomware locker's
/// cell code, so the hit-and-emit path runs on the one campaign it
/// names; every other rule is a unique token no traffic carries (a
/// large feed where almost every rule misses almost every flow).
fn signatures(n: usize, seed: u64) -> Vec<Rule> {
    let tag = split_seed(seed, 3) & 0xffff_ffff;
    (0..n)
        .map(|i| Rule {
            id: format!("hp-ledger-{i:05}"),
            class: AttackClass::ALL[i % AttackClass::ALL.len()],
            pattern: Pattern::CodeSubstring(if i == 0 {
                "for f in targets: lock(f)".into()
            } else {
                format!("hp_sig_{tag:08x}_{i:05}_beacon")
            }),
            confidence: 0.7,
            origin: RuleOrigin::HoneypotIntel,
        })
        .collect()
}

/// One realistic analysis cell (~800 bytes of source), its constants
/// drawn from the seed.
fn cell_code(rng: &mut SimRng, server: usize, i: usize) -> String {
    let window = rng.range(8, 64);
    let alpha = rng.range(1, 99);
    let bins = rng.range(16, 96);
    let cv = rng.range(3, 10);
    format!(
        "df_{i:02} = pd.read_csv('/srv/data/s{server:02}/run_{i:02}.csv')\n\
         df_{i:02}['z'] = (df_{i:02}.x - df_{i:02}.x.mean()) / df_{i:02}.x.std()\n\
         features = df_{i:02}[['z', 'y', 'w']].rolling(window={window}).agg(['mean', 'var'])\n\
         features['lag_1'] = features['z'].shift(1)\n\
         features['lag_7'] = features['z'].shift(7)\n\
         train, test = train_test_split(features.dropna(), test_size=0.25, shuffle=False)\n\
         model = Pipeline([('scale', StandardScaler()), ('reg', Ridge(alpha=0.{alpha:02}))])\n\
         scores = cross_val_score(model, train, target.loc[train.index], cv={cv})\n\
         residuals = target.loc[test.index] - model.fit(train, target.loc[train.index]).predict(test)\n\
         ax = residuals.plot.hist(bins={bins}, alpha=0.6, title='run {i:02} residuals')\n\
         ax.figure.savefig('/srv/reports/s{server:02}/resid_{i:02}.png', dpi=120)\n\
         print(f'server {server:02} cell {i:02}: {{scores.mean():.4f}} +/- {{scores.std():.4f}}')\n"
    )
}

/// The campaign list, made from the seed.
pub fn campaigns(cfg: &PipelineConfig, size: Size, seed: u64) -> Vec<(SimTime, Campaign)> {
    let dep = Deployment::build(&cfg.deployment);
    let mut rng = SimRng::new(split_seed(seed, 2));
    let horizon = Duration::from_secs(4 * 3600).as_micros();
    let mut out = Vec::new();
    for si in 0..dep.production_count() {
        let user = dep.owner_of(si).to_string();
        for k in 0..size.pick(4, 1) {
            let mut steps = vec![CampaignStep::AuthLogin {
                username: user.clone(),
                src: HostAddr::internal(HostId(1000 + si as u32)),
                offset: Duration::ZERO,
            }];
            for i in 0..size.pick(60, 8) {
                steps.push(CampaignStep::Cell {
                    server: si,
                    user: user.clone(),
                    offset: Duration::from_secs(2 + i as u64 * 20),
                    script: CellScript::pure(&cell_code(&mut rng, si, i)),
                });
            }
            let start = SimTime(rng.range(0, horizon));
            let name = format!("code-dense-{si}-{k}");
            out.push((start, Campaign::scripted(None, &name, steps)));
        }
        let start = SimTime(rng.range(0, horizon));
        out.push((
            start,
            session(si, &user, &BenignProfile::default(), &mut rng),
        ));
    }
    for (i, &class) in AttackClass::ALL.iter().enumerate() {
        let server = i % dep.production_count();
        let start = SimTime(rng.range(horizon / 4, horizon / 2));
        out.push((start, attack(class, &dep, server, &mut rng)));
    }
    out
}

/// What set-up leaves for the epochs.
struct Stored {
    dep: Deployment,
    capture: Capture,
    mcfg: MonitorConfig,
    monitor: Monitor,
}

/// Set-up: deployment, stored capture, monitor. With `layers`, the
/// deployment build and every producer call are timed into it.
fn set_up(
    cfg: &PipelineConfig,
    campaigns: &[(SimTime, Campaign)],
    seed: u64,
    mut layers: Option<&mut Layers>,
) -> Stored {
    let campaigns = campaigns.to_vec();
    let t = Instant::now();
    let mut dep = Deployment::build(&cfg.deployment);
    if let Some(l) = layers.as_deref_mut() {
        l.build_s = secs(t);
    }
    let capture = build_capture(&mut dep, campaigns, seed ^ STREAM_SALT, layers);
    let mcfg = fleet_monitor_config(cfg, &dep);
    let monitor = Monitor::new(mcfg.clone());
    Stored {
        dep,
        capture,
        mcfg,
        monitor,
    }
}

/// Alerts of the auth log and the kernel-audit plane, appended to the
/// monitor's, then the report tail.
fn tail(cfg: &PipelineConfig, s: &Stored, monitor: &Monitor, mut alerts: Vec<Alert>) -> Report {
    alerts.extend(monitor.analyze_auth(&s.capture.auth_log));
    let mut tracer = Tracer::new(cfg.tracer_capacity);
    for ev in &s.capture.sys_events {
        tracer.ingest(ev.clone());
    }
    alerts.extend(AuditDetector::new().analyze(&tracer.collect()));
    report_tail(alerts, &s.dep, &s.capture.ground_truth, cfg)
}

/// One epoch: the stored capture through a fresh streaming engine.
fn epoch(cfg: &PipelineConfig, s: &Stored, monitor: &Monitor) -> Report {
    let mut engine = StreamingMonitor::new(monitor, StreamingConfig::close_evict());
    for r in s.capture.trace.records() {
        engine.push(r);
    }
    let (alerts, _) = engine.finish();
    tail(cfg, s, monitor, alerts)
}

/// One traced epoch; `setup` holds the traced set-up's layers.
fn traced_epoch(cfg: &PipelineConfig, s: &Stored, setup: &Layers) -> (Report, Layers) {
    let mut l = Layers {
        setup_outside_pass: true,
        ..setup.clone()
    };
    let t = Instant::now();
    let monitor = Monitor::new(s.mcfg.clone());
    let mut engine = StreamingMonitor::new(&monitor, StreamingConfig::close_evict());
    l.monitor_build_s = secs(t);
    for r in s.capture.trace.records() {
        let t = Instant::now();
        engine.push(r);
        l.push_s += secs(t);
    }
    let mut tracer = Tracer::new(cfg.tracer_capacity);
    for ev in &s.capture.sys_events {
        let t = Instant::now();
        tracer.ingest(ev.clone());
        l.ingest_s += secs(t);
    }
    let report = analyze_tail(
        &mut l,
        engine,
        &monitor,
        &s.capture.auth_log,
        tracer,
        |alerts| report_tail(alerts, &s.dep, &s.capture.ground_truth, cfg),
    );
    (report, l)
}

/// One timed untraced epoch: `(recovery, epoch, report)` where recovery
/// adds rebuilding the monitor (the stored capture survives a crash).
fn timed_epoch(cfg: &PipelineConfig, s: &Stored) -> (f64, f64, Report) {
    let mcfg = s.mcfg.clone();
    let t0 = Instant::now();
    let monitor = Monitor::new(mcfg);
    let t1 = Instant::now();
    let report = epoch(cfg, s, &monitor);
    (secs(t0), secs(t1), report)
}

/// Run the workload.
pub fn run(o: &Options) -> Outcome {
    let cfg = config(o.size, o.seed);
    let campaigns = campaigns(&cfg, o.size, o.seed);
    let mut rec = Recorder::default();
    let mut notes = Vec::new();
    let mut outputs: Vec<(&str, Fingerprint)> = Vec::new();
    let setups = o.size.pick(9, 1);
    let mut setup_s = Vec::new();
    let mut setup_layers = Layers::default();
    let mut stored: Option<Stored> = None;
    let mut checks = Checks::default();
    let mut speed = HostSpeed::start();
    for _ in 0..setups {
        // Drop the previous capture first: peak memory holds one.
        let previous = stored.take().map(|s| s.capture.shape());
        let mut l = Layers::default();
        let at = speed.mark();
        let t = Instant::now();
        let s = set_up(&cfg, &campaigns, o.seed, o.traced.then_some(&mut l));
        setup_s.push(Timed { secs: secs(t), at });
        if let Some(p) = previous {
            let now = s.capture.shape();
            checks.check(now == p, || {
                format!("set-up stored a different capture: {now:?} after {p:?}")
            });
        }
        setup_layers = l;
        stored = Some(s);
    }
    let s = stored.expect("at least one set-up");
    notes.push(format!(
        "{} servers, {} campaigns, {} stored segments, {} set-ups",
        cfg.deployment.servers,
        campaigns.len(),
        s.capture.trace.records().len(),
        setups
    ));
    // Warm-up epoch: checked, not timed.
    outputs.push(("warm-up", Fingerprint::of(&epoch(&cfg, &s, &s.monitor))));
    let segments = s.capture.trace.records().len() as u64;
    let lp = o.deadline();
    if o.traced {
        let mut done = 0;
        while lp.more(done) {
            let (_, plain_s, plain) = timed_epoch(&cfg, &s);
            let t = Instant::now();
            let (report, layers) = traced_epoch(&cfg, &s, &setup_layers);
            let wall = secs(t);
            layers.record(&mut rec, wall);
            rec.add("ledger.overhead", wall / plain_s);
            outputs.push(("untraced", Fingerprint::of(&plain)));
            outputs.push(("traced", Fingerprint::of(&report)));
            done += 1;
        }
        notes.push(format!("{done} traced and {done} untraced epochs"));
    } else {
        let mut e2e = EndToEnd {
            setup: setup_s,
            ..EndToEnd::default()
        };
        while lp.more(e2e.epochs.len()) {
            let at = speed.mark();
            let (recovery_s, epoch_s, report) = timed_epoch(&cfg, &s);
            let epoch = Timed { secs: epoch_s, at };
            e2e.epochs.push(epoch);
            e2e.rates.push((segments, vec![epoch]));
            e2e.recovery.push(Timed {
                secs: recovery_s,
                at,
            });
            e2e.quality = Quality::of(&report);
            outputs.push(("epoch", Fingerprint::of(&report)));
        }
        e2e.record(&mut rec, &mut notes, &speed.finish());
    }
    let reference = {
        let (alerts, _) = s.monitor.analyze(&s.capture.trace);
        Fingerprint::of(&tail(&cfg, &s, &s.monitor, alerts))
    };
    for (what, fp) in outputs {
        checks.check(fp == reference, || {
            format!("{what} output {fp:?} differs from the batch-monitor reference {reference:?}")
        });
    }
    Outcome {
        workload: "capture_replay",
        seed: o.seed,
        traced: o.traced,
        checks,
        metrics: rec.summarize(o.traced),
        notes,
    }
}
