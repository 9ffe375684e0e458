//! `fleet_mix`: the E5 plan as explicit campaigns through
//! `Pipeline::run_campaigns_streamed` — 16 production servers with 4
//! benign sessions each, one DataExfiltration and one Cryptomining
//! campaign, over a 4 h horizon.
//!
//! Chosen because it is generation-bound with many short flows and only
//! the built-in rules: producer-side work (signing, hashing, JSON)
//! shows here. One repetition is a fresh `Pipeline::new` (set-up: a run
//! mutates its deployment) followed by one streamed run (the epoch).
//! The reference output is the batch path, `Pipeline::run_campaigns`.

use jupyter_audit::attackgen::benign::{session, BenignProfile};
use jupyter_audit::attackgen::campaign::Campaign;
use jupyter_audit::attackgen::exfiltration::{self, ExfilParams, ExfilVariant};
use jupyter_audit::attackgen::mixer::build_attack;
use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::pipeline::{Pipeline, PipelineConfig};
use jupyter_audit::kernelsim::deployment::{Deployment, DeploymentSpec};
use jupyter_audit::netsim::rng::{split_seed, SimRng};
use jupyter_audit::netsim::time::{Duration, SimTime};
use std::time::Instant;

use crate::hostspeed::{HostSpeed, Timed};
use crate::ledger::{secs, traced_streamed, Fingerprint, Quality};
use crate::record::{Checks, EndToEnd, Outcome, Recorder};
use crate::{Options, Size};

/// The pipeline configuration: the inline engine over a hardened fleet.
pub fn config(size: Size, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers: size.pick(16, 2),
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    cfg.shards = Some(1);
    cfg.producers = Some(1);
    cfg
}

/// The campaign list, made from the seed: benign sessions at random
/// starts over the horizon, the two attacks in its middle half.
pub fn campaigns(cfg: &PipelineConfig, size: Size, seed: u64) -> Vec<(SimTime, Campaign)> {
    let dep = Deployment::build(&cfg.deployment);
    let mut rng = SimRng::new(split_seed(seed, 1));
    let horizon = Duration::from_secs(4 * 3600).as_micros();
    let mut out = Vec::new();
    for s in 0..dep.production_count() {
        let user = dep.owner_of(s).to_string();
        for _ in 0..size.pick(4, 1) {
            let start = SimTime(rng.range(0, horizon));
            out.push((
                start,
                session(s, &user, &BenignProfile::default(), &mut rng),
            ));
        }
    }
    for (i, class) in [AttackClass::DataExfiltration, AttackClass::Cryptomining]
        .into_iter()
        .enumerate()
    {
        let server = i % dep.production_count();
        let start = SimTime(rng.range(horizon / 4, horizon / 2));
        out.push((start, attack(class, &dep, server, &mut rng)));
    }
    out
}

/// One attack campaign of `class` on `server`. Data exfiltration is
/// always the bulk variant (a 500 MB model checkpoint, snapped in the
/// capture): the mixer picks one of three variants at random, and
/// their costs and memory differ so much that the variant, not the
/// program, would set a run's numbers.
pub fn attack(class: AttackClass, dep: &Deployment, server: usize, rng: &mut SimRng) -> Campaign {
    match class {
        AttackClass::DataExfiltration => exfiltration::campaign(
            server,
            dep.owner_of(server),
            &ExfilParams {
                variant: ExfilVariant::Bulk,
                total_bytes: 500_000_000,
                ..Default::default()
            },
        ),
        _ => build_attack(class, dep, server, rng),
    }
}

/// One repetition: set-up and streamed run, each timed.
struct Cycle {
    setup_s: f64,
    pass_s: f64,
    segments: u64,
    fingerprint: Fingerprint,
    quality: Quality,
}

fn cycle(cfg: &PipelineConfig, campaigns: &[(SimTime, Campaign)], seed: u64) -> Cycle {
    let (cfg, campaigns) = (cfg.clone(), campaigns.to_vec());
    let t = Instant::now();
    let mut pipeline = Pipeline::new(cfg);
    let setup_s = secs(t);
    let t = Instant::now();
    let out = pipeline.run_campaigns_streamed(campaigns, seed);
    let pass_s = secs(t);
    Cycle {
        setup_s,
        pass_s,
        segments: out.monitor_stats.segments,
        fingerprint: Fingerprint::of(&out.report),
        quality: Quality::of(&out.report),
    }
}

/// Run the workload.
pub fn run(o: &Options) -> Outcome {
    let cfg = config(o.size, o.seed);
    let campaigns = campaigns(&cfg, o.size, o.seed);
    let mut rec = Recorder::default();
    let mut notes = vec![format!(
        "{} servers, {} campaigns",
        cfg.deployment.servers,
        campaigns.len()
    )];
    // Warm-up: fills caches and the allocator; checked, not timed.
    let warm = cycle(&cfg, &campaigns, o.seed);
    let mut outputs = vec![("warm-up", warm.fingerprint.clone())];
    let lp = o.deadline();
    if o.traced {
        let mut done = 0;
        while lp.more(done) {
            let plain = cycle(&cfg, &campaigns, o.seed);
            let input = campaigns.clone();
            let t = Instant::now();
            let (report, layers) = traced_streamed(&cfg, input, o.seed);
            let wall = secs(t);
            layers.record(&mut rec, wall);
            rec.add("ledger.overhead", wall / (plain.setup_s + plain.pass_s));
            outputs.push(("untraced", plain.fingerprint));
            outputs.push(("traced", Fingerprint::of(&report)));
            done += 1;
        }
        notes.push(format!("{done} traced and {done} untraced cycles"));
    } else {
        let mut e2e = EndToEnd::default();
        let mut speed = HostSpeed::start();
        while lp.more(e2e.epochs.len()) {
            let at = speed.mark();
            let c = cycle(&cfg, &campaigns, o.seed);
            let timed = |secs| Timed { secs, at };
            e2e.setup.push(timed(c.setup_s));
            e2e.epochs.push(timed(c.pass_s));
            e2e.rates.push((c.segments, vec![timed(c.pass_s)]));
            // A batch run keeps no durable state: recovering from a
            // crash is building the pipeline and running it again.
            e2e.recovery.push(timed(c.setup_s + c.pass_s));
            e2e.quality = c.quality;
            outputs.push(("run", c.fingerprint));
        }
        notes.push(format!("{} segments per epoch", warm.segments));
        e2e.record(&mut rec, &mut notes, &speed.finish());
    }
    // The reference is computed after the measured loop so that its
    // materialized capture does not raise the measured peak memory.
    let reference = {
        let mut p = Pipeline::new(cfg.clone());
        Fingerprint::of(&p.run_campaigns(campaigns, o.seed).report)
    };
    let mut checks = Checks::default();
    for (what, fp) in outputs {
        checks.check(fp == reference, || {
            format!("{what} output {fp:?} differs from the batch reference {reference:?}")
        });
    }
    Outcome {
        workload: "fleet_mix",
        seed: o.seed,
        traced: o.traced,
        checks,
        metrics: rec.summarize(o.traced),
        notes,
    }
}
