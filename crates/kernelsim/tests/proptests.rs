//! Property tests for the deployment substrate.

use ja_kernelsim::actions::{Action, CellScript};
use ja_kernelsim::config::{MisconfigClass, ServerConfig, TransportMode};
use ja_kernelsim::process::ProcessTable;
use ja_kernelsim::server::{message_cipher_seed, NotebookServer};
use ja_kernelsim::vfs::{generate_sample, push_fixed4, ContentKind, Vfs, SAMPLE_LEN};
use ja_netsim::addr::{HostAddr, HostId};
use ja_netsim::network::Network;
use ja_netsim::rng::SimRng;
use ja_netsim::segment::Direction;
use ja_netsim::time::SimTime;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        Just(ContentKind::Text),
        Just(ContentKind::Csv),
        Just(ContentKind::ModelWeights),
        Just(ContentKind::Archive),
        Just(ContentKind::Encrypted),
    ]
}

/// The `format!`-based CSV sample generator the digit writer replaced,
/// kept as the oracle it must match byte for byte.
fn csv_sample_oracle(rng: &mut SimRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(SAMPLE_LEN);
    while out.len() < SAMPLE_LEN {
        let line = format!(
            "{},{:.4},{:.4}\n",
            rng.range(0, 100000),
            rng.f64() * 100.0,
            rng.f64()
        );
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(SAMPLE_LEN);
    out
}

fn fixed4(x: f64) -> String {
    let mut out = Vec::new();
    push_fixed4(&mut out, x);
    String::from_utf8(out).expect("ASCII digits")
}

/// Zero, subnormals, the normal boundary and exact ties written out.
#[test]
fn fixed4_edge_cases_match_std() {
    for x in [
        0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        0.00005,
        0.00015,
        0.03125,
        0.09375,
        0.5,
        99.99995,
        99.999_999_999,
        999_999.999_95,
        1e15 - 0.125,
    ] {
        assert_eq!(fixed4(x), format!("{x:.4}"), "{x:e}");
    }
    assert_eq!(fixed4(0.03125), "0.0312");
    assert_eq!(fixed4(0.09375), "0.0938");
}

/// The text sample is its corpus repeated and cut to the sample length.
#[test]
fn text_sample_repeats_corpus() {
    let corpus = b"import numpy as np\n# compute spectral density\nfor i in range(N):\n    psd[i] = fft(x[i])\n";
    let want: Vec<u8> = corpus.iter().cycle().take(SAMPLE_LEN).copied().collect();
    assert_eq!(
        generate_sample(ContentKind::Text, &mut SimRng::new(0)),
        want
    );
}

proptest! {
    /// The digit writer equals `format!("{:.4}")` on every non-negative
    /// double below 1e6, drawn as raw bit patterns (positive doubles
    /// order like their bits, so this covers zero and subnormals too).
    #[test]
    fn fixed4_matches_std_on_bit_patterns(
        bits in proptest::collection::vec(0u64..1e6f64.to_bits(), 1..256)) {
        for b in bits {
            let x = f64::from_bits(b);
            prop_assert_eq!(fixed4(x), format!("{x:.4}"));
        }
    }

    /// Exact binary fractions `k / 2^n` put half-way cases in the fifth
    /// decimal; both round half to even.
    #[test]
    fn fixed4_matches_std_on_ties(
        ks in proptest::collection::vec((0u64..1 << 24, 0i32..40), 1..256)) {
        for (k, n) in ks {
            let x = k as f64 / 2f64.powi(n);
            prop_assert_eq!(fixed4(x), format!("{x:.4}"));
        }
    }

    /// A CSV sample from the digit writer equals one from the old
    /// `format!` generator, and both leave the RNG at the same point.
    #[test]
    fn csv_sample_matches_format_oracle(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        prop_assert_eq!(generate_sample(ContentKind::Csv, &mut a), csv_sample_oracle(&mut b));
        prop_assert_eq!(a.state(), b.state());
    }

    /// Any sequence of create/rename/delete keeps the VFS consistent:
    /// successful reads only on live paths, file count matches the model.
    #[test]
    fn vfs_model_consistency(ops in proptest::collection::vec(
        (0u8..4, 0usize..8, 0usize..8, arb_kind()), 1..64)) {
        let mut vfs = Vfs::new();
        let mut model: std::collections::BTreeSet<String> = Default::default();
        let mut rng = SimRng::new(1);
        let path = |i: usize| format!("/w/f{i}");
        for (op, a, b, kind) in ops {
            match op {
                0 => {
                    let p = path(a);
                    let r = vfs.create(&p, kind, 100, "u", &mut rng, SimTime::ZERO);
                    prop_assert_eq!(r.is_ok(), !model.contains(&p));
                    model.insert(p);
                }
                1 => {
                    let (from, to) = (path(a), path(b));
                    let r = vfs.rename(&from, &to, SimTime::ZERO);
                    let expect = model.contains(&from) && !model.contains(&to);
                    prop_assert_eq!(r.is_ok(), expect, "rename {} -> {}", from, to);
                    if expect {
                        model.remove(&from);
                        model.insert(to);
                    }
                }
                2 => {
                    let p = path(a);
                    let r = vfs.delete(&p);
                    prop_assert_eq!(r.is_ok(), model.remove(&p));
                }
                _ => {
                    let p = path(a);
                    prop_assert_eq!(vfs.read(&p).is_ok(), model.contains(&p));
                }
            }
        }
        prop_assert_eq!(vfs.len(), model.len());
        for p in &model {
            prop_assert!(vfs.read(p).is_ok());
        }
    }

    /// Encrypting any file raises (or keeps) its entropy and marks it.
    #[test]
    fn vfs_encrypt_monotone_entropy(kind in arb_kind(), seed in any::<u64>()) {
        let mut vfs = Vfs::new();
        let mut rng = SimRng::new(seed);
        vfs.create("/f", kind, 1000, "u", &mut rng, SimTime::ZERO).unwrap();
        let before = vfs.read("/f").unwrap().entropy_bits();
        vfs.encrypt_in_place("/f", &seed.to_le_bytes(), SimTime::ZERO).unwrap();
        let node = vfs.read("/f").unwrap();
        prop_assert!(node.entropy_bits() > 7.0 || before > 7.0);
        prop_assert_eq!(node.kind, ContentKind::Encrypted);
    }

    /// Misconfiguration count is monotone in rate on average, and every
    /// sampled config's findings are a subset of the 9 classes.
    #[test]
    fn config_sampling_valid(rate in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let c = ServerConfig::sample(&mut rng, rate);
        let m = c.misconfigurations();
        prop_assert!(m.len() <= MisconfigClass::ALL.len());
        let set: std::collections::HashSet<_> = m.iter().collect();
        prop_assert_eq!(set.len(), m.len(), "duplicate findings");
    }

    /// CPU accounting: total CPU across processes equals the sum of
    /// burns; utilization never exceeds burn/wall.
    #[test]
    fn process_cpu_conserved(burns in proptest::collection::vec(0.0f64..100.0, 1..20)) {
        let mut t = ProcessTable::new();
        let mut total = 0.0;
        for (i, &b) in burns.iter().enumerate() {
            let pid = t.spawn("p", "p", "u", None, SimTime::ZERO);
            t.burn_cpu(pid, b);
            total += b;
            let _ = i;
        }
        let sum: f64 = t.all().iter().map(|p| p.cpu_secs).sum();
        prop_assert!((sum - total).abs() < 1e-9);
    }

    /// Per-direction message numbering is collision-free: across any
    /// interleaving of cell and terminal exchanges (each putting traffic
    /// on the wire in both directions), every message's cipher-seed
    /// derivation `(direction, seq)` is unique — the property the old
    /// `messages_sent + 1_000_000` server-side numbering hack only held
    /// by accident for short sessions.
    #[test]
    fn wire_numbering_collision_free(
        ops in proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8)], 1..24),
        seed in any::<u64>(),
    ) {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = TransportMode::E2eEncrypted;
        let mut srv = NotebookServer::new(1, cfg, seed);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        let mut net = Network::new();
        let mut conn = srv.connect(
            &mut net, SimTime::ZERO, HostAddr::internal(HostId(200)), "alice", 0,
        );
        let mut t = SimTime::from_millis(10);
        let mut cells = 0u64;
        let mut terms = 0u64;
        let mut total_replies = 0u64;
        for op in ops {
            if op == 0 {
                let script = CellScript::new(
                    "print('x')",
                    vec![Action::Print { text: "x\n".into() }],
                );
                let d = srv.deliver_cell(&mut net, t, &mut conn, &script);
                total_replies += d.replies.len() as u64;
                cells += 1;
                t = d.end + ja_netsim::time::Duration::from_millis(1);
            } else {
                let d = srv.deliver_terminal(&mut net, t, &mut conn, "whoami");
                terms += 1;
                t = d.end + ja_netsim::time::Duration::from_millis(1);
            }
        }
        // Counters account for exactly one request per exchange upstream
        // and every reply (plus terminal echo) downstream.
        let (c2s, s2c) = conn.wire_counters();
        prop_assert_eq!(c2s, cells + terms);
        prop_assert_eq!(s2c, total_replies + terms);
        // Every (direction, seq) pair used so far derives a distinct
        // per-message cipher seed — including across directions, where
        // the raw seq values overlap.
        let base = b"conn-seed";
        let mut seen = std::collections::HashSet::new();
        for s in 0..c2s {
            prop_assert!(seen.insert(message_cipher_seed(base, s, Direction::ToResponder)));
        }
        for s in 0..s2c {
            prop_assert!(seen.insert(message_cipher_seed(base, s, Direction::ToInitiator)));
        }
        prop_assert_eq!(seen.len() as u64, c2s + s2c);
    }
}
