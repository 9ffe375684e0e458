//! Virtual filesystem with realistic content statistics.
//!
//! Ransomware detection hinges on byte statistics: a scientist's CSV has
//! ~4-5 bits/byte entropy, model weights ~7.5, ChaCha ciphertext ~8.0.
//! Files here carry a materialized *sample* of their content (plus a
//! nominal size), generated deterministically per content kind, so the
//! detectors compute genuine statistics rather than reading a label.

use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_netsim::rng::SimRng;
use ja_netsim::time::SimTime;
use std::collections::BTreeMap;

/// Content archetypes for generated files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContentKind {
    /// Source code / notebooks / plain text (low entropy).
    Text,
    /// CSV/TSV numeric data (low-mid entropy).
    Csv,
    /// Floating-point model weights / binary arrays (high entropy, but
    /// structured — below ciphertext).
    ModelWeights,
    /// Compressed archive (near-ciphertext entropy; the detector's known
    /// false-positive source).
    Archive,
    /// Ciphertext (what ransomware leaves behind).
    Encrypted,
}

/// How many content bytes are materialized per file for statistics.
pub const SAMPLE_LEN: usize = 1024;

/// Generate a deterministic content sample of `kind`.
pub fn generate_sample(kind: ContentKind, rng: &mut SimRng) -> Vec<u8> {
    match kind {
        ContentKind::Text => repeat_to_len(
            b"import numpy as np\n# compute spectral density\nfor i in range(N):\n    psd[i] = fft(x[i])\n",
            SAMPLE_LEN,
        ),
        ContentKind::Csv => {
            // Lines of `{id},{:.4},{:.4}`, written digit by digit; the
            // longest line is 22 bytes, so the buffer never regrows.
            let mut out = Vec::with_capacity(SAMPLE_LEN + 32);
            while out.len() < SAMPLE_LEN {
                push_u64(&mut out, rng.range(0, 100000));
                out.push(b',');
                push_fixed4(&mut out, rng.f64() * 100.0);
                out.push(b',');
                push_fixed4(&mut out, rng.f64());
                out.push(b'\n');
            }
            out.truncate(SAMPLE_LEN);
            out
        }
        ContentKind::ModelWeights => {
            let mut out = Vec::with_capacity(SAMPLE_LEN);
            while out.len() < SAMPLE_LEN {
                // f32 little-endian weights around zero: exponent bytes
                // repeat, mantissa bytes are noisy — entropy ≈ 6-7.5.
                let w = (rng.gaussian() * 0.05) as f32;
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.truncate(SAMPLE_LEN);
            out
        }
        ContentKind::Archive | ContentKind::Encrypted => {
            let mut seed = [0u8; 16];
            rng.fill_bytes(&mut seed);
            ChaCha20::from_seed(&seed).keystream(SAMPLE_LEN)
        }
    }
}

/// `pattern` repeated back to back and cut to `len` bytes (`pattern`
/// must not be empty).
pub(crate) fn repeat_to_len(pattern: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let take = pattern.len().min(len - out.len());
        out.extend_from_slice(&pattern[..take]);
    }
    out
}

/// Append the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `x` with four decimals, byte for byte as `format!("{x:.4}")`
/// writes it: the exact binary value times 10⁴, rounded half to even.
///
/// Defined for `0 <= x < 1e15` (non-negative zero included); panics
/// outside that range.
pub fn push_fixed4(out: &mut Vec<u8>, x: f64) {
    assert!(
        x.is_sign_positive() && x < 1e15,
        "push_fixed4 needs 0 <= x < 1e15, got {x}"
    );
    // x = m · 2^e exactly, with m < 2^53.
    let bits = x.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), biased - 1075)
    };
    // x < 1e15 < 2^50 and m >= 2^52 for normal x, so x = m / 2^s with
    // s >= 3, and x·10⁴ = n / 2^s.
    let s = (-e) as u32;
    let n = u128::from(m) * 10_000;
    let scaled = if s > 100 {
        // n < 2^67 is below half a unit: rounds to zero.
        0
    } else {
        let q = n >> s;
        let r = n & ((1 << s) - 1);
        let half = 1 << (s - 1);
        if r > half || (r == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    // x < 1e15 keeps x·10⁴ below 2^64.
    let scaled = scaled as u64;
    push_u64(out, scaled / 10_000);
    let f = (scaled % 10_000) as u16;
    out.extend_from_slice(&[
        b'.',
        b'0' + (f / 1000) as u8,
        b'0' + (f / 100 % 10) as u8,
        b'0' + (f / 10 % 10) as u8,
        b'0' + (f % 10) as u8,
    ]);
}

/// A file in the virtual filesystem.
#[derive(Clone, Debug)]
pub struct FileNode {
    /// Nominal size in bytes (sample is only [`SAMPLE_LEN`]).
    pub size: u64,
    /// Materialized content sample.
    pub sample: Vec<u8>,
    /// Content archetype at creation.
    pub kind: ContentKind,
    /// Owner username.
    pub owner: String,
    /// Last modification time.
    pub mtime: SimTime,
}

impl FileNode {
    /// Shannon entropy of the sample.
    pub fn entropy_bits(&self) -> f64 {
        ByteStats::from_bytes(&self.sample).shannon_bits()
    }
}

/// Filesystem operation outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfsError {
    /// Path not present.
    NotFound,
    /// Path already present (create collision).
    Exists,
}

/// The virtual filesystem of one server.
#[derive(Clone, Debug, Default)]
pub struct Vfs {
    files: BTreeMap<String, FileNode>,
}

impl Vfs {
    /// Empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Populate a home directory with a realistic scientific workspace:
    /// notebooks, datasets, model checkpoints, archives.
    pub fn populate_home(&mut self, user: &str, rng: &mut SimRng, now: SimTime) {
        let spec: &[(&str, ContentKind, u64, u64)] = &[
            ("analysis.ipynb", ContentKind::Text, 20_000, 3),
            ("notes.md", ContentKind::Text, 4_000, 2),
            ("data/run_{}.csv", ContentKind::Csv, 5_000_000, 8),
            ("data/obs_{}.csv", ContentKind::Csv, 12_000_000, 4),
            (
                "models/ckpt_{}.bin",
                ContentKind::ModelWeights,
                400_000_000,
                3,
            ),
            (
                "models/weights_{}.npy",
                ContentKind::ModelWeights,
                80_000_000,
                2,
            ),
            (
                "archive/backup_{}.tar.gz",
                ContentKind::Archive,
                900_000_000,
                1,
            ),
            (
                "archive/rawdata_{}.tar.gz",
                ContentKind::Archive,
                2_000_000_000,
                1,
            ),
        ];
        for (pattern, kind, size, count) in spec {
            for i in 0..*count {
                let rel = pattern.replace("{}", &i.to_string());
                let path = format!("/home/{user}/{rel}");
                let jitter = 1.0 + 0.2 * rng.gaussian().clamp(-2.0, 2.0);
                let node = FileNode {
                    size: ((*size as f64) * jitter).max(128.0) as u64,
                    sample: generate_sample(*kind, rng),
                    kind: *kind,
                    owner: user.to_string(),
                    mtime: now,
                };
                self.files.insert(path, node);
            }
        }
    }

    /// Create a file.
    pub fn create(
        &mut self,
        path: &str,
        kind: ContentKind,
        size: u64,
        owner: &str,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Result<(), VfsError> {
        if self.files.contains_key(path) {
            return Err(VfsError::Exists);
        }
        self.files.insert(
            path.to_string(),
            FileNode {
                size,
                sample: generate_sample(kind, rng),
                kind,
                owner: owner.to_string(),
                mtime: now,
            },
        );
        Ok(())
    }

    /// Create a file with explicit content bytes (no RNG draw) — used for
    /// provisioned artifacts whose *text* matters, like credentials and
    /// peer lists an interactive adversary reads back through a terminal.
    /// The nominal size equals the sample length.
    pub fn create_with_sample(
        &mut self,
        path: &str,
        kind: ContentKind,
        sample: Vec<u8>,
        owner: &str,
        now: SimTime,
    ) -> Result<(), VfsError> {
        if self.files.contains_key(path) {
            return Err(VfsError::Exists);
        }
        self.files.insert(
            path.to_string(),
            FileNode {
                size: sample.len() as u64,
                sample,
                kind,
                owner: owner.to_string(),
                mtime: now,
            },
        );
        Ok(())
    }

    /// Read a file node.
    pub fn read(&self, path: &str) -> Result<&FileNode, VfsError> {
        self.files.get(path).ok_or(VfsError::NotFound)
    }

    /// Overwrite a file's content in place with ciphertext — the
    /// ransomware primitive. The sample really is encrypted with ChaCha20
    /// keyed by `key_seed`, so entropy genuinely jumps.
    pub fn encrypt_in_place(
        &mut self,
        path: &str,
        key_seed: &[u8],
        now: SimTime,
    ) -> Result<(), VfsError> {
        let node = self.files.get_mut(path).ok_or(VfsError::NotFound)?;
        let mut cipher = ChaCha20::from_seed(key_seed);
        cipher.apply(&mut node.sample);
        node.kind = ContentKind::Encrypted;
        node.mtime = now;
        Ok(())
    }

    /// Rename (ransomware extension churn: `x.csv` → `x.csv.locked`).
    pub fn rename(&mut self, from: &str, to: &str, now: SimTime) -> Result<(), VfsError> {
        if self.files.contains_key(to) {
            return Err(VfsError::Exists);
        }
        let mut node = self.files.remove(from).ok_or(VfsError::NotFound)?;
        node.mtime = now;
        self.files.insert(to.to_string(), node);
        Ok(())
    }

    /// Delete a file.
    pub fn delete(&mut self, path: &str) -> Result<FileNode, VfsError> {
        self.files.remove(path).ok_or(VfsError::NotFound)
    }

    /// All paths under a prefix (lexicographic).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Total nominal bytes under a prefix.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.list(prefix).iter().map(|p| self.files[p].size).sum()
    }

    /// File count.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Is the filesystem empty?
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    #[test]
    fn content_kinds_have_expected_entropy_ordering() {
        let mut r = rng();
        let text =
            ByteStats::from_bytes(&generate_sample(ContentKind::Text, &mut r)).shannon_bits();
        let csv = ByteStats::from_bytes(&generate_sample(ContentKind::Csv, &mut r)).shannon_bits();
        let weights = ByteStats::from_bytes(&generate_sample(ContentKind::ModelWeights, &mut r))
            .shannon_bits();
        let cipher =
            ByteStats::from_bytes(&generate_sample(ContentKind::Encrypted, &mut r)).shannon_bits();
        assert!(text < 5.0, "text {text}");
        assert!(csv < 5.5, "csv {csv}");
        assert!(weights > csv, "weights {weights} vs csv {csv}");
        assert!(cipher > 7.5, "cipher {cipher}");
        assert!(weights < cipher, "weights {weights} vs cipher {cipher}");
    }

    #[test]
    fn populate_home_creates_workspace() {
        let mut vfs = Vfs::new();
        vfs.populate_home("alice", &mut rng(), SimTime::ZERO);
        assert!(vfs.len() >= 20);
        assert!(!vfs.list("/home/alice/data/").is_empty());
        assert!(!vfs.list("/home/alice/models/").is_empty());
        assert!(vfs.bytes_under("/home/alice/") > 1_000_000_000);
        assert!(vfs.list("/home/bob/").is_empty());
    }

    #[test]
    fn encryption_raises_entropy() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create(
            "/home/a/data.csv",
            ContentKind::Csv,
            1000,
            "a",
            &mut r,
            SimTime::ZERO,
        )
        .unwrap();
        let before = vfs.read("/home/a/data.csv").unwrap().entropy_bits();
        vfs.encrypt_in_place("/home/a/data.csv", b"ransom-key", SimTime::from_secs(1))
            .unwrap();
        let node = vfs.read("/home/a/data.csv").unwrap();
        assert!(node.entropy_bits() > before + 2.0);
        assert_eq!(node.kind, ContentKind::Encrypted);
        assert_eq!(node.mtime, SimTime::from_secs(1));
    }

    #[test]
    fn rename_and_delete() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/x.csv", ContentKind::Csv, 10, "a", &mut r, SimTime::ZERO)
            .unwrap();
        vfs.rename("/x.csv", "/x.csv.locked", SimTime::from_secs(1))
            .unwrap();
        assert!(matches!(vfs.read("/x.csv"), Err(VfsError::NotFound)));
        assert!(vfs.read("/x.csv.locked").is_ok());
        vfs.delete("/x.csv.locked").unwrap();
        assert!(vfs.is_empty());
    }

    #[test]
    fn create_collision_rejected() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO),
            Err(VfsError::Exists)
        );
    }

    #[test]
    fn rename_collision_rejected() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        vfs.create("/b", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        assert_eq!(vfs.rename("/a", "/b", SimTime::ZERO), Err(VfsError::Exists));
        assert_eq!(
            vfs.rename("/zz", "/c", SimTime::ZERO),
            Err(VfsError::NotFound)
        );
    }

    #[test]
    fn list_prefix_boundaries() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        for p in ["/home/a/1", "/home/a/2", "/home/ab/3", "/home/b/4"] {
            vfs.create(p, ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(vfs.list("/home/a/"), vec!["/home/a/1", "/home/a/2"]);
        assert_eq!(vfs.list("/home/ab"), vec!["/home/ab/3"]);
    }
}
