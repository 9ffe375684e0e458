//! A3 — per-message HMAC cost in the wire path, plus SHA-256/ChaCha20
//! throughput. The wire protocol signs every message; this bench bounds
//! the signing overhead the kernel pays per message size, both re-keying
//! per message (one-shot) and with the session's prekeyed MAC.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ja_crypto::chacha::ChaCha20;
use ja_crypto::hmac::{hmac_sha256, HmacSha256};
use ja_crypto::sha256::sha256;
use std::hint::black_box;

fn bench_hmac_sizes(c: &mut Criterion) {
    let key = b"jupyter-session-signing-key";
    let mut group = c.benchmark_group("a3_hmac_per_message");
    for size in [64usize, 512, 1024, 16 * 1024, 256 * 1024, 1024 * 1024] {
        let msg = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &msg, |b, m| {
            b.iter(|| black_box(hmac_sha256(key, black_box(m))))
        });
    }
    group.finish();
}

fn bench_hmac_prekeyed(c: &mut Criterion) {
    let mac = HmacSha256::new(b"jupyter-session-signing-key");
    let mut group = c.benchmark_group("a3_hmac_prekeyed_per_message");
    for size in [64usize, 512] {
        let msg = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &msg, |b, m| {
            b.iter(|| black_box(mac.sign_parts(&[black_box(m)])))
        });
    }
    group.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0x5au8; 64 * 1024];
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("64KiB", |b| b.iter(|| black_box(sha256(black_box(&data)))));
    group.finish();
}

fn bench_chacha(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha20");
    let data = vec![0u8; 64 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("encrypt_64KiB", |b| {
        b.iter(|| {
            let mut cipher = ChaCha20::from_seed(b"bench");
            black_box(cipher.encrypt(black_box(&data)))
        })
    });
    group.bench_function("keystream_64KiB", |b| {
        b.iter(|| {
            let mut cipher = ChaCha20::from_seed(b"bench");
            black_box(cipher.keystream(black_box(data.len())))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hmac_sizes,
    bench_hmac_prekeyed,
    bench_sha256,
    bench_chacha
);
criterion_main!(benches);
