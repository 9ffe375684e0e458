//! E5 (criterion leg) — monitor analysis cost on a fixed mid-size
//! capture: sequential vs flow-sharded across the available cores, the
//! measured core of the paper's "unsustainable performance overhead"
//! lesson.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ja_monitor::engine::{Monitor, MonitorConfig};
use ja_monitor::streaming::{FanoutSpec, StreamingConfig};
use std::hint::black_box;

fn bench_monitor(c: &mut Criterion) {
    let trace = ja_bench::scaled_trace(8, 2, 42);
    let segments = trace.summary().segments;
    let monitor = Monitor::new(MonitorConfig::default());
    let mut group = c.benchmark_group("e5_overhead");
    group.sample_size(20);
    group.throughput(Throughput::Elements(segments));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(monitor.analyze(black_box(&trace))))
    });
    let fanout = FanoutSpec::with_shards(rayon::current_num_threads());
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                monitor.analyze_stream(fanout, StreamingConfig::batch(), |sink| {
                    for r in black_box(&trace).records() {
                        sink.accept(r.clone());
                    }
                }),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
