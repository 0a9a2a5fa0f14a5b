//! Criterion benches of the protection engines themselves and an
//! end-to-end protected run on a small network — the ablation bench for
//! the VN-scheme design choice and MAC granularity (ARCHITECTURE.md,
//! "`crates/memprot` → §III").
// The criterion_group! macro expands to undocumented glue functions,
// which the workspace-level missing_docs deny would otherwise reject.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use guardnn::perf::{evaluate, EvalConfig, Mode, Scheme};
use guardnn_memprot::baseline::BaselineMee;
use guardnn_memprot::guardnn::{GuardNnConfig, GuardNnEngine, Protection};
use guardnn_memprot::{ProtectionEngine, StreamClass};
use guardnn_models::layer::{conv, fc};
use guardnn_models::Network;
use std::hint::black_box;

const FOOTPRINT: u64 = 1 << 30;

/// Blocks per trace event in the engine benches: 4 KiB sweeps, every
/// fourth of them a write.
const EVENT_BLOCKS: u64 = 64;

/// Streams the event sweep through `engine` one block at a time.
fn stream_blocks(engine: &mut dyn ProtectionEngine, blocks: u64) -> usize {
    let mut meta = Vec::new();
    for b in 0..blocks {
        let write = (b / EVENT_BLOCKS).is_multiple_of(4);
        engine.on_access(b * 64, write, StreamClass::FeatureWrite, &mut meta);
    }
    meta.len() + engine.flush().len()
}

/// The same sweep driven as spans, the way the streaming harness drives
/// the engines.
fn stream_spans(engine: &mut dyn ProtectionEngine, blocks: u64) -> usize {
    let mut meta = Vec::new();
    for event in 0..blocks / EVENT_BLOCKS {
        let write = event.is_multiple_of(4);
        let end = (event + 1) * EVENT_BLOCKS;
        let mut b = event * EVENT_BLOCKS;
        while b < end {
            b += engine.on_span(b * 64, end - b, write, StreamClass::FeatureWrite, &mut meta);
        }
    }
    meta.len() + engine.flush().len()
}

fn bench_engines(c: &mut Criterion) {
    let blocks = 65_536u64;
    let mut g = c.benchmark_group("protection_engines");
    g.throughput(Throughput::Bytes(blocks * 64));
    g.bench_function("baseline_mee_4MiB", |b| {
        b.iter(|| {
            let mut e = BaselineMee::with_defaults(FOOTPRINT);
            black_box(stream_blocks(&mut e, blocks))
        })
    });
    g.bench_function("guardnn_ci_4MiB", |b| {
        b.iter(|| {
            let mut e = GuardNnEngine::confidentiality_and_integrity(FOOTPRINT);
            black_box(stream_blocks(&mut e, blocks))
        })
    });
    g.bench_function("baseline_mee_4MiB_spans", |b| {
        b.iter(|| {
            let mut e = BaselineMee::with_defaults(FOOTPRINT);
            black_box(stream_spans(&mut e, blocks))
        })
    });
    g.bench_function("guardnn_ci_4MiB_spans", |b| {
        b.iter(|| {
            let mut e = GuardNnEngine::confidentiality_and_integrity(FOOTPRINT);
            black_box(stream_spans(&mut e, blocks))
        })
    });
    g.finish();
}

/// Ablation: MAC granularity sweep (ARCHITECTURE.md, "`crates/memprot` →
/// §III"). Larger chunks →
/// fewer MAC lines touched per byte.
fn bench_mac_granularity(c: &mut Criterion) {
    let blocks = 65_536u64;
    let mut g = c.benchmark_group("mac_granularity");
    for chunk in [64u64, 128, 256, 512, 1024, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                let cfg = GuardNnConfig {
                    protection: Protection::ConfidentialityIntegrity,
                    mac_chunk_bytes: chunk,
                    ..Default::default()
                };
                let mut e = GuardNnEngine::new(FOOTPRINT, cfg);
                black_box(stream_blocks(&mut e, blocks))
            })
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let net = Network::new(
        "bench-net",
        vec![
            conv("c1", 32, 8, 16, 3, 1, 1),
            conv("c2", 32, 16, 16, 3, 1, 1),
            fc("f1", 1, 16 * 32 * 32, 256),
        ],
    );
    let cfg = EvalConfig::default();
    let mut g = c.benchmark_group("protected_run");
    g.sample_size(10);
    for scheme in Scheme::all() {
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &s| b.iter(|| black_box(evaluate(&net, Mode::Inference, s, &cfg))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_mac_granularity,
    bench_end_to_end
);
criterion_main!(benches);
