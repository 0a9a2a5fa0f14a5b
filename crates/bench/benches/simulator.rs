//! Criterion benches of the simulation substrates: DDR4 timing model,
//! systolic-array cycle model, and trace generation.
// The criterion_group! macro expands to undocumented glue functions,
// which the workspace-level missing_docs deny would otherwise reject.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use guardnn_dram::{DramConfig, DramSystem};
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::{zoo, Gemm};
use guardnn_systolic::{simulate_gemm, ArrayConfig, TraceBuilder};
use std::hint::black_box;

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    let blocks = 16_384u64;
    g.throughput(Throughput::Bytes(blocks * 64));
    g.bench_function("stream_1MiB", |b| {
        b.iter(|| {
            let mut sys = DramSystem::new(DramConfig::ddr4_2400_16gb());
            for i in 0..blocks {
                sys.access(i * 64, false);
            }
            black_box(sys.finish())
        })
    });
    g.bench_function("stream_with_conflicts_1MiB", |b| {
        // A sequential stream with every 8th access sent to a far region,
        // the shape of BP's interleaved metadata traffic: the channel
        // scheduler keeps leaving and re-entering its all-hit state.
        b.iter(|| {
            let mut sys = DramSystem::new(DramConfig::ddr4_2400_16gb());
            for i in 0..blocks {
                let addr = if i % 8 == 7 {
                    (1 << 33) + i * 8
                } else {
                    i * 64
                };
                sys.access(addr, false);
            }
            black_box(sys.finish())
        })
    });
    g.bench_function("scatter_1MiB", |b| {
        b.iter(|| {
            let mut sys = DramSystem::new(DramConfig::ddr4_2400_16gb());
            let mut addr = 0u64;
            for _ in 0..blocks {
                sys.access(addr % (1 << 34), false);
                addr += 8192 * 17 + 64;
            }
            black_box(sys.finish())
        })
    });
    g.finish();
}

fn bench_systolic(c: &mut Criterion) {
    let cfg = ArrayConfig::tpu_v1();
    c.bench_function("systolic/gemm_cycle_model", |b| {
        b.iter(|| {
            simulate_gemm(
                &cfg,
                black_box(Gemm {
                    m: 3136,
                    k: 1152,
                    n: 256,
                }),
            )
        })
    });
}

fn bench_trace(c: &mut Criterion) {
    let net = zoo::alexnet();
    let plan = ExecutionPlan::inference(&net);
    c.bench_function("trace/alexnet_inference", |b| {
        b.iter(|| {
            let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
            black_box(tb.build(&plan))
        })
    });
}

criterion_group!(benches, bench_dram, bench_systolic, bench_trace);
criterion_main!(benches);
