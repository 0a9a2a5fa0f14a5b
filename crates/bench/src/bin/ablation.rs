//! Ablation studies for the design choices called out in ARCHITECTURE.md,
//! "`crates/memprot` → §III":
//!
//! 1. BP's sensitivity to its on-chip metadata cache size (GuardNN has no
//!    such cache to size — its VNs are a handful of registers).
//! 2. GuardNN_CI MAC granularity (the paper matches it to the
//!    accelerator's 512-byte write granularity).
//! 3. Systolic dataflow (WS / OS / IS) compute cycles.
//!
//! Ablations 1 and 2 fan their independent simulation points across the
//! `guardnn::perf` worker pool.
//!
//! Run with
//! `cargo run --release -p guardnn-bench --bin ablation -- [--target NAME]... [--all-targets]`
//! (`--target`/`--all-targets` pick the hardware points from the
//! registry, default `guardnn-paper`).

use guardnn::perf::{evaluate_batch, EvalConfig, EvalJob, Mode, Parallelism, Scheme};
use guardnn_bench::{announce_pool, announce_target, f, select_targets, Table};
use guardnn_memprot::baseline::MeeConfig;
use guardnn_memprot::guardnn::{GuardNnConfig, GuardNnEngine, Protection};
use guardnn_memprot::harness::run_protected_streaming;
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::zoo;
use guardnn_systolic::{simulate_gemm, ArrayConfig, Dataflow, TraceBuilder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parallelism = Parallelism::Auto;
    let net = zoo::resnet50();

    for target in select_targets(&args) {
        announce_target(target);
        let base = EvalConfig::from_target(target);

        // 1. BP metadata-cache sweep: NP once, then BP per cache size.
        println!("\nAblation 1 — BP metadata cache size (ResNet-50 inference)\n");
        let cache_kib = [8u64, 16, 32, 64, 128, 256];
        let mut jobs = vec![EvalJob {
            network: &net,
            mode: Mode::Inference,
            scheme: Scheme::NoProtection,
            cfg: base,
        }];
        jobs.extend(cache_kib.iter().map(|&kib| EvalJob {
            network: &net,
            mode: Mode::Inference,
            scheme: Scheme::Baseline,
            cfg: EvalConfig {
                mee: MeeConfig {
                    cache_bytes: kib << 10,
                    ..MeeConfig::default()
                },
                ..base
            },
        }));
        announce_pool("evaluations", jobs.len(), parallelism);
        let results = evaluate_batch(parallelism, &jobs);
        let (np, bp_runs) = (&results[0], &results[1..]);
        let mut t = Table::new(vec!["cache (KiB)", "traffic increase %", "normalized time"]);
        for (kib, bp) in cache_kib.iter().zip(bp_runs) {
            t.row(vec![
                kib.to_string(),
                f(bp.traffic_increase() * 100.0, 2),
                f(bp.normalized_to(np), 4),
            ]);
        }
        t.print();
        println!("(GuardNN needs no metadata cache at all: its VNs are on-chip registers.)");

        // 2. GuardNN MAC granularity sweep over a shared layout. Each point
        // regenerates the (identical) trace on the fly — stream generation is
        // pure counter math, so re-deriving it costs less than buffering it.
        println!("\nAblation 2 — GuardNN_CI MAC granularity (ResNet-50 inference)\n");
        let plan = ExecutionPlan::inference(&net);
        let array = base.array;
        let tb = TraceBuilder::new(array, &plan);
        let chunks = [64u64, 128, 256, 512, 1024, 4096];
        announce_pool("MAC-granularity points", chunks.len(), parallelism);
        let summaries = parallelism.run(chunks.len(), |i| {
            let cfg = GuardNnConfig {
                protection: Protection::ConfidentialityIntegrity,
                mac_chunk_bytes: chunks[i],
                ..Default::default()
            };
            let mut engine = GuardNnEngine::new(tb.footprint(), cfg);
            run_protected_streaming(
                tb.stream(&plan),
                &mut engine,
                base.dram,
                array.clock_mhz,
                base.channel_mode,
            )
        });
        let mut t = Table::new(vec!["MAC chunk (B)", "traffic increase %"]);
        for (chunk, summary) in chunks.iter().zip(&summaries) {
            t.row(vec![
                chunk.to_string(),
                f(summary.traffic_increase() * 100.0, 2),
            ]);
        }
        t.print();
        println!("(The paper picks 512 B — the prototype accelerator's write granularity.)");

        // 3. Dataflow comparison on this target's array geometry.
        println!("\nAblation 3 — systolic dataflow compute cycles (relative to WS)\n");
        let mut t = Table::new(vec!["network", "WS", "OS", "IS"]);
        for net in [zoo::alexnet(), zoo::resnet50(), zoo::bert_base()] {
            let cycles = |dataflow: Dataflow| -> u64 {
                let cfg = ArrayConfig {
                    dataflow,
                    ..base.array
                };
                let plan = ExecutionPlan::inference(&net);
                plan.passes()
                    .iter()
                    .filter_map(|p| plan.gemm(p))
                    .map(|g| simulate_gemm(&cfg, g).cycles)
                    .sum()
            };
            let ws = cycles(Dataflow::WeightStationary);
            let os = cycles(Dataflow::OutputStationary);
            let is = cycles(Dataflow::InputStationary);
            t.row(vec![
                net.name().to_string(),
                "1.000".to_string(),
                f(os as f64 / ws as f64, 3),
                f(is as f64 / ws as f64, 3),
            ]);
        }
        t.print();
    }
}
