//! Trace → protection engine → DRAM simulation driver.
//!
//! Runs an accelerator trace through a protection engine, feeds data +
//! metadata accesses into the DDR4 model, and produces the quantities the
//! paper reports: memory-traffic increase and normalized execution time.
//!
//! Two drivers share the same accounting rules and are pinned bit-identical
//! by differential tests:
//!
//! * [`run_protected`] — the materialized oracle: consumes a fully built
//!   [`PlanTrace`] slice and drives the engine one 64-byte block at a
//!   time.
//! * [`run_protected_streaming`] — the production path: one loop pushes a
//!   [`TraceSource`] (e.g. [`guardnn_systolic::TraceStream`]) through the
//!   engine into the DDR4 model, handing the engine each event as spans of
//!   blocks ([`ProtectionEngine::on_span`]) and issuing its metadata
//!   behind the span's first block — optionally with one worker thread per
//!   DRAM channel ([`ChannelMode::Threaded`]). Peak memory is O(1) in the
//!   trace length.

use crate::{MetaAccess, ProtectionEngine, BLOCK_BYTES};
use guardnn_dram::{
    block_range, with_channel_workers_observed, ChannelMode, DramConfig, DramSink, DramStats,
    DramSystem,
};
use guardnn_obs::Recorder;
use guardnn_systolic::{PlanTrace, TraceItem, TraceSource};

/// Result of one protected run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Engine name (`"NP"`, `"BP"`, `"GuardNN_C"`, `"GuardNN_CI"`).
    pub scheme: &'static str,
    /// Data bytes moved (same for every scheme on the same trace).
    pub data_bytes: u64,
    /// Metadata bytes the protection scheme added.
    pub meta_bytes: u64,
    /// Merged DRAM statistics.
    pub dram: DramStats,
    /// Accelerator compute cycles (from the systolic model).
    pub compute_cycles: u64,
    /// End-to-end execution time in nanoseconds: per-pass
    /// `max(compute, memory)` under double buffering.
    pub exec_ns: f64,
    /// Peak bytes of trace data buffered by the driver: the whole
    /// materialized trace for [`run_protected`], the generator's
    /// constant-size segment buffer for [`run_protected_streaming`].
    pub trace_buffer_bytes: u64,
}

impl RunSummary {
    /// Memory-traffic increase relative to the data traffic
    /// (`0.353` ⇒ "+35.3%", the paper's §III-C metric).
    pub fn traffic_increase(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.meta_bytes as f64 / self.data_bytes as f64
        }
    }

    /// Execution time normalized to a baseline run (Figure 3's y-axis).
    pub fn normalized_to(&self, baseline: &RunSummary) -> f64 {
        self.exec_ns / baseline.exec_ns
    }
}

/// Metadata write-backs buffered before draining to DRAM in one batch.
/// Memory controllers drain writes opportunistically in bursts; issuing
/// each dirty metadata eviction inline would charge an unrealistic bus
/// turnaround per line.
const META_WRITE_BATCH: usize = 32;

/// The engine's metadata accesses on their way to DRAM: reads go out
/// immediately (they gate decryption), writes are coalesced into sorted
/// batches.
#[derive(Default)]
struct MetaIssuer {
    pending_writes: Vec<u64>,
    /// Metadata reads and writes issued so far.
    reads: u64,
    writes: u64,
}

impl MetaIssuer {
    fn issue<S: DramSink>(&mut self, dram: &mut S, metas: &[MetaAccess]) {
        for m in metas {
            if m.write {
                self.writes += 1;
                self.pending_writes.push(m.addr);
                if self.pending_writes.len() >= META_WRITE_BATCH {
                    self.drain(dram);
                }
            } else {
                self.reads += 1;
                dram.access(m.addr, false);
            }
        }
    }

    /// Drains the buffered write-backs in address order.
    fn drain<S: DramSink>(&mut self, dram: &mut S) {
        self.pending_writes.sort_unstable();
        for addr in self.pending_writes.drain(..) {
            dram.access(addr, true);
        }
    }

    fn bytes(&self) -> u64 {
        (self.reads + self.writes) * BLOCK_BYTES
    }
}

/// Wall time of one pass under double buffering: the max of its compute
/// time and its `mem_cycles` of DRAM time.
fn pass_ns(mem_cycles: u64, compute_cycles: u64, dram_cfg: DramConfig, accel_mhz: u64) -> f64 {
    let mem_ns = mem_cycles as f64 * (1e3 / dram_cfg.clock_mhz as f64);
    let compute_ns = compute_cycles as f64 * (1e3 / accel_mhz as f64);
    mem_ns.max(compute_ns)
}

/// Runs `trace` under `engine` against the DDR4 model `dram_cfg`, with the
/// accelerator clocked at `accel_mhz`.
///
/// Each pass overlaps compute with memory (double buffering): its wall time
/// is the max of its compute time and its share of DRAM time. Metadata
/// *reads* (VN / tree / MAC fetches gate decryption) are interleaved with
/// the data stream at block granularity; metadata *writes* (dirty
/// evictions) are coalesced into batches, as a write-draining memory
/// controller would.
///
/// This is the materialized differential oracle for
/// [`run_protected_streaming`], which produces bit-identical results
/// without ever holding the trace. It drives the engine one block at a
/// time ([`ProtectionEngine::on_access`]), so it also pins the engines'
/// span coverage.
pub fn run_protected(
    trace: &PlanTrace,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
) -> RunSummary {
    let mut dram = DramSystem::new(dram_cfg);
    let mut meta = MetaIssuer::default();
    let mut metas = Vec::new();
    let mut data_bytes = 0u64;
    let mut exec_ns = 0.0;
    let mut prev_cycles = 0;
    let mut events = trace.events().iter().peekable();

    for (pass_idx, pass_perf) in trace.passes().iter().enumerate() {
        engine.on_pass_begin();
        while let Some(ev) = events.next_if(|ev| ev.pass == pass_idx) {
            for block in block_range(ev.addr, ev.bytes, BLOCK_BYTES) {
                let addr = block * BLOCK_BYTES;
                dram.access(addr, ev.write);
                data_bytes += BLOCK_BYTES;
                metas.clear();
                engine.on_access(addr, ev.write, ev.stream.into(), &mut metas);
                meta.issue(&mut dram, &metas);
            }
        }
        // Close out the pass: drain writes, checkpoint DRAM time.
        meta.drain(&mut dram);
        let cycles = dram.drain_stats().total_cycles;
        exec_ns += pass_ns(
            cycles - prev_cycles,
            pass_perf.compute_cycles,
            dram_cfg,
            accel_mhz,
        );
        prev_cycles = cycles;
    }

    // End-of-run metadata write-back.
    meta.issue(&mut dram, &engine.flush());
    meta.drain(&mut dram);
    let stats = dram.drain_stats();
    exec_ns += pass_ns(stats.total_cycles - prev_cycles, 0, dram_cfg, accel_mhz);
    RunSummary {
        scheme: engine.name(),
        data_bytes,
        meta_bytes: meta.bytes(),
        dram: stats,
        compute_cycles: trace.total_compute_cycles(),
        exec_ns,
        trace_buffer_bytes: trace.buffer_bytes(),
    }
}

/// Streaming counterpart of [`run_protected`]: pulls `trace` through
/// `engine` into the DDR4 model without materializing anything — peak
/// memory is the generator's constant-size state plus one metadata write
/// batch. With [`ChannelMode::Threaded`] the independent DRAM channels are
/// simulated on one scoped worker thread each, fed by bounded per-channel
/// demux queues. Results are bit-identical to [`run_protected`] on the
/// same trace in either mode.
pub fn run_protected_streaming<I: TraceSource>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    channels: ChannelMode,
) -> RunSummary {
    run_protected_streaming_observed(
        trace,
        engine,
        dram_cfg,
        accel_mhz,
        channels,
        Recorder::global().clone(),
    )
}

/// [`run_protected_streaming`] with an explicit metrics recorder: DRAM
/// channels report per-channel scheduler series and the driver reports
/// per-pass protection traffic. The recorder observes and never steers,
/// so the returned [`RunSummary`] is bit-identical to the unobserved run
/// (pinned by the `obs_differential` suite).
pub fn run_protected_streaming_observed<I: TraceSource>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    channels: ChannelMode,
    recorder: Recorder,
) -> RunSummary {
    match channels {
        ChannelMode::Serial => {
            let mut dram = DramSystem::with_recorder(dram_cfg, recorder.clone());
            stream_into(trace, engine, &mut dram, dram_cfg, accel_mhz, &recorder)
        }
        ChannelMode::Threaded => {
            with_channel_workers_observed(dram_cfg, recorder.clone(), |dram| {
                stream_into(trace, engine, dram, dram_cfg, accel_mhz, &recorder)
            })
        }
    }
}

/// Sink-generic variant of [`run_protected_streaming`]: drives the same
/// streaming pipeline into a caller-supplied [`DramSink`]. This is the
/// interposition point for the chaos harness, which wraps the sink in
/// `guardnn_dram::tamper::TamperingSink` to inject mid-stream faults —
/// and it is also what the channel-mode dispatch above is built on, so
/// the wrapped and unwrapped paths cannot diverge. (`dram_cfg` is still
/// needed for the DRAM-clock → nanosecond conversion.)
pub fn run_protected_streaming_into<I: TraceSource, S: DramSink>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
) -> RunSummary {
    stream_into(trace, engine, dram, dram_cfg, accel_mhz, Recorder::global())
}

/// Adds the protection traffic since the previous export — data blocks,
/// metadata reads, metadata writes, out of running `totals` — to the
/// `memprot.*` counters, and returns it.
fn export_traffic(rec: &Recorder, totals: [u64; 3], exported: &mut [u64; 3]) -> [u64; 3] {
    let [data, reads, writes] = std::array::from_fn(|i| totals[i] - exported[i]);
    *exported = totals;
    rec.add("memprot.blocks_data", data);
    rec.add("memprot.meta_reads", reads);
    rec.add("memprot.meta_writes", writes);
    [data, reads, writes]
}

/// Shared body of the streaming entry points above: one push loop over the
/// trace. Each event becomes a run of blocks, handed to the engine as
/// spans ([`ProtectionEngine::on_span`]); each span issues its first data
/// block, the metadata behind it, then the data blocks the engine covered
/// without metadata — the access order [`run_protected`] issues block by
/// block. Pass boundaries drain the write batch and checkpoint DRAM time;
/// the engine's end-of-run [`ProtectionEngine::flush`] follows the last
/// pass.
fn stream_into<I: TraceSource, S: DramSink>(
    mut trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    rec: &Recorder,
) -> RunSummary {
    let mut meta = MetaIssuer::default();
    let mut metas = Vec::new();
    let mut data_blocks = 0u64;
    let mut compute_cycles = 0u64;
    let mut exec_ns = 0.0;
    let mut prev_cycles = 0;
    // Whether `on_pass_begin` has run for the pass in progress.
    let mut pass_started = false;
    // Traffic already exported to the recorder, when it is enabled.
    let observe = rec.is_enabled();
    let mut exported = [0u64; 3];

    for item in trace.by_ref() {
        match item {
            TraceItem::Event(ev) => {
                if !pass_started {
                    engine.on_pass_begin();
                    pass_started = true;
                }
                let stream = ev.stream.into();
                let blocks = block_range(ev.addr, ev.bytes, BLOCK_BYTES);
                let mut block = blocks.start;
                while block < blocks.end {
                    metas.clear();
                    let addr = block * BLOCK_BYTES;
                    let covered =
                        engine.on_span(addr, blocks.end - block, ev.write, stream, &mut metas);
                    dram.access(addr, ev.write);
                    meta.issue(dram, &metas);
                    for b in block + 1..block + covered {
                        dram.access(b * BLOCK_BYTES, ev.write);
                    }
                    block += covered;
                }
                data_blocks += blocks.end - blocks.start;
            }
            TraceItem::PassEnd { pass, perf } => {
                // An empty pass still begins (engines advance per-pass
                // counters in `on_pass_begin`).
                if !pass_started {
                    engine.on_pass_begin();
                }
                pass_started = false;
                meta.drain(dram);
                let cycles = dram.drain_stats().total_cycles;
                let mem_cycles = cycles - prev_cycles;
                prev_cycles = cycles;
                exec_ns += pass_ns(mem_cycles, perf.compute_cycles, dram_cfg, accel_mhz);
                compute_cycles += perf.compute_cycles;
                if observe {
                    let totals = [data_blocks, meta.reads, meta.writes];
                    let [data, reads, writes] = export_traffic(rec, totals, &mut exported);
                    rec.event(
                        "memprot.pass",
                        &[
                            ("pass", &pass.to_string()),
                            ("data_blocks", &data.to_string()),
                            ("meta_reads", &reads.to_string()),
                            ("meta_writes", &writes.to_string()),
                            ("mem_cycles", &mem_cycles.to_string()),
                        ],
                    );
                }
            }
        }
    }

    // End-of-run tail: the engine's flushed write-backs.
    meta.issue(dram, &engine.flush());
    meta.drain(dram);
    let stats = dram.drain_stats();
    exec_ns += pass_ns(stats.total_cycles - prev_cycles, 0, dram_cfg, accel_mhz);
    if observe {
        export_traffic(rec, [data_blocks, meta.reads, meta.writes], &mut exported);
    }
    RunSummary {
        scheme: engine.name(),
        data_bytes: data_blocks * BLOCK_BYTES,
        meta_bytes: meta.bytes(),
        dram: stats,
        compute_cycles,
        exec_ns,
        trace_buffer_bytes: trace.buffer_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineMee;
    use crate::guardnn::GuardNnEngine;
    use crate::none::NoProtection;
    use guardnn_models::graph::ExecutionPlan;
    use guardnn_models::layer::{conv, fc};
    use guardnn_models::Network;
    use guardnn_systolic::{ArrayConfig, TraceBuilder};

    fn small_net() -> Network {
        Network::new(
            "small",
            vec![
                conv("c1", 32, 8, 16, 3, 1, 1),
                conv("c2", 32, 16, 16, 3, 1, 1),
                fc("f1", 1, 16 * 32 * 32, 100),
            ],
        )
    }

    fn small_trace() -> guardnn_systolic::PlanTrace {
        let plan = ExecutionPlan::inference(&small_net());
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        tb.build(&plan)
    }

    #[test]
    fn np_has_zero_metadata() {
        let trace = small_trace();
        let summary = run_protected(
            &trace,
            &mut NoProtection::new(),
            DramConfig::ddr4_2400_16gb(),
            700,
        );
        assert_eq!(summary.meta_bytes, 0);
        assert_eq!(summary.traffic_increase(), 0.0);
        assert!(summary.exec_ns > 0.0);
    }

    #[test]
    fn ordering_np_le_guardnn_le_bp() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let footprint = 1u64 << 30;
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        let gc = run_protected(
            &trace,
            &mut GuardNnEngine::confidentiality_only(footprint),
            cfg,
            700,
        );
        let gci = run_protected(
            &trace,
            &mut GuardNnEngine::confidentiality_and_integrity(footprint),
            cfg,
            700,
        );
        let bp = run_protected(&trace, &mut BaselineMee::with_defaults(footprint), cfg, 700);

        assert_eq!(gc.meta_bytes, 0);
        assert!(gci.meta_bytes > 0);
        assert!(bp.meta_bytes > gci.meta_bytes);
        assert!(np.exec_ns <= gci.exec_ns + 1e-6);
        assert!(gci.exec_ns <= bp.exec_ns);
        assert!(bp.traffic_increase() > gci.traffic_increase());
    }

    #[test]
    fn data_bytes_identical_across_schemes() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        let bp = run_protected(&trace, &mut BaselineMee::with_defaults(1 << 30), cfg, 700);
        assert_eq!(np.data_bytes, bp.data_bytes);
    }

    #[test]
    fn normalization() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        assert!((np.normalized_to(&np) - 1.0).abs() < 1e-12);
    }

    /// Full-field bit-identity, including the float's exact bits.
    fn assert_identical(a: &RunSummary, b: &RunSummary) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.data_bytes, b.data_bytes);
        assert_eq!(a.meta_bytes, b.meta_bytes);
        assert_eq!(a.dram, b.dram);
        assert_eq!(a.compute_cycles, b.compute_cycles);
        assert_eq!(a.exec_ns.to_bits(), b.exec_ns.to_bits(), "exec_ns differs");
    }

    #[test]
    fn streaming_matches_materialized_all_schemes() {
        let net = small_net();
        let cfg = DramConfig::ddr4_2400_16gb();
        let footprint = 1u64 << 30;
        for plan in [
            ExecutionPlan::inference(&net),
            ExecutionPlan::training(&net, 2),
        ] {
            let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
            let trace = tb.build(&plan);
            type MkEngine = fn(u64) -> Box<dyn ProtectionEngine>;
            let engines: [MkEngine; 4] = [
                |_| Box::new(NoProtection::new()),
                |f| Box::new(GuardNnEngine::confidentiality_only(f)),
                |f| Box::new(GuardNnEngine::confidentiality_and_integrity(f)),
                |f| Box::new(BaselineMee::with_defaults(f)),
            ];
            for mk in engines {
                let materialized = run_protected(&trace, mk(footprint).as_mut(), cfg, 700);
                for mode in [ChannelMode::Serial, ChannelMode::Threaded] {
                    let streamed = run_protected_streaming(
                        tb.stream(&plan),
                        mk(footprint).as_mut(),
                        cfg,
                        700,
                        mode,
                    );
                    assert_identical(&materialized, &streamed);
                }
            }
        }
    }

    #[test]
    fn streaming_buffers_less_than_materialized() {
        let plan = ExecutionPlan::inference(&small_net());
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let cfg = DramConfig::ddr4_2400_16gb();
        let materialized = run_protected(&tb.build(&plan), &mut NoProtection::new(), cfg, 700);
        let streamed = run_protected_streaming(
            tb.stream(&plan),
            &mut NoProtection::new(),
            cfg,
            700,
            ChannelMode::Serial,
        );
        assert!(streamed.trace_buffer_bytes < 4096);
        assert!(materialized.trace_buffer_bytes > streamed.trace_buffer_bytes);
    }

    /// Every geometry `ablation` sweeps — BP metadata caches of 8–256 KiB
    /// and GuardNN_CI MAC chunks of 64–4096 B — pinned on a small training
    /// step as `[meta_bytes, reads, writes, row hits, row misses, row
    /// conflicts, total cycles, exec_ns bits]`. The default-geometry suites
    /// cannot see a change that only bites off the default (say, a MAC
    /// line address that ignores `mac_chunk_bytes`).
    #[rustfmt::skip]
    const SWEPT_GEOMETRIES: [(&str, u64, [u64; 8]); 12] = [
        ("BP", 8 << 10, [3263296, 147448, 66789, 214237, 2969, 3256, 625554, 4694990161446162238]),
        ("BP", 16 << 10, [3165632, 146273, 66438, 212711, 2933, 3093, 617732, 4694954634908345490]),
        ("BP", 32 << 10, [3163584, 146241, 66438, 212679, 2987, 3303, 620095, 4694973167692227730]),
        ("BP", 64 << 10, [3161984, 146221, 66433, 212654, 2993, 3317, 620026, 4694977784782070930]),
        ("BP", 128 << 10, [3155008, 146138, 66407, 212545, 2962, 3356, 623561, 4694988794214906345]),
        ("BP", 256 << 10, [3155008, 146138, 66407, 212545, 3038, 3313, 621483, 4694971063158252690]),
        ("GuardNN_CI", 64, [1252032, 123905, 58906, 182811, 1758, 639, 401622, 4693993237157473718]),
        ("GuardNN_CI", 128, [624192, 117366, 55635, 173001, 1715, 565, 374892, 4693903200326391905]),
        ("GuardNN_CI", 256, [312320, 114130, 53998, 168128, 1689, 491, 361895, 4693853486079940706]),
        ("GuardNN_CI", 512, [156416, 112512, 53180, 165692, 1603, 496, 356781, 4693831001926146145]),
        ("GuardNN_CI", 1024, [79104, 111708, 52776, 164484, 1568, 446, 352922, 4693823242351898039]),
        ("GuardNN_CI", 4096, [16960, 111046, 52467, 163513, 1533, 259, 346151, 4693798617872734305]),
    ];

    #[test]
    fn swept_geometries_are_pinned() {
        use crate::baseline::MeeConfig;
        use crate::guardnn::GuardNnConfig;
        let plan = ExecutionPlan::training(&small_net(), 1);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        for (scheme, bytes, expected) in SWEPT_GEOMETRIES {
            let mut engine: Box<dyn ProtectionEngine> = if scheme == "BP" {
                let cfg = MeeConfig {
                    cache_bytes: bytes,
                    ..MeeConfig::default()
                };
                Box::new(BaselineMee::new(tb.footprint(), cfg))
            } else {
                let cfg = GuardNnConfig {
                    mac_chunk_bytes: bytes,
                    ..GuardNnConfig::default()
                };
                Box::new(GuardNnEngine::new(tb.footprint(), cfg))
            };
            let s = run_protected_streaming(
                tb.stream(&plan),
                engine.as_mut(),
                DramConfig::ddr4_2400_16gb(),
                700,
                ChannelMode::Serial,
            );
            let d = s.dram;
            let got = [
                s.meta_bytes,
                d.reads,
                d.writes,
                d.row_hits,
                d.row_misses,
                d.row_conflicts,
                d.total_cycles,
                s.exec_ns.to_bits(),
            ];
            assert_eq!(got, expected, "{scheme} at {bytes} B");
        }
    }

    /// What a [`DramSink`] saw, in order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Access { addr: u64, write: bool },
        Drain,
    }

    /// A sink that records every call and schedules nothing.
    #[derive(Default)]
    struct RecordingSink {
        seen: Vec<Seen>,
        stats: DramStats,
    }

    impl DramSink for RecordingSink {
        fn access(&mut self, addr: u64, write: bool) {
            self.seen.push(Seen::Access { addr, write });
            if write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
        }

        fn drain_stats(&mut self) -> DramStats {
            self.seen.push(Seen::Drain);
            self.stats
        }
    }

    #[test]
    fn protected_stream_interleaves_meta_behind_data() {
        // BP fetches metadata for every block; the driver must issue the
        // data access first, its metadata behind it, and checkpoint the
        // DRAM once per pass plus once at the end of the run. Metadata
        // lives above the data footprint.
        let net = Network::new("t", vec![fc("f1", 1, 64, 32)]);
        let plan = ExecutionPlan::inference(&net);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let footprint = 1 << 30;
        let mut engine = BaselineMee::with_defaults(footprint);
        let mut sink = RecordingSink::default();
        let cfg = DramConfig::ddr4_2400_16gb();
        run_protected_streaming_into(tb.stream(&plan), &mut engine, &mut sink, cfg, 700);
        let seen = sink.seen;
        let is_meta = |s: &Seen| matches!(s, Seen::Access { addr, .. } if *addr >= footprint);
        assert!(matches!(seen[0], Seen::Access { addr, .. } if addr < footprint));
        assert!(seen.iter().any(is_meta));
        let drains: Vec<usize> = (0..seen.len())
            .filter(|&i| seen[i] == Seen::Drain)
            .collect();
        assert_eq!(drains.len(), plan.passes().len() + 1);
        // The last pass boundary is followed only by the end-of-run flush's
        // metadata write-backs and the final checkpoint.
        let last_boundary = drains[drains.len() - 2];
        assert_eq!(*drains.last().unwrap(), seen.len() - 1);
        assert!(seen[last_boundary + 1..seen.len() - 1]
            .iter()
            .all(|s| is_meta(s) && matches!(s, Seen::Access { write: true, .. })));
    }

    /// A fixed list of trace items as a [`TraceSource`].
    struct Items(std::vec::IntoIter<TraceItem>);

    impl Iterator for Items {
        type Item = TraceItem;
        fn next(&mut self) -> Option<TraceItem> {
            self.0.next()
        }
    }

    impl TraceSource for Items {
        fn buffer_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn one_event_traces_touch_exactly_their_blocks() {
        use guardnn_systolic::trace::{MemEvent, PassPerf};
        use guardnn_systolic::Stream;
        // `(addr, bytes, blocks)`: aligned and unaligned starts × lengths
        // around one block; zero bytes touch nothing wherever they start.
        let table: [(u64, u64, u64); 10] = [
            (128, 0, 0),
            (128, 1, 1),
            (128, 63, 1),
            (128, 64, 1),
            (128, 65, 2),
            (130, 0, 0),
            (130, 1, 1),
            (130, 63, 2),
            (130, 64, 2),
            (130, 65, 2),
        ];
        let cfg = DramConfig::ddr4_2400_16gb();
        for (addr, bytes, blocks) in table {
            let items = vec![
                TraceItem::Event(MemEvent {
                    addr,
                    bytes,
                    write: false,
                    stream: Stream::FeatureRead,
                    pass: 0,
                }),
                TraceItem::PassEnd {
                    pass: 0,
                    perf: PassPerf {
                        compute_cycles: 0,
                        dram_bytes: bytes,
                    },
                },
            ];
            let trace: PlanTrace = items.iter().copied().collect();
            let materialized = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
            let mut sink = RecordingSink::default();
            let streamed = run_protected_streaming_into(
                Items(items.into_iter()),
                &mut NoProtection::new(),
                &mut sink,
                cfg,
                700,
            );
            for s in [&materialized, &streamed] {
                assert_eq!(s.data_bytes, blocks * BLOCK_BYTES, "{addr} + {bytes}");
                assert_eq!(s.dram.accesses(), blocks, "{addr} + {bytes}");
            }
            let accessed: Vec<u64> = sink
                .seen
                .iter()
                .filter_map(|s| match s {
                    Seen::Access { addr, .. } => Some(*addr),
                    Seen::Drain => None,
                })
                .collect();
            let expected: Vec<u64> = (2..2 + blocks).map(|b| b * BLOCK_BYTES).collect();
            assert_eq!(accessed, expected, "{addr} + {bytes}");
        }
    }
}
