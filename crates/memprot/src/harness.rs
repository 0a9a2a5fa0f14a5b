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
//!   [`PlanTrace`] slice.
//! * [`run_protected_streaming`] — the production path: pulls a
//!   [`TraceSource`] (e.g. [`guardnn_systolic::TraceStream`]) through a
//!   [`ProtectedStream`] adapter that interleaves the engine's metadata
//!   accesses into the event stream, and ingests the result into the DDR4
//!   model — optionally with one worker thread per DRAM channel
//!   ([`ChannelMode::Threaded`]). Peak memory is O(1) in the trace length.

use crate::{MetaAccess, ProtectionEngine, BLOCK_BYTES};
use guardnn_dram::{
    with_channel_workers_observed, ChannelMode, DramConfig, DramSink, DramStats, DramSystem,
};
use guardnn_obs::Recorder;
use guardnn_systolic::trace::PassPerf;
use guardnn_systolic::{PlanTrace, TraceItem, TraceSource};
use std::collections::VecDeque;

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

/// Issues the engine's metadata accesses: reads go to DRAM immediately
/// (they gate decryption), writes are coalesced into sorted batches.
fn issue_meta<S: DramSink>(
    dram: &mut S,
    metas: &[MetaAccess],
    meta_bytes: &mut u64,
    pending_writes: &mut Vec<u64>,
) {
    for m in metas {
        *meta_bytes += BLOCK_BYTES;
        if m.write {
            pending_writes.push(m.addr);
            if pending_writes.len() >= META_WRITE_BATCH {
                drain_writes(dram, pending_writes);
            }
        } else {
            dram.access(m.addr, false);
        }
    }
}

/// Drains the buffered metadata write-backs in address order.
fn drain_writes<S: DramSink>(dram: &mut S, pending_writes: &mut Vec<u64>) {
    pending_writes.sort_unstable();
    for addr in pending_writes.drain(..) {
        dram.access(addr, true);
    }
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
/// without ever holding the trace.
pub fn run_protected(
    trace: &PlanTrace,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
) -> RunSummary {
    let mut dram = DramSystem::new(dram_cfg);
    let mut data_bytes = 0u64;
    let mut meta_bytes = 0u64;
    let mut exec_ns = 0.0f64;
    let mut prev_cycles = 0u64;
    let mut event_idx = 0usize;
    let mut pending_writes: Vec<u64> = Vec::with_capacity(META_WRITE_BATCH);
    let mut metas = Vec::new();

    let dram_ns_per_cycle = 1e3 / dram_cfg.clock_mhz as f64;
    let accel_ns_per_cycle = 1e3 / accel_mhz as f64;

    for (pass_idx, pass_perf) in trace.passes().iter().enumerate() {
        engine.on_pass_begin();
        while event_idx < trace.events().len() && trace.events()[event_idx].pass == pass_idx {
            let ev = trace.events()[event_idx];
            let start_block = ev.addr / BLOCK_BYTES;
            let end_block = (ev.addr + ev.bytes).div_ceil(BLOCK_BYTES);
            for block in start_block..end_block {
                let addr = block * BLOCK_BYTES;
                dram.access(addr, ev.write);
                data_bytes += BLOCK_BYTES;
                metas.clear();
                engine.on_access(addr, ev.write, ev.stream.into(), &mut metas);
                issue_meta(&mut dram, &metas, &mut meta_bytes, &mut pending_writes);
            }
            event_idx += 1;
        }
        // Close out the pass: drain writes, checkpoint DRAM time.
        drain_writes(&mut dram, &mut pending_writes);
        let stats = dram.drain_stats();
        let mem_cycles = stats.total_cycles - prev_cycles;
        prev_cycles = stats.total_cycles;
        let mem_ns = mem_cycles as f64 * dram_ns_per_cycle;
        let compute_ns = pass_perf.compute_cycles as f64 * accel_ns_per_cycle;
        exec_ns += mem_ns.max(compute_ns);
    }

    // End-of-run metadata write-back.
    let metas = engine.flush();
    issue_meta(&mut dram, &metas, &mut meta_bytes, &mut pending_writes);
    drain_writes(&mut dram, &mut pending_writes);
    let stats = dram.drain_stats();
    exec_ns += (stats.total_cycles - prev_cycles) as f64 * dram_ns_per_cycle;
    let merged = stats;

    RunSummary {
        scheme: engine.name(),
        data_bytes,
        meta_bytes,
        dram: merged,
        compute_cycles: trace.total_compute_cycles(),
        exec_ns,
        trace_buffer_bytes: trace.buffer_bytes(),
    }
}

/// One item of a protected access stream: a data block, a metadata access
/// the engine interleaved, or a pass boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectedItem {
    /// A 64-byte data-block access of the accelerator.
    Data {
        /// Block-aligned address.
        addr: u64,
        /// Write (true) or read (false).
        write: bool,
    },
    /// A metadata access the protection engine added.
    Meta {
        /// Metadata address.
        addr: u64,
        /// Write (true) or read (false).
        write: bool,
    },
    /// All accesses of pass `pass` have been yielded.
    PassEnd {
        /// Index of the completed pass.
        pass: usize,
        /// The pass's performance record.
        perf: PassPerf,
    },
}

/// Iterator adapter that pulls a trace stream *through* a protection
/// engine: every event is expanded into 64-byte block accesses, the
/// engine's metadata accesses are interleaved behind each block (reads
/// inline, writes coalesced into sorted 32-entry batches), pass
/// boundaries drain the write buffer, and the engine's
/// end-of-run [`ProtectionEngine::flush`] is appended after the source is
/// exhausted. This is how the streaming pipeline protects a trace without
/// ever seeing it as a slice; its output access order is bit-identical to
/// what [`run_protected`] issues.
pub struct ProtectedStream<'e, I> {
    inner: I,
    engine: &'e mut dyn ProtectionEngine,
    /// Items ready to yield (metadata behind the current block, drained
    /// write batches, pass boundaries). Bounded by one write batch plus a
    /// few per-block metadata accesses — O(1).
    queue: VecDeque<ProtectedItem>,
    /// Remaining blocks of the event being expanded.
    blocks: std::ops::Range<u64>,
    write: bool,
    stream: crate::StreamClass,
    /// The engine's metadata accesses for the current block (reused).
    metas: Vec<MetaAccess>,
    pending_writes: Vec<u64>,
    /// Whether `on_pass_begin` has run for the pass in progress.
    pass_started: bool,
    /// Whether the end-of-run flush has been appended.
    flushed: bool,
}

impl<'e, I: TraceSource> ProtectedStream<'e, I> {
    /// Wraps `inner`, interleaving `engine`'s metadata accesses.
    pub fn new(inner: I, engine: &'e mut dyn ProtectionEngine) -> Self {
        Self {
            inner,
            engine,
            queue: VecDeque::new(),
            blocks: 0..0,
            write: false,
            stream: crate::StreamClass::FeatureRead,
            metas: Vec::new(),
            pending_writes: Vec::with_capacity(META_WRITE_BATCH),
            pass_started: false,
            flushed: false,
        }
    }

    /// Peak bytes of trace data the underlying source buffers.
    pub fn source_buffer_bytes(&self) -> u64 {
        self.inner.buffer_bytes()
    }

    fn enqueue_metas(&mut self, metas: &[MetaAccess]) {
        for &m in metas {
            if m.write {
                self.pending_writes.push(m.addr);
                if self.pending_writes.len() >= META_WRITE_BATCH {
                    self.drain_pending();
                }
            } else {
                self.queue.push_back(ProtectedItem::Meta {
                    addr: m.addr,
                    write: false,
                });
            }
        }
    }

    fn drain_pending(&mut self) {
        self.pending_writes.sort_unstable();
        for addr in self.pending_writes.drain(..) {
            self.queue
                .push_back(ProtectedItem::Meta { addr, write: true });
        }
    }
}

impl<I: TraceSource> Iterator for ProtectedStream<'_, I> {
    type Item = ProtectedItem;

    fn next(&mut self) -> Option<ProtectedItem> {
        loop {
            if let Some(item) = self.queue.pop_front() {
                return Some(item);
            }
            if let Some(block) = self.blocks.next() {
                let addr = block * BLOCK_BYTES;
                let mut metas = std::mem::take(&mut self.metas);
                metas.clear();
                self.engine
                    .on_access(addr, self.write, self.stream, &mut metas);
                self.enqueue_metas(&metas);
                self.metas = metas;
                return Some(ProtectedItem::Data {
                    addr,
                    write: self.write,
                });
            }
            match self.inner.next() {
                Some(TraceItem::Event(ev)) => {
                    if !self.pass_started {
                        self.engine.on_pass_begin();
                        self.pass_started = true;
                    }
                    self.blocks =
                        (ev.addr / BLOCK_BYTES)..(ev.addr + ev.bytes).div_ceil(BLOCK_BYTES);
                    self.write = ev.write;
                    self.stream = ev.stream.into();
                }
                Some(TraceItem::PassEnd { pass, perf }) => {
                    // An empty pass still begins (engines advance per-pass
                    // counters in `on_pass_begin`).
                    if !self.pass_started {
                        self.engine.on_pass_begin();
                    }
                    self.pass_started = false;
                    self.drain_pending();
                    self.queue.push_back(ProtectedItem::PassEnd { pass, perf });
                }
                None => {
                    if self.flushed {
                        return None;
                    }
                    self.flushed = true;
                    let metas = self.engine.flush();
                    self.enqueue_metas(&metas);
                    self.drain_pending();
                }
            }
        }
    }
}

/// Accumulated outcome of ingesting a protected stream into a DRAM sink.
struct IngestOutcome {
    data_bytes: u64,
    meta_bytes: u64,
    compute_cycles: u64,
    exec_ns: f64,
    dram: DramStats,
}

/// Feeds a protected access stream into `dram`, checkpointing DRAM time at
/// every pass boundary (the same per-pass `max(compute, memory)` timing as
/// [`run_protected`]).
fn ingest<S: DramSink>(
    protected: &mut dyn Iterator<Item = ProtectedItem>,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    rec: &Recorder,
) -> IngestOutcome {
    let mut data_bytes = 0u64;
    let mut meta_bytes = 0u64;
    let mut compute_cycles = 0u64;
    let mut exec_ns = 0.0f64;
    let mut prev_cycles = 0u64;
    let dram_ns_per_cycle = 1e3 / dram_cfg.clock_mhz as f64;
    let accel_ns_per_cycle = 1e3 / accel_mhz as f64;
    // Pass-local protection-traffic tallies: plain adds on the hot path,
    // exported (counters + one journal event) only at pass boundaries
    // and only when the recorder is enabled.
    let observe = rec.is_enabled();
    let mut pass_data = 0u64;
    let mut pass_meta_reads = 0u64;
    let mut pass_meta_writes = 0u64;

    for item in protected {
        match item {
            ProtectedItem::Data { addr, write } => {
                dram.access(addr, write);
                data_bytes += BLOCK_BYTES;
                pass_data += 1;
            }
            ProtectedItem::Meta { addr, write } => {
                dram.access(addr, write);
                meta_bytes += BLOCK_BYTES;
                if write {
                    pass_meta_writes += 1;
                } else {
                    pass_meta_reads += 1;
                }
            }
            ProtectedItem::PassEnd { pass, perf } => {
                let stats = dram.drain_stats();
                let mem_cycles = stats.total_cycles - prev_cycles;
                prev_cycles = stats.total_cycles;
                let mem_ns = mem_cycles as f64 * dram_ns_per_cycle;
                let compute_ns = perf.compute_cycles as f64 * accel_ns_per_cycle;
                exec_ns += mem_ns.max(compute_ns);
                compute_cycles += perf.compute_cycles;
                if observe {
                    rec.add("memprot.blocks_data", pass_data);
                    rec.add("memprot.meta_reads", pass_meta_reads);
                    rec.add("memprot.meta_writes", pass_meta_writes);
                    rec.event(
                        "memprot.pass",
                        &[
                            ("pass", &pass.to_string()),
                            ("data_blocks", &pass_data.to_string()),
                            ("meta_reads", &pass_meta_reads.to_string()),
                            ("meta_writes", &pass_meta_writes.to_string()),
                            ("mem_cycles", &mem_cycles.to_string()),
                        ],
                    );
                }
                pass_data = 0;
                pass_meta_reads = 0;
                pass_meta_writes = 0;
            }
        }
    }
    // End-of-run tail: the engine's flushed write-backs.
    let stats = dram.drain_stats();
    exec_ns += (stats.total_cycles - prev_cycles) as f64 * dram_ns_per_cycle;
    if observe {
        rec.add("memprot.blocks_data", pass_data);
        rec.add("memprot.meta_reads", pass_meta_reads);
        rec.add("memprot.meta_writes", pass_meta_writes);
    }
    IngestOutcome {
        data_bytes,
        meta_bytes,
        compute_cycles,
        exec_ns,
        dram: stats,
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
/// channels report per-channel scheduler series and the ingest loop
/// reports per-pass protection traffic. The recorder observes and never
/// steers, so the returned [`RunSummary`] is bit-identical to the
/// unobserved run (pinned by the `obs_differential` suite).
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

/// Shared body of the streaming entry points above.
fn stream_into<I: TraceSource, S: DramSink>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    rec: &Recorder,
) -> RunSummary {
    let scheme = engine.name();
    let mut protected = ProtectedStream::new(trace, engine);
    let outcome = ingest(&mut protected, dram, dram_cfg, accel_mhz, rec);
    RunSummary {
        scheme,
        data_bytes: outcome.data_bytes,
        meta_bytes: outcome.meta_bytes,
        dram: outcome.dram,
        compute_cycles: outcome.compute_cycles,
        exec_ns: outcome.exec_ns,
        trace_buffer_bytes: protected.source_buffer_bytes(),
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

    #[test]
    fn protected_stream_interleaves_meta_behind_data() {
        // BP fetches metadata for every block; the adapter must yield the
        // data access first, its metadata behind it, and a PassEnd per
        // pass.
        let net = Network::new("t", vec![fc("f1", 1, 64, 32)]);
        let plan = ExecutionPlan::inference(&net);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let mut engine = BaselineMee::with_defaults(1 << 30);
        let items: Vec<ProtectedItem> =
            ProtectedStream::new(tb.stream(&plan), &mut engine).collect();
        assert!(matches!(items[0], ProtectedItem::Data { .. }));
        assert!(items
            .iter()
            .any(|i| matches!(i, ProtectedItem::Meta { .. })));
        let boundaries = items
            .iter()
            .filter(|i| matches!(i, ProtectedItem::PassEnd { .. }))
            .count();
        assert_eq!(boundaries, plan.passes().len());
        // The boundary is last (after the end-of-run flush there are only
        // metadata write-backs).
        let last_boundary = items
            .iter()
            .rposition(|i| matches!(i, ProtectedItem::PassEnd { .. }))
            .unwrap();
        assert!(items[last_boundary..]
            .iter()
            .skip(1)
            .all(|i| matches!(i, ProtectedItem::Meta { write: true, .. })));
    }
}
