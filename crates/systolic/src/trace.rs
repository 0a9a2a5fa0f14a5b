//! Address-level DRAM trace generation for an execution plan.
//!
//! The memory-protection engines and the DRAM simulator both consume the
//! trace produced here: an ordered list of range events tagged with the
//! operand stream they belong to. Addresses come from a static region
//! layout (weights, features, gradients), mirroring how a DNN compiler
//! allocates accelerator DRAM — which is exactly the property GuardNN's
//! version-number scheme exploits.

use crate::config::ArrayConfig;
use crate::engine::simulate_gemm;
use crate::stream::{Segment, TraceItem};
use crate::traffic::gemm_traffic;
use guardnn_models::graph::{ExecutionPlan, Pass, PassKind};
use guardnn_models::Op;

/// Operand stream of a trace event, used by the protection engines to pick
/// the version-number source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Weight reads (constant VN during inference).
    WeightRead,
    /// Weight writes (training updates; bumps CTR_W).
    WeightWrite,
    /// Feature/gradient reads (VN = CTR_F,R supplied by the host).
    FeatureRead,
    /// Feature/gradient writes (VN = CTR_IN ‖ CTR_F,W).
    FeatureWrite,
}

/// One contiguous DRAM access range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEvent {
    /// Start byte address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Write (true) or read (false).
    pub write: bool,
    /// Operand stream.
    pub stream: Stream,
    /// Index of the pass this event belongs to.
    pub pass: usize,
}

/// Per-pass simulation record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassPerf {
    /// Compute cycles on the MAC array (0 for pure data movement).
    pub compute_cycles: u64,
    /// Data bytes this pass moves to/from DRAM.
    pub dram_bytes: u64,
}

/// The full trace of one execution plan.
#[derive(Clone, Debug)]
pub struct PlanTrace {
    events: Vec<MemEvent>,
    passes: Vec<PassPerf>,
}

impl PlanTrace {
    /// All events in issue order.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Per-pass performance records.
    pub fn passes(&self) -> &[PassPerf] {
        &self.passes
    }

    /// Total data bytes moved (excludes protection metadata, which the
    /// engines add).
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.bytes).sum()
    }

    /// Total compute cycles across passes.
    pub fn total_compute_cycles(&self) -> u64 {
        self.passes.iter().map(|p| p.compute_cycles).sum()
    }

    /// Bytes by stream class.
    pub fn bytes_by_stream(&self, stream: Stream) -> u64 {
        self.events
            .iter()
            .filter(|e| e.stream == stream)
            .map(|e| e.bytes)
            .sum()
    }

    /// Bytes of trace data this materialized trace holds in memory — the
    /// buffering the streaming path ([`TraceBuilder::stream`]) avoids.
    pub fn buffer_bytes(&self) -> u64 {
        (self.events.capacity() * std::mem::size_of::<MemEvent>()
            + self.passes.capacity() * std::mem::size_of::<PassPerf>()) as u64
    }
}

/// Collects a stream of trace items (events, then each pass's end in
/// order) into its materialized form.
impl FromIterator<TraceItem> for PlanTrace {
    fn from_iter<T: IntoIterator<Item = TraceItem>>(items: T) -> Self {
        let mut events = Vec::new();
        let mut passes = Vec::new();
        for item in items {
            match item {
                TraceItem::Event(e) => events.push(e),
                TraceItem::PassEnd { perf, .. } => passes.push(perf),
            }
        }
        Self { events, passes }
    }
}

/// Region layout and trace generator for one network.
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    cfg: ArrayConfig,
    /// Weight region base per layer.
    wgt_base: Vec<u64>,
    /// Feature (output) region base per layer; index 0 is the network input.
    feat_base: Vec<u64>,
    /// Gradient region base per layer output.
    grad_base: Vec<u64>,
    /// Weight-gradient region base per layer.
    wgrad_base: Vec<u64>,
    /// Partial-sum spill region.
    psum_base: u64,
    /// Total footprint in bytes.
    footprint: u64,
}

const ALIGN: u64 = 4096;

fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

impl TraceBuilder {
    /// Lays out DRAM regions for `plan`'s network.
    pub fn new(cfg: ArrayConfig, plan: &ExecutionPlan) -> Self {
        let b = cfg.bytes_per_elem;
        let batch = plan.batch() as u64;
        let net = plan.network();
        let mut cursor = ALIGN; // leave page zero unused
        let mut wgt_base = Vec::with_capacity(net.layers().len());
        let mut feat_base = Vec::with_capacity(net.layers().len() + 1);
        let mut grad_base = Vec::with_capacity(net.layers().len());
        let mut wgrad_base = Vec::with_capacity(net.layers().len());

        // Network input region.
        let input_bytes = net
            .layers()
            .first()
            .map_or(0, |l| l.input_elems() * b * batch);
        feat_base.push(cursor);
        cursor += align_up(input_bytes);

        for layer in net.layers() {
            wgt_base.push(cursor);
            cursor += align_up(layer.weight_elems() * b);
            feat_base.push(cursor);
            cursor += align_up(layer.output_elems() * b * batch);
        }
        for layer in net.layers() {
            grad_base.push(cursor);
            cursor += align_up(layer.output_elems() * b * batch);
            wgrad_base.push(cursor);
            cursor += align_up(layer.weight_elems() * b);
        }
        let psum_base = cursor;
        cursor += 64 << 20; // generous spill region
        Self {
            cfg,
            wgt_base,
            feat_base,
            grad_base,
            wgrad_base,
            psum_base,
            footprint: cursor,
        }
    }

    /// Total DRAM footprint of the layout.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Base address of a layer's weight region.
    pub fn weight_region(&self, layer: usize) -> u64 {
        self.wgt_base[layer]
    }

    /// Base address of a layer's output-feature region (`layer + 1`;
    /// index 0 is the network input).
    pub fn feature_region(&self, layer_output: usize) -> u64 {
        self.feat_base[layer_output]
    }

    /// Generates the full trace for `plan` by collecting
    /// [`TraceBuilder::stream`] — the materialized form is kept as the
    /// differential oracle for the streaming pipeline.
    pub fn build(&self, plan: &ExecutionPlan) -> PlanTrace {
        self.stream(plan).collect()
    }

    /// Expands one pass into its segment descriptors (the lazily-emitted
    /// form of the trace; see [`crate::stream::Segment`]); returns the
    /// pass's compute cycles.
    pub(crate) fn pass_segments(
        &self,
        plan: &ExecutionPlan,
        pass: &Pass,
        segments: &mut Vec<Segment>,
    ) -> u64 {
        let b = self.cfg.bytes_per_elem;
        let batch = plan.batch() as u64;
        let layer = plan.layer_of(pass);
        let li = pass.layer;

        // Region roles depend on the pass direction.
        let (in_region, in_bytes, out_region, out_bytes) = match pass.kind {
            PassKind::Forward => (
                self.feat_base[li],
                layer.input_elems() * b * batch,
                self.feat_base[li + 1],
                layer.output_elems() * b * batch,
            ),
            PassKind::BackwardData => (
                self.grad_base[li],
                layer.output_elems() * b * batch,
                self.grad_base[li.saturating_sub(1)],
                layer.input_elems() * b * batch,
            ),
            PassKind::BackwardWeight => (
                self.grad_base[li],
                layer.output_elems() * b * batch,
                self.wgrad_base[li],
                layer.weight_elems() * b,
            ),
            PassKind::WeightUpdate => (
                self.wgrad_base[li],
                layer.weight_elems() * b,
                self.wgt_base[li],
                layer.weight_elems() * b,
            ),
        };

        match (&layer.op, pass.kind) {
            // Optimizer step: stream W and dW, write W back.
            (_, PassKind::WeightUpdate) => {
                push_sweep(
                    segments,
                    self.wgt_base[li],
                    out_bytes,
                    false,
                    Stream::WeightRead,
                );
                push_sweep(segments, in_region, in_bytes, false, Stream::WeightRead);
                push_sweep(
                    segments,
                    self.wgt_base[li],
                    out_bytes,
                    true,
                    Stream::WeightWrite,
                );
                out_bytes / self.cfg.cols as u64
            }
            (Op::Embedding { dim, lookups, rows }, _) => {
                // Scattered gathers: deterministic pseudo-random rows.
                let row_bytes = *dim as u64 * b;
                let table = self.wgt_base[li];
                let total_lookups = *lookups as u64 * batch;
                if total_lookups > 0 {
                    segments.push(Segment::Gathers {
                        table,
                        row_bytes,
                        rows: *rows as u64,
                        count: total_lookups,
                        salt: li as u64 * 0x9E37,
                        write: plan.writes_weights(pass),
                    });
                }
                if !plan.writes_weights(pass) {
                    push_sweep(segments, out_region, out_bytes, true, Stream::FeatureWrite);
                }
                total_lookups * row_bytes / (16 * self.cfg.cols as u64).max(1)
            }
            (Op::Eltwise { .. }, _) => {
                let episode = plan.episode(pass, b);
                push_sweep(
                    segments,
                    in_region,
                    episode.feature_read,
                    false,
                    Stream::FeatureRead,
                );
                push_sweep(segments, out_region, out_bytes, true, Stream::FeatureWrite);
                // Vector unit: one element per column lane per cycle.
                (out_bytes / b) / self.cfg.cols as u64
            }
            _ => {
                // GEMM-class pass.
                // lint:allow(panic-discipline) — this match arm handles only GEMM-class passes
                let gemm = plan.gemm(pass).expect("conv/gemm pass maps to GEMM");
                let traffic = gemm_traffic(&self.cfg, gemm);
                let perf = simulate_gemm(&self.cfg, gemm);

                let (wgt_stream_region, wgt_bytes) = match pass.kind {
                    // dX = dY ⊗ W reads the weight region.
                    PassKind::Forward | PassKind::BackwardData => {
                        (self.wgt_base[li], layer.weight_elems() * b)
                    }
                    // dW = dY ⊗ X has no weight operand; its "B" matrix is
                    // the stashed forward activations.
                    PassKind::BackwardWeight => {
                        (self.feat_base[li], layer.input_elems() * b * batch)
                    }
                    // lint:allow(panic-discipline) — WeightUpdate passes take the arm above
                    PassKind::WeightUpdate => unreachable!("handled above"),
                };

                // Weight tile reads (sweeps of the weight region).
                let wgt_stream = if pass.kind == PassKind::BackwardWeight {
                    Stream::FeatureRead
                } else {
                    Stream::WeightRead
                };
                push_repeated_sweeps(
                    segments,
                    wgt_stream_region,
                    wgt_bytes,
                    traffic.wgt_read,
                    false,
                    wgt_stream,
                );
                // Activation reads, possibly re-streamed per weight tile.
                push_repeated_sweeps(
                    segments,
                    in_region,
                    in_bytes,
                    traffic.act_read,
                    false,
                    Stream::FeatureRead,
                );
                // Partial-sum spill.
                if traffic.psum_rw > 0 {
                    let half = traffic.psum_rw / 2;
                    push_sweep(segments, self.psum_base, half, true, Stream::FeatureWrite);
                    push_sweep(segments, self.psum_base, half, false, Stream::FeatureRead);
                }
                // Output writes: exactly the output tensor. The tiling
                // model's `out_write` equals it under every shipped
                // dataflow (outputs are written once), so the episode's
                // own extent is the authoritative figure here.
                let out_stream = if plan.writes_weights(pass) {
                    Stream::WeightWrite
                } else {
                    Stream::FeatureWrite
                };
                push_sweep(segments, out_region, out_bytes, true, out_stream);
                perf.cycles
            }
        }
    }
}

/// Queues one sweep over `[base, base + bytes)` (a single event).
fn push_sweep(segments: &mut Vec<Segment>, base: u64, bytes: u64, write: bool, stream: Stream) {
    if bytes == 0 {
        return;
    }
    segments.push(Segment::Sweeps {
        base,
        region_bytes: bytes,
        total: bytes,
        write,
        stream,
    });
}

/// Queues `total` bytes of traffic as repeated sweeps over a region of
/// `region_bytes` (one event per sweep).
fn push_repeated_sweeps(
    segments: &mut Vec<Segment>,
    base: u64,
    region_bytes: u64,
    total: u64,
    write: bool,
    stream: Stream,
) {
    if total == 0 || region_bytes == 0 {
        return;
    }
    segments.push(Segment::Sweeps {
        base,
        region_bytes,
        total,
        write,
        stream,
    });
}

/// SplitMix64 — deterministic hash for embedding row selection.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardnn_models::layer::{conv, fc};
    use guardnn_models::{zoo, Network};

    fn tiny_plan() -> ExecutionPlan {
        let net = Network::new(
            "tiny",
            vec![conv("c1", 8, 3, 4, 3, 1, 1), fc("f1", 1, 256, 10)],
        );
        ExecutionPlan::inference(&net)
    }

    #[test]
    fn regions_do_not_overlap() {
        let plan = tiny_plan();
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let mut bases = tb.wgt_base.clone();
        bases.extend(&tb.feat_base);
        bases.extend(&tb.grad_base);
        bases.extend(&tb.wgrad_base);
        bases.push(tb.psum_base);
        let mut sorted = bases.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), bases.len(), "all region bases distinct");
    }

    #[test]
    fn inference_trace_streams_match_episodes() {
        let plan = tiny_plan();
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        // Every pass produced events and nonzero write traffic exists.
        assert_eq!(trace.passes().len(), plan.passes().len());
        assert!(trace.bytes_by_stream(Stream::FeatureWrite) > 0);
        assert!(trace.bytes_by_stream(Stream::WeightRead) > 0);
        // Inference never writes weights.
        assert_eq!(trace.bytes_by_stream(Stream::WeightWrite), 0);
    }

    #[test]
    fn training_trace_writes_weights() {
        let net = Network::new("t", vec![fc("f1", 1, 64, 32)]);
        let plan = ExecutionPlan::training(&net, 2);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        assert!(trace.bytes_by_stream(Stream::WeightWrite) > 0);
    }

    #[test]
    fn trace_deterministic() {
        let net = zoo::dlrm();
        let plan = ExecutionPlan::inference(&net);
        let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
        let t1 = tb.build(&plan);
        let t2 = tb.build(&plan);
        assert_eq!(
            t1.events(),
            t2.events(),
            "embedding gathers must be deterministic"
        );
    }

    #[test]
    fn embedding_gathers_are_scattered() {
        let net = zoo::dlrm();
        let plan = ExecutionPlan::inference(&net);
        let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
        let trace = tb.build(&plan);
        let gather_addrs: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| e.stream == Stream::WeightRead && e.bytes == 64)
            .map(|e| e.addr)
            .collect();
        assert!(gather_addrs.len() > 1000, "got {}", gather_addrs.len());
        // Not all sequential.
        let sequential = gather_addrs
            .windows(2)
            .filter(|w| w[1] == w[0] + 64)
            .count();
        assert!(
            sequential * 10 < gather_addrs.len(),
            "gathers must be scattered"
        );
    }

    #[test]
    fn trace_bytes_close_to_plan_episodes() {
        // For a small network whose tensors fit SRAM, the trace traffic
        // should equal the plan's episode accounting.
        let plan = tiny_plan();
        let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
        let trace = tb.build(&plan);
        let plan_bytes = plan.total_bytes(1);
        let trace_bytes = trace.total_bytes();
        let ratio = trace_bytes as f64 / plan_bytes as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "ratio {ratio}: {trace_bytes} vs {plan_bytes}"
        );
    }

    #[test]
    fn vgg_inference_traffic_sane() {
        let net = zoo::vgg16();
        let plan = ExecutionPlan::inference(&net);
        let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
        let trace = tb.build(&plan);
        // VGG-16 int8: ≥138 MB weights + features ~9 MB+; traffic should be
        // in the hundreds of MB at most (no pathological re-reads on 24 MB
        // SRAM).
        let mb = trace.total_bytes() as f64 / (1 << 20) as f64;
        assert!((140.0..600.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn training_trace_has_backward_streams() {
        let net = Network::new(
            "t2",
            vec![conv("c1", 8, 3, 4, 3, 1, 1), fc("f1", 1, 256, 10)],
        );
        let plan = ExecutionPlan::training(&net, 2);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        // Training reads features both forward and backward, so
        // feature-read traffic exceeds the inference plan's.
        let inf_plan = ExecutionPlan::inference(&net);
        let inf_tb = TraceBuilder::new(ArrayConfig::test_small(), &inf_plan);
        let inf = inf_tb.build(&inf_plan);
        assert!(
            trace.bytes_by_stream(Stream::FeatureRead)
                > 2 * inf.bytes_by_stream(Stream::FeatureRead)
        );
        // Weight updates write the full weight arrays.
        assert!(trace.bytes_by_stream(Stream::WeightWrite) >= net.param_count());
    }

    #[test]
    fn batch_scales_feature_traffic() {
        let net = Network::new("b", vec![fc("f1", 4, 64, 32)]);
        let p1 = ExecutionPlan::training(&net, 1);
        let p4 = ExecutionPlan::training(&net, 4);
        let t1 = TraceBuilder::new(ArrayConfig::tpu_v1(), &p1).build(&p1);
        let t4 = TraceBuilder::new(ArrayConfig::tpu_v1(), &p4).build(&p4);
        let f1 = t1.bytes_by_stream(Stream::FeatureRead) + t1.bytes_by_stream(Stream::FeatureWrite);
        let f4 = t4.bytes_by_stream(Stream::FeatureRead) + t4.bytes_by_stream(Stream::FeatureWrite);
        assert!(f4 > 3 * f1, "batch-4 features {f4} vs batch-1 {f1}");
        // Weight traffic does not scale with batch.
        assert_eq!(
            t1.bytes_by_stream(Stream::WeightWrite),
            t4.bytes_by_stream(Stream::WeightWrite)
        );
    }

    #[test]
    fn footprint_covers_all_regions() {
        let plan = tiny_plan();
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        for ev in trace.events() {
            assert!(
                ev.addr + ev.bytes <= tb.footprint(),
                "event at {:#x}+{} beyond footprint {:#x}",
                ev.addr,
                ev.bytes,
                tb.footprint()
            );
        }
    }

    #[test]
    fn compute_cycles_nonzero_for_convs() {
        let plan = tiny_plan();
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        assert!(trace.passes()[0].compute_cycles > 0);
        assert!(trace.total_compute_cycles() > 0);
    }
}
