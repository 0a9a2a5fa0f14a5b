//! Off-chip memory protection engines for DNN accelerators.
//!
//! This crate is the heart of the GuardNN reproduction. It implements the
//! paper's DNN-specific memory protection and the state-of-the-art baseline
//! it is compared against, in two complementary forms:
//!
//! **Performance models** (trait [`ProtectionEngine`]): given the data-access
//! stream of an accelerator run, each engine emits the *additional* metadata
//! accesses (version numbers, MACs, integrity-tree nodes) its scheme needs.
//! Feeding data + metadata into the DDR4 simulator yields the execution-time
//! overheads of Figure 3 and the traffic numbers of §III-C.
//!
//! * [`none`] — no protection (NP).
//! * [`baseline`] — Intel-MEE-style baseline protection (BP): split-counter
//!   VNs in DRAM, per-64B MACs, an 8-ary counter-integrity tree, and an
//!   on-chip metadata cache.
//! * [`guardnn`] — GuardNN: VNs derived from a handful of on-chip counters
//!   (never stored in DRAM), optional per-chunk MACs for integrity
//!   (GuardNN_CI) or confidentiality-only operation (GuardNN_C).
//!
//! **Functional model** ([`functional`]): a byte-accurate protected DRAM
//! that really encrypts with AES-CTR under the GuardNN counter layout and
//! really MACs each chunk, so tamper/replay attacks can be demonstrated and
//! the VN discipline can be checked end to end.
//!
//! Shared infrastructure: [`vn`] (the on-chip counter file), [`cache`]
//! (metadata cache), [`harness`] (trace → engine → DRAM driver).
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::{baseline::BaselineMee, guardnn::GuardNnEngine, ProtectionEngine};
//!
//! let mut bp = BaselineMee::with_defaults(0x1000_0000);
//! let mut gnn = GuardNnEngine::confidentiality_and_integrity(0x1000_0000);
//! // Stream 1 MiB of feature writes through both engines.
//! let (mut bp_meta, mut gnn_meta) = (Vec::new(), Vec::new());
//! for block in 0..(1 << 20) / 64u64 {
//!     bp.on_access(block * 64, true, guardnn_memprot::StreamClass::FeatureWrite, &mut bp_meta);
//!     gnn.on_access(block * 64, true, guardnn_memprot::StreamClass::FeatureWrite, &mut gnn_meta);
//! }
//! assert!(gnn_meta.len() < bp_meta.len() / 4, "GuardNN must move far less metadata");
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod functional;
pub mod guardnn;
pub mod harness;
pub mod none;
pub mod vn;

pub use baseline::BaselineMee;
pub use guardnn::GuardNnEngine;
pub use none::NoProtection;

/// Data block size all engines operate on (one DRAM burst).
pub const BLOCK_BYTES: u64 = 64;

/// Operand-stream class of a data access, mirrored from the systolic trace
/// (the engines must not depend on trace internals).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamClass {
    /// Weight read.
    WeightRead,
    /// Weight write (training update).
    WeightWrite,
    /// Feature / gradient read.
    FeatureRead,
    /// Feature / gradient write.
    FeatureWrite,
}

impl From<guardnn_systolic::Stream> for StreamClass {
    fn from(s: guardnn_systolic::Stream) -> Self {
        match s {
            guardnn_systolic::Stream::WeightRead => Self::WeightRead,
            guardnn_systolic::Stream::WeightWrite => Self::WeightWrite,
            guardnn_systolic::Stream::FeatureRead => Self::FeatureRead,
            guardnn_systolic::Stream::FeatureWrite => Self::FeatureWrite,
        }
    }
}

/// `log2(value)` of a geometry factor that must be a power of two.
///
/// # Panics
///
/// Panics, naming the factor `what`, if `value` is not a power of two.
pub(crate) fn exact_log2(what: &str, value: u64) -> u32 {
    assert!(
        value.is_power_of_two(),
        "{what} {value} is not a power of two"
    );
    value.trailing_zeros()
}

/// Blocks from `block_addr` through the end of its aligned
/// `1 << shift`-byte region (at least 1): the part of a span one metadata
/// line of that coverage still covers.
pub(crate) fn blocks_to_boundary(block_addr: u64, shift: u32) -> u64 {
    let mask = 1u64
        .checked_shl(shift)
        .map_or(u64::MAX, |region| region - 1);
    (mask - (block_addr & mask)) / BLOCK_BYTES + 1
}

/// One metadata DRAM access generated by a protection engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaAccess {
    /// Metadata address (inside the engine's metadata region).
    pub addr: u64,
    /// Write (true) or read (false).
    pub write: bool,
}

/// A memory-protection scheme's performance model.
///
/// Engines see the accelerator's traffic as spans of consecutive 64-byte
/// data blocks and append the metadata accesses the scheme adds. One
/// [`ProtectionEngine::on_span`] call processes the span's first block
/// and then every following block that provably adds no metadata traffic
/// (the rest of a MAC line, say), so the caller pays one call per
/// metadata line rather than per block. Engines with write-back caches
/// emit the remaining dirty lines from [`ProtectionEngine::flush`].
pub trait ProtectionEngine {
    /// Scheme name for reports (e.g. `"BP"`, `"GuardNN_CI"`).
    fn name(&self) -> &'static str;

    /// Whether the scheme verifies integrity (affects Table I / Fig. 3
    /// labeling, not just traffic).
    fn protects_integrity(&self) -> bool;

    /// Called at the start of each pass so engines tracking DNN structure
    /// can advance their on-chip counters (`CTR_F,W` et al.).
    fn on_pass_begin(&mut self) {}

    /// Processes the span of `blocks` (at least 1) consecutive 64-byte
    /// data blocks from `block_addr`, all written or all read, and returns
    /// how many of them it covered, from 1 to `blocks`.
    ///
    /// The first block is processed exactly as a one-block access: the
    /// metadata accesses it adds are appended to `out` (the caller reuses
    /// one buffer across calls). The covered blocks after it are the ones
    /// that add no metadata traffic at all; the engine's state (cache
    /// stamps, hit counts) advances as if each had been accessed on its
    /// own. The caller issues the first block, then `out`, then the rest
    /// of the covered blocks, and calls again from the first block not
    /// covered.
    fn on_span(
        &mut self,
        block_addr: u64,
        blocks: u64,
        write: bool,
        stream: StreamClass,
        out: &mut Vec<MetaAccess>,
    ) -> u64;

    /// Processes one 64-byte data-block access — a one-block
    /// [`ProtectionEngine::on_span`].
    fn on_access(
        &mut self,
        block_addr: u64,
        write: bool,
        stream: StreamClass,
        out: &mut Vec<MetaAccess>,
    ) {
        self.on_span(block_addr, 1, write, stream, out);
    }

    /// Flushes dirty cached metadata at the end of a run.
    fn flush(&mut self) -> Vec<MetaAccess> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_class_conversion() {
        use guardnn_systolic::Stream;
        assert_eq!(
            StreamClass::from(Stream::WeightRead),
            StreamClass::WeightRead
        );
        assert_eq!(
            StreamClass::from(Stream::FeatureWrite),
            StreamClass::FeatureWrite
        );
        assert_eq!(
            StreamClass::from(Stream::FeatureRead),
            StreamClass::FeatureRead
        );
        assert_eq!(
            StreamClass::from(Stream::WeightWrite),
            StreamClass::WeightWrite
        );
    }
}

#[cfg(test)]
mod engine_trait_tests {
    use super::*;
    use crate::baseline::BaselineMee;
    use crate::guardnn::GuardNnEngine;
    use crate::none::NoProtection;

    /// The engine trait is object-safe and all engines work behind `dyn`.
    #[test]
    fn engines_work_as_trait_objects() {
        let mut engines: Vec<Box<dyn ProtectionEngine>> = vec![
            Box::new(NoProtection::new()),
            Box::new(GuardNnEngine::confidentiality_only(1 << 20)),
            Box::new(GuardNnEngine::confidentiality_and_integrity(1 << 20)),
            Box::new(BaselineMee::with_defaults(1 << 20)),
        ];
        let mut names = Vec::new();
        for e in engines.iter_mut() {
            e.on_pass_begin();
            e.on_access(0, true, StreamClass::FeatureWrite, &mut Vec::new());
            let _ = e.flush();
            names.push(e.name());
        }
        assert_eq!(names, vec!["NP", "GuardNN_C", "GuardNN_CI", "BP"]);
    }

    /// Degenerate geometry is refused at construction, one row per field,
    /// instead of hanging (`tree_arity: 1` never finishes laying out the
    /// tree) or dividing by zero on the first access.
    #[test]
    fn degenerate_geometry_panics_in_new() {
        use crate::baseline::MeeConfig;
        use crate::guardnn::GuardNnConfig;
        use std::panic::{catch_unwind, UnwindSafe};
        fn assert_panics(expected: &str, build: impl FnOnce() + UnwindSafe) {
            let err = catch_unwind(build).expect_err(expected);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(expected), "expected {expected:?}, got {msg:?}");
        }
        /// Expected panic message, and the edit that breaks a default config.
        type Row<C> = (&'static str, fn(&mut C));
        let mee: [Row<MeeConfig>; 9] = [
            ("degenerate cache geometry", |c| c.cache_bytes = 0),
            ("not a power of two", |c| c.cache_bytes = 48 << 10),
            ("degenerate cache geometry", |c| c.cache_ways = 0),
            ("blocks_per_vn_line 0", |c| c.blocks_per_vn_line = 0),
            ("blocks_per_vn_line 6", |c| c.blocks_per_vn_line = 6),
            ("blocks_per_mac_line 0", |c| c.blocks_per_mac_line = 0),
            ("blocks_per_mac_line 3", |c| c.blocks_per_mac_line = 3),
            ("tree_arity 0", |c| c.tree_arity = 0),
            ("tree_arity 1", |c| c.tree_arity = 1),
        ];
        for (expected, edit) in mee {
            let mut cfg = MeeConfig::default();
            edit(&mut cfg);
            assert_panics(expected, move || drop(BaselineMee::new(1 << 20, cfg)));
        }
        let gnn: [Row<GuardNnConfig>; 7] = [
            ("mac_chunk_bytes 0", |c| c.mac_chunk_bytes = 0),
            ("mac_chunk_bytes 768", |c| c.mac_chunk_bytes = 768),
            ("mac_entry_bytes 0", |c| c.mac_entry_bytes = 0),
            ("mac_entry_bytes 65", |c| c.mac_entry_bytes = 65),
            ("entries per MAC line 21", |c| c.mac_entry_bytes = 3),
            ("degenerate cache geometry", |c| c.mac_cache_bytes = 0),
            ("not a power of two", |c| c.mac_cache_bytes = 3 << 10),
        ];
        for (expected, edit) in gnn {
            let mut cfg = GuardNnConfig::default();
            edit(&mut cfg);
            assert_panics(expected, move || drop(GuardNnEngine::new(1 << 20, cfg)));
        }
        // The edges of each rule still build.
        let edge = MeeConfig {
            tree_arity: 2,
            blocks_per_vn_line: 1,
            blocks_per_mac_line: 1,
            ..MeeConfig::default()
        };
        BaselineMee::new(1 << 20, edge);
        let edge = GuardNnConfig {
            mac_chunk_bytes: 1,
            mac_entry_bytes: 64,
            ..GuardNnConfig::default()
        };
        GuardNnEngine::new(1 << 20, edge);
    }

    /// Integrity labeling matches each scheme's construction.
    #[test]
    fn integrity_flags() {
        assert!(!NoProtection::new().protects_integrity());
        assert!(!GuardNnEngine::confidentiality_only(1 << 20).protects_integrity());
        assert!(GuardNnEngine::confidentiality_and_integrity(1 << 20).protects_integrity());
        assert!(BaselineMee::with_defaults(1 << 20).protects_integrity());
    }

    /// Metadata addresses never alias the protected data region.
    #[test]
    fn metadata_outside_data_region() {
        let data_bytes = 1u64 << 24;
        let mut bp = BaselineMee::with_defaults(data_bytes);
        let mut gnn = GuardNnEngine::confidentiality_and_integrity(data_bytes);
        let (mut bp_meta, mut gnn_meta) = (Vec::new(), Vec::new());
        for block in (0..data_bytes).step_by(4096) {
            let write = block % 3 == 0;
            bp.on_access(block, write, StreamClass::FeatureWrite, &mut bp_meta);
            gnn.on_access(block, write, StreamClass::FeatureWrite, &mut gnn_meta);
        }
        for (name, metas) in [("BP", bp_meta), ("GuardNN", gnn_meta)] {
            assert!(!metas.is_empty(), "{name} emitted no metadata");
            for m in metas {
                assert!(
                    m.addr >= data_bytes,
                    "{name} metadata at {:#x} aliases data",
                    m.addr
                );
            }
        }
    }
}

#[cfg(test)]
mod span_tests {
    use super::*;
    use crate::baseline::{BaselineMee, MeeConfig};
    use crate::guardnn::{GuardNnConfig, GuardNnEngine, Protection};
    use crate::none::NoProtection;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::fmt::Debug;

    /// One access as the DRAM sees it: `(addr, write, is_metadata)`.
    type Issued = (u64, bool, bool);

    fn meta_issued(metas: &[MetaAccess]) -> impl Iterator<Item = Issued> + '_ {
        metas.iter().map(|m| (m.addr, m.write, true))
    }

    /// Drives `events` (`(addr, bytes, write)`) through a copy of `engine`
    /// span by span and through another copy block by block. The two must
    /// issue the same data/metadata sequence, end in the same state (every
    /// cache stamp, memo entry and access and miss count — hence miss
    /// rate: the engines' `Debug` output) and flush the same write-backs.
    /// `one_block` geometries must never cover more than one block per
    /// span. Returns both copies.
    fn spans_match_blocks<E: ProtectionEngine + Clone + Debug>(
        engine: E,
        events: &[(u64, u64, bool)],
        one_block: bool,
    ) -> Result<[E; 2], TestCaseError> {
        let (mut by_span, mut by_block) = (engine.clone(), engine);
        let (mut span_seq, mut block_seq) = (Vec::new(), Vec::new());
        let mut metas = Vec::new();
        for &(addr, bytes, write) in events {
            let stream = if write {
                StreamClass::FeatureWrite
            } else {
                StreamClass::FeatureRead
            };
            let blocks = guardnn_dram::block_range(addr, bytes, BLOCK_BYTES);
            let mut block = blocks.start;
            while block < blocks.end {
                metas.clear();
                let covered = by_span.on_span(
                    block * BLOCK_BYTES,
                    blocks.end - block,
                    write,
                    stream,
                    &mut metas,
                );
                prop_assert!((1..=blocks.end - block).contains(&covered));
                prop_assert!(!one_block || covered == 1, "{covered} blocks covered");
                span_seq.push((block * BLOCK_BYTES, write, false));
                span_seq.extend(meta_issued(&metas));
                span_seq
                    .extend((block + 1..block + covered).map(|b| (b * BLOCK_BYTES, write, false)));
                block += covered;
            }
            for block in blocks {
                metas.clear();
                by_block.on_access(block * BLOCK_BYTES, write, stream, &mut metas);
                block_seq.push((block * BLOCK_BYTES, write, false));
                block_seq.extend(meta_issued(&metas));
            }
        }
        prop_assert_eq!(span_seq, block_seq);
        prop_assert_eq!(format!("{by_span:?}"), format!("{by_block:?}"));
        prop_assert_eq!(by_span.flush(), by_block.flush());
        Ok([by_span, by_block])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random event lists over a 64 KiB window of a 1 MiB footprint:
        /// unaligned starts, lengths of 0–4200 bytes (so spans cross VN and
        /// MAC line boundaries), mixed reads and writes, MAC chunks of
        /// 64–4096 B, and metadata caches down to one set of one way, where
        /// tree walks and MAC fills evict the VN line mid-span.
        #[test]
        fn spans_match_per_block_access(
            words in prop::collection::vec(any::<u64>(), 1..40),
            bp_cache in prop::sample::select(vec![
                (64u64, 1usize), (128, 1), (128, 2), (256, 2), (64 << 10, 8),
            ]),
            bp_line_blocks in prop::sample::select(vec![(8u64, 8u64), (1, 8), (8, 1), (4, 16)]),
            mac_chunk in prop::sample::select(vec![64u64, 128, 512, 1024, 4096]),
            mac_cache in prop::sample::select(vec![256u64, 512, 4 << 10]),
        ) {
            let events: Vec<(u64, u64, bool)> = words
                .iter()
                .map(|&w| (w % (64 << 10), (w >> 16) % 4200, w >> 32 & 1 == 1))
                .collect();
            let footprint = 1 << 20;
            spans_match_blocks(NoProtection::new(), &events, false)?;
            spans_match_blocks(GuardNnEngine::confidentiality_only(footprint), &events, false)?;
            let (cache_bytes, cache_ways) = bp_cache;
            let (vn, mac) = bp_line_blocks;
            let bp = MeeConfig {
                cache_bytes,
                cache_ways,
                blocks_per_vn_line: vn,
                blocks_per_mac_line: mac,
                ..MeeConfig::default()
            };
            let [s, b] =
                spans_match_blocks(BaselineMee::new(footprint, bp), &events, vn == 1 || mac == 1)?;
            prop_assert_eq!(s.cache_miss_rate().to_bits(), b.cache_miss_rate().to_bits());
            for (chunk, entry) in [(mac_chunk, 8), (1, 64)] {
                let ci = GuardNnConfig {
                    protection: Protection::ConfidentialityIntegrity,
                    mac_chunk_bytes: chunk,
                    mac_entry_bytes: entry,
                    mac_cache_bytes: mac_cache,
                };
                spans_match_blocks(GuardNnEngine::new(footprint, ci), &events, chunk == 1)?;
            }
        }
    }

    /// BP on a 4 KiB footprint (a one-level tree) with one 2-way set: a
    /// cold read fills the VN line, then the tree node, and the MAC fill
    /// evicts the least recently used line — the VN line. The span must
    /// stop at the first block, because the next block misses it again.
    #[test]
    fn bp_span_stops_when_the_mac_fill_evicts_the_vn_line() {
        let cfg = MeeConfig {
            cache_bytes: 128,
            cache_ways: 2,
            ..MeeConfig::default()
        };
        let mut bp = BaselineMee::new(4096, cfg);
        assert_eq!(bp.tree_depth(), 1);
        let mut metas = Vec::new();
        let covered = bp.on_span(0, 8, false, StreamClass::FeatureRead, &mut metas);
        assert_eq!(covered, 1);
        assert_eq!(metas.len(), 3, "VN, tree node and MAC fills: {metas:?}");
        metas.clear();
        bp.on_access(BLOCK_BYTES, false, StreamClass::FeatureRead, &mut metas);
        assert!(!metas.is_empty(), "the second block refetches the VN line");
        // With room for all three lines the same span is covered whole.
        let mut roomy = BaselineMee::new(
            4096,
            MeeConfig {
                cache_ways: 4,
                cache_bytes: 256,
                ..cfg
            },
        );
        let covered = roomy.on_span(0, 8, false, StreamClass::FeatureRead, &mut Vec::new());
        assert_eq!(covered, 8);
    }
}
