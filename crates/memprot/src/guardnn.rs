//! The GuardNN DNN-specific memory-protection engine.
//!
//! Confidentiality: AES-CTR with version numbers built from a handful of
//! on-chip counters ([`crate::vn::VersionCounters`]) — no VN is ever stored
//! in DRAM, so encryption adds *zero* memory traffic.
//!
//! Integrity (GuardNN_CI): one MAC per data chunk, where the chunk size
//! matches the accelerator's DRAM burst granularity (512 B for the paper's
//! prototype). Because VNs are trusted on-chip state, no integrity tree is
//! needed — a flat MAC array suffices (replay is defeated by the VN inside
//! the MAC). That is the paper's key traffic saving over BP.
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::guardnn::GuardNnEngine;
//! use guardnn_memprot::{ProtectionEngine, StreamClass, BLOCK_BYTES};
//!
//! // GuardNN_C: version numbers are on-chip registers, so encryption
//! // adds zero metadata traffic on any access pattern.
//! let mut c = GuardNnEngine::confidentiality_only(1 << 20);
//! let mut meta = Vec::new();
//! c.on_access(0, true, StreamClass::FeatureWrite, &mut meta);
//! assert!(meta.is_empty());
//! assert!(c.flush().is_empty());
//!
//! // GuardNN_CI: a flat 8-byte MAC per 512-byte chunk — no stored VNs,
//! // no tree. Streaming 64 KiB of feature writes dirties
//! // 64 KiB / 512 B / 8 MACs-per-line = 16 MAC cache lines; writes
//! // recompute MACs so nothing is fetched inline, and the dirty lines
//! // reach DRAM only at the flush: 16 × 64 B over 64 KiB of data ≈ 1.6%
//! // traffic overhead (the paper's §III-C).
//! let mut ci = GuardNnEngine::confidentiality_and_integrity(1 << 20);
//! let mut inline = Vec::new();
//! for block in 0..(64 << 10) / BLOCK_BYTES {
//!     ci.on_access(block * BLOCK_BYTES, true, StreamClass::FeatureWrite, &mut inline);
//! }
//! assert!(inline.is_empty(), "write MACs coalesce in the on-chip buffer");
//! assert_eq!(ci.flush().len(), 16);
//! ```

use crate::cache::MetaCache;
use crate::vn::VersionCounters;
use crate::{
    blocks_to_boundary, exact_log2, MetaAccess, ProtectionEngine, StreamClass, BLOCK_BYTES,
};

/// Protection level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Memory encryption only (GuardNN_C).
    ConfidentialityOnly,
    /// Encryption plus per-chunk MAC integrity (GuardNN_CI).
    ConfidentialityIntegrity,
}

/// Configuration of the GuardNN engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuardNnConfig {
    /// Protection level.
    pub protection: Protection,
    /// Data bytes covered by one MAC (the accelerator's write granularity;
    /// 512 B in the paper's prototype). A power of two.
    pub mac_chunk_bytes: u64,
    /// Bytes of one MAC entry, 1–64, packing a power-of-two number of
    /// entries into a 64-byte line.
    pub mac_entry_bytes: u64,
    /// Small on-chip MAC buffer that coalesces MAC-line traffic for
    /// sequential chunks.
    pub mac_cache_bytes: u64,
}

impl Default for GuardNnConfig {
    fn default() -> Self {
        Self {
            protection: Protection::ConfidentialityIntegrity,
            mac_chunk_bytes: 512,
            mac_entry_bytes: 8,
            mac_cache_bytes: 4 << 10,
        }
    }
}

/// The GuardNN protection engine (performance model).
#[derive(Clone, Debug)]
pub struct GuardNnEngine {
    cfg: GuardNnConfig,
    counters: VersionCounters,
    mac_base: u64,
    /// `log2(mac_chunk_bytes × entries per line)`: data bytes per MAC line.
    mac_line_shift: u32,
    mac_cache: MetaCache,
}

impl GuardNnEngine {
    /// Creates an engine protecting `data_bytes` of DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `mac_chunk_bytes` is not a power of two, if
    /// `mac_entry_bytes` is outside 1–64 or does not pack a power-of-two
    /// number of entries per 64-byte line, or if `mac_cache_bytes` is not
    /// a valid [`MetaCache`] geometry.
    pub fn new(data_bytes: u64, cfg: GuardNnConfig) -> Self {
        let entry = cfg.mac_entry_bytes;
        assert!(
            (1..=BLOCK_BYTES).contains(&entry),
            "mac_entry_bytes {entry} is outside 1..=64"
        );
        Self {
            counters: VersionCounters::new(),
            mac_base: data_bytes.next_multiple_of(4096),
            mac_line_shift: exact_log2("mac_chunk_bytes", cfg.mac_chunk_bytes)
                + exact_log2("entries per MAC line", BLOCK_BYTES / entry),
            mac_cache: MetaCache::new(cfg.mac_cache_bytes, 4),
            cfg,
        }
    }

    /// GuardNN_C: confidentiality only.
    pub fn confidentiality_only(data_bytes: u64) -> Self {
        Self::new(
            data_bytes,
            GuardNnConfig {
                protection: Protection::ConfidentialityOnly,
                ..Default::default()
            },
        )
    }

    /// GuardNN_CI: confidentiality and integrity.
    pub fn confidentiality_and_integrity(data_bytes: u64) -> Self {
        Self::new(data_bytes, GuardNnConfig::default())
    }

    /// The on-chip version counters (shared with the functional model).
    pub fn counters(&self) -> &VersionCounters {
        &self.counters
    }

    /// Mutable access to the counters (the device's instruction handlers
    /// drive `SetInput` / `SetWeight` through this).
    pub fn counters_mut(&mut self) -> &mut VersionCounters {
        &mut self.counters
    }

    fn mac_line_addr(&self, block_addr: u64) -> u64 {
        self.mac_base + (block_addr >> self.mac_line_shift) * BLOCK_BYTES
    }
}

impl ProtectionEngine for GuardNnEngine {
    fn name(&self) -> &'static str {
        match self.cfg.protection {
            Protection::ConfidentialityOnly => "GuardNN_C",
            Protection::ConfidentialityIntegrity => "GuardNN_CI",
        }
    }

    fn protects_integrity(&self) -> bool {
        self.cfg.protection == Protection::ConfidentialityIntegrity
    }

    fn on_pass_begin(&mut self) {
        // One Forward-class instruction per pass: the feature-write counter
        // advances so every pass writes features under a fresh VN. No plan
        // produces 2³² passes per input, so exhaustion here is a harness
        // bug, not a reachable protocol state.
        self.counters
            .next_feature_write()
            // lint:allow(panic-discipline) — exhaustion is a harness bug, per the comment above
            .expect("simulation exceeded 2^32 passes per input");
        guardnn_obs::Recorder::global().add("memprot.vn_advances", 1);
    }

    fn on_span(
        &mut self,
        block_addr: u64,
        blocks: u64,
        write: bool,
        _stream: StreamClass,
        out: &mut Vec<MetaAccess>,
    ) -> u64 {
        // Encryption costs no traffic: the counter block is (address, VN)
        // with the VN from on-chip state.
        if self.cfg.protection == Protection::ConfidentialityOnly {
            return blocks;
        }
        // Integrity: touch the MAC line for this chunk. Writes recompute
        // the MAC, so they allocate without fetching. The line is then
        // resident, so the rest of the span inside it only hits.
        let mac_line = self.mac_line_addr(block_addr);
        self.mac_cache.touch(mac_line, write, !write, out);
        let span = blocks.min(blocks_to_boundary(block_addr, self.mac_line_shift));
        if span > 1 && self.mac_cache.rehit([mac_line], span - 1) {
            span
        } else {
            1
        }
    }

    fn flush(&mut self) -> Vec<MetaAccess> {
        self.mac_cache.flush_dirty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidentiality_only_is_free() {
        let mut e = GuardNnEngine::confidentiality_only(64 << 20);
        let mut meta = Vec::new();
        for b in 0..10_000u64 {
            e.on_access(b * 64, b % 2 == 0, StreamClass::FeatureWrite, &mut meta);
        }
        assert!(meta.is_empty());
        assert!(e.flush().is_empty());
        assert_eq!(e.name(), "GuardNN_C");
        assert!(!e.protects_integrity());
    }

    #[test]
    fn integrity_traffic_is_small_fraction() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(256 << 20);
        let blocks = 100_000u64;
        let mut meta = Vec::new();
        for b in 0..blocks {
            e.on_access(b * 64, false, StreamClass::FeatureRead, &mut meta);
        }
        let meta_bytes = (meta.len() + e.flush().len()) as u64 * BLOCK_BYTES;
        let data_bytes = blocks * BLOCK_BYTES;
        let ratio = meta_bytes as f64 / data_bytes as f64;
        // One 64B MAC line per 4 KiB of streamed data ≈ 1.6%.
        assert!(ratio < 0.05, "got {ratio}");
        assert!(ratio > 0.005, "got {ratio}");
    }

    #[test]
    fn guardnn_beats_baseline_traffic() {
        use crate::baseline::BaselineMee;
        let mut gnn = GuardNnEngine::confidentiality_and_integrity(256 << 20);
        let mut bp = BaselineMee::with_defaults(256 << 20);
        let (mut gnn_meta, mut bp_meta) = (Vec::new(), Vec::new());
        for b in 0..50_000u64 {
            gnn.on_access(b * 64, b % 3 == 0, StreamClass::FeatureWrite, &mut gnn_meta);
            bp.on_access(b * 64, b % 3 == 0, StreamClass::FeatureWrite, &mut bp_meta);
        }
        let (gnn_meta, bp_meta) = (gnn_meta.len(), bp_meta.len());
        assert!(
            (gnn_meta as f64) < bp_meta as f64 / 5.0,
            "GuardNN {gnn_meta} vs BP {bp_meta}"
        );
    }

    #[test]
    fn pass_begin_advances_feature_vn() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        let v0 = e.counters().feature_write_vn();
        e.on_pass_begin();
        assert_ne!(e.counters().feature_write_vn(), v0);
    }

    #[test]
    fn mac_line_mapping() {
        let e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        // Blocks within one 512B chunk share a MAC entry; 8 chunks (4 KiB)
        // share a MAC line.
        let l0 = e.mac_line_addr(0);
        assert_eq!(e.mac_line_addr(511), l0);
        assert_eq!(e.mac_line_addr(4095), l0);
        assert_ne!(e.mac_line_addr(4096), l0);
    }

    #[test]
    fn dirty_mac_lines_flushed() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        e.on_access(0, true, StreamClass::FeatureWrite, &mut Vec::new());
        let flushed = e.flush();
        assert_eq!(flushed.len(), 1);
        assert!(flushed[0].write);
    }
}
