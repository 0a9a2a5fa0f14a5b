//! Baseline protection (BP): an Intel-MEE-style memory encryption engine.
//!
//! This models the scheme the paper calls "today's baseline memory
//! protection" (§III-C, citing Gueron's MEE): per-64B-block version numbers
//! stored in DRAM (8 packed per 64-byte line), a per-block 8-byte MAC (also
//! 8 per line), and an 8-ary counter-integrity tree over the VN array whose
//! root stays on chip. A small on-chip metadata cache absorbs re-use; every
//! miss and every dirty eviction becomes extra DRAM traffic — the source of
//! BP's ~35% traffic and ~1.25× slowdown on DNNs.

use crate::cache::MetaCache;
use crate::{
    blocks_to_boundary, exact_log2, MetaAccess, ProtectionEngine, StreamClass, BLOCK_BYTES,
};

/// Configuration of the MEE model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeeConfig {
    /// On-chip metadata cache capacity in bytes.
    pub cache_bytes: u64,
    /// Cache associativity.
    pub cache_ways: usize,
    /// Data blocks covered per VN line (Intel MEE packs 8 split counters
    /// per 64-byte line). A power of two.
    pub blocks_per_vn_line: u64,
    /// Data blocks covered per MAC line (8 × 8-byte MACs). A power of two.
    pub blocks_per_mac_line: u64,
    /// Integrity-tree arity (VN lines per parent node), at least 2.
    pub tree_arity: u64,
}

impl Default for MeeConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 64 << 10,
            cache_ways: 8,
            blocks_per_vn_line: 8,
            blocks_per_mac_line: 8,
            tree_arity: 8,
        }
    }
}

/// The baseline-protection engine.
#[derive(Clone, Debug)]
pub struct BaselineMee {
    cache: MetaCache,
    /// Base of the VN array in DRAM.
    vn_base: u64,
    /// `log2` of the data bytes one VN line covers.
    vn_line_shift: u32,
    /// Integrity-tree levels stored in DRAM; `tree[0]` is the level above
    /// the VN array. The root above the last level is on chip.
    tree: Vec<TreeLevel>,
    /// Base of the MAC array.
    mac_base: u64,
    /// `log2` of the data bytes one MAC line covers.
    mac_line_shift: u32,
}

/// One integrity-tree level in DRAM.
#[derive(Clone, Copy, Debug)]
struct TreeLevel {
    base: u64,
    lines: u64,
    /// VN lines covered per node (`tree_arity^(level + 1)`).
    span: u64,
}

impl BaselineMee {
    /// Creates an engine protecting `data_bytes` of DRAM, with metadata
    /// regions laid out immediately above the data.
    ///
    /// # Panics
    ///
    /// Panics if `tree_arity < 2`, if `blocks_per_vn_line` or
    /// `blocks_per_mac_line` is not a power of two, or if the cache
    /// geometry is not a valid [`MetaCache`] geometry.
    pub fn new(data_bytes: u64, cfg: MeeConfig) -> Self {
        let arity = cfg.tree_arity;
        assert!(arity >= 2, "tree_arity {arity} is below 2");
        let block_shift = BLOCK_BYTES.trailing_zeros();
        let vn_line_shift = block_shift + exact_log2("blocks_per_vn_line", cfg.blocks_per_vn_line);
        let mac_line_shift =
            block_shift + exact_log2("blocks_per_mac_line", cfg.blocks_per_mac_line);
        let data_blocks = data_bytes.div_ceil(BLOCK_BYTES);
        let vn_lines = data_blocks.div_ceil(cfg.blocks_per_vn_line);
        let vn_base = data_bytes.next_multiple_of(4096);

        let mut tree = Vec::new();
        let mut cursor = vn_base + vn_lines * BLOCK_BYTES;
        let mut span = arity;
        let mut lines = vn_lines.div_ceil(arity);
        while lines >= 1 {
            tree.push(TreeLevel {
                base: cursor,
                lines,
                span,
            });
            cursor += lines * BLOCK_BYTES;
            if lines == 1 {
                break;
            }
            lines = lines.div_ceil(arity);
            span = span.saturating_mul(arity);
        }
        Self {
            cache: MetaCache::new(cfg.cache_bytes, cfg.cache_ways),
            vn_base,
            vn_line_shift,
            tree,
            mac_base: cursor.next_multiple_of(4096),
            mac_line_shift,
        }
    }

    /// Creates an engine with the default MEE configuration.
    pub fn with_defaults(data_bytes: u64) -> Self {
        Self::new(data_bytes, MeeConfig::default())
    }

    /// Number of integrity-tree levels stored in DRAM.
    pub fn tree_depth(&self) -> usize {
        self.tree.len()
    }

    /// Metadata-cache miss rate so far.
    pub fn cache_miss_rate(&self) -> f64 {
        self.cache.miss_rate()
    }

    fn mac_line_addr(&self, block_addr: u64) -> u64 {
        self.mac_base + (block_addr >> self.mac_line_shift) * BLOCK_BYTES
    }

    fn tree_node_addr(&self, level: usize, vn_line_index: u64) -> u64 {
        let l = self.tree[level];
        l.base + (vn_line_index / l.span).min(l.lines - 1) * BLOCK_BYTES
    }
}

impl ProtectionEngine for BaselineMee {
    fn name(&self) -> &'static str {
        "BP"
    }

    fn protects_integrity(&self) -> bool {
        true
    }

    fn on_span(
        &mut self,
        block_addr: u64,
        blocks: u64,
        write: bool,
        _stream: StreamClass,
        out: &mut Vec<MetaAccess>,
    ) -> u64 {
        // Version-number line: read to build the counter, dirtied by writes
        // (the per-block counter increments).
        let vn_line_index = block_addr >> self.vn_line_shift;
        let vn_line = self.vn_base + vn_line_index * BLOCK_BYTES;
        let vn_hit = self.cache.touch(vn_line, write, true, out);
        // Counter-tree walk: on a VN miss the line must be verified against
        // the tree, walking up until a cached (already-verified) node. On a
        // write the touched nodes become dirty.
        if !vn_hit {
            for level in 0..self.tree.len() {
                let node = self.tree_node_addr(level, vn_line_index);
                if self.cache.touch(node, write, true, out) {
                    break;
                }
            }
        }
        // MAC line: verified on read; on write the MAC is recomputed from
        // scratch, so the line is allocated dirty without a fetch.
        let mac_line = self.mac_line_addr(block_addr);
        self.cache.touch(mac_line, write, !write, out);
        // The rest of the span inside both lines hits both — unless the
        // tree walk or the MAC fill evicted the VN line (a small or
        // low-associativity cache), in which case the next block misses.
        let span = blocks
            .min(blocks_to_boundary(block_addr, self.vn_line_shift))
            .min(blocks_to_boundary(block_addr, self.mac_line_shift));
        if span > 1 && self.cache.rehit([vn_line, mac_line], span - 1) {
            span
        } else {
            1
        }
    }

    fn flush(&mut self) -> Vec<MetaAccess> {
        self.cache.flush_dirty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(mb: u64) -> BaselineMee {
        BaselineMee::with_defaults(mb << 20)
    }

    #[test]
    fn metadata_regions_above_data() {
        let e = engine(64);
        assert!(e.vn_base >= 64 << 20);
        assert!(e.mac_base > e.vn_base);
        assert!(
            e.tree_depth() >= 2,
            "64 MB of data needs a multi-level tree"
        );
    }

    #[test]
    fn cold_access_fetches_vn_tree_and_mac() {
        let mut e = engine(64);
        let mut metas = Vec::new();
        e.on_access(0, false, StreamClass::FeatureRead, &mut metas);
        // VN line + ≥1 tree node + MAC line.
        assert!(metas.len() >= 3, "got {metas:?}");
        assert!(metas.iter().all(|m| !m.write));
    }

    #[test]
    fn streaming_amortizes_metadata() {
        let mut e = engine(64);
        let mut meta = Vec::new();
        let blocks = 4096u64;
        for b in 0..blocks {
            e.on_access(b * 64, false, StreamClass::FeatureRead, &mut meta);
        }
        // One VN line + one MAC line per 8 blocks ≈ 0.25 per block, plus a
        // thin stream of tree nodes.
        let per_block = meta.len() as f64 / blocks as f64;
        assert!((0.2..0.5).contains(&per_block), "got {per_block}");
    }

    #[test]
    fn writes_create_writebacks() {
        let mut e = engine(256);
        let mut meta = Vec::new();
        // Write a large region so dirty VN/MAC lines must be evicted.
        for b in 0..200_000u64 {
            e.on_access(b * 64, true, StreamClass::FeatureWrite, &mut meta);
        }
        assert!(
            meta.iter().any(|m| m.write),
            "dirty metadata must be written back under pressure"
        );
    }

    #[test]
    fn flush_drains_dirty_lines() {
        let mut e = engine(64);
        e.on_access(0, true, StreamClass::FeatureWrite, &mut Vec::new());
        let flushed = e.flush();
        assert!(!flushed.is_empty());
        assert!(flushed.iter().all(|m| m.write));
        assert!(e.flush().is_empty());
    }

    #[test]
    fn scattered_access_pays_more_than_streaming() {
        let mut stream_e = engine(256);
        let mut scatter_e = engine(256);
        let n = 20_000u64;
        let (mut stream_meta, mut scatter_meta) = (Vec::new(), Vec::new());
        for i in 0..n {
            stream_e.on_access(i * 64, false, StreamClass::FeatureRead, &mut stream_meta);
            // Large prime stride defeats both cache and VN-line sharing.
            let addr = (i * 64 * 8209) % (256 << 20);
            scatter_e.on_access(addr, false, StreamClass::FeatureRead, &mut scatter_meta);
        }
        let (stream_meta, scatter_meta) = (stream_meta.len(), scatter_meta.len());
        assert!(
            scatter_meta as f64 > 2.0 * stream_meta as f64,
            "scatter {scatter_meta} vs stream {stream_meta}"
        );
    }

    #[test]
    fn tree_addresses_within_level_bounds() {
        let e = engine(64);
        for level in 0..e.tree_depth() {
            let last_vn_line = (64 << 20) / 64 / 8 - 1;
            let addr = e.tree_node_addr(level, last_vn_line);
            let l = e.tree[level];
            assert!(addr >= l.base);
            assert!(addr < l.base + l.lines * 64);
        }
    }
}
