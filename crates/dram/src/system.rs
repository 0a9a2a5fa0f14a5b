//! Multi-channel DRAM front end with address mapping.

use crate::channel::{Channel, Request};
use crate::config::DramConfig;
use crate::stats::DramStats;
use guardnn_obs::Recorder;
use std::ops::Range;

/// Indices of the `granule`-byte blocks that `[addr, addr + bytes)`
/// touches: empty for zero bytes at any `addr`, otherwise from the block
/// holding `addr` through the one holding the last byte.
///
/// # Example
///
/// ```
/// use guardnn_dram::block_range;
///
/// assert_eq!(block_range(10, 100, 64), 0..2);
/// assert!(block_range(10, 0, 64).is_empty());
/// ```
pub fn block_range(addr: u64, bytes: u64, granule: u64) -> Range<u64> {
    let start = addr / granule;
    let end = if bytes == 0 {
        start
    } else {
        (addr + bytes).div_ceil(granule)
    };
    start..end
}

/// A destination for decoded DRAM transactions. Implemented by the inline
/// [`DramSystem`] and by the per-channel-threaded
/// [`crate::parallel::ParallelDram`] front end, so simulation drivers can
/// be generic over how channels are stepped.
pub trait DramSink {
    /// Enqueues one transaction of `access_bytes` at `addr`.
    fn access(&mut self, addr: u64, is_write: bool);

    /// Drains all queues and returns merged statistics so far (bank and
    /// timing state persist — this checkpoints, it does not reset).
    fn drain_stats(&mut self) -> DramStats;
}

/// The full DRAM system: address decoding plus one [`Channel`] per channel.
///
/// Address mapping (low → high bits): channel, bank group, column, rank,
/// bank, row. Placing the bank-group bits immediately above the channel bits
/// interleaves consecutive bursts across bank groups, so streaming traffic
/// is paced by tCCD_S rather than tCCD_L — the standard DDR4 controller
/// optimization (and Ramulator's high-performance mapping).
///
/// # Example
///
/// ```
/// use guardnn_dram::{DramConfig, DramSystem};
///
/// let mut dram = DramSystem::new(DramConfig::ddr4_2400_16gb());
/// dram.access(0, false);
/// dram.access(64, true);
/// let stats = dram.finish();
/// assert_eq!(stats.accesses(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DramSystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Shift/mask decode plan when every geometry factor is a power of two
    /// (the invariable case in practice); `None` falls back to div/mod.
    /// Address decoding runs once per 64-byte block of simulated traffic,
    /// so a chain of eight u64 divisions is measurable.
    shifts: Option<DecodeShifts>,
}

/// log2 of each geometry factor, for the shift/mask decode path.
#[derive(Clone, Copy, Debug)]
struct DecodeShifts {
    access: u32,
    channels: u32,
    bank_groups: u32,
    cols_per_row: u32,
    ranks: u32,
    banks_per_group: u32,
}

fn log2_exact(x: u64) -> Option<u32> {
    (x.is_power_of_two()).then(|| x.trailing_zeros())
}

impl DramSystem {
    /// Creates an idle DRAM system reporting to the process-global
    /// recorder (a no-op unless observability is enabled).
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_recorder(cfg, Recorder::global().clone())
    }

    /// Creates an idle DRAM system whose channels report per-channel
    /// metrics (`dram.chan{i}.*`) to `recorder`.
    pub fn with_recorder(cfg: DramConfig, recorder: Recorder) -> Self {
        let channels = (0..cfg.channels)
            .map(|i| Channel::with_observer(cfg, recorder.clone(), i))
            .collect();
        let shifts = (|| {
            Some(DecodeShifts {
                access: log2_exact(cfg.access_bytes)?,
                channels: log2_exact(cfg.channels as u64)?,
                bank_groups: log2_exact(cfg.bank_groups as u64)?,
                cols_per_row: log2_exact(cfg.row_bytes / cfg.access_bytes)?,
                ranks: log2_exact(cfg.ranks as u64)?,
                banks_per_group: log2_exact(cfg.banks_per_group as u64)?,
            })
        })();
        Self {
            cfg,
            channels,
            shifts,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Enqueues one transaction of `cfg.access_bytes` at `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) {
        let (channel, req) = self.route(addr, is_write);
        self.channels[channel].push(req);
    }

    /// Enqueues a contiguous burst covering `[addr, addr + bytes)` (no
    /// access for zero bytes).
    pub fn access_range(&mut self, addr: u64, bytes: u64, is_write: bool) {
        let granule = self.cfg.access_bytes;
        for block in block_range(addr, bytes, granule) {
            self.access(block * granule, is_write);
        }
    }

    /// Drains all queues and returns merged statistics. Total cycles is the
    /// max across channels (they run in parallel).
    pub fn finish(mut self) -> DramStats {
        self.drain_stats()
    }

    /// Drains all queues and returns merged statistics without consuming
    /// the system; bank and timing state persist, so this can checkpoint
    /// progress between phases of a longer simulation.
    pub fn drain_stats(&mut self) -> DramStats {
        let mut merged = DramStats::default();
        for ch in &mut self.channels {
            merged.merge(&ch.drain());
        }
        merged
    }

    /// Decodes `addr` into its channel index and channel-local request —
    /// the demux step the per-channel-threaded front end runs on the
    /// producing thread.
    #[inline]
    pub(crate) fn route(&self, addr: u64, is_write: bool) -> (usize, Request) {
        let cfg = &self.cfg;
        // Bank-address hashing (XOR with low row bits): decorrelates
        // concurrently streamed regions so they do not ping-pong one bank's
        // row buffer — standard in modern controllers and Ramulator maps.
        if let Some(s) = &self.shifts {
            // All geometry factors are powers of two: pure shift/mask.
            let block = addr >> s.access;
            let channel = (block & ((1 << s.channels) - 1)) as usize;
            let rest = block >> s.channels;
            let bank_group = (rest & ((1 << s.bank_groups) - 1)) as usize;
            let rest = (rest >> s.bank_groups) >> s.cols_per_row; // column bits consumed
            let rank = rest & ((1 << s.ranks) - 1);
            let rest = rest >> s.ranks;
            let bank_in_group = rest & ((1 << s.banks_per_group) - 1);
            let row = rest >> s.banks_per_group;
            let bank_in_group = (bank_in_group ^ (row & ((1 << s.banks_per_group) - 1))) as usize;
            let rank = (rank ^ ((row >> s.banks_per_group) & ((1 << s.ranks) - 1))) as usize;
            let bank =
                ((rank * cfg.bank_groups) + bank_group) * cfg.banks_per_group + bank_in_group;
            return (
                channel,
                Request {
                    bank,
                    bank_group,
                    row,
                    is_write,
                },
            );
        }
        let block = addr / cfg.access_bytes;
        let channel = (block % cfg.channels as u64) as usize;
        let rest = block / cfg.channels as u64;
        let bank_group = (rest % cfg.bank_groups as u64) as usize;
        let rest = rest / cfg.bank_groups as u64;
        let cols_per_row = cfg.row_bytes / cfg.access_bytes;
        let rest = rest / cols_per_row; // column bits consumed
        let rank = (rest % cfg.ranks as u64) as usize;
        let rest = rest / cfg.ranks as u64;
        let bank_in_group = (rest % cfg.banks_per_group as u64) as usize;
        let row = rest / cfg.banks_per_group as u64;
        let bank_in_group = (bank_in_group as u64 ^ (row % cfg.banks_per_group as u64)) as usize;
        let rank = (rank as u64 ^ ((row / cfg.banks_per_group as u64) % cfg.ranks as u64)) as usize;
        let bank = ((rank * cfg.bank_groups) + bank_group) * cfg.banks_per_group + bank_in_group;
        (
            channel,
            Request {
                bank,
                bank_group,
                row,
                is_write,
            },
        )
    }
}

impl DramSink for DramSystem {
    fn access(&mut self, addr: u64, is_write: bool) {
        DramSystem::access(self, addr, is_write);
    }

    fn drain_stats(&mut self) -> DramStats {
        DramSystem::drain_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_stripe_channels() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let sys = DramSystem::new(cfg);
        let (c0, _) = sys.route(0, false);
        let (c1, _) = sys.route(64, false);
        assert_ne!(c0, c1);
        let (c2, _) = sys.route(128, false);
        assert_eq!(c0, c2);
    }

    #[test]
    fn shift_decode_matches_div_mod_decode() {
        // Every shipped config is power-of-two, so normal operation only
        // exercises the shift/mask path; pin it against the div/mod
        // fallback so the two decoders cannot silently diverge.
        for cfg in [
            DramConfig::ddr4_2400_16gb(),
            DramConfig::test_single_channel(),
        ] {
            let fast = DramSystem::new(cfg);
            assert!(fast.shifts.is_some(), "shipped configs are power-of-two");
            let mut slow = fast.clone();
            slow.shifts = None;
            let mut addr = 0u64;
            for i in 0..20_000u64 {
                // Mix dense strides with wild jumps across the 16 GB space.
                addr = addr.wrapping_add(64 + (i % 7) * 8192 + (i % 11) * (1 << 27));
                let a = addr % (1 << 34);
                assert_eq!(fast.route(a, false), slow.route(a, false), "addr {a:#x}");
            }
        }
    }

    #[test]
    fn same_row_until_rotation_boundary() {
        let cfg = DramConfig::test_single_channel();
        let sys = DramSystem::new(cfg);
        // With bank-group interleaving a contiguous region of
        // bank_groups × row_bytes shares row state across the four groups.
        let span = cfg.bank_groups as u64 * cfg.row_bytes;
        let (_, r0) = sys.route(0, false);
        let (_, r_same) = sys.route(4 * 64, false); // same group, next column
        assert_eq!((r0.bank, r0.row), (r_same.bank, r_same.row));
        let (_, r_other_group) = sys.route(64, false);
        assert_ne!(r0.bank_group, r_other_group.bank_group);
        let (_, r_far) = sys.route(span, false);
        assert_ne!((r0.bank, r0.row), (r_far.bank, r_far.row));
    }

    #[test]
    fn streaming_gets_high_bandwidth() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let mut sys = DramSystem::new(cfg);
        sys.access_range(0, 1 << 20, false); // 1 MiB stream
        let stats = sys.finish();
        let bpc = stats.bytes_per_cycle(64);
        // 2 channels → up to 32 B/cycle; streaming should reach >75%.
        assert!(bpc > 24.0, "got {bpc}");
        assert!(
            stats.row_hit_rate() > 0.9,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }

    #[test]
    fn random_accesses_get_low_bandwidth() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let mut sys = DramSystem::new(cfg);
        // Stride by a prime number of rows to defeat the row buffer.
        let stride = cfg.row_bytes * 17 + 64;
        let mut addr = 0u64;
        for _ in 0..16_384 {
            sys.access(addr % (1 << 34), false);
            addr += stride;
        }
        let stats = sys.finish();
        let bpc = stats.bytes_per_cycle(64);
        assert!(
            bpc < 16.0,
            "scattered traffic must be far from peak, got {bpc}"
        );
    }

    #[test]
    fn access_range_covers_partial_blocks() {
        let cfg = DramConfig::test_single_channel();
        let mut sys = DramSystem::new(cfg);
        sys.access_range(10, 100, true); // spans blocks 0 and 1
        let stats = sys.finish();
        assert_eq!(stats.writes, 2);
    }

    /// `(addr, bytes, blocks touched)`: aligned and unaligned starts ×
    /// lengths around one block. Zero bytes touch nothing, wherever they
    /// start.
    const RANGE_TABLE: [(u64, u64, u64); 10] = [
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

    #[test]
    fn access_range_table() {
        for (addr, bytes, blocks) in RANGE_TABLE {
            assert_eq!(
                block_range(addr, bytes, 64),
                2..2 + blocks,
                "{addr} + {bytes}"
            );
            let mut sys = DramSystem::new(DramConfig::test_single_channel());
            sys.access_range(addr, bytes, false);
            assert_eq!(sys.finish().reads, blocks, "{addr} + {bytes}");
        }
    }

    #[test]
    fn two_channels_nearly_double_bandwidth() {
        let run = |channels: usize| {
            let cfg = DramConfig {
                channels,
                ..DramConfig::ddr4_2400_16gb()
            };
            let mut sys = DramSystem::new(cfg);
            sys.access_range(0, 4 << 20, false);
            let stats = sys.finish();
            stats.bytes_per_cycle(64)
        };
        let one = run(1);
        let two = run(2);
        assert!(two > 1.8 * one, "1ch {one} vs 2ch {two}");
    }

    #[test]
    fn bank_hash_decorrelates_far_regions() {
        // Two regions 1 GiB apart stream concurrently; with bank-address
        // hashing their banks keep rotating so sustained collisions are
        // rare and throughput stays high.
        let cfg = DramConfig::test_single_channel();
        let mut sys = DramSystem::new(cfg);
        for i in 0..8192u64 {
            sys.access(i * 64, false);
            sys.access((1 << 30) + i * 64, false);
        }
        let stats = sys.finish();
        assert!(
            stats.row_hit_rate() > 0.9,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }

    #[test]
    fn writes_and_reads_counted() {
        let mut sys = DramSystem::new(DramConfig::ddr4_2400_16gb());
        sys.access(0, false);
        sys.access(64, true);
        sys.access(128, true);
        let stats = sys.finish();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 2);
    }
}
