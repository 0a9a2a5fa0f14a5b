//! DRAM geometry and timing configuration.
//!
//! Configurations come from two places: the hard-coded paper defaults
//! ([`DramConfig::ddr4_2400_16gb`]) and the declarative hardware target
//! registry (`guardnn-targets`), which turns a speed bin + geometry file
//! into the same struct:
//!
//! ```
//! use guardnn_dram::DramConfig;
//!
//! let target = guardnn_targets::get("ddr4-3200").unwrap();
//! let cfg = DramConfig::from_target(target);
//! assert_eq!(cfg.clock_mhz, 1600);
//! assert_eq!(cfg.timing.cl, 22);
//!
//! // The registry's `guardnn-paper` target reproduces the hard-coded
//! // defaults exactly.
//! let paper = DramConfig::from_target(guardnn_targets::get("guardnn-paper").unwrap());
//! assert_eq!(paper, DramConfig::ddr4_2400_16gb());
//! ```

use guardnn_targets::HardwareTarget;

/// DDR4 core timing parameters, in memory-clock cycles.
///
/// Values follow DDR4-2400 (CL17) speed-bin datasheets; the simulation is a
/// behavioural model, so only the parameters that shape throughput are kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DdrTiming {
    /// CAS latency (READ command → first data).
    pub cl: u64,
    /// RAS-to-CAS delay (ACT → READ/WRITE).
    pub rcd: u64,
    /// Row precharge time (PRE → ACT).
    pub rp: u64,
    /// Minimum row-open time (ACT → PRE).
    pub ras: u64,
    /// Column-to-column delay, same bank group.
    pub ccd_l: u64,
    /// Column-to-column delay, different bank group.
    pub ccd_s: u64,
    /// ACT-to-ACT delay to different banks (tRRD). Carried for the
    /// record but not yet modelled: no scheduler reads it, so back-to-back
    /// activates are limited only by tFAW.
    pub rrd: u64,
    /// Four-activate window.
    pub faw: u64,
    /// Write recovery time (end of write data → PRE).
    pub wr: u64,
    /// Write-to-read turnaround.
    pub wtr: u64,
    /// Read-to-write turnaround (approximate bus turnaround penalty).
    pub rtw: u64,
    /// Refresh cycle time (REF command duration).
    pub rfc: u64,
    /// Average refresh interval.
    pub refi: u64,
    /// Burst length in beats (8 for DDR4 → 4 clock cycles of data bus).
    pub bl: u64,
}

impl DdrTiming {
    /// DDR4-2400 CL17 timing set.
    pub fn ddr4_2400() -> Self {
        Self {
            cl: 17,
            rcd: 17,
            rp: 17,
            ras: 39,
            ccd_l: 6,
            ccd_s: 4,
            rrd: 4,
            faw: 26,
            wr: 18,
            wtr: 9,
            rtw: 8,
            rfc: 420,
            refi: 9360,
            bl: 8,
        }
    }

    /// Constructs the timing set from a hardware target's speed bin.
    pub fn from_target(t: &HardwareTarget) -> Self {
        let s = &t.dram.timing;
        Self {
            cl: s.cl,
            rcd: s.rcd,
            rp: s.rp,
            ras: s.ras,
            ccd_l: s.ccd_l,
            ccd_s: s.ccd_s,
            rrd: s.rrd,
            faw: s.faw,
            wr: s.wr,
            wtr: s.wtr,
            rtw: s.rtw,
            rfc: s.rfc,
            refi: s.refi,
            bl: s.bl,
        }
    }

    /// Data-bus occupancy of one burst, in clock cycles (double data rate).
    pub fn burst_cycles(&self) -> u64 {
        self.bl / 2
    }
}

/// Full DRAM system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels (each with its own data bus and scheduler).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (DDR4: 4).
    pub bank_groups: usize,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Row size in bytes (row-buffer page size per bank).
    pub row_bytes: u64,
    /// Transaction granularity in bytes (one BL8 burst on a 64-bit bus).
    pub access_bytes: u64,
    /// Memory clock frequency in MHz (data rate is 2×).
    pub clock_mhz: u64,
    /// Timing parameters.
    pub timing: DdrTiming,
    /// FR-FCFS reordering window (requests examined for row hits).
    pub sched_window: usize,
}

impl DramConfig {
    /// 16 GB of DDR4-2400 across 2 channels — the paper's Ramulator setup.
    pub fn ddr4_2400_16gb() -> Self {
        Self {
            channels: 2,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            row_bytes: 8192,
            access_bytes: 64,
            clock_mhz: 1200,
            timing: DdrTiming::ddr4_2400(),
            sched_window: 64,
        }
    }

    /// Constructs the full system configuration from a hardware target's
    /// DRAM geometry and speed bin.
    pub fn from_target(t: &HardwareTarget) -> Self {
        let d = &t.dram;
        Self {
            channels: d.channels as usize,
            ranks: d.ranks as usize,
            bank_groups: d.bank_groups as usize,
            banks_per_group: d.banks_per_group as usize,
            row_bytes: d.row_bytes,
            access_bytes: d.access_bytes,
            clock_mhz: d.clock_mhz,
            timing: DdrTiming::from_target(t),
            sched_window: d.sched_window as usize,
        }
    }

    /// A single-channel variant for unit tests (fewer moving parts).
    pub fn test_single_channel() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            ..Self::ddr4_2400_16gb()
        }
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Peak bandwidth in bytes per memory-clock cycle (all channels).
    ///
    /// Derived from the access granule and burst length: one burst moves
    /// `access_bytes` in `bl` beats at double data rate, so the bus is
    /// `access_bytes / bl` bytes wide and moves twice that per clock. For
    /// DDR4 (64 B in BL8 on a 64-bit bus) this is the classic 16 B/clock;
    /// an HBM-class target with BL4 models a 128-bit bus honestly.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        (self.access_bytes as f64 / self.timing.bl as f64) * 2.0 * self.channels as f64
    }

    /// Peak bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.peak_bytes_per_cycle() * self.clock_mhz as f64 * 1e6 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_peak_bandwidth() {
        let cfg = DramConfig::ddr4_2400_16gb();
        // 2 channels × 19.2 GB/s = 38.4 GB/s.
        let peak = cfg.peak_gbps();
        assert!((38.0..39.0).contains(&peak), "got {peak}");
    }

    #[test]
    fn burst_occupancy() {
        assert_eq!(DdrTiming::ddr4_2400().burst_cycles(), 4);
    }

    #[test]
    fn bank_count() {
        let cfg = DramConfig::ddr4_2400_16gb();
        assert_eq!(cfg.banks_per_channel(), 2 * 4 * 4);
    }

    #[test]
    fn peak_bandwidth_is_derived_from_burst_shape() {
        // DDR4: 64 B / BL8 → 8 B bus → 16 B/clock/channel (unchanged).
        let ddr4 = DramConfig::ddr4_2400_16gb();
        assert_eq!(ddr4.peak_bytes_per_cycle(), 16.0 * ddr4.channels as f64);
        // HBM-class: 64 B / BL4 → 16 B bus → 32 B/clock/channel.
        let hbm = DramConfig::from_target(guardnn_targets::get("hbm-wide").unwrap());
        assert_eq!(hbm.peak_bytes_per_cycle(), 32.0 * hbm.channels as f64);
    }

    #[test]
    fn paper_target_matches_hardcoded_defaults() {
        let t = guardnn_targets::get("guardnn-paper").unwrap();
        assert_eq!(DdrTiming::from_target(t), DdrTiming::ddr4_2400());
        assert_eq!(DramConfig::from_target(t), DramConfig::ddr4_2400_16gb());
    }
}
