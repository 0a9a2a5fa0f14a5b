//! The typed hardware target description and its (de)serialization.

use crate::yaml::{self, Section, Writer};
use crate::TargetError;

/// DDR core timing parameters, in memory-clock cycles. Field-for-field the
/// set the DRAM channel scheduler consumes (`guardnn_dram::DdrTiming` is
/// constructed from this spec).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingSpec {
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
    /// ACT-to-ACT delay to different banks (tRRD). Parsed and carried
    /// into the DRAM timing set, but the scheduler does not yet enforce
    /// it.
    pub rrd: u64,
    /// Four-activate window.
    pub faw: u64,
    /// Write recovery time.
    pub wr: u64,
    /// Write-to-read turnaround.
    pub wtr: u64,
    /// Read-to-write turnaround.
    pub rtw: u64,
    /// Refresh cycle time.
    pub rfc: u64,
    /// Average refresh interval.
    pub refi: u64,
    /// Burst length in beats.
    pub bl: u64,
}

/// DRAM system geometry plus its speed bin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramSpec {
    /// Independent channels.
    pub channels: u64,
    /// Ranks per channel.
    pub ranks: u64,
    /// Bank groups per rank.
    pub bank_groups: u64,
    /// Banks per bank group.
    pub banks_per_group: u64,
    /// Row-buffer page size per bank, bytes.
    pub row_bytes: u64,
    /// Transaction granularity, bytes.
    pub access_bytes: u64,
    /// Memory clock, MHz (data rate is 2×).
    pub clock_mhz: u64,
    /// FR-FCFS reordering window.
    pub sched_window: u64,
    /// Core timing parameters.
    pub timing: TimingSpec,
}

/// Systolic-array dataflow named in a target file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataflowSpec {
    /// Weights resident in PEs (`weight-stationary`).
    WeightStationary,
    /// Output partial sums resident (`output-stationary`).
    OutputStationary,
    /// Inputs resident (`input-stationary`).
    InputStationary,
}

impl DataflowSpec {
    fn parse(raw: &str, path: String) -> Result<Self, TargetError> {
        match raw {
            "weight-stationary" => Ok(Self::WeightStationary),
            "output-stationary" => Ok(Self::OutputStationary),
            "input-stationary" => Ok(Self::InputStationary),
            other => Err(TargetError::Invalid {
                path,
                msg: format!(
                    "unknown dataflow {other:?} (expected weight-stationary, \
                     output-stationary, or input-stationary)"
                ),
            }),
        }
    }

    /// The file-format name of this dataflow.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::WeightStationary => "weight-stationary",
            Self::OutputStationary => "output-stationary",
            Self::InputStationary => "input-stationary",
        }
    }
}

/// Systolic-array geometry and on-chip memory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArraySpec {
    /// PE rows.
    pub rows: u64,
    /// PE columns.
    pub cols: u64,
    /// GEMM mapping dataflow.
    pub dataflow: DataflowSpec,
    /// Activation-buffer SRAM, bytes.
    pub sram_act_bytes: u64,
    /// Weight-buffer SRAM, bytes.
    pub sram_wgt_bytes: u64,
    /// Output-buffer SRAM, bytes.
    pub sram_out_bytes: u64,
    /// Core clock, MHz.
    pub clock_mhz: u64,
}

/// MicroBlaze-class security-firmware latency profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroblazeSpec {
    /// Full ECDHE–ECDSA handshake (`GetPK` + `InitSession`), milliseconds.
    pub handshake_ms: f64,
    /// Sustained one-direction AES re-encryption bandwidth, GB/s.
    pub reencrypt_gbps: f64,
    /// Fixed per-instruction firmware overhead, microseconds.
    pub fixed_overhead_us: f64,
    /// Report hashing time for `SignOutput`, milliseconds.
    pub report_hash_ms: f64,
}

/// One block's FPGA resource usage (or, for `base_design`, the fractions
/// it is derived from).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceSpec {
    /// Look-up tables.
    pub luts: f64,
    /// Flip-flops.
    pub ffs: f64,
    /// Block RAMs.
    pub brams: f64,
    /// DSP slices.
    pub dsps: f64,
}

/// The base-design footprint, expressed the way datasheets and the paper
/// do: as the fraction of the base each measured GuardNN component
/// occupies (AES core for logic, microcontroller for BRAM/DSP).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaseDesignSpec {
    /// AES-core LUTs as a fraction of the base design's LUTs.
    pub aes_lut_fraction: f64,
    /// AES-core FFs as a fraction of the base design's FFs.
    pub aes_ff_fraction: f64,
    /// Microcontroller BRAMs as a fraction of the base design's BRAMs.
    pub microblaze_bram_fraction: f64,
    /// Microcontroller DSPs as a fraction of the base design's DSPs.
    pub microblaze_dsp_fraction: f64,
}

/// FPGA prototype point: accelerator sizing plus the resource table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FpgaSpec {
    /// DSP blocks allocated to the MAC array.
    pub dsps: u64,
    /// Fabric clock, MHz.
    pub clock_mhz: f64,
    /// Compute efficiency (fraction of peak MACs the HLS design sustains).
    pub compute_efficiency: f64,
    /// DDR bandwidth available to the accelerator, GB/s.
    pub mem_bw_gbps: f64,
    /// Pipelined AES-128 engines.
    pub aes_engines: u64,
    /// Fixed per-layer launch overhead, microseconds.
    pub layer_overhead_us: f64,
    /// One AES-128 core's resources.
    pub aes_core: ResourceSpec,
    /// The microcontroller's resources.
    pub microblaze: ResourceSpec,
    /// Base-design derivation fractions.
    pub base_design: BaseDesignSpec,
}

/// One complete hardware point: everything the simulators and analytic
/// models need to evaluate GuardNN on it.
#[derive(Clone, Debug, PartialEq)]
pub struct HardwareTarget {
    /// Registry key (`guardnn-paper`, `ddr4-3200`, ...).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// DRAM geometry and speed bin.
    pub dram: DramSpec,
    /// Systolic-array geometry.
    pub array: ArraySpec,
    /// Security-firmware latency profile.
    pub microblaze: MicroblazeSpec,
    /// FPGA prototype point.
    pub fpga: FpgaSpec,
}

fn read_resources(
    section: &mut Section<'_>,
    key: &'static str,
) -> Result<ResourceSpec, TargetError> {
    let mut s = section.child(key)?;
    let spec = ResourceSpec {
        luts: s.f64("luts")?,
        ffs: s.f64("ffs")?,
        brams: s.f64("brams")?,
        dsps: s.f64("dsps")?,
    };
    s.finish()?;
    Ok(spec)
}

impl HardwareTarget {
    /// Parses one target description. Every schema violation — missing
    /// field, unknown field, wrong type — comes back as a typed
    /// [`TargetError`]; the result is additionally validated
    /// ([`HardwareTarget::validate`]), so a successfully returned target
    /// is usable as-is.
    pub fn parse(input: &str) -> Result<HardwareTarget, TargetError> {
        let doc = yaml::parse(input)?;
        let mut root = Section::root(&doc)?;
        let name = root.str("name")?;
        let description = root.str("description")?;

        let mut dram = root.child("dram")?;
        let mut timing = dram.child("timing")?;
        let timing_spec = TimingSpec {
            cl: timing.u64("cl")?,
            rcd: timing.u64("rcd")?,
            rp: timing.u64("rp")?,
            ras: timing.u64("ras")?,
            ccd_l: timing.u64("ccd_l")?,
            ccd_s: timing.u64("ccd_s")?,
            rrd: timing.u64("rrd")?,
            faw: timing.u64("faw")?,
            wr: timing.u64("wr")?,
            wtr: timing.u64("wtr")?,
            rtw: timing.u64("rtw")?,
            rfc: timing.u64("rfc")?,
            refi: timing.u64("refi")?,
            bl: timing.u64("bl")?,
        };
        timing.finish()?;
        let dram_spec = DramSpec {
            channels: dram.u64("channels")?,
            ranks: dram.u64("ranks")?,
            bank_groups: dram.u64("bank_groups")?,
            banks_per_group: dram.u64("banks_per_group")?,
            row_bytes: dram.u64("row_bytes")?,
            access_bytes: dram.u64("access_bytes")?,
            clock_mhz: dram.u64("clock_mhz")?,
            sched_window: dram.u64("sched_window")?,
            timing: timing_spec,
        };
        dram.finish()?;

        let mut array = root.child("array")?;
        let dataflow_raw = array.str("dataflow")?;
        let array_spec = ArraySpec {
            rows: array.u64("rows")?,
            cols: array.u64("cols")?,
            dataflow: DataflowSpec::parse(&dataflow_raw, "array.dataflow".into())?,
            sram_act_bytes: array.u64("sram_act_bytes")?,
            sram_wgt_bytes: array.u64("sram_wgt_bytes")?,
            sram_out_bytes: array.u64("sram_out_bytes")?,
            clock_mhz: array.u64("clock_mhz")?,
        };
        array.finish()?;

        let mut micro = root.child("microblaze")?;
        let micro_spec = MicroblazeSpec {
            handshake_ms: micro.f64("handshake_ms")?,
            reencrypt_gbps: micro.f64("reencrypt_gbps")?,
            fixed_overhead_us: micro.f64("fixed_overhead_us")?,
            report_hash_ms: micro.f64("report_hash_ms")?,
        };
        micro.finish()?;

        let mut fpga = root.child("fpga")?;
        let dsps = fpga.u64("dsps")?;
        let clock_mhz = fpga.f64("clock_mhz")?;
        let compute_efficiency = fpga.f64("compute_efficiency")?;
        let mem_bw_gbps = fpga.f64("mem_bw_gbps")?;
        let aes_engines = fpga.u64("aes_engines")?;
        let layer_overhead_us = fpga.f64("layer_overhead_us")?;
        let aes_core = read_resources(&mut fpga, "aes_core")?;
        let microblaze_res = read_resources(&mut fpga, "microblaze")?;
        let mut base = fpga.child("base_design")?;
        let base_design = BaseDesignSpec {
            aes_lut_fraction: base.f64("aes_lut_fraction")?,
            aes_ff_fraction: base.f64("aes_ff_fraction")?,
            microblaze_bram_fraction: base.f64("microblaze_bram_fraction")?,
            microblaze_dsp_fraction: base.f64("microblaze_dsp_fraction")?,
        };
        base.finish()?;
        let fpga_spec = FpgaSpec {
            dsps,
            clock_mhz,
            compute_efficiency,
            mem_bw_gbps,
            aes_engines,
            layer_overhead_us,
            aes_core,
            microblaze: microblaze_res,
            base_design,
        };
        fpga.finish()?;
        root.finish()?;

        let target = HardwareTarget {
            name,
            description,
            dram: dram_spec,
            array: array_spec,
            microblaze: micro_spec,
            fpga: fpga_spec,
        };
        target.validate()?;
        Ok(target)
    }

    /// Semantic validation beyond the schema: zero-sized structures,
    /// inconsistent timing, and out-of-range fractions are rejected with
    /// the offending field's path.
    pub fn validate(&self) -> Result<(), TargetError> {
        fn bad(path: &str, msg: impl Into<String>) -> Result<(), TargetError> {
            Err(TargetError::Invalid {
                path: path.into(),
                msg: msg.into(),
            })
        }
        if self.name.is_empty() {
            return bad("name", "must not be empty");
        }
        if self
            .name
            .chars()
            .any(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        {
            return bad("name", "must be lower-case kebab (a-z, 0-9, -)");
        }
        let d = &self.dram;
        for (path, v) in [
            ("dram.channels", d.channels),
            ("dram.ranks", d.ranks),
            ("dram.bank_groups", d.bank_groups),
            ("dram.banks_per_group", d.banks_per_group),
            ("dram.access_bytes", d.access_bytes),
            ("dram.clock_mhz", d.clock_mhz),
            ("dram.sched_window", d.sched_window),
        ] {
            if v == 0 {
                return bad(path, "must be at least 1");
            }
        }
        if d.row_bytes < d.access_bytes {
            return bad("dram.row_bytes", "must be at least one access granule");
        }
        let t = &d.timing;
        for (path, v) in [
            ("dram.timing.cl", t.cl),
            ("dram.timing.rcd", t.rcd),
            ("dram.timing.rp", t.rp),
            ("dram.timing.ras", t.ras),
            ("dram.timing.ccd_l", t.ccd_l),
            ("dram.timing.ccd_s", t.ccd_s),
            ("dram.timing.rrd", t.rrd),
            ("dram.timing.faw", t.faw),
            ("dram.timing.wr", t.wr),
            ("dram.timing.wtr", t.wtr),
            ("dram.timing.rtw", t.rtw),
            ("dram.timing.rfc", t.rfc),
            ("dram.timing.refi", t.refi),
        ] {
            if v == 0 {
                return bad(path, "must be at least 1");
            }
        }
        if t.bl < 2 || !t.bl.is_multiple_of(2) {
            return bad("dram.timing.bl", "burst length must be even and at least 2");
        }
        if t.ccd_s > t.ccd_l {
            return bad(
                "dram.timing.ccd_s",
                "cross-group delay cannot exceed same-group delay",
            );
        }
        if t.refi <= t.rfc {
            return bad(
                "dram.timing.refi",
                "refresh interval must exceed the refresh cycle time (the bus would never be free)",
            );
        }
        let a = &self.array;
        if a.rows == 0 || a.cols == 0 {
            return bad("array.rows", "a zero-sized PE array cannot compute");
        }
        for (path, v) in [
            ("array.sram_act_bytes", a.sram_act_bytes),
            ("array.sram_wgt_bytes", a.sram_wgt_bytes),
            ("array.sram_out_bytes", a.sram_out_bytes),
            ("array.clock_mhz", a.clock_mhz),
        ] {
            if v == 0 {
                return bad(path, "must be at least 1");
            }
        }
        let m = &self.microblaze;
        for (path, v) in [
            ("microblaze.handshake_ms", m.handshake_ms),
            ("microblaze.reencrypt_gbps", m.reencrypt_gbps),
            ("microblaze.fixed_overhead_us", m.fixed_overhead_us),
            ("microblaze.report_hash_ms", m.report_hash_ms),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return bad(path, "must be positive");
            }
        }
        let f = &self.fpga;
        if f.dsps == 0 {
            return bad("fpga.dsps", "must be at least 1");
        }
        if f.aes_engines == 0 {
            return bad("fpga.aes_engines", "must be at least 1");
        }
        for (path, v) in [
            ("fpga.clock_mhz", f.clock_mhz),
            ("fpga.mem_bw_gbps", f.mem_bw_gbps),
            ("fpga.layer_overhead_us", f.layer_overhead_us),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return bad(path, "must be positive");
            }
        }
        if !(f.compute_efficiency > 0.0 && f.compute_efficiency <= 1.0) {
            return bad("fpga.compute_efficiency", "must be in (0, 1]");
        }
        for (path, v) in [
            (
                "fpga.base_design.aes_lut_fraction",
                f.base_design.aes_lut_fraction,
            ),
            (
                "fpga.base_design.aes_ff_fraction",
                f.base_design.aes_ff_fraction,
            ),
            (
                "fpga.base_design.microblaze_bram_fraction",
                f.base_design.microblaze_bram_fraction,
            ),
            (
                "fpga.base_design.microblaze_dsp_fraction",
                f.base_design.microblaze_dsp_fraction,
            ),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return bad(path, "must be a fraction in (0, 1]");
            }
        }
        for (path, r) in [
            ("fpga.aes_core", &f.aes_core),
            ("fpga.microblaze", &f.microblaze),
        ] {
            for (field, v) in [
                ("luts", r.luts),
                ("ffs", r.ffs),
                ("brams", r.brams),
                ("dsps", r.dsps),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return bad(&format!("{path}.{field}"), "must be non-negative");
                }
            }
        }
        Ok(())
    }

    /// Serializes back to the text format. `parse(to_yaml(t)) == t` exactly
    /// (floats print with shortest round-trip formatting); the registry
    /// round-trip test pins this for every embedded file.
    pub fn to_yaml(&self) -> String {
        let mut w = Writer::new(&[
            "GuardNN hardware target description.",
            "Format: see crates/targets (a YAML subset: nested maps + scalars).",
        ]);
        w.scalar(0, "name", &self.name);
        w.scalar(0, "description", &self.description);
        w.section(0, "dram");
        let d = &self.dram;
        w.scalar(1, "channels", d.channels);
        w.scalar(1, "ranks", d.ranks);
        w.scalar(1, "bank_groups", d.bank_groups);
        w.scalar(1, "banks_per_group", d.banks_per_group);
        w.scalar(1, "row_bytes", d.row_bytes);
        w.scalar(1, "access_bytes", d.access_bytes);
        w.scalar(1, "clock_mhz", d.clock_mhz);
        w.scalar(1, "sched_window", d.sched_window);
        w.section(1, "timing");
        let t = &d.timing;
        for (key, v) in [
            ("cl", t.cl),
            ("rcd", t.rcd),
            ("rp", t.rp),
            ("ras", t.ras),
            ("ccd_l", t.ccd_l),
            ("ccd_s", t.ccd_s),
            ("rrd", t.rrd),
            ("faw", t.faw),
            ("wr", t.wr),
            ("wtr", t.wtr),
            ("rtw", t.rtw),
            ("rfc", t.rfc),
            ("refi", t.refi),
            ("bl", t.bl),
        ] {
            w.scalar(2, key, v);
        }
        w.section(0, "array");
        let a = &self.array;
        w.scalar(1, "rows", a.rows);
        w.scalar(1, "cols", a.cols);
        w.scalar(1, "dataflow", a.dataflow.as_str());
        w.scalar(1, "sram_act_bytes", a.sram_act_bytes);
        w.scalar(1, "sram_wgt_bytes", a.sram_wgt_bytes);
        w.scalar(1, "sram_out_bytes", a.sram_out_bytes);
        w.scalar(1, "clock_mhz", a.clock_mhz);
        w.section(0, "microblaze");
        let m = &self.microblaze;
        w.scalar(1, "handshake_ms", m.handshake_ms);
        w.scalar(1, "reencrypt_gbps", m.reencrypt_gbps);
        w.scalar(1, "fixed_overhead_us", m.fixed_overhead_us);
        w.scalar(1, "report_hash_ms", m.report_hash_ms);
        w.section(0, "fpga");
        let f = &self.fpga;
        w.scalar(1, "dsps", f.dsps);
        w.scalar(1, "clock_mhz", f.clock_mhz);
        w.scalar(1, "compute_efficiency", f.compute_efficiency);
        w.scalar(1, "mem_bw_gbps", f.mem_bw_gbps);
        w.scalar(1, "aes_engines", f.aes_engines);
        w.scalar(1, "layer_overhead_us", f.layer_overhead_us);
        for (key, r) in [("aes_core", &f.aes_core), ("microblaze", &f.microblaze)] {
            w.section(1, key);
            w.scalar(2, "luts", r.luts);
            w.scalar(2, "ffs", r.ffs);
            w.scalar(2, "brams", r.brams);
            w.scalar(2, "dsps", r.dsps);
        }
        w.section(1, "base_design");
        let b = &f.base_design;
        w.scalar(2, "aes_lut_fraction", b.aes_lut_fraction);
        w.scalar(2, "aes_ff_fraction", b.aes_ff_fraction);
        w.scalar(2, "microblaze_bram_fraction", b.microblaze_bram_fraction);
        w.scalar(2, "microblaze_dsp_fraction", b.microblaze_dsp_fraction);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A known-good document to mutate from (the paper target's source).
    fn good() -> String {
        crate::registry::source("guardnn-paper")
            .unwrap()
            .to_string()
    }

    #[test]
    fn missing_timing_field_is_typed_missing_field() {
        let broken = good().replace("    rcd: 17\n", "");
        let err = HardwareTarget::parse(&broken).unwrap_err();
        assert_eq!(
            err,
            TargetError::MissingField {
                path: "dram.timing.rcd".into()
            }
        );
    }

    #[test]
    fn zero_sized_array_is_rejected() {
        let broken = good().replace("  rows: 256\n", "  rows: 0\n");
        let err = HardwareTarget::parse(&broken).unwrap_err();
        match err {
            TargetError::Invalid { path, msg } => {
                assert_eq!(path, "array.rows");
                assert!(msg.contains("zero-sized"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn semantic_violations_name_the_field() {
        for (from, to, want_path) in [
            ("    bl: 8\n", "    bl: 7\n", "dram.timing.bl"),
            ("    refi: 9360\n", "    refi: 100\n", "dram.timing.refi"),
            ("    ccd_s: 4\n", "    ccd_s: 9\n", "dram.timing.ccd_s"),
            ("  row_bytes: 8192\n", "  row_bytes: 32\n", "dram.row_bytes"),
            (
                "  compute_efficiency: 0.75\n",
                "  compute_efficiency: 1.5\n",
                "fpga.compute_efficiency",
            ),
            (
                "  handshake_ms: 23.1\n",
                "  handshake_ms: -1\n",
                "microblaze.handshake_ms",
            ),
        ] {
            let broken = good().replace(from, to);
            assert_ne!(broken, good(), "replacement {from:?} did not apply");
            match HardwareTarget::parse(&broken).unwrap_err() {
                TargetError::Invalid { path, .. } => assert_eq!(path, want_path),
                other => panic!("{from:?}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_type_and_unknown_field_are_typed() {
        let wrong_type = good().replace("    cl: 17\n", "    cl: seventeen\n");
        match HardwareTarget::parse(&wrong_type).unwrap_err() {
            TargetError::Invalid { path, msg } => {
                assert_eq!(path, "dram.timing.cl");
                assert!(msg.contains("unsigned integer"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let extra = good().replace("    cl: 17\n", "    cl: 17\n    c1: 17\n");
        match HardwareTarget::parse(&extra).unwrap_err() {
            TargetError::Invalid { path, msg } => {
                assert_eq!(path, "dram.timing.c1");
                assert_eq!(msg, "unknown field");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bad_dataflow_is_rejected_with_candidates() {
        let broken = good().replace("dataflow: weight-stationary", "dataflow: row-stationary");
        match HardwareTarget::parse(&broken).unwrap_err() {
            TargetError::Invalid { path, msg } => {
                assert_eq!(path, "array.dataflow");
                assert!(msg.contains("output-stationary"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn dataflow_names_round_trip() {
        for df in [
            DataflowSpec::WeightStationary,
            DataflowSpec::OutputStationary,
            DataflowSpec::InputStationary,
        ] {
            assert_eq!(DataflowSpec::parse(df.as_str(), String::new()).unwrap(), df);
        }
    }
}
