//! CHaiDNN-style FPGA prototype performance model.
//!
//! The paper's prototype adds GuardNN's VN generator, AES engines and a
//! MicroBlaze microcontroller to CHaiDNN (AMD Xilinx's HLS DNN accelerator)
//! and measures Table II plus the per-instruction latencies of §III-B. We
//! have no FPGA, so this crate substitutes calibrated analytic models (see
//! ARCHITECTURE.md, "`crates/fpga` → §IV-B/C"):
//!
//! * [`chaidnn`] — baseline throughput (DSP count × precision × 200 MHz,
//!   with a fixed compute efficiency and DDR bandwidth bound) and the
//!   GuardNN_C overhead from AES-engine queueing.
//! * [`microblaze`] — instruction-latency model of the security firmware
//!   (key exchange, weight import, output export/sign).
//! * [`resources`] — FPGA resource-overhead accounting (LUT/FF/BRAM/DSP).
//! * [`asic`] — the §III-C ASIC area/power overhead estimate vs TPU-v1.
//!
//! # Example
//!
//! ```
//! use guardnn_fpga::chaidnn::{FpgaConfig, Precision};
//! use guardnn_models::zoo;
//!
//! let cfg = FpgaConfig::new(512, Precision::Bit8);
//! let row = cfg.evaluate(&zoo::alexnet());
//! assert!(row.guardnn_fps < row.baseline_fps);
//! assert!(row.overhead_percent() < 4.0);
//! ```

#![deny(missing_docs)]

pub mod asic;
pub mod chaidnn;
pub mod microblaze;
pub mod resources;
