//! Cycle-level DDR4 DRAM timing model (Ramulator-style).
//!
//! The GuardNN paper simulates off-chip memory with Ramulator configured as
//! 16 GB DDR4. This crate reimplements the relevant subset natively: bank
//! state machines with the DDR4 core timing parameters, FR-FCFS-style
//! row-hit prioritization inside a reordering window, bank-group-aware
//! column timing, tFAW activation throttling, and periodic refresh. The
//! simulator consumes a stream of 64-byte transactions and reports total
//! cycles plus row-buffer statistics — enough to turn memory-traffic
//! differences between protection schemes into execution-time differences
//! with a realistic shape.
//!
//! * [`config`] — device/channel geometry and timing parameters.
//! * [`bank`] — per-bank state machine.
//! * [`channel`] — per-channel command scheduling with FR-FCFS window.
//! * [`system`] — multi-channel front end with address mapping.
//! * [`parallel`] — one-worker-per-channel threaded front end
//!   (bit-identical statistics, lower wall-clock).
//! * [`tamper`] — a tampering [`DramSink`] wrapper injecting scripted
//!   faults (address flips, replayed windows, dropped bursts) into the
//!   request stream, for the chaos security harness.
//! * [`stats`] — counters.
//!
//! # Example
//!
//! ```
//! use guardnn_dram::{config::DramConfig, system::DramSystem};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr4_2400_16gb());
//! for i in 0..1024u64 {
//!     dram.access(i * 64, false);
//! }
//! let stats = dram.finish();
//! assert!(stats.row_hits > stats.row_misses, "streaming reads are row hits");
//! ```

#![deny(missing_docs)]

pub mod bank;
pub mod channel;
pub mod config;
pub mod parallel;
pub mod stats;
pub mod system;
pub mod tamper;

pub use config::DramConfig;
pub use parallel::{
    with_channel_workers, with_channel_workers_observed, ChannelMode, ParallelDram,
};
pub use stats::DramStats;
pub use system::{block_range, DramSink, DramSystem};
pub use tamper::{StreamFault, TamperingSink};
