//! The host-normalized clock every measurement is taken on.
//!
//! On a shared machine the same code runs up to ~40% slower for seconds
//! to minutes at a time, in step across every workload, because other
//! tenants contend for the caches of the cores this process runs on (a
//! pure-ALU loop does not slow; cache-bound loops do). A fixed reference
//! kernel — random read-modify-writes over a warm 2 MiB buffer — is timed
//! every [`INTERVAL_S`] between units of work. Between two kernel samples
//! the clock advances at the host time × the current factor,
//! ([`REFERENCE_S`] ÷ the median of the last [`RECENT`] kernel
//! times)^[`ELASTICITY`]: host time at the reference speed. The clock
//! stands still while the kernel runs.
//!
//! The kernel is the benchmark's own code, so no product change moves it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Minimum host time between two kernel samples.
pub const INTERVAL_S: f64 = 0.25;

/// Kernel time on a quiet 2-vCPU x86 host (the fast tail of its
/// distribution there).
pub const REFERENCE_S: f64 = 0.000_50;

/// How strongly the workloads' host time follows the kernel's: across
/// runs on a shared 2-vCPU x86 host, the simulator and serving workloads
/// slowed by about the 0.7th power of the kernel's slowdown.
pub const ELASTICITY: f64 = 0.7;

/// Kernel samples the current factor is the median of.
const RECENT: usize = 5;

/// Kernel buffer: 2 MiB of `u64`.
const WORDS: usize = 256 * 1024;
/// Read-modify-writes per kernel sample.
const ITERS: u64 = 200_000;

struct Clock {
    buf: Vec<u64>,
    state: u64,
    /// Every kernel time of the run.
    samples: Vec<f64>,
    recent: VecDeque<f64>,
    factor: f64,
    /// Normalized seconds at `since`.
    base: f64,
    /// Raw host seconds outside the kernel, up to `since`.
    raw_base: f64,
    /// Start of the current segment (end of the last kernel sample).
    since: Instant,
    sampled: bool,
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock {
        buf: vec![0; WORDS],
        state: 1,
        samples: Vec::new(),
        recent: VecDeque::with_capacity(RECENT),
        factor: 1.0,
        base: 0.0,
        raw_base: 0.0,
        since: Instant::now(),
        sampled: false,
    });
}

/// Times one run of the reference kernel.
fn kernel(c: &mut Clock) -> f64 {
    let t0 = Instant::now();
    let mut x = c.state;
    for _ in 0..ITERS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let i = (z % WORDS as u64) as usize;
        c.buf[i] = c.buf[i].wrapping_add(z);
    }
    c.state = black_box(x);
    black_box(&c.buf);
    t0.elapsed().as_secs_f64()
}

fn factor_of(kernel_s: f64) -> f64 {
    (REFERENCE_S / kernel_s).powf(ELASTICITY)
}

/// Closes the current segment and starts a new one after a kernel
/// sample. The untimed first kernel run brings the buffer back into
/// cache, so the timed one does not depend on what the workload evicted.
fn sample(c: &mut Clock) {
    let segment = c.since.elapsed().as_secs_f64();
    c.base += segment * c.factor;
    c.raw_base += segment;
    kernel(c);
    let dt = kernel(c);
    c.samples.push(dt);
    if c.recent.len() == RECENT {
        c.recent.pop_front();
    }
    c.recent.push_back(dt);
    let recent: Vec<f64> = c.recent.iter().copied().collect();
    c.factor = factor_of(crate::stats::median(&recent));
    c.sampled = true;
    c.since = Instant::now();
}

/// Samples the kernel if [`INTERVAL_S`] has passed since the last sample
/// (or none was taken yet). Call it between units of work.
pub fn tick() {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if !c.sampled || c.since.elapsed().as_secs_f64() >= INTERVAL_S {
            sample(&mut c);
        }
    });
}

/// Samples the kernel now, so that a short interval that follows is
/// measured at the current factor.
pub fn tick_now() {
    CLOCK.with(|c| sample(&mut c.borrow_mut()));
}

/// Normalized seconds since the clock started.
pub fn now() -> f64 {
    CLOCK.with(|c| {
        let c = c.borrow();
        c.base + c.since.elapsed().as_secs_f64() * c.factor
    })
}

/// Raw host seconds since the clock started, kernel time excluded.
pub fn raw_now() -> f64 {
    CLOCK.with(|c| {
        let c = c.borrow();
        c.raw_base + c.since.elapsed().as_secs_f64()
    })
}

/// The factor of the run's median kernel time, and the sample count.
pub fn run_factor() -> (f64, usize) {
    CLOCK.with(|c| {
        let c = c.borrow();
        (factor_of(crate::stats::median(&c.samples)), c.samples.len())
    })
}
