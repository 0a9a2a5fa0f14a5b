//! GuardNN benchmark: simulator throughput and secure-serving latency,
//! measured end to end and per layer.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-infer|sim-train|serve|all> --seed N --seconds S --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --print-golden > perfbench/golden/sim.tsv   # after a deliberate model change
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Workloads (one process each, one thread, closed loop):
//!
//! * `sim-infer` — the Figure 3a inference suite (9 networks) × {NP,
//!   GuardNN_CI, BP} through `guardnn::perf::evaluate_into` on the
//!   `guardnn-paper` target.
//! * `sim-train` — one training step (batch 4, bf16) of ResNet-50 and
//!   MobileNet-v1 × the same three schemes.
//! * `serve` — six logical users round-robin over a two-device
//!   `FleetSupervisor`, each session: connect → establish (integrity) →
//!   load_model → 1–32 verified inferences → disconnect.
//!
//! The work per run is fixed by `--seconds` (passes or sessions sized for
//! that many seconds on a 2-core x86 box); `--seed` fixes the inputs. The
//! run prints a record line, notes, one `metric` line per metric (name,
//! value, unit, sample count), a `result` line, and as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set below; with `--trace 1`
//! the per-layer set (layers idle on the workload report 0).
//!
//! End-to-end metrics, defined on every workload. An *operation* is one
//! million simulated 64-B DRAM accesses (data + metadata) on `sim-*`, and
//! one verified inference on `serve`. On `sim-*` the latency of every
//! completed million accesses is sampled as the stream runs (its host
//! milliseconds read as host ns per access); on `serve`, each inference
//! is timed from `submit` until its decrypted output is taken:
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median of 21 set-ups (plan + trace builder + engine per point; or device provisioning + fleet) |
//! | `wall_s` | s | median host time of one pass (sim) or of the whole session script (serve) |
//! | `op_ms.p50` | ms | median operation latency |
//! | `op_ms.tail` | ms | highest percentile with ≥10 samples beyond it (label printed) |
//! | `peak_rss_mib` | MiB | peak resident set of the process |
//!
//! Every time is read from a host-normalized clock that corrects for the
//! shared machine's drifting speed (see [`host`]); the run prints its
//! normalized and raw totals.
//!
//! Untraced runs also print workload-specific figures as `extra` lines
//! (`sim_maccess_per_s` and `sim_ns_per_access.{NP,GuardNN_CI,BP}` on
//! `sim-*`; `infer_ms.*`, `session_open_ms.*` and `infer_per_s` on
//! `serve`), and every run prints `failed_ratio` on its `result` line.
//! These stay out of the JSON result, whose metrics must be defined on
//! every workload.

mod host;
mod serve;
mod sim;
mod stats;
mod unitcost;

use std::process::{Command, ExitCode};

use stats::Summary;

/// Set-ups timed per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 21;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["sim-infer", "sim-train", "serve"];

/// End-to-end metrics of an untraced run, in report order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "op_ms.p50",
    "op_ms.tail",
    "peak_rss_mib",
];

/// Per-layer metrics of a traced run: (name, unit). A workload that leaves
/// a layer idle reports 0 for it.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("systolic.self_ns", "ns"),
    ("systolic.items", "count"),
    ("memprot.self_ns_per_access.NP", "ns"),
    ("dram.self_ns_per_access.NP", "ns"),
    ("memprot.self_ns_per_access.GuardNN_CI", "ns"),
    ("dram.self_ns_per_access.GuardNN_CI", "ns"),
    ("memprot.self_ns_per_access.BP", "ns"),
    ("dram.self_ns_per_access.BP", "ns"),
    ("memprot.meta_accesses.GuardNN_CI", "count"),
    ("memprot.meta_accesses.BP", "count"),
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.total_cycles", "cycles"),
    ("server.step_us.SETINPUT.p50", "us"),
    ("server.step_us.FORWARD.p50", "us"),
    ("server.step_us.EXPORTOUTPUT.p50", "us"),
    ("server.step_us.SELECTSESSION.p50", "us"),
    ("server.step_us.SETREADCTR.p50", "us"),
    ("server.instructions_per_infer", "count"),
    ("server.context_switches_per_infer", "count"),
    ("fleet.service_ms.p50", "ms"),
    ("fleet.queue_wait_ms.p50", "ms"),
    ("fleet.establish_ms.p50", "ms"),
    ("fleet.load_model_ms.p50", "ms"),
    ("crypto.aes_blocks_per_infer", "count"),
    ("crypto.cmac_tags_per_infer", "count"),
    ("crypto.modexp_per_session", "count"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.ctr_512B_ns", "ns"),
    ("crypto.cmac_512B_ns", "ns"),
    ("crypto.dh_keygen_us", "us"),
    ("crypto.schnorr_verify_us", "us"),
    ("core.nn.forward_us", "us"),
    ("trace.overhead_s", "s"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and detail printed beside the value.
    pub detail: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            detail: String::new(),
        }
    }

    pub fn with_detail(mut self, detail: String) -> Self {
        self.detail = detail;
        self
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific figures, printed as `extra` lines beside the
    /// metrics but not part of the JSON result.
    pub extras: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPS`] times, each right after a kernel sample
/// (see [`host`]), and returns the `setup_s` metric — the median rep —
/// with the last rep's result.
pub fn time_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Metric, T), String> {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        host::tick_now();
        let t0 = host::now();
        last = Some(setup()?);
        reps.push(host::now() - t0);
    }
    let metric = Metric::new("setup_s", stats::median(&reps), "s")
        .with_detail(format!("n={SETUP_REPS} (median)"));
    Ok((metric, last.ok_or("no set-up rep")?))
}

impl Outcome {
    /// Fills the end-to-end metrics shared by every workload (all but
    /// `peak_rss_mib`, which `main` adds last). `walls` are the host
    /// seconds of the measured passes and `op_s` the latency samples in
    /// seconds per operation.
    pub fn end_to_end(&mut self, setup: Metric, walls: &[f64], op_s: &[f64]) {
        let wall = Summary::of(walls);
        let ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
        let op = Summary::of(&ms);
        let n = |s: &Option<Summary>| s.as_ref().map_or(0, |s| s.n);
        self.metrics.push(setup);
        self.metrics.push(
            Metric::new("wall_s", wall.as_ref().map_or(0.0, |s| s.p50), "s")
                .with_detail(format!("n={} (median)", n(&wall))),
        );
        self.metrics.push(
            Metric::new("op_ms.p50", op.as_ref().map_or(0.0, |s| s.p50), "ms")
                .with_detail(format!("n={}", n(&op))),
        );
        self.metrics.push(
            Metric::new("op_ms.tail", op.as_ref().map_or(0.0, |s| s.tail), "ms").with_detail(
                format!(
                    "n={} ({})",
                    n(&op),
                    op.as_ref().map_or("none", |s| s.tail_label)
                ),
            ),
        );
    }
}

/// splitmix64: the benchmark's only source of pseudo-randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
        v
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out git revision, read from `.git` (the benchmark may run
/// in a plain source tree, where there is none).
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    host::tick();
    let mut out = match args.workload.as_str() {
        "sim-infer" => sim::run(sim::SimKind::Infer, args.seed, args.seconds, args.trace)?,
        "sim-train" => sim::run(sim::SimKind::Train, args.seed, args.seconds, args.trace)?,
        "serve" => serve::run(args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        out.metrics.extend(unitcost::measure());
        // Layers this workload leaves idle report 0, so every traced run
        // carries the full per-layer set.
        out.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                out.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, 0.0, unit).with_detail("idle".into()))
            })
            .collect();
    } else {
        let rss = peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
        out.metrics
            .push(Metric::new("peak_rss_mib", rss, "MiB").with_detail("VmHWM".into()));
        if let Some(missing) = END_TO_END
            .iter()
            .find(|&&name| !out.metrics.iter().any(|m| m.name == name))
        {
            return Err(format!("workload did not report {missing}"));
        }
    }
    let (factor, samples) = host::run_factor();
    out.notes.push(format!(
        "host clock: {:.3} normalized s over {:.3} raw s; run factor {factor:.4} = (reference kernel {} ms / median of {samples} samples)^{}",
        host::now(),
        host::raw_now(),
        host::REFERENCE_S * 1e3,
        host::ELASTICITY
    ));
    Ok(out)
}

/// Prints the report and the final JSON line; returns whether it passed.
fn report(args: &Args, out: &Outcome) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# run: workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} target={} git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sim::TARGET,
        git_revision()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("metric\t{}\t{}\t{}\t{}", m.name, m.value, m.unit, m.detail);
    }
    for m in &out.extras {
        println!("extra\t{}\t{}\t{}\t{}", m.name, m.value, m.unit, m.detail);
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "result\tcorrect={correct}\tattempted={}\tfailed={}\tfailed_ratio={failed_ratio}",
        out.attempted, out.failed
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    correct
}

/// `--workload all`: each workload in its own process (so peak RSS is per
/// workload), reports echoed, then one summary table.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            if matches!(f.first(), Some(&"metric" | &"extra")) && f.len() >= 4 {
                rows.push(format!(
                    "{w:<10} {:<40} {:>16} {:<6} {}",
                    f[1],
                    f[2],
                    f[3],
                    f.get(4).unwrap_or(&"")
                ));
            } else if f.first() == Some(&"result") {
                rows.push(format!("{w:<10} {}", f[1..].join(" ")));
            }
        }
    }
    println!(
        "\n# summary (seed {}, --seconds {})",
        args.seed, args.seconds
    );
    for r in rows {
        println!("{r}");
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let first = raw.first().map(String::as_str);
    if first == Some(serve::COUNT_CHILD_FLAG) {
        return serve::count_child(&raw[1..]);
    }
    // Keep the library-side global metrics recorder off, whatever the
    // environment says: counters inside the measured code would be
    // measured too. Only the crypto-counting child above turns it on.
    guardnn_obs::Recorder::install_global(guardnn_obs::Recorder::disabled());
    let result = if first == Some("--print-golden") {
        sim::print_golden().map(|()| true)
    } else {
        parse_args(&raw).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_workload(&args).map(|out| report(&args, &out))
            }
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units in `BENCHMARK.json` are the ones a run
    /// prints, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = |name: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{name}\": [")).unwrap()..];
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let get = |key: &str| {
                        let at = obj.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                        obj[at..at + obj[at..].find('"').unwrap()].to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let e2e: Vec<String> = section("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), per_layer);
    }

    #[test]
    fn end_to_end_fills_every_metric_but_rss() {
        let mut out = Outcome::default();
        let setup = Metric::new("setup_s", 0.3, "s");
        out.end_to_end(setup, &[2.0, 4.0, 3.0], &[0.01, 0.02]);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END[..4]);
        let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("setup_s"), 0.3);
        assert_eq!(value("wall_s"), 3.0);
        assert_eq!(value("op_ms.p50"), 10.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = Rng::new(7).permutation(50);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, Rng::new(7).permutation(50));
        assert_ne!(a, Rng::new(8).permutation(50));
    }
}
