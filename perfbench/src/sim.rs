//! The simulator workloads: Figure 3 points through the streaming
//! pipeline (systolic trace stream → protection engine → DDR4 model).
//!
//! One pass evaluates every (network, scheme) point of the workload once,
//! serially, in a seeded order. Every point's [`RunSummary`] is checked
//! against the golden record in `golden/sim.tsv`.
//!
//! The traced run splits host time by layer with a ladder of public calls
//! per point: (1) drain the trace stream alone, (2) run it through the
//! protection engine into a counting null sink, (3) the full evaluation
//! into a [`DramSystem`]. Self time is the difference between rungs:
//! `systolic = t1`, `memprot = t2 − t1`, `dram = t3 − t2`.

use std::collections::HashMap;
use std::hint::black_box;

use guardnn::perf::{evaluate, evaluate_into, plan_for, EvalConfig, Mode, Parallelism, Scheme};
use guardnn_dram::{ChannelMode, DramSink, DramStats, DramSystem};
use guardnn_memprot::harness::{run_protected_streaming_into, RunSummary};
use guardnn_memprot::{BaselineMee, GuardNnEngine, NoProtection, ProtectionEngine};
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::{zoo, Network};
use guardnn_systolic::TraceBuilder;

use crate::{host, time_setup, Metric, Outcome, Rng};

/// Hardware target every point is evaluated on.
pub const TARGET: &str = "guardnn-paper";

/// The schemes that get their own simulation (GuardNN_C is NP relabelled).
pub const SCHEMES: [Scheme; 3] = [Scheme::NoProtection, Scheme::GuardNnCi, Scheme::Baseline];

/// Which simulator workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// Figure 3a: the nine-network inference suite.
    Infer,
    /// One training step (batch 4) of ResNet-50 and MobileNet-v1.
    Train,
}

impl SimKind {
    fn networks(self) -> Vec<Network> {
        match self {
            SimKind::Infer => zoo::figure3_inference_suite(),
            SimKind::Train => vec![zoo::resnet50(), zoo::mobilenet_v1()],
        }
    }

    fn mode(self) -> Mode {
        match self {
            SimKind::Infer => Mode::Inference,
            SimKind::Train => Mode::Training { batch: 4 },
        }
    }

    /// Nominal host seconds of one pass on a 2-core x86 box, used to size
    /// a run from `--seconds`.
    fn nominal_pass_s(self) -> f64 {
        match self {
            SimKind::Infer => 6.5,
            SimKind::Train => 10.0,
        }
    }
}

/// Mode label used as the first key of the golden record.
fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Inference => "inference",
        Mode::Training { .. } => "training",
    }
}

/// The evaluation configuration: the paper target, one serial DRAM model
/// per point (environment knobs are ignored so runs are comparable).
fn config() -> Result<EvalConfig, String> {
    let cfg = EvalConfig::for_target(TARGET).map_err(|e| format!("target {TARGET}: {e}"))?;
    Ok(EvalConfig {
        parallelism: Parallelism::Serial,
        channel_mode: ChannelMode::Serial,
        ..cfg
    })
}

/// One evaluation point.
struct Point {
    net: Network,
    mode: Mode,
    scheme: Scheme,
}

/// Plan, trace builder and engine of one point: what [`evaluate`] builds
/// before it streams.
struct Prepared {
    plan: ExecutionPlan,
    tb: TraceBuilder,
    engine: Box<dyn ProtectionEngine>,
    clock_mhz: u64,
}

fn prepare(p: &Point, cfg: &EvalConfig) -> Prepared {
    let mut array = cfg.array;
    array.bytes_per_elem = match p.mode {
        Mode::Inference => 1,
        Mode::Training { .. } => 2,
    };
    let plan = plan_for(&p.net, p.mode);
    let tb = TraceBuilder::new(array, &plan);
    let footprint = tb.footprint();
    let engine: Box<dyn ProtectionEngine> = match p.scheme {
        Scheme::NoProtection => Box::new(NoProtection::new()),
        Scheme::Baseline => Box::new(BaselineMee::new(footprint, cfg.mee)),
        Scheme::GuardNnC => Box::new(GuardNnEngine::confidentiality_only(footprint)),
        Scheme::GuardNnCi => Box::new(GuardNnEngine::confidentiality_and_integrity(footprint)),
    };
    Prepared {
        plan,
        tb,
        engine,
        clock_mhz: array.clock_mhz,
    }
}

/// Everything a run needs before it measures: the configuration, the
/// networks, and each point's plan, trace builder and engine.
fn setup(kind: SimKind) -> Result<(EvalConfig, Vec<Point>), String> {
    let cfg = config()?;
    let points: Vec<Point> = kind
        .networks()
        .into_iter()
        .flat_map(|net| {
            SCHEMES.map(|scheme| Point {
                net: net.clone(),
                mode: kind.mode(),
                scheme,
            })
        })
        .collect();
    for p in &points {
        black_box(prepare(p, &cfg));
    }
    Ok((cfg, points))
}

/// The fields of a [`RunSummary`] the golden record pins, `exec_ns` as
/// its bit pattern.
pub type Record = [u64; 11];

/// Column names of [`Record`], as in the header of `golden/sim.tsv`.
pub const RECORD_COLUMNS: [&str; 11] = [
    "data_bytes",
    "meta_bytes",
    "reads",
    "writes",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "refreshes",
    "total_cycles",
    "compute_cycles",
    "exec_ns_bits",
];

pub fn record(s: &RunSummary) -> Record {
    let d = &s.dram;
    [
        s.data_bytes,
        s.meta_bytes,
        d.reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.row_conflicts,
        d.refreshes,
        d.total_cycles,
        s.compute_cycles,
        s.exec_ns.to_bits(),
    ]
}

/// Golden key: (mode, network, scheme label).
type Key = (String, String, String);

fn key(mode: Mode, net: &Network, scheme: Scheme) -> Key {
    (
        mode_label(mode).to_string(),
        net.name().to_string(),
        scheme.label().to_string(),
    )
}

/// Parses the golden record (tab-separated; `#` starts a comment line).
pub fn parse_golden(text: &str) -> Result<HashMap<Key, Record>, String> {
    let mut out = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 3 + RECORD_COLUMNS.len() {
            return Err(format!("golden line {}: {} fields", i + 1, f.len()));
        }
        let mut rec = [0u64; 11];
        for (slot, raw) in rec.iter_mut().zip(&f[3..]) {
            *slot = raw
                .parse()
                .map_err(|_| format!("golden line {}: bad number {raw:?}", i + 1))?;
        }
        out.insert((f[0].into(), f[1].into(), f[2].into()), rec);
    }
    Ok(out)
}

/// The golden record as one tab-separated line.
pub fn golden_line(mode: Mode, net: &Network, scheme: Scheme, rec: &Record) -> String {
    let (m, n, s) = key(mode, net, scheme);
    let cols: Vec<String> = rec.iter().map(u64::to_string).collect();
    format!("{m}\t{n}\t{s}\t{}", cols.join("\t"))
}

/// Prints the golden record of every point of both workloads.
pub fn print_golden() -> Result<(), String> {
    let cfg = config()?;
    println!("# mode\tnetwork\tscheme\t{}", RECORD_COLUMNS.join("\t"));
    for kind in [SimKind::Infer, SimKind::Train] {
        for net in kind.networks() {
            for scheme in SCHEMES {
                let s = evaluate(&net, kind.mode(), scheme, &cfg);
                println!("{}", golden_line(kind.mode(), &net, scheme, &record(&s)));
            }
        }
    }
    Ok(())
}

/// Compares each evaluated point with its golden record.
struct Checker {
    golden: HashMap<Key, Record>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new() -> Result<Self, String> {
        Ok(Self {
            golden: parse_golden(include_str!("../golden/sim.tsv"))?,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// Counts one checked output; `describe` explains a failure.
    fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("MISMATCH {}", describe()));
            }
        }
    }

    /// Checks `got` against the golden record of (`p`'s point, `as_scheme`).
    fn check(&mut self, p: &Point, as_scheme: Scheme, got: &Record, what: &str) {
        let k = key(p.mode, &p.net, as_scheme);
        let golden = self.golden.get(&k).copied();
        self.expect(golden.as_ref() == Some(got), || {
            format!(
                "{what} {}/{}/{}: got {got:?}, golden {golden:?}",
                k.0,
                k.1,
                p.scheme.label()
            )
        });
    }
}

/// Per-scheme host-time and access accumulators.
#[derive(Default)]
struct PerScheme {
    host_s: [f64; 3],
    accesses: [u64; 3],
}

fn scheme_index(s: Scheme) -> usize {
    SCHEMES.iter().position(|&x| x == s).unwrap_or(0)
}

/// Host seconds and accesses of each pass, with the per-point samples.
struct Passes {
    walls: Vec<f64>,
    /// Host seconds of each completed million simulated accesses.
    op_s: Vec<f64>,
    per_scheme: PerScheme,
    /// First pass's summaries, in point order (for the accuracy line).
    first: Vec<RunSummary>,
}

/// Accesses per operation: one latency sample per million simulated
/// accesses, so its host milliseconds read as host ns per access.
const ACCESSES_PER_OP: u64 = 1_000_000;

/// Times every [`ACCESSES_PER_OP`]-th access of a pass. The clock runs
/// across point boundaries, so a sample also covers whatever the pipeline
/// did between two points; it stops for the host-speed kernel, which runs
/// at sample boundaries.
struct Sampler {
    count: u64,
    /// [`host::now`] at the start of the current sample.
    last: f64,
    samples: Vec<f64>,
}

/// A [`DramSystem`] that reports each access to a [`Sampler`].
struct SamplingSink<'a> {
    dram: DramSystem,
    sampler: &'a mut Sampler,
}

impl DramSink for SamplingSink<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.dram.access(addr, is_write);
        let s = &mut *self.sampler;
        s.count += 1;
        if s.count == ACCESSES_PER_OP {
            s.samples.push(host::now() - s.last);
            s.count = 0;
            host::tick();
            s.last = host::now();
        }
    }

    fn drain_stats(&mut self) -> DramStats {
        self.dram.drain_stats()
    }
}

fn run_passes(
    seed: u64,
    passes: usize,
    cfg: &EvalConfig,
    points: &[Point],
    checker: &mut Checker,
) -> Passes {
    let mut out = Passes {
        walls: Vec::new(),
        op_s: Vec::new(),
        per_scheme: PerScheme::default(),
        first: Vec::new(),
    };
    let mut first: Vec<Option<RunSummary>> = vec![None; points.len()];
    for pass in 0..passes {
        let order = Rng::new(seed ^ ((pass as u64) << 32)).permutation(points.len());
        let t_pass = host::now();
        let mut sampler = Sampler {
            count: 0,
            last: t_pass,
            samples: Vec::new(),
        };
        for &i in &order {
            let p = &points[i];
            let t0 = host::now();
            let mut sink = SamplingSink {
                dram: DramSystem::new(cfg.dram),
                sampler: &mut sampler,
            };
            let s = evaluate_into(&p.net, p.mode, p.scheme, cfg, &mut sink);
            let si = scheme_index(p.scheme);
            out.per_scheme.host_s[si] += host::now() - t0;
            out.per_scheme.accesses[si] += s.dram.accesses();
            checker.check(p, p.scheme, &record(&s), "evaluate_into");
            if pass == 0 {
                first[i] = Some(s);
            }
        }
        out.walls.push(host::now() - t_pass);
        out.op_s.extend(sampler.samples);
    }
    out.first = first.into_iter().flatten().collect();
    out
}

/// GuardNN_C adds no metadata traffic, so its simulated run must equal
/// NP's golden record (the batch entry points derive it that way). One
/// point per run checks it: the workload's smallest network.
fn check_guardnn_c(kind: SimKind, cfg: &EvalConfig, checker: &mut Checker) {
    let net = match kind {
        SimKind::Infer => zoo::dlrm(),
        SimKind::Train => zoo::mobilenet_v1(),
    };
    let s = evaluate(&net, kind.mode(), Scheme::GuardNnC, cfg);
    let p = Point {
        net,
        mode: kind.mode(),
        scheme: Scheme::GuardNnC,
    };
    checker.check(&p, Scheme::NoProtection, &record(&s), "GuardNN_C vs NP");
}

/// Mean traffic increase and geometric-mean normalized execution time of
/// `scheme` over the networks of the first pass, beside NP.
fn overheads(first: &[RunSummary], scheme: &str) -> (f64, f64) {
    let np: Vec<&RunSummary> = first.iter().filter(|s| s.scheme == "NP").collect();
    let other: Vec<&RunSummary> = first.iter().filter(|s| s.scheme == scheme).collect();
    let n = other.len().max(1) as f64;
    let traffic = other.iter().map(|s| s.traffic_increase()).sum::<f64>() / n;
    let log_norm: f64 = other
        .iter()
        .zip(&np)
        .map(|(s, b)| s.normalized_to(b).ln())
        .sum();
    (traffic, (log_norm / n).exp())
}

fn accuracy_line(first: &[RunSummary]) -> String {
    let (ci_t, ci_x) = overheads(first, "GuardNN_CI");
    let (bp_t, bp_x) = overheads(first, "BP");
    format!(
        "accuracy (sim-infer, {TARGET}, 9 networks): traffic increase GuardNN_CI +{:.1}% (paper §III-C +2.4%), \
         BP +{:.1}% (paper +35.3%); normalized exec time (geomean) GuardNN_CI {ci_x:.4}x (paper ~1.0105x), \
         BP {bp_x:.3}x (paper 1.25x). The exec-time model is not validated against hardware.",
        ci_t * 100.0,
        bp_t * 100.0
    )
}

/// Runs a simulator workload; see the module docs.
pub fn run(kind: SimKind, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut checker = Checker::new()?;
    let (setup_s, (cfg, points)) = time_setup(|| setup(kind))?;
    let passes = ((seconds as f64 / kind.nominal_pass_s()).round() as usize).max(1);
    let untraced_passes = if trace { 1 } else { passes };
    let measured = run_passes(seed, untraced_passes, &cfg, &points, &mut checker);
    check_guardnn_c(kind, &cfg, &mut checker);

    let mut out = Outcome::default();
    if kind == SimKind::Infer {
        out.notes.push(accuracy_line(&measured.first));
    }
    let ps = &measured.per_scheme;
    let total_acc: u64 = ps.accesses.iter().sum();
    let total_s: f64 = ps.host_s.iter().sum();
    let points_run = measured.walls.len() * points.len() / SCHEMES.len();
    out.extras.push(
        Metric::new("sim_maccess_per_s", total_acc as f64 / total_s / 1e6, "M/s").with_detail(
            format!("{total_acc} accesses, {} passes", measured.walls.len()),
        ),
    );
    for (i, s) in SCHEMES.iter().enumerate() {
        out.extras.push(
            Metric::new(
                &format!("sim_ns_per_access.{}", s.label()),
                ps.host_s[i] / ps.accesses[i].max(1) as f64 * 1e9,
                "ns",
            )
            .with_detail(format!(
                "{} accesses over {points_run} points",
                ps.accesses[i]
            )),
        );
    }

    if trace {
        let ladder = ladder(seed, &cfg, &points, &mut checker);
        let untraced_wall = measured.walls[0];
        out.notes.push(format!(
            "trace: ladder top rung {:.3} s vs untraced pass {:.3} s; self times sum to the top rung",
            ladder.top_s, untraced_wall
        ));
        out.metrics = ladder.metrics(ladder.top_s - untraced_wall);
    } else {
        out.end_to_end(setup_s, &measured.walls, &measured.op_s);
    }
    out.attempted = checker.attempted;
    out.failed = checker.failed;
    out.notes.extend(checker.notes);
    let walls: Vec<String> = measured.walls.iter().map(|w| format!("{w:.3}")).collect();
    out.notes
        .push(format!("pass walls (s): {}", walls.join(" ")));
    Ok(out)
}

/// A [`DramSink`] that only counts the accesses it is handed.
#[derive(Default)]
struct CountingSink {
    stats: DramStats,
}

impl DramSink for CountingSink {
    fn access(&mut self, addr: u64, is_write: bool) {
        black_box(addr);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
    }

    fn drain_stats(&mut self) -> DramStats {
        self.stats
    }
}

/// Ladder totals of one traced pass.
#[derive(Default)]
struct Ladder {
    systolic_s: f64,
    systolic_items: u64,
    memprot_s: [f64; 3],
    dram_s: [f64; 3],
    accesses: [u64; 3],
    meta_accesses: [u64; 3],
    /// Merged DRAM statistics (counters summed over the points).
    dram: DramStats,
    /// Simulated cycles summed over the points.
    total_cycles: u64,
    /// Sum of the full-evaluation rung over all points.
    top_s: f64,
}

fn ladder(seed: u64, cfg: &EvalConfig, points: &[Point], checker: &mut Checker) -> Ladder {
    let mut l = Ladder::default();
    for i in Rng::new(seed).permutation(points.len()) {
        let p = &points[i];
        let si = scheme_index(p.scheme);
        host::tick();

        let t0 = host::now();
        let prep = prepare(p, cfg);
        let mut items = 0u64;
        for item in prep.tb.stream(&prep.plan) {
            items += 1;
            black_box(item);
        }
        let t1 = host::now() - t0;

        let t0 = host::now();
        let mut prep = prepare(p, cfg);
        let mut sink = CountingSink::default();
        let counted = run_protected_streaming_into(
            prep.tb.stream(&prep.plan),
            prep.engine.as_mut(),
            &mut sink,
            cfg.dram,
            prep.clock_mhz,
        );
        let t2 = host::now() - t0;

        let t0 = host::now();
        let mut dram = DramSystem::new(cfg.dram);
        let full = evaluate_into(&p.net, p.mode, p.scheme, cfg, &mut dram);
        let t3 = host::now() - t0;
        checker.check(p, p.scheme, &record(&full), "evaluate_into");

        checker.expect(counted.dram.accesses() == full.dram.accesses(), || {
            format!(
                "null sink counted {} accesses, the DRAM model scheduled {}",
                counted.dram.accesses(),
                full.dram.accesses()
            )
        });

        l.systolic_s += t1;
        l.systolic_items += items;
        l.memprot_s[si] += t2 - t1;
        l.dram_s[si] += t3 - t2;
        l.top_s += t3;
        l.accesses[si] += full.dram.accesses();
        l.meta_accesses[si] += full.meta_bytes / 64;
        l.total_cycles += full.dram.total_cycles;
        l.dram.merge(&full.dram);
    }
    l
}

impl Ladder {
    fn metrics(&self, overhead_s: f64) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("systolic.self_ns", self.systolic_s * 1e9, "ns"),
            Metric::new("systolic.items", self.systolic_items as f64, "count"),
        ];
        for (i, s) in SCHEMES.iter().enumerate() {
            let acc = self.accesses[i].max(1) as f64;
            m.push(Metric::new(
                &format!("memprot.self_ns_per_access.{}", s.label()),
                self.memprot_s[i] / acc * 1e9,
                "ns",
            ));
            m.push(Metric::new(
                &format!("dram.self_ns_per_access.{}", s.label()),
                self.dram_s[i] / acc * 1e9,
                "ns",
            ));
        }
        for s in [Scheme::GuardNnCi, Scheme::Baseline] {
            m.push(Metric::new(
                &format!("memprot.meta_accesses.{}", s.label()),
                self.meta_accesses[scheme_index(s)] as f64,
                "count",
            ));
        }
        m.push(Metric::new(
            "dram.accesses",
            self.dram.accesses() as f64,
            "count",
        ));
        m.push(Metric::new(
            "dram.row_hit_rate",
            self.dram.row_hit_rate(),
            "ratio",
        ));
        m.push(Metric::new(
            "dram.total_cycles",
            self.total_cycles as f64,
            "cycles",
        ));
        m.push(Metric::new("trace.overhead_s", overhead_s, "s"));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> HashMap<Key, Record> {
        parse_golden(include_str!("../golden/sim.tsv")).unwrap()
    }

    #[test]
    fn golden_covers_every_point() {
        let g = golden();
        for kind in [SimKind::Infer, SimKind::Train] {
            for net in kind.networks() {
                for scheme in SCHEMES {
                    assert!(g.contains_key(&key(kind.mode(), &net, scheme)));
                }
            }
        }
        assert_eq!(g.len(), 9 * 3 + 2 * 3);
    }

    /// Extracts `"field":value` from one flat JSON object.
    fn field<'a>(obj: &'a str, name: &str) -> &'a str {
        let at = obj.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
        let rest = &obj[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim_matches('"')
    }

    /// The golden GuardNN_CI and BP records agree with the repository's
    /// committed `BENCH_traffic.json` (same simulator, same target) on data
    /// bytes, metadata bytes and the exact execution time.
    #[test]
    fn golden_matches_committed_traffic_record() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_traffic.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("{path} not present; skipped");
            return;
        };
        let g = golden();
        let mut checked = 0;
        for obj in text.split("{\"network\"").skip(1) {
            let obj = format!("{{\"network\"{obj}");
            let k = (
                field(&obj, "mode").to_string(),
                field(&obj, "network").to_string(),
                field(&obj, "scheme").to_string(),
            );
            let Some(rec) = g.get(&k) else { continue };
            assert_eq!(
                field(&obj, "data_bytes").parse::<u64>().unwrap(),
                rec[0],
                "{k:?}"
            );
            assert_eq!(
                field(&obj, "meta_bytes").parse::<u64>().unwrap(),
                rec[1],
                "{k:?}"
            );
            let exec: f64 = field(&obj, "exec_ns").parse().unwrap();
            assert_eq!(exec.to_bits(), rec[10], "{k:?}");
            checked += 1;
        }
        // 9 inference networks and the 2 training ones, × {GuardNN_CI, BP}.
        assert_eq!(checked, 22);
    }
}
