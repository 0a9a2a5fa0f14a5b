//! The serving workload: a closed loop through `FleetSupervisor`.
//!
//! Six logical users share one thread and take turns round-robin over a
//! two-device fleet. A turn is one action: open the next scripted session
//! (connect → establish with integrity → load_model), submit an input and
//! step once, step once, or disconnect a finished session. A step that
//! finishes a request also takes and checks its decrypted output against
//! `testnet::reference_forward`.
//!
//! The session script (lengths 1–32, models, inputs, expected outputs) is
//! generated from the seed before anything is timed. The traced run times
//! every fleet call as a span (name, start, end, parent, session id,
//! request id) on the host-normalized clock, keeps the spans in memory
//! and writes them to `.bench_out/` at the end; a child process with the
//! global metrics recorder on counts crypto operations per inference and
//! per session.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use guardnn::device::GuardNnDevice;
use guardnn::fleet::{DeviceId, FleetPolicy, FleetSessionId, FleetSupervisor};
use guardnn::server::StepProgress;
use guardnn::session::RemoteUser;
use guardnn::{testnet, GuardNnError};
use guardnn_crypto::schnorr::VerifyingKey;
use guardnn_models::layer::{conv, fc};
use guardnn_models::Network;
use guardnn_obs::Recorder;

use crate::stats::{median, Summary};
use crate::{host, time_setup, Metric, Outcome, Rng};

/// Concurrent logical users.
const USERS: usize = 6;
/// Devices in the fleet.
const DEVICES: usize = 2;
/// Distinct models (weight sets) sessions draw from.
const MODELS: usize = 4;
/// Inferences per session: uniform in this range.
const SESSION_LEN: (u64, u64) = (1, 32);
/// Sessions per requested second, sized on a 2-core x86 box.
const SESSIONS_PER_S: f64 = 6.0;
/// Manufacturer key seed shared by every device of the fleet.
const MAKER_SEED: u64 = 0xBE2C;

/// First argument that makes the process the crypto-counting child.
pub const COUNT_CHILD_FLAG: &str = "--count-crypto";

/// The served network: 16×16×3 → conv3×3 → 8 → conv3×3 → 8 → fc → 10.
pub fn network() -> Network {
    Network::new(
        "perfbench-cnn",
        vec![
            conv("conv1", 16, 3, 8, 3, 1, 1),
            conv("conv2", 16, 8, 8, 3, 1, 1),
            fc("fc", 1, 8 * 16 * 16, 10),
        ],
    )
}

/// Instructions whose counts classify a step.
pub const MNEMONICS: [&str; 5] = [
    "SELECTSESSION",
    "SETINPUT",
    "FORWARD",
    "EXPORTOUTPUT",
    "SETREADCTR",
];

/// What one timed `fleet.step` did, from the per-mnemonic instruction
/// counts (in [`MNEMONICS`] order) before and after it: the step's own
/// instruction, and whether it carried a context switch (`SELECTSESSION`
/// plus the read-counter replay of the resumed session). A step that
/// issued only `SETREADCTR`s (own or replayed) is a `SETREADCTR` step;
/// one that issued nothing is `None`.
pub fn classify(before: &[u64; 5], after: &[u64; 5]) -> (Option<&'static str>, bool) {
    let changed = |i: usize| after[i] > before[i];
    let switched = changed(0);
    let own = [1, 2, 3, 4]
        .into_iter()
        .find(|&i| changed(i))
        .map(|i| MNEMONICS[i]);
    (own, switched)
}

/// One scripted session.
struct SessionScript {
    user_seed: u64,
    model: usize,
    /// Inputs and their expected outputs.
    requests: Vec<(Vec<i32>, Vec<i32>)>,
}

/// Generates the session script of a run. Lengths come in pairs `L`,
/// `33 − L` (`L` uniform in 1..=32), so every seed serves the same number
/// of inferences; the seed picks the lengths, their order, the models and
/// the inputs.
fn script(
    seed: u64,
    sessions: usize,
    net: &Network,
    models: &[Vec<Vec<i32>>],
) -> Vec<SessionScript> {
    let mut rng = Rng::new(seed);
    let (lo, hi) = SESSION_LEN;
    let mut lens = Vec::with_capacity(sessions);
    for _ in 0..sessions / 2 {
        let len = rng.range(lo, hi);
        lens.extend([len, lo + hi - len]);
    }
    let lens: Vec<u64> = rng
        .permutation(lens.len())
        .into_iter()
        .map(|i| lens[i])
        .collect();
    let in_elems = net.layers()[0].input_elems() as usize;
    lens.into_iter()
        .map(|len| {
            let model = rng.range(0, MODELS as u64 - 1) as usize;
            let requests = (0..len)
                .map(|_| {
                    let input: Vec<i32> =
                        (0..in_elems).map(|_| rng.range(0, 6) as i32 - 3).collect();
                    let expected = testnet::reference_forward(net, &models[model], &input);
                    (input, expected)
                })
                .collect();
            SessionScript {
                user_seed: rng.next_u64(),
                model,
                requests,
            }
        })
        .collect()
}

/// Device provisioning and fleet construction: the serving set-up.
fn setup() -> (FleetSupervisor, VerifyingKey) {
    let (devices, makers): (Vec<GuardNnDevice>, Vec<VerifyingKey>) = (0..DEVICES)
        .map(|i| GuardNnDevice::provision(0x0F1E + i as u64, MAKER_SEED))
        .unzip();
    let mut fleet = FleetSupervisor::new(devices, FleetPolicy::default());
    fleet.set_recorder(Recorder::disabled());
    (fleet, makers[0].clone())
}

/// One span of the traced run.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span (`session.open` or `request`).
    parent: Option<usize>,
    session: u64,
    request: u64,
}

/// An in-flight request.
struct Request {
    id: u64,
    index: usize,
    /// [`host::now`] at submission.
    submitted: f64,
    service_s: f64,
    span: Option<usize>,
}

/// A user's live session.
struct Live {
    sid: FleetSessionId,
    user: RemoteUser,
    script: usize,
    next: usize,
    inflight: Option<Request>,
}

/// Everything one pass over the script measured.
#[derive(Default)]
struct PassStats {
    wall_s: f64,
    infer_s: Vec<f64>,
    service_s: Vec<f64>,
    open_s: Vec<f64>,
    establish_s: Vec<f64>,
    load_model_s: Vec<f64>,
    /// Step latencies by own instruction (in [`MNEMONICS`] order; slot 0
    /// holds the steps that carried a context switch).
    step_s: [Vec<f64>; 5],
    instructions: u64,
    switches: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// Per-mnemonic instruction counts summed over the fleet's devices.
fn counts(fleet: &FleetSupervisor) -> ([u64; 5], u64) {
    let mut c = [0u64; 5];
    let mut total = 0;
    for d in 0..fleet.device_count() {
        if let Some(stats) = fleet.device_stats(DeviceId(d)) {
            for (slot, m) in c.iter_mut().zip(MNEMONICS) {
                *slot += stats.count(m);
            }
            total += stats.total();
        }
    }
    (c, total)
}

/// Drives one pass of the script through `fleet`.
struct Driver<'a> {
    fleet: &'a mut FleetSupervisor,
    maker: &'a VerifyingKey,
    net: &'a Network,
    models: &'a [Vec<Vec<i32>>],
    script: &'a [SessionScript],
    trace: bool,
    /// [`host::now`] at the start of the pass.
    epoch: f64,
    stats: PassStats,
    next_request: u64,
}

impl Driver<'_> {
    fn ns(&self, t: f64) -> u64 {
        ((t - self.epoch) * 1e9) as u64
    }

    /// Records a span (traced pass only); returns its index.
    fn record(
        &mut self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<usize>,
        session: u64,
        request: u64,
    ) -> Option<usize> {
        if !self.trace {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            session,
            request,
        };
        self.stats.spans.push(span);
        Some(self.stats.spans.len() - 1)
    }

    /// Records a span from `start` until now.
    fn span(
        &mut self,
        name: &'static str,
        start: f64,
        parent: Option<usize>,
        session: u64,
        request: u64,
    ) -> Option<usize> {
        self.record(name, (start, host::now()), parent, session, request)
    }

    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.stats.failed += 1;
        if self.stats.errors.len() < 8 {
            self.stats.errors.push(format!("{what}: {e}"));
        }
    }

    /// connect → establish(integrity) → load_model.
    fn open(&mut self, index: usize) -> Result<Live, GuardNnError> {
        let s = &self.script[index];
        let mut user = RemoteUser::new(self.maker.clone(), s.user_seed);
        let t0 = host::now();
        let sid = self.fleet.connect()?;
        let t1 = host::now();
        self.fleet.establish(sid, &mut user, true)?;
        let t2 = host::now();
        self.fleet
            .load_model(sid, &mut user, self.net, &self.models[s.model])?;
        let t3 = host::now();
        self.stats.open_s.push(t3 - t0);
        self.stats.establish_s.push(t2 - t1);
        self.stats.load_model_s.push(t3 - t2);
        let session = sid.raw();
        let parent = self.record("session.open", (t0, t3), None, session, 0);
        self.record("fleet.connect", (t0, t1), parent, session, 0);
        self.record("fleet.establish", (t1, t2), parent, session, 0);
        self.record("fleet.load_model", (t2, t3), parent, session, 0);
        Ok(Live {
            sid,
            user,
            script: index,
            next: 0,
            inflight: None,
        })
    }

    /// One turn of a user with a live session. Returns `false` when the
    /// session is over (disconnected, or dropped after an error).
    fn turn(&mut self, live: &mut Live) -> bool {
        let script = self.script;
        let requests = &script[live.script].requests;
        if live.inflight.is_none() {
            if live.next == requests.len() {
                let t0 = host::now();
                if let Err(e) = self.fleet.disconnect(live.sid) {
                    self.fail("disconnect", e);
                }
                self.span("fleet.disconnect", t0, None, live.sid.raw(), 0);
                return false;
            }
            let index = live.next;
            live.next += 1;
            self.next_request += 1;
            self.stats.attempted += 1;
            let id = self.next_request;
            let t0 = host::now();
            let submitted = self
                .fleet
                .submit(live.sid, &mut live.user, &requests[index].0);
            let service_s = host::now() - t0;
            if let Err(e) = submitted {
                self.fail("submit", e);
                return self.drop_session(live);
            }
            // The request span is recorded when it completes; reserve its
            // slot now so that its children can point at it.
            let span = self.span("request", t0, None, live.sid.raw(), id);
            self.span("fleet.submit", t0, span, live.sid.raw(), id);
            live.inflight = Some(Request {
                id,
                index,
                submitted: t0,
                service_s,
                span,
            });
        }
        self.step(live)
    }

    fn step(&mut self, live: &mut Live) -> bool {
        let Some(req) = live.inflight.as_mut() else {
            return true;
        };
        let before = if self.trace {
            Some(counts(self.fleet))
        } else {
            None
        };
        let t0 = host::now();
        let progress = self.fleet.step(live.sid, &mut live.user);
        let dt = host::now() - t0;
        req.service_s += dt;
        let (id, parent) = (req.id, req.span);
        if let Some((before, total_before)) = before {
            let (after, total_after) = counts(self.fleet);
            let (own, switched) = classify(&before, &after);
            if let Some(i) = own.and_then(|m| MNEMONICS.iter().position(|&x| x == m)) {
                self.stats.step_s[i].push(dt);
            }
            if switched {
                self.stats.step_s[0].push(dt);
                self.stats.switches += after[0] - before[0];
            }
            self.stats.instructions += total_after - total_before;
            self.span("fleet.step", t0, parent, live.sid.raw(), id);
        }
        match progress {
            Ok(StepProgress::Finished) => self.finish(live),
            Ok(StepProgress::Working) => true,
            Ok(StepProgress::Idle) => {
                self.fail("step", "idle with a request in flight");
                self.drop_session(live)
            }
            Err(e) => {
                self.fail("step", e);
                self.drop_session(live)
            }
        }
    }

    /// Takes and checks the finished output of the in-flight request.
    fn finish(&mut self, live: &mut Live) -> bool {
        let Some(req) = live.inflight.take() else {
            return true;
        };
        let t0 = host::now();
        let output = self.fleet.take(live.sid);
        let now = host::now();
        let service = req.service_s + (now - t0);
        self.span("fleet.take", t0, req.span, live.sid.raw(), req.id);
        if let Some(i) = req.span {
            self.stats.spans[i].end_ns = self.ns(now);
        }
        let script = self.script;
        let expected = &script[live.script].requests[req.index].1;
        match output {
            Ok(Some(out)) if &out == expected => {
                self.stats.infer_s.push(now - req.submitted);
                self.stats.service_s.push(service);
                true
            }
            Ok(Some(_)) => {
                self.fail("output", "differs from reference_forward");
                true
            }
            Ok(None) => {
                self.fail("take", "no output after Finished");
                self.drop_session(live)
            }
            Err(e) => {
                self.fail("take", e);
                self.drop_session(live)
            }
        }
    }

    /// Abandons a session after an error, counting the requests it never
    /// ran as failed.
    fn drop_session(&mut self, live: &mut Live) -> bool {
        let left = self.script[live.script].requests.len() - live.next;
        self.stats.attempted += left as u64;
        self.stats.failed += left as u64;
        let _ = self.fleet.disconnect(live.sid);
        false
    }

    /// Runs the whole script with [`USERS`] users round-robin.
    fn run(mut self) -> PassStats {
        let t_pass = host::now();
        let mut users: Vec<Option<Live>> = (0..USERS).map(|_| None).collect();
        let mut next_session = 0usize;
        let mut active = VecDeque::from_iter(0..USERS);
        while let Some(u) = active.pop_front() {
            host::tick();
            match users[u].take() {
                None if next_session < self.script.len() => {
                    let index = next_session;
                    next_session += 1;
                    self.stats.attempted += 1;
                    match self.open(index) {
                        Ok(live) => users[u] = Some(live),
                        Err(e) => {
                            self.fail("open", e);
                            let n = self.script[index].requests.len() as u64;
                            self.stats.attempted += n;
                            self.stats.failed += n;
                        }
                    }
                    active.push_back(u);
                }
                // Script exhausted: this user retires.
                None => {}
                Some(mut live) => {
                    if self.turn(&mut live) {
                        users[u] = Some(live);
                    }
                    active.push_back(u);
                }
            }
        }
        self.stats.wall_s = host::now() - t_pass;
        self.stats
    }
}

/// `<name>.p50` and `<name>.<tail>` in ms of latencies given in seconds.
fn latency_extras(name: &str, samples_s: &[f64]) -> Vec<Metric> {
    let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
    let Some(s) = Summary::of(&ms) else {
        return Vec::new();
    };
    vec![
        Metric::new(&format!("{name}.p50"), s.p50, "ms").with_detail(format!("n={}", s.n)),
        Metric::new(&format!("{name}.{}", s.tail_label), s.tail, "ms")
            .with_detail(format!("n={}", s.n)),
    ]
}

/// Runs the serving workload; see the module docs.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let net = network();
    let models: Vec<Vec<Vec<i32>>> = (0..MODELS)
        .map(|m| testnet::deterministic_weights(&net, (seed as i32).wrapping_add(m as i32)))
        .collect();
    // An even count, so that the length pairs are complete.
    let sessions = ((seconds as f64 * SESSIONS_PER_S / 2.0).round() as usize).max(1) * 2;
    let script = script(seed, sessions, &net, &models);

    let (setup_s, (mut fleet, maker)) = time_setup(|| Ok(setup()))?;

    let drive = |fleet: &mut FleetSupervisor, trace: bool| {
        Driver {
            fleet,
            maker: &maker,
            net: &net,
            models: &models,
            script: &script,
            trace,
            epoch: host::now(),
            stats: PassStats::default(),
            next_request: 0,
        }
        .run()
    };
    let pass = drive(&mut fleet, false);

    let mut out = Outcome::default();
    let infers = pass.infer_s.len();
    out.notes.push(format!(
        "script: {sessions} sessions, {} inferences, {USERS} users, {DEVICES} devices",
        script.iter().map(|s| s.requests.len()).sum::<usize>()
    ));
    out.extras.extend(latency_extras("infer_ms", &pass.infer_s));
    out.extras
        .extend(latency_extras("session_open_ms", &pass.open_s));
    out.extras.push(
        Metric::new("infer_per_s", infers as f64 / pass.wall_s, "1/s")
            .with_detail(format!("n={infers} over {:.3} s", pass.wall_s)),
    );
    out.attempted = pass.attempted;
    out.failed = pass.failed;
    out.notes.extend(pass.errors.iter().cloned());

    if trace {
        // A fresh fleet, so both passes start from the same device state.
        let (mut fleet, _) = setup();
        let traced = drive(&mut fleet, true);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.notes.extend(traced.errors.iter().cloned());
        let path = write_spans(seed, &traced.spans)?;
        out.notes.push(format!(
            "trace: {} spans written to {path}; traced pass {:.3} s vs untraced {:.3} s",
            traced.spans.len(),
            traced.wall_s,
            pass.wall_s
        ));
        out.metrics = traced_metrics(&traced, traced.wall_s - pass.wall_s);
        out.metrics.extend(crypto_counts(seed)?);
    } else {
        out.end_to_end(setup_s, &[pass.wall_s], &pass.infer_s);
    }
    Ok(out)
}

fn traced_metrics(t: &PassStats, overhead_s: f64) -> Vec<Metric> {
    let infers = t.infer_s.len().max(1) as f64;
    let mut m: Vec<Metric> = MNEMONICS
        .iter()
        .zip(&t.step_s)
        .map(|(name, samples)| {
            Metric::new(
                &format!("server.step_us.{name}.p50"),
                median(samples) * 1e6,
                "us",
            )
            .with_detail(format!("n={}", samples.len()))
        })
        .collect();
    m.push(Metric::new(
        "server.instructions_per_infer",
        t.instructions as f64 / infers,
        "count",
    ));
    m.push(Metric::new(
        "server.context_switches_per_infer",
        t.switches as f64 / infers,
        "count",
    ));
    let waits: Vec<f64> = t
        .infer_s
        .iter()
        .zip(&t.service_s)
        .map(|(l, s)| l - s)
        .collect();
    for (name, samples) in [
        ("fleet.service_ms.p50", &t.service_s),
        ("fleet.queue_wait_ms.p50", &waits),
        ("fleet.establish_ms.p50", &t.establish_s),
        ("fleet.load_model_ms.p50", &t.load_model_s),
    ] {
        m.push(
            Metric::new(name, median(samples) * 1e3, "ms")
                .with_detail(format!("n={}", samples.len())),
        );
    }
    m.push(Metric::new("trace.overhead_s", overhead_s, "s"));
    m
}

/// Writes the spans as JSON lines under `.bench_out/`.
fn write_spans(seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = ".bench_out";
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/serve-spans-seed{seed}.jsonl");
    let mut text = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.session, s.request
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Sessions and inferences the counting child runs.
const COUNT_SESSIONS: usize = 4;
const COUNT_INFERS: usize = 4;

/// Runs the crypto-counting child and parses its counts.
fn crypto_counts(seed: u64) -> Result<Vec<Metric>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([COUNT_CHILD_FLAG, &seed.to_string()])
        .output()
        .map_err(|e| format!("crypto-count child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("counts\t"))
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "crypto-count child failed: {}",
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let v: Vec<f64> = line.split('\t').filter_map(|x| x.parse().ok()).collect();
    let [aes, cmac, modexp] = v[..] else {
        return Err(format!("crypto-count child printed {line:?}"));
    };
    Ok(vec![
        Metric::new("crypto.aes_blocks_per_infer", aes, "count"),
        Metric::new("crypto.cmac_tags_per_infer", cmac, "count"),
        Metric::new("crypto.modexp_per_session", modexp, "count"),
    ])
}

/// The counting child: with the global recorder on, opens
/// [`COUNT_SESSIONS`] sessions and serves [`COUNT_INFERS`] inferences on
/// each, attributing the `crypto.*` counter deltas to session opens and
/// to inferences.
pub fn count_child(args: &[String]) -> ExitCode {
    let seed: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
    let rec = Recorder::enabled();
    if !Recorder::install_global(rec.clone()) {
        eprintln!("global recorder already initialized");
        return ExitCode::FAILURE;
    }
    let counter = |name: &str| rec.snapshot().counters.get(name).copied().unwrap_or(0);
    let read = || {
        [
            counter("crypto.aes_blocks"),
            counter("crypto.cmac_tags"),
            counter("crypto.modexp"),
        ]
    };
    let net = network();
    let weights = testnet::deterministic_weights(&net, seed as i32);
    let (mut fleet, maker) = setup();
    let mut open = [0u64; 3];
    let mut infer = [0u64; 3];
    let add = |acc: &mut [u64; 3], a: [u64; 3], b: [u64; 3]| {
        for i in 0..3 {
            acc[i] += b[i] - a[i];
        }
    };
    let mut rng = Rng::new(seed);
    let in_elems = net.layers()[0].input_elems() as usize;
    for s in 0..COUNT_SESSIONS {
        let mut user = RemoteUser::new(maker.clone(), seed ^ s as u64);
        let c0 = read();
        let result = (|| -> Result<(), GuardNnError> {
            let sid = fleet.connect()?;
            fleet.establish(sid, &mut user, true)?;
            fleet.load_model(sid, &mut user, &net, &weights)?;
            add(&mut open, c0, read());
            let inputs: Vec<Vec<i32>> = (0..COUNT_INFERS)
                .map(|_| (0..in_elems).map(|_| rng.range(0, 6) as i32 - 3).collect())
                .collect();
            let c1 = read();
            let outputs = fleet.infer_batch(sid, &mut user, &inputs)?;
            add(&mut infer, c1, read());
            fleet.disconnect(sid)?;
            let ok = inputs
                .iter()
                .zip(&outputs)
                .all(|(i, o)| *o == testnet::reference_forward(&net, &weights, i));
            if ok {
                Ok(())
            } else {
                Err(GuardNnError::InvalidState("output differs from reference"))
            }
        })();
        if let Err(e) = result {
            eprintln!("counting session {s}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let per_infer = (COUNT_SESSIONS * COUNT_INFERS) as f64;
    println!(
        "counts\t{}\t{}\t{}",
        infer[0] as f64 / per_infer,
        infer[1] as f64 / per_infer,
        open[2] as f64 / COUNT_SESSIONS as f64
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_own_instruction_and_switch() {
        let base = [3, 1, 2, 1, 4];
        // A plain FORWARD step.
        assert_eq!(classify(&base, &[3, 1, 3, 1, 4]), (Some("FORWARD"), false));
        // A resumed session: SELECTSESSION + replayed SETREADCTR + FORWARD.
        assert_eq!(classify(&base, &[4, 1, 3, 1, 5]), (Some("FORWARD"), true));
        // Its own SETREADCTR after a switch with no checkpoint to replay.
        assert_eq!(
            classify(&base, &[4, 1, 2, 1, 5]),
            (Some("SETREADCTR"), true)
        );
        assert_eq!(classify(&base, &[3, 2, 2, 1, 4]), (Some("SETINPUT"), false));
        assert_eq!(
            classify(&base, &[3, 1, 2, 2, 4]),
            (Some("EXPORTOUTPUT"), false)
        );
        // An idle step issued nothing.
        assert_eq!(classify(&base, &base), (None, false));
    }

    /// A wrong output and a refused request each count once as failed;
    /// session opens and requests each count once as attempted.
    #[test]
    fn failed_ratio_accounting() {
        let net = network();
        let models = vec![testnet::deterministic_weights(&net, 5)];
        let input: Vec<i32> = (0..16 * 16 * 3).map(|i| i % 7 - 3).collect();
        let good = testnet::reference_forward(&net, &models[0], &input);
        let mut wrong = good.clone();
        wrong[0] ^= 1;
        let script = vec![
            SessionScript {
                user_seed: 1,
                model: 0,
                requests: vec![(input.clone(), good), (input.clone(), wrong)],
            },
            // A malformed input is refused at submit; the session is
            // dropped and its remaining request counted as failed too.
            SessionScript {
                user_seed: 2,
                model: 0,
                requests: vec![(vec![0; 5], vec![]), (input, vec![])],
            },
        ];
        let (mut fleet, maker) = setup();
        let stats = Driver {
            fleet: &mut fleet,
            maker: &maker,
            net: &net,
            models: &models,
            script: &script,
            trace: true,
            epoch: host::now(),
            stats: PassStats::default(),
            next_request: 0,
        }
        .run();
        assert_eq!(stats.attempted, 2 + 4, "{:?}", stats.errors);
        assert_eq!(stats.failed, 3, "{:?}", stats.errors);
        assert_eq!(stats.infer_s.len(), 1);
        // Every span closes after it opens and points at an earlier parent.
        for (i, s) in stats.spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            assert!(s.parent.is_none_or(|p| p < i));
        }
    }

    #[test]
    fn script_total_is_seed_independent() {
        let net = network();
        let models: Vec<_> = (0..MODELS as i32)
            .map(|m| testnet::deterministic_weights(&net, m))
            .collect();
        let total = |seed| -> usize {
            script(seed, 8, &net, &models)
                .iter()
                .map(|s| s.requests.len())
                .sum()
        };
        assert_eq!(total(1), 4 * 33);
        assert_eq!(total(2), 4 * 33);
    }

    #[test]
    fn served_network_chains() {
        let net = network();
        assert_eq!(net.validate_chain(), Ok(()));
        let w = testnet::deterministic_weights(&net, 1);
        let out = testnet::reference_forward(&net, &w, &vec![1; 16 * 16 * 3]);
        assert_eq!(out.len(), 10);
    }
}
