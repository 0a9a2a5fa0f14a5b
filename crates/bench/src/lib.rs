//! Shared helpers for the GuardNN benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see ARCHITECTURE.md, "`crates/bench` → the paper's tables and
//! figures", for the index); this library provides the common
//! report formatting so every binary prints aligned, diff-friendly tables.

#![deny(missing_docs)]

pub mod json;

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `digits` decimal places.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a percentage with sign, Table-II style (`+0.6`).
pub fn pct(v: f64) -> String {
    format!("{v:+.1}")
}

/// Flags whose following argument is a value, not a positional — shared
/// by every binary's positional-argument scanner.
pub const VALUE_FLAGS: &[&str] = &["--bench-out", "--metrics-out", "--target"];

/// Parses `--flag VALUE` from `args`, exiting with status 2 when the
/// value is missing — the shared behaviour of every binary's
/// `--bench-out`/`--metrics-out` handling.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("{flag} needs a file path");
            std::process::exit(2);
        }
    }
}

/// Handles `--metrics-out FILE`: when present, installs an **enabled**
/// process-global [`guardnn_obs::Recorder`] (so the whole instrumented
/// stack starts collecting) and returns the snapshot path for
/// [`write_metrics`] at exit. Call this before any simulation work — the
/// global recorder latches on first use.
pub fn install_metrics(args: &[String]) -> Option<String> {
    let path = flag_value(args, "--metrics-out")?;
    if !guardnn_obs::Recorder::install_global(guardnn_obs::Recorder::enabled()) {
        // GUARDNN_OBS=1 (or an earlier install) already enabled it; the
        // existing global keeps collecting and the snapshot still lands.
        eprintln!("note: global metrics recorder was already initialized");
    }
    Some(path)
}

/// Writes the global recorder's `guardnn-obs-v1` JSON snapshot to `path`.
pub fn write_metrics(path: &str) {
    let json = guardnn_obs::Recorder::global().snapshot().render_json();
    match std::fs::write(path, json + "\n") {
        Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The first positional (non-`--`) argument, skipping values consumed by
/// [`VALUE_FLAGS`].
pub fn positional(args: &[String]) -> Option<String> {
    args.iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a.clone())
}

/// Resolves the `--target NAME` (repeatable) and `--all-targets` flags
/// into the hardware targets to evaluate. No flag selects `guardnn-paper`
/// — the paper's evaluation point, bit-identical to the pre-registry
/// hard-coded defaults. Unknown names list the registry and exit(2).
pub fn select_targets(args: &[String]) -> Vec<&'static guardnn_targets::HardwareTarget> {
    if args.iter().any(|a| a == "--all-targets") {
        return guardnn_targets::builtin_targets().iter().collect();
    }
    let mut targets: Vec<&'static guardnn_targets::HardwareTarget> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--target" {
            let Some(name) = args.get(i + 1) else {
                eprintln!(
                    "--target needs a name (one of: {})",
                    guardnn_targets::names().join(", ")
                );
                std::process::exit(2);
            };
            match guardnn_targets::get(name) {
                Ok(t) => {
                    if !targets.iter().any(|x| x.name == t.name) {
                        targets.push(t);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if targets.is_empty() {
        // lint:allow(panic-discipline) — the built-in registry always defines guardnn-paper
        targets.push(guardnn_targets::get("guardnn-paper").expect("registry has the paper target"));
    }
    targets
}

/// Prints the standard banner line announcing which hardware target the
/// following results belong to.
pub fn announce_target(t: &guardnn_targets::HardwareTarget) {
    println!("\n== target {}: {} ==", t.name, t.description);
}

/// Prints the standard progress line for a worker-pool batch: the pool is
/// sized by [`guardnn::perf::Parallelism::workers_for`], so the count matches the threads
/// actually spawned.
pub fn announce_pool(what: &str, jobs: usize, parallelism: guardnn::perf::Parallelism) {
    eprintln!(
        "  running {jobs} {what} across {} workers...",
        parallelism.workers_for(jobs)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["net", "fps"]);
        t.row(vec!["alexnet", "51.5"]);
        t.row(vec!["vgg", "2.5"]);
        let s = t.render();
        assert!(s.contains("| alexnet |"));
        assert!(s.lines().count() == 4);
        // All lines equal width.
        let lens: Vec<usize> = s.lines().map(str::len).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.63), "+0.6");
        assert_eq!(pct(-1.25), "-1.2");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn target_selection_defaults_to_paper() {
        let sel = select_targets(&strings(&["smoke", "--json"]));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].name, "guardnn-paper");
    }

    #[test]
    fn target_selection_all_and_named() {
        let all = select_targets(&strings(&["--all-targets"]));
        assert_eq!(all.len(), guardnn_targets::builtin_targets().len());
        let named = select_targets(&strings(&[
            "--target",
            "hbm-wide",
            "--target",
            "edge-32x32",
            "--target",
            "hbm-wide",
        ]));
        let names: Vec<&str> = named.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["hbm-wide", "edge-32x32"], "dedup preserves order");
    }

    #[test]
    fn positional_skips_value_flags() {
        let args = strings(&["--bench-out", "x.json", "--target", "hbm-wide", "smoke"]);
        assert_eq!(positional(&args).as_deref(), Some("smoke"));
        assert_eq!(positional(&strings(&["--target", "hbm-wide"])), None);
    }
}
