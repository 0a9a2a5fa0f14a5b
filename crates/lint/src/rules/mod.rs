//! The rule engine: every rule is a function from a loaded
//! [`Workspace`] to diagnostics; the engine runs them all, filters the
//! file-anchored ones through per-site waivers, then audits the waivers
//! themselves (malformed or unused markers are diagnostics too).

pub mod concurrency;
pub mod doc_refs;
pub mod docs;
pub mod env_registry;
pub mod error_enum;
pub mod layering;
pub mod panic;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    /// Stable rule id used in diagnostics and waivers.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Whether `// lint:allow(id) — reason` can suppress it per site.
    pub waivable: bool,
}

/// The rule catalog, in severity-of-surprise order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "panic-discipline",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in non-test \
                  product code; errors flow through the typed error enums",
        waivable: true,
    },
    RuleInfo {
        id: "error-enum",
        summary: "every public *Error enum implements Display; \
                  scheme-facing errors (crate `guardnn`) also expose name()",
        waivable: true,
    },
    RuleInfo {
        id: "concurrency",
        summary: "no bare std::thread::spawn (use thread::scope), no \
                  static mut; every `unsafe` carries a // SAFETY: comment",
        waivable: true,
    },
    RuleInfo {
        id: "layering",
        summary: "Cargo [dependencies] must match the ARCHITECTURE.md \
                  layer order; shims only under [dev-dependencies]",
        waivable: false,
    },
    RuleInfo {
        id: "docs",
        summary: "every product crate root carries #![deny(missing_docs)] \
                  and opts into [workspace.lints]",
        waivable: false,
    },
    RuleInfo {
        id: "doc-refs",
        summary: "every *.md path cited in a comment exists in the workspace",
        waivable: true,
    },
    RuleInfo {
        id: "env-registry",
        summary: "every GUARDNN_* env var referenced in product code is \
                  documented in the ARCHITECTURE.md registry table",
        waivable: true,
    },
    RuleInfo {
        id: "waiver",
        summary: "waivers carry a reason and suppress something real",
        waivable: false,
    },
];

/// Runs every rule over the workspace, applies waivers, audits them, and
/// returns the surviving diagnostics sorted by crate/file/line.
pub fn run_all(ws: &mut Workspace) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    raw.extend(panic::check(ws));
    raw.extend(error_enum::check(ws));
    raw.extend(concurrency::check(ws));
    raw.extend(layering::check(ws));
    raw.extend(docs::check(ws));
    raw.extend(doc_refs::check(ws));
    raw.extend(env_registry::check(ws));

    let waivable = |rule: &str| RULES.iter().any(|r| r.id == rule && r.waivable);
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut waived = false;
        if waivable(d.rule) {
            if let Some(file) = ws
                .crates
                .iter_mut()
                .find(|c| c.package == d.krate)
                .and_then(|c| c.files.iter_mut().find(|f| f.rel_path == d.file))
            {
                waived = file.waivers.try_waive(d.rule, d.line);
            }
        }
        if !waived {
            kept.push(d);
        }
    }
    for c in &ws.crates {
        for f in &c.files {
            kept.extend(f.waivers.audit(&c.package, &f.rel_path));
        }
    }
    kept.sort_by(|a, b| {
        (&a.krate, &a.file, a.line, a.rule).cmp(&(&b.krate, &b.file, b.line, b.rule))
    });
    kept
}

/// True when `hay[pos..]` starts a `needle` occurrence that is not glued
/// to identifier characters on either side (so `my_panic!` or
/// `unwrap_or(` never match `panic!` / `.unwrap()`).
pub fn word_at(hay: &str, pos: usize, needle: &str) -> bool {
    if !hay[pos..].starts_with(needle) {
        return false;
    }
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    // Boundary checks only matter on the sides where the needle itself
    // is an identifier character (`.unwrap()` needs no left boundary).
    let before_ok = !needle.starts_with(is_ident)
        || pos == 0
        || !hay[..pos].chars().next_back().is_some_and(is_ident);
    let after = pos + needle.len();
    let after_ok =
        !needle.ends_with(is_ident) || !hay[after..].chars().next().is_some_and(is_ident);
    before_ok && after_ok
}

/// All positions where `needle` occurs in `hay` as a standalone token.
pub fn find_tokens(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = hay[from..].find(needle) {
        let pos = from + off;
        if word_at(hay, pos, needle) {
            out.push(pos);
        }
        from = pos + 1;
    }
    out
}
