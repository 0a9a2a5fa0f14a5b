//! `guardnn_lint`: zero-dependency workspace static analysis enforcing
//! the GuardNN security invariants.
//!
//! The security claims of this reproduction are only as good as the
//! invariants the code actually keeps: every failure surfaces a *typed*
//! `GuardNnError` (the chaos matrix keys on it), all concurrency goes
//! through `std::thread::scope`, the crate graph respects the
//! ARCHITECTURE.md layer order, every `GUARDNN_*` knob is documented,
//! and every `*.md` a comment cites exists. None of that is visible to `rustc`, so this crate checks
//! it the same way `crates/targets` parses YAML: by hand, offline, with
//! typed errors.
//!
//! The pipeline is [`workspace::Workspace::load`] (lex every source file
//! into code/comment/string channels, parse every `Cargo.toml`) →
//! [`rules::run_all`] (eight rules, per-site waivers, waiver audit) →
//! [`diag::Diagnostic`] output as text or `--json`.
//!
//! Waiver syntax, the rule catalog, and the layering/registry formats
//! are documented in the repository's `ARCHITECTURE.md` ("Static
//! analysis" section).
//!
//! # Examples
//!
//! ```
//! use guardnn_lint::lexer::LexedFile;
//! use guardnn_lint::rules::find_tokens;
//!
//! // The lexer is the heart of the tool: rules only ever see compiler-
//! // visible tokens, so neither the comment nor the string fires here.
//! let lexed = LexedFile::lex("call(); // .unwrap() in prose\nlet s = \"panic!\";");
//! assert!(find_tokens(&lexed.lines[0].code, ".unwrap()").is_empty());
//! assert!(find_tokens(&lexed.lines[1].code, "panic!").is_empty());
//! ```

#![deny(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod waiver;
pub mod workspace;

use std::path::Path;

use diag::Diagnostic;
use workspace::{LintError, Workspace};

/// Loads the workspace rooted at `root` and runs every rule.
pub fn lint_root(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    let mut ws = Workspace::load(root)?;
    Ok(rules::run_all(&mut ws))
}
