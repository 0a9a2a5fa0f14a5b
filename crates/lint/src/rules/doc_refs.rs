//! `doc-refs`: every `*.md` path cited in a comment must name a file
//! that exists in the workspace.
//!
//! Module docs point readers at design notes ("see ARCHITECTURE.md, …").
//! When a document is renamed or never lands, the citation silently rots
//! into a dead end. The rule scans the comment channel only (a string
//! literal naming a file is data, not a citation) and resolves each
//! cited path against the workspace root and against the citing crate's
//! directory.

use crate::diag::Diagnostic;
use crate::workspace::{CrateKind, Workspace};

/// Runs the rule over every non-shim crate's comments.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in &ws.crates {
        if c.kind == CrateKind::Shim {
            continue;
        }
        for f in &c.files {
            for (idx, line) in f.lexed.lines.iter().enumerate() {
                for cited in md_citations(&line.comment) {
                    let in_crate = normalize(&format!("{}/{cited}", c.member_path));
                    if ws.md_files.contains(&normalize(cited)) || ws.md_files.contains(&in_crate) {
                        continue;
                    }
                    out.push(Diagnostic {
                        krate: c.package.clone(),
                        file: f.rel_path.clone(),
                        line: idx + 1,
                        rule: "doc-refs",
                        message: format!(
                            "comment cites `{cited}`, which does not exist in \
                             the workspace — point it at the real document"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The `*.md` paths cited in one line of comment text: maximal runs of
/// path characters ending in `.md` (sentence punctuation trimmed) whose
/// file name has a stem. Absolute paths and URLs are not workspace
/// citations and are skipped.
pub fn md_citations(comment: &str) -> Vec<&str> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    comment
        .split(|c: char| !is_path_char(c))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let name = token.rsplit('/').next().unwrap_or(token);
            token.ends_with(".md")
                && !token.starts_with('/')
                && name.len() > ".md".len()
                && !name.starts_with('.')
        })
        .collect()
}

/// Folds `.` and `..` components out of a `/`-separated relative path.
fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citations_are_path_tokens_ending_in_md() {
        assert_eq!(
            md_citations("see ARCHITECTURE.md, and crates/shims/README.md."),
            ["ARCHITECTURE.md", "crates/shims/README.md"]
        );
        // No stem, other extensions, absolute paths and URLs do not count.
        assert!(md_citations("any `*.md` file, notes.mdx, /etc/x.md").is_empty());
        assert!(md_citations("https://example.invalid/README.md").is_empty());
    }

    #[test]
    fn normalize_folds_dot_components() {
        assert_eq!(normalize("crates/core/../../README.md"), "README.md");
        assert_eq!(normalize("./crates//lint/./x.md"), "crates/lint/x.md");
    }
}
