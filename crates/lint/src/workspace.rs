//! Workspace discovery: root manifest → members → lexed source files.
//!
//! Loading is the only part of the tool that touches the filesystem;
//! everything downstream (rules, waivers, output) operates on the
//! in-memory [`Workspace`] so the fixture tests can drive the same code
//! paths on miniature workspaces.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::LexedFile;
use crate::manifest::Manifest;
use crate::waiver::FileWaivers;

/// Errors surfaced while loading a workspace from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A file could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The OS error rendered as text.
        cause: String,
    },
    /// The given root has no `Cargo.toml` with a `[workspace]` table.
    NotAWorkspace {
        /// The root that was tried.
        root: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, cause } => write!(f, "cannot read {path}: {cause}"),
            LintError::NotAWorkspace { root } => {
                write!(f, "{root} has no Cargo.toml with a [workspace] table")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// How a crate participates in the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// A product crate: every rule applies.
    Product,
    /// The integration-test / chaos-harness crate (`guardnn-tests`):
    /// exempt from `panic-discipline` (asserting is its job), subject to
    /// everything else.
    TestHarness,
    /// An offline dependency shim (`crates/shims/*`): modelling someone
    /// else's API, exempt from all rules.
    Shim,
}

/// Where a source file sits within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` library code.
    Lib,
    /// `src/bin/**` binary code.
    Bin,
    /// A registered `[[example]]`.
    Example,
    /// `tests/**` integration tests.
    Test,
    /// `benches/**` benchmark code.
    Bench,
}

/// One lexed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the crate directory.
    pub rel_path: String,
    /// Role of the file within the crate.
    pub kind: FileKind,
    /// The channel-split lines.
    pub lexed: LexedFile,
    /// Waiver markers found in the file.
    pub waivers: FileWaivers,
}

/// One workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package] name`.
    pub package: String,
    /// Member path relative to the workspace root (e.g. `crates/dram`).
    pub member_path: String,
    /// Parsed `Cargo.toml`.
    pub manifest: Manifest,
    /// Analysis role.
    pub kind: CrateKind,
    /// Lexed sources (sorted by path for deterministic output).
    pub files: Vec<SourceFile>,
}

/// The loaded workspace: everything the rules need, in memory.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Parsed root `Cargo.toml`.
    pub root_manifest: Manifest,
    /// Members in `members` order.
    pub crates: Vec<CrateInfo>,
    /// `ARCHITECTURE.md` content, when present (the layering and
    /// env-registry rules parse it).
    pub architecture: Option<String>,
    /// Root-relative paths of every `*.md` file in the workspace (build
    /// output and dot-directories skipped) — what `doc-refs` resolves
    /// comment citations against.
    pub md_files: BTreeSet<String>,
}

impl Workspace {
    /// Loads the workspace rooted at `root`.
    pub fn load(root: &Path) -> Result<Self, LintError> {
        let manifest_path = root.join("Cargo.toml");
        let text = read(&manifest_path)?;
        let root_manifest = Manifest::parse(&text);
        if !root_manifest.sections.contains_key("workspace") {
            return Err(LintError::NotAWorkspace {
                root: root.display().to_string(),
            });
        }
        let mut crates = Vec::new();
        for member in root_manifest.workspace_members() {
            let dir = root.join(&member);
            let m_text = read(&dir.join("Cargo.toml"))?;
            let manifest = Manifest::parse(&m_text);
            let package = manifest
                .package_name()
                .unwrap_or(member.as_str())
                .to_string();
            let kind = if member.contains("shims") {
                CrateKind::Shim
            } else if package == "guardnn-tests" {
                CrateKind::TestHarness
            } else {
                CrateKind::Product
            };
            let files = if kind == CrateKind::Shim {
                Vec::new() // shims are exempt: skip lexing entirely
            } else {
                load_sources(&dir, &manifest)?
            };
            crates.push(CrateInfo {
                package,
                member_path: member,
                manifest,
                kind,
                files,
            });
        }
        let architecture = fs::read_to_string(root.join("ARCHITECTURE.md")).ok();
        let mut md_files = BTreeSet::new();
        walk_md(root, root, &mut md_files)?;
        Ok(Workspace {
            root: root.to_path_buf(),
            root_manifest,
            crates,
            architecture,
            md_files,
        })
    }

    /// Walks upward from `start` to the nearest directory whose
    /// `Cargo.toml` has a `[workspace]` table.
    pub fn discover_root(start: &Path) -> Option<PathBuf> {
        let mut dir = Some(start.to_path_buf());
        while let Some(d) = dir {
            let manifest = d.join("Cargo.toml");
            if let Ok(text) = fs::read_to_string(&manifest) {
                if Manifest::parse(&text).sections.contains_key("workspace") {
                    return Some(d);
                }
            }
            dir = d.parent().map(Path::to_path_buf);
        }
        None
    }
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError::Io {
        path: path.display().to_string(),
        cause: e.to_string(),
    })
}

/// Collects and lexes every source file of one crate.
fn load_sources(dir: &Path, manifest: &Manifest) -> Result<Vec<SourceFile>, LintError> {
    let mut out: Vec<(String, FileKind, PathBuf)> = Vec::new();
    for (sub, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("benches", FileKind::Bench),
        ("examples", FileKind::Example),
    ] {
        let base = dir.join(sub);
        if base.is_dir() {
            let mut files = Vec::new();
            walk_rs(&base, &mut files)?;
            for f in files {
                let rel = f
                    .strip_prefix(dir)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .replace('\\', "/");
                let kind = if kind == FileKind::Lib && rel.starts_with("src/bin/") {
                    FileKind::Bin
                } else {
                    kind
                };
                out.push((rel, kind, f));
            }
        }
    }
    // Registered [[example]] targets may point outside the crate dir
    // (this workspace keeps them in the repo-root `examples/`).
    for (section, kv) in &manifest.tables {
        if section != "example" {
            continue;
        }
        if let Some(crate::manifest::Value::Str(path)) =
            kv.iter().find(|(k, _)| k == "path").map(|(_, v)| v)
        {
            let f = dir.join(path);
            if f.is_file() {
                out.push((path.clone(), FileKind::Example, f));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    let mut files = Vec::new();
    for (rel_path, kind, path) in out {
        let text = read(&path)?;
        let lexed = LexedFile::lex(&text);
        let waivers = FileWaivers::collect(&lexed);
        files.push(SourceFile {
            rel_path,
            kind,
            lexed,
            waivers,
        });
    }
    Ok(files)
}

/// Collects root-relative `*.md` paths under `dir`, skipping `target`
/// build output and dot-directories (`.git`, caches).
fn walk_md(root: &Path, dir: &Path, out: &mut BTreeSet<String>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.display().to_string(),
        cause: e.to_string(),
    })?;
    for entry in entries {
        let path = entry
            .map_err(|e| LintError::Io {
                path: dir.display().to_string(),
                cause: e.to_string(),
            })?
            .path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let name = name.as_deref().unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk_md(root, &path, out)?;
            }
        } else if name.ends_with(".md") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.insert(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.display().to_string(),
        cause: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.display().to_string(),
            cause: e.to_string(),
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
