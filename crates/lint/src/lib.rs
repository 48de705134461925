//! # threatraptor-lint — structured repo lints
//!
//! The concurrency-hygiene lints that used to live in `tools/lint.sh`'s
//! awk one-liner, rebuilt as a real engine: a lossy Rust lexer
//! ([`lex`]) classifies code vs comments vs string contents, scopes
//! ([`scope`]) resolve `#[cfg(test)]` / `#[cfg(check_mutants)]` item
//! spans and allow directives, and seven rules ([`rules`]) emit
//! stable-coded, span-carrying [`Diagnostic`]s in the same shape as the
//! TBQL query lints (`threatraptor-tbql`'s `lint` module).
//!
//! Run as `cargo run -p threatraptor-lint` (CI does); `tools/lint.sh`
//! is now a thin wrapper. The engine lints every `.rs` file under
//! `crates/*/src/` plus the top-level `examples/` — the same scope the
//! shell script covered — and exits nonzero on any finding.
//!
//! Two fixes over the awk version worth naming:
//!
//! * test exemptions are scoped to the `#[cfg(test)]` item's *brace
//!   span*, not "everything after the first `#[cfg(test)]` line" — a
//!   file with production code below its test module is fully linted;
//! * chains split across lines (`.lock()\n.unwrap()`) are caught.
//!
//! Suppression is per-site and audited:
//! `// threatraptor-lint: allow L00X — reason`.

pub mod lex;
pub mod rules;
pub mod scope;

use std::fs;
use std::path::{Path, PathBuf};

use rules::{FileCtx, LockEdge};
use scope::{LineIndex, Scopes};

/// Diagnostic severity. Every current rule reports errors (CI gates on
/// zero findings); the variant exists so future advisory rules render
/// consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured lint finding with a stable code and source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`L001`–`L007`).
    pub code: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based.
    pub line: usize,
    /// 1-based.
    pub col: usize,
    pub message: String,
}

impl Diagnostic {
    /// Renders with a source excerpt and caret line, mirroring the TBQL
    /// lint's format:
    ///
    /// ```text
    /// error[L001]: lock guard acquired with `unwrap` — …
    ///   --> crates/service/src/pool.rs:131:27
    ///    |
    ///    |         let tx = self.tx.lock().unwrap();
    ///    |                                 ^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}:{}:{}\n",
            self.severity.label(),
            self.code,
            self.message,
            self.path,
            self.line,
            self.col
        );
        if let Some(line_text) = source.lines().nth(self.line - 1) {
            out.push_str("   |\n");
            out.push_str(&format!("   | {}\n", line_text));
            out.push_str(&format!(
                "   | {}^\n",
                " ".repeat(self.col.saturating_sub(1))
            ));
        }
        out
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}:{}: {}",
            self.severity.label(),
            self.code,
            self.path,
            self.line,
            self.col,
            self.message
        )
    }
}

/// Engine options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Lint inside `#[cfg(check_mutants)]` spans too (the seeded-bug CI
    /// job uses this to assert L002 catches the lock-order mutant).
    pub include_mutants: bool,
}

/// Lints one file's source text. `rel_path` is the workspace-relative
/// path used in diagnostics and for the L005 facade-implementation
/// exemptions.
pub fn lint_source(rel_path: &str, source: &str, options: Options) -> Vec<Diagnostic> {
    let lexed = lex::lex(source);
    let index = LineIndex::new(source);
    let scopes = Scopes::resolve(&lexed, &index);
    let ctx = FileCtx {
        path: rel_path,
        code: &lexed.code,
        index: &index,
        scopes: &scopes,
        include_mutants: options.include_mutants,
    };
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut diagnostics = rules::run_rules(&ctx, &mut edges);
    diagnostics.extend(rules::l002_cycles(&ctx, &edges));
    diagnostics.sort_by_key(|d| (d.line, d.col, d.code));
    diagnostics
}

/// One linted file: its diagnostics plus the source needed to render
/// them.
#[derive(Debug)]
pub struct FileReport {
    pub path: String,
    pub source: String,
    pub diagnostics: Vec<Diagnostic>,
}

/// Lints the whole workspace at `root`: every `.rs` under
/// `crates/*/src/` and under `examples/`. Returns only files with
/// findings.
pub fn lint_tree(root: &Path, options: Options) -> std::io::Result<Vec<FileReport>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            collect_src_dirs(&path, &mut files)?;
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, &mut files)?;
    }
    files.sort();

    let mut reports = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let diagnostics = lint_source(&rel, &source, options);
        if !diagnostics.is_empty() {
            reports.push(FileReport {
                path: rel,
                source,
                diagnostics,
            });
        }
    }
    Ok(reports)
}

/// Recurses into `<crate>/src/` (and nested crates like
/// `crates/compat/*`), collecting `.rs` files.
fn collect_src_dirs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let src = dir.join("src");
    if src.is_dir() {
        collect_rs(&src, out)?;
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir()
            && path
                .file_name()
                .is_some_and(|n| n != "src" && n != "target")
        {
            collect_src_dirs(&path, out)?;
        }
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root this crate was built in: `crates/lint/../..`.
/// The binary uses it so `cargo run -p threatraptor-lint` works from
/// any cwd inside the repo.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}
