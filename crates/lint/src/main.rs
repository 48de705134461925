//! CLI for the repo lint engine.
//!
//! ```text
//! cargo run -q -p threatraptor-lint                   # lint the tree
//! cargo run -q -p threatraptor-lint -- --include-mutants
//! cargo run -q -p threatraptor-lint -- --root /path/to/workspace
//! ```
//!
//! Exits 0 on a clean tree, 1 on any finding, 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

use threatraptor_lint::{lint_tree, workspace_root, Options};

fn main() -> ExitCode {
    let mut options = Options::default();
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--include-mutants" => options.include_mutants = true,
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "threatraptor-lint: repo concurrency- and telemetry-hygiene lints (L001–L007)\n\
                     \n\
                     USAGE: threatraptor-lint [--include-mutants] [--root <workspace>]\n\
                     \n\
                     --include-mutants  also lint #[cfg(check_mutants)] spans (seeded bugs)\n\
                     --root <path>      workspace root (default: this crate's ../..)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    let reports = match lint_tree(&root, options) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("error: failed to lint {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut findings = 0usize;
    for report in &reports {
        for diagnostic in &report.diagnostics {
            println!("{}", diagnostic.render(&report.source));
            findings += 1;
        }
    }
    if findings == 0 {
        println!("threatraptor-lint: ok (0 findings)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "threatraptor-lint: {findings} finding{} in {} file{}",
            if findings == 1 { "" } else { "s" },
            reports.len(),
            if reports.len() == 1 { "" } else { "s" },
        );
        ExitCode::FAILURE
    }
}
