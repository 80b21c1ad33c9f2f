//! `gridlint` — the CLI.
//!
//! ```text
//! gridlint [--root <dir>] [--config <file>] [--format table|json|sarif]
//!          [--lock-graph] [--quiet]
//! ```
//!
//! Exit codes: 0 clean (suppressed findings allowed), 1 live findings,
//! 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

use gridmine_lint::{config::Config, diag, lint_root, lock_graph};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Table,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    lock_graph: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        format: Format::Table,
        lock_graph: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("table") => args.format = Format::Table,
                Some("sarif") => args.format = Format::Sarif,
                other => return Err(format!("--format expects table|json|sarif, got {other:?}")),
            },
            "--lock-graph" => args.lock_graph = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "gridlint — static analysis for gridmine's privacy-taint, taint-flow,\n\
                     lock-order and obs-parity invariants (clippy holds panic-freedom,\n\
                     determinism and crash-safety)\n\n\
                     usage: gridlint [--root <dir>] [--config <file>]\n\
                     \x20               [--format table|json|sarif] [--lock-graph] [-q]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let cfg_path = args.config.clone().unwrap_or_else(|| args.root.join("gridlint.toml"));
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read config {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&cfg_text).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    if args.lock_graph {
        print!("{}", lock_graph(&args.root, &cfg)?);
        return Ok(0);
    }
    let result = lint_root(&args.root, &cfg)?;
    match args.format {
        Format::Json => print!("{}", diag::render_json(&result.diagnostics, result.files_scanned)),
        Format::Sarif => print!("{}", diag::render_sarif(&result.diagnostics)),
        Format::Table if !args.quiet => {
            print!("{}", diag::render_report(&result.diagnostics, result.files_scanned));
        }
        Format::Table => {}
    }
    Ok(result.exit_code())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("gridlint: {e}");
            ExitCode::from(2)
        }
    }
}
