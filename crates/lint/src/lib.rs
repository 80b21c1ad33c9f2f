//! `gridmine-lint` — workspace static analysis for the paper's
//! structural invariants that need a symbol table, a call graph or an
//! event screen.
//!
//! The paper's malicious-participant model survives on invariants the
//! type system cannot see: brokers operate only on ciphertexts they can
//! neither read nor forge (§4.2), decryption happens only behind the
//! controller's SFE gate (§4.3), shared locks never deadlock, and every
//! tally the drivers report has a matching observability event.
//! `gridlint` walks every `.rs` file in the workspace with a hand-rolled
//! lexer (no `syn`; offline-shims policy) and enforces those invariants
//! mechanically:
//!
//! * **privacy-taint** — key-blind modules must not name decryption or
//!   plaintext-bearing items; secret types must not be formattable;
//!   secrets must not flow into `obs` events.
//! * **taint-flow** — the interprocedural form of the same contract: a
//!   workspace symbol table and call graph propagate taint from the
//!   decryption seeds through calls, returns and struct fields, and any
//!   path into a key-blind module, an `Event` construction, a
//!   `Debug`/`Display` impl, or a wire encoder is reported with its full
//!   call chain.
//! * **lock-order** — every `Mutex`/`RwLock` acquisition site feeds a
//!   may-hold-while-acquiring graph; cycles (potential deadlocks) are
//!   diagnostics and the acyclic order is pinned as a fixture.
//! * **obs-parity** — every tally increment pairs with an adjacent
//!   `Event` emission and every `Event` variant is emitted somewhere.
//!
//! Panic-freedom (§5: malicious input yields a verdict, not a panic),
//! replay determinism and crash-safe persistence need none of that; they
//! are clippy lint levels plus the root `clippy.toml` (DESIGN.md
//! § Static analysis).
//!
//! Scoping lives in the checked-in `gridlint.toml`; individual sites are
//! waived with `// gridlint: allow(<rule>, …) -- <justification>`, and a
//! justification-free, stale, or test-region waiver is itself a
//! diagnostic.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod workspace;

use std::path::Path;

pub use config::Config;
pub use diag::Diagnostic;
use workspace::Workspace;

/// Outcome of one lint run.
pub struct LintResult {
    /// Every finding, suppressed ones included (JSON consumers see both).
    pub diagnostics: Vec<Diagnostic>,
    /// Files walked.
    pub files_scanned: usize,
}

impl LintResult {
    /// Findings that gate CI: not covered by a justified suppression.
    pub fn live(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// The process exit code this result maps to.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.live().count() > 0)
    }
}

/// Lints the workspace rooted at `root` under `cfg`.
pub fn lint_root(root: &Path, cfg: &Config) -> Result<LintResult, String> {
    let ws = load(root, cfg)?;
    let mut diags = rules::run_all(&ws, cfg);
    apply_suppressions(&ws, &mut diags);
    Ok(LintResult { files_scanned: ws.files.len(), diagnostics: diags })
}

/// Renders the workspace's may-hold-while-acquiring lock graph (the
/// `--lock-graph` CLI mode; `crates/lint/tests/lock_order.expected` pins
/// the output for the real tree).
pub fn lock_graph(root: &Path, cfg: &Config) -> Result<String, String> {
    let ws = load(root, cfg)?;
    let syms = symbols::SymbolTable::build(&ws);
    let graph = callgraph::CallGraph::build(&ws, &syms);
    let mut sink = Vec::new();
    Ok(flow::lock_order(&ws, cfg, &syms, &graph, &mut sink).render())
}

/// Walks the workspace and checks the configuration against it: a
/// configured path that matches no walked file is a config error.
fn load(root: &Path, cfg: &Config) -> Result<Workspace, String> {
    let ws = Workspace::load(root, &cfg.exclude)?;
    match cfg.paths().find(|p| !ws.paths().any(|f| f.starts_with(p.as_str()))) {
        Some(dead) => Err(format!("configured path `{dead}` matches no file in the walked tree")),
        None => Ok(ws),
    }
}

/// Marks diagnostics covered by justified inline suppressions and emits
/// `suppression` diagnostics for malformed waivers.
fn apply_suppressions(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let mut meta = Vec::new();
    for file in &ws.files {
        for s in &file.lexed.suppressions {
            // Tests are exempt from every rule, so a waiver inside a
            // test region has nothing to suppress — and must never match
            // a production line adjacent to the region's boundary.
            if s.in_test {
                meta.push(Diagnostic::new(
                    "suppression",
                    &file.rel,
                    s.line,
                    format!(
                        "`gridlint: allow({})` inside a #[cfg(test)] region is inert; \
                         tests are exempt from every rule — delete the waiver",
                        s.rules.join(", ")
                    ),
                ));
                continue;
            }
            // The line a suppression covers: its own when trailing code,
            // the next one when it stands alone.
            let covered = if s.trailing { s.line } else { s.line + 1 };
            for rule in &s.rules {
                if !diag::RULES.contains(&rule.as_str()) {
                    meta.push(Diagnostic::new(
                        "suppression",
                        &file.rel,
                        s.line,
                        format!("`gridlint: allow({rule})` names an unknown rule"),
                    ));
                    continue;
                }
                if s.justification.is_empty() {
                    meta.push(Diagnostic::new(
                        "suppression",
                        &file.rel,
                        s.line,
                        format!(
                            "`gridlint: allow({rule})` lacks a justification; write \
                             `-- <why this site is safe>`"
                        ),
                    ));
                    continue;
                }
                let mut hit = false;
                for d in diags.iter_mut() {
                    if d.suppressed.is_none()
                        && d.rule == rule
                        && d.file == file.rel
                        && d.line == covered
                    {
                        d.suppressed = Some(s.justification.clone());
                        hit = true;
                    }
                }
                if !hit {
                    meta.push(Diagnostic::new(
                        "suppression",
                        &file.rel,
                        s.line,
                        format!(
                            "`gridlint: allow({rule})` suppresses nothing on line {covered}; \
                             stale waivers hide future violations"
                        ),
                    ));
                }
            }
        }
    }
    diags.extend(meta);
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_reflects_live_findings() {
        let clean = LintResult { diagnostics: vec![], files_scanned: 1 };
        assert_eq!(clean.exit_code(), 0);
        let mut suppressed = Diagnostic::new("lock-order", "a.rs", 1, "m");
        suppressed.suppressed = Some("ok".into());
        let r = LintResult { diagnostics: vec![suppressed], files_scanned: 1 };
        assert_eq!(r.exit_code(), 0);
        let r = LintResult {
            diagnostics: vec![Diagnostic::new("lock-order", "a.rs", 1, "m")],
            files_scanned: 1,
        };
        assert_eq!(r.exit_code(), 1);
    }
}
