//! The four rule families.
//!
//! Each rule is a pass over the token streams of the in-scope files —
//! the flow families additionally consult the workspace symbol table and
//! call graph ([`crate::symbols`], [`crate::callgraph`],
//! [`crate::flow`]). Tokens inside `#[cfg(test)]`/`#[test]` regions are
//! exempt everywhere (tests are the trusted observer — they hold every
//! key on purpose).

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::symbols::SymbolTable;
use crate::workspace::{SourceFile, Workspace};

/// Runs every rule family, returning raw (unsuppressed) diagnostics.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let syms = SymbolTable::build(ws);
    let graph = CallGraph::build(ws, &syms);
    privacy_taint(ws, cfg, &mut out);
    crate::flow::taint_flow(ws, cfg, &syms, &graph, &mut out);
    crate::flow::lock_order(ws, cfg, &syms, &graph, &mut out);
    obs_parity(ws, cfg, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Tokens of a file with test regions dropped.
fn live_toks(file: &SourceFile) -> impl Iterator<Item = (usize, &Tok)> {
    file.lexed.toks.iter().enumerate().filter(|(_, t)| !t.in_test)
}

fn tok_is(t: Option<&Tok>, text: &str) -> bool {
    t.is_some_and(|t| t.text == text)
}

// ── privacy-taint ─────────────────────────────────────────────────────

/// Key-blind modules must not name decryption or plaintext-bearing
/// items; secret types must not derive/impl `Debug`/`Display`/
/// `Serialize`; secret material must not flow into `obs` events.
fn privacy_taint(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        let toks = &file.lexed.toks;
        let in_scope = cfg.taint_scope.contains(&file.rel);
        for (i, t) in live_toks(file) {
            if t.kind != TokKind::Ident {
                continue;
            }
            if in_scope && cfg.secret_idents.iter().any(|s| s == &t.text) {
                out.push(Diagnostic::new(
                    "privacy-taint",
                    &file.rel,
                    t.line,
                    format!(
                        "key-blind module references secret item `{}`; only \
                         controller/accountant/SFE modules may name plaintext or key material",
                        t.text
                    ),
                ));
            }
            // `.open(`-style decryption entry points.
            if in_scope
                && cfg.secret_methods.iter().any(|s| s == &t.text)
                && i > 0
                && tok_is(toks.get(i - 1), ".")
                && tok_is(toks.get(i + 1), "(")
            {
                out.push(Diagnostic::new(
                    "privacy-taint",
                    &file.rel,
                    t.line,
                    format!(
                        "key-blind module calls decrypting method `.{}(…)`; sealed counters \
                         may only be opened behind the controller's SFE gate",
                        t.text
                    ),
                ));
            }
            // Secret material flowing into an observability event: a
            // secret identifier on the same line as an `Event::…`
            // construction.
            if cfg.secret_idents.iter().any(|s| s == &t.text) {
                let event_on_line =
                    toks.iter().any(|e| e.text == "Event" && e.line == t.line && !e.in_test);
                if event_on_line && t.text != "Event" {
                    out.push(Diagnostic::new(
                        "privacy-taint",
                        &file.rel,
                        t.line,
                        format!("secret item `{}` flows into an obs `Event`", t.text),
                    ));
                }
            }
        }
        format_impl_screen(file, &cfg.secret_types, "privacy-taint", "secret type", out);
    }
}

/// Flags `#[derive(Debug, …)]` on the named types and
/// `impl Debug/Display for <Type>` anywhere in the workspace (tests
/// included: a test-only leak impl is still a leak vector). `Serialize`
/// counts the same — JSON prints what a withheld `Debug` protects. Shared by
/// privacy-taint (configured secret types) and taint-flow (types the
/// engine derives as secret-bearing).
pub(crate) fn format_impl_screen(
    file: &SourceFile,
    types: &[String],
    rule: &'static str,
    desc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        // `# [ derive ( … ) ]` followed (past further attributes) by
        // `struct|enum <Name>`.
        if tok_is(toks.get(i), "#")
            && tok_is(toks.get(i + 1), "[")
            && tok_is(toks.get(i + 2), "derive")
        {
            let mut j = i + 2;
            let mut depth = 1; // inside the `[`
            let mut has_leaky = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "Debug" | "Display" | "Serialize" => has_leaky = true,
                    _ => {}
                }
                j += 1;
            }
            if has_leaky {
                // Skip any further attributes to the item keyword.
                let mut k = j;
                while tok_is(toks.get(k), "#") && tok_is(toks.get(k + 1), "[") {
                    let mut depth = 1;
                    k += 2;
                    while k < toks.len() && depth > 0 {
                        match toks[k].text.as_str() {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                while matches!(
                    toks.get(k).map(|t| t.text.as_str()),
                    Some("pub" | "(" | ")" | "crate" | "super" | "in")
                ) {
                    k += 1;
                }
                if matches!(toks.get(k).map(|t| t.text.as_str()), Some("struct" | "enum" | "union"))
                {
                    if let Some(name) = toks.get(k + 1) {
                        if types.iter().any(|s| s == &name.text) {
                            out.push(Diagnostic::new(
                                rule,
                                &file.rel,
                                name.line,
                                format!(
                                    "{desc} `{}` derives Debug/Display/Serialize; key \
                                     material must not be formattable",
                                    name.text
                                ),
                            ));
                        }
                    }
                }
            }
            i = j;
            continue;
        }
        // `impl … Debug|Display|Serialize for <path::To::Name>`
        if toks[i].text == "impl" {
            let mut j = i + 1;
            let mut saw_leaky = false;
            while j < toks.len() && !tok_is(toks.get(j), "{") && !tok_is(toks.get(j), ";") {
                let text = toks[j].text.as_str();
                if matches!(text, "Debug" | "Display" | "Serialize") {
                    saw_leaky = true;
                }
                if saw_leaky && text == "for" {
                    // Last ident of the following path is the type name.
                    let mut name: Option<&Tok> = None;
                    let mut k = j + 1;
                    while k < toks.len() && !matches!(toks[k].text.as_str(), "{" | "where" | "<") {
                        if toks[k].kind == TokKind::Ident {
                            name = Some(&toks[k]);
                        }
                        k += 1;
                    }
                    if let Some(name) = name {
                        if types.iter().any(|s| s == &name.text) {
                            out.push(Diagnostic::new(
                                rule,
                                &file.rel,
                                name.line,
                                format!(
                                    "{desc} `{}` implements Debug/Display/Serialize; key \
                                     material must not be formattable",
                                    name.text
                                ),
                            ));
                        }
                    }
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
}

// ── obs-parity ────────────────────────────────────────────────────────

/// PR 3's count-equality invariant, statically: every tally increment
/// has an adjacent paired `Event` emission, and every `Event` variant is
/// emitted somewhere in production code.
fn obs_parity(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    // 1. Variant inventory from the enum definition.
    let variants = event_variants(ws, &cfg.event_enum);
    // 2. Emission scan.
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for file in &ws.files {
        if !cfg.emit_scope.contains(&file.rel) || file.rel == cfg.event_enum {
            continue;
        }
        let toks = &file.lexed.toks;
        for (i, t) in live_toks(file) {
            if t.text == "Event" && tok_is(toks.get(i + 1), ":") && tok_is(toks.get(i + 2), ":") {
                if let Some(v) = toks.get(i + 3) {
                    emitted.insert(v.text.clone());
                }
            }
        }
    }
    for (name, line) in &variants {
        if !emitted.contains(name) {
            out.push(Diagnostic::new(
                "obs-parity",
                &cfg.event_enum,
                *line,
                format!(
                    "`Event::{name}` is declared but never emitted from production code; \
                     dead event variants break the count-equality invariant"
                ),
            ));
        }
    }
    // 3. Tally/emission adjacency.
    for file in &ws.files {
        if !cfg.pair_scope.contains(&file.rel) {
            continue;
        }
        let toks = &file.lexed.toks;
        for (i, t) in live_toks(file) {
            let Some(event) = cfg.pairs.get(&t.text) else { continue };
            // `<field> += …`
            if !(tok_is(toks.get(i + 1), "+") && tok_is(toks.get(i + 2), "=")) {
                continue;
            }
            let near = toks.iter().enumerate().any(|(j, e)| {
                e.text == "Event"
                    && e.line >= t.line.saturating_sub(1)
                    && e.line <= t.line + cfg.pair_window
                    && tok_is(toks.get(j + 3), event)
            });
            if !near {
                out.push(Diagnostic::new(
                    "obs-parity",
                    &file.rel,
                    t.line,
                    format!(
                        "tally `{}` incremented without an adjacent `Event::{event}` emission \
                         (within {} lines); log counts must equal report tallies",
                        t.text, cfg.pair_window
                    ),
                ));
            }
        }
    }
}

/// `(variant name, line)` pairs of `enum Event` in the obs crate.
fn event_variants(ws: &Workspace, enum_path: &str) -> Vec<(String, u32)> {
    let Some(file) = ws.files.iter().find(|f| f.rel == enum_path) else {
        return Vec::new();
    };
    let toks = &file.lexed.toks;
    // Find `enum Event {`.
    let mut start = None;
    for i in 0..toks.len() {
        if toks[i].text == "enum"
            && tok_is(toks.get(i + 1), "Event")
            && tok_is(toks.get(i + 2), "{")
        {
            start = Some(i + 3);
            break;
        }
    }
    let Some(start) = start else { return Vec::new() };
    let mut out = Vec::new();
    let mut depth = 1;
    let mut at_variant = true; // start of the block expects a variant
    let mut i = start;
    while i < toks.len() && depth > 0 {
        match toks[i].text.as_str() {
            "{" | "(" => depth += 1,
            "}" | ")" => depth -= 1,
            "," if depth == 1 => at_variant = true,
            _ => {
                if depth == 1 && at_variant && toks[i].kind == TokKind::Ident {
                    out.push((toks[i].text.clone(), toks[i].line));
                    at_variant = false;
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn ws_of(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(rel, src)| SourceFile {
                    rel: rel.to_string(),
                    lexed: crate::lexer::lex(src),
                })
                .collect(),
        }
    }

    fn cfg_base() -> Config {
        Config::parse(
            r#"
[privacy-taint]
deny = ["crates/core/src/broker.rs"]
secret_idents = ["decrypt_i64", "PrivateKey", "PlainCounter"]
secret_methods = ["open"]
secret_types = ["PrivateKey"]

[obs-parity]
event_enum = "crates/obs/src/event.rs"
emit_scan = ["crates/core/src"]
pair_scan = ["crates/core/src"]
window = 3

[obs-parity.pairs]
crashes = "ResourceCrashed"
"#,
        )
        .expect("test config parses")
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&str> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn taint_fires_on_secret_idents_and_methods_in_scope_only() {
        let ws = ws_of(vec![
            ("crates/core/src/broker.rs", "fn f(c: &C) { let x = c.decrypt_i64(y); agg.open(k); }"),
            ("crates/core/src/controller.rs", "fn g(c: &C) { c.decrypt_i64(y); }"),
        ]);
        let d = run_all(&ws, &cfg_base());
        let taints: Vec<_> = d.iter().filter(|d| d.rule == "privacy-taint").collect();
        assert_eq!(taints.len(), 2, "{taints:?}");
        assert!(taints.iter().all(|d| d.file == "crates/core/src/broker.rs"));
    }

    #[test]
    fn taint_fires_on_secret_type_debug_derive_and_impl() {
        let ws = ws_of(vec![(
            "crates/paillier/src/keys.rs",
            "#[derive(Clone, Debug)]\npub struct PrivateKey { x: u64 }\n\
             impl std::fmt::Display for PrivateKey { }",
        )]);
        let d = run_all(&ws, &cfg_base());
        assert_eq!(rules_of(&d), vec!["privacy-taint", "privacy-taint"]);
    }

    #[test]
    fn taint_fires_on_secret_flowing_into_event() {
        let ws = ws_of(vec![(
            "crates/core/src/controller.rs",
            "fn g() { emit(&rec, || Event::KeyOp { op: PlainCounter });\n}",
        )]);
        let d = run_all(&ws, &cfg_base());
        assert!(d.iter().any(|d| d.rule == "privacy-taint" && d.message.contains("flows into")));
    }

    #[test]
    fn rules_ignore_test_regions() {
        let ws = ws_of(vec![(
            "crates/core/src/broker.rs",
            "#[cfg(test)]\nmod tests { fn t() { c.decrypt_i64(y); agg.open(k); } }",
        )]);
        assert!(run_all(&ws, &cfg_base()).is_empty());
    }

    #[test]
    fn obs_parity_flags_unemitted_variants_and_unpaired_tallies() {
        let ws = ws_of(vec![
            (
                "crates/obs/src/event.rs",
                "pub enum Event { CounterSent { from: u64 }, ResourceCrashed { at: u64 } }",
            ),
            (
                "crates/core/src/threaded.rs",
                "fn f() { emit(&rec, || Event::CounterSent { from: 0 });\n\
                 stats.crashes += 1;\nlet filler = 0;\nlet filler = 0;\nlet filler = 0;\n}",
            ),
        ]);
        let d = run_all(&ws, &cfg_base());
        let msgs: Vec<_> = d.iter().filter(|d| d.rule == "obs-parity").collect();
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.message.contains("Event::ResourceCrashed` is declared")));
        assert!(msgs.iter().any(|m| m.message.contains("tally `crashes`")));
    }

    #[test]
    fn obs_parity_accepts_paired_increment() {
        let ws = ws_of(vec![
            ("crates/obs/src/event.rs", "pub enum Event { ResourceCrashed { at: u64 } }"),
            (
                "crates/core/src/threaded.rs",
                "fn f() { stats.crashes += 1; emit(&rec, || Event::ResourceCrashed { at: 0 }); }",
            ),
        ]);
        let d = run_all(&ws, &cfg_base());
        assert!(d.iter().filter(|d| d.rule == "obs-parity").count() == 0, "{d:?}");
    }
}
