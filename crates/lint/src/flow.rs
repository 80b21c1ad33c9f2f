//! The dataflow passes over the call graph: interprocedural secret
//! taint and lock-order (may-hold-while-acquiring) analysis.
//!
//! ## Taint lattice
//!
//! A function is *tainted* when its return value may carry secret
//! material. Three sources, checked in order:
//!
//! 1. **Seed**: defined under `[taint-flow] seed_scope` with a name in
//!    `seed_names`/`seed_prefixes` (the decryption entry points), or any
//!    function in seed scope whose body *calls* such a name (so the
//!    seeds hold even when the callee definition is out of view).
//! 2. **Type**: the return type names a secret value type — the
//!    configured `value_types` plus every struct/enum that transitively
//!    contains one (computed to fixpoint over the symbol table).
//! 3. **Call**: the function calls a tainted function. This propagation
//!    stops at *clearing* functions (every return-type ident is in
//!    `clear_returns` — a bool/Verdict carries the paper's one-bit SFE
//!    output, not the plaintext) and at the reviewed `declassify`
//!    modules (the controller/accountant/SFE gate, which consume
//!    plaintext by design) — unless rule 2 re-taints them by type.
//!
//! Sinks: a key-blind module calling a tainted function, a tainted call
//! inside an `Event` construction, a tainted call among a wire
//! encoder's arguments, and `Debug`/`Display` on derived-secret types.
//! Every sink diagnostic prints the full witness chain back to a seed.
//!
//! ## Lock graph
//!
//! Every zero-argument `.lock()`/`.read()`/`.write()` is an acquisition;
//! the receiver's final path segment, crate-qualified, is the lock id.
//! Functions that lock their own single parameter are *wrappers* (the
//! `fn lock<T>(m: &Mutex<T>)` poison-recovery helpers); their call
//! sites substitute the argument's final ident. A `let`-bound guard is
//! held to the end of its block (or an explicit `drop`); a temporary
//! guard dies at its statement's `;`. While a guard is held, every
//! later acquisition — direct, or transitively inside a callee — adds a
//! may-hold-while-acquiring edge. Cycles are diagnostics; the acyclic
//! edge list is pinned as a fixture.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, CallSite};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::symbols::{FnSym, SymbolTable};
use crate::workspace::Workspace;

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn path_in(prefixes: &[String], rel: &str) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

// ── taint-flow ────────────────────────────────────────────────────────

/// Why a function is tainted (the witness for chain rendering).
#[derive(Clone, Debug)]
enum Taint {
    /// The definition itself is a decryption seed.
    Seed,
    /// A seed-named call inside seed scope (callee definition unseen).
    SeedCall { name: String, line: u32 },
    /// The return type names a secret value type.
    Type { ty: String },
    /// Calls a tainted function.
    Call { callee: usize },
}

/// Value types plus every struct/enum transitively containing one.
pub fn derived_secret_types(cfg: &Config, syms: &SymbolTable) -> BTreeSet<String> {
    let mut secret: BTreeSet<String> = cfg.flow_value_types.iter().cloned().collect();
    loop {
        let before = secret.len();
        for ty in &syms.types {
            if !secret.contains(&ty.name) && ty.field_types.iter().any(|f| secret.contains(f)) {
                secret.insert(ty.name.clone());
            }
        }
        if secret.len() == before {
            break;
        }
    }
    secret
}

fn seed_name(cfg: &Config, name: &str) -> bool {
    cfg.flow_seed_names.iter().any(|n| n == name)
        || cfg.flow_seed_prefixes.iter().any(|p| name.starts_with(p.as_str()))
}

/// Whether every return-type ident is a declassified carrier (`bool`,
/// `Verdict`, error enums, …). An empty return type is clearing.
fn clearing(cfg: &Config, f: &FnSym) -> bool {
    f.ret.iter().all(|t| cfg.flow_clear_returns.iter().any(|c| c == t))
}

fn compute_taint(
    ws: &Workspace,
    cfg: &Config,
    syms: &SymbolTable,
    graph: &CallGraph,
) -> Vec<Option<Taint>> {
    let mut taint: Vec<Option<Taint>> = vec![None; syms.fns.len()];
    let mut work: VecDeque<usize> = VecDeque::new();
    for (id, f) in syms.fns.iter().enumerate() {
        let rel = &ws.files[f.file].rel;
        if path_in(&cfg.flow_seed_scope, rel) && seed_name(cfg, &f.name) && !clearing(cfg, f) {
            taint[id] = Some(Taint::Seed);
        } else if let Some(ty) = f.ret.iter().find(|t| cfg.flow_value_types.contains(*t)) {
            // Only the *exact* value types taint a return: an aggregate
            // that transitively holds a key (Engine, Frame, Accountant)
            // exposes it solely through its reviewed API, whereas
            // Debug-printing it leaks recursively — so the transitive
            // closure feeds only the format screen below.
            taint[id] = Some(Taint::Type { ty: ty.clone() });
        } else if path_in(&cfg.flow_seed_scope, rel) && !clearing(cfg, f) {
            if let Some((site, _)) =
                graph.sites[id].iter().find(|(s, _)| seed_name(cfg, &s.name) && s.name != f.name)
            {
                taint[id] = Some(Taint::SeedCall { name: site.name.clone(), line: site.line });
            }
        }
        if taint[id].is_some() {
            work.push_back(id);
        }
    }
    while let Some(g) = work.pop_front() {
        for &c in &graph.callers[g] {
            if taint[c].is_some() {
                continue;
            }
            let f = &syms.fns[c];
            let rel = &ws.files[f.file].rel;
            if clearing(cfg, f) || path_in(&cfg.flow_declassify, rel) {
                continue;
            }
            taint[c] = Some(Taint::Call { callee: g });
            work.push_back(c);
        }
    }
    taint
}

/// Renders the witness chain from `start` down to its seed.
fn chain(ws: &Workspace, syms: &SymbolTable, taint: &[Option<Taint>], start: usize) -> String {
    let mut parts = Vec::new();
    let mut cur = start;
    loop {
        let f = &syms.fns[cur];
        parts.push(format!("{} ({}:{})", f.name, ws.files[f.file].rel, f.line));
        match &taint[cur] {
            Some(Taint::Call { callee }) if parts.len() < 24 => cur = *callee,
            Some(Taint::Seed) => {
                parts.push("[decryption seed]".to_string());
                break;
            }
            Some(Taint::SeedCall { name, line }) => {
                parts.push(format!("{name}(…) at line {line} [decryption seed]"));
                break;
            }
            Some(Taint::Type { ty }) => {
                parts.push(format!("[returns secret type `{ty}`]"));
                break;
            }
            _ => break,
        }
    }
    parts.join(" -> ")
}

/// `Event::Variant { … }` / `Event::Variant(…)` construction spans.
fn event_spans(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "Event"
            || text(toks, i + 1) != ":"
            || text(toks, i + 2) != ":"
            || toks.get(i + 3).map(|t| t.kind) != Some(TokKind::Ident)
        {
            continue;
        }
        let variant = toks[i + 3].text.clone();
        let open = i + 4;
        let close_of = |a: &str, b: &str| {
            let mut depth = 1;
            let mut j = open + 1;
            while j < toks.len() && depth > 0 {
                let t = text(toks, j);
                if t == a {
                    depth += 1;
                } else if t == b {
                    depth -= 1;
                }
                j += 1;
            }
            j
        };
        match text(toks, open) {
            "{" => out.push((open + 1, close_of("{", "}"), variant)),
            "(" => out.push((open + 1, close_of("(", ")"), variant)),
            _ => {}
        }
    }
    out
}

/// The interprocedural taint rule: seeds → propagation → sinks.
pub fn taint_flow(
    ws: &Workspace,
    cfg: &Config,
    syms: &SymbolTable,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    let secret_types = derived_secret_types(cfg, syms);
    let taint = compute_taint(ws, cfg, syms, graph);
    // One diagnostic per (file, line); the most specific sink wins, so
    // Event/encoder sinks are inserted before the key-blind blanket.
    let mut found: BTreeMap<(String, u32), Diagnostic> = BTreeMap::new();

    let spans_by_file: BTreeMap<usize, Vec<(usize, usize, String)>> = {
        let mut m = BTreeMap::new();
        for (id, f) in syms.fns.iter().enumerate() {
            if f.in_test
                || !graph.sites[id].iter().any(|(_, r)| r.iter().any(|&c| taint[c].is_some()))
            {
                continue;
            }
            m.entry(f.file).or_insert_with(|| event_spans(&ws.files[f.file].lexed.toks));
        }
        m
    };

    for (id, f) in syms.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let rel = &ws.files[f.file].rel;
        for (site, res) in &graph.sites[id] {
            let Some(&callee) = res.iter().find(|&&c| taint[c].is_some()) else { continue };
            let witness = chain(ws, syms, &taint, callee);
            // Sink: tainted call inside an `Event` construction.
            if let Some(spans) = spans_by_file.get(&f.file) {
                if let Some((_, _, variant)) =
                    spans.iter().find(|(s, e, _)| site.tok >= *s && site.tok < *e)
                {
                    found.entry((rel.clone(), site.line)).or_insert_with(|| {
                        Diagnostic::new(
                            "taint-flow",
                            rel,
                            site.line,
                            format!(
                                "secret value flows into obs `Event::{variant}` via \
                                 `{}(…)`: {witness}; events must carry counts and ids, \
                                 never plaintext",
                                site.name
                            ),
                        )
                    });
                    continue;
                }
            }
            // Sink: tainted call among a wire encoder's arguments.
            for (enc, enc_res) in &graph.sites[id] {
                if cfg.flow_sink_calls.iter().any(|s| s == &enc.name)
                    && !enc_res.iter().any(|&c| taint[c].is_some())
                    && site.tok >= enc.args.0
                    && site.tok < enc.args.1
                {
                    found.entry((rel.clone(), enc.line)).or_insert_with(|| {
                        Diagnostic::new(
                            "taint-flow",
                            rel,
                            enc.line,
                            format!(
                                "secret value flows into wire encoder `{}(…)` via \
                                 `{}(…)`: {witness}; only ciphertexts cross the wire",
                                enc.name, site.name
                            ),
                        )
                    });
                }
            }
            // Sink: any call from a key-blind module.
            if cfg.taint_scope.contains(rel) {
                found.entry((rel.clone(), site.line)).or_insert_with(|| {
                    Diagnostic::new(
                        "taint-flow",
                        rel,
                        site.line,
                        format!(
                            "key-blind module receives secret material from `{}(…)`: \
                             {witness}; only the controller's SFE gate may consume plaintext",
                            site.name
                        ),
                    )
                });
            }
        }
    }
    out.extend(found.into_values());

    // Sink: Debug/Display on *derived* secret types (the configured
    // value types themselves are already covered by privacy-taint).
    let derived_only: Vec<String> = secret_types
        .iter()
        .filter(|t| !cfg.secret_types.contains(t) && !cfg.flow_value_types.contains(t))
        .cloned()
        .collect();
    if !derived_only.is_empty() {
        for file in &ws.files {
            crate::rules::format_impl_screen(
                file,
                &derived_only,
                "taint-flow",
                "derived-secret type (a field transitively holds key material)",
                out,
            );
        }
    }
}

// ── lock-order ────────────────────────────────────────────────────────

/// The may-hold-while-acquiring graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `lock id -> first acquisition site`.
    pub nodes: BTreeMap<String, (String, u32)>,
    /// `(held, acquired) -> witness site`.
    pub edges: BTreeMap<(String, String), (String, u32)>,
}

impl LockGraph {
    /// Deterministic text form — the checked-in fixture pins this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, (file, line)) in &self.nodes {
            out.push_str(&format!("lock {id}  ({file}:{line})\n"));
        }
        for ((a, b), (file, line)) in &self.edges {
            out.push_str(&format!("order {a} -> {b}  ({file}:{line})\n"));
        }
        let cycles = self.cycles();
        if cycles.is_empty() {
            out.push_str("lock graph: acyclic\n");
        } else {
            for c in &cycles {
                out.push_str(&format!("CYCLE {}\n", c.join(" -> ")));
            }
        }
        out
    }

    /// Strongly-connected components with more than one lock, each a
    /// potential deadlock. Self-edges are excluded at construction.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let nodes: Vec<&String> = self.nodes.keys().collect();
        let index: BTreeMap<&str, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for (a, b) in self.edges.keys() {
            if let (Some(&i), Some(&j)) = (index.get(a.as_str()), index.get(b.as_str())) {
                adj[i].push(j);
            }
        }
        // Kosaraju: forward finish order, then transpose DFS.
        let mut order = Vec::new();
        let mut seen = vec![false; nodes.len()];
        for s in 0..nodes.len() {
            if seen[s] {
                continue;
            }
            // Iterative post-order.
            let mut stack = vec![(s, 0usize)];
            seen[s] = true;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < adj[v].len() {
                    let w = adj[v][*next];
                    *next += 1;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        let mut radj = vec![Vec::new(); nodes.len()];
        for (v, ws) in adj.iter().enumerate() {
            for &w in ws {
                radj[w].push(v);
            }
        }
        let mut comp = vec![usize::MAX; nodes.len()];
        let mut ncomp = 0;
        for &s in order.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = ncomp;
            while let Some(v) = stack.pop() {
                for &w in &radj[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = ncomp;
                        stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }
        let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (v, &c) in comp.iter().enumerate() {
            groups.entry(c).or_default().push(nodes[v].clone());
        }
        groups.into_values().filter(|g| g.len() > 1).collect()
    }
}

/// A lock acquisition event inside one function body.
struct Acq {
    tok: usize,
    line: u32,
    id: String,
}

/// The crate qualifier of a repo-relative path (`crates/obs/…` → `obs`).
fn crate_short(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates" | "shims"), Some(name)) => name,
        (Some(first), _) => first,
        _ => rel,
    }
}

/// Direct `.lock()`/`.read()`/`.write()` (zero-argument) receiver name.
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let p = dot - 1;
    match (toks[p].kind, toks[p].text.as_str()) {
        (TokKind::Ident, name) => Some(name.to_string()),
        (TokKind::Punct, close @ (")" | "]")) => {
            let open = if close == ")" { "(" } else { "[" };
            let mut depth = 1;
            let mut j = p;
            while j > 0 && depth > 0 {
                j -= 1;
                let t = text(toks, j);
                if t == close {
                    depth += 1;
                } else if t == open {
                    depth -= 1;
                }
            }
            (j > 0 && toks[j - 1].kind == TokKind::Ident).then(|| toks[j - 1].text.clone())
        }
        _ => None,
    }
}

fn is_direct_acq(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && matches!(toks[i].text.as_str(), "lock" | "read" | "write")
        && i > 0
        && text(toks, i - 1) == "."
        && text(toks, i + 1) == "("
        && text(toks, i + 2) == ")"
}

/// All acquisitions in a body: direct ones, plus wrapper-call sites with
/// the argument's final ident substituted as the receiver.
fn acquisitions(
    f: &FnSym,
    sites: &[(CallSite, Vec<usize>)],
    toks: &[Tok],
    wrappers: &[bool],
    crate_q: &str,
) -> Vec<Acq> {
    let mut out = Vec::new();
    let Some((start, end)) = f.body else { return out };
    for i in start..end {
        if !is_direct_acq(toks, i) || toks[i].in_test {
            continue;
        }
        if let Some(r) = receiver_name(toks, i - 1) {
            if r != "self" && !f.param_names.contains(&r) {
                out.push(Acq { tok: i, line: toks[i].line, id: format!("{crate_q}::{r}") });
            } else if f.param_names.contains(&r) {
                // The wrapper's own parameterized acquisition: accounted
                // at its call sites, not here.
            } else {
                out.push(Acq { tok: i, line: toks[i].line, id: format!("{crate_q}::{r}") });
            }
        }
    }
    for (site, res) in sites {
        if !res.iter().any(|&c| wrappers[c]) || toks[site.tok].in_test {
            continue;
        }
        let arg_ident = toks[site.args.0..site.args.1]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "self" && t.text != "mut");
        if let Some(t) = arg_ident {
            out.push(Acq { tok: site.tok, line: site.line, id: format!("{crate_q}::{}", t.text) });
        }
    }
    out.sort_by_key(|a| a.tok);
    out
}

/// Builds the lock graph and reports cycles as diagnostics.
pub fn lock_order(
    ws: &Workspace,
    cfg: &Config,
    syms: &SymbolTable,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) -> LockGraph {
    // Wrapper detection: single-parameter fns that lock that parameter.
    let mut wrappers = vec![false; syms.fns.len()];
    for (id, f) in syms.fns.iter().enumerate() {
        if f.arity != 1 || f.param_names.len() != 1 {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let toks = &ws.files[f.file].lexed.toks;
        wrappers[id] = (start..end).any(|i| {
            is_direct_acq(toks, i)
                && receiver_name(toks, i - 1).as_deref() == Some(f.param_names[0].as_str())
        });
    }
    let in_scope: Vec<bool> = syms
        .fns
        .iter()
        .map(|f| cfg.lock_order_scope.contains(&ws.files[f.file].rel) && !f.in_test)
        .collect();
    // Per-fn acquisition lists and direct lock sets.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(syms.fns.len());
    for (id, f) in syms.fns.iter().enumerate() {
        if !in_scope[id] || wrappers[id] {
            acqs.push(Vec::new());
            continue;
        }
        let toks = &ws.files[f.file].lexed.toks;
        let crate_q = crate_short(&ws.files[f.file].rel).to_string();
        acqs.push(acquisitions(f, &graph.sites[id], toks, &wrappers, &crate_q));
    }
    // Transitive lock sets to fixpoint.
    let mut locks: Vec<BTreeSet<String>> =
        acqs.iter().map(|a| a.iter().map(|q| q.id.clone()).collect::<BTreeSet<_>>()).collect();
    loop {
        let mut changed = false;
        for id in 0..syms.fns.len() {
            for &g in &graph.callees[id] {
                if g == id {
                    continue;
                }
                let add: Vec<String> =
                    locks[g].iter().filter(|l| !locks[id].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    locks[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Held-guard walk per in-scope function.
    let mut lg = LockGraph::default();
    for (id, f) in syms.fns.iter().enumerate() {
        if !in_scope[id] || wrappers[id] {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let rel = &ws.files[f.file].rel;
        let toks = &ws.files[f.file].lexed.toks;
        let acq_at: BTreeMap<usize, &Acq> = acqs[id].iter().map(|a| (a.tok, a)).collect();
        let call_at: BTreeMap<usize, &(CallSite, Vec<usize>)> =
            graph.sites[id].iter().map(|sr| (sr.0.tok, sr)).collect();

        struct Held {
            id: String,
            bind: Option<String>,
            depth: i32,
            temp: bool,
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0i32;
        let mut saw_let = false;
        let mut let_bind: Option<String> = None;
        let mut i = start;
        while i < end {
            match (toks[i].kind, toks[i].text.as_str()) {
                (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                (TokKind::Punct, ";") => {
                    held.retain(|h| !h.temp);
                    saw_let = false;
                    let_bind = None;
                }
                (TokKind::Ident, "let") => {
                    saw_let = true;
                    let_bind = None;
                }
                (TokKind::Ident, "drop") if text(toks, i + 1) == "(" => {
                    let mut j = i + 2;
                    while j < end && text(toks, j) != ")" {
                        if toks[j].kind == TokKind::Ident {
                            let name = toks[j].text.clone();
                            held.retain(|h| h.bind.as_deref() != Some(name.as_str()));
                        }
                        j += 1;
                    }
                }
                (TokKind::Ident, name) if saw_let && let_bind.is_none() && name != "mut" => {
                    let_bind = Some(name.to_string());
                }
                _ => {}
            }
            if let Some(acq) = acq_at.get(&i) {
                lg.nodes.entry(acq.id.clone()).or_insert_with(|| (rel.clone(), acq.line));
                for h in &held {
                    if h.id != acq.id {
                        lg.edges
                            .entry((h.id.clone(), acq.id.clone()))
                            .or_insert_with(|| (rel.clone(), acq.line));
                    }
                }
                held.push(Held {
                    id: acq.id.clone(),
                    bind: let_bind.clone(),
                    depth,
                    temp: !saw_let,
                });
            } else if let Some((site, res)) = call_at.get(&i) {
                if !held.is_empty() && !res.iter().any(|&c| wrappers[c]) {
                    for &g in res.iter() {
                        if g == id {
                            continue;
                        }
                        for l in &locks[g] {
                            for h in &held {
                                if &h.id != l {
                                    lg.edges
                                        .entry((h.id.clone(), l.clone()))
                                        .or_insert_with(|| (rel.clone(), site.line));
                                }
                            }
                            lg.nodes.entry(l.clone()).or_insert_with(|| (rel.clone(), site.line));
                        }
                    }
                }
            }
            i += 1;
        }
    }
    for cycle in lg.cycles() {
        let mut witnesses = Vec::new();
        for ((a, b), (file, line)) in &lg.edges {
            if cycle.contains(a) && cycle.contains(b) {
                witnesses.push(format!("{a} -> {b} ({file}:{line})"));
            }
        }
        let (file, line) = lg
            .edges
            .iter()
            .find(|((a, b), _)| cycle.contains(a) && cycle.contains(b))
            .map(|(_, w)| w.clone())
            .unwrap_or_default();
        out.push(Diagnostic::new(
            "lock-order",
            &file,
            line,
            format!(
                "lock-order cycle between {{{}}}: {}; acquire these locks in one \
                 global order or a two-thread interleaving deadlocks",
                cycle.join(", "),
                witnesses.join(", ")
            ),
        ));
    }
    lg
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

    fn flow_cfg() -> Config {
        Config::parse(
            r#"
[privacy-taint]
deny = ["crates/net/src", "crates/core/src/broker.rs"]
secret_types = ["PrivateKey"]

[taint-flow]
seed_scope = ["crates/paillier/src"]
seed_names = ["open"]
seed_prefixes = ["decrypt"]
value_types = ["PrivateKey", "PlainCounter"]
declassify = ["crates/core/src/controller.rs"]
clear_returns = ["bool", "Verdict", "Result", "CipherError", "Option", "usize"]
sink_calls = ["encode_frame"]

[lock-order]
scan = ["crates/obs/src", "shims/rayon/src"]
"#,
        )
        .expect("flow config parses")
    }

    fn run_taint(files: Vec<(&str, &str)>) -> Vec<Diagnostic> {
        let ws = ws_of(files);
        let cfg = flow_cfg();
        let syms = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &syms);
        let mut out = Vec::new();
        taint_flow(&ws, &cfg, &syms, &graph, &mut out);
        out
    }

    #[test]
    fn taint_crosses_two_intermediates_into_a_key_blind_module() {
        let d = run_taint(vec![
            (
                "crates/paillier/src/helper.rs",
                "pub fn fetch_plain(d: &Ctx, ct: &Ct) -> i64 { d.decrypt_i64(ct) }\n\
                 pub fn relay(d: &Ctx, ct: &Ct) -> i64 { fetch_plain(d, ct) }",
            ),
            ("crates/net/src/wire.rs", "pub fn route(d: &Ctx, ct: &Ct) -> i64 { relay(d, ct) }"),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].file.as_str()), ("taint-flow", "crates/net/src/wire.rs"));
        assert!(
            d[0].message.contains("relay (crates/paillier/src/helper.rs:2)"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("fetch_plain (crates/paillier/src/helper.rs:1)"));
        assert!(d[0].message.contains("decryption seed"));
    }

    #[test]
    fn clearing_returns_and_declassified_consumers_stop_propagation() {
        let d = run_taint(vec![
            (
                "crates/paillier/src/tags.rs",
                "pub fn decrypt_i64(c: &Ct) -> i64 { 0 }\n\
                 pub fn verify_tags(c: &Ct) -> bool { decrypt_i64(c) == 0 }",
            ),
            // bool-returning verifier: callers stay clean.
            ("crates/net/src/wire.rs", "pub fn screen(c: &Ct) -> bool { verify_tags(c) }"),
            // declassified controller: its callers stay clean too.
            (
                "crates/core/src/controller.rs",
                "pub fn run_wave(c: &Ct) -> u64 { decrypt_i64(c) as u64 }",
            ),
            ("crates/core/src/broker.rs", "pub fn drive(c: &Ct) -> u64 { run_wave(c) }"),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn secret_return_types_taint_through_the_declassify_boundary() {
        let d = run_taint(vec![
            (
                "crates/core/src/controller.rs",
                "pub fn open_checked(c: &Ct) -> Result<PlainCounter, Verdict> { }",
            ),
            ("crates/core/src/broker.rs", "pub fn peek(c: &Ct) { let v = open_checked(c); }"),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("returns secret type `PlainCounter`"), "{}", d[0].message);
    }

    #[test]
    fn tainted_call_inside_an_event_construction_is_a_sink_anywhere() {
        let d = run_taint(vec![(
            "crates/paillier/src/cipher.rs",
            "pub fn decrypt_i64(c: &Ct) -> i64 { 0 }\n\
             pub fn note(c: &Ct) { emit(&rec, || Event::KeyOp { value: decrypt_i64(c) }); }",
        )]);
        assert!(
            d.iter().any(|d| d.rule == "taint-flow" && d.message.contains("Event::KeyOp")),
            "{d:?}"
        );
    }

    #[test]
    fn derived_secret_struct_debug_impl_is_flagged() {
        let d = run_taint(vec![(
            "crates/core/src/keyring.rs",
            "pub struct Keys { dec: PrivateKey }\n\
             impl std::fmt::Debug for Keys { }",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Keys"));
    }

    #[test]
    fn token_clean_chain_with_no_secret_source_stays_clean() {
        let d = run_taint(vec![(
            "crates/net/src/relay.rs",
            "pub fn route(f: &Frame) -> u64 { relay_len(f) }\n\
                 pub fn relay_len(f: &Frame) -> u64 { f.len() as u64 }",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    fn run_locks(files: Vec<(&str, &str)>) -> (Vec<Diagnostic>, LockGraph) {
        let ws = ws_of(files);
        let cfg = flow_cfg();
        let syms = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &syms);
        let mut out = Vec::new();
        let lg = lock_order(&ws, &cfg, &syms, &graph, &mut out);
        (out, lg)
    }

    #[test]
    fn consistent_order_is_acyclic_and_inversion_is_a_cycle() {
        let (d, lg) = run_locks(vec![(
            "crates/obs/src/recorder.rs",
            "impl R { fn a(&self) { let g = self.events.lock(); let h = self.out.lock(); } }",
        )]);
        assert!(d.is_empty(), "{d:?}");
        assert!(lg.edges.contains_key(&("obs::events".into(), "obs::out".into())), "{lg:?}");

        let (d, _) = run_locks(vec![(
            "crates/obs/src/recorder.rs",
            "impl R {\n\
                 fn a(&self) { let g = self.events.lock(); let h = self.out.lock(); }\n\
                 fn b(&self) { let g = self.out.lock(); let h = self.events.lock(); }\n\
             }",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-order");
        assert!(d[0].message.contains("obs::events"), "{}", d[0].message);
    }

    #[test]
    fn temporary_guards_die_at_the_statement() {
        let (d, lg) = run_locks(vec![(
            "crates/obs/src/recorder.rs",
            "impl R {\n\
                 fn a(&self) { self.events.lock().push(1); self.out.lock().push(2); }\n\
                 fn b(&self) { self.out.lock().push(1); self.events.lock().push(2); }\n\
             }",
        )]);
        assert!(d.is_empty(), "{d:?}");
        assert!(lg.edges.is_empty(), "{:?}", lg.edges);
    }

    #[test]
    fn wrapper_calls_substitute_the_argument_and_cross_functions() {
        let (d, lg) = run_locks(vec![(
            "shims/rayon/src/lib.rs",
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<T> { m.lock().unwrap_or_else(P::into_inner) }\n\
             impl Pool {\n\
                 fn push(&self) { let g = lock(&self.pending); self.note(); }\n\
                 fn note(&self) { let s = lock(&self.state); }\n\
             }",
        )]);
        assert!(d.is_empty(), "{d:?}");
        // Interprocedural: push holds `pending` while note locks `state`.
        assert!(
            lg.edges.contains_key(&("rayon::pending".into(), "rayon::state".into())),
            "{:?}",
            lg.edges
        );
    }

    #[test]
    fn dropped_guards_release_before_the_next_acquisition() {
        let (_, lg) = run_locks(vec![(
            "crates/obs/src/recorder.rs",
            "impl R { fn a(&self) { let g = self.events.lock(); drop(g); \
             let h = self.out.lock(); } }",
        )]);
        assert!(lg.edges.is_empty(), "{:?}", lg.edges);
    }
}
