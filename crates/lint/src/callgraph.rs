//! Function-level call graph over the symbol table.
//!
//! Call sites are recovered token-wise (`name(`, `Owner::name(`,
//! `.name(`, turbofish tolerated; macros and attributes excluded) and
//! resolved by name with three disambiguators, in order: an explicit
//! `Owner::` hint, arity (argument commas at paren depth 1 vs declared
//! parameter count — what keeps `OpenOptions::…​.open(path)` from
//! resolving to the sealed-counter `CounterMsg::open(cipher, key)`),
//! and proximity (same file, then same crate, then workspace-wide).
//!
//! Known approximations, by design: closures with commas in an argument
//! inflate site arity and can drop a resolution (under-approx); a name
//! defined by several same-arity methods resolves to all of them
//! (over-approx). Both directions are documented in DESIGN.md.

use crate::lexer::{Tok, TokKind};
use crate::symbols::{skip_attr, SymbolTable};
use crate::workspace::Workspace;

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index of the name token in the file's token stream.
    pub tok: usize,
    pub line: u32,
    pub name: String,
    /// `Owner` of an `Owner::name(…)` path call (`Self` pre-resolved to
    /// the caller's impl type).
    pub owner_hint: Option<String>,
    /// `.name(…)` receiver call.
    pub is_method: bool,
    /// Argument count: depth-1 comma segments.
    pub arity: usize,
    /// Token range `[start, end)` between the call's parentheses.
    pub args: (usize, usize),
}

/// The resolved graph: per-function call sites and adjacency.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `fn id -> [(site, resolved callee fn ids)]`.
    pub sites: Vec<Vec<(CallSite, Vec<usize>)>>,
    /// `fn id -> deduped callee ids`.
    pub callees: Vec<Vec<usize>>,
    /// `fn id -> caller ids` (the transpose).
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Extracts and resolves every call site in every function body.
    pub fn build(ws: &Workspace, syms: &SymbolTable) -> CallGraph {
        let mut g = CallGraph {
            sites: Vec::with_capacity(syms.fns.len()),
            callees: vec![Vec::new(); syms.fns.len()],
            callers: vec![Vec::new(); syms.fns.len()],
        };
        for (id, f) in syms.fns.iter().enumerate() {
            let mut resolved = Vec::new();
            if let Some((start, end)) = f.body {
                let toks = &ws.files[f.file].lexed.toks;
                for site in extract_calls(toks, start, end) {
                    let callees = resolve(&site, f.file, f.owner.as_deref(), ws, syms);
                    resolved.push((site, callees));
                }
            }
            for (_, callees) in &resolved {
                for &c in callees {
                    if !g.callees[id].contains(&c) {
                        g.callees[id].push(c);
                    }
                }
            }
            g.sites.push(resolved);
        }
        for (caller, callees) in g.callees.iter().enumerate() {
            for &callee in callees {
                g.callers[callee].push(caller);
            }
        }
        g
    }
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Control-flow and binding keywords that look like `name(` but are not
/// calls (`if (…)`, `while (…)`, `match (…)`, `return (…)`, …).
fn is_noncall_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "let"
            | "else"
            | "in"
            | "as"
            | "move"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "fn"
            | "where"
            | "unsafe"
            | "await"
    )
}

/// All call sites in `toks[start..end]`, attributes skipped.
pub fn extract_calls(toks: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].text == "#" && matches!(text(toks, i + 1), "[" | "!") {
            i = skip_attr(toks, i);
            continue;
        }
        if toks[i].kind != TokKind::Ident || is_noncall_keyword(&toks[i].text) {
            i += 1;
            continue;
        }
        // `name (`, with an optional `::<…>` turbofish between.
        let mut open = i + 1;
        if text(toks, open) == ":" && text(toks, open + 1) == ":" && text(toks, open + 2) == "<" {
            let mut depth = 1;
            open += 3;
            while open < end && depth > 0 {
                match text(toks, open) {
                    "<" => depth += 1,
                    ">" if text(toks, open - 1) != "-" => depth -= 1,
                    _ => {}
                }
                open += 1;
            }
        }
        if text(toks, open) != "(" || text(toks, i + 1) == "!" {
            i += 1;
            continue;
        }
        let prev = if i > 0 { text(toks, i - 1) } else { "" };
        if prev == "fn" {
            i = open; // definition header, not a call
            continue;
        }
        let is_method = prev == ".";
        let owner_hint = if !is_method && prev == ":" && i >= 3 && text(toks, i - 2) == ":" {
            match toks.get(i - 3) {
                Some(t) if t.kind == TokKind::Ident => Some(t.text.clone()),
                _ => None,
            }
        } else {
            None
        };
        // Arity: depth-1 comma segments between the parens.
        let args_start = open + 1;
        let mut depth = 1i32;
        let mut j = args_start;
        let mut segments = 0usize;
        let mut seg_has_tokens = false;
        while j < toks.len() && depth > 0 {
            match text(toks, j) {
                "(" | "[" | "{" => {
                    depth += 1;
                    seg_has_tokens = true;
                }
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 1 => {
                    if seg_has_tokens {
                        segments += 1;
                    }
                    seg_has_tokens = false;
                }
                _ => seg_has_tokens = true,
            }
            j += 1;
        }
        if seg_has_tokens {
            segments += 1;
        }
        out.push(CallSite {
            tok: i,
            line: toks[i].line,
            name: toks[i].text.clone(),
            owner_hint,
            is_method,
            arity: segments,
            args: (args_start, j.saturating_sub(1)),
        });
        i += 1;
    }
    out
}

/// The crate key of a repo-relative path: its first two segments
/// (`crates/net`, `shims/rayon`), or the first for root `examples`/`src`/`tests`.
fn crate_of(rel: &str) -> &str {
    let mut it = rel.match_indices('/');
    match (it.next(), it.next()) {
        (Some(_), Some((second, _))) => &rel[..second],
        (Some((first, _)), None) => &rel[..first],
        _ => rel,
    }
}

/// Resolves a call site to candidate function ids.
/// Method names whose std/prelude meaning dominates any same-named
/// workspace method. Name-based resolution cannot see std, so a
/// `.count()` on an iterator chain must never resolve to the rayon
/// shim's `ParIter::count` (which would drag the whole pool's lock set
/// into the caller). Documented under-approximation: a workspace method
/// deliberately shadowing one of these names is invisible to the flow
/// families.
const STD_SHADOWED: &[&str] = &[
    "all",
    "and_then",
    "any",
    "append",
    "as_mut",
    "as_ref",
    "back",
    "chain",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "entry",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fold",
    "for_each",
    "front",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "notify_all",
    "notify_one",
    "or_default",
    "or_insert",
    "parse",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "recv",
    "remove",
    "retain",
    "rev",
    "send",
    "skip",
    "sort",
    "sort_by",
    "split",
    "sum",
    "take",
    "to_string",
    "trim",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "wait",
    "zip",
];

fn resolve(
    site: &CallSite,
    caller_file: usize,
    caller_owner: Option<&str>,
    ws: &Workspace,
    syms: &SymbolTable,
) -> Vec<usize> {
    if site.is_method && STD_SHADOWED.contains(&site.name.as_str()) {
        return Vec::new();
    }
    let Some(all) = syms.by_name.get(&site.name) else { return Vec::new() };
    let mut cands: Vec<usize> = all.clone();
    if let Some(hint) = &site.owner_hint {
        let hint = if hint == "Self" { caller_owner.unwrap_or("Self") } else { hint.as_str() };
        if hint.starts_with(|c: char| c.is_uppercase()) {
            // A named type/trait owner is authoritative: no match, no edge.
            cands.retain(|&id| syms.fns[id].owner.as_deref() == Some(hint));
        } else {
            // `module::name(…)` — prefer functions whose file matches the
            // module segment; keep everything if none do.
            let file_match: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    let rel = &ws.files[syms.fns[id].file].rel;
                    rel.ends_with(&format!("/{hint}.rs"))
                        || rel.ends_with(&format!("/{hint}/mod.rs"))
                })
                .collect();
            if !file_match.is_empty() {
                cands = file_match;
            }
        }
    }
    if site.is_method {
        // `.name(…)`: only owned fns qualify, and the receiver is not an
        // argument, so declared arity must match exactly.
        cands.retain(|&id| {
            let f = &syms.fns[id];
            (f.owner.is_some() || f.has_self) && f.arity == site.arity
        });
    } else {
        // Free/path call: `f(args…)` matches arity, and UFCS
        // `Owner::method(recv, args…)` matches arity+1.
        cands.retain(|&id| {
            let f = &syms.fns[id];
            f.arity == site.arity || (f.has_self && f.arity + 1 == site.arity)
        });
    }
    // Proximity: same file beats same crate beats workspace.
    let here = &ws.files[caller_file].rel;
    let same_file: Vec<usize> =
        cands.iter().copied().filter(|&id| syms.fns[id].file == caller_file).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| crate_of(&ws.files[syms.fns[id].file].rel) == crate_of(here))
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands
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

    fn graph_of(files: Vec<(&str, &str)>) -> (Workspace, SymbolTable, CallGraph) {
        let ws = ws_of(files);
        let syms = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &syms);
        (ws, syms, graph)
    }

    fn id_of(syms: &SymbolTable, name: &str) -> usize {
        syms.by_name[name][0]
    }

    #[test]
    fn free_calls_resolve_same_file_then_same_crate_then_workspace() {
        let (_, syms, graph) = graph_of(vec![
            ("crates/a/src/lib.rs", "fn caller() { helper(1); far(2); }\nfn helper(x: u64) {}"),
            ("crates/a/src/other.rs", "fn helper(x: u64) {}"),
            ("crates/b/src/lib.rs", "pub fn far(x: u64) {}"),
        ]);
        let caller = id_of(&syms, "caller");
        assert_eq!(graph.callees[caller].len(), 2);
        let helper_same_file = syms.by_name["helper"]
            .iter()
            .copied()
            .find(|&id| syms.fns[id].file == syms.fns[caller].file)
            .expect("same-file helper");
        assert!(graph.callees[caller].contains(&helper_same_file));
        assert!(graph.callees[caller].contains(&id_of(&syms, "far")));
    }

    #[test]
    fn method_arity_disambiguates_open_from_open() {
        // `.open(path)` (1 arg) must hit OpenOptions::open, never the
        // 2-arg sealed-counter CounterMsg::open.
        let (_, syms, graph) = graph_of(vec![
            (
                "crates/store/src/backend.rs",
                "impl OpenOptions { pub fn open(&self, path: &Path) -> io::Result<File> { } }\n\
                 fn user(o: &OpenOptions) { o.open(p); }",
            ),
            (
                "crates/core/src/plain.rs",
                "impl CounterMsg { pub fn open(&self, cipher: &C, key: &K) -> i64 { 0 } }",
            ),
        ]);
        let user = id_of(&syms, "user");
        assert_eq!(graph.callees[user].len(), 1);
        let callee = graph.callees[user][0];
        assert_eq!(syms.fns[callee].owner.as_deref(), Some("OpenOptions"));
    }

    #[test]
    fn owner_hints_are_authoritative_and_self_resolves() {
        let (_, syms, graph) = graph_of(vec![(
            "crates/a/src/lib.rs",
            "impl Ctx { fn seed(&self) -> i64 { 0 }\n\
                 fn go(&self) { Self::seed(self); Ctx::seed(self); Other::seed(self); } }",
        )]);
        let go = id_of(&syms, "go");
        // Self:: and Ctx:: both resolve; Other:: resolves to nothing.
        assert_eq!(graph.callees[go], vec![id_of(&syms, "seed")]);
    }

    #[test]
    fn macros_attributes_and_keywords_are_not_calls() {
        let (_, syms, graph) = graph_of(vec![(
            "crates/a/src/lib.rs",
            "#[derive(Clone)]\nstruct S;\n\
             fn f() { if (x) { vec![1] } ; assert_eq!(a, b); return (1); }\nfn derive() {}",
        )]);
        let f = id_of(&syms, "f");
        assert!(graph.callees[f].is_empty(), "{:?}", graph.sites[f]);
    }

    #[test]
    fn turbofish_calls_still_resolve() {
        let (_, syms, graph) = graph_of(vec![(
            "crates/a/src/lib.rs",
            "fn parse<T>(s: &str) -> T { }\nfn f() { let x = parse::<u64>(s); }",
        )]);
        assert_eq!(graph.callees[id_of(&syms, "f")], vec![id_of(&syms, "parse")]);
    }

    #[test]
    fn callers_is_the_transpose() {
        let (_, syms, graph) = graph_of(vec![(
            "crates/a/src/lib.rs",
            "fn leaf() {}\nfn mid() { leaf(); }\nfn top() { mid(); }",
        )]);
        assert_eq!(graph.callers[id_of(&syms, "leaf")], vec![id_of(&syms, "mid")]);
        assert_eq!(graph.callers[id_of(&syms, "mid")], vec![id_of(&syms, "top")]);
    }
}
