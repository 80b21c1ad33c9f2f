//! Workspace symbol table: every `fn`, `struct` and `enum` definition
//! recovered from the token streams, with enough signature shape (owner
//! type, arity, `self`, return-type idents, body span) for the dataflow
//! passes to resolve calls and type taint.
//!
//! Still no `syn` (offline-shims policy): the extractor is a single
//! forward pass per file tracking brace depth and the enclosing
//! `impl`/`trait` owner. Generics are skipped with an `->`-aware angle
//! counter; `macro_rules!` bodies are skipped wholesale so fragment
//! tokens never mint phantom symbols.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::workspace::Workspace;

/// One function (or trait-method declaration) in the workspace.
#[derive(Debug)]
pub struct FnSym {
    /// Index into `Workspace::files`.
    pub file: usize,
    pub name: String,
    /// Enclosing `impl`/`trait` type name, `None` for free functions.
    pub owner: Option<String>,
    /// Line of the name token.
    pub line: u32,
    /// Parameter count excluding any `self` receiver.
    pub arity: usize,
    pub has_self: bool,
    /// Names of `ident: Type` parameters (patterns are skipped).
    pub param_names: Vec<String>,
    /// Identifier tokens of the return type, in order; empty for `()`.
    pub ret: Vec<String>,
    /// Token range `[start, end)` of the body between the braces;
    /// `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the definition sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// One `struct`/`enum` definition with the identifier tokens of its
/// field (or variant payload) types.
#[derive(Debug)]
pub struct TypeSym {
    pub file: usize,
    pub name: String,
    pub line: u32,
    /// For braced structs: idents after each `field:`. For tuple structs
    /// and enums: every ident in the body — over-approximate, which is
    /// the safe direction for a secret-containment check.
    pub field_types: Vec<String>,
}

/// The whole-workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnSym>,
    pub types: Vec<TypeSym>,
    /// Function name → ids, for call resolution.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table over every walked file.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, file) in ws.files.iter().enumerate() {
            scan_file(fi, &file.lexed.toks, &mut table);
        }
        for (id, f) in table.fns.iter().enumerate() {
            table.by_name.entry(f.name.clone()).or_default().push(id);
        }
        table
    }
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Index just past the matching `]` of the attribute opening at `#`.
pub(crate) fn skip_attr(toks: &[Tok], hash: usize) -> usize {
    debug_assert_eq!(text(toks, hash), "#");
    let mut j = hash + 1;
    if text(toks, j) == "!" {
        j += 1;
    }
    if text(toks, j) != "[" {
        return hash + 1;
    }
    let mut depth = 1;
    j += 1;
    while j < toks.len() && depth > 0 {
        match text(toks, j) {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past a balanced `<…>` opening at `open`, treating the `>`
/// of a `->` arrow as plain punctuation so `Fn() -> T` bounds survive.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    debug_assert_eq!(text(toks, open), "<");
    let mut depth = 1;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        match text(toks, j) {
            "<" => depth += 1,
            ">" if text(toks, j - 1) != "-" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    debug_assert_eq!(text(toks, open), "{");
    let mut depth = 1;
    let mut j = open + 1;
    while j < toks.len() {
        match text(toks, j) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn scan_file(fi: usize, toks: &[Tok], out: &mut SymbolTable) {
    let mut depth: i32 = 0;
    // Enclosing `impl`/`trait` owner names with the depth their body
    // opened at, popped when that depth closes.
    let mut owners: Vec<(String, i32)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "#") if text(toks, i + 1) == "[" || text(toks, i + 1) == "!" => {
                i = skip_attr(toks, i);
                continue;
            }
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                while owners.last().is_some_and(|(_, d)| *d == depth) {
                    owners.pop();
                }
                depth -= 1;
            }
            (TokKind::Ident, "macro_rules") if text(toks, i + 1) == "!" => {
                // Skip `macro_rules! name { … }` — fragment tokens would
                // otherwise mint phantom symbols.
                let mut j = i + 2;
                while j < toks.len() && text(toks, j) != "{" {
                    j += 1;
                }
                if j < toks.len() {
                    i = matching_brace(toks, j) + 1;
                    continue;
                }
            }
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => {
                let is_trait = toks[i].text == "trait";
                if let Some((name, body_open)) = parse_owner_header(toks, i, is_trait) {
                    owners.push((name, depth + 1));
                    depth += 1;
                    i = body_open + 1;
                    continue;
                }
            }
            (TokKind::Ident, "struct") | (TokKind::Ident, "enum") => {
                if let Some(end) = parse_type_def(fi, toks, i, out) {
                    i = end;
                    continue;
                }
            }
            (TokKind::Ident, "fn") => {
                if let Some(resume) = parse_fn(fi, toks, i, owners.last().map(|(n, _)| n), out) {
                    // Resume at the body `{` (or past `;`) so depth and
                    // owner bookkeeping stay consistent and nested items
                    // are still scanned.
                    i = resume;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// For `impl …` / `trait …` headers, returns the owner type name and the
/// index of the body-opening `{`. `impl Trait for Type` resolves to
/// `Type`; a bodiless `impl Foo;` (doesn't exist) or `trait X;` bails.
fn parse_owner_header(toks: &[Tok], kw: usize, is_trait: bool) -> Option<(String, usize)> {
    let mut j = kw + 1;
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut first: Option<String> = None;
    while j < toks.len() {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") if text(toks, j - 1) != "-" => angle -= 1,
            (TokKind::Punct, "{") if angle == 0 => {
                let n = if is_trait { first } else { name };
                return n.map(|n| (n, j));
            }
            (TokKind::Punct, ";") if angle == 0 => return None,
            (TokKind::Ident, "where") if angle == 0 => {
                // The clause's idents are bounds, not the owner.
                while j < toks.len() && text(toks, j) != "{" && text(toks, j) != ";" {
                    j += 1;
                }
                continue;
            }
            (TokKind::Ident, "for") if angle == 0 => name = None,
            (TokKind::Ident, _) if angle == 0 => {
                name = Some(toks[j].text.clone());
                if first.is_none() {
                    first = Some(toks[j].text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Records a `struct`/`enum` definition; returns the index to resume at.
fn parse_type_def(fi: usize, toks: &[Tok], kw: usize, out: &mut SymbolTable) -> Option<usize> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let is_enum = toks[kw].text == "enum";
    let mut j = kw + 2;
    if text(toks, j) == "<" {
        j = skip_angles(toks, j);
    }
    // Skip a `where` clause between generics and the body.
    while j < toks.len() && !matches!(text(toks, j), "{" | "(" | ";") {
        j += 1;
    }
    let mut field_types = Vec::new();
    let end = match text(toks, j) {
        ";" => j + 1,
        "(" => {
            // Tuple struct: every ident inside is (part of) a field type.
            let mut depth = 1;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                match text(toks, k) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ if toks[k].kind == TokKind::Ident
                        && !matches!(text(toks, k), "pub" | "crate" | "super" | "in") =>
                    {
                        field_types.push(toks[k].text.clone());
                    }
                    _ => {}
                }
                k += 1;
            }
            k
        }
        "{" => {
            let close = matching_brace(toks, j);
            if is_enum {
                // Variant *payload* types only: every ident inside a
                // tuple payload's parens, or idents after `:` in a
                // struct payload. Variant names are constructors, not
                // contained types — collecting them would alias any
                // same-named struct into the containment relation.
                let mut depth = 1i32;
                let mut payload = ' '; // '(' or '{' inside a variant payload
                let mut in_type = false;
                for k in j + 1..close {
                    match text(toks, k) {
                        d @ ("{" | "(" | "[") => {
                            depth += 1;
                            if depth == 2 {
                                payload = d.chars().next().unwrap_or(' ');
                            }
                        }
                        "}" | ")" | "]" => {
                            depth -= 1;
                            if depth == 1 {
                                payload = ' ';
                                in_type = false;
                            }
                        }
                        ":" if depth == 2
                            && payload == '{'
                            && text(toks, k + 1) != ":"
                            && text(toks, k - 1) != ":" =>
                        {
                            in_type = true;
                        }
                        "," if depth == 2 && payload == '{' => in_type = false,
                        _ if toks[k].kind == TokKind::Ident
                            && depth >= 2
                            && (payload == '(' || in_type)
                            && !matches!(text(toks, k), "pub" | "crate" | "dyn") =>
                        {
                            field_types.push(toks[k].text.clone());
                        }
                        _ => {}
                    }
                }
            } else {
                // Braced struct: idents after each `field:` up to `,`.
                let mut depth = 1i32;
                let mut in_type = false;
                for k in j + 1..close {
                    match text(toks, k) {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        ":" if depth == 1
                            && text(toks, k + 1) != ":"
                            && text(toks, k - 1) != ":" =>
                        {
                            in_type = true;
                        }
                        "," if depth == 1 => in_type = false,
                        _ if in_type && toks[k].kind == TokKind::Ident => {
                            field_types.push(toks[k].text.clone());
                        }
                        _ => {}
                    }
                }
            }
            close + 1
        }
        _ => return None,
    };
    out.types.push(TypeSym {
        file: fi,
        name: name_tok.text.clone(),
        line: name_tok.line,
        field_types,
    });
    Some(end)
}

/// Records a `fn` definition/declaration; returns the index of the body
/// `{` (so the caller's depth tracking sees it) or just past the `;`.
fn parse_fn(
    fi: usize,
    toks: &[Tok],
    kw: usize,
    owner: Option<&String>,
    out: &mut SymbolTable,
) -> Option<usize> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(u64) -> u64` function-pointer type.
    }
    let mut j = kw + 2;
    if text(toks, j) == "<" {
        j = skip_angles(toks, j);
    }
    if text(toks, j) != "(" {
        return None;
    }
    // Parameters: segments split on depth-1 commas.
    let mut depth = 1i32;
    let mut has_self = false;
    let mut param_names = Vec::new();
    let mut segments = 0usize;
    let mut seg_has_tokens = false;
    let mut first_segment = true;
    j += 1;
    while j < toks.len() && depth > 0 {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Punct, "<") => depth += 1,
            (TokKind::Punct, ">") if text(toks, j - 1) != "-" => depth -= 1,
            (TokKind::Punct, ",") if depth == 1 => {
                if seg_has_tokens {
                    segments += 1;
                }
                seg_has_tokens = false;
                first_segment = false;
            }
            (TokKind::Ident, "self") if depth == 1 && first_segment => {
                has_self = true;
                seg_has_tokens = true;
            }
            (TokKind::Ident, _) if depth == 1 && text(toks, j + 1) == ":" => {
                param_names.push(toks[j].text.clone());
                seg_has_tokens = true;
            }
            (TokKind::Punct, _) | (TokKind::Lifetime, _) => {}
            _ => seg_has_tokens = true,
        }
        j += 1;
    }
    if seg_has_tokens {
        segments += 1;
    }
    let arity = segments.saturating_sub(usize::from(has_self));
    // Return type idents up to the body/`;`/`where`.
    let mut ret = Vec::new();
    if text(toks, j) == "-" && text(toks, j + 1) == ">" {
        j += 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match (toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") if text(toks, j - 1) != "-" => angle -= 1,
                (TokKind::Punct, "{") | (TokKind::Punct, ";") if angle <= 0 => break,
                (TokKind::Ident, "where") if angle <= 0 => break,
                (TokKind::Ident, _) => ret.push(toks[j].text.clone()),
                _ => {}
            }
            j += 1;
        }
    }
    while j < toks.len() && !matches!(text(toks, j), "{" | ";") {
        j += 1;
    }
    let (body, resume) = match text(toks, j) {
        "{" => {
            let close = matching_brace(toks, j);
            (Some((j + 1, close)), j)
        }
        _ => (None, j + 1),
    };
    out.fns.push(FnSym {
        file: fi,
        name: name_tok.text.clone(),
        owner: owner.cloned(),
        line: name_tok.line,
        arity,
        has_self,
        param_names,
        ret,
        body,
        in_test: name_tok.in_test,
    });
    Some(resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn table_of(src: &str) -> SymbolTable {
        let ws = Workspace {
            files: vec![SourceFile {
                rel: "crates/x/src/a.rs".into(),
                lexed: crate::lexer::lex(src),
            }],
        };
        SymbolTable::build(&ws)
    }

    fn find<'t>(t: &'t SymbolTable, name: &str) -> &'t FnSym {
        let id = t.by_name.get(name).and_then(|v| v.first()).copied();
        &t.fns[id.unwrap_or_else(|| panic!("fn `{name}` not found"))]
    }

    #[test]
    fn free_and_method_signatures_are_extracted() {
        let t = table_of(
            "pub fn free(a: u64, b: &str) -> Result<Vec<i64>, CipherError> { body() }\n\
             impl PaillierCtx {\n\
                 pub fn decrypt_i64(&self, ct: &Ciphertext) -> i64 { 0 }\n\
                 fn helper() {}\n\
             }\n\
             impl fmt::Display for PrivateKey { fn fmt(&self, f: &mut Formatter) -> fmt::Result { } }",
        );
        let free = find(&t, "free");
        assert_eq!((free.arity, free.has_self, free.owner.as_deref()), (2, false, None));
        assert_eq!(free.ret, vec!["Result", "Vec", "i64", "CipherError"]);
        let dec = find(&t, "decrypt_i64");
        assert_eq!((dec.arity, dec.has_self), (1, true));
        assert_eq!(dec.owner.as_deref(), Some("PaillierCtx"));
        assert_eq!(dec.ret, vec!["i64"]);
        assert_eq!(find(&t, "helper").owner.as_deref(), Some("PaillierCtx"));
        assert_eq!(find(&t, "fmt").owner.as_deref(), Some("PrivateKey"));
    }

    #[test]
    fn generic_signatures_and_closure_bounds_do_not_derail_the_parse() {
        let t = table_of(
            "pub fn run<F: Fn(u64) -> u64, T>(job: F, items: Vec<BTreeMap<String, T>>) -> bool { x() }",
        );
        let f = find(&t, "run");
        assert_eq!(f.arity, 2);
        assert_eq!(f.ret, vec!["bool"]);
        assert_eq!(f.param_names, vec!["job", "items"]);
    }

    #[test]
    fn trait_declarations_carry_the_trait_as_owner() {
        let t = table_of(
            "pub trait HomCipher: Send + Sync {\n\
                 fn decrypt_i64(&self, ct: &Ciphertext) -> i64;\n\
             }",
        );
        let f = find(&t, "decrypt_i64");
        assert_eq!(f.owner.as_deref(), Some("HomCipher"));
        assert!(f.body.is_none());
        assert_eq!(f.ret, vec!["i64"]);
    }

    #[test]
    fn struct_fields_and_enum_payloads_are_collected() {
        let t = table_of(
            "pub struct Keys { pub enc: PublicOps, dec: PaillierCtx, n: BTreeMap<u64, Vec<u8>> }\n\
             pub struct Wrapper(PrivateKey, u64);\n\
             pub enum Msg { Sealed(Ciphertext), Open { value: PlainCounter } }\n\
             pub struct Unit;",
        );
        let keys = t.types.iter().find(|s| s.name == "Keys").expect("Keys");
        assert!(keys.field_types.contains(&"PaillierCtx".to_string()));
        assert!(keys.field_types.contains(&"PublicOps".to_string()));
        assert!(!keys.field_types.contains(&"dec".to_string()), "{:?}", keys.field_types);
        let wrap = t.types.iter().find(|s| s.name == "Wrapper").expect("Wrapper");
        assert!(wrap.field_types.contains(&"PrivateKey".to_string()));
        let msg = t.types.iter().find(|s| s.name == "Msg").expect("Msg");
        assert!(msg.field_types.contains(&"PlainCounter".to_string()));
        assert!(msg.field_types.contains(&"Ciphertext".to_string()));
        // Variant names and struct-payload field names are constructors
        // and labels, not contained types.
        assert!(!msg.field_types.contains(&"Sealed".to_string()), "{:?}", msg.field_types);
        assert!(!msg.field_types.contains(&"Open".to_string()));
        assert!(!msg.field_types.contains(&"value".to_string()));
        assert!(t.types.iter().any(|s| s.name == "Unit"));
    }

    #[test]
    fn macro_rules_bodies_mint_no_symbols() {
        let t = table_of(
            "macro_rules! gen { ($n:ident) => { fn $n() {} fn phantom_inner() {} }; }\n\
             fn real() {}",
        );
        assert!(t.by_name.contains_key("real"));
        assert!(!t.by_name.contains_key("phantom_inner"));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let t = table_of("#[cfg(test)]\nmod tests { fn t_helper() {} }\nfn prod() {}");
        assert!(find(&t, "t_helper").in_test);
        assert!(!find(&t, "prod").in_test);
    }
}
