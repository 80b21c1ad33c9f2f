//! A hand-rolled Rust lexer, sufficient for structural linting.
//!
//! No expression parsing and no `syn` (offline-shims policy): the rules
//! only need an accurate *token* stream — identifiers and punctuation
//! with line numbers, string/char/comment contents excluded so banned
//! names inside literals or docs never fire — plus two structural
//! overlays recovered from the same pass: which lines sit inside
//! `#[cfg(test)]`/`#[test]` items, and where `// gridlint: allow(...)`
//! suppression comments sit.

/// What a token is, at the granularity the rules care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (`{`, `[`, `!`, `:`, …).
    Punct,
    /// String/char/byte literal (contents dropped).
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text, or the punctuation character as a 1-char string.
    /// Empty for literals.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]` / `#[test]` item
    /// body — test scaffolding is the trusted observer and exempt from
    /// the protocol rules.
    pub in_test: bool,
}

/// A `// gridlint: allow(rule, ...) -- justification` comment.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Rule names listed in `allow(...)`.
    pub rules: Vec<String>,
    /// Justification text after `--` (trimmed); empty when missing.
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// True when the comment shares its line with code (suppresses that
    /// line); false when it stands alone (suppresses the next line).
    pub trailing: bool,
    /// True when the comment sits inside a `#[cfg(test)]`/`#[test]`
    /// region. Tests are exempt from every rule, so such a waiver can
    /// never suppress anything — it is reported as inert rather than
    /// silently matched against production lines (the old behavior let a
    /// waiver on the last line of a test module swallow a finding on the
    /// production line after it).
    pub in_test: bool,
}

/// Full lex result for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub suppressions: Vec<Suppression>,
}

/// Lexes one Rust source file.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
        line_has_code: false,
    };
    lx.run();
    mark_test_regions(&mut lx.out.toks);
    // A suppression is in a test region only when its source neighbors on
    // *both* sides are (conservative AND: a waiver straddling the
    // region's closing brace still counts as inside it).
    for s in &mut lx.out.suppressions {
        let before = lx.out.toks.iter().rev().find(|t| t.line <= s.line).map(|t| t.in_test);
        let after = lx.out.toks.iter().find(|t| t.line > s.line).map(|t| t.in_test);
        s.in_test = match (before, after) {
            (Some(a), Some(b)) => a && b,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => false,
        };
    }
    lx.out
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
    /// Whether a code token has appeared on the current source line
    /// (decides trailing vs standalone for suppression comments).
    line_has_code: bool,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.line_has_code = false;
        }
        c.into()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.line_has_code = true;
        self.out.toks.push(Tok { kind, text, line: self.line, in_test: false });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' | 'b' if self.raw_or_byte_literal() => {}
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphanumeric() => self.ident(),
                c => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string());
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.line_has_code;
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(s) = parse_suppression(&text, line, trailing) {
            self.out.suppressions.push(s);
        }
    }

    fn block_comment(&mut self) {
        // `/*` consumed below; nesting tracked like rustc does.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind: TokKind::Literal,
            text: String::new(),
            line,
            in_test: false,
        });
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`. Returns false when the
    /// leading `r`/`b` is just an identifier start.
    fn raw_or_byte_literal(&mut self) -> bool {
        let mut ahead = 1;
        if self.peek() == Some('b') && self.peek_at(1) == Some('r') {
            ahead = 2;
        }
        let mut hashes = 0usize;
        while self.peek_at(ahead) == Some('#') {
            ahead += 1;
            hashes += 1;
        }
        let raw = self.peek() == Some('r') || self.peek_at(1) == Some('r');
        if self.peek_at(ahead) != Some('"') || (hashes > 0 && !raw) {
            return false;
        }
        if !raw && hashes == 0 && self.peek() == Some('b') && self.peek_at(1) == Some('"') {
            // b"…" — plain byte string: delegate to the escape-aware scanner.
            self.bump();
            self.string_literal();
            return true;
        }
        if !raw {
            return false;
        }
        let line = self.line;
        for _ in 0..=ahead {
            self.bump();
        }
        // Scan to `"` followed by `hashes` hash marks.
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek_at(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind: TokKind::Literal,
            text: String::new(),
            line,
            in_test: false,
        });
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // `'a` with no closing quote is a lifetime; `'a'`, `'\n'` are chars.
        let c1 = self.peek_at(1);
        let is_lifetime =
            matches!(c1, Some(c) if c == '_' || c.is_alphabetic()) && self.peek_at(2) != Some('\'');
        if is_lifetime {
            self.bump();
            let mut text = String::new();
            while let Some(c) = self.peek() {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.line_has_code = true;
            self.out.toks.push(Tok { kind: TokKind::Lifetime, text, line, in_test: false });
            return;
        }
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind: TokKind::Literal,
            text: String::new(),
            line,
            in_test: false,
        });
    }

    fn number(&mut self) {
        let line = self.line;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                // Greedy enough for 1_000, 0xFF, 1.5e3, 42usize; `1..n`
                // would swallow the range dots, so stop at `..`.
                if c == '.' && self.peek_at(1) == Some('.') {
                    break;
                }
                self.bump();
            } else {
                break;
            }
        }
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind: TokKind::Number,
            text: String::new(),
            line,
            in_test: false,
        });
    }

    fn ident(&mut self) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text);
    }
}

/// Parses `gridlint: allow(rule, rule2) -- justification` out of a line
/// comment's text (which still carries the leading slashes).
fn parse_suppression(comment: &str, line: u32, trailing: bool) -> Option<Suppression> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("gridlint:")?.trim();
    let rest = rest.strip_prefix("allow")?.trim();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules =
        rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    let after = rest[close + 1..].trim();
    let justification = after.strip_prefix("--").map(|j| j.trim().to_string()).unwrap_or_default();
    Some(Suppression { rules, justification, line, trailing, in_test: false })
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` item bodies.
///
/// Single forward pass: when a test-gating attribute is seen, the next
/// brace-delimited block at the current depth (skipping further
/// attributes) is flagged, nested blocks included.
fn mark_test_regions(toks: &mut [Tok]) {
    let mut i = 0;
    let mut depth: i32 = 0;
    // Paren/bracket nesting, so a `;` inside `[u8; 32]` or a default
    // argument never reads as an item-ending semicolon.
    let mut pdepth: i32 = 0;
    // (depth at which the flagged block closes) for active test regions.
    let mut test_until: Vec<i32> = Vec::new();
    let mut pending_test = false;
    while i < toks.len() {
        let in_test = !test_until.is_empty();
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "#") if toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") => {
                // Collect the attribute's tokens up to the matching `]`.
                let start = i + 2;
                let mut j = start;
                let mut bdepth = 1;
                while j < toks.len() && bdepth > 0 {
                    match toks[j].text.as_str() {
                        "[" => bdepth += 1,
                        "]" => bdepth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let attr: Vec<&str> =
                    toks[start..j.saturating_sub(1)].iter().map(|t| t.text.as_str()).collect();
                if is_test_attr(&attr) {
                    pending_test = true;
                }
                for t in &mut toks[i..j] {
                    t.in_test = in_test;
                }
                i = j;
                continue;
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending_test {
                    test_until.push(depth);
                    pending_test = false;
                }
            }
            (TokKind::Punct, "}") => {
                if test_until.last() == Some(&depth) {
                    test_until.pop();
                    // The closing brace itself still belongs to the region.
                    toks[i].in_test = true;
                    depth -= 1;
                    i += 1;
                    continue;
                }
                depth -= 1;
            }
            (TokKind::Punct, "(" | "[") => pdepth += 1,
            (TokKind::Punct, ")" | "]") => pdepth -= 1,
            (TokKind::Punct, ";") if pending_test && pdepth == 0 => {
                // `#[cfg(test)] mod tests;` / `#[cfg(test)] use x;` — a
                // braceless test-gated item at any brace depth ends here.
                pending_test = false;
            }
            _ => {}
        }
        toks[i].in_test = !test_until.is_empty();
        i += 1;
    }
}

/// Whether an attribute token list gates an item on test builds:
/// `test`, `cfg(test)`, `cfg(all(test, …))`, `cfg_attr(test, …)` — but
/// not `cfg(not(test))`.
fn is_test_attr(attr: &[&str]) -> bool {
    match attr.first() {
        Some(&"test") => attr.len() == 1,
        Some(&"cfg") | Some(&"cfg_attr") => attr.contains(&"test") && !attr.contains(&"not"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, bool)> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text, t.in_test))
            .collect()
    }

    #[test]
    fn strings_comments_and_chars_hide_their_contents() {
        let src = r##"
            fn f() {
                let s = "unwrap() inside a string";
                let r = r#"panic! in raw "quoted" string"#;
                let c = 'x';
                // unwrap in a comment
                /* panic! in /* nested */ block */
                real_ident();
            }
        "##;
        let ids: Vec<String> = idents(src).into_iter().map(|(t, _)| t).collect();
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_the_rest_of_the_file() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { trailing() }";
        let ids: Vec<String> = idents(src).into_iter().map(|(t, _)| t).collect();
        assert!(ids.contains(&"trailing".to_string()));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = r#"
            fn prod() { a(); }
            #[cfg(test)]
            mod tests {
                fn t() { b(); }
            }
            fn prod2() { c(); }
        "#;
        let ids = idents(src);
        let find = |name: &str| ids.iter().find(|(t, _)| t == name).map(|(_, it)| *it);
        assert_eq!(find("a"), Some(false));
        assert_eq!(find("b"), Some(true));
        assert_eq!(find("c"), Some(false));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))] fn prod() { a(); }";
        let ids = idents(src);
        assert_eq!(ids.iter().find(|(t, _)| t == "a").map(|(_, it)| *it), Some(false));
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = r#"
            #[test]
            fn t() { inside(); }
            fn prod() { outside(); }
        "#;
        let ids = idents(src);
        let find = |name: &str| ids.iter().find(|(t, _)| t == name).map(|(_, it)| *it);
        assert_eq!(find("inside"), Some(true));
        assert_eq!(find("outside"), Some(false));
    }

    #[test]
    fn suppressions_parse_with_and_without_justification() {
        let src = "\nlet x = 1; // gridlint: allow(lock-order) -- seeded bound, cannot underflow\n// gridlint: allow(taint-flow, privacy-taint)\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 2);
        let a = &lexed.suppressions[0];
        assert_eq!(a.rules, vec!["lock-order"]);
        assert!(a.trailing);
        assert_eq!(a.justification, "seeded bound, cannot underflow");
        let b = &lexed.suppressions[1];
        assert_eq!(b.rules, vec!["taint-flow", "privacy-taint"]);
        assert!(!b.trailing);
        assert!(b.justification.is_empty());
    }
}
