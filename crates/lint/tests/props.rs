//! Panic-freedom for the linter itself: gridlint consumes arbitrary
//! bytes from disk (a hostile or merely broken tree must draw a clean
//! diagnostic or a clean exit, never a crash), so the whole pipeline —
//! lexer, config parser, symbol table, call graph, every rule family —
//! is run here over byte soup and pathologically nested token streams.

use gridmine_lint::config::Config;
use gridmine_lint::workspace::{SourceFile, Workspace};
use gridmine_lint::{lexer, rules};
use proptest::prelude::*;

/// A config that puts the generated file inside every rule's scope, so
/// fuzz inputs exercise every analysis, not just the lexer.
fn full_scope_config() -> Config {
    Config::parse(concat!(
        "[privacy-taint]\n",
        "deny = [\"crates/fuzz/src\"]\n",
        "secret_idents = [\"decrypt_i64\"]\n",
        "secret_methods = [\"open\"]\n",
        "secret_types = [\"PrivateKey\"]\n",
        "[taint-flow]\n",
        "seed_scope = [\"crates/fuzz/src\"]\n",
        "seed_names = [\"open_counter\"]\n",
        "seed_prefixes = [\"decrypt\"]\n",
        "value_types = [\"PrivateKey\"]\n",
        "clear_returns = [\"bool\", \"usize\"]\n",
        "sink_calls = [\"encode_frame\"]\n",
        "[lock-order]\n",
        "scan = [\"crates/fuzz/src\"]\n",
        "[obs-parity]\n",
        "event_enum = \"crates/fuzz/src/soup.rs\"\n",
        "emit_scan = [\"crates/fuzz/src\"]\n",
        "pair_scan = [\"crates/fuzz/src\"]\n",
        "window = 3\n",
        "[obs-parity.pairs]\n",
        "crashes = \"ResourceCrashed\"\n",
    ))
    .expect("fuzz config parses")
}

/// Runs the full pipeline (lex, symbols, call graph, all rule families)
/// over one in-memory file. The property under test is simply "returns";
/// any panic fails the case.
fn lint_soup(src: &str) {
    let cfg = full_scope_config();
    let ws = Workspace {
        files: vec![SourceFile {
            rel: "crates/fuzz/src/soup.rs".to_string(),
            lexed: lexer::lex(src),
        }],
    };
    let diags = rules::run_all(&ws, &cfg);
    // Diagnostics must always render, whatever the input looked like.
    for d in &diags {
        let _ = d.render();
        assert!(!d.file.is_empty());
    }
    let _ = gridmine_lint::diag::render_sarif(&diags);
}

/// Fragments chosen to collide with everything the lexer and the rules
/// special-case: region markers, waivers, acquisitions, seeds, sinks.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "->",
    "::",
    ".",
    "#",
    "fn",
    "pub",
    "impl",
    "mod",
    "use",
    "let",
    "struct",
    "enum",
    "match",
    "#[cfg(test)]",
    "#[test]",
    "mod tests",
    "fn decrypt_x(",
    ") -> PrivateKey",
    "self.a.lock()",
    ".read()",
    ".write()",
    "drop(g)",
    "Event::Crashed {",
    "// gridlint: allow(",
    "privacy-taint",
    "-- because",
    "\"str \\\" lit\"",
    "'\\''",
    "r#\"raw\"#",
    "/* block",
    "*/",
    "// line\n",
    "\n",
    "\t",
    " ",
    "b'\\xff'",
    "0xfff",
    "é",
    "∀",
    "\u{0}",
];

fn fragment() -> impl Strategy<Value = &'static str> {
    (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw byte soup (lossy-decoded, as the CLI never does — it rejects
    /// invalid UTF-8 — but the library must still hold) never panics.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        lint_soup(&String::from_utf8_lossy(&bytes));
    }

    /// Streams of adversarial token fragments — unbalanced braces,
    /// truncated waivers, dangling cfg(test) attributes, unterminated
    /// strings and block comments — never panic.
    #[test]
    fn fragment_soup_never_panics(parts in prop::collection::vec(fragment(), 0..160)) {
        lint_soup(&parts.concat());
    }

    /// Pathological nesting: deep uniform bracket towers with a payload
    /// in the middle stress every depth counter in the pipeline.
    #[test]
    fn pathological_nesting_never_panics(
        depth in 0usize..300,
        open in 0..3usize,
        payload in fragment(),
    ) {
        let pairs = [("{", "}"), ("(", ")"), ("[", "]")];
        let (o, c) = pairs[open];
        let src =
            format!("fn f() {} {}{}{} {}", "{", o.repeat(depth), payload, c.repeat(depth), "}");
        lint_soup(&src);
    }

    /// The config parser itself survives byte soup: it may reject, it
    /// must not panic.
    #[test]
    fn config_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..384)) {
        let _ = Config::parse(&String::from_utf8_lossy(&bytes));
    }
}
