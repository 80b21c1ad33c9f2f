//! `gridlint.toml` — the checked-in rule configuration.
//!
//! Parsed with a hand-rolled TOML-subset reader (sections, string /
//! string-array / integer / boolean values, `#` comments) so the lint
//! crate stays free of external dependencies. The subset is exactly what
//! the checked-in config uses; anything else is a load error, which the
//! CLI maps to exit code 2.

use std::collections::BTreeMap;

/// One rule family's module scoping: `deny` path prefixes minus `allow`
/// path prefixes (both repo-relative, `/`-separated).
#[derive(Clone, Debug, Default)]
pub struct Scope {
    pub deny: Vec<String>,
    pub allow: Vec<String>,
}

impl Scope {
    /// Whether `path` (repo-relative) is in scope.
    pub fn contains(&self, path: &str) -> bool {
        self.deny.iter().any(|p| path.starts_with(p.as_str()))
            && !self.allow.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Parsed `gridlint.toml`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Path prefixes excluded from the walk entirely (fixtures, target).
    pub exclude: Vec<String>,

    /// privacy-taint: modules that must stay key-blind.
    pub taint_scope: Scope,
    /// Identifiers whose mere mention taints a key-blind module.
    pub secret_idents: Vec<String>,
    /// Method names flagged when invoked as `.name(` in a tainted scope.
    pub secret_methods: Vec<String>,
    /// Types that must not derive or implement `Debug`/`Display`
    /// anywhere in the workspace.
    pub secret_types: Vec<String>,

    /// obs-parity: where the `Event` enum lives, which files may satisfy
    /// the every-variant-emitted check, tally→event pairing map and the
    /// adjacency window in lines.
    pub event_enum: String,
    pub emit_scope: Scope,
    pub pair_scope: Scope,
    pub pairs: BTreeMap<String, String>,
    pub pair_window: u32,

    /// taint-flow: path prefixes whose fns seed the interprocedural
    /// taint (the decryption producers), and the seed name patterns.
    pub flow_seed_scope: Vec<String>,
    pub flow_seed_names: Vec<String>,
    pub flow_seed_prefixes: Vec<String>,
    /// Types whose return taints a fn regardless of scope, plus every
    /// struct/enum transitively containing one.
    pub flow_value_types: Vec<String>,
    /// Reviewed consumers (controller/SFE gate): call-propagation stops
    /// at these path prefixes.
    pub flow_declassify: Vec<String>,
    /// Return-type idents that declassify a fn's output (one-bit SFE
    /// verdicts, error enums, plain sizes).
    pub flow_clear_returns: Vec<String>,
    /// Wire-encoder call names: a tainted call among their arguments is
    /// a sink.
    pub flow_sink_calls: Vec<String>,

    /// lock-order: files whose functions contribute lock acquisitions.
    pub lock_order_scope: Scope,
}

/// A scalar or array value in the TOML subset.
#[derive(Clone, Debug)]
enum Value {
    Str(String),
    Arr(Vec<String>),
    Int(i64),
}

impl Config {
    /// Every configured scope and allow path (`exclude` names what
    /// the walk skips, so it is not among them). Each is a prefix that
    /// must match some walked file: one that matches none (a deleted or
    /// misspelt module) scopes nothing.
    pub fn paths(&self) -> impl Iterator<Item = &String> {
        let scopes =
            [&self.taint_scope, &self.emit_scope, &self.pair_scope, &self.lock_order_scope];
        let lists = [&self.flow_seed_scope, &self.flow_declassify];
        scopes
            .into_iter()
            .flat_map(|s| s.deny.iter().chain(&s.allow))
            .chain(lists.into_iter().flatten())
    }

    /// Parses the TOML-subset text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut sections: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
        let mut current = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((no, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Multiline array: join continuation lines (comments stripped)
            // until the closing bracket.
            let mut joined;
            let mut line = line;
            if line.contains('[') && !line.starts_with('[') && !line.contains(']') {
                joined = line.to_string();
                for (_, cont) in lines.by_ref() {
                    let cont = cont.trim();
                    let cont = cont.split_once('#').map_or(cont, |(c, _)| c.trim_end());
                    joined.push_str(cont);
                    if cont.contains(']') {
                        break;
                    }
                }
                if !joined.contains(']') {
                    return Err(format!("line {}: unterminated array", no + 1));
                }
                line = &joined;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", no + 1))?;
                current = name.trim().to_string();
                sections.entry(current.clone()).or_default();
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", no + 1))?;
            let value = parse_value(val.trim())
                .ok_or_else(|| format!("line {}: unsupported value `{}`", no + 1, val.trim()))?;
            sections.entry(current.clone()).or_default().insert(key.trim().to_string(), value);
        }
        Config::from_sections(&sections)
    }

    fn from_sections(s: &BTreeMap<String, BTreeMap<String, Value>>) -> Result<Config, String> {
        let arr = |sec: &str, key: &str| -> Vec<String> {
            match s.get(sec).and_then(|t| t.get(key)) {
                Some(Value::Arr(v)) => v.clone(),
                Some(Value::Str(v)) => vec![v.clone()],
                _ => Vec::new(),
            }
        };
        let string = |sec: &str, key: &str, default: &str| -> String {
            match s.get(sec).and_then(|t| t.get(key)) {
                Some(Value::Str(v)) => v.clone(),
                _ => default.to_string(),
            }
        };
        let int = |sec: &str, key: &str, default: i64| -> i64 {
            match s.get(sec).and_then(|t| t.get(key)) {
                Some(Value::Int(v)) => *v,
                _ => default,
            }
        };

        let mut pairs = BTreeMap::new();
        if let Some(table) = s.get("obs-parity.pairs") {
            for (k, v) in table {
                match v {
                    Value::Str(event) => {
                        pairs.insert(k.clone(), event.clone());
                    }
                    _ => return Err(format!("obs-parity.pairs.{k}: expected a string")),
                }
            }
        }

        Ok(Config {
            exclude: arr("", "exclude"),
            taint_scope: Scope {
                deny: arr("privacy-taint", "deny"),
                allow: arr("privacy-taint", "allow"),
            },
            secret_idents: arr("privacy-taint", "secret_idents"),
            secret_methods: arr("privacy-taint", "secret_methods"),
            secret_types: arr("privacy-taint", "secret_types"),
            event_enum: string("obs-parity", "event_enum", "crates/obs/src/event.rs"),
            emit_scope: Scope {
                deny: arr("obs-parity", "emit_scan"),
                allow: arr("obs-parity", "emit_allow"),
            },
            pair_scope: Scope {
                deny: arr("obs-parity", "pair_scan"),
                allow: arr("obs-parity", "pair_allow"),
            },
            pairs,
            pair_window: int("obs-parity", "window", 4) as u32,
            flow_seed_scope: arr("taint-flow", "seed_scope"),
            flow_seed_names: arr("taint-flow", "seed_names"),
            flow_seed_prefixes: arr("taint-flow", "seed_prefixes"),
            flow_value_types: arr("taint-flow", "value_types"),
            flow_declassify: arr("taint-flow", "declassify"),
            flow_clear_returns: arr("taint-flow", "clear_returns"),
            flow_sink_calls: arr("taint-flow", "sink_calls"),
            lock_order_scope: Scope {
                deny: arr("lock-order", "scan"),
                allow: arr("lock-order", "allow"),
            },
        })
    }
}

fn parse_value(v: &str) -> Option<Value> {
    if let Some(body) = v.strip_prefix('"') {
        let body = body.strip_suffix('"')?;
        if body.contains('"') {
            return None;
        }
        return Some(Value::Str(body.to_string()));
    }
    if let Some(body) = v.strip_prefix('[') {
        // Arrays may carry a trailing inline comment after the `]`.
        let body = body.split_once(']')?.0;
        let mut out = Vec::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let s = item.strip_prefix('"')?.strip_suffix('"')?;
            out.push(s.to_string());
        }
        return Some(Value::Arr(out));
    }
    v.parse::<i64>().ok().map(Value::Int)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let cfg = Config::parse(
            r#"
# comment
exclude = ["crates/lint/tests/fixtures"]

[privacy-taint]
deny = ["crates/core/src/broker.rs", "crates/sim/src"]
secret_idents = ["decrypt_i64"]
secret_types = ["PrivateKey"]

[lock-order]
scan = ["crates/obs/src"]

[obs-parity]
event_enum = "crates/obs/src/event.rs"
emit_scan = ["crates/core/src"]
pair_scan = ["crates/core/src"]
window = 6

[obs-parity.pairs]
crashes = "ResourceCrashed"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.exclude, vec!["crates/lint/tests/fixtures"]);
        assert!(cfg.taint_scope.contains("crates/sim/src/engine.rs"));
        assert!(!cfg.taint_scope.contains("crates/core/src/controller.rs"));
        assert_eq!(cfg.secret_types, vec!["PrivateKey"]);
        assert!(cfg.lock_order_scope.contains("crates/obs/src/recorder.rs"));
        assert_eq!(cfg.pair_window, 6);
        assert_eq!(cfg.pairs.get("crashes").map(String::as_str), Some("ResourceCrashed"));
    }

    #[test]
    fn allow_carves_out_of_deny() {
        let s = Scope {
            deny: vec!["crates/core/src".into()],
            allow: vec!["crates/core/src/controller.rs".into()],
        };
        assert!(s.contains("crates/core/src/broker.rs"));
        assert!(!s.contains("crates/core/src/controller.rs"));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Config::parse("not a kv line").is_err());
        assert!(Config::parse("[unterminated").is_err());
        assert!(Config::parse("x = {inline_table = 1}").is_err());
    }
}
