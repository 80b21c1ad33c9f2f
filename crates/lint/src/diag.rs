//! Diagnostics: the lint's output vocabulary and its two renderings —
//! a rustc-style human listing (with a summary `obs::Table`) and flat
//! JSON lines for CI.

use gridmine_obs::Table;

/// The four enforced rule families plus the meta-rule about
/// suppressions themselves.
pub const RULES: [&str; 5] =
    ["privacy-taint", "taint-flow", "lock-order", "obs-parity", "suppression"];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule family name (one of [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
    /// Justification text when an inline `gridlint: allow` covered this
    /// finding; `None` for live findings.
    pub suppressed: Option<String>,
}

impl Diagnostic {
    pub fn new(rule: &'static str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic { rule, file: file.to_string(), line, message: message.into(), suppressed: None }
    }

    /// `error[gridlint::lock-order]: crates/…/recorder.rs:134: message`.
    pub fn render(&self) -> String {
        let level = if self.suppressed.is_some() { "allowed" } else { "error" };
        format!(
            "{level}[gridlint::{}]: {}:{}: {}{}",
            self.rule,
            self.file,
            self.line,
            self.message,
            match &self.suppressed {
                Some(j) => format!(" (suppressed: {j})"),
                None => String::new(),
            }
        )
    }

    /// One flat JSON object, `{"rule":…,"file":…,"line":…,…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"rule\":\"");
        out.push_str(self.rule);
        out.push_str("\",\"file\":\"");
        json_escape_into(&mut out, &self.file);
        out.push_str("\",\"line\":");
        out.push_str(&self.line.to_string());
        out.push_str(",\"suppressed\":");
        out.push_str(if self.suppressed.is_some() { "true" } else { "false" });
        out.push_str(",\"message\":\"");
        json_escape_into(&mut out, &self.message);
        out.push_str("\"}");
        out
    }
}

fn json_escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

/// The human report: every live finding rustc-style, then a per-rule
/// summary table (live vs suppressed counts).
pub fn render_report(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags.iter().filter(|d| d.suppressed.is_none()) {
        out.push_str(&d.render());
        out.push('\n');
    }
    let mut table = Table::new(["rule", "live", "suppressed"]);
    for rule in RULES {
        let live = diags.iter().filter(|d| d.rule == rule && d.suppressed.is_none()).count();
        let supp = diags.iter().filter(|d| d.rule == rule && d.suppressed.is_some()).count();
        table.row([rule.to_string(), live.to_string(), supp.to_string()]);
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str(&table.to_string());
    let live_total = diags.iter().filter(|d| d.suppressed.is_none()).count();
    out.push_str(&format!(
        "\n{files_scanned} files scanned, {live_total} live finding(s), {} suppressed\n",
        diags.len() - live_total
    ));
    out
}

/// The machine report: one JSON object per line, diagnostics then a
/// trailing summary object.
pub fn render_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_json());
        out.push('\n');
    }
    let live = diags.iter().filter(|d| d.suppressed.is_none()).count();
    out.push_str(&format!(
        "{{\"summary\":true,\"files\":{files_scanned},\"live\":{live},\"suppressed\":{}}}\n",
        diags.len() - live
    ));
    out
}

/// SARIF 2.1.0 (the minimal subset code-scanning UIs consume): one run,
/// one result per finding, waivers carried as `suppressions` entries.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"gridlint\",\"rules\":[",
    );
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":\"{rule}\"}}"));
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ruleId\":\"");
        out.push_str(d.rule);
        out.push_str("\",\"level\":\"error\",\"message\":{\"text\":\"");
        json_escape_into(&mut out, &d.message);
        out.push_str("\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"");
        json_escape_into(&mut out, &d.file);
        out.push_str("\"},\"region\":{\"startLine\":");
        out.push_str(&d.line.to_string());
        out.push_str("}}}]");
        if let Some(j) = &d.suppressed {
            out.push_str(",\"suppressions\":[{\"kind\":\"inSource\",\"justification\":\"");
            json_escape_into(&mut out, j);
            out.push_str("\"}]");
        }
        out.push('}');
    }
    out.push_str("]}]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_styles_are_stable() {
        let d = Diagnostic::new(
            "privacy-taint",
            "crates/core/src/broker.rs",
            12,
            "`open` on a wire path",
        );
        assert_eq!(
            d.render(),
            "error[gridlint::privacy-taint]: crates/core/src/broker.rs:12: `open` on a wire path"
        );
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"privacy-taint\",\"file\":\"crates/core/src/broker.rs\",\"line\":12,\"suppressed\":false,\"message\":\"`open` on a wire path\"}"
        );
    }

    #[test]
    fn suppressed_findings_render_as_allowed() {
        let mut d = Diagnostic::new("taint-flow", "a.rs", 1, "m");
        d.suppressed = Some("redacting impl".into());
        assert!(d.render().starts_with("allowed[gridlint::taint-flow]"));
        assert!(d.to_json().contains("\"suppressed\":true"));
    }

    #[test]
    fn report_counts_live_and_suppressed() {
        let mut s = Diagnostic::new("taint-flow", "a.rs", 1, "m");
        s.suppressed = Some("ok".into());
        let live = Diagnostic::new("obs-parity", "b.rs", 2, "n");
        let report = render_report(&[s, live], 7);
        assert!(report.contains("7 files scanned, 1 live finding(s), 1 suppressed"));
        assert!(report.contains("error[gridlint::obs-parity]"));
        assert!(!report.contains("error[gridlint::taint-flow]"));
    }
}
