//! Fixture corpus: drives the real `gridlint` binary over three
//! miniature workspaces and pins down exact diagnostics and exit codes
//! for every rule family, the suppression meta-rule, and the CLI's
//! error paths.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn gridlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gridlint")).args(args).output().expect("spawn gridlint")
}

fn run_fixture(name: &str, extra: &[&str]) -> (i32, String, String) {
    let root = fixture(name);
    let mut args = vec!["--root", root.to_str().expect("utf-8 fixture path")];
    args.extend_from_slice(extra);
    let out = gridlint(&args);
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

// ── clean fixture: every rule passes, justified waiver honored ────────

#[test]
fn clean_fixture_exits_zero_with_one_suppressed_finding() {
    let (code, stdout, stderr) = run_fixture("clean", &[]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("4 files scanned, 0 live finding(s), 3 suppressed"), "{stdout}");
    assert!(!stdout.contains("error[gridlint::"), "clean tree must not report errors: {stdout}");
}

#[test]
fn clean_fixture_json_reports_the_suppression_as_non_live() {
    let (code, stdout, _) = run_fixture("clean", &["--format", "json"]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains(
            "{\"rule\":\"privacy-taint\",\"file\":\"crates/core/src/broker.rs\",\"line\":20,\
             \"suppressed\":true,"
        ),
        "{stdout}"
    );
    // One `allow(privacy-taint, taint-flow)` trailing waiver covers two
    // different-rule findings on the same line.
    for rule in ["privacy-taint", "taint-flow"] {
        let line = format!(
            "{{\"rule\":\"{rule}\",\"file\":\"crates/core/src/broker.rs\",\"line\":25,\
             \"suppressed\":true,"
        );
        assert!(stdout.contains(&line), "{stdout}");
    }
    assert!(stdout.contains("{\"summary\":true,\"files\":4,\"live\":0,\"suppressed\":3}"));
}

#[test]
fn quiet_mode_prints_nothing_but_keeps_the_exit_code() {
    let (code, stdout, _) = run_fixture("clean", &["--quiet"]);
    assert_eq!(code, 0);
    assert!(stdout.is_empty(), "{stdout}");
}

// ── dirty fixture: one of everything, all live ────────────────────────

/// Every diagnostic the dirty tree must produce, as (rule, file, line,
/// message fragment). The corpus is the spec: adding a rule without a
/// bad-fixture witness fails this list.
const DIRTY_EXPECTED: &[(&str, &str, u32, &str)] = &[
    (
        "privacy-taint",
        "crates/core/src/broker.rs",
        3,
        "key-blind module references secret item `PlainCounter`",
    ),
    (
        "privacy-taint",
        "crates/core/src/broker.rs",
        4,
        "key-blind module calls decrypting method `.open(\u{2026})`",
    ),
    (
        "privacy-taint",
        "crates/paillier/src/keys.rs",
        2,
        "secret type `PrivateKey` derives Debug/Display",
    ),
    // Serialize leaks what a withheld Debug protects: JSON prints the
    // coefficients of a tag key as readily as `{:?}` would.
    (
        "privacy-taint",
        "crates/paillier/src/keys.rs",
        7,
        "secret type `TagKey` derives Debug/Display/Serialize",
    ),
    (
        "privacy-taint",
        "crates/paillier/src/keys.rs",
        11,
        "secret type `PrivateKey` implements Debug/Display/Serialize",
    ),
    // The net crate's wire modules are key-blind by the same contract
    // as the broker: a decode path naming a decryptor is a taint leak.
    (
        "privacy-taint",
        "crates/net/src/wire.rs",
        5,
        "key-blind module references secret item `decrypt_i64`",
    ),
    (
        "obs-parity",
        "crates/core/src/broker.rs",
        8,
        "tally `crashes` incremented without an adjacent `Event::ResourceCrashed` emission",
    ),
    ("obs-parity", "crates/obs/src/event.rs", 2, "`Event::ResourceCrashed` is declared but never"),
    ("obs-parity", "crates/obs/src/event.rs", 3, "`Event::NeverEmitted` is declared but never"),
    ("suppression", "crates/core/src/miner.rs", 4, "lacks a justification"),
    ("suppression", "crates/core/src/miner.rs", 9, "suppresses nothing on line 10"),
    // A family that clippy holds is an unknown rule to gridlint, so no
    // waiver for it can linger.
    (
        "suppression",
        "crates/core/src/miner.rs",
        11,
        "`gridlint: allow(determinism)` names an unknown rule",
    ),
    // Interprocedural witness: the secret crosses two intermediate
    // functions (fetch_plain, relay) before landing in the key-blind
    // wire module, and the diagnostic carries the whole call chain.
    (
        "taint-flow",
        "crates/net/src/wire.rs",
        11,
        "key-blind module receives secret material from `relay(\u{2026})`: \
         relay (crates/paillier/src/helper.rs:18) -> \
         fetch_plain (crates/paillier/src/helper.rs:13) -> \
         decrypt_share(\u{2026}) at line 14 [decryption seed]",
    ),
    (
        "lock-order",
        "crates/obs/src/recorder.rs",
        12,
        "lock-order cycle between {obs::events, obs::out}",
    ),
    // A waiver inside a #[cfg(test)] region can cover nothing (tests are
    // exempt) and must never reach the production line after the region.
    ("suppression", "crates/core/src/miner.rs", 21, "inside a #[cfg(test)] region is inert"),
];

#[test]
fn dirty_fixture_reports_every_expected_diagnostic_and_exits_one() {
    let (code, stdout, _) = run_fixture("dirty", &[]);
    assert_eq!(code, 1, "{stdout}");
    for (rule, file, line, fragment) in DIRTY_EXPECTED {
        let header = format!("error[gridlint::{rule}]: {file}:{line}: ");
        let hit = stdout.lines().any(|l| l.starts_with(&header) && l.contains(fragment));
        assert!(hit, "missing diagnostic {header}…{fragment}\n{stdout}");
    }
    assert!(
        stdout.contains("7 files scanned, 15 live finding(s), 0 suppressed"),
        "no unexpected extras allowed:\n{stdout}"
    );
}

#[test]
fn dirty_fixture_json_counts_match_the_table() {
    let (code, stdout, _) = run_fixture("dirty", &["--format", "json"]);
    assert_eq!(code, 1);
    assert_eq!(
        stdout.lines().count(),
        DIRTY_EXPECTED.len() + 1,
        "one object per finding: {stdout}"
    );
    assert!(stdout.contains("{\"summary\":true,\"files\":7,\"live\":15,\"suppressed\":0}"));
    assert!(stdout.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}

// ── SARIF: schema-pinned machine output for CI upload ─────────────────

#[test]
fn sarif_output_pins_schema_version_and_rule_ids() {
    let (code, stdout, _) = run_fixture("dirty", &["--format", "sarif"]);
    assert_eq!(code, 1, "sarif must keep the live exit code");
    assert!(
        stdout.starts_with(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"gridlint\","
        ),
        "{stdout}"
    );
    // Every rule family is declared, SARIF-style, in the driver block.
    for rule in ["privacy-taint", "taint-flow", "lock-order", "obs-parity", "suppression"] {
        assert!(stdout.contains(&format!("{{\"id\":\"{rule}\"}}")), "missing rule {rule}");
    }
    assert!(
        stdout.contains(
            "{\"ruleId\":\"lock-order\",\"level\":\"error\",\"message\":{\"text\":\
             \"lock-order cycle between {obs::events, obs::out}"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "\"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
             {\"uri\":\"crates/obs/src/recorder.rs\"},\"region\":{\"startLine\":12}}}]"
        ),
        "{stdout}"
    );
}

#[test]
fn sarif_marks_waived_findings_with_in_source_suppressions() {
    let (code, stdout, _) = run_fixture("clean", &["--format", "sarif"]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains(
            "\"suppressions\":[{\"kind\":\"inSource\",\"justification\":\
             \"std::fs::OpenOptions::open, not a sealed-counter open\"}]"
        ),
        "{stdout}"
    );
    // Exactly the three waived findings carry a suppressions array.
    assert_eq!(stdout.matches("\"suppressions\":[").count(), 3, "{stdout}");
}

// ── error paths ───────────────────────────────────────────────────────

#[test]
fn broken_config_exits_two_with_a_parse_error() {
    let (code, _, stderr) = run_fixture("broken", &[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unterminated array"), "{stderr}");
}

#[test]
fn unreadable_source_file_exits_two_and_names_the_path() {
    let dir = std::env::temp_dir().join("gridlint-bad-utf8");
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::copy(fixture("clean").join("gridlint.toml"), dir.join("gridlint.toml"))
        .expect("copy config");
    // Invalid UTF-8: the scan must refuse the file loudly, not lint a
    // lossy decode of it or panic.
    std::fs::write(src.join("junk.rs"), b"pub fn f() {}\n\xff\xfe\x80bad\n").expect("write");
    let out = gridlint(&["--root", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("junk.rs"), "must name the offending file: {stderr}");
}

#[test]
fn missing_config_exits_two() {
    let dir = std::env::temp_dir().join("gridlint-no-config");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = gridlint(&["--root", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read config"));
}

#[test]
fn a_configured_path_that_matches_no_file_exits_two_and_names_it() {
    let dir = std::env::temp_dir().join("gridlint-dead-path");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("engine.rs"), "pub fn run() {}\n").expect("write");
    let config = |scan: &str| {
        let text = format!("[lock-order]\nscan = {scan}\n");
        std::fs::write(dir.join("gridlint.toml"), text).expect("write config");
    };
    let root = dir.to_str().expect("utf-8 temp path");
    config(r#"["crates/sim/src/engine.rs"]"#);
    assert_eq!(gridlint(&["--root", root, "--quiet"]).status.code(), Some(0));
    // The scheduler module was deleted; its scan entry was not.
    config(r#"["crates/sim/src/engine.rs", "crates/sim/src/wheel.rs"]"#);
    for mode in [&["--quiet"][..], &["--lock-graph"]] {
        let out = gridlint(&[&["--root", root][..], mode].concat());
        assert_eq!(out.status.code(), Some(2), "{mode:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            stderr.contains("configured path `crates/sim/src/wheel.rs` matches no file"),
            "{stderr}"
        );
    }
}

#[test]
fn unknown_flag_exits_two() {
    let out = gridlint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}
