//! Self-tests for `debruijn-lint`: every rule is demonstrated live by a
//! known-bad fixture asserted to produce exactly the expected
//! diagnostics, the known-good corpus is asserted clean, and the real
//! workspace is asserted clean under the checked-in policy (the same
//! gate CI runs).

use debruijn_lint::{lint_file, lint_workspace, Config, Rule};
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let contents = std::fs::read_to_string(&path).expect("fixture readable");
    (PathBuf::from(rel), contents)
}

/// Lints one fixture and returns its `(rule, line)` pairs, sorted.
fn findings(rel: &str, config: &Config) -> Vec<(Rule, usize)> {
    let (path, contents) = fixture(rel);
    let mut out: Vec<(Rule, usize)> = lint_file(&path, &contents, config)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect();
    out.sort();
    out
}

/// A config that points the path-scoped rules at the fixture names.
fn fixture_config() -> Config {
    let mut c = Config::repo_default();
    c.no_panic_modules = vec![
        PathBuf::from("panic_path.rs"),
        PathBuf::from("clean_module.rs"),
    ];
    c
}

#[test]
fn missing_safety_comment_fires_per_unsafe_site() {
    assert_eq!(
        findings("bad/missing_safety.rs", &fixture_config()),
        vec![
            (Rule::SafetyComment, 5),
            (Rule::SafetyComment, 8),
            (Rule::SafetyComment, 12),
        ]
    );
}

#[test]
fn ordering_without_header_fires() {
    assert_eq!(
        findings("bad/relaxed_no_header.rs", &fixture_config()),
        vec![(Rule::AtomicsHeader, 5)]
    );
}

#[test]
fn weak_header_fires_for_unlisted_ordering_and_unjustified_relaxed() {
    assert_eq!(
        findings("bad/relaxed_weak_header.rs", &fixture_config()),
        vec![(Rule::AtomicsHeader, 9), (Rule::AtomicsHeader, 13)]
    );
}

#[test]
fn crate_root_without_forbid_fires() {
    assert_eq!(
        findings("bad/missing_forbid/src/lib.rs", &fixture_config()),
        vec![(Rule::ForbidUnsafe, 1)]
    );
}

#[test]
fn panic_family_on_the_repair_path_fires() {
    assert_eq!(
        findings("bad/panic_path.rs", &fixture_config()),
        vec![
            (Rule::NoPanicPath, 6),
            (Rule::NoPanicPath, 7),
            (Rule::NoPanicPath, 9),
            (Rule::NoPanicPath, 11),
        ]
    );
}

#[test]
fn good_corpus_is_clean() {
    // clean_module.rs is linted AS a no-panic path module (the config
    // names it), so its PANIC-OK waiver and cfg(test) exemption are
    // exercised, not skipped.
    assert_eq!(findings("good/clean_module.rs", &fixture_config()), vec![]);
    assert_eq!(
        findings("good/forbidden/src/lib.rs", &fixture_config()),
        vec![]
    );
}

#[test]
fn real_workspace_is_clean_under_the_checked_in_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = lint_workspace(root, &Config::repo_default());
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}
