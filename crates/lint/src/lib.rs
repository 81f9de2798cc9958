//! `debruijn-lint`: the workspace's concurrency-correctness lint.
//!
//! A deliberately lightweight line/token scanner (no syn, no registry
//! deps) that walks every `.rs` file of the workspace and enforces the
//! project invariants that `rustc`/clippy cannot see — the prose claims
//! the concurrent engine's safety rests on, pinned as hard CI errors:
//!
//! * **`safety-comment`** — every `unsafe` block/impl/fn must carry a
//!   `// SAFETY:` comment in the contiguous comment block directly above
//!   it (or trailing on the same line). An unexplained `unsafe` is an
//!   unreviewable one.
//! * **`atomics-header`** — every module that names an atomic memory
//!   ordering (`Ordering::Relaxed`, `Acquire`, `Release`, `AcqRel`,
//!   `SeqCst`) must carry a module-level `ATOMICS:` audit header whose
//!   block names **each** ordering the module uses and the protocol that
//!   justifies it. `Relaxed` is only legal in modules whose header
//!   declares a `barrier-phased` or `single-writer` protocol — those are
//!   the two disciplines under which a relaxed store is provably not a
//!   data-race-hiding shortcut.
//! * **`forbid-unsafe`** — every crate root (`src/lib.rs`,
//!   `src/main.rs`, `src/bin/*.rs`) must declare
//!   `#![forbid(unsafe_code)]`; no workspace crate holds `unsafe` code.
//! * **`no-panic-path`** — in the embed, repair and serve path modules
//!   (`bitreach.rs` and `mem.rs`, whose delta passes and `LevelVec` every
//!   repair batch runs, and `ffc/phases.rs`, `ffc/session.rs`,
//!   `ffc/snapshot.rs` and `serve.rs`) the panic family (`.unwrap()`,
//!   `.expect(`, `panic!`, `todo!`) is forbidden outside `#[cfg(test)]`
//!   code: the repair path returns typed errors, never unwinds. A site
//!   that is unreachable by construction may carry a `// PANIC-OK: <why>`
//!   justification on the same line (or in the comment block directly
//!   above) — the lint turns every such panic into an explicit,
//!   reviewable claim, exactly like `SAFETY:` does for `unsafe`.
//!
//! The scanner strips string literals and comments before matching code
//! tokens (so a log message containing `.unwrap(` or a doc sentence
//! mentioning `unsafe` never fires), and conversely searches only
//! comment text for the `SAFETY:` / `ATOMICS:` / `PANIC-OK:` markers.
//! Known limits (documented, fixture-pinned): nested block comments are
//! treated as one comment, and `#[cfg(test)]` detection assumes the
//! conventional trailing `mod tests { .. }` layout this repo uses.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint rule produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unsafe` without an adjacent `SAFETY:` comment.
    SafetyComment,
    /// Atomic `Ordering::*` use without a covering `ATOMICS:` header.
    AtomicsHeader,
    /// Crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Panic-family call in a no-panic path module.
    NoPanicPath,
}

impl Rule {
    /// The stable id used in diagnostics and fixture assertions.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::AtomicsHeader => "atomics-header",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::NoPanicPath => "no-panic-path",
        }
    }
}

/// One lint finding: file, 1-based line, rule and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the linted root.
    pub path: PathBuf,
    /// 1-based line number the finding anchors to.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Lint configuration: which modules are on the no-panic path, and which
/// directories the walker skips.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path suffixes of modules where the panic family is forbidden.
    pub no_panic_modules: Vec<PathBuf>,
    /// Directory names / relative prefixes the walker skips.
    pub skip: Vec<PathBuf>,
}

impl Config {
    /// The repository's checked-in policy.
    #[must_use]
    pub fn repo_default() -> Self {
        Config {
            no_panic_modules: vec![
                PathBuf::from("crates/core/src/bitreach.rs"),
                PathBuf::from("crates/core/src/mem.rs"),
                PathBuf::from("crates/core/src/ffc/phases.rs"),
                PathBuf::from("crates/core/src/ffc/session.rs"),
                PathBuf::from("crates/core/src/ffc/snapshot.rs"),
                PathBuf::from("crates/core/src/serve.rs"),
            ],
            skip: vec![
                PathBuf::from("target"),
                PathBuf::from(".git"),
                // Deliberately-bad lint fixtures.
                PathBuf::from("crates/lint/tests/fixtures"),
            ],
        }
    }
}

/// The atomic orderings the `atomics-header` rule tracks.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One preprocessed source line.
struct Line {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (delimiters kept), so token matching never fires inside
    /// literals or prose.
    code: String,
    /// Text of the line's comment (after `//`, `//!` or `///`), if any;
    /// for lines inside a block comment, the line's raw text.
    comment: Option<String>,
    /// The line holds nothing but comment (and whitespace).
    comment_only: bool,
    /// The line is a lone attribute (`#[...]` / `#![...]`).
    attr_only: bool,
}

/// Cross-line scanner state: inside a `/* */` comment or a multi-line
/// string literal.
#[derive(Default)]
struct ScanState {
    in_block: bool,
    in_string: bool,
}

/// Strips comments and literal contents from `raw`, threading the
/// in-block-comment / in-string state across lines. Returns the
/// preprocessed line.
fn preprocess(raw: &str, state: &mut ScanState) -> Line {
    let in_block = &mut state.in_block;
    let bytes = raw.as_bytes();
    let mut code = String::with_capacity(raw.len());
    let mut comment: Option<String> = None;
    let mut i = 0;
    if state.in_string {
        // Finish (or continue) the open string literal.
        loop {
            if i >= bytes.len() {
                return Line {
                    code,
                    comment: None,
                    comment_only: false,
                    attr_only: false,
                };
            }
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    code.push('"');
                    i += 1;
                    state.in_string = false;
                    break;
                }
                _ => i += 1,
            }
        }
    }
    if *in_block {
        // Finish (or continue) the open block comment.
        match raw.find("*/") {
            Some(end) => {
                comment = Some(raw[..end].to_string());
                *in_block = false;
                i = end + 2;
            }
            None => {
                return Line {
                    code: String::new(),
                    comment: Some(raw.to_string()),
                    comment_only: true,
                    attr_only: false,
                };
            }
        }
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                // Line comment: everything after is comment text.
                let text = raw[i + 2..].trim_start_matches(['/', '!']).to_string();
                comment = Some(match comment {
                    Some(prev) => format!("{prev} {text}"),
                    None => text,
                });
                break;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => match raw[i + 2..].find("*/") {
                Some(rel) => {
                    let text = raw[i + 2..i + 2 + rel].to_string();
                    comment = Some(match comment {
                        Some(prev) => format!("{prev} {text}"),
                        None => text,
                    });
                    i += 2 + rel + 2;
                }
                None => {
                    comment = Some(raw[i + 2..].to_string());
                    *in_block = true;
                    break;
                }
            },
            '"' => {
                // String literal: keep delimiters, blank the contents.
                // A literal that the line does not close carries over to
                // the next line via `in_string`.
                code.push('"');
                i += 1;
                loop {
                    if i >= bytes.len() {
                        state.in_string = true;
                        break;
                    }
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            code.push('"');
                            i += 1;
                            state.in_string = false;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal is '\..' or 'x'.
                let is_escaped = i + 1 < bytes.len() && bytes[i + 1] == b'\\';
                let is_plain = i + 2 < bytes.len() && bytes[i + 2] == b'\'';
                if is_escaped || is_plain {
                    code.push_str("' '");
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        if bytes[j] == b'\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    i = j + 1;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    let code_trim = code.trim().to_string();
    let comment_only = code_trim.is_empty() && comment.is_some();
    let attr_only = code_trim.starts_with("#[") || code_trim.starts_with("#![");
    Line {
        code,
        comment,
        comment_only,
        attr_only,
    }
}

/// Whether `code` contains `needle` as a standalone word (non-identifier
/// characters, or the line boundary, on both sides).
fn has_word(code: &str, needle: &str) -> bool {
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Whether the contiguous comment/attribute block directly above line
/// `idx` (or the line's own comment) mentions `marker`.
fn block_above_mentions(lines: &[Line], idx: usize, marker: &str) -> bool {
    if let Some(c) = &lines[idx].comment {
        if c.contains(marker) {
            return true;
        }
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.comment_only {
            if l.comment.as_deref().is_some_and(|c| c.contains(marker)) {
                return true;
            }
        } else if !l.attr_only {
            break;
        }
    }
    false
}

/// Line ranges (0-based, inclusive start / exclusive end) covered by a
/// trailing-style `#[cfg(test)] mod .. { .. }` region.
fn test_regions(lines: &[Line]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.trim() == "#[cfg(test)]" {
            // Find the item the attribute decorates.
            let mut j = i + 1;
            while j < lines.len() && (lines[j].comment_only || lines[j].attr_only) {
                j += 1;
            }
            if j < lines.len() && lines[j].code.trim_start().starts_with("mod ") {
                // Brace-match from the mod header to the region's end.
                let mut depth = 0i64;
                let mut opened = false;
                let mut k = j;
                while k < lines.len() {
                    for c in lines[k].code.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    k += 1;
                    if opened && depth <= 0 {
                        break;
                    }
                }
                regions.push((i, k));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Lints one file's contents. `path` is the root-relative path used in
/// diagnostics and for the path-scoped rules.
#[must_use]
pub fn lint_file(path: &Path, contents: &str, config: &Config) -> Vec<Diagnostic> {
    let mut state = ScanState::default();
    let lines: Vec<Line> = contents
        .lines()
        .map(|raw| preprocess(raw, &mut state))
        .collect();
    let mut out = Vec::new();
    let diag = |line: usize, rule: Rule, message: String| Diagnostic {
        path: path.to_path_buf(),
        line,
        rule,
        message,
    };

    // --- safety-comment -------------------------------------------------
    for (i, l) in lines.iter().enumerate() {
        if has_word(&l.code, "unsafe") && !block_above_mentions(&lines, i, "SAFETY") {
            out.push(diag(
                i + 1,
                Rule::SafetyComment,
                "`unsafe` without a `// SAFETY:` comment directly above (or trailing) \
                 — state the invariant that makes this sound"
                    .to_string(),
            ));
        }
    }

    // --- atomics-header -------------------------------------------------
    let mut used: Vec<(&str, usize)> = Vec::new();
    for ord in ORDERINGS {
        let token = format!("Ordering::{ord}");
        for (i, l) in lines.iter().enumerate() {
            if has_word(&l.code, &token) {
                used.push((ord, i + 1));
                break;
            }
        }
    }
    if !used.is_empty() {
        // The audit block: the first ATOMICS: comment line plus the
        // contiguous comment lines that follow it.
        let header_at = lines
            .iter()
            .position(|l| l.comment.as_deref().is_some_and(|c| c.contains("ATOMICS:")));
        match header_at {
            None => out.push(diag(
                used[0].1,
                Rule::AtomicsHeader,
                format!(
                    "module uses Ordering::{} but has no `ATOMICS:` audit header \
                     naming the protocol that justifies its orderings",
                    used[0].0
                ),
            )),
            Some(h) => {
                let mut audit = String::new();
                for l in &lines[h..] {
                    match &l.comment {
                        Some(c) if l.comment_only || audit.is_empty() => {
                            audit.push_str(c);
                            audit.push(' ');
                        }
                        _ => break,
                    }
                }
                for &(ord, line) in &used {
                    if !audit.contains(ord) {
                        out.push(diag(
                            line,
                            Rule::AtomicsHeader,
                            format!(
                                "Ordering::{ord} is used but the `ATOMICS:` header does not \
                                 name {ord} — every ordering must be audited"
                            ),
                        ));
                    }
                }
                let relaxed = used.iter().find(|(o, _)| *o == "Relaxed");
                if let Some(&(_, line)) = relaxed {
                    if !audit.contains("barrier-phased") && !audit.contains("single-writer") {
                        out.push(diag(
                            line,
                            Rule::AtomicsHeader,
                            "Ordering::Relaxed is only legal under a declared `barrier-phased` \
                             or `single-writer` protocol — the ATOMICS: header names neither"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }

    // --- forbid-unsafe --------------------------------------------------
    let is_crate_root = path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || path
            .parent()
            .is_some_and(|p| p.ends_with("src/bin") && path.extension().is_some());
    if is_crate_root {
        let has_forbid = lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            out.push(diag(
                1,
                Rule::ForbidUnsafe,
                "crate root must declare #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }

    // --- no-panic-path --------------------------------------------------
    if config.no_panic_modules.iter().any(|m| path.ends_with(m)) {
        let regions = test_regions(&lines);
        let in_tests = |i: usize| regions.iter().any(|&(a, b)| a <= i && i < b);
        let tokens = [".unwrap()", ".expect(", "panic!", "todo!"];
        for (i, l) in lines.iter().enumerate() {
            if in_tests(i) {
                continue;
            }
            for t in tokens {
                if l.code.contains(t) && !block_above_mentions(&lines, i, "PANIC-OK") {
                    out.push(diag(
                        i + 1,
                        Rule::NoPanicPath,
                        format!(
                            "`{t}` on the repair/serve path — return a typed error, or \
                             justify an unreachable-by-construction site with `// PANIC-OK:`"
                        ),
                    ));
                }
            }
        }
    }

    out
}

/// Recursively collects the `.rs` files under `root`, skipping the
/// configured directories, in sorted order.
fn collect_rs(root: &Path, config: &Config) -> Vec<PathBuf> {
    fn walk(dir: &Path, root: &Path, config: &Config, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        entries.sort();
        for p in entries {
            let rel = p.strip_prefix(root).unwrap_or(&p);
            if config
                .skip
                .iter()
                .any(|s| rel == s || p.file_name().is_some_and(|n| *s == *n))
            {
                continue;
            }
            if p.is_dir() {
                walk(&p, root, config, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, config, &mut out);
    out
}

/// Lints every `.rs` file under `root` and returns all diagnostics,
/// sorted by path and line.
#[must_use]
pub fn lint_workspace(root: &Path, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in collect_rs(root, config) {
        let Ok(contents) = std::fs::read_to_string(&p) else {
            continue;
        };
        let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
        out.extend(lint_file(&rel, &contents, config));
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}
