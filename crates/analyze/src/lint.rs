//! Pass 2: dependency-free token-level Rust workspace lint.
//!
//! A small hand-rolled lexer (comments, strings, raw strings, char
//! literals vs lifetimes, identifiers, punctuation) feeds rule matchers
//! that enforce repo invariants `rustc` and `clippy` don't know about:
//!
//! - `unsafe-outside-allowlist` — `unsafe` appears only under
//!   `crates/tensor/src/kernels/` or in `crates/tensor/src/matrix.rs`.
//! - `unsafe-missing-safety-comment` — every `unsafe` token is preceded
//!   (same line or the adjacent comment/attribute block above) by a
//!   `// SAFETY:` comment.
//! - `panic-in-data-plane` — no `.unwrap()` / `.expect(..)` / `panic!`
//!   in non-test code of the data-plane crates (cluster, ddp, compress);
//!   errors there must propagate as `Result`.
//! - `raw-f32-accumulation` — no hand-rolled f32 accumulation loops
//!   (`*acc += x`, `a[i] += b[i]`, `.abs()).sum()`) in data-plane code
//!   that should route through `gcs_tensor::kernels` (which fixes the
//!   association order and dispatches SIMD).
//! - `missing-forbid-unsafe` — crates that need no unsafe must say so
//!   with `#![forbid(unsafe_code)]`.
//! - `relaxed-atomic-ordering` — no `Ordering::Relaxed` outside test
//!   code: every atomic synchronizes with `SeqCst`, so no ordering
//!   argument is left for a reader (or a checker) to verify.
//!
//! A site can be exempted explicitly with a
//! `// lint: allow(<rule>)` comment on the same or previous line;
//! allowances are counted and reported, never silent.
//!
//! Test code is exempt from the panic/accumulation rules: files under a
//! `tests/` or `benches/` directory, and `#[cfg(test)]` / `#[test]`
//! regions inside src files (tracked by brace depth over the token
//! stream).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Path relative to the lint root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Outcome of linting a workspace.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub violations: Vec<LintViolation>,
    /// Sites exempted via `// lint: allow(...)`, per rule — visible in
    /// the report so allowances can't accumulate unnoticed.
    pub allowed: Vec<LintViolation>,
}

impl LintReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Crates whose `src/lib.rs` must carry `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE_CRATES: &[&str] = &[
    "core", "compress", "cluster", "ddp", "models", "train", "cli", "analyze",
];

/// Crates whose `src/` is data-plane code (panic/accumulation rules).
const DATA_PLANE_CRATES: &[&str] = &["cluster", "ddp", "compress"];

const RULE_UNSAFE_ALLOWLIST: &str = "unsafe-outside-allowlist";
const RULE_UNSAFE_SAFETY: &str = "unsafe-missing-safety-comment";
const RULE_PANIC: &str = "panic-in-data-plane";
const RULE_ACCUM: &str = "raw-f32-accumulation";
const RULE_FORBID: &str = "missing-forbid-unsafe";
const RULE_RELAXED: &str = "relaxed-atomic-ordering";

/// Lint every Rust source under `root` (a workspace checkout).
pub fn run_lint(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        lint_file(&rel, &text, &mut report);
        report.files_scanned += 1;
    }
    check_forbid_unsafe(root, &mut report)?;
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // vendor/ is third-party by construction; target/ and .git
            // are build products; results/ is data.
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "results") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One lexed token (identifier, number, or single punctuation char).
#[derive(Debug, Clone)]
struct Token {
    text: String,
    line: usize,
    in_test: bool,
}

/// Lexer output: tokens plus per-line comment text (comments never become
/// tokens, but the SAFETY and allow-marker rules read them).
struct Scan {
    tokens: Vec<Token>,
    comments: HashMap<usize, String>,
    lines: Vec<String>,
}

fn lint_file(rel: &str, text: &str, report: &mut LintReport) {
    let scan = lex(text);
    let in_test_file = rel.split('/').any(|c| c == "tests" || c == "benches");
    rule_unsafe(rel, &scan, report);
    if !in_test_file {
        rule_relaxed(rel, &scan, report);
    }
    if is_data_plane_src(rel) && !in_test_file {
        rule_panic(rel, &scan, report);
        rule_accumulation(rel, &scan, report);
    }
}

/// Count whole-token occurrences of `ident` in source text (comments and
/// string contents excluded) — the protocol pass's model-drift anchors.
pub(crate) fn ident_count(text: &str, ident: &str) -> usize {
    lex(text).tokens.iter().filter(|t| t.text == ident).count()
}

fn is_data_plane_src(rel: &str) -> bool {
    DATA_PLANE_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

fn unsafe_allowlisted(rel: &str) -> bool {
    rel.starts_with("crates/tensor/src/kernels/") || rel == "crates/tensor/src/matrix.rs"
}

/// `// lint: allow(<rule>)` on the token's own or previous line.
fn allowed_at(scan: &Scan, line: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    scan.comments
        .get(&line)
        .is_some_and(|c| c.contains(&marker))
        || line > 1
            && scan
                .comments
                .get(&(line - 1))
                .is_some_and(|c| c.contains(&marker))
}

fn push(
    report: &mut LintReport,
    scan: &Scan,
    rel: &str,
    line: usize,
    rule: &'static str,
    message: String,
) {
    let v = LintViolation {
        file: rel.to_string(),
        line,
        rule,
        message,
    };
    if allowed_at(scan, line, rule) {
        report.allowed.push(v);
    } else {
        report.violations.push(v);
    }
}

fn rule_unsafe(rel: &str, scan: &Scan, report: &mut LintReport) {
    for tok in &scan.tokens {
        if tok.text != "unsafe" {
            continue;
        }
        if !unsafe_allowlisted(rel) {
            push(
                report,
                scan,
                rel,
                tok.line,
                RULE_UNSAFE_ALLOWLIST,
                "`unsafe` outside the kernels/matrix allowlist".into(),
            );
            continue;
        }
        if !has_safety_comment(scan, tok.line) {
            push(
                report,
                scan,
                rel,
                tok.line,
                RULE_UNSAFE_SAFETY,
                "`unsafe` without a preceding `// SAFETY:` comment".into(),
            );
        }
    }
}

/// `Ordering::Relaxed` (token sequence `Ordering :: Relaxed`, which also
/// catches `use ...::Ordering::Relaxed` imports) is flagged everywhere
/// outside test code.
fn rule_relaxed(rel: &str, scan: &Scan, report: &mut LintReport) {
    let t = &scan.tokens;
    for i in 0..t.len() {
        if t[i].in_test || t[i].text != "Ordering" {
            continue;
        }
        let seq = t.get(i + 1).is_some_and(|x| x.text == ":")
            && t.get(i + 2).is_some_and(|x| x.text == ":")
            && t.get(i + 3).is_some_and(|x| x.text == "Relaxed");
        if seq {
            push(
                report,
                scan,
                rel,
                t[i].line,
                RULE_RELAXED,
                "`Ordering::Relaxed` outside test code; use SeqCst".into(),
            );
        }
    }
}

/// A `SAFETY:` comment counts if it sits on the `unsafe` line itself or
/// anywhere in the contiguous run of comment / attribute / blank lines
/// directly above it.
fn has_safety_comment(scan: &Scan, line: usize) -> bool {
    let contains = |ln: usize| {
        scan.comments
            .get(&ln)
            .is_some_and(|c| c.contains("SAFETY:"))
    };
    if contains(line) {
        return true;
    }
    let mut ln = line;
    while ln > 1 {
        ln -= 1;
        if contains(ln) {
            return true;
        }
        let raw = scan.lines.get(ln - 1).map(String::as_str).unwrap_or("");
        let t = raw.trim_start();
        let non_code = t.is_empty()
            || t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#![")
            || t.starts_with("/*")
            || t.starts_with('*')
            || t.ends_with("*/");
        if !non_code {
            return false;
        }
    }
    false
}

fn rule_panic(rel: &str, scan: &Scan, report: &mut LintReport) {
    let t = &scan.tokens;
    for (i, tok) in t.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        let line = tok.line;
        // `.unwrap()` / `.expect(` — method calls only, so
        // `unwrap_or_else` and friends (distinct identifier tokens)
        // never match.
        if (t[i].text == "unwrap" || t[i].text == "expect")
            && i > 0
            && t[i - 1].text == "."
            && t.get(i + 1).is_some_and(|n| n.text == "(")
        {
            push(
                report,
                scan,
                rel,
                line,
                RULE_PANIC,
                format!(
                    "`.{}()` in data-plane code; propagate a Result instead",
                    t[i].text
                ),
            );
        }
        // `panic!(...)`.
        if t[i].text == "panic" && t.get(i + 1).is_some_and(|n| n.text == "!") {
            push(
                report,
                scan,
                rel,
                line,
                RULE_PANIC,
                "`panic!` in data-plane code; propagate a Result instead".into(),
            );
        }
    }
}

fn rule_accumulation(rel: &str, scan: &Scan, report: &mut LintReport) {
    let t = &scan.tokens;
    let is = |i: usize, s: &str| t.get(i).is_some_and(|x| x.text == s);
    let is_ident = |i: usize| {
        t.get(i).is_some_and(|x| {
            x.text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
    };
    for (i, tok) in t.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        let line = tok.line;
        // `*acc += x` — scalar drain of an elementwise accumulation that
        // kernels::add_assign / axpy vectorize with fixed association.
        if is(i, "*") && is_ident(i + 1) && is(i + 2, "+") && is(i + 3, "=") {
            push(
                report,
                scan,
                rel,
                line,
                RULE_ACCUM,
                "raw `*acc += x` accumulation loop; route through gcs_tensor::kernels".into(),
            );
        }
        // `a[i] += ...` — indexed accumulate.
        if is_ident(i)
            && is(i + 1, "[")
            && is_ident(i + 2)
            && is(i + 3, "]")
            && is(i + 4, "+")
            && is(i + 5, "=")
        {
            push(
                report,
                scan,
                rel,
                line,
                RULE_ACCUM,
                "raw indexed `+=` accumulation loop; route through gcs_tensor::kernels".into(),
            );
        }
        // `.abs()).sum` — scalar abs-reduction; kernels::sum_abs is the
        // fixed-association SIMD path.
        if is(i, "abs")
            && is(i + 1, "(")
            && is(i + 2, ")")
            && is(i + 3, ")")
            && is(i + 4, ".")
            && is(i + 5, "sum")
        {
            push(
                report,
                scan,
                rel,
                line,
                RULE_ACCUM,
                "raw `.abs()).sum()` reduction; use gcs_tensor::kernels::sum_abs".into(),
            );
        }
    }
}

fn check_forbid_unsafe(root: &Path, report: &mut LintReport) -> io::Result<()> {
    for krate in FORBID_UNSAFE_CRATES {
        let lib = root.join("crates").join(krate).join("src").join("lib.rs");
        if !lib.exists() {
            continue;
        }
        let text = fs::read_to_string(&lib)?;
        let scan = lex(&text);
        let mut found = false;
        let t = &scan.tokens;
        for i in 0..t.len() {
            if t[i].text == "forbid"
                && t.get(i + 1).is_some_and(|n| n.text == "(")
                && t.get(i + 2).is_some_and(|n| n.text == "unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            report.violations.push(LintViolation {
                file: format!("crates/{krate}/src/lib.rs"),
                line: 1,
                rule: RULE_FORBID,
                message: "crate must declare #![forbid(unsafe_code)]".into(),
            });
        }
    }
    Ok(())
}

/// Token-level lexer. Comments and string/char-literal *contents* never
/// become tokens; `#[cfg(test)]` / `#[test]` regions mark their tokens
/// `in_test` via brace-depth tracking.
fn lex(text: &str) -> Scan {
    let chars: Vec<char> = text.chars().collect();
    let mut tokens: Vec<Token> = Vec::new();
    let mut comments: HashMap<usize, String> = HashMap::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();

    let note_comment = |ln: usize, s: &str, map: &mut HashMap<usize, String>| {
        map.entry(ln).or_default().push_str(s);
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let s: String = chars[start..i].iter().collect();
            note_comment(line, &s, &mut comments);
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start_line = line;
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let s: String = chars[start..i.min(n)].iter().collect();
            note_comment(start_line, &s, &mut comments);
            if line != start_line {
                note_comment(line, &s, &mut comments);
            }
            continue;
        }
        // Raw strings: r"..", r#".."#, br#".."# etc.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && chars.get(j) == Some(&'r') {
                j += 1;
            }
            if c != 'b' || j > i + 1 {
                let mut hashes = 0usize;
                while chars.get(j + hashes) == Some(&'#') {
                    hashes += 1;
                }
                if chars.get(j + hashes) == Some(&'"') {
                    // Consume to closing quote + hashes.
                    i = j + hashes + 1;
                    'raw: while i < n {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    continue;
                }
            }
            // Not a raw string — fall through to identifier lexing.
        }
        // Byte string b"..".
        if c == 'b' && chars.get(i + 1) == Some(&'"') {
            i += 1;
            // Falls into the string case below on the quote.
            continue;
        }
        // String literal.
        if c == '"' {
            i += 1;
            while i < n {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1);
            let is_char_lit = match next {
                Some('\\') => true,
                Some(x) if chars.get(i + 2) == Some(&'\'') => {
                    // 'x' — but not '' (empty), and x may be any char.
                    *x != '\''
                }
                _ => false,
            };
            if is_char_lit {
                i += 1;
                if chars.get(i) == Some(&'\\') {
                    i += 2;
                    // Consume to closing quote (covers \u{...}).
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    i += 3; // 'x'
                }
            } else {
                // Lifetime: consume quote + identifier.
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                text: chars[start..i].iter().collect(),
                line,
                in_test: false,
            });
            continue;
        }
        // Number (dot consumed only before another digit, so `0..n`
        // stays three tokens).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < n {
                let ch = chars[i];
                let fraction = ch == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit());
                if ch.is_alphanumeric() || ch == '_' || fraction {
                    i += 1;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                text: chars[start..i].iter().collect(),
                line,
                in_test: false,
            });
            continue;
        }
        // Single punctuation char.
        tokens.push(Token {
            text: c.to_string(),
            line,
            in_test: false,
        });
        i += 1;
    }

    mark_test_regions(&mut tokens);
    Scan {
        tokens,
        comments,
        lines: text.lines().map(str::to_string).collect(),
    }
}

/// Mark tokens inside `#[test]` / `#[cfg(test)] mod` regions via brace
/// depth: an attribute containing the identifier `test` arms the *next*
/// braced item; everything until its matching `}` is test code.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut depth = 0usize;
    let mut pending_test = false;
    // Depths at which test regions opened; inside any => in_test.
    let mut test_depths: Vec<usize> = Vec::new();
    // Paren/bracket nesting, so a `;` inside `[u8; 4]` or a closure arg
    // list doesn't disarm a pending attribute.
    let mut grouping = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let text = tokens[i].text.clone();
        if text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            // Scan the balanced attribute for the `test` identifier.
            let mut j = i + 2;
            let mut brackets = 1usize;
            let mut saw_test = false;
            while j < tokens.len() && brackets > 0 {
                match tokens[j].text.as_str() {
                    "[" => brackets += 1,
                    "]" => brackets -= 1,
                    "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_test {
                pending_test = true;
            }
            for t in tokens.iter_mut().take(j).skip(i) {
                t.in_test = !test_depths.is_empty();
            }
            i = j;
            continue;
        }
        match text.as_str() {
            "{" => {
                if pending_test {
                    test_depths.push(depth);
                    pending_test = false;
                }
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if test_depths.last() == Some(&depth) {
                    tokens[i].in_test = true;
                    test_depths.pop();
                    i += 1;
                    continue;
                }
            }
            "(" | "[" => grouping += 1,
            ")" | "]" => grouping = grouping.saturating_sub(1),
            // `#[cfg(test)] use ...;` — the attribute armed a brace-less
            // item; nothing to mark.
            ";" if grouping == 0 => pending_test = false,
            _ => {}
        }
        tokens[i].in_test = !test_depths.is_empty();
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_rules(rel: &str, src: &str) -> LintReport {
        let mut r = LintReport::default();
        lint_file(rel, src, &mut r);
        r
    }

    #[test]
    fn unwrap_in_data_plane_flagged_but_not_in_tests() {
        let src = r#"
fn hot() { let x: Option<u8> = None; x.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let x: Option<u8> = Some(1); x.unwrap(); }
}
"#;
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "panic-in-data-plane");
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn unwrap_or_else_and_strings_not_flagged() {
        let src = r#"
fn hot() {
    let x: Option<u8> = None;
    let _ = x.unwrap_or_else(|| 3);
    let _s = "calls .unwrap() and panic! in a string";
    // mentions .unwrap() in a comment
}
"#;
        let r = scan_rules("crates/ddp/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn allow_marker_moves_violation_to_allowed() {
        let src = "fn hot() {\n    // lint: allow(panic-in-data-plane)\n    panic!(\"boom\");\n}\n";
        let r = scan_rules("crates/compress/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].rule, "panic-in-data-plane");
    }

    #[test]
    fn unsafe_outside_allowlist_flagged() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        // Outside `kernels/` and `matrix.rs`, `crates/tensor` is no exception.
        for file in ["crates/cluster/src/foo.rs", "crates/tensor/src/pool.rs"] {
            let r = scan_rules(file, src);
            assert!(
                r.violations
                    .iter()
                    .any(|v| v.rule == "unsafe-outside-allowlist"),
                "{file}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn unsafe_needs_safety_comment_in_allowlist() {
        let bare = "fn f() { unsafe { do_it() } }\n";
        let r = scan_rules("crates/tensor/src/kernels/avx2.rs", bare);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "unsafe-missing-safety-comment");

        let commented =
            "// SAFETY: caller checked the CPU feature.\nfn f() { unsafe { do_it() } }\n";
        let r = scan_rules("crates/tensor/src/kernels/avx2.rs", commented);
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        // Comment above an attribute still counts.
        let attr = "// SAFETY: lanes are in bounds.\n#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}\n";
        let r = scan_rules("crates/tensor/src/kernels/avx2.rs", attr);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn accumulation_patterns_flagged() {
        let src = r#"
fn hot(a: &mut [f32], b: &[f32]) {
    for (w, e) in a.iter_mut().zip(b) { *w += e; }
    for i in 0..a.len() { a[i] += b[i]; }
    let _n: f32 = b.iter().map(|x| x.abs()).sum();
}
"#;
        let r = scan_rules("crates/compress/src/foo.rs", src);
        let rules: Vec<_> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![
                "raw-f32-accumulation",
                "raw-f32-accumulation",
                "raw-f32-accumulation"
            ],
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn scalar_scaling_is_not_accumulation() {
        let src = "fn hot(a: &mut [f32]) { for x in a { *x *= 0.5; } }\n";
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn non_data_plane_crates_may_unwrap() {
        let src = "fn f() { let x: Option<u8> = Some(1); x.unwrap(); }\n";
        let r = scan_rules("crates/cli/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let src = r##"
fn f<'a>(x: &'a str) -> &'a str { x }
const S: &str = r#"has unsafe and .unwrap() inside"#;
const C: char = 'u';
const E: char = '\u{1F600}';
"##;
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn relaxed_ordering_outside_allowlist_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn hot(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "relaxed-atomic-ordering"),
            "{:?}",
            r.violations
        );
        // SeqCst is fine anywhere.
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn hot(c: &AtomicU64) { c.fetch_add(1, Ordering::SeqCst); }\n";
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn relaxed_is_flagged_in_the_former_pool_allowlist_too() {
        // No file is exempt, and a justification comment does not make
        // one so.
        let bare = "fn claim(c: &AtomicUsize) { c.load(Ordering::Relaxed); }\n";
        let commented =
            "// SYNC: cursor claims are CAS-unique; results publish via the job mutex.\nfn claim(c: &AtomicUsize) { c.load(Ordering::Relaxed); }\n";
        for src in [bare, commented] {
            let r = scan_rules("crates/tensor/src/pool.rs", src);
            assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
            assert_eq!(r.violations[0].rule, "relaxed-atomic-ordering");
        }
    }

    #[test]
    fn relaxed_in_test_regions_and_test_files_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::Ordering;\n    #[test]\n    fn t() { X.load(Ordering::Relaxed); }\n}\n";
        let r = scan_rules("crates/cluster/src/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let src = "fn t() { X.load(Ordering::Relaxed); }\n";
        let r = scan_rules("crates/cluster/tests/foo.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn ident_count_skips_comments_and_strings() {
        let src = "// fetch_update in a comment\nconst S: &str = \"fetch_update\";\nfn f() { x.fetch_update(a, b, c); }\n";
        assert_eq!(ident_count(src, "fetch_update"), 1);
        assert_eq!(ident_count(src, "missing_ident"), 0);
    }

    #[test]
    fn nested_test_mod_exempts_inner_fns() {
        let src = r#"
fn outer_hot() { maybe(); }
#[cfg(test)]
mod tests {
    mod inner {
        pub fn helper() { let x: Option<u8> = Some(1); x.unwrap(); }
    }
    #[test]
    fn t() { inner::helper(); }
}
fn after_mod() { let y: Option<u8> = None; y.expect("boom"); }
"#;
        let r = scan_rules("crates/ddp/src/foo.rs", src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 11);
        assert!(r.violations[0].message.contains("expect"));
    }
}
