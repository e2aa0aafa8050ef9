//! The `cargo xtask lint` static-audit pass: a hand-rolled, zero-dependency
//! text analysis over the workspace's library sources (`crates/*/src`)
//! enforcing four auditability rules that `rustc`/`clippy` do not:
//!
//! 1. **safety-comment** — every `unsafe` token must be introduced by a
//!    `// SAFETY:` comment (same line, or immediately above across
//!    attributes/blank lines). The workspace denies `unsafe_code`, so the
//!    few sanctioned `#[allow]` sites must carry their invariant.
//! 2. **ordering** — explicit atomic `Ordering::` arguments are confined
//!    to a per-file allowlist (`ORDERING_ALLOWLIST`); everywhere else,
//!    atomics must go through an allowlisted module or not be used.
//!    Memory-ordering choices concentrate where they have been audited.
//! 3. **unwrap** — `.unwrap()` / `.expect(` are banned in non-test
//!    library code of the concurrency/IO crates (`trq-core`, `trq-serve`,
//!    `trq-store`). A documented escape hatch exists: a
//!    `// lint: allow(unwrap)` comment on the same line or the line above,
//!    stating why the panic is impossible or wanted.
//! 4. **no-alloc** — a `// no_alloc:` comment immediately before a
//!    function declares the function allocation-free; the rule flags
//!    allocation-prone calls (`vec!`, `Vec::new`, `with_capacity`,
//!    `to_vec`, `collect`, `format!`, `Box::new`, …) anywhere in its body.
//!
//! Test code is excluded: `#[cfg(test)]`-gated regions (brace-matched) and
//! everything outside `src/` are invisible to the rules. The scanner
//! strips comments and string/char literals before matching, so a banned
//! token inside a string or doc comment never fires.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule a [`Finding`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without an introducing `// SAFETY:` comment.
    SafetyComment,
    /// Atomic `Ordering::` outside the per-file allowlist.
    Ordering,
    /// `.unwrap()` / `.expect(` in non-test library code.
    Unwrap,
    /// Allocation-prone call inside a `// no_alloc:` function.
    NoAlloc,
}

impl Rule {
    /// Stable kebab-case rule name used in reports and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::Ordering => "ordering",
            Rule::Unwrap => "unwrap",
            Rule::NoAlloc => "no-alloc",
        }
    }
}

/// One rule violation at a file/line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

/// Files (workspace-relative suffix) allowed to spell out atomic
/// `Ordering::` arguments, with the orderings each has been audited for.
/// Everything else in `crates/*/src` must not choose memory orderings.
const ORDERING_ALLOWLIST: &[(&str, &[&str])] = &[
    // The engine's tile-claim counter: pure work distribution, no data
    // ordering rides on it (results land in disjoint slices).
    ("crates/core/src/pim/engine.rs", &["Relaxed"]),
    // The model checker's own shims: everything is SeqCst by design
    // (single active thread), and the shim signatures re-export Ordering.
    ("crates/check/src/sync.rs", &["SeqCst"]),
];

/// Crates whose non-test library code bans `.unwrap()` / `.expect(`.
const UNWRAP_BANNED: &[&str] = &["crates/core/src", "crates/serve/src", "crates/store/src"];

/// Call fragments considered allocation-prone inside `// no_alloc:`
/// functions. Matched against comment/string-stripped code.
const ALLOC_TOKENS: &[&str] = &[
    "vec!",
    "Vec::new",
    "VecDeque::new",
    "String::new",
    "String::from",
    "with_capacity(",
    "to_vec(",
    "to_owned(",
    "to_string(",
    "format!",
    "Box::new",
    ".collect(",
    "BTreeMap::new",
    "HashMap::new",
];

/// A source line split into its code and comment parts, with string/char
/// literal contents blanked out of the code part.
#[derive(Debug, Default, Clone)]
struct ScanLine {
    code: String,
    comment: String,
}

/// Splits `source` into per-line code/comment channels. String and char
/// literal *contents* are blanked (the quotes remain), so token matching
/// on the code channel cannot fire inside literals; comment text is
/// routed to the comment channel for `SAFETY:` / waiver detection.
fn split_channels(source: &str) -> Vec<ScanLine> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
    }
    let mut lines = Vec::new();
    let mut cur = ScanLine::default();
    let mut mode = Mode::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    cur.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) && !prev_is_ident(&chars, i) => {
                    // raw string r"…" / r#"…"# — count the hashes
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // char literal vs lifetime: 'x' / '\n' are literals,
                    // 'a (no closing quote right after) is a lifetime
                    if next == Some('\\') {
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        cur.code.push('\'');
                        cur.code.push('\'');
                        // never consume a newline here — the scan may have
                        // stopped on one, and eating it would shift every
                        // later line number
                        i = if chars.get(j) == Some(&'\n') { j } else { j + 1 };
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        cur.code.push('\'');
                        cur.code.push('\'');
                        i += 3;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    cur.code.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // an escaped newline (string continuation) still ends
                    // the source line — emit it so line numbers stay true
                    if next == Some('\n') {
                        lines.push(std::mem::take(&mut cur));
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        mode = Mode::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Marks the lines inside `#[cfg(test)]`- or `#[cfg(all(test…`-gated
/// items by brace-matching the block that follows the attribute.
fn test_region_mask(lines: &[ScanLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut idx = 0;
    while idx < lines.len() {
        let code = lines[idx].code.trim_start();
        let gated = code.starts_with("#[cfg(test)]")
            || code.starts_with("#[cfg(all(test")
            || code.starts_with("#[cfg(all(");
        let gated = gated && code.contains("test");
        if !gated {
            idx += 1;
            continue;
        }
        // brace-match from the first `{` after the attribute
        let mut depth = 0i64;
        let mut started = false;
        let mut j = idx;
        while j < lines.len() {
            mask[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    ';' if !started && depth == 0 => {
                        // e.g. `#[cfg(test)] use …;` — single item, done
                    }
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        idx = j + 1;
    }
    mask
}

/// True when the finding at `line_idx` carries a waiver comment
/// `lint: allow(<rule>)` on the same line or the nearest comment line
/// above (across attributes and blank lines).
fn waived(lines: &[ScanLine], line_idx: usize, rule: Rule) -> bool {
    let needle = format!("lint: allow({})", rule.name());
    if lines[line_idx].comment.contains(&needle) {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        if l.comment.contains(&needle) {
            return true;
        }
        let pure_comment = code.is_empty() && !l.comment.is_empty();
        let attribute = code.starts_with("#[") || code.starts_with("#!");
        if !(pure_comment || attribute || (code.is_empty() && l.comment.is_empty())) {
            break;
        }
    }
    false
}

/// True when the `unsafe` at `line_idx` is introduced by a `SAFETY:`
/// comment: same line, or above across attributes/blank/comment lines.
/// Earlier lines that are themselves `unsafe` sites are also skipped, so
/// a run of contiguous sites (e.g. per-tier match arms) may share one
/// comment — the comment then vouches for the whole group.
fn has_safety_comment(lines: &[ScanLine], line_idx: usize) -> bool {
    if lines[line_idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.comment.contains("SAFETY:") {
            return true;
        }
        let code = l.code.trim();
        let pure_comment = code.is_empty() && !l.comment.is_empty();
        let attribute = code.starts_with("#[") || code.starts_with("#!");
        let blank = code.is_empty() && l.comment.is_empty();
        let sibling_unsafe = contains_word(&l.code, "unsafe");
        if !(pure_comment || attribute || blank || sibling_unsafe) {
            return false;
        }
    }
    false
}

fn contains_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Extracts every `Ordering::<Variant>` spelled in `code`.
fn orderings_in(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("Ordering::") {
        let at = start + pos + "Ordering::".len();
        let variant: String =
            code[at..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !variant.is_empty() {
            found.push(variant);
        }
        start = at;
    }
    found
}

/// Body ranges (line index spans) of functions annotated `// no_alloc:`.
fn no_alloc_ranges(lines: &[ScanLine]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        if !l.comment.trim_start().starts_with("no_alloc:") {
            continue;
        }
        // find the fn this marker annotates (skipping attributes/comments)
        let mut j = idx;
        let mut fn_line = None;
        while j + 1 < lines.len() {
            j += 1;
            let code = lines[j].code.trim();
            if contains_word(&lines[j].code, "fn") {
                fn_line = Some(j);
                break;
            }
            let skippable = code.is_empty() || code.starts_with("#[");
            if !skippable {
                break;
            }
        }
        let Some(fn_line) = fn_line else { continue };
        // brace-match the function body
        let mut depth = 0i64;
        let mut started = false;
        let mut k = fn_line;
        while k < lines.len() {
            for c in lines[k].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            k += 1;
        }
        ranges.push((fn_line, k.min(lines.len() - 1)));
    }
    ranges
}

/// Scans one file's source. `rel` is the workspace-relative path used in
/// findings and allowlist matching.
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    let lines = split_channels(source);
    let in_test = test_region_mask(&lines);
    let mut findings = Vec::new();

    let unwrap_banned = UNWRAP_BANNED.iter().any(|p| rel.starts_with(p));
    let ordering_allow: Option<&[&str]> = ORDERING_ALLOWLIST
        .iter()
        .find(|(suffix, _)| rel.ends_with(suffix))
        .map(|(_, orderings)| *orderings);

    for (idx, l) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let line_no = idx + 1;

        // rule 1: safety-comment
        if contains_word(&l.code, "unsafe") && !has_safety_comment(&lines, idx) {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: Rule::SafetyComment,
                message: "`unsafe` without an introducing `// SAFETY:` comment".to_string(),
            });
        }

        // rule 2: ordering allowlist
        for variant in orderings_in(&l.code) {
            let allowed = ordering_allow.is_some_and(|list| list.contains(&variant.as_str()));
            if !allowed {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_no,
                    rule: Rule::Ordering,
                    message: format!(
                        "atomic `Ordering::{variant}` outside the audited allowlist \
                         (see ORDERING_ALLOWLIST in xtask::lint)"
                    ),
                });
            }
        }

        // rule 3: unwrap/expect in banned crates
        if unwrap_banned
            && (l.code.contains(".unwrap()") || l.code.contains(".expect("))
            && !waived(&lines, idx, Rule::Unwrap)
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: Rule::Unwrap,
                message: "`.unwrap()`/`.expect(` in library code — handle the error, use \
                          `unwrap_or_else(PoisonError::into_inner)` for locks, or waive with \
                          `// lint: allow(unwrap)` + reason"
                    .to_string(),
            });
        }
    }

    // rule 4: no-alloc function contracts
    for (start, end) in no_alloc_ranges(&lines) {
        for idx in start..=end {
            if in_test[idx] {
                continue;
            }
            for token in ALLOC_TOKENS {
                if lines[idx].code.contains(token) && !waived(&lines, idx, Rule::NoAlloc) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: Rule::NoAlloc,
                        message: format!(
                            "allocation-prone `{token}` inside a `// no_alloc:` function"
                        ),
                    });
                }
            }
        }
    }

    findings.sort_by_key(|f| f.line);
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the audit over every `crates/*/src/**/*.rs` under `root` (the
/// workspace root). Returns all findings, sorted by path then line.
///
/// # Errors
///
/// Propagates IO errors from walking or reading the tree.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let source = std::fs::read_to_string(&path)?;
        findings.extend(scan_source(&rel, &source));
    }
    Ok(findings)
}
