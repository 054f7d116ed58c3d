//! `dynscan-lint`: a lexer-level static analyzer over the workspace's
//! own `.rs` files.
//!
//! No `syn`, no rustc plumbing — a small hand-rolled lexer strips
//! comments, string/char literals and raw strings (so rules never fire
//! inside them), tracks `#[cfg(test)]` regions by brace matching, and a
//! handful of rules then run over the stripped text:
//!
//! | rule id           | what it enforces                                          |
//! |-------------------|-----------------------------------------------------------|
//! | `safety-comment`  | every `unsafe` block / `unsafe impl` carries `// SAFETY:` |
//! | `decode-no-panic` | no `unwrap`/`expect`/slice-indexing in decode modules     |
//! | `facade-sync`     | no direct `std::sync`/`std::thread` in facaded modules    |
//! | `no-raw-clock`    | no `Instant::now`/`SystemTime` outside the Clock module   |
//!
//! Every finding is an **error** unless a matching entry in
//! `crates/check/lint-allow.txt` suppresses it with a one-line
//! justification; allowlist entries that match nothing are themselves
//! errors, so the list can only shrink when code improves.  So are
//! entries of the rules' module lists that name no scanned file: a rule
//! scoped to a moved or deleted file would otherwise silently cover
//! nothing.  The rule catalogue with rationale lives in
//! `crates/check/README.md`.

use std::fmt;
use std::path::{Path, PathBuf};

/// The decode modules: wire/snapshot decoders where a panic is a
/// remote-crash vector, so `unwrap`/`expect`/indexing are banned
/// outright (`decode-no-panic`).
const DECODE_MODULES: &[&str] = &[
    "crates/graph/src/snapshot.rs",
    "crates/serve/src/frame.rs",
    "crates/serve/src/proto.rs",
];

/// The facaded modules: concurrency-bearing code that must go through a
/// `sync` facade (std normally, the `interleave` shims under
/// `cfg(dynscan_model_check)`) so the model checker can drive it.
/// Direct `std::sync`/`std::thread` here silently escapes the checker.
const FACADED_MODULES: &[&str] = &[
    "vendor/rayon/src/lib.rs",
    "vendor/rayon/src/sleep.rs",
    "vendor/rayon/src/deque.rs",
    "crates/core/src/epoch.rs",
    "crates/core/src/session.rs",
    "crates/core/src/gate.rs",
    "crates/core/src/pool.rs",
    "crates/serve/src/conn.rs",
    "crates/serve/src/drain.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/publish.rs",
    "crates/serve/src/replica.rs",
];

/// The one sanctioned wall-clock read (everything else goes through the
/// `Clock` abstraction so tests and replay stay deterministic).
const CLOCK_MODULE: &str = "crates/core/src/clock.rs";

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (see the table in the module docs).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}:{}: {}\n    | {}",
            self.rule, self.path, self.line, self.message, self.excerpt
        )
    }
}

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id this entry suppresses.
    pub rule: String,
    /// Path suffix the finding's path must end with.
    pub path_suffix: String,
    /// Substring the offending line must contain.
    pub needle: String,
    /// Why the violation is acceptable (required, human-readable).
    pub justification: String,
    /// 1-based line in the allowlist file (for unused-entry reports).
    pub line: usize,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale — remove them).
    pub unused_allows: Vec<AllowEntry>,
    /// Module-list entries (decode, facaded, clock) that name no
    /// scanned file (stale — point them at the moved file or remove
    /// them).
    pub unmatched_modules: Vec<&'static str>,
    /// Violations an allowlist entry suppressed.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Whether the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
            && self.unused_allows.is_empty()
            && self.unmatched_modules.is_empty()
    }
}

// --------------------------------------------------------------------- //
// Lexer
// --------------------------------------------------------------------- //

/// Replace comments, string/char-literal and raw-string *contents* with
/// spaces, preserving byte length and newlines, so positions in the
/// stripped text map 1:1 onto the original.  Rules run over the
/// stripped text; the `SAFETY:` check reads comments from the original.
pub fn strip(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment: blank to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, nesting tracked.
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (consumed, blanked) = consume_raw_string(bytes, i);
                out.extend_from_slice(&blanked);
                i += consumed;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') || bytes.get(i + 1) == Some(&b'\'') => {
                // Byte-string/byte-char prefix: blank the `b`, let the
                // quote be handled on the next iteration.
                out.push(b' ');
                i += 1;
            }
            b'"' => {
                let consumed = consume_string(bytes, i);
                for j in 0..consumed {
                    out.push(if bytes[i + j] == b'\n' { b'\n' } else { b' ' });
                }
                i += consumed;
            }
            b'\'' => {
                if let Some(consumed) = char_literal_len(bytes, i) {
                    out.extend(std::iter::repeat_n(b' ', consumed));
                    i += consumed;
                } else {
                    // A lifetime (`'a`) or a stray quote: keep as code.
                    out.push(b);
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    // Replacements are byte-for-byte ASCII and multibyte code chars are
    // copied verbatim, so the output is valid UTF-8 again.
    String::from_utf8(out).unwrap_or_default()
}

/// Does `r`, `r#`, `br`, `br#`… at `i` open a raw string?
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    // Only a *leading* identifier boundary makes this a literal prefix
    // (`for` / `attr` end in `r` but are plain identifiers).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Consume a raw string starting at `i`, returning (bytes consumed,
/// blanked replacement of the same length with newlines preserved).
fn consume_raw_string(bytes: &[u8], i: usize) -> (usize, Vec<u8>) {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    loop {
        match bytes.get(j) {
            None => break,
            Some(&b'"') => {
                let mut k = j + 1;
                let mut seen = 0;
                while seen < hashes && bytes.get(k) == Some(&b'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    j = k;
                    break;
                }
                j += 1;
            }
            Some(_) => j += 1,
        }
    }
    let blanked = bytes[i..j]
        .iter()
        .map(|&b| if b == b'\n' { b'\n' } else { b' ' })
        .collect();
    (j - i, blanked)
}

/// Consume a `"…"` string (escapes respected) starting at the quote.
fn consume_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1 - i,
            _ => j += 1,
        }
    }
    bytes.len() - i
}

/// If a char literal starts at the quote at `i`, its byte length;
/// `None` for lifetimes.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some(&b'\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1 - i),
                    b'\n' => return None,
                    _ => j += 1,
                }
            }
            None
        }
        Some(_) => {
            // `'x'` (possibly multibyte): a closing quote within a few
            // bytes makes it a literal; `'a` with none nearby is a
            // lifetime.
            for (offset, &byte) in bytes[i + 2..(i + 6).min(bytes.len())].iter().enumerate() {
                if byte == b'\'' {
                    return Some(offset + 3);
                }
                if byte.is_ascii() && !(byte.is_ascii_alphanumeric() || byte == b'_') {
                    return None;
                }
            }
            None
        }
        None => None,
    }
}

/// Per-line test-region flags: lines covered by a `#[cfg(test)]`-gated
/// item (brace-matched in the stripped text, where braces in strings
/// and comments are gone).
pub fn test_region_lines(code: &str) -> Vec<bool> {
    let line_count = code.lines().count();
    let mut in_test = vec![false; line_count];
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(found) = code[search..].find("#[cfg(test)]") {
        let attr_at = search + found;
        // The gated item's body: the first `{` after the attribute,
        // matched to its closing brace.
        let Some(open_rel) = code[attr_at..].find('{') else {
            break;
        };
        let open = attr_at + open_rel;
        let mut depth = 0usize;
        let mut end = bytes.len();
        for (j, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        let start_line = code[..attr_at].matches('\n').count();
        let end_line = code[..end].matches('\n').count();
        for flag in in_test
            .iter_mut()
            .take((end_line + 1).min(line_count))
            .skip(start_line)
        {
            *flag = true;
        }
        search = end.max(attr_at + 1);
    }
    in_test
}

// --------------------------------------------------------------------- //
// Rules
// --------------------------------------------------------------------- //

struct FileCtx<'a> {
    rel: &'a str,
    src_lines: Vec<&'a str>,
    code_lines: Vec<String>,
    in_test: Vec<bool>,
}

fn finding(ctx: &FileCtx, rule: &'static str, line_idx: usize, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.rel.to_string(),
        line: line_idx + 1,
        excerpt: ctx
            .src_lines
            .get(line_idx)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
        message,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of `word` in `line` with identifier boundaries on both
/// sides.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut search = 0;
    while let Some(found) = line[search..].find(word) {
        let at = search + found;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        search = at + word.len().max(1);
    }
    out
}

/// `safety-comment`: every `unsafe` block or `unsafe impl` must be
/// preceded by (or carry on the same line) a comment containing
/// `SAFETY`.  The comment block immediately above — contiguous `//`
/// lines — is searched in the *original* source.
fn rule_safety_comment(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, code) in ctx.code_lines.iter().enumerate() {
        for at in word_positions(code, "unsafe") {
            // What follows decides the shape: `{` opens a block (maybe
            // on a later line), `impl` is an unsafe impl; `fn`/`trait`
            // declarations are handled by `deny(unsafe_op_in_unsafe_fn)`
            // forcing commented inner blocks.
            let mut rest = code[at + "unsafe".len()..].trim_start().to_string();
            let mut look = i;
            while rest.is_empty() && look + 1 < ctx.code_lines.len() {
                look += 1;
                rest = ctx.code_lines[look].trim_start().to_string();
            }
            let is_block = rest.starts_with('{');
            let is_impl = rest.starts_with("impl");
            if !(is_block || is_impl) {
                continue;
            }
            if has_safety_comment(ctx, i) {
                continue;
            }
            let shape = if is_block { "block" } else { "impl" };
            out.push(finding(
                ctx,
                "safety-comment",
                i,
                format!("`unsafe` {shape} without a `// SAFETY:` comment justifying it"),
            ));
        }
    }
    out
}

/// Is there a `SAFETY` comment on line `i` or in the contiguous comment
/// block immediately above it (attributes and blank lines skipped)?
fn has_safety_comment(ctx: &FileCtx, i: usize) -> bool {
    if ctx.src_lines.get(i).is_some_and(|l| l.contains("SAFETY")) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let Some(&line) = ctx.src_lines.get(j) else {
            break;
        };
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || trimmed.starts_with('*') || trimmed.starts_with("/*") {
            if trimmed.contains("SAFETY") {
                return true;
            }
            continue;
        }
        if trimmed.starts_with("#[") || trimmed.is_empty() {
            continue;
        }
        break;
    }
    false
}

/// `decode-no-panic`: in decode modules, outside `#[cfg(test)]`, ban
/// `.unwrap()`, `.expect(` and slice/array indexing (any `[` whose
/// previous non-space char is an identifier/`)`/`]`), excepting the
/// infallible full-range form `[..]`.
fn rule_decode_no_panic(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if !DECODE_MODULES.iter().any(|m| ctx.rel.ends_with(m)) {
        return out;
    }
    for (i, code) in ctx.code_lines.iter().enumerate() {
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if code.contains(".unwrap()") {
            out.push(finding(
                ctx,
                "decode-no-panic",
                i,
                "`.unwrap()` in a decode path — return a typed error instead".into(),
            ));
        }
        if code.contains(".expect(") {
            out.push(finding(
                ctx,
                "decode-no-panic",
                i,
                "`.expect(…)` in a decode path — return a typed error instead".into(),
            ));
        }
        let bytes = code.as_bytes();
        for (p, &b) in bytes.iter().enumerate() {
            if b != b'[' {
                continue;
            }
            let Some(q) = bytes[..p].iter().rposition(|&c| c != b' ') else {
                continue;
            };
            let prev = bytes[q];
            if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
                continue;
            }
            if is_ident_byte(prev) {
                // Walk back over the identifier: a lifetime (`&'a [u8]`
                // is a slice type) or a keyword (`let [a, b] = …`,
                // `if [x] != …`, `&mut [u8]`) means this bracket is a
                // pattern or type, not an indexing expression.
                let mut s = q;
                while s > 0 && is_ident_byte(bytes[s - 1]) {
                    s -= 1;
                }
                if s > 0 && bytes[s - 1] == b'\'' {
                    continue;
                }
                const NON_INDEX_KEYWORDS: &[&str] = &[
                    "let", "if", "match", "return", "in", "else", "while", "mut", "ref", "move",
                    "const", "static", "dyn", "impl", "as",
                ];
                if let Ok(word) = std::str::from_utf8(&bytes[s..q + 1]) {
                    if NON_INDEX_KEYWORDS.contains(&word) {
                        continue;
                    }
                }
            }
            // `[..]` — a full-range slice cannot panic.
            if code[p + 1..].trim_start().starts_with("..]") {
                continue;
            }
            out.push(finding(
                ctx,
                "decode-no-panic",
                i,
                "indexing in a decode path can panic — use `get`/`first_chunk`/patterns".into(),
            ));
        }
    }
    out
}

/// `facade-sync`: in facaded modules, outside `#[cfg(test)]`, ban
/// direct `std::sync`/`std::thread` — concurrency there must flow
/// through the crate's `sync` facade so `cfg(dynscan_model_check)` can
/// swap in the `interleave` shims.
fn rule_facade_sync(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if !FACADED_MODULES.iter().any(|m| ctx.rel.ends_with(m)) {
        return out;
    }
    for (i, code) in ctx.code_lines.iter().enumerate() {
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        for what in ["std::sync", "std::thread"] {
            if code.contains(what) {
                out.push(finding(
                    ctx,
                    "facade-sync",
                    i,
                    format!("direct `{what}` in a facaded module — use the crate's `sync` facade"),
                ));
            }
        }
    }
    out
}

/// `no-raw-clock`: outside the Clock module (and the bench crate, which
/// measures wall time by design), ban `Instant::now` and `SystemTime` —
/// timing flows through the `Clock` abstraction so replay and tests
/// stay deterministic.
fn rule_no_raw_clock(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let in_scope = (ctx.rel.starts_with("crates/") || ctx.rel.starts_with("vendor/rayon/"))
        && ctx.rel.contains("/src/")
        && !ctx.rel.ends_with(CLOCK_MODULE)
        && !ctx.rel.starts_with("crates/bench/");
    if !in_scope {
        return out;
    }
    for (i, code) in ctx.code_lines.iter().enumerate() {
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        for what in ["Instant::now", "SystemTime"] {
            if code.contains(what) {
                out.push(finding(
                    ctx,
                    "no-raw-clock",
                    i,
                    format!(
                        "`{what}` outside `core::clock` — route timing through the Clock \
                         abstraction (`wall_clock_millis` for wall stamps)"
                    ),
                ));
            }
        }
    }
    out
}

// --------------------------------------------------------------------- //
// Allowlist
// --------------------------------------------------------------------- //

/// Parse `lint-allow.txt`: `rule | path-suffix | line-substring |
/// justification` per line, `#` comments and blank lines ignored.
/// Every field is required — an entry without a justification is a
/// parse error.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split('|').map(str::trim).collect();
        let [rule, path_suffix, needle, justification] = parts[..] else {
            return Err(format!(
                "lint-allow.txt:{}: expected `rule | path-suffix | line-substring | justification`",
                idx + 1
            ));
        };
        if justification.is_empty() {
            return Err(format!(
                "lint-allow.txt:{}: the justification must not be empty",
                idx + 1
            ));
        }
        out.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: path_suffix.to_string(),
            needle: needle.to_string(),
            justification: justification.to_string(),
            line: idx + 1,
        });
    }
    Ok(out)
}

/// The entries of `modules` that name none of the scanned paths `rels`
/// (matched by path suffix, as the rules match them).
fn unmatched<'a>(modules: impl IntoIterator<Item = &'a str>, rels: &[String]) -> Vec<&'a str> {
    modules
        .into_iter()
        .filter(|m| !rels.iter().any(|rel| rel.ends_with(m)))
        .collect()
}

fn allow_matches(entry: &AllowEntry, f: &Finding) -> bool {
    entry.rule == f.rule
        && f.path.ends_with(&entry.path_suffix)
        && f.excerpt.contains(&entry.needle)
}

// --------------------------------------------------------------------- //
// Runner
// --------------------------------------------------------------------- //

/// Directories scanned under the workspace root.  The other `vendor`
/// crates are offline stand-ins mirroring *upstream* APIs — they follow
/// upstream's conventions, not this workspace's, so they are out of
/// scope (`rayon` and `interleave` are ours and are in scope).
const SCAN_ROOTS: &[&str] = &[
    "crates",
    "vendor/rayon/src",
    "vendor/interleave/src",
    "src",
    "tests",
    "examples",
];

fn collect_rs_files(under: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(under) else {
        return Ok(()); // optional roots (src/, examples/) may not exist
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every in-scope `.rs` file under `root` against the allowlist at
/// `crates/check/lint-allow.txt` (missing file = empty allowlist).
pub fn run(root: &Path) -> std::io::Result<Outcome> {
    let allow_text =
        std::fs::read_to_string(root.join("crates/check/lint-allow.txt")).unwrap_or_default();
    let allows = parse_allowlist(&allow_text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;

    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files)?;
    }
    files.sort();

    let mut outcome = Outcome::default();
    let mut used = vec![false; allows.len()];
    let mut rels = Vec::with_capacity(files.len());
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel_buf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let rel = rel_buf.to_string_lossy().replace('\\', "/");
        let code = strip(&src);
        let ctx = FileCtx {
            rel: &rel,
            src_lines: src.lines().collect(),
            code_lines: code.lines().map(str::to_string).collect(),
            in_test: test_region_lines(&code),
        };
        outcome.files_scanned += 1;
        let mut findings = Vec::new();
        findings.extend(rule_safety_comment(&ctx));
        findings.extend(rule_decode_no_panic(&ctx));
        findings.extend(rule_facade_sync(&ctx));
        findings.extend(rule_no_raw_clock(&ctx));
        for f in findings {
            match allows.iter().position(|a| allow_matches(a, &f)) {
                Some(idx) => {
                    used[idx] = true;
                    outcome.suppressed += 1;
                }
                None => outcome.findings.push(f),
            }
        }
        rels.push(rel);
    }
    for (idx, entry) in allows.iter().enumerate() {
        if !used[idx] {
            outcome.unused_allows.push(entry.clone());
        }
    }
    let modules = DECODE_MODULES.iter().chain(FACADED_MODULES);
    outcome.unmatched_modules = unmatched(modules.copied().chain([CLOCK_MODULE]), &rels);
    Ok(outcome)
}

/// Walk up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        let code = strip(src);
        let ctx = FileCtx {
            rel,
            src_lines: src.lines().collect(),
            code_lines: code.lines().map(str::to_string).collect(),
            in_test: test_region_lines(&code),
        };
        let mut out = Vec::new();
        out.extend(rule_safety_comment(&ctx));
        out.extend(rule_decode_no_panic(&ctx));
        out.extend(rule_facade_sync(&ctx));
        out.extend(rule_no_raw_clock(&ctx));
        out
    }

    #[test]
    fn stripper_blanks_comments_strings_and_char_literals() {
        let src = r###"let x = "has [brackets] and .unwrap()"; // also idx[0]
let c = '['; let lt: &'static str = "x";
let raw = r#"raw [0] "inner" end"#;
/* block [1]
   still comment */ let y = 2;"###;
        let code = strip(src);
        assert_eq!(code.len(), src.len());
        assert!(!code.contains("brackets"));
        assert!(!code.contains("idx[0]"));
        assert!(!code.contains("raw [0]"));
        assert!(!code.contains("[1]"));
        assert!(code.contains("let y = 2;"));
        // The lifetime survives as code; the char literal is blanked.
        assert!(code.contains("'static"));
        assert!(!code.contains("'['"));
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn test_regions_are_brace_matched() {
        let code = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let region = test_region_lines(code);
        assert_eq!(region, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn safety_comment_rule_accepts_commented_and_flags_bare() {
        let good = "// SAFETY: the invariant holds because …\nunsafe { do_it() }\n";
        assert!(check("crates/x/src/a.rs", good).is_empty());
        let bad = "unsafe { do_it() }\n";
        let found = check("crates/x/src/a.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "safety-comment");
        let bad_impl = "unsafe impl Send for T {}\n";
        let found = check("crates/x/src/a.rs", bad_impl);
        assert_eq!(found.len(), 1, "{found:?}");
        // `unsafe fn` declarations are not flagged (their bodies need
        // inner blocks via deny(unsafe_op_in_unsafe_fn)).
        let decl = "unsafe fn f() {}\n";
        assert!(check("crates/x/src/a.rs", decl).is_empty());
    }

    #[test]
    fn decode_rule_flags_unwrap_expect_and_indexing_outside_tests() {
        let rel = "crates/serve/src/frame.rs";
        let bad = "fn d(b: &[u8]) { let x = b[0]; let y = o.unwrap(); let z = p.expect(\"m\"); }\n";
        let mut rules: Vec<&str> = check(rel, bad).iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        assert_eq!(rules, vec!["decode-no-panic"; 3]);
        // Full-range slices, `get`, and test code are all fine.
        let good = "fn d(b: &[u8]) { let x = b.get(0); let m = &MAGIC[..]; }\n\
                    #[cfg(test)]\nmod tests { fn t(b: &[u8]) { let x = b[0]; } }\n";
        assert!(check(rel, good).is_empty(), "{:?}", check(rel, good));
        // Out-of-scope files are untouched.
        assert!(check("crates/core/src/session.rs", bad)
            .iter()
            .all(|f| f.rule != "decode-no-panic"));
    }

    #[test]
    fn facade_rule_flags_std_sync_in_facaded_modules_only() {
        let bad = "use std::sync::Mutex;\nuse std::thread;\n";
        let found = check("crates/core/src/session.rs", bad);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule == "facade-sync"));
        assert!(check("crates/graph/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn clock_rule_flags_raw_time_outside_clock_module() {
        let bad = "fn f() { let t = std::time::Instant::now(); let w = SystemTime::now(); }\n";
        let found = check("crates/graph/src/lib.rs", bad);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule == "no-raw-clock"));
        assert!(check("crates/core/src/clock.rs", bad).is_empty());
        assert!(check("crates/bench/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn allowlist_parses_matches_and_rejects_bad_lines() {
        let text = "# comment\n\nfacade-sync | crates/serve/src/drain.rs | SIGTERM_RECEIVED | handler must stay std\n";
        let allows = parse_allowlist(text).unwrap();
        assert_eq!(allows.len(), 1);
        let f = Finding {
            rule: "facade-sync",
            path: "crates/serve/src/drain.rs".into(),
            line: 47,
            excerpt: "static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = x;".into(),
            message: String::new(),
        };
        assert!(allow_matches(&allows[0], &f));
        assert!(parse_allowlist("too | few | fields\n").is_err());
        assert!(parse_allowlist("a | b | c | \n").is_err());
    }

    #[test]
    fn module_entries_that_name_no_file_are_reported() {
        let rels = vec![
            "crates/serve/src/conn.rs".to_string(),
            "crates/core/src/clock.rs".to_string(),
        ];
        let modules = [
            "crates/serve/src/conn.rs",
            "crates/gone/src/server.rs",
            "crates/core/src/clock.rs",
        ];
        assert_eq!(unmatched(modules, &rels), vec!["crates/gone/src/server.rs"]);
        assert!(unmatched(["crates/serve/src/conn.rs"], &rels).is_empty());
        let stale = Outcome {
            unmatched_modules: vec!["crates/gone/src/server.rs"],
            ..Outcome::default()
        };
        assert!(!stale.clean(), "an unmatched module entry fails the gate");
    }
}
