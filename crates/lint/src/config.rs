//! `lint-allow.toml`: the single, review-visible suppression and policy
//! file for `aurora-lint`.
//!
//! The parser handles the TOML subset the config actually uses — tables,
//! array-of-tables, strings, integers, booleans and string arrays — so
//! the analyzer stays dependency-free. Anything else is a hard error:
//! a config that fails to parse must fail the build, not silently allow.
//!
//! Sections:
//!
//! - `[[allow]]` — one suppression each: `check`, `path`, optional
//!   `line`, optional `count` (a *ratchet*: at most N matches in the
//!   file), and a mandatory `reason`. Unused entries are themselves
//!   violations, so the file can only shrink unless someone consciously
//!   adds to it.
//! - `[roundtrip]` — registry mapping every encode/decode type or
//!   function pair to the file whose tests round-trip it.
//! - `[format] files = [...]` — the format-bearing files whose token
//!   stream feeds the on-disk-format fingerprint.

use std::collections::BTreeMap;

/// One `[[allow]]` suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Check name the suppression applies to.
    pub check: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Restrict to one line (brittle; prefer `count`).
    pub line: Option<u32>,
    /// Ratchet: at most this many matches in the file (default 1).
    pub count: u32,
    /// Why this suppression is justified. Required.
    pub reason: String,
}

/// Parsed `lint-allow.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// Suppressions, in file order.
    pub allows: Vec<AllowEntry>,
    /// Type or pair name → file whose tests round-trip it.
    pub roundtrip: BTreeMap<String, String>,
    /// Format-bearing files (workspace-relative).
    pub format_files: Vec<String>,
    /// Crates whose production code the `commit-phase` check covers.
    pub commit_phase_crates: Vec<String>,
    /// Token-bearing functions licensed to issue raw device writes.
    pub commit_phase_allow: Vec<String>,
}

/// A parsed TOML value (subset).
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Int(i64),
    StrArray(Vec<String>),
}

impl Config {
    /// Parses the config, returning a descriptive error on any line the
    /// subset parser does not understand.
    pub fn parse(src: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // Current section name, e.g. "commit-phase"; [[allow]] pushes
        // a fresh entry and routes keys to it.
        let mut section = String::new();
        let mut in_allow = false;
        let lines: Vec<&str> = src.lines().collect();
        let mut idx = 0usize;
        while idx < lines.len() {
            let lineno = idx;
            let mut line = strip_comment(lines[idx]).trim().to_string();
            idx += 1;
            // Multi-line arrays: keep appending until brackets balance.
            while line.contains('[')
                && line.contains("=")
                && bracket_balance(&line) > 0
                && idx < lines.len()
            {
                line.push(' ');
                line.push_str(strip_comment(lines[idx]).trim());
                idx += 1;
            }
            let line = line.as_str();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lint-allow.toml:{}: {}", lineno + 1, msg);
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| err("unterminated [[table]]"))?
                    .trim();
                if name != "allow" {
                    return Err(err(&format!("unknown array-of-tables [[{name}]]")));
                }
                cfg.allows.push(AllowEntry {
                    check: String::new(),
                    path: String::new(),
                    line: None,
                    count: 1,
                    reason: String::new(),
                });
                in_allow = true;
                section.clear();
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated [table]"))?
                    .trim();
                section = name.to_string();
                in_allow = false;
            } else {
                let (key, value) = parse_kv(line).map_err(|e| err(&e))?;
                if in_allow {
                    let entry = cfg
                        .allows
                        .last_mut()
                        .ok_or_else(|| err("key outside any table"))?;
                    match (key.as_str(), &value) {
                        ("check", Value::Str(s)) => entry.check = s.clone(),
                        ("path", Value::Str(s)) => entry.path = s.clone(),
                        ("line", Value::Int(n)) => entry.line = Some(*n as u32),
                        ("count", Value::Int(n)) => entry.count = *n as u32,
                        ("reason", Value::Str(s)) => entry.reason = s.clone(),
                        _ => return Err(err(&format!("unknown allow key `{key}`"))),
                    }
                } else {
                    match (section.as_str(), key.as_str(), &value) {
                        ("roundtrip", _, Value::Str(s)) => {
                            cfg.roundtrip.insert(key, s.clone());
                        }
                        ("format", "files", Value::StrArray(a)) => {
                            cfg.format_files = a.clone();
                        }
                        ("commit-phase", "crates", Value::StrArray(a)) => {
                            cfg.commit_phase_crates = a.clone();
                        }
                        ("commit-phase", "allow_in", Value::StrArray(a)) => {
                            cfg.commit_phase_allow = a.clone();
                        }
                        (sec, _, _) => {
                            return Err(err(&format!("unknown key `{key}` in section [{sec}]")))
                        }
                    }
                }
            }
        }
        for (i, a) in cfg.allows.iter().enumerate() {
            if a.check.is_empty() || a.path.is_empty() {
                return Err(format!("[[allow]] entry {} missing check/path", i + 1));
            }
            if a.reason.is_empty() {
                return Err(format!(
                    "[[allow]] for {} ({}) has no reason — every suppression must be justified",
                    a.path, a.check
                ));
            }
        }
        Ok(cfg)
    }
}

/// Net `[` minus `]` count outside string literals.
fn bracket_balance(line: &str) -> i32 {
    let mut bal = 0i32;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => bal += 1,
            ']' if !in_str => bal -= 1,
            _ => {}
        }
    }
    bal
}

/// Strips a `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses `key = value`.
fn parse_kv(line: &str) -> Result<(String, Value), String> {
    let eq = line
        .find('=')
        .ok_or_else(|| "expected `key = value`".to_string())?;
    let key = line[..eq].trim().trim_matches('"').to_string();
    let val = line[eq + 1..].trim();
    Ok((key, parse_value(val)?))
}

fn parse_value(val: &str) -> Result<Value, String> {
    if let Some(body) = val.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        return Ok(Value::Str(unescape(body)));
    }
    if let Some(body) = val.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be single-line)".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("only string arrays are supported".to_string()),
            }
        }
        return Ok(Value::StrArray(items));
    }
    val.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{val}`"))
}

/// Splits on commas outside string literals.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_schema() {
        let cfg = Config::parse(
            r#"
# suppressions
[[allow]]
check = "wall-clock"
path = "crates/criterion-shim/src/lib.rs"
count = 2
reason = "bench harness measures real time"

[roundtrip]
Checkpoint = "crates/objstore/src/checkpoint.rs"

[format]
files = ["crates/objstore/src/layout.rs"]

[commit-phase]
crates = ["objstore"]
allow_in = ["submit_journal", "flip_superblock"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].count, 2);
        assert_eq!(
            cfg.roundtrip["Checkpoint"],
            "crates/objstore/src/checkpoint.rs"
        );
        assert_eq!(cfg.format_files.len(), 1);
        assert_eq!(cfg.commit_phase_crates, vec!["objstore"]);
        assert_eq!(
            cfg.commit_phase_allow,
            vec!["submit_journal", "flip_superblock"]
        );
    }

    #[test]
    fn reason_is_mandatory() {
        let err = Config::parse(
            "[[allow]]\ncheck = \"no-panic\"\npath = \"x.rs\"\n",
        )
        .unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_keys_rejected() {
        assert!(Config::parse("[mystery]\nkey = 1\n").is_err());
        assert!(Config::parse("[[allow]]\nfrobnicate = true\n").is_err());
    }
}
