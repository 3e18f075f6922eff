//! Append-only benchmark history for `BENCH_sampling.json`.
//!
//! The file is a schema-versioned history:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "benchmark": "sampling_pipeline",
//!   "entries": [ { "scenario": "powerlaw_cluster_10k_t1", ... }, ... ]
//! }
//! ```
//!
//! Each run **appends** one entry per scenario; the last entry for a
//! `(scenario, profile)` pair is the baseline `raf bench-json
//! --check-regression` gates against. The gate ([`gate_counts`]) pins the
//! entry's deterministic counts exactly; timings are only printed. New
//! entries carry a [`Stamp`] naming the commit, toolchain, machine and
//! time that produced them.
//!
//! The workspace's vendored `serde` is a no-op shim, so this module
//! carries a small hand-rolled JSON reader/writer ([`JsonValue`]) that
//! covers the subset the bench reports emit.

use std::fmt::Write as _;
use std::path::{Component, Path, PathBuf};
use std::process::Command;

/// Current history schema version.
pub const SCHEMA_VERSION: u64 = 2;

/// A parsed JSON value (reader/writer subset: full RFC 8259 string
/// escaping — `\" \\ \/ \n \t \r \b \f` and `\uXXXX` incl. surrogate
/// pairs — with numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Dotted-path number lookup, e.g. `value.path_f64(&["arena_ns", "total"])`.
    pub fn path_f64(&self, path: &[&str]) -> Option<f64> {
        let mut v = self;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    }

    /// Renders the value as JSON text (numbers that are mathematically
    /// integers print without a decimal point, so ns counts survive a
    /// parse → render round trip unchanged).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    item.render_into(out, indent + 2);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{ ");
                let nested = fields.iter().any(|(_, v)| {
                    matches!(v, JsonValue::Obj(f) if !f.is_empty())
                        || matches!(v, JsonValue::Arr(a) if !a.is_empty())
                });
                if nested {
                    out.pop();
                    out.push('\n');
                }
                for (i, (key, value)) in fields.iter().enumerate() {
                    if nested {
                        for _ in 0..indent + 2 {
                            out.push(' ');
                        }
                    }
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 2);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    if nested {
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                }
                if nested {
                    for _ in 0..indent {
                        out.push(' ');
                    }
                }
                out.push('}');
            }
        }
    }
}

/// Parses JSON text.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
            raw.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number {raw:?} at byte {start}"))
        }
    }
}

/// Renders a string (value *or* object key) with full RFC 8259 escaping:
/// quotes, backslashes, and every control character — the common ones as
/// their two-character escapes, the rest as `\u00XX`. Free-text columns
/// (dataset names, error strings) pass through writers verbatim, so the
/// writer must never assume its input is identifier-shaped.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let unit = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a \uXXXX low surrogate must
                            // follow; combine into one code point.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(cp).ok_or("invalid surrogate pair")?
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err("lone low surrogate".into());
                        } else {
                            char::from_u32(unit).ok_or("invalid \\u escape")?
                        };
                        out.push(c);
                    }
                    other => return Err(format!("unsupported escape \\{}", *other as char)),
                }
            }
            _ => {
                // Re-synchronize on UTF-8: push the whole code point.
                let start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                let s = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

/// Reads exactly four hex digits (the payload of a `\u` escape).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
    let s = std::str::from_utf8(chunk).map_err(|_| "invalid \\u escape")?;
    let v = u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape \\u{s}"))?;
    *pos += 4;
    Ok(v)
}

/// The benchmark history: an ordered list of per-scenario entries.
#[derive(Debug, Clone, Default)]
pub struct BenchHistory {
    /// History entries, oldest first.
    pub entries: Vec<JsonValue>,
}

impl BenchHistory {
    /// Parses a schema v2 history file. An empty or whitespace-only text
    /// yields an empty history.
    ///
    /// # Errors
    ///
    /// Returns a description of the syntax or schema problem.
    pub fn from_text(text: &str) -> Result<Self, String> {
        if text.trim().is_empty() {
            return Ok(BenchHistory::default());
        }
        let value = parse_json(text)?;
        if value.get("schema_version").and_then(JsonValue::as_f64) != Some(SCHEMA_VERSION as f64) {
            return Err(format!("not a schema v{SCHEMA_VERSION} bench history"));
        }
        match value.get("entries") {
            Some(JsonValue::Arr(items)) => Ok(BenchHistory { entries: items.clone() }),
            _ => Err(format!("schema v{SCHEMA_VERSION} file lacks an \"entries\" array")),
        }
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: JsonValue) {
        self.entries.push(entry);
    }

    /// The most recent entry for a `(scenario, profile)` pair.
    pub fn last_for(&self, scenario: &str, profile: &str) -> Option<&JsonValue> {
        self.entries.iter().rev().find(|e| {
            e.get("scenario").and_then(JsonValue::as_str) == Some(scenario)
                && e.get("profile").and_then(JsonValue::as_str) == Some(profile)
        })
    }

    /// Renders the whole history file (schema v2).
    pub fn to_text(&self) -> String {
        let doc = JsonValue::Obj(vec![
            ("schema_version".to_string(), JsonValue::Num(SCHEMA_VERSION as f64)),
            ("benchmark".to_string(), JsonValue::Str("sampling_pipeline".into())),
            ("entries".to_string(), JsonValue::Arr(self.entries.clone())),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }
}

/// The entry fields the gate pins, as dotted paths. Each is a pure
/// function of the cell (scenario, profile knobs and seed): the graph and
/// screened pair, the pool's walk outcomes, arena size and path digest,
/// and the cover solve's cost. No thread count or layout changes them.
pub const COUNTED_FIELDS: [&str; 12] = [
    "graph.nodes",
    "graph.edges",
    "graph.s",
    "graph.t",
    "pool.type1",
    "pool.unique_paths",
    "pool.cover_p",
    "pool.arena_bytes",
    "pool.dangling",
    "pool.cycles",
    "pool.digest",
    "cost.arena",
];

fn counted(entry: &JsonValue, field: &str) -> Option<f64> {
    let path: Vec<&str> = field.split('.').collect();
    entry.path_f64(&path)
}

/// The gate's verdict on one new entry.
#[derive(Debug, Clone, PartialEq)]
pub enum CountGate {
    /// Not gated, for the reason given: no baseline, or a baseline that
    /// carries no counted field.
    Skipped(String),
    /// Compared on every counted field the baseline carries. The entry
    /// passes when `changes` is empty.
    Compared {
        /// One `FIELD baseline X now Y` line per compared field that
        /// differs, in [`COUNTED_FIELDS`] order.
        changes: Vec<String>,
        /// The counted fields the baseline predates, which were not
        /// compared, in [`COUNTED_FIELDS`] order.
        predates: Vec<&'static str>,
    },
}

/// Gates a new entry against its baseline, the last committed entry of
/// the same scenario and profile: every field of [`COUNTED_FIELDS`] that
/// the baseline carries must be equal, so a field added later does not
/// blind the gate to the others on an older baseline. Timings are not
/// compared.
pub fn gate_counts(baseline: Option<&JsonValue>, entry: &JsonValue) -> CountGate {
    let Some(baseline) = baseline else {
        return CountGate::Skipped("no committed baseline".into());
    };
    let mut changes = Vec::new();
    let mut predates = Vec::new();
    for field in COUNTED_FIELDS {
        let Some(base) = counted(baseline, field) else {
            predates.push(field);
            continue;
        };
        match counted(entry, field) {
            Some(now) if now == base => {}
            Some(now) => changes.push(format!("{field} baseline {base} now {now}")),
            None => changes.push(format!("{field} baseline {base} now missing")),
        }
    }
    if predates.len() == COUNTED_FIELDS.len() {
        return CountGate::Skipped("baseline carries no counted field".into());
    }
    CountGate::Compared { changes, predates }
}

/// What makes an entry attributable: the code, the toolchain, the machine
/// and the time. Field names and sources follow the serving benchmark's
/// result stamp (`perfbench`), plus the time.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `git rev-parse HEAD` of the checkout, with `-dirty` appended when
    /// tracked files other than the history file differ from `HEAD`, or
    /// `unknown` outside git.
    pub git_rev: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// CPU model name from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Seconds since the Unix epoch when the stamp was collected.
    pub unix_time: u64,
}

impl Stamp {
    /// Collects the stamp of this process's run. `history` is the file
    /// the entry goes into: its own changes do not mark the tree dirty.
    pub fn collect(history: &Path) -> Stamp {
        // Pin git to the checkout's own `.git` so it never walks up into
        // an enclosing repository; the working directory is then the
        // checkout's root, which git's paths are relative to.
        let git = || {
            let mut git = Command::new("git");
            git.args(["--git-dir", ".git"]);
            git
        };
        let git_rev = match command_line(git().args(["rev-parse", "HEAD"])) {
            Some(head) => {
                let changed =
                    command_stdout(git().args(["diff", "--name-only", "HEAD"])).unwrap_or_default();
                let history = std::env::current_dir()
                    .ok()
                    .and_then(|root| history.strip_prefix(root).ok())
                    .unwrap_or(history);
                rev_label(&head, &changed, history)
            }
            None => "unknown".into(),
        };
        let rustc =
            command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Stamp { git_rev, rustc, cpu, nproc, unix_time }
    }

    /// The stamp as a history-entry object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("git_rev".into(), JsonValue::Str(self.git_rev.clone())),
            ("rustc".into(), JsonValue::Str(self.rustc.clone())),
            ("cpu".into(), JsonValue::Str(self.cpu.clone())),
            ("nproc".into(), JsonValue::Num(self.nproc as f64)),
            ("unix_time".into(), JsonValue::Num(self.unix_time as f64)),
        ])
    }
}

/// `head` labelled as `git describe --dirty` labels a working tree:
/// `-dirty` appended when `changed`, a `git diff --name-only HEAD`
/// listing, names a tracked file other than `history`.
fn rev_label(head: &str, changed: &str, history: &Path) -> String {
    let history: PathBuf = history.components().filter(|c| *c != Component::CurDir).collect();
    if changed.lines().any(|path| Path::new(path) != history) {
        format!("{head}-dirty")
    } else {
        head.to_string()
    }
}

/// The stdout of a command that exits 0.
fn command_stdout(command: &mut Command) -> Option<String> {
    let output = command.stderr(std::process::Stdio::null()).output().ok()?;
    if !output.status.success() {
        return None;
    }
    String::from_utf8(output.stdout).ok()
}

/// The first stdout line of a command that exits 0.
fn command_line(command: &mut Command) -> Option<String> {
    let text = command_stdout(command)?;
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-entry v2 history: the committed `powerlaw_cluster_10k_t1`
    /// quick baseline under a made-up stamp.
    const V2: &str = r#"{
  "schema_version": 2,
  "benchmark": "sampling_pipeline",
  "entries": [
    {
      "scenario": "powerlaw_cluster_10k_t1",
      "profile": "quick",
      "stamp": { "git_rev": "0123abcd", "rustc": "rustc 1.0.0", "cpu": "Test CPU", "nproc": 2, "unix_time": 1700000000 },
      "graph": { "kind": "powerlaw_cluster", "nodes": 10000, "edges": 19997, "s": 7, "t": 3633 },
      "config": { "walks": 30000, "seed": 7, "threads": 1, "reps": 2, "beta": 0.3 },
      "pool": { "type1": 7826, "unique_paths": 162, "dedup_factor": 48.309, "pmax_estimate": 0.260867, "cover_p": 2348, "arena_bytes": 6344, "dangling": 0, "cycles": 22174, "digest": 4503599627370497 },
      "arena_ns": { "sample": 2965029, "solve": 256670, "total": 3221699 },
      "cost": { "arena": 1 }
    }
  ]
}"#;

    fn v2_entry() -> JsonValue {
        BenchHistory::from_text(V2).unwrap().entries.remove(0)
    }

    /// `entry` with the dotted field `field` set to `value`.
    fn with_field(entry: &JsonValue, field: &str, value: f64) -> JsonValue {
        let mut entry = entry.clone();
        let (outer, inner) = field.split_once('.').unwrap();
        let JsonValue::Obj(fields) = &mut entry else { unreachable!() };
        let (_, group) = fields.iter_mut().find(|(k, _)| k == outer).unwrap();
        let JsonValue::Obj(group) = group else { unreachable!() };
        group.iter_mut().find(|(k, _)| k == inner).unwrap().1 = JsonValue::Num(value);
        entry
    }

    #[test]
    fn free_text_strings_round_trip_through_render_and_parse() {
        // Free-text content a writer must survive verbatim: quotes,
        // backslashes, every named control escape, unnamed control
        // characters, and non-ASCII text (incl. astral-plane code
        // points, which arrive as \u surrogate pairs from other
        // writers).
        let nasty = "say \"hi\"\\path\n\t\r\u{8}\u{c}\u{1}\u{1f} café 🦀";
        let doc = JsonValue::Obj(vec![
            ("plain".into(), JsonValue::Str(nasty.into())),
            // Keys are strings too: a free-text key must escape.
            (nasty.into(), JsonValue::Num(1.0)),
        ]);
        let rendered = doc.render();
        // The rendered document is valid JSON: no raw control bytes.
        assert!(rendered.bytes().all(|b| b >= 0x20 || b == b'\n'));
        assert!(rendered.contains("\\u0001") && rendered.contains("\\u001f"));
        let back = parse_json(&rendered).unwrap();
        assert_eq!(back, doc);
        // Surrogate-pair escapes from external writers parse to the
        // astral code point, and lone surrogates are rejected.
        let v = parse_json(r#""\ud83e\udd80 ok \u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀 ok é"));
        assert!(parse_json(r#""\ud83e""#).is_err());
        assert!(parse_json(r#""\udd80""#).is_err());
        assert!(parse_json(r#""\u12"#).is_err());
    }

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": "x\"y", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.path_f64(&["a"]), None);
        match v.get("a") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-300.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("nulL").is_err());
    }

    #[test]
    fn integers_survive_round_trip() {
        let v = parse_json(V2).unwrap();
        let text = v.render();
        assert!(text.contains("3221699"), "ns total mangled: {text}");
        assert!(text.contains("1700000000"), "unix time mangled: {text}");
        assert!(text.contains("0.260867"), "float mangled");
        let again = parse_json(&text).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn history_appends_and_reloads() {
        let mut h = BenchHistory::from_text(V2).unwrap();
        assert_eq!(h.entries.len(), 1);
        h.push(with_field(&v2_entry(), "arena_ns.total", 15_000_000.0));
        let text = h.to_text();
        let h2 = BenchHistory::from_text(&text).unwrap();
        assert_eq!(h2.entries.len(), 2);
        // Latest entry wins as the baseline; other lineages have none.
        let baseline = h2.last_for("powerlaw_cluster_10k_t1", "quick").unwrap();
        assert_eq!(baseline.path_f64(&["arena_ns", "total"]), Some(15_000_000.0));
        assert!(h2.last_for("powerlaw_cluster_10k_t1", "full").is_none());
        // Round trip again: stable.
        assert_eq!(BenchHistory::from_text(&h2.to_text()).unwrap().to_text(), text);
    }

    #[test]
    fn empty_text_is_empty_history() {
        let h = BenchHistory::from_text("  \n").unwrap();
        assert!(h.entries.is_empty());
        let text = h.to_text();
        assert!(BenchHistory::from_text(&text).unwrap().entries.is_empty());
    }

    #[test]
    fn unknown_schema_is_an_error() {
        assert!(BenchHistory::from_text("{\"foo\": 1}").is_err());
        assert!(BenchHistory::from_text("{\"schema_version\": 2}").is_err());
        assert!(BenchHistory::from_text("{\"schema_version\": 3, \"entries\": []}").is_err());
    }

    /// The verdict on an entry whose compared counts all match.
    fn equal(predates: &[&'static str]) -> CountGate {
        CountGate::Compared { changes: Vec::new(), predates: predates.to_vec() }
    }

    #[test]
    fn gate_passes_equal_counts_whatever_the_timings() {
        let baseline = v2_entry();
        let slower = with_field(&baseline, "arena_ns.total", 9.9e9);
        let slower = with_field(&slower, "arena_ns.sample", 9.9e9);
        assert_eq!(gate_counts(Some(&baseline), &slower), equal(&[]));
        assert_eq!(gate_counts(Some(&baseline), &baseline), equal(&[]));
    }

    #[test]
    fn gate_fails_and_names_each_changed_count() {
        let baseline = v2_entry();
        for field in COUNTED_FIELDS {
            let old = counted(&baseline, field).unwrap();
            let changed = with_field(&baseline, field, old + 1.0);
            assert_eq!(
                gate_counts(Some(&baseline), &changed),
                CountGate::Compared {
                    changes: vec![format!("{field} baseline {old} now {}", old + 1.0)],
                    predates: Vec::new(),
                },
            );
        }
    }

    #[test]
    fn gate_skips_without_a_baseline_or_its_counts() {
        let entry = v2_entry();
        assert!(matches!(gate_counts(None, &entry), CountGate::Skipped(_)));
        // An entry without counts at all.
        let bare = parse_json(r#"{ "scenario": "powerlaw_cluster_10k_t1", "profile": "quick" }"#);
        assert!(matches!(gate_counts(Some(&bare.unwrap()), &entry), CountGate::Skipped(_)));
    }

    #[test]
    fn gate_compares_what_an_older_baseline_carries() {
        // A baseline recorded before `pool.dangling`, `pool.cycles` and
        // `pool.digest` existed still gates the other nine counts, and
        // the verdict names the three it predates.
        let old =
            V2.replace(", \"dangling\": 0, \"cycles\": 22174, \"digest\": 4503599627370497", "");
        let old = BenchHistory::from_text(&old).unwrap().entries.remove(0);
        let predates = ["pool.dangling", "pool.cycles", "pool.digest"];
        let entry = v2_entry();
        assert_eq!(gate_counts(Some(&old), &entry), equal(&predates));
        let changed = with_field(&entry, "pool.type1", 7_827.0);
        assert_eq!(
            gate_counts(Some(&old), &changed),
            CountGate::Compared {
                changes: vec!["pool.type1 baseline 7826 now 7827".into()],
                predates: predates.to_vec(),
            },
        );
    }

    #[test]
    fn committed_history_still_loads_and_gates() {
        // The committed record holds entries of every earlier shape,
        // including timing columns no cell emits any more: it must load,
        // and such an entry must still gate as a baseline.
        let history =
            BenchHistory::from_text(include_str!("../../../BENCH_sampling.json")).unwrap();
        let baseline = history.last_for("dataset_youtube_220k_t4", "quick").unwrap();
        assert_eq!(gate_counts(Some(baseline), baseline), equal(&[]));
        let rendered = BenchHistory::from_text(&history.to_text()).unwrap();
        assert_eq!(rendered.entries, history.entries);
    }

    #[test]
    fn stamp_renders_every_field() {
        let stamp = Stamp {
            git_rev: "0123abcd".into(),
            rustc: "rustc 1.0.0".into(),
            cpu: "Test \"CPU\"".into(),
            nproc: 2,
            unix_time: 1_700_000_000,
        };
        let value = parse_json(&stamp.to_json().render()).unwrap();
        assert_eq!(value.get("git_rev").and_then(JsonValue::as_str), Some("0123abcd"));
        assert_eq!(value.get("cpu").and_then(JsonValue::as_str), Some("Test \"CPU\""));
        assert_eq!(value.path_f64(&["nproc"]), Some(2.0));
        assert_eq!(value.path_f64(&["unix_time"]), Some(1_700_000_000.0));
        let collected = Stamp::collect(Path::new("BENCH_sampling.json"));
        assert!(collected.nproc >= 1 && collected.unix_time > 0);
    }

    #[test]
    fn rev_label_marks_trees_that_differ_from_head() {
        let history = Path::new("BENCH_sampling.json");
        assert_eq!(rev_label("0123abcd", "", history), "0123abcd");
        // The history file being appended to never dirties the tree,
        // however its path is spelled.
        assert_eq!(rev_label("0123abcd", "BENCH_sampling.json\n", history), "0123abcd");
        let dotted = Path::new("./BENCH_sampling.json");
        assert_eq!(rev_label("0123abcd", "BENCH_sampling.json\n", dotted), "0123abcd");
        // Any other tracked change does.
        let changed = "BENCH_sampling.json\ncrates/model/src/sampler.rs\n";
        assert_eq!(rev_label("0123abcd", changed, history), "0123abcd-dirty");
        let elsewhere = Path::new("../history.json");
        assert_eq!(rev_label("0123abcd", "BENCH_sampling.json\n", elsewhere), "0123abcd-dirty");
    }
}
