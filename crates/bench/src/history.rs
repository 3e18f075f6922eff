//! Append-only benchmark history for `BENCH_sampling.json`.
//!
//! The file used to hold a single report object that every `raf
//! bench-json` run overwrote — the perf trajectory across PRs was lost
//! (a ROADMAP open item). It is now a schema-versioned history:
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
//! `(scenario, profile)` pair is the current baseline the CI
//! `bench-regression` job gates against. A legacy single-object v1 file
//! is migrated in place: it becomes the first history entry, tagged with
//! the scenario the old hard-coded workload corresponds to.
//!
//! The workspace's vendored `serde` is a no-op shim, so this module
//! carries a small hand-rolled JSON reader/writer ([`JsonValue`]) that
//! covers the subset the bench reports emit.

use std::fmt::Write as _;

/// The scenario name of the workload the v1 single-object file measured.
pub const V1_SCENARIO: &str = "powerlaw_cluster_10k_t1";

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
    /// Parses a history file, migrating a legacy v1 single-object report
    /// (no `schema_version`) into the first entry. An empty or
    /// whitespace-only text yields an empty history.
    ///
    /// # Errors
    ///
    /// Returns a description of the syntax or schema problem.
    pub fn from_text(text: &str) -> Result<Self, String> {
        if text.trim().is_empty() {
            return Ok(BenchHistory::default());
        }
        let value = parse_json(text)?;
        if value.get("schema_version").is_some() {
            let entries = match value.get("entries") {
                Some(JsonValue::Arr(items)) => items.clone(),
                _ => return Err("schema v2 file lacks an \"entries\" array".into()),
            };
            return Ok(BenchHistory { entries });
        }
        // v1: one bare report object for the old hard-coded workload.
        if value.get("benchmark").is_none() {
            return Err("neither a v2 history nor a v1 report".into());
        }
        let mut entry = vec![
            ("scenario".to_string(), JsonValue::Str(V1_SCENARIO.into())),
            ("profile".to_string(), JsonValue::Str("full".into())),
        ];
        if let JsonValue::Obj(fields) = value {
            entry.extend(fields.into_iter().filter(|(k, _)| k != "benchmark"));
        }
        Ok(BenchHistory { entries: vec![JsonValue::Obj(entry)] })
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

    /// The arena sampling+solve total (ns) of the most recent entry for
    /// the pair, i.e. the regression baseline.
    pub fn baseline_total_ns(&self, scenario: &str, profile: &str) -> Option<f64> {
        self.last_for(scenario, profile)?.path_f64(&["arena_ns", "total"])
    }

    /// The legacy sampling time (ns) of the same baseline entry. The
    /// legacy sampler is a frozen replica of the pre-arena code, so its
    /// wall clock calibrates machine speed and lets the regression gate
    /// compare runs recorded on different machines.
    pub fn baseline_legacy_sample_ns(&self, scenario: &str, profile: &str) -> Option<f64> {
        self.last_for(scenario, profile)?.path_f64(&["legacy_ns", "sample"])
    }
}

/// How the regression gate should account for machine speed when
/// comparing a fresh measurement against a committed baseline, derived
/// from the calibration timing (the frozen legacy sampler) recorded in
/// both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineFactor {
    /// Both calibration timings are sane: multiply the baseline by this
    /// `current / baseline` factor before gating.
    Normalize(f64),
    /// The baseline entry predates calibration timings: compare raw ns
    /// (the historical fallback; noisy across machines but not wrong).
    Raw,
    /// At least one calibration timing is zero, denormal, or non-finite.
    /// The gate must be *skipped with this warning* — dividing by (or
    /// multiplying with) such a value used to collapse the factor to 1.0
    /// and pass the gate vacuously.
    Skip(&'static str),
}

/// Derives the [`MachineFactor`] from a baseline calibration timing (as
/// recorded in the history entry, `None` when the entry predates the
/// field) and the same calibration measured in the current run.
pub fn machine_factor(baseline_ns: Option<f64>, current_ns: f64) -> MachineFactor {
    // A denormal (or zero, or non-finite) timing cannot calibrate
    // anything: a division by it is ±inf or garbage in the last ulps.
    // `MIN_POSITIVE` is the smallest *normal* f64, so this catches the
    // whole subnormal range too.
    fn unusable(x: f64) -> bool {
        !x.is_finite() || x < f64::MIN_POSITIVE
    }
    match baseline_ns {
        None => MachineFactor::Raw,
        Some(b) if unusable(b) => {
            MachineFactor::Skip("baseline calibration timing is zero/denormal")
        }
        Some(_) if unusable(current_ns) => {
            MachineFactor::Skip("current calibration timing is zero/denormal")
        }
        Some(b) => MachineFactor::Normalize(current_ns / b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: &str = r#"{
  "benchmark": "sampling_pipeline",
  "graph": { "kind": "powerlaw_cluster", "nodes": 10000, "edges": 19997, "s": 7, "t": 3633 },
  "config": { "walks": 200000, "seed": 7, "threads": 1, "reps": 3, "beta": 0.3 },
  "pool": { "type1": 51517, "unique_paths": 793, "dedup_factor": 64.965, "pmax_estimate": 0.257585, "cover_p": 15456 },
  "legacy_ns": { "sample": 33467145, "solve": 14859407, "total": 48326552 },
  "arena_ns": { "sample": 19919465, "solve": 1494507, "total": 21413972 },
  "cost": { "legacy": 1, "arena": 1 },
  "speedup": 2.257
}"#;

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
        let v = parse_json(V1).unwrap();
        let text = v.render();
        assert!(text.contains("21413972"), "ns total mangled: {text}");
        assert!(text.contains("2.257"), "float mangled");
        let again = parse_json(&text).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn migrates_v1_to_history() {
        let h = BenchHistory::from_text(V1).unwrap();
        assert_eq!(h.entries.len(), 1);
        let e = &h.entries[0];
        assert_eq!(e.get("scenario").and_then(JsonValue::as_str), Some(V1_SCENARIO));
        assert_eq!(e.get("profile").and_then(JsonValue::as_str), Some("full"));
        assert_eq!(h.baseline_total_ns(V1_SCENARIO, "full"), Some(21_413_972.0));
        assert_eq!(h.baseline_legacy_sample_ns(V1_SCENARIO, "full"), Some(33_467_145.0));
        assert_eq!(h.baseline_total_ns(V1_SCENARIO, "quick"), None);
    }

    #[test]
    fn history_appends_and_reloads() {
        let mut h = BenchHistory::from_text(V1).unwrap();
        h.push(JsonValue::Obj(vec![
            ("scenario".into(), JsonValue::Str(V1_SCENARIO.into())),
            ("profile".into(), JsonValue::Str("full".into())),
            (
                "arena_ns".into(),
                JsonValue::Obj(vec![("total".into(), JsonValue::Num(15_000_000.0))]),
            ),
        ]));
        let text = h.to_text();
        let h2 = BenchHistory::from_text(&text).unwrap();
        assert_eq!(h2.entries.len(), 2);
        // Latest entry wins as the baseline.
        assert_eq!(h2.baseline_total_ns(V1_SCENARIO, "full"), Some(15_000_000.0));
        // Round trip again: stable.
        assert_eq!(BenchHistory::from_text(&h2.to_text()).unwrap().entries.len(), 2);
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
    }

    #[test]
    fn machine_factor_normalizes_sane_timings() {
        assert_eq!(machine_factor(Some(2.0e6), 1.0e6), MachineFactor::Normalize(0.5));
        assert_eq!(machine_factor(Some(1.0e6), 3.0e6), MachineFactor::Normalize(3.0));
        // A baseline entry predating calibration timings falls back to
        // the raw-ns comparison, as the gate always did.
        assert_eq!(machine_factor(None, 1.0e6), MachineFactor::Raw);
    }

    #[test]
    fn machine_factor_skips_on_zero_or_denormal_timings() {
        // Every unusable shape must *skip*, never normalize to 1.0: the
        // old `.filter(...).map_or(1.0, ...)` collapsed all of these into
        // a vacuous gate pass.
        for bad in [0.0, -1.0, f64::MIN_POSITIVE / 2.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(machine_factor(Some(bad), 1.0e6), MachineFactor::Skip(_)),
                "baseline {bad} must skip"
            );
            assert!(
                matches!(machine_factor(Some(1.0e6), bad), MachineFactor::Skip(_)),
                "current {bad} must skip"
            );
        }
        // The boundary itself is usable: MIN_POSITIVE is a normal f64.
        assert!(matches!(
            machine_factor(Some(f64::MIN_POSITIVE), f64::MIN_POSITIVE),
            MachineFactor::Normalize(_)
        ));
    }

    #[test]
    fn machine_factor_skips_on_a_zeroed_history_entry() {
        // A synthetic baseline entry whose legacy sampling time is zero —
        // the exact shape that used to slip through the quick gate.
        let entry = parse_json(
            r#"{
  "scenario": "powerlaw_cluster_10k_t1",
  "profile": "quick",
  "legacy_ns": { "sample": 0, "solve": 100, "total": 100 },
  "arena_ns": { "sample": 50, "solve": 50, "total": 100 }
}"#,
        )
        .unwrap();
        let mut history = BenchHistory::default();
        history.push(entry);
        let baseline = history.baseline_legacy_sample_ns("powerlaw_cluster_10k_t1", "quick");
        assert_eq!(baseline, Some(0.0));
        assert!(matches!(machine_factor(baseline, 1.0e6), MachineFactor::Skip(_)));
    }
}
