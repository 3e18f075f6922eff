//! The `raf serve` line protocol: whitespace-separated request lines in,
//! one `ok`/`err` response line per request out. No network, no framing
//! beyond newlines — the format works identically for a batch request
//! file and an interactive stdin session.
//!
//! Request: `s t alpha [budget]` (ids in original space; `budget`
//! defaults to the context's walk ceiling). Blank lines and `#` comments
//! are skipped. Two more verbs dispatch on the first field: the
//! multi-target verb `campaign s t1,t2,... alpha budget` (one shared
//! invitation budget allocated across up to [`MAX_CAMPAIGN_TARGETS`]
//! targets, answered with an `ok campaign …` line), and — on a session
//! serving a dynamic graph — the churn verb `delta <spec>`, where
//! `<spec>` is the edge-delta grammar (`+u:v` add, `-u:v` remove,
//! comma- or whitespace-separated) — parsed by [`parse_line`], answered
//! with an `ok delta …` summary line.
//!
//! Response: `ok s=<s> t=<t> alpha=<α> hit=<0|1> walks=<l> size=<|I*|>
//! covered=<c> p=<p> pmax=<estimate> inv=<id,id,...>` on success — with
//! ` degraded=1` appended when the answer came from a deadline-truncated
//! partial pool (`walks` then reports the walks actually sampled) — and
//! `err s=<s> t=<t>: <message>` on a per-query failure. An `ok campaign`
//! line carries the same marker when any target pool was truncated.
//!
//! Parsing is total: any byte sequence — non-UTF-8, NUL bytes, absurd
//! field counts, kilobyte-long numbers — produces either a request or a
//! deterministic error string, never a panic and never a dead session
//! (fuzzed in `crates/serve/tests/proptest_protocol.rs`).

use crate::campaign::{CampaignAnswer, CampaignQuery};
use crate::context::{DeltaOutcome, Query, QueryAnswer, ServeError};
use raf_graph::{EdgeDelta, NodeId};

/// Longest field rendering quoted back in a parse error: a hostile
/// kilobyte-long "number" gets truncated instead of echoed in full, so
/// error lines stay bounded no matter the input.
const QUOTE_CAP: usize = 32;

fn bounded(text: &str, cap: usize) -> String {
    if text.chars().count() <= cap {
        text.to_string()
    } else {
        let head: String = text.chars().take(cap).collect();
        format!("{head}… ({} bytes)", text.len())
    }
}

fn snippet(field: &str) -> String {
    bounded(field, QUOTE_CAP)
}

/// Cap for a whole echoed delta-spec error: the underlying parser quotes
/// offending tokens verbatim, so the bound sits above the message, not
/// the field.
const DELTA_ERR_CAP: usize = 160;

/// Parses a node id field. Ids must fit the graph layer's u32 id space
/// *before* `NodeId` construction: `NodeId::new` debug-asserts the
/// bound, so an oversized id would panic a debug serve session — and
/// silently truncate (aliasing a small id) in release.
fn parse_id(raw: &str, what: &str) -> Result<usize, String> {
    let id: usize = raw.parse().map_err(|_| format!("bad {what} id {:?}", snippet(raw)))?;
    if id > u32::MAX as usize {
        return Err(format!("{what} id {id} overflows the 32-bit id space"));
    }
    Ok(id)
}

/// Parses one query line. Returns `Ok(None)` for blank lines and `#`
/// comments (skipped, no response emitted).
///
/// # Errors
///
/// A human-readable description of the malformed line, deterministic in
/// the input bytes and bounded in length.
fn parse_request(line: &str, default_budget: u64) -> Result<Option<Query>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let (s_raw, t_raw, alpha_raw) = match (fields.next(), fields.next(), fields.next()) {
        (Some(s), Some(t), Some(a)) => (s, t, a),
        _ => {
            let n = line.split_whitespace().count();
            return Err(format!("expected `s t alpha [budget]`, got {n} field(s)"));
        }
    };
    let budget_raw = fields.next();
    if fields.next().is_some() {
        let n = line.split_whitespace().count();
        return Err(format!("expected `s t alpha [budget]`, got {n} field(s)"));
    }
    let s = parse_id(s_raw, "source")?;
    let t = parse_id(t_raw, "target")?;
    let alpha: f64 =
        alpha_raw.parse().map_err(|_| format!("bad alpha {:?}", snippet(alpha_raw)))?;
    let budget: u64 = match budget_raw {
        None => default_budget,
        Some(raw) => raw.parse().map_err(|_| format!("bad budget {:?}", snippet(raw)))?,
    };
    Ok(Some(Query { s: NodeId::new(s), t: NodeId::new(t), alpha, budget }))
}

/// One parsed request line: a friending query, a multi-target campaign,
/// or the churn verb applying an edge delta to the session's resident
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `s t alpha [budget]` — answer a friending query.
    Query(Query),
    /// `campaign s t1,t2,... alpha budget` — allocate one shared
    /// invitation budget across several targets.
    Campaign(CampaignQuery),
    /// `delta <spec>` — apply edge churn before serving further queries.
    Delta(EdgeDelta),
}

/// Most targets one `campaign` line may list: keeps a hostile request
/// from turning one line into an unbounded sampling fan-out (each
/// uncached target costs a full pool).
pub const MAX_CAMPAIGN_TARGETS: usize = 16;

/// Parses the `campaign s t1,t2,... alpha budget` verb (the line
/// starts with the verb itself when this is called).
fn parse_campaign(line: &str) -> Result<CampaignQuery, String> {
    let mut fields = line.split_whitespace();
    fields.next(); // the verb
    let (s_raw, targets_raw, alpha_raw, budget_raw) =
        match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(s), Some(t), Some(a), Some(b)) => (s, t, a, b),
            _ => {
                let n = line.split_whitespace().count() - 1;
                return Err(format!(
                    "expected `campaign s t1,t2,... alpha budget`, got {n} field(s)"
                ));
            }
        };
    if fields.next().is_some() {
        let n = line.split_whitespace().count() - 1;
        return Err(format!("expected `campaign s t1,t2,... alpha budget`, got {n} field(s)"));
    }
    let s = parse_id(s_raw, "source")?;
    let raw_targets: Vec<&str> = targets_raw.split(',').collect();
    if raw_targets.len() > MAX_CAMPAIGN_TARGETS {
        return Err(format!(
            "campaign lists {} targets, cap is {MAX_CAMPAIGN_TARGETS}",
            raw_targets.len()
        ));
    }
    let mut targets = Vec::with_capacity(raw_targets.len());
    for raw in raw_targets {
        targets.push(NodeId::new(parse_id(raw, "target")?));
    }
    let alpha: f64 =
        alpha_raw.parse().map_err(|_| format!("bad alpha {:?}", snippet(alpha_raw)))?;
    let budget: usize =
        budget_raw.parse().map_err(|_| format!("bad budget {:?}", snippet(budget_raw)))?;
    Ok(CampaignQuery { s: NodeId::new(s), targets, alpha, budget })
}

/// Parses one request line of the full protocol. Lines whose first
/// field is the verb `delta` parse the rest as an edge-delta spec, lines
/// starting with `campaign` as a campaign, and every other line as an
/// `s t alpha [budget]` query. Returns `Ok(None)` for blank lines and
/// `#` comments (skipped, no response emitted).
///
/// # Errors
///
/// A human-readable description of the malformed line, deterministic in
/// the input bytes and bounded in length — hostile kilobyte tokens
/// inside a delta spec are truncated before they are echoed.
pub fn parse_line(line: &str, default_budget: u64) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some("delta") => {
            let spec = line["delta".len()..].trim();
            if spec.is_empty() {
                return Err("expected `delta <+u:v|-u:v>[,...]`, got no operations".to_string());
            }
            let delta = EdgeDelta::parse(spec)
                .map_err(|e| format!("bad delta: {}", bounded(&e.to_string(), DELTA_ERR_CAP)))?;
            Ok(Some(Request::Delta(delta)))
        }
        Some("campaign") => Ok(Some(Request::Campaign(parse_campaign(line)?))),
        _ => Ok(parse_request(line, default_budget)?.map(Request::Query)),
    }
}

/// Parses one raw request line that may not be valid UTF-8 — the entry
/// point `raf serve` reads stdin and request files through, so a client
/// writing garbage bytes gets an `err` response instead of killing the
/// session. Invalid sequences decode lossily (U+FFFD), which can never
/// form a digit, so they surface as ordinary deterministic parse errors.
///
/// # Errors
///
/// Same contract as [`parse_line`].
pub fn parse_line_bytes(line: &[u8], default_budget: u64) -> Result<Option<Request>, String> {
    parse_line(&String::from_utf8_lossy(line), default_budget)
}

/// Renders a successful answer as one `ok` response line. Degraded
/// answers (deadline-truncated pool) carry a trailing ` degraded=1`
/// marker; full answers render byte-identically to a protocol without
/// the extension.
pub fn format_answer(query: &Query, answer: &QueryAnswer) -> String {
    let inv: Vec<String> = answer.invitations.iter().map(|v| v.index().to_string()).collect();
    let mut line = format!(
        "ok s={} t={} alpha={} hit={} walks={} size={} covered={} p={} pmax={:.6} inv={}",
        query.s.index(),
        query.t.index(),
        query.alpha,
        u8::from(answer.cache_hit),
        answer.walks,
        answer.invitations.len(),
        answer.covered,
        answer.cover_p,
        answer.pmax_estimate,
        inv.join(","),
    );
    if answer.degraded {
        line.push_str(" degraded=1");
    }
    line
}

/// Renders a per-query failure as one `err` response line.
pub fn format_error(query: &Query, error: &ServeError) -> String {
    format!("err s={} t={}: {error}", query.s.index(), query.t.index())
}

/// Renders a successful campaign as one `ok campaign` response line:
/// the shared invitation set, the winning allocation arm, and a
/// `per=` list of `target:covered:estimate` triples in canonical
/// (ascending target id) order. Like [`format_answer`], a campaign
/// answered from any deadline-truncated pool carries a trailing
/// ` degraded=1` (`walks` still echoes the ceiling); full answers render
/// byte-identically to a protocol without the marker.
pub fn format_campaign_answer(query: &CampaignQuery, answer: &CampaignAnswer) -> String {
    let per: Vec<String> = answer
        .targets
        .iter()
        .map(|t| format!("{}:{}:{:.6}", t.target.index(), t.covered, t.estimate))
        .collect();
    let inv: Vec<String> = answer.invitations.iter().map(|v| v.index().to_string()).collect();
    let mut line = format!(
        "ok campaign s={} k={} alpha={} budget={} hits={} walks={} size={} objective={:.6} \
         arm={} per={} inv={}",
        query.s.index(),
        answer.targets.len(),
        query.alpha,
        query.budget,
        answer.hits,
        answer.walks,
        answer.invitations.len(),
        answer.objective,
        answer.arm,
        per.join(","),
        inv.join(","),
    );
    if answer.degraded {
        line.push_str(" degraded=1");
    }
    line
}

/// Renders a failed campaign as one `err campaign` response line.
pub fn format_campaign_error(query: &CampaignQuery, error: &ServeError) -> String {
    format!("err campaign s={}: {error}", query.s.index())
}

/// Renders the outcome of an applied delta as one `ok delta` response
/// line: the effective graph change and the fate of every resident pool
/// (repaired in place / untouched / flushed), with the re-sampled walk
/// mass — the number a churn client watches to confirm repair cost
/// scaled with the touch set and not the graph.
pub fn format_delta_outcome(outcome: &DeltaOutcome) -> String {
    let mut line = format!(
        "ok delta added={} removed={} touched={} repaired={} untouched={} flushed={} resampled={}",
        outcome.added,
        outcome.removed,
        outcome.touched_nodes,
        outcome.repaired,
        outcome.untouched,
        outcome.flushed,
        outcome.resampled_walks,
    );
    if outcome.noop {
        line.push_str(" noop=1");
    }
    line
}

/// Renders a failed delta application as one `err delta` response line.
pub fn format_delta_error(error: &ServeError) -> String {
    format!("err delta: {error}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_requests_with_and_without_budget() {
        let q = parse_request("3 99 0.3 20000", 50_000).unwrap().unwrap();
        assert_eq!((q.s.index(), q.t.index()), (3, 99));
        assert_eq!(q.alpha, 0.3);
        assert_eq!(q.budget, 20_000);
        let q = parse_request("  3\t99  0.3 ", 50_000).unwrap().unwrap();
        assert_eq!(q.budget, 50_000, "budget defaults to the context ceiling");
    }

    #[test]
    fn skips_blanks_and_comments() {
        assert_eq!(parse_request("", 1).unwrap(), None);
        assert_eq!(parse_request("   ", 1).unwrap(), None);
        assert_eq!(parse_request("# s t alpha", 1).unwrap(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("3 99", 1).unwrap_err().contains("field"));
        assert!(parse_request("3 99 0.3 20000 extra", 1).is_err());
        assert!(parse_request("x 99 0.3", 1).unwrap_err().contains("source"));
        assert!(parse_request("3 y 0.3", 1).unwrap_err().contains("target"));
        assert!(parse_request("3 99 zz", 1).unwrap_err().contains("alpha"));
        assert!(parse_request("3 99 0.3 -1", 1).unwrap_err().contains("budget"));
    }

    #[test]
    fn byte_lines_never_kill_the_parser() {
        // Valid UTF-8 passes through unchanged.
        match parse_line_bytes(b"3 99 0.3 20000", 1).unwrap().unwrap() {
            Request::Query(q) => assert_eq!((q.s.index(), q.t.index()), (3, 99)),
            other => panic!("expected a query, got {other:?}"),
        }
        // Invalid UTF-8 decodes lossily and fails as a plain parse error,
        // deterministically.
        let a = parse_line_bytes(b"\xff\xfe 99 0.3", 1).unwrap_err();
        let b = parse_line_bytes(b"\xff\xfe 99 0.3", 1).unwrap_err();
        assert_eq!(a, b);
        assert!(a.contains("source"), "{a}");
        // NUL bytes are field content, not separators.
        assert!(parse_line_bytes(b"3\x0099 0.3", 1).is_err());
        // Non-UTF-8 comments are still comments.
        assert_eq!(parse_line_bytes(b"# \xff\xfe", 1).unwrap(), None);
    }

    #[test]
    fn ids_beyond_u32_are_rejected_not_truncated() {
        // Regression: ids over u32::MAX used to reach NodeId::new, which
        // debug-asserts (killing a debug serve session) and truncates in
        // release — so id 2^32 would silently alias node 0, pool key and
        // cache entry included. The parser must reject them first.
        let over = (1u64 << 32).to_string();
        let err = parse_request(&format!("{over} 1 0.3"), 1).unwrap_err();
        assert_eq!(err, "source id 4294967296 overflows the 32-bit id space");
        let err = parse_request(&format!("1 {over} 0.3"), 1).unwrap_err();
        assert!(err.contains("target id"), "{err}");
        // The largest representable id still parses.
        let q = parse_request(&format!("{} 1 0.3", u32::MAX), 1).unwrap().unwrap();
        assert_eq!(q.s.index(), u32::MAX as usize);
    }

    #[test]
    fn hostile_fields_are_quoted_bounded() {
        let huge = format!("{} 99 0.3", "9".repeat(4_096));
        let err = parse_request(&huge, 1).unwrap_err();
        assert!(err.len() < 128, "error must stay bounded, got {} bytes", err.len());
        assert!(err.contains("(4096 bytes)"), "{err}");
        // Short fields keep the legacy full quoting.
        assert_eq!(parse_request("x 99 0.3", 1).unwrap_err(), "bad source id \"x\"");
    }

    #[test]
    fn delta_lines_parse_through_the_full_protocol() {
        // Query lines come through unchanged.
        match parse_line("3 99 0.3 20000", 1).unwrap().unwrap() {
            Request::Query(q) => assert_eq!((q.s.index(), q.t.index()), (3, 99)),
            other => panic!("expected a query, got {other:?}"),
        }
        assert_eq!(parse_line("# comment", 1).unwrap(), None);
        assert_eq!(parse_line("", 1).unwrap(), None);
        // The churn verb parses the rest of the line as a delta spec.
        match parse_line("delta +0:3,-1:2", 1).unwrap().unwrap() {
            Request::Delta(d) => assert_eq!(d.spec(), "+0:3,-1:2"),
            other => panic!("expected a delta, got {other:?}"),
        }
        // Whitespace-separated ops work too.
        match parse_line("delta  +0:3  -1:2 ", 1).unwrap().unwrap() {
            Request::Delta(d) => assert_eq!(d.len(), 2),
            other => panic!("expected a delta, got {other:?}"),
        }
        // Byte-level entry point shares the contract.
        assert!(matches!(parse_line_bytes(b"delta +0:1", 1).unwrap().unwrap(), Request::Delta(_)));
    }

    #[test]
    fn malformed_delta_lines_error_deterministically_and_bounded() {
        assert!(parse_line("delta", 1).unwrap_err().contains("no operations"));
        assert!(parse_line("delta  ", 1).unwrap_err().contains("no operations"));
        let err = parse_line("delta ~0:1", 1).unwrap_err();
        assert!(err.starts_with("bad delta: "), "{err}");
        // Self-loops are rejected at parse time, before any application.
        assert!(parse_line("delta +5:5", 1).unwrap_err().contains("self-loop"));
        // A field that merely *starts* with the verb is a normal
        // (malformed) query, not a delta.
        assert!(parse_line("delta7 1 0.3", 1).unwrap_err().contains("source"));
        // Hostile long specs stay bounded in the echo.
        let huge = format!("delta +0:{}", "9".repeat(4_096));
        let err = parse_line(&huge, 1).unwrap_err();
        assert!(err.len() < 256, "error must stay bounded, got {} bytes", err.len());
        // Determinism.
        assert_eq!(parse_line(&huge, 1).unwrap_err(), err);
    }

    #[test]
    fn campaign_lines_parse_through_the_full_protocol() {
        match parse_line("campaign 0 1,7,3 0.5 4", 1).unwrap().unwrap() {
            Request::Campaign(c) => {
                assert_eq!(c.s.index(), 0);
                assert_eq!(c.targets.iter().map(|t| t.index()).collect::<Vec<_>>(), [1, 7, 3]);
                assert_eq!(c.alpha, 0.5);
                assert_eq!(c.budget, 4);
            }
            other => panic!("expected a campaign, got {other:?}"),
        }
        // A single target is legal (the k=1 degenerate case).
        assert!(matches!(
            parse_line("campaign 0 1 0.5 4", 1).unwrap().unwrap(),
            Request::Campaign(c) if c.targets.len() == 1
        ));
        // Byte-level entry point shares the contract.
        assert!(matches!(
            parse_line_bytes(b"campaign 0 1,7 0.5 4", 1).unwrap().unwrap(),
            Request::Campaign(_)
        ));
        // A field merely *starting* with the verb is a normal query.
        assert!(parse_line("campaign7 1 0.3", 1).unwrap_err().contains("source"));
    }

    #[test]
    fn malformed_campaign_lines_error_deterministically_and_bounded() {
        assert!(parse_line("campaign", 1).unwrap_err().contains("0 field(s)"));
        assert!(parse_line("campaign 0 1,2 0.5", 1).unwrap_err().contains("3 field(s)"));
        assert!(parse_line("campaign 0 1,2 0.5 4 extra", 1).unwrap_err().contains("5 field(s)"));
        assert!(parse_line("campaign x 1 0.5 4", 1).unwrap_err().contains("source"));
        assert!(parse_line("campaign 0 1,,2 0.5 4", 1).unwrap_err().contains("target"));
        assert!(parse_line("campaign 0 1,y 0.5 4", 1).unwrap_err().contains("target"));
        assert!(parse_line("campaign 0 1,2 zz 4", 1).unwrap_err().contains("alpha"));
        assert!(parse_line("campaign 0 1,2 0.5 -4", 1).unwrap_err().contains("budget"));
        // Oversized ids are rejected before NodeId construction.
        let over = (1u64 << 32).to_string();
        let err = parse_line(&format!("campaign 0 {over} 0.5 4"), 1).unwrap_err();
        assert!(err.contains("32-bit"), "{err}");
        // The target-count cap bounds the sampling fan-out of one line.
        let many: Vec<String> = (1..=MAX_CAMPAIGN_TARGETS + 1).map(|t| t.to_string()).collect();
        let err = parse_line(&format!("campaign 0 {} 0.5 4", many.join(",")), 1).unwrap_err();
        assert!(err.contains("cap is 16"), "{err}");
        let at_cap: Vec<String> = (1..=MAX_CAMPAIGN_TARGETS).map(|t| t.to_string()).collect();
        assert!(parse_line(&format!("campaign 0 {} 0.5 4", at_cap.join(",")), 1).is_ok());
        // Hostile long fields stay bounded in the echo.
        let huge = format!("campaign 0 {} 0.5 4", "9".repeat(4_096));
        let err = parse_line(&huge, 1).unwrap_err();
        assert!(err.len() < 128, "error must stay bounded, got {} bytes", err.len());
        assert_eq!(parse_line(&huge, 1).unwrap_err(), err);
    }

    #[test]
    fn campaign_responses_format_one_line_summaries() {
        use crate::{ServeConfig, SessionContext};
        use raf_graph::{GraphBuilder, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
            .unwrap();
        let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let cfg = ServeConfig { walks: 4_000, seed: 7, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        let request = match parse_line("campaign 0 7,1 0.5 4", 4_000).unwrap().unwrap() {
            Request::Campaign(c) => c,
            other => panic!("expected a campaign, got {other:?}"),
        };
        let answer = ctx.campaign(&request).unwrap();
        let line = format_campaign_answer(&request, &answer);
        assert!(
            line.starts_with("ok campaign s=0 k=2 alpha=0.5 budget=4 hits=0 walks=4000 "),
            "{line}"
        );
        assert!(line.contains(" arm="), "{line}");
        // Per-target triples render in canonical ascending-id order even
        // though the request listed 7 first.
        let per = line.split("per=").nth(1).unwrap().split(' ').next().unwrap();
        assert!(per.starts_with("1:"), "{per}");
        let err = ctx.campaign(&CampaignQuery { targets: vec![], ..request.clone() }).unwrap_err();
        assert_eq!(
            format_campaign_error(&request, &err),
            "err campaign s=0: invalid query: campaign lists no targets"
        );
    }

    #[test]
    fn delta_outcomes_format_one_line_summaries() {
        let outcome = DeltaOutcome {
            added: 2,
            removed: 1,
            touched_nodes: 5,
            repaired: 3,
            untouched: 1,
            flushed: 1,
            resampled_walks: 1_234,
            noop: false,
        };
        assert_eq!(
            format_delta_outcome(&outcome),
            "ok delta added=2 removed=1 touched=5 repaired=3 untouched=1 flushed=1 resampled=1234"
        );
        let noop = DeltaOutcome {
            added: 0,
            removed: 0,
            touched_nodes: 0,
            repaired: 0,
            untouched: 0,
            flushed: 0,
            resampled_walks: 0,
            noop: true,
        };
        assert!(format_delta_outcome(&noop).ends_with(" noop=1"));
        let err =
            ServeError::Delta(raf_graph::GraphError::NodeOutOfRange { node: 999, node_count: 8 });
        assert_eq!(
            format_delta_error(&err),
            "err delta: delta rejected: node 999 out of range for graph with 8 nodes"
        );
    }

    #[test]
    fn degraded_marker_appears_only_when_degraded() {
        use crate::{DeadlinePolicy, ServeConfig, SessionContext};
        use raf_graph::{GraphBuilder, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)]).unwrap();
        let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let q = parse_request("0 1 0.5 10000", 1).unwrap().unwrap();
        let full = SessionContext::new(&csr, ServeConfig::default()).query(&q).unwrap();
        assert!(!format_answer(&q, &full).contains("degraded"));
        let limited = ServeConfig {
            deadline: DeadlinePolicy { work_budget: Some(2_000), wall_clock_ms: None },
            ..Default::default()
        };
        let partial = SessionContext::new(&csr, limited).query(&q).unwrap();
        assert!(partial.degraded);
        let line = format_answer(&q, &partial);
        assert!(line.ends_with(" degraded=1"), "{line}");
        assert!(line.contains(&format!("walks={}", partial.walks)));
    }

    #[test]
    fn campaign_degraded_marker_appears_only_when_degraded() {
        use crate::{DeadlinePolicy, ServeConfig, SessionContext};
        use raf_graph::{GraphBuilder, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
            .unwrap();
        let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let request = match parse_line("campaign 0 7,1 0.5 4", 4_000).unwrap().unwrap() {
            Request::Campaign(c) => c,
            other => panic!("expected a campaign, got {other:?}"),
        };
        // Unbudgeted: no marker, the line still ends with the `inv=` list.
        let cfg = ServeConfig { walks: 4_000, seed: 7, ..Default::default() };
        let full = SessionContext::new(&csr, cfg.clone()).campaign(&request).unwrap();
        assert!(!full.degraded);
        let inv: Vec<String> = full.invitations.iter().map(|v| v.index().to_string()).collect();
        let line = format_campaign_answer(&request, &full);
        assert!(line.ends_with(&format!(" inv={}", inv.join(","))), "{line}");
        // A work budget truncates the target pools: the campaign says so,
        // while `walks=` keeps echoing the ceiling.
        let limited = ServeConfig {
            deadline: DeadlinePolicy { work_budget: Some(2_000), wall_clock_ms: None },
            ..cfg
        };
        let partial = SessionContext::new(&csr, limited).campaign(&request).unwrap();
        assert!(partial.degraded);
        assert!(partial.targets.iter().all(|t| t.samples < partial.walks));
        let line = format_campaign_answer(&request, &partial);
        assert!(line.ends_with(" degraded=1"), "{line}");
        assert!(line.contains(" walks=4000 "), "{line}");
    }

    #[test]
    fn responses_round_trip_through_the_format() {
        use crate::{ServeConfig, SessionContext};
        use raf_graph::{GraphBuilder, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)]).unwrap();
        let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let mut ctx = SessionContext::new(&csr, ServeConfig::default());
        let q = parse_request("0 1 0.5 10000", 50_000).unwrap().unwrap();
        let a = ctx.query(&q).unwrap();
        let line = format_answer(&q, &a);
        assert!(line.starts_with("ok s=0 t=1 alpha=0.5 hit=0 walks=10000 "));
        assert!(line.contains(&format!("size={}", a.invitations.len())));
        assert!(line.contains("inv="));
        // The target is always invited, so its id appears in the list.
        assert!(line.split("inv=").nth(1).unwrap().split(',').any(|v| v == "1"));
        let err = ctx.query(&Query { budget: 0, ..q }).unwrap_err();
        let line = format_error(&q, &err);
        assert!(line.starts_with("err s=0 t=1: "));
        assert!(line.contains("budget"));
    }
}
