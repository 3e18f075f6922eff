//! Fuzz hardening for the `raf serve` line protocol: parsing is *total*.
//!
//! Any byte sequence a client can write — raw binary, NUL bytes, absurd
//! column counts, kilobyte-long "numbers", ids past the 32-bit node id
//! space — must produce either a parsed request or a deterministic,
//! bounded, single-line error string. Never a panic (a panic would kill
//! an interactive serve session before the robustness layer can even
//! answer `err`), never an unbounded echo of hostile input, and never a
//! silently truncated id (the historical bug: ids over `u32::MAX`
//! reached `NodeId::new`, which debug-asserts in debug builds and
//! wraps in release — so id 2^32 aliased node 0, cache key included).
//!
//! The properties drive `parse_line_bytes`, the entry point `raf serve`
//! reads every line through, so query, `campaign` and `delta` lines are
//! all fuzzed.

use proptest::prelude::*;
use raf_serve::protocol::{parse_line, parse_line_bytes, Request, MAX_CAMPAIGN_TARGETS};

// Hostile-ish tokens: digit runs of absurd length, signs, NULs, UTF-8
// fragments, plain valid numbers, the two verbs, `+u:v`/`-u:v` edge ops
// and comma lists, with ids on both sides of the 32-bit bound, so
// generated lines sit on both sides of every parse branch of every verb.
prop_compose! {
    fn token()(kind in 0u8..11, n in 1usize..40, digit in 0u8..10) -> Vec<u8> {
        let wide = u64::from(digit) << 60;
        match kind {
            0 => vec![b'0' + digit; n],                  // short digit run
            1 => vec![b'0' + digit; 1_024 + n],          // kilobyte number
            2 => vec![0xFF; n],                          // invalid UTF-8
            3 => vec![0x00; n],                          // NULs
            4 => format!("-{}", u64::from(digit)).into_bytes(),
            5 => format!("{}.{}", digit, digit).into_bytes(),
            6 => format!("{wide}").into_bytes(),
            7 => format!("{}", u32::from(digit)).into_bytes(),
            8 => if n % 2 == 0 { b"delta".to_vec() } else { b"campaign".to_vec() },
            9 => {
                let sign = if n % 2 == 0 { '+' } else { '-' };
                let v = if n % 3 == 0 { wide } else { n as u64 };
                format!("{sign}{digit}:{v}").into_bytes()
            }
            _ => {
                let last = if n % 3 == 0 { wide } else { u64::from(digit) + 1 };
                format!("{digit},{n},{last}").into_bytes()
            }
        }
    }
}

// A node id on either side of the 32-bit bound.
prop_compose! {
    fn id()(kind in 0u8..4, small in 0u64..100, digit in 0u64..10) -> Vec<u8> {
        let id = match kind {
            0 | 1 => small,
            2 => u64::from(u32::MAX) - digit,
            _ => u64::from(u32::MAX) + 1 + (digit << 32),
        };
        id.to_string().into_bytes()
    }
}

prop_compose! {
    /// A query, campaign or delta line with ids on both sides of the
    /// 32-bit bound, one field of it swapped for a hostile token in about
    /// a third of the lines; or, one line in four, hostile tokens alone.
    fn request_line()(
        shape in 0u8..4,
        ids in proptest::collection::vec(id(), 4),
        swap in 0usize..12,
        hostile in token(),
        tokens in proptest::collection::vec(token(), 0..8),
    ) -> Vec<u8> {
        let [a, b, c, d] = [&ids[0], &ids[1], &ids[2], &ids[3]];
        let mut fields: Vec<Vec<u8>> = match shape {
            0 => vec![a.clone(), b.clone(), b"0.5".to_vec(), b"100".to_vec()],
            1 => vec![b"campaign".to_vec(), a.clone(), [b, &b","[..], c].concat(),
                      b"0.5".to_vec(), b"4".to_vec()],
            2 => vec![b"delta".to_vec(),
                      [&b"+"[..], a, b":", b, b",-", c, b":", d].concat()],
            _ => return tokens.join(&b' '),
        };
        if let Some(field) = fields.get_mut(swap) {
            *field = hostile;
        }
        fields.join(&b' ')
    }
}

/// Every number the line spells as a maximal run of ASCII digits (runs
/// too long for `u64` are left out).
fn spelled_numbers(line: &[u8]) -> Vec<u64> {
    line.split(|b| !b.is_ascii_digit())
        .filter_map(|run| std::str::from_utf8(run).ok()?.parse().ok())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw bytes: parsing never panics, and the outcome is a pure
    /// function of the line (same bytes, same result — the protocol
    /// promises deterministic errors, not just *some* error).
    #[test]
    fn arbitrary_bytes_parse_totally(line in proptest::collection::vec(0u8..=255, 0..300)) {
        let first = parse_line_bytes(&line, 1_000);
        let second = parse_line_bytes(&line, 1_000);
        prop_assert_eq!(&first, &second);
        if let Err(message) = first {
            prop_assert!(message.len() <= 200, "unbounded error ({} bytes)", message.len());
            prop_assert!(!message.contains('\n'), "error must stay one response line");
        }
    }

    /// Structured hostile lines (verb-shaped lines with ids across the
    /// 32-bit bound and hostile fields, or hostile tokens alone) hit the
    /// field-count and per-field branches of every verb without
    /// panicking, and every id an accepted request carries — query
    /// endpoints, campaign source and targets, delta endpoints — is in
    /// range and is a number the line spells out: the truncation guard,
    /// fuzzed.
    #[test]
    fn hostile_tokens_never_truncate_ids(line in request_line()) {
        let spelled = spelled_numbers(&line);
        let named = |id: u64| id <= u64::from(u32::MAX) && spelled.contains(&id);
        match parse_line_bytes(&line, 1_000) {
            Ok(Some(Request::Query(query))) => {
                prop_assert!(named(query.s.index() as u64), "{:?}", query);
                prop_assert!(named(query.t.index() as u64), "{:?}", query);
            }
            Ok(Some(Request::Campaign(campaign))) => {
                prop_assert!(named(campaign.s.index() as u64), "{:?}", campaign);
                prop_assert!(campaign.targets.len() <= MAX_CAMPAIGN_TARGETS);
                for target in &campaign.targets {
                    prop_assert!(named(target.index() as u64), "{:?}", campaign);
                }
            }
            Ok(Some(Request::Delta(delta))) => {
                for (_, u, v) in delta.batched() {
                    prop_assert!(named(u64::from(u)) && named(u64::from(v)), "{}", delta.spec());
                }
            }
            Ok(None) => prop_assert!(line.is_empty() || line[0] == b'#'),
            Err(message) => {
                prop_assert!(message.len() <= 200, "unbounded error ({} bytes)", message.len());
                prop_assert!(!message.contains('\n'));
            }
        }
    }

    /// Well-formed query, campaign and delta lines round-trip exactly as
    /// long as the ids fit the 32-bit space; past it, the parse *must*
    /// fail (ids used to truncate into the cache key space there).
    #[test]
    fn id_boundary_is_exact(
        s in 0u64..1 << 40,
        t in 0u64..1 << 40,
        budget in 1u64..1 << 48,
        verb in 0u8..3,
    ) {
        let fits = s <= u64::from(u32::MAX) && t <= u64::from(u32::MAX);
        let line = match verb {
            0 => format!("{s} {t} 0.5 {budget}"),
            1 => format!("campaign {s} {t} 0.5 {budget}"),
            _ => format!("delta +{s}:{t}"),
        };
        match parse_line(&line, 7) {
            Ok(Some(Request::Query(query))) => {
                prop_assert!(fits && verb == 0);
                prop_assert_eq!(query.s.index() as u64, s);
                prop_assert_eq!(query.t.index() as u64, t);
                prop_assert_eq!(query.budget, budget);
            }
            Ok(Some(Request::Campaign(campaign))) => {
                prop_assert!(fits && verb == 1);
                prop_assert_eq!(campaign.s.index() as u64, s);
                let targets: Vec<u64> =
                    campaign.targets.iter().map(|target| target.index() as u64).collect();
                prop_assert_eq!(targets, vec![t]);
                prop_assert_eq!(campaign.budget as u64, budget);
            }
            Ok(Some(Request::Delta(delta))) => {
                prop_assert!(fits && verb == 2 && s != t);
                prop_assert_eq!(delta.spec(), format!("+{}:{}", s.min(t), s.max(t)));
            }
            Ok(None) => prop_assert!(false, "non-blank line skipped"),
            Err(message) if verb == 2 => {
                prop_assert!(!fits || s == t, "in-range delta rejected: {}", message);
                if !fits {
                    prop_assert!(message.contains("is not a u32 id"), "{}", message);
                }
            }
            Err(message) => {
                prop_assert!(!fits, "in-range request rejected: {}", message);
                prop_assert!(message.contains("overflows the 32-bit id space"), "{}", message);
            }
        }
    }
}
