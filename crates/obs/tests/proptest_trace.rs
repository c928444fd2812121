//! Property tests for the tracer: under arbitrary open/close programs,
//! disciplined (LIFO) usage always yields a well-formed span forest —
//! every child interval contained in a completed parent one depth up —
//! while out-of-order closes are quarantined in the `malformed` counter
//! without corrupting the rest of the log, and the byte-stable transcript
//! is a pure function of the program. Nesting and purity are checked on
//! rings that keep every span of a program; every open is accounted
//! against the phase histograms' counts, complete at any ring size, on
//! those rings and on rings small enough that the programs overflow them.

use f2c_obs::{Site, Span, SpanToken, Tracer};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const TIERS: [&str; 3] = ["fog1", "fog2", "cloud"];
const NAMES: [&str; 4] = ["flush-wave", "flush-hop", "query", "sketch-fold"];

/// One program step, encoded as plain integers (the vendored proptest
/// shim has no prop_oneof/prop_map): `kind < 4` opens a span at `site`,
/// `kind < 7` closes the innermost open span at the first nonempty site
/// at or after `site`, and `kind >= 7` closes the *outermost* span at a
/// site holding at least two — deliberately violating LIFO.
type RawOp = (u8, u8, u8, u16, u16);

/// A per-site ring capacity that keeps every span of a program (a
/// program opens fewer than 200).
const WHOLE: usize = 256;

/// A per-site ring capacity the programs overflow (they open up to ~100
/// spans per site).
const RING: usize = 8;

/// Spans counted by the tracer's phase histograms, evicted ones included.
fn histogram_count(tracer: &Tracer) -> u64 {
    tracer.phase_histograms().values().map(|h| h.count()).sum()
}

/// Replays `ops` against a fresh tracer keeping `capacity` spans per
/// site. `disciplined` skips the LIFO-violating steps. Returns the
/// tracer, the number of violations actually executed, and the number
/// of spans opened.
fn replay(ops: &[RawOp], disciplined: bool, capacity: usize) -> (Tracer, u64, usize) {
    let mut tracer = Tracer::with_capacity(capacity);
    let mut clock = 0u64;
    let mut stacks: [Vec<SpanToken>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut violations = 0u64;
    let mut opened = 0usize;
    for &(kind, site, name, dt, attr) in ops {
        clock += u64::from(dt);
        let s = (site % 3) as usize;
        if kind < 4 {
            let token = tracer.open(
                Site::new(TIERS[s], s as u32),
                NAMES[(name % 4) as usize],
                clock,
            );
            stacks[s].push(token);
            opened += 1;
        } else if kind < 7 {
            if let Some(s) = (0..3).map(|i| (s + i) % 3).find(|&s| !stacks[s].is_empty()) {
                let token = stacks[s].pop().expect("stack nonempty");
                tracer.close_with(token, clock, u64::from(attr));
            }
        } else if !disciplined {
            if let Some(s) = (0..3).find(|&s| stacks[s].len() >= 2) {
                let token = stacks[s].remove(0);
                tracer.close(token, clock);
                violations += 1;
            }
        }
    }
    // Drain: close everything still open, innermost first.
    for stack in &mut stacks {
        while let Some(token) = stack.pop() {
            clock += 1;
            tracer.close(token, clock);
        }
    }
    (tracer, violations, opened)
}

/// Every completed span of depth `d > 0` must be contained in the first
/// span completed after it at depth `d - 1` — its parent, under LIFO
/// close order.
fn assert_wellformed_forest(spans: &[Span]) -> Result<(), TestCaseError> {
    for (i, span) in spans.iter().enumerate() {
        prop_assert!(span.end_us >= span.start_us, "span closes before it opens");
        if span.depth == 0 {
            continue;
        }
        let parent = spans[i + 1..].iter().find(|p| p.depth == span.depth - 1);
        let Some(parent) = parent else {
            return Err(TestCaseError::fail(format!(
                "no parent completed after child {span:?}"
            )));
        };
        prop_assert!(
            parent.start_us <= span.start_us && parent.end_us >= span.end_us,
            "child {:?} escapes parent {:?}",
            span,
            parent
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disciplined_programs_always_nest_wellformed(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..3, 0u8..4, 0u16..1_000, 0u16..u16::MAX),
            1..200,
        ),
    ) {
        let (tracer, violations, opened) = replay(&ops, true, WHOLE);
        prop_assert_eq!(violations, 0);
        prop_assert_eq!(tracer.malformed(), 0, "LIFO usage must never be malformed");
        prop_assert_eq!(tracer.span_count(), opened, "the rings keep every span");
        for site in tracer.sites().collect::<Vec<_>>() {
            let log = tracer.log(site).expect("listed site has a log");
            prop_assert_eq!(log.open_count(), 0, "drained log still holds opens");
            let spans: Vec<Span> = log.completed().copied().collect();
            assert_wellformed_forest(&spans)?;
        }
        for capacity in [WHOLE, RING] {
            let (tracer, _, _) = replay(&ops, true, capacity);
            prop_assert_eq!(
                histogram_count(&tracer),
                opened as u64,
                "every open must complete (ring of {})",
                capacity
            );
        }
    }

    #[test]
    fn undisciplined_closes_are_quarantined_not_corrupting(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..3, 0u8..4, 0u16..1_000, 0u16..u16::MAX),
            1..200,
        ),
    ) {
        for capacity in [WHOLE, RING] {
            let (tracer, violations, opened) = replay(&ops, false, capacity);
            prop_assert_eq!(
                tracer.malformed(), violations,
                "each out-of-order close must count exactly once"
            );
            // Every open still resolves somewhere: as a completed span or
            // as a quarantined malformed close — nothing leaks or
            // double-counts.
            prop_assert_eq!(histogram_count(&tracer) + tracer.malformed(), opened as u64);
            for site in tracer.sites().collect::<Vec<_>>() {
                prop_assert_eq!(
                    tracer.log(site).expect("listed site has a log").open_count(),
                    0
                );
            }
            // The transcript still encodes, whatever the abuse.
            prop_assert!(!tracer.encode().is_empty() || opened == 0);
        }
    }

    #[test]
    fn transcripts_are_a_pure_function_of_the_program(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..3, 0u8..4, 0u16..1_000, 0u16..u16::MAX),
            1..200,
        ),
    ) {
        let (a, _, _) = replay(&ops, false, WHOLE);
        let (b, _, _) = replay(&ops, false, WHOLE);
        prop_assert_eq!(a.encode(), b.encode(), "replays must be byte-identical");
    }
}
