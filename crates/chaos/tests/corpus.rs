//! The seeded corpus itself, exercised the way CI runs it.

use mpls_chaos::{check, generate};

const SEED: u64 = 0xC4A0_5EED;

/// The generator is a pure function of (seed, index): the same inputs
/// must produce byte-identical scenarios, or repro files would rot.
#[test]
fn generation_is_deterministic() {
    for idx in [0, 7, 19, 123] {
        let a = serde_json::to_string(&generate(SEED, idx).scenario).unwrap();
        let b = serde_json::to_string(&generate(SEED, idx).scenario).unwrap();
        assert_eq!(a, b, "case {idx} not reproducible");
    }
    let a = serde_json::to_string(&generate(SEED, 3).scenario).unwrap();
    let b = serde_json::to_string(&generate(SEED ^ 1, 3).scenario).unwrap();
    assert_ne!(a, b, "different seeds should diverge");
}

/// Generated scenarios cover the fault space: across a modest window
/// the corpus must include LDP and centralized control, scheduled
/// events, PDU chaos, wire loss, and heterogeneous (stretched) link
/// delays.
#[test]
fn corpus_covers_the_fault_space() {
    let (mut ldp, mut central, mut events, mut chaos, mut loss) = (0, 0, 0, 0, 0);
    let mut stretched = 0;
    let (mut closed_loop, mut subs) = (0, 0);
    for idx in 0..40 {
        let sc = generate(SEED, idx).scenario;
        closed_loop += sc
            .flows
            .iter()
            .filter(|f| {
                matches!(
                    f.pattern,
                    mpls_cli::scenario::PatternDecl::ClosedLoop { .. }
                )
            })
            .count();
        subs += sc.subscribers.len();
        if sc.control_mode(None).unwrap() == mpls_net::ControlMode::Ldp {
            ldp += 1;
        } else {
            central += 1;
        }
        if let Some(f) = &sc.faults {
            events += f.events.len();
            chaos += f.pdu_chaos.len();
            loss += f.loss.len();
        }
        // The delay-stretch pass multiplies by >= 4, so any link at 4x
        // the family's base ranges or beyond marks a stretched case.
        if sc.links.iter().any(|l| l.delay_us >= 4000) {
            stretched += 1;
        }
    }
    assert!(ldp >= 5, "too few ldp cases: {ldp}");
    assert!(central >= 5, "too few centralized cases: {central}");
    assert!(events >= 10, "too few scheduled faults: {events}");
    assert!(chaos >= 2, "too few pdu-chaos windows: {chaos}");
    assert!(loss >= 2, "too few loss entries: {loss}");
    assert!(
        stretched >= 4,
        "too few heterogeneous-delay cases: {stretched}"
    );
    assert!(closed_loop >= 5, "too few closed-loop flows: {closed_loop}");
    assert!(subs >= 2, "too few subscriber populations: {subs}");
}

/// A slice of the corpus with every oracle green — the same invariant
/// gate CI's `chaos --quick` job runs over 40 cases in release mode.
/// (Meaningless under `bug-demo`, which plants a conservation bug on
/// purpose; the gate lives in `bug_demo.rs` there.)
#[cfg(not(feature = "bug-demo"))]
#[test]
fn corpus_slice_passes_all_oracles() {
    for idx in 0..12 {
        let case = generate(SEED, idx);
        if let Err(v) = check(&case.scenario) {
            panic!("case {idx} violated an invariant: {v}");
        }
    }
}
