//! End-to-end integration: OSCTI report → extraction → synthesis →
//! execution → evaluation, across all four attack cases.

use threatraptor::engine::baseline::{self, Baseline};
use threatraptor::prelude::*;
use threatraptor_bench::all_cases;

/// One shared multi-attack scenario (building it is the expensive part).
fn scenario() -> threatraptor::audit::sim::scenario::Scenario {
    ScenarioBuilder::new()
        .seed(42)
        .attacks(&[
            AttackKind::DataLeakage,
            AttackKind::PasswordCrack,
            AttackKind::MalwareDrop,
            AttackKind::DbExfil,
        ])
        .target_events(30_000)
        .build()
}

#[test]
fn every_case_hunts_exactly_from_its_report() {
    let sc = scenario();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    for case in all_cases() {
        let outcome = raptor
            .hunt_report(case.report)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(!outcome.result.is_empty(), "{} must match", case.name);
        let gt = sc.ground_truth(case.kind.case_name());
        assert_eq!(gt.len() as u32, case.kind.hunted_step_count());
        let (p, r) = outcome.result.precision_recall(raptor.store(), &gt);
        assert_eq!(
            (p, r),
            (1.0, 1.0),
            "{}: expected exact hunt, got precision {p} recall {r}",
            case.name
        );
    }
}

#[test]
fn reports_do_not_cross_match() {
    // The data-leakage report must not match password-crack ground truth
    // and vice versa — queries are attack-specific.
    let sc = scenario();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let leak = raptor
        .hunt_report(threatraptor::FIG2_OSCTI_TEXT)
        .expect("hunts");
    let crack_gt = sc.ground_truth("password_crack");
    let matched = leak.result.matched_event_ids(raptor.store());
    for id in crack_gt {
        assert!(
            !matched.contains(&id),
            "data-leakage query matched a password-crack event"
        );
    }
}

#[test]
fn all_modes_agree_on_every_case() {
    let sc = scenario();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let store = AuditStore::ingest(&sc.log, true);
    for case in all_cases() {
        let reference = raptor.hunt(case.reference_tbql).unwrap();
        for b in Baseline::ALL {
            let r = baseline::hunt(&store, case.reference_tbql, b).unwrap();
            assert_eq!(
                r.rows, reference.rows,
                "{}: {b:?} differs from scheduled",
                case.name
            );
        }
    }
}

#[test]
fn cpr_does_not_change_any_hunt() {
    let sc = scenario();
    let plain = ThreatRaptor::from_parsed(&sc.log, false);
    let reduced = ThreatRaptor::from_parsed(&sc.log, true);
    assert!(reduced.store().event_count() < plain.store().event_count());
    for case in all_cases() {
        let a = plain.hunt(case.reference_tbql).unwrap();
        let b = reduced.hunt(case.reference_tbql).unwrap();
        assert_eq!(a.rows, b.rows, "{}: CPR changed results", case.name);
    }
}

#[test]
fn raw_log_round_trip_preserves_hunting() {
    let sc = ScenarioBuilder::new()
        .seed(9)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(8_000)
        .build();
    // Through the parsed log.
    let a = ThreatRaptor::from_parsed(&sc.log, true);
    // Through the raw Sysdig-like text.
    let b = ThreatRaptor::from_raw_log(&sc.raw, true).expect("raw parses");
    let ra = a.hunt(threatraptor::FIG2_TBQL).unwrap();
    let rb = b.hunt(threatraptor::FIG2_TBQL).unwrap();
    assert_eq!(ra.rows, rb.rows);
}

#[test]
fn hunting_without_the_attack_matches_nothing() {
    let sc = ScenarioBuilder::new()
        .seed(5)
        .no_attacks()
        .target_events(8_000)
        .build();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    // Benign logs: the full query must not fire (benign tar reads exist,
    // but the 8-step chain does not).
    let r = raptor.hunt(threatraptor::FIG2_TBQL).unwrap();
    assert!(r.is_empty(), "no attack, no match:\n{}", r.render_table());
}

#[test]
fn path_plan_still_finds_the_attack() {
    let sc = scenario();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let outcome = raptor
        .hunt_report_with_plan(
            threatraptor::FIG2_OSCTI_TEXT,
            &PathPatternPlan {
                min_hops: 1,
                max_hops: 2,
            },
        )
        .expect("path plan hunts");
    assert!(!outcome.result.is_empty());
    // Recall stays perfect; paths may legitimately widen precision.
    let gt = sc.ground_truth("data_leakage");
    let (_, recall) = outcome.result.precision_recall(raptor.store(), &gt);
    assert_eq!(recall, 1.0);
}
