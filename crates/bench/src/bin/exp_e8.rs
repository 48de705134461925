//! E8 — synthesis correctness: synthesized vs analyst-written queries.
//!
//! For every attack case: extract the behavior graph from the case's
//! OSCTI report, synthesize a TBQL query, and compare it against the
//! reference query an analyst wrote by hand — textually (canonical form)
//! and behaviorally (identical hunt results and ground-truth recall).

use threatraptor::prelude::*;
use threatraptor_bench::{all_cases, fmt};
use threatraptor_storage::AuditStore;
use threatraptor_synth::synthesize;
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::parse_query;

fn main() {
    println!("== E8: synthesized queries vs analyst-written references ==\n");
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[
            AttackKind::DataLeakage,
            AttackKind::PasswordCrack,
            AttackKind::MalwareDrop,
            AttackKind::DbExfil,
        ])
        .target_events(100_000)
        .build();
    let store = AuditStore::ingest(&scenario.log, true);
    let engine = Engine::new(&store);
    let extractor = ThreatExtractor::new();

    let mut rows = Vec::new();
    for case in all_cases() {
        let extraction = extractor.extract(case.report);
        let synthesized = synthesize(&extraction.graph).expect("synthesis succeeds");
        let synthesized_text = print_query(&synthesized);
        let reference_query = parse_query(case.reference_tbql).unwrap();
        let reference_text = print_query(&reference_query);
        // Semantic equality: canonical signatures are independent of
        // cosmetic choices like repeated type keywords.
        let textually_equal = analyze(&synthesized).unwrap().canonical_signature()
            == analyze(&reference_query).unwrap().canonical_signature();

        let syn_result = engine
            .hunt_query(&synthesized, ExecMode::Scheduled)
            .expect("synthesized query executes");
        let ref_result = engine
            .hunt(case.reference_tbql)
            .expect("reference query executes");
        let same_rows = syn_result.rows == ref_result.rows;

        let gt = scenario.ground_truth(case.kind.case_name());
        let (p, r) = syn_result.precision_recall(&store, &gt);

        rows.push(vec![
            case.name.to_string(),
            synthesized.pattern_count().to_string(),
            if textually_equal { "yes" } else { "no" }.to_string(),
            if same_rows { "yes" } else { "no" }.to_string(),
            fmt::f3(p),
            fmt::f3(r),
        ]);
        if !textually_equal {
            println!("-- {}: synthesized --\n{synthesized_text}", case.name);
            println!("-- {}: reference --\n{reference_text}", case.name);
        }
        assert!(
            same_rows,
            "{}: synthesized and reference rows differ",
            case.name
        );
        assert_eq!((p, r), (1.0, 1.0), "{}: hunt must be exact", case.name);
    }
    println!(
        "{}",
        fmt::table(
            &[
                "case",
                "patterns",
                "≡ reference",
                "rows == reference",
                "precision",
                "recall"
            ],
            &rows
        )
    );
    println!("E8 OK: every synthesized query hunts its attack exactly.");
}
