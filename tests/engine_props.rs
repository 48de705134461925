//! Property-based integration tests: execution-strategy equivalence and
//! temporal/path semantics over randomized scenarios and queries.

use proptest::prelude::*;
use threatraptor::engine::baseline::{self, Baseline};
use threatraptor::prelude::*;
use threatraptor_storage::AuditStore;

/// Small scenario cache-less builder (kept tiny: proptest runs many).
fn small_store(seed: u64) -> AuditStore {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(800)
        .build();
    AuditStore::ingest(&sc.log, true)
}

/// A strategy over simple single/two-pattern queries built from real
/// simulator vocabulary.
fn arb_query() -> impl Strategy<Value = String> {
    let exe = prop::sample::select(vec![
        "%/bin/tar%",
        "%/usr/sbin/apache2%",
        "%gcc%",
        "%/bin/bash%",
        "%curl%",
        "%nonexistent%",
    ]);
    let file = prop::sample::select(vec![
        "%/etc/passwd%",
        "%/var/www/html%",
        "%.log%",
        "%/tmp/%",
        "%nope%",
    ]);
    let op = prop::sample::select(vec!["read", "write", "read || write", "execute"]);
    (exe, file, op, any::<bool>()).prop_map(|(exe, file, op, two)| {
        if two {
            format!(
                "proc p[\"{exe}\"] {op} file f[\"{file}\"] as e1\n\
                 proc p open || close file g as e2\n\
                 with e1 before e2\n\
                 return distinct p, f, g"
            )
        } else {
            format!("proc p[\"{exe}\"] {op} file f[\"{file}\"] as e1 return distinct p, f")
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's optimization must be purely about speed: every
    /// strategy returns identical result rows.
    #[test]
    fn strategies_agree(seed in 0u64..4, query in arb_query()) {
        let store = small_store(seed);
        let reference = Engine::new(&store).hunt(&query).unwrap();
        for b in Baseline::ALL {
            let r = baseline::hunt(&store, &query, b).unwrap();
            prop_assert_eq!(&r.rows, &reference.rows, "{:?}", b);
        }
    }

    /// Temporal constraints only ever shrink the match set.
    #[test]
    fn temporal_constraints_monotone(seed in 0u64..4) {
        let store = small_store(seed);
        let engine = Engine::new(&store);
        let free = "proc p[\"%/bin/tar%\"] read file f as e1\n\
                    proc p write file g as e2\n\
                    return p, f, g";
        let constrained = "proc p[\"%/bin/tar%\"] read file f as e1\n\
                           proc p write file g as e2\n\
                           with e1 before e2\n\
                           return p, f, g";
        let a = engine.hunt(free).unwrap();
        let b = engine.hunt(constrained).unwrap();
        prop_assert!(b.matches.len() <= a.matches.len());
        // And every constrained match satisfies the ordering.
        for m in &b.matches {
            prop_assert!(m.times["e1"].1 < m.times["e2"].0);
        }
    }

    /// Widening a path's hop bounds only adds matches.
    #[test]
    fn path_bounds_monotone(seed in 0u64..4) {
        let store = small_store(seed);
        let engine = Engine::new(&store);
        let narrow = "proc p[\"%/bin/tar%\"] ~>(1~1)[write] file f return distinct p, f";
        let wide = "proc p[\"%/bin/tar%\"] ~>(1~3)[write] file f return distinct p, f";
        let a = engine.hunt(narrow).unwrap();
        let b = engine.hunt(wide).unwrap();
        for row in &a.rows {
            prop_assert!(b.rows.contains(row), "wide bounds lost {row:?}");
        }
    }

    /// `distinct` never increases the row count and always deduplicates.
    #[test]
    fn distinct_semantics(seed in 0u64..4) {
        let store = small_store(seed);
        let engine = Engine::new(&store);
        let q = "proc p read file f[\"%/var/www/html%\"] as e1 return distinct p";
        let r = engine.hunt(q).unwrap();
        let mut rows = r.rows.clone();
        rows.sort();
        rows.dedup();
        prop_assert_eq!(rows.len(), r.rows.len(), "distinct rows must be unique");
    }

    /// Every matched event actually satisfies its pattern's operation.
    #[test]
    fn witnesses_satisfy_operations(seed in 0u64..4) {
        let store = small_store(seed);
        let engine = Engine::new(&store);
        let q = "proc p read || write file f[\"%.log%\"] as e1 return p, f";
        let r = engine.hunt(q).unwrap();
        for m in &r.matches {
            for &pos in &m.events["e1"] {
                let ev = store.event_at(pos);
                prop_assert!(matches!(
                    ev.op,
                    threatraptor::audit::event::Operation::Read
                        | threatraptor::audit::event::Operation::Write
                ));
            }
        }
    }
}
