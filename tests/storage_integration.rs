//! Storage-layer integration: ingest consistency between the relational
//! and graph backends, index/scan equivalence at store scale, and CPR
//! conservation laws on simulated workloads.

use threatraptor::prelude::*;
use threatraptor_storage::relational::Predicate;
use threatraptor_storage::{cpr, AuditStore};

fn store() -> (AuditStore, threatraptor::audit::sim::scenario::Scenario) {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(10_000)
        .build();
    (AuditStore::ingest(&sc.log, true), sc)
}

#[test]
fn relational_and_graph_views_are_consistent() {
    let (store, _) = store();
    // Same cardinalities.
    assert_eq!(store.graph().edge_count(), store.event_count());
    assert_eq!(store.graph().node_count(), store.entities.len());
    // Every stored event appears as the identical edge.
    for (pos, ev) in store.events.iter().enumerate().step_by(97) {
        let edges = store.graph().out_edges(ev.subject);
        assert!(
            edges
                .iter()
                .any(|&e| store.graph().edge(e).event_pos == pos),
            "event {pos} missing from adjacency"
        );
    }
    // Per-entity degrees match event-table index lookups.
    let events = store.db.table(threatraptor_storage::store::TABLE_EVENT);
    for id in (0..store.entities.len() as u32).step_by(53) {
        let eid = threatraptor::audit::entity::EntityId(id);
        let via_index = events
            .index_lookup("subject", &[threatraptor_storage::Value::from(id)])
            .unwrap()
            .len();
        assert_eq!(via_index, store.graph().out_edges(eid).len());
    }
}

#[test]
fn event_table_select_matches_manual_filter() {
    let (store, _) = store();
    let events = store.db.table(threatraptor_storage::store::TABLE_EVENT);
    let selected = events.select(&Predicate::eq("op", "read"));
    let manual = store
        .events
        .iter()
        .filter(|e| e.op == threatraptor::audit::event::Operation::Read)
        .count();
    assert_eq!(selected.len(), manual);
}

#[test]
fn cpr_conserves_bytes_and_counts_at_scale() {
    let sc = ScenarioBuilder::new()
        .seed(7)
        .no_attacks()
        .target_events(20_000)
        .build();
    let (reduced, stats) = cpr::reduce(&sc.log.events);
    assert!(stats.factor() > 1.2, "bursty workloads compress: {stats:?}");
    let bytes_in: u64 = sc.log.events.iter().map(|e| e.bytes).sum();
    let bytes_out: u64 = reduced.iter().map(|e| e.bytes).sum();
    assert_eq!(bytes_in, bytes_out);
    let merged_total: u32 = reduced.iter().map(|e| e.merged).sum();
    assert_eq!(merged_total as usize, sc.log.events.len());
    // Time-ordering invariant.
    for w in reduced.windows(2) {
        assert!(w[0].start <= w[1].start);
    }
}

#[test]
fn entity_tables_cover_every_entity_exactly_once() {
    let (store, _) = store();
    let n = store.db.table("process").len()
        + store.db.table("file").len()
        + store.db.table("network").len();
    assert_eq!(n, store.entities.len());
    // The id column round-trips.
    let files = store.db.table("file");
    for (rid, row) in files.iter().take(50) {
        let id = row[files.col("id")].as_int().unwrap() as u32;
        let entity = store.entity(threatraptor::audit::entity::EntityId(id));
        assert_eq!(
            entity.as_file().unwrap().name,
            row[files.col("name")].as_str().unwrap(),
            "row {rid}"
        );
    }
}

#[test]
fn ground_truth_attack_chain_is_temporally_ordered_in_store() {
    let (store, sc) = store();
    let gt = sc.ground_truth("data_leakage");
    let mut times: Vec<(u32, u64)> = gt
        .iter()
        .map(|id| {
            let ev = store
                .events
                .iter()
                .find(|e| e.id == *id)
                .expect("hunted events survive CPR");
            (ev.tag.as_ref().unwrap().step, ev.start)
        })
        .collect();
    times.sort_unstable();
    for w in times.windows(2) {
        assert!(w[0].1 < w[1].1, "attack steps in order");
    }
}
