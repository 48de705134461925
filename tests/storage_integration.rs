//! Storage-layer integration: index/scan equivalence at store scale and
//! CPR conservation laws on simulated workloads.

use threatraptor::audit::entity::EntityKind;
use threatraptor::audit::event::Operation;
use threatraptor::prelude::*;
use threatraptor_storage::cpr;

/// The scenario's log, reduced, as a one-shard store.
fn store() -> (ShardedStore, threatraptor::audit::sim::scenario::Scenario) {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(10_000)
        .build();
    (ShardedStore::ingest(&sc.log, true, 1), sc)
}

#[test]
fn event_table_select_matches_manual_filter() {
    let (store, _) = store();
    let manual: Vec<u32> = (0..store.event_count() as u32)
        .filter(|&p| store.event_at(p as usize).op == Operation::Read)
        .collect();
    assert_eq!(store.shard(0).postings().by_op(Operation::Read), manual);
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
    let [generation] = store.catalog().generations() else {
        panic!("a batch store has one catalog generation");
    };
    let kinds = [EntityKind::Process, EntityKind::File, EntityKind::Network];
    let n: usize = kinds.iter().map(|&k| generation.positions(k).len()).sum();
    assert_eq!(n, store.catalog().len());
    // Each position holds an entity of its kind, and its id round-trips
    // through the catalog.
    let mut seen = vec![false; n];
    for kind in kinds {
        for &pos in generation.positions(kind) {
            let entity = &generation.entities()[pos as usize];
            assert_eq!(entity.kind(), kind);
            assert_eq!(store.entity(entity.id()), entity);
            assert!(!std::mem::replace(&mut seen[entity.id().index()], true));
        }
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
                .shard(0)
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
