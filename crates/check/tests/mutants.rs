//! Mutant detection: the checker must *re-find* seeded bugs.
//!
//! Built only with BOTH cfgs —
//! `RUSTFLAGS="--cfg threatraptor_check --cfg check_mutants"` — this
//! suite reruns the dispatcher fan-out model against the seeded
//! first-constituent-event-id `MatchKey` (the PR 3 exactly-once
//! regression, re-introduced in `follow.rs` under `cfg(check_mutants)`)
//! and asserts exploration finds the duplicate-delivery schedule. A
//! checker that passes on buggy code is worse than no checker; this is
//! the suite that keeps it honest. (The lock-order mutant in `pool.rs`
//! is covered by `threatraptor-lint --include-mutants`, not here — it
//! is a static property.)
#![cfg(all(threatraptor_check, check_mutants))]

use std::time::Duration;

use threatraptor_audit::entity::Entity;
use threatraptor_audit::event::{Event, EventId, Operation};
use threatraptor_audit::parser::LogChunk;
use threatraptor_audit::sim::scenario::ScenarioBuilder;
use threatraptor_check::{model, CheckConfig};
use threatraptor_engine::ExecMode;
use threatraptor_service::{FollowHunt, IngestConfig, IngestService, PlanCache};
use threatraptor_storage::SealPolicy;
use threatraptor_sync::{thread, Arc};

/// Same protocol as `models::model_dispatcher_exactly_once_fanout`: a
/// dispatcher re-polls a standing query on every epoch change while an
/// appender delivers a same-start tie that re-leads the merged run. The
/// event-id-keyed mutant delivers the match twice exactly when a poll
/// lands between the two chunks — an interleaving the explorer is
/// guaranteed to reach.
#[test]
fn dispatcher_model_finds_the_event_id_match_key_bug() {
    let entities = ScenarioBuilder::new()
        .seed(1)
        .target_events(50)
        .build()
        .log
        .entities;
    let proc_id = entities
        .iter()
        .find_map(|e| matches!(e, Entity::Process(_)).then(|| e.id()))
        .expect("scenario has a process");
    let file_id = entities
        .iter()
        .find_map(|e| matches!(e, Entity::File(_)).then(|| e.id()))
        .expect("scenario has a file");
    let read = |id: u32, start: u64, end: u64| Event {
        id: EventId(id),
        subject: proc_id,
        op: Operation::Read,
        object: file_id,
        start,
        end,
        bytes: 8,
        merged: 1,
        tag: None,
    };
    let base = LogChunk {
        new_entities: entities,
        events: Vec::new(),
    };
    let first = LogChunk {
        new_entities: Vec::new(),
        events: vec![read(50, 100, 110)],
    };
    let tie = LogChunk {
        new_entities: Vec::new(),
        events: vec![read(60, 100, 105)],
    };
    let plan = PlanCache::new()
        .plan("proc p read file f return p, f")
        .expect("pair query compiles")
        .0;

    let report = model(
        CheckConfig {
            name: "dispatcher-fanout-mutant",
            preemption_bound: 2,
            max_iterations: 4_000,
            max_steps: 100_000,
        },
        move || {
            let svc = Arc::new(IngestService::new(IngestConfig::with_policy(
                SealPolicy::manual(),
            )));
            svc.append(&base);
            let e0 = svc.epoch();
            let target = e0 + 2;

            let (tx, rx) = crossbeam::channel::bounded::<usize>(8);
            let svc2 = Arc::clone(&svc);
            let plan2 = Arc::clone(&plan);
            let dispatcher = thread::spawn(move || {
                let mut hunt = FollowHunt::new(plan2, ExecMode::Scheduled, 1);
                let mut last = e0;
                loop {
                    let delta = hunt.poll(&svc2.snapshot()).expect("poll succeeds");
                    tx.send(delta.new_matches).expect("subscriber is alive");
                    if last >= target {
                        return;
                    }
                    last = svc2.wait_epoch_newer(last, Duration::from_secs(30));
                }
            });

            let svc3 = Arc::clone(&svc);
            let (first, tie) = (first.clone(), tie.clone());
            let appender = thread::spawn(move || {
                svc3.append(&first);
                svc3.append(&tie);
            });

            let delivered: usize = rx.iter().sum();
            dispatcher.join().unwrap();
            appender.join().unwrap();
            assert_eq!(
                delivered, 1,
                "fan-out must deliver the re-led run exactly once"
            );
        },
    );

    let violation = report
        .violation
        .as_ref()
        .expect("the explorer must find the duplicate-delivery schedule under the mutant");
    println!(
        "mutant found on iteration {} (schedule {:?}): {}",
        violation.iteration, violation.schedule, violation.message
    );
    assert!(
        violation.message.contains("exactly once"),
        "wrong violation: {}",
        violation.message
    );
}
