//! Reference results. Every expected output comes from the single-store
//! `Engine` over a batch `AuditStore::ingest` of the same log — a code
//! path that shares neither `ShardedEngine` nor `HuntServer` nor the
//! streaming store with the runs being measured.

use crate::gen::Attack;
use crate::stats::Digest;
use threatraptor_audit::sim::scenario::Scenario;
use threatraptor_engine::{Engine, HuntResult};
use threatraptor_storage::AuditStore;

/// What a hunt must return: its match count and its projected rows as a
/// multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub matches: usize,
    pub rows: Digest,
}

impl Expected {
    pub fn of(result: &HuntResult) -> Expected {
        Expected {
            matches: result.matches.len(),
            rows: Digest::of(&result.rows),
        }
    }

    pub const NOTHING: Expected = Expected {
        matches: 0,
        rows: Digest { count: 0, sum: 0 },
    };
}

pub fn expect(store: &AuditStore, tbql: &str) -> Result<Expected, String> {
    Engine::new(store)
        .hunt(tbql)
        .map(|r| Expected::of(&r))
        .map_err(|e| format!("reference execution failed: {e}: {tbql}"))
}

/// The reference result of an attack's analyst query, which must find
/// exactly the events the simulator tagged: precision = recall = 1.
pub fn expect_attack(
    sc: &Scenario,
    store: &AuditStore,
    attack: &Attack,
) -> Result<Expected, String> {
    let case = attack.kind.case_name();
    let result = Engine::new(store)
        .hunt(attack.tbql)
        .map_err(|e| format!("{case}: reference execution failed: {e}"))?;
    match result.precision_recall(store, &sc.ground_truth(case)) {
        (p, r) if p == 1.0 && r == 1.0 => Ok(Expected::of(&result)),
        (p, r) => Err(format!(
            "{case}: reference precision {p} recall {r}, want 1 and 1"
        )),
    }
}

/// The identities of a result's matches as a multiset: for each match its
/// entity bindings and the start time of each pattern's witness. A CPR
/// run keeps its start time however many events it absorbs, so a match
/// delivered from the open window and the same match found by a batch
/// hunt digest equal.
pub fn identities(result: &HuntResult) -> Digest {
    let mut digest = Digest::default();
    for m in &result.matches {
        let mut bindings: Vec<_> = m.bindings.iter().collect();
        bindings.sort();
        let mut starts: Vec<_> = m
            .times
            .iter()
            .map(|(pat, (start, _))| (pat, start))
            .collect();
        starts.sort();
        digest.add(&(bindings, starts));
    }
    digest
}
