//! The resolve-memo scenario shared by the model suite and the mutant
//! suite: one plan hunted by two threads over an older and a newer
//! snapshot of one stream.

use threatraptor_audit::entity::{Entity, EntityId, FileEntity, ProcessEntity};
use threatraptor_audit::event::{Event, EventId, Operation};
use threatraptor_check::{model, CheckConfig, Report};
use threatraptor_engine::compile::compile;
use threatraptor_engine::result::Match;
use threatraptor_engine::{ExecMode, ShardedEngine};
use threatraptor_storage::{SealPolicy, ShardedStore, StreamingStore};
use threatraptor_sync::{thread, Arc};
use threatraptor_tbql::analyze::analyze;
use threatraptor_tbql::parser::parse_query;

const QUERY: &str = r#"proc p["%tar%"] read file f["%/tmp/%"] as e1 return p, f"#;

/// Three snapshots of one stream; each append brings a `tar` process
/// and a `/tmp` file it reads, so every snapshot has one match more.
fn snapshots() -> [ShardedStore; 3] {
    let mut store = StreamingStore::new(false, SealPolicy::manual());
    [0u32, 1, 2].map(|k| {
        let (proc_id, file_id) = (EntityId(2 * k), EntityId(2 * k + 1));
        let entities = [
            Entity::Process(ProcessEntity {
                id: proc_id,
                pid: 100 + k,
                exename: "/bin/tar".into(),
                cmdline: "tar cf".into(),
                owner: "root".into(),
                start_time: 0,
            }),
            Entity::File(FileEntity {
                id: file_id,
                name: format!("/tmp/upload{k}"),
            }),
        ];
        let read = Event {
            id: EventId(k),
            subject: proc_id,
            op: Operation::Read,
            object: file_id,
            start: 10 * u64::from(k),
            end: 10 * u64::from(k) + 5,
            bytes: 8,
            merged: 1,
            tag: None,
        };
        store.append_batch(&entities, &[read]);
        store.seal();
        store.snapshot()
    })
}

/// The memo model: a fresh plan per schedule, filled on the oldest
/// snapshot, then hunted by two threads at once, one over the older and
/// one over the newer of the other two. On every schedule each thread
/// must get exactly what a freshly compiled plan gets on its snapshot,
/// and the memo must end covering the newer catalog.
pub fn resolve_memo_model(name: &'static str, max_iterations: u64) -> Report {
    let [oldest, older, newer] = snapshots();
    let from_scratch = |snapshot: &ShardedStore| -> Vec<Match> {
        let matches = ShardedEngine::new(snapshot).hunt(QUERY).unwrap().matches;
        assert!(!matches.is_empty());
        matches
    };
    let want = [from_scratch(&older), from_scratch(&newer)];
    assert_eq!((want[0].len(), want[1].len()), (2, 3));
    let newer_len = newer.catalog().len();
    let hunts = Arc::new([(older, want[0].clone()), (newer, want[1].clone())]);
    let cfg = CheckConfig {
        name,
        preemption_bound: 2,
        max_iterations,
        max_steps: 100_000,
    };
    model(cfg, move || {
        let cq = compile(&analyze(&parse_query(QUERY).unwrap()).unwrap()).unwrap();
        ShardedEngine::new(&oldest)
            .execute(&cq, ExecMode::Scheduled)
            .unwrap();
        let threads: Vec<_> = (0..2)
            .map(|i| {
                let (cq, hunts) = (cq.clone(), Arc::clone(&hunts));
                thread::spawn(move || {
                    let (snapshot, want) = &hunts[i];
                    let got = ShardedEngine::new(snapshot)
                        .execute(&cq, ExecMode::Scheduled)
                        .unwrap();
                    assert_eq!(
                        &got.matches, want,
                        "a hunt over snapshot {i} must equal a fresh plan's"
                    );
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            cq.memo().covered(),
            newer_len,
            "the memo covers the newer catalog"
        );
    })
}
