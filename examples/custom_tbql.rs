//! Writing TBQL by hand: filters, operators, temporal clauses,
//! projections — and the plan the engine runs them with.
//!
//! ```text
//! cargo run --example custom_tbql
//! ```

use threatraptor::prelude::*;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::PasswordCrack])
        .target_events(30_000)
        .build();
    let raptor = ThreatRaptor::from_parsed(&scenario.log, true);

    // Who reads /etc/shadow? (Only the cracker should.)
    let q1 = r#"proc p read file f["%/etc/shadow%"] as e1
                return distinct p, p.pid, p.owner"#;
    println!("-- query 1: shadow readers --");
    println!("{}", raptor.hunt(q1).unwrap().render_table());

    // Processes that first write then execute the same file (dropper
    // pattern), with operation alternatives and a temporal clause.
    let q2 = r#"proc a write file f["%/tmp/%"] as w
                proc b execute f as x
                with w before x
                return distinct a, f, b"#;
    println!("-- query 2: write-then-execute droppers under /tmp --");
    println!("{}", raptor.hunt(q2).unwrap().render_table());

    // Compound filters: root-owned shells talking to the network.
    let q3 = r#"proc p[exename like "%sh" && owner = "www-data"] fork proc c as e1
                return distinct p, c"#;
    println!("-- query 3: www-data shells forking children --");
    println!("{}", raptor.hunt(q3).unwrap().render_table());

    // The plan query 1 runs with: schedule, filters, join keys, fan-out
    // (over the store's one-shard view, which is what `hunt` executes on).
    let store = raptor.store().sharded();
    let plan = ShardedEngine::new(&store).explain(q1).unwrap();
    println!("-- query 1, EXPLAIN --");
    println!("{}", plan.render());

    // Diagnostics: a broken query produces a spanned error.
    let err = raptor.hunt("proc p read file f return ghost").unwrap_err();
    println!("-- diagnostics --\n{err}");
}
