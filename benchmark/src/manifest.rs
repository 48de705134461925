//! What `BENCHMARK.json` says, as data: the workloads, every metric with
//! its unit and direction, and each end-to-end metric's regression
//! bound. `--manifest` renders the file from these tables, the report is
//! printed from them, and `--smoke` checks the file at the repo root
//! against them, so the three cannot drift apart.

/// Length of the timed phase the driver asks for.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hunt-hot",
        "2 closed-loop clients hunt a preloaded sealed store with 12 cached query plans: engine and \
         storage reads do the work, nlp/synth/audit none",
    ),
    (
        "intel-cold",
        "1 client submits 2048 distinct OSCTI reports over a small store, 4-8x the cache sizes: nlp, \
         synth, tbql and compile dominate, engine is idle",
    ),
    (
        "ingest-only",
        "1 producer replays raw log text into a fresh streaming store, no readers: audit parsing, CPR, \
         seal, compaction and index build, the write side of what hunt-hot reads",
    ),
    (
        "live-mixed",
        "open loop: 250-event chunks every 25 ms into a server with 16 standing queries, ad-hoc hunts \
         at 20/s beside them: dispatcher, delta evaluation and snapshots under append",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    gate(name, unit, higher, 0.0)
}

/// Every workload reports every one of these (the driver's contract), so
/// they are named for what they measure on each: `ops_per_s` counts
/// correct hunts (hunt-hot), reports (intel-cold) or raw events
/// (ingest-only, live-mixed); `op_p50_ms`/`op_p99_ms` time a hunt, a
/// report, one chunk's `append`, or an alert from its chunk's due time.
pub const END_TO_END: [Metric; 5] = [
    gate("ops_per_s", "1/s", true, 0.25),
    gate("op_p50_ms", "ms", false, 0.25),
    gate("op_tail_ms", "ms", false, 0.25),
    gate("peak_rss_mb", "MB", false, 0.25),
    gate("setup_s", "s", false, 0.25),
];

pub const PER_LAYER: [Metric; 48] = [
    layer("audit.parse_ns_per_event", "ns", false),
    layer("audit.parse_errors", "count", false),
    layer("storage.cpr_ns_per_event", "ns", false),
    layer("storage.cpr_factor", "ratio", true),
    layer("storage.append_ns", "ns", false),
    layer("storage.seal_ns", "ns", false),
    layer("storage.seals", "count", false),
    layer("storage.compactions", "count", false),
    layer("storage.snapshot_ns", "ns", false),
    layer("storage.build_ns_per_event", "ns", false),
    layer("tbql.parse_ns", "ns", false),
    layer("tbql.analyze_ns", "ns", false),
    layer("tbql.lint_ns", "ns", false),
    layer("engine.compile_ns", "ns", false),
    layer("engine.exec_needle_ns", "ns", false),
    layer("engine.exec_haystack_ns", "ns", false),
    layer("engine.exec_window_ns", "ns", false),
    layer("engine.exec_path_ns", "ns", false),
    layer("engine.exec_distinct_ns", "ns", false),
    layer("engine.rows_scanned_per_match", "ratio", false),
    layer("engine.rows_pruned", "count", true),
    layer("engine.delta_poll_ns", "ns", false),
    layer("engine.delta_rows_per_poll_early", "count", false),
    layer("engine.delta_rows_per_poll_late", "count", false),
    layer("engine.partials_retained", "count", false),
    layer("nlp.extract_ns", "ns", false),
    layer("nlp.iocs_per_report", "count", true),
    layer("nlp.relations_per_report", "count", true),
    layer("synth.synthesize_ns", "ns", false),
    layer("synth.patterns_per_query", "count", true),
    layer("service.cache_hit_ratio", "ratio", true),
    layer("service.cache_evictions", "count", false),
    layer("service.plan_ns", "ns", false),
    layer("service.queue_wait_ms", "ms", false),
    layer("service.submit_block_ms", "ms", false),
    layer("service.dispatch_ms", "ms", false),
    layer("service.max_epoch_lag", "count", false),
    layer("service.generator_lateness_p99_ms", "ms", false),
    layer("service.adhoc_hunt_p50_ms", "ms", false),
    layer("obs.trace_overhead_pct", "%", false),
    layer("share.audit_pct", "%", false),
    layer("share.nlp_pct", "%", false),
    layer("share.synth_pct", "%", false),
    layer("share.tbql_pct", "%", false),
    layer("share.engine_pct", "%", false),
    layer("share.storage_pct", "%", false),
    layer("share.service_pct", "%", false),
    layer("share.op_pct", "%", false),
];

fn better(m: &Metric) -> &'static str {
    if m.higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn the_manifest_meets_the_drivers_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains(['\n', '"']),
                "{name}: {why}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(m.unit.len() <= 16 && m.unit.chars().all(ok), "{}", m.unit);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher), ("s", false));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 runs per workload, each with its set-up, inside 3420 s.
        assert!((2..=8).contains(&WORKLOADS.len()));
    }
}
