//! The repo benchmark: runs one named workload from a seed, checks every
//! output against a reference, and prints the metrics `BENCHMARK.json`
//! names. See `README.md` beside this package.
//!
//! ```text
//! threatraptor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! threatraptor-benchmark --manifest        # prints BENCHMARK.json
//! ```

mod gen;
mod manifest;
mod oracle;
mod sched;
mod stats;
mod trace;
mod workloads;

use manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workloads::hunt_hot::HuntHot;
use workloads::ingest_only::IngestOnly;
use workloads::intel_cold::IntelCold;
use workloads::live_mixed::LiveMixed;
use workloads::{Checks, Config, Layers, Workload};

/// Set-ups per untraced run; `setup_s` is their median. A fixed count:
/// every set-up leaves allocator arenas behind, so a count that followed
/// the clock would make `peak_rss_mb` follow it too.
const SETUP_REPEATS: usize = 7;

/// Mean time per call of a span, reported under a per-layer metric name.
const SPAN_MEANS: [(&str, &str); 12] = [
    ("tbql.parse", "tbql.parse_ns"),
    ("tbql.analyze", "tbql.analyze_ns"),
    ("tbql.lint", "tbql.lint_ns"),
    ("engine.compile", "engine.compile_ns"),
    ("engine.delta_poll", "engine.delta_poll_ns"),
    ("nlp.extract", "nlp.extract_ns"),
    ("synth.synthesize", "synth.synthesize_ns"),
    ("service.plan", "service.plan_ns"),
    ("probe.plan_miss", "service.plan_ns"),
    ("storage.append", "storage.append_ns"),
    ("storage.seal", "storage.seal_ns"),
    ("storage.snapshot", "storage.snapshot_ns"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// What one run reports.
struct Report {
    checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the metrics, for the readable summary.
    samples: Vec<(String, usize)>,
}

/// The untraced run: set-up (several times, for its median), one timed
/// pass through the production entry points, every end-to-end metric.
fn run_untraced<W: Workload>(cfg: &Config) -> Report {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // One set-up alive at a time, so peak memory is that of one.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(cfg));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let mut checks = workload.oracle();
    let run = workload.production(cfg.pass_seconds, None);
    let ops_per_s = run.ops_per_s();
    let cycles = run.cycles_s.len();
    checks.merge(run.checks);
    let latencies = stats::sorted(run.latencies_ms);
    assert!(!latencies.is_empty(), "a pass completes operations");
    let metrics = BTreeMap::from([
        ("setup_s", stats::median(setups)),
        ("ops_per_s", ops_per_s),
        ("op_p50_ms", stats::percentile(&latencies, 50.0)),
        ("op_tail_ms", stats::percentile(&latencies, W::TAIL)),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]);
    let n = latencies.len();
    let support = match stats::supported_tail(n) {
        Some(p) if p >= W::TAIL => "supported: 10 or more samples beyond it".to_string(),
        _ => format!("NOT supported by {n} samples: fewer than 10 beyond it"),
    };
    let mut samples = vec![
        (format!("op = {}", W::OP), n),
        (format!("op_tail_ms = p{} ({support})", W::TAIL), n),
        ("set-ups behind setup_s".to_string(), SETUP_REPEATS),
    ];
    if cycles > 0 {
        samples.push(("complete cycles behind ops_per_s".to_string(), cycles));
    }
    Report {
        checks,
        metrics,
        samples,
    }
}

/// The traced run: an untraced and a traced pass through the production
/// entry points (their difference is the tracing overhead), then the
/// staged pass that calls each layer itself. Writes the trace file.
fn run_traced<W: Workload>(cfg: &Config) -> Report {
    let mut workload = W::setup(cfg);
    let mut checks = workload.oracle();
    let rec = Recorder::new();
    let plain = workload.production(cfg.pass_seconds, None);
    let traced = workload.production(cfg.pass_seconds, Some(&rec));
    let staged_from = rec.len();
    let mut layers: Layers = workload.staged(2.0 * cfg.pass_seconds, &rec);

    // By how much the spans slow the median operation down. (Latency, not
    // throughput: an open loop's throughput is fixed by its schedule.)
    let (p50_plain, p50_traced) = (
        stats::median(plain.latencies_ms.clone()),
        stats::median(traced.latencies_ms.clone()),
    );
    layers.insert(
        "obs.trace_overhead_pct",
        (p50_traced - p50_plain) / p50_plain * 100.0,
    );
    let spans = rec.spans();
    let totals = trace::totals(&spans, staged_from);
    for (span, metric) in SPAN_MEANS {
        if let Some(t) = totals.get(span) {
            layers.insert(metric, t.total_ns as f64 / t.count as f64);
        }
    }
    for (layer, share) in trace::layer_shares(&totals) {
        let name = format!("share.{layer}_pct");
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            layers.insert(m.name, share);
        }
    }
    // The production passes expose the service layer's own numbers.
    let traced_ops = traced.latencies_ms.len();
    layers.extend(traced.layers);

    let path = format!("benchmark/out/{}.trace.json", W::NAME);
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(&spans)));
    if let Err(e) = written {
        checks.fail(format!("writing {path}: {e}"));
    }
    checks.merge(plain.checks);
    checks.merge(traced.checks);
    Report {
        checks,
        metrics: layers,
        samples: vec![
            (format!("spans in {path}"), spans.len()),
            (format!("traced production ops ({})", W::OP), traced_ops),
        ],
    }
}

fn run<W: Workload>(args: &Args) -> Report {
    // A traced run splits its time: a quarter each for the untraced and
    // the traced production pass, half for the staged pass.
    let cfg = Config {
        seed: args.seed,
        pass_seconds: if args.trace {
            args.seconds / 4.0
        } else {
            args.seconds
        },
        shrink: if args.smoke { 10 } else { 1 },
    };
    if args.trace {
        run_traced::<W>(&cfg)
    } else {
        run_untraced::<W>(&cfg)
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--manifest") {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("threatraptor-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        HuntHot::NAME => run::<HuntHot>(&args),
        IntelCold::NAME => run::<IntelCold>(&args),
        IngestOnly::NAME => run::<IngestOnly>(&args),
        LiveMixed::NAME => run::<LiveMixed>(&args),
        other => unreachable!("parse_args admitted workload {other}"),
    };
    if args.smoke {
        // The manifest at the repo root must be the one this build names.
        match std::fs::read_to_string("BENCHMARK.json") {
            Ok(text) if text == manifest::render() => {}
            Ok(_) => report
                .checks
                .fail("BENCHMARK.json differs from `threatraptor-benchmark --manifest`".into()),
            Err(e) => report.checks.fail(format!("reading BENCHMARK.json: {e}")),
        }
    }

    // Exactly the metrics the manifest names for this kind of run: a
    // layer the workload leaves idle prints 0, an unnamed metric is a bug.
    let named: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for name in report.metrics.keys() {
        if !named.iter().any(|(n, _)| n == name) {
            report
                .checks
                .fail(format!("metric {name} is not in the manifest"));
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (what, n) in &report.samples {
        println!("  n = {n:<8} {what}");
    }
    let mut json = Vec::new();
    for (name, unit) in named {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            report.checks.fail(format!("metric {name} = {value}"));
        }
        println!("  {name:<36} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for message in &report.checks.messages {
        println!("  FAILED: {message}");
    }
    let correct = report.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted.max(1),
        report.checks.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
