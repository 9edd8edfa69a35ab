//! reefbench: end-to-end and per-layer benchmark of the reef daemon.
//!
//! ```text
//! reefbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against real daemons (this binary re-executed with
//! `--serve`), checks every output, prints each metric with its unit and
//! sample count, and ends with one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See README.md for the workloads and metric definitions.

mod churn;
mod daemon;
mod load;
mod net;
mod pubflow;
mod replay;
mod report;
mod rig;
mod rng;
mod sched;
mod stats;
mod trace;

use report::{result_json, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["topic_fanout", "range_match", "autosub_churn", "chain_hop"];

/// End-to-end metrics every untraced run reports: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("deliver_p50_us", "us"),
    ("sat_eps", "1/s"),
    ("cpu_us_per_event", "us"),
    ("daemon_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports: (name, unit).
const PER_LAYER: [(&str, &str); 22] = [
    ("pubsub.matcher.match_ns", "ns"),
    ("pubsub.matcher.matches_per_event", "count"),
    ("pubsub.matcher.insert_ns", "ns"),
    ("pubsub.matcher.remove_ns", "ns"),
    ("pubsub.broker.subscribe_ns", "ns"),
    ("pubsub.broker.publish_ns", "ns"),
    ("pubsub.broker.offer_ns", "ns"),
    ("pubsub.broker.matcher_swaps_per_sub_change", "ratio"),
    ("wire.codec.encode_deliver_ns", "ns"),
    ("wire.codec.decode_deliver_ns", "ns"),
    ("wire.codec.decode_publish_ns", "ns"),
    ("wire.frame.decode_ns", "ns"),
    ("wire.server.bytes_out_per_delivery", "B"),
    ("wire.server.wakeups_per_event", "count"),
    ("wire.server.write_events_per_delivery", "count"),
    ("wire.server.coalesced_ratio", "ratio"),
    ("wire.server.delivery_drops", "count"),
    ("wire.server.errors", "count"),
    ("wire.client.publish_ack_p50_us", "us"),
    ("bench.loadgen.lag_p99_us", "us"),
    ("bench.trace.overhead_pct", "%"),
    ("bench.trace.outside_generator_us", "us"),
];

/// What one invocation runs.
pub struct Ctx {
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Run-private directory for daemon data and replays.
    pub scratch: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One traced publish: its duration, its own self time, and its
/// children's self time by span name, in ns.
#[derive(Default)]
struct TracedOp {
    total: u64,
    own: u64,
    children: BTreeMap<&'static str, u64>,
}

/// Per-event time by layer for the traced publish path: the generator's
/// own spans, the replayed daemon-side layers, and the rest of the
/// publish → deliver span as the transport residual. Medians throughout,
/// so host stalls land in no layer. Names the layer with the largest
/// self time.
pub fn breakdown(workload: &str, tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans();
    let self_ns = tracer.self_times();
    let mut ops: BTreeMap<usize, TracedOp> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == "e2e.publish_deliver" {
            let op = ops.entry(i).or_default();
            op.total = span.end - span.start;
            op.own = self_ns[i];
        } else if let Some(parent) = span.parent.map(|p| p as usize) {
            if spans[parent].name == "e2e.publish_deliver" {
                let op = ops.entry(parent).or_default();
                *op.children.entry(span.name).or_default() += self_ns[i];
            }
        }
    }
    if ops.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&TracedOp) -> u64| {
        let values: Vec<f64> = ops.values().map(|op| f(op) as f64 / 1e3).collect();
        stats::median(&values).unwrap_or(0.0)
    };
    let child = |name: &'static str| med(&move |op| op.children.get(name).copied().unwrap_or(0));
    let metric = |name: &str| report.get(name).map_or(0.0, |m| m.value / 1e3);
    let mut stages: Vec<(&str, &str, f64)> = vec![
        (
            "bench.loadgen",
            "lag before send",
            child("bench.loadgen.lag"),
        ),
        (
            "wire.codec",
            "client encode publish",
            child("wire.codec.encode_publish"),
        ),
        ("wire.client", "socket write", child("wire.client.write")),
        (
            "wire.codec",
            "client decode of every copy",
            child("wire.codec.decode_deliver"),
        ),
        (
            "wire.frame",
            "daemon frame decode",
            metric("wire.frame.decode_ns"),
        ),
        (
            "wire.codec",
            "daemon decode publish",
            metric("wire.codec.decode_publish_ns"),
        ),
        ("pubsub.matcher", "match", metric("pubsub.matcher.match_ns")),
        (
            "pubsub.broker",
            "offer",
            metric("pubsub.broker.offer_ns").max(0.0),
        ),
        (
            "wire.codec",
            "daemon encode deliver",
            metric("wire.codec.encode_deliver_ns"),
        ),
    ];
    let op_us = med(&|op| op.total);
    let known: f64 = stages.iter().map(|s| s.2).sum();
    let residual_layer = if workload == "chain_hop" {
        "wire.server+wire.federation"
    } else {
        "wire.server"
    };
    stages.push((
        residual_layer,
        "residual: event loops, shard wake, socket writes, kernel",
        (op_us - known).max(0.0),
    ));
    report.metric(
        "bench.trace.outside_generator_us",
        "us",
        med(&|op| op.own),
        Some(ops.len()),
    );
    report.notes.push(format!(
        "breakdown of the median publish->deliver ({op_us:.1} us over {} traced events):",
        ops.len()
    ));
    let mut by_layer: Vec<(&str, f64)> = Vec::new();
    for (layer, what, us) in &stages {
        report
            .notes
            .push(format!("  {layer:<28} {what:<55} {us:>10.2} us"));
        match by_layer.iter_mut().find(|(l, _)| l == layer) {
            Some(entry) => entry.1 += us,
            None => by_layer.push((layer, *us)),
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some((layer, us)) = by_layer.first() {
        report.notes.push(format!(
            "largest self time on {workload}: {layer} ({us:.1} us per event)"
        ));
    }
}

fn run(args: &Args, ctx: &Ctx, tracer: &mut Tracer) -> std::io::Result<Report> {
    let seed = args.seed;
    match args.workload.as_str() {
        "topic_fanout" => pubflow::run("topic_fanout", &pubflow::topic_fanout(seed), ctx, tracer),
        "range_match" => pubflow::run("range_match", &pubflow::range_match(seed), ctx, tracer),
        "chain_hop" => pubflow::run("chain_hop", &pubflow::chain_hop(seed), ctx, tracer),
        "autosub_churn" => churn::run(ctx, tracer),
        other => unreachable!("validated workload {other}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        return match daemon::serve(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("reefbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reefbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".reefbench");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: out_dir.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("reefbench: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(false);
    let started = std::time::Instant::now();
    let outcome = run(&args, &ctx, &mut tracer);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("reefbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let label = std::env::var("REEF_BENCH_LABEL").unwrap_or_else(|_| "unlabelled".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines = vec![format!(
        "reefbench workload={} seed={} seconds={} trace={} bench_label={label} nproc={nproc} wall_s={:.1}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    )];
    lines.extend(report.lines());
    lines.push(format!(
        "failed_frac = {} ratio ({} of {})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        // One span file per workload, overwritten by each traced run:
        // a file runs to megabytes, and repeated runs must not pile up.
        let path = out_dir.join(format!("spans-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("spans not written: {e}")),
        }
    }
    for line in &lines {
        println!("# {line}");
    }
    let _ = std::fs::write(
        out_dir.join(format!("report-{stem}.txt")),
        lines.join("\n") + "\n",
    );

    let correct = report.failed == 0;
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_json(&report, correct, wanted) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("reefbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units listed under `key` in BENCHMARK.json, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_owned()
                };
                (
                    field("name"),
                    field(if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload range_match --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload range_match --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
