//! Experiment: observatory instrumentation overhead and end-to-end
//! artifact validation.
//!
//! Measures the overhead of the full observatory stack (span tree
//! recording, time-series sampling, metrics) against telemetry-off on
//! the exp_throughput workload (MuCFuzz.s, full registry, GCC -O2), and
//! gates the slowdown at ≤ 3%.
//!
//! The overhead leg runs with **one worker**: a single-worker campaign
//! is deterministic, so the baseline and instrumented runs mutate and
//! compile bit-identical programs and the measured delta is pure
//! instrumentation cost. (With two or more workers the iteration
//! schedule feeds back into corpus evolution, and the two legs diverge
//! into genuinely different workloads — that divergence is several
//! percent either way, swamping the signal being gated.) The two
//! configurations are also interleaved round-robin so machine-speed
//! drift cannot bias whichever side runs later.
//!
//! A separate two-worker instrumented campaign then produces the
//! artifacts, which are validated the way a consumer would use them:
//!
//! - the Chrome trace round-trips through a JSON parser and every
//!   iteration span nests inside its shard span, which nests inside the
//!   single campaign span;
//! - the time-series parses back and is monotone in iterations;
//! - a [`StatusServer`] bound on a loopback port serves valid Prometheus
//!   text on `/metrics` while a campaign is running;
//! - `metamut::report::campaign_report` renders an attribution table
//!   whose percentages sum to 100 ± 1.
//!
//! Artifacts (`trace.json`, `timeseries.jsonl`, `report.md`) land in
//! `target/experiments/`; the measured overhead is committed to
//! `BENCH_observatory.json` at the repository root.
//!
//! Usage: `exp_observatory [--iterations N] [--seed N] [--repeats N]
//! [--smoke]`. `--smoke` shrinks the budget and skips the overhead check
//! (sub-second runs are all noise) while still validating every artifact.
//!
//! [`StatusServer`]: metamut_telemetry::StatusServer

use metamut_bench::{best_of, experiments_dir, write_bench, Check, ExpOptions};
use metamut_fuzzing::campaign::CampaignConfig;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::parallel::run_parallel_campaign_with;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use metamut_telemetry::Telemetry;
use serde::Serialize;
use std::sync::Arc;

/// Worker count for the artifact-producing campaign: two shards give the
/// trace a real tree (campaign → 2 shards → iterations) without
/// demanding many cores from CI runners. The overhead measurement runs
/// with one worker — see the module docs.
const WORKERS: usize = 2;

#[derive(Serialize)]
struct ObservatoryResults {
    iterations: usize,
    seed: u64,
    workers: usize,
    baseline_s: f64,
    instrumented_s: f64,
    overhead_pct: f64,
    trace_spans: usize,
    series_points: usize,
    metrics_bytes: usize,
    attribution_percent_sum: f64,
    note: String,
}

/// Builds the instrumented pipeline: everything the observatory can
/// record, recording.
fn observatory_telemetry() -> Telemetry {
    let t = Telemetry::new();
    t.spans().set_recording(true);
    t.series().set_enabled(true);
    t
}

fn run_workload(
    seeds: &[String],
    reg: &Arc<metamut_muast::registry::MutatorRegistry>,
    compiler: &Compiler,
    cfg: &CampaignConfig,
    telemetry: Telemetry,
) {
    run_parallel_campaign_with(
        seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        compiler,
        cfg,
        telemetry,
    );
}

fn main() {
    // Full runs are long enough that per-run constant costs (thread
    // spawn, ring allocation) vanish into the per-iteration signal.
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        iterations: if smoke { 200 } else { 8000 },
        repeats: 5,
        ..ExpOptions::default()
    });
    let (iterations, repeats) = (opts.iterations, opts.repeats);
    println!(
        "== Observatory overhead ({iterations} iterations, 1 worker, best of {repeats} interleaved runs, seed {}; artifacts from a {WORKERS}-worker campaign) ==\n",
        opts.seed
    );

    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let reg = Arc::new(metamut_mutators::full_registry());
    let cfg = CampaignConfig {
        iterations,
        seed: opts.seed,
        sample_every: (iterations / 24).max(1),
        workers: WORKERS,
        dedup: true,
        ..Default::default()
    };
    // Overhead leg: one worker, so both configurations do bit-identical
    // mutation/compilation work (see the module docs).
    let overhead_cfg = CampaignConfig {
        workers: 1,
        ..cfg.clone()
    };

    // Interleaved best-of-N: machine-speed drift hits baseline and
    // instrumented alike instead of biasing whichever block ran second.
    let overhead_leg = |telemetry: Telemetry| {
        run_workload(&seeds, &reg, &compiler, &overhead_cfg, telemetry);
    };
    let [baseline_s, instrumented_s] = best_of(
        repeats,
        [&mut || overhead_leg(Telemetry::disabled()), &mut || {
            overhead_leg(observatory_telemetry())
        }],
    );
    let overhead_pct = 100.0 * (instrumented_s / baseline_s - 1.0);
    println!("baseline     : {baseline_s:>8.3} s");
    println!("instrumented : {instrumented_s:>8.3} s");
    println!("overhead     : {overhead_pct:>+7.2} %\n");

    // ---- One more instrumented run whose artifacts we keep ----
    let telemetry = observatory_telemetry();
    run_workload(&seeds, &reg, &compiler, &cfg, telemetry.clone());

    let out_dir = experiments_dir();

    // The Chrome trace must round-trip through a JSON parser with
    // properly nested spans.
    let trace = telemetry.spans().chrome_trace_json();
    std::fs::write(out_dir.join("trace.json"), &trace).expect("write trace.json");
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("trace round-trips as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .clone();
    let arg_u64 = |e: &serde_json::Value, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(|v| v.as_u64())
    };
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
            .cloned()
            .collect::<Vec<_>>()
    };
    let campaigns = named("campaign");
    let shards = named("shard");
    let iterations_spans = named("iteration");
    assert_eq!(campaigns.len(), 1, "one campaign root span");
    assert_eq!(shards.len(), WORKERS, "one shard span per worker");
    assert!(!iterations_spans.is_empty(), "iteration spans recorded");
    let interval = |e: &serde_json::Value| {
        (
            e.get("ts").and_then(|v| v.as_u64()).expect("ts"),
            e.get("dur").and_then(|v| v.as_u64()).expect("dur"),
        )
    };
    let (c_ts, c_dur) = interval(&campaigns[0]);
    let campaign_id = arg_u64(&campaigns[0], "id").expect("campaign id");
    for shard in &shards {
        assert_eq!(
            arg_u64(shard, "parent"),
            Some(campaign_id),
            "shard parented to the campaign"
        );
        let (s_ts, s_dur) = interval(shard);
        assert!(
            c_ts <= s_ts && s_ts + s_dur <= c_ts + c_dur,
            "shard nests in campaign"
        );
    }
    for it in &iterations_spans {
        let parent = arg_u64(it, "parent").expect("iteration parent");
        let shard = shards
            .iter()
            .find(|s| arg_u64(s, "id") == Some(parent))
            .expect("iteration parented to a shard");
        let (s_ts, s_dur) = interval(shard);
        let (i_ts, i_dur) = interval(it);
        assert!(
            s_ts <= i_ts && i_ts + i_dur <= s_ts + s_dur,
            "iteration nests in shard"
        );
    }
    println!(
        "trace ok: {} events, 1 campaign / {} shards / {} iterations, all nested",
        events.len(),
        shards.len(),
        iterations_spans.len()
    );

    // The time-series parses back and is monotone in iterations.
    let series_jsonl = telemetry.series().to_jsonl();
    std::fs::write(out_dir.join("timeseries.jsonl"), &series_jsonl)
        .expect("write timeseries.jsonl");
    let points = metamut_telemetry::parse_jsonl(&series_jsonl);
    assert!(!points.is_empty(), "series sampled");
    for w in points.windows(2) {
        assert!(w[1].iteration >= w[0].iteration, "series monotone");
    }
    println!("series ok: {} points, monotone in iterations", points.len());

    // A status server on a loopback port serves valid Prometheus text on
    // /metrics while a campaign is running against the same pipeline.
    let live = observatory_telemetry();
    let server =
        metamut_telemetry::StatusServer::bind("127.0.0.1:0", live.clone()).expect("bind status");
    let addr = server.local_addr().to_string();
    let metrics_body = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| run_workload(&seeds, &reg, &compiler, &cfg, live.clone()));
        let mut body = String::new();
        // Poll until the campaign ends; keep the last live payload.
        loop {
            let done = campaign.is_finished();
            match metamut_telemetry::fetch(&addr, "/metrics") {
                Ok(b) if !b.is_empty() => body = b,
                _ => {}
            }
            if done {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        campaign.join().expect("campaign thread");
        body
    });
    drop(server);
    assert!(
        metrics_body
            .lines()
            .any(|l| l.starts_with("# TYPE metamut_")),
        "/metrics is Prometheus text: {metrics_body:.200}"
    );
    assert!(
        metrics_body.contains("metamut_fuzz_execs"),
        "/metrics exposes campaign counters"
    );
    println!(
        "/metrics ok: {} bytes of Prometheus text from {addr}",
        metrics_body.len()
    );

    // The markdown report joins snapshot + series, and its attribution
    // percentages sum to 100 ± 1.
    let snapshot = telemetry.snapshot();
    let report_md = metamut::report::campaign_report(&snapshot, &points, None);
    std::fs::write(out_dir.join("report.md"), &report_md).expect("write report.md");
    let percent_sum: f64 = report_md
        .lines()
        .skip_while(|l| !l.starts_with("| stage |"))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| {
            let cell = l.rsplit('|').nth(1)?.trim();
            cell.strip_suffix('%')?.trim().parse::<f64>().ok()
        })
        .sum();
    println!("report attribution sums to {percent_sum:.2}%\n");

    let checks = vec![
        Check::at_most("overhead_pct", overhead_pct, 3.0).timing(),
        Check::at_most("attribution_error_pct", (percent_sum - 100.0).abs(), 1.0),
    ];
    let results = ObservatoryResults {
        iterations,
        seed: opts.seed,
        workers: WORKERS,
        baseline_s,
        instrumented_s,
        overhead_pct,
        trace_spans: events.len(),
        series_points: points.len(),
        metrics_bytes: metrics_body.len(),
        attribution_percent_sum: percent_sum,
        note: "exp_throughput workload (MuCFuzz.s full registry vs GCC -O2); overhead \
               measured on the deterministic 1-worker campaign (baseline = \
               Telemetry::disabled(), instrumented = spans + series + metrics recording), \
               best-of-N wall time over interleaved baseline/instrumented rounds; \
               artifacts from a separate 2-worker instrumented campaign land in \
               target/experiments/"
            .into(),
    };

    write_bench("observatory", &opts, &results, checks);
}
