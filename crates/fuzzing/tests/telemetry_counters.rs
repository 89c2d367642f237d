//! The parse-cache acceptance check, asserted through telemetry.
//!
//! This file holds exactly one test on purpose: it enables the
//! process-global telemetry handle and asserts on counter *deltas*, so it
//! must not share a process with other tests that bump the same counters
//! from concurrent threads. Integration-test files compile to separate
//! binaries, which gives this test the isolation for free.

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use std::sync::Arc;

/// With the cache, parses stay bounded by distinct pool entries (≤ one per
/// candidate); without it, every mutation attempt re-parses the parent.
#[test]
fn telemetry_counters_prove_parse_cache_and_dedup() {
    let t = metamut_telemetry::handle();
    t.set_enabled(true);
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let reg = Arc::new(metamut_mutators::supervised_registry());

    let run = |cache: bool, dedup: bool| {
        let before = t.snapshot();
        let mut fuzzer =
            MuCFuzz::new("uCFuzz.s", reg.clone(), seeds.iter().cloned()).parse_cache(cache);
        let config = CampaignConfig {
            iterations: 120,
            seed: 42,
            sample_every: 40,
            dedup,
            ..Default::default()
        };
        let report = run_campaign(&mut fuzzer, &compiler, &config);
        let after = t.snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        (
            report,
            fuzzer.parse_count(),
            delta("muast_parses"),
            delta("mutate_attempts"),
            delta("dedup_hits"),
            delta("fuzz_execs"),
        )
    };

    let (cached_report, pool_parses, parses_cached, attempts, dedup_hits, execs) = run(true, true);
    assert_eq!(execs, 120);
    assert_eq!(
        dedup_hits,
        cached_report.dedup.as_ref().unwrap().hits,
        "telemetry and report must agree on dedup hits"
    );
    // ≤ one parse per candidate (the acceptance bound) — in fact ≤ one
    // parse per distinct pool entry.
    assert_eq!(parses_cached, pool_parses);
    assert!(
        parses_cached <= 120,
        "cached engine parsed {parses_cached} times for 120 candidates"
    );

    let (legacy_report, _, parses_legacy, attempts_legacy, _, _) = run(false, false);
    assert_eq!(cached_report.series, legacy_report.series);
    assert_eq!(attempts, attempts_legacy, "attempt streams must match");
    // The legacy engine parses once per attempt; the cache removes the
    // per-attempt factor entirely.
    assert_eq!(
        parses_legacy, attempts_legacy,
        "uncached mutate_source parses on every attempt"
    );
    assert!(
        parses_legacy > parses_cached,
        "expected a parse reduction, got {parses_legacy} → {parses_cached}"
    );
    println!("parse reduction: {parses_legacy} → {parses_cached} over {attempts} attempts");

    // Per-mutator counter families exist and reconcile.
    let snap = t.snapshot();
    let family_sum = |prefix: &str| {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.contains('{'))
            .map(|(_, v)| *v)
            .sum::<u64>()
    };
    let per_mutator_attempts = family_sum("mutator_attempts");
    let per_mutator_applied = family_sum("mutator_applied");
    assert!(per_mutator_attempts > 0, "no per-mutator attempt counters");
    assert!(per_mutator_applied > 0, "no per-mutator applied counters");
    assert!(per_mutator_applied <= per_mutator_attempts);
}
