//! The hierarchical reducer: ddmin over AST structure plus semantic shrink
//! passes, all gated by the signature-preserving [`ReductionOracle`].
//!
//! Each round re-parses the current best witness (spans always refer to the
//! text that produced them), runs the pass pipeline, and stops when a round
//! removes nothing, the round cap is hit, or the oracle budget runs out.
//! Witnesses the `metamut-lang` parser cannot digest (raw byte crashers
//! such as the paren-storm front-end bugs) fall back to textual ddmin over
//! lines and then character chunks.

use crate::ddmin::ddmin;
use crate::oracle::ReductionOracle;
use crate::passes;
use metamut_lang::{parse, printer, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pass-pipeline rounds before giving up (each round re-parses).
const MAX_ROUNDS: usize = 8;
/// Hard cap on oracle compiler invocations per witness.
const MAX_ORACLE_CALLS: u64 = 5_000;
/// Expression-simplification attempts per round.
const EXPR_ATTEMPTS: usize = 64;
/// Character-level ddmin is only attempted on witnesses at most this many
/// bytes long (it is quadratic in the worst case).
const CHAR_DDMIN_LIMIT: usize = 4_096;

/// A fieldless stand-in for the reducer's removed knobs: every reduction
/// runs under the constants above with the adaptive pass order. It exists
/// only because the standalone `exp_perf` benchmark still calls
/// `reduce(&oracle, src, &ReduceConfig::default())`, and goes with the next
/// change that edits `exp_perf`.
#[derive(Debug, Clone, Default)]
pub struct ReduceConfig {}

/// The outcome of reducing one witness.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReduceResult {
    /// The minimized witness (still reproduces the target signature).
    pub reduced: String,
    /// Byte size of the original witness.
    pub original_bytes: usize,
    /// Byte size of the reduced witness.
    pub reduced_bytes: usize,
    /// Compiler invocations spent by the oracle.
    pub oracle_calls: u64,
    /// Pass-pipeline rounds executed.
    pub rounds: usize,
    /// Bytes removed per pass name (only passes that removed something).
    pub pass_bytes: BTreeMap<String, u64>,
    /// Wall-clock milliseconds spent reducing.
    pub elapsed_ms: f64,
}

impl ReduceResult {
    /// `reduced_bytes / original_bytes`, in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.original_bytes == 0 {
            return 1.0;
        }
        self.reduced_bytes as f64 / self.original_bytes as f64
    }
}

/// Reduces `witness` under `oracle`, preserving its crash signature.
///
/// The caller guarantees `oracle.reproduces(witness)`; if it does not, the
/// witness is returned unchanged (zero-size reductions never lie). The
/// [`ReduceConfig`] carries nothing.
pub fn reduce(oracle: &ReductionOracle, witness: &str, _config: &ReduceConfig) -> ReduceResult {
    reduce_scheduled(oracle, witness, true)
}

/// [`reduce`] with the pass schedule chosen: `adaptive` reorders passes
/// after the first round so the cheapest highest-yield ones run first
/// (bytes removed per oracle call, measured on *this* witness —
/// deterministic, no wall clocks). The fixpoint is the same either way;
/// only the oracle calls spent getting there change. The canonical order
/// (`false`) is the tests' reference.
fn reduce_scheduled(oracle: &ReductionOracle, witness: &str, adaptive: bool) -> ReduceResult {
    let start = Instant::now();
    let original_bytes = witness.len();
    let mut best = witness.to_string();
    let mut pass_bytes: BTreeMap<String, u64> = BTreeMap::new();
    let mut stats = vec![PassStats::default(); STRUCTURAL_PASSES.len()];
    let mut rounds = 0usize;

    if oracle.reproduces(&best) {
        for round in 0..MAX_ROUNDS {
            rounds += 1;
            let before = best.len();
            run_round(
                oracle,
                &mut best,
                &mut pass_bytes,
                &mut stats,
                adaptive,
                round,
            );
            if best.len() >= before || oracle.calls() >= MAX_ORACLE_CALLS {
                break;
            }
        }
    }

    let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    metamut_telemetry::handle().observe("reduce_ms", elapsed_ms);
    ReduceResult {
        reduced_bytes: best.len(),
        reduced: best,
        original_bytes,
        oracle_calls: oracle.calls(),
        rounds,
        pass_bytes,
        elapsed_ms,
    }
}

/// The signature every structural pass shares, so the scheduler can
/// reorder them.
type PassFn = fn(&ReductionOracle, &mut String) -> u64;

/// The structural pass pipeline in canonical (first-round) order.
const STRUCTURAL_PASSES: [(&str, PassFn); 7] = [
    ("drop-unused", drop_unused),
    ("ddmin-decls", ddmin_decls),
    ("ddmin-stmts", ddmin_stmts),
    ("inline-calls", inline_calls),
    ("shrink-arrays", shrink_arrays),
    ("simplify-exprs", simplify_exprs),
    ("reprint", reprint),
];

/// Per-pass yield/cost bookkeeping for one witness, accumulated across
/// rounds. Cost is oracle compiler invocations — a deterministic proxy for
/// pass expense that, unlike wall time, keeps the schedule (and therefore
/// the whole reduction) reproducible.
#[derive(Debug, Clone, Copy, Default)]
struct PassStats {
    bytes: u64,
    calls: u64,
}

impl PassStats {
    /// Scaled bytes-removed-per-oracle-call score (integer math so the
    /// sort never sees NaN and ties break canonically).
    fn score(&self) -> u64 {
        self.bytes.saturating_mul(1_000) / self.calls.max(1)
    }
}

/// The round's pass schedule: canonical on the first round (no evidence
/// yet), then, if `adaptive`, cheapest-highest-yield first. Zero-yield
/// passes score 0 and sink to the back in canonical order (the sort is
/// stable).
fn pass_order(stats: &[PassStats], adaptive: bool, round: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stats.len()).collect();
    if adaptive && round > 0 {
        order.sort_by_key(|&i| std::cmp::Reverse(stats[i].score()));
    }
    order
}

/// One pipeline round over the current best witness.
fn run_round(
    oracle: &ReductionOracle,
    best: &mut String,
    pass_bytes: &mut BTreeMap<String, u64>,
    stats: &mut [PassStats],
    adaptive: bool,
    round: usize,
) {
    if parse("<reduce>", best).is_err() {
        // Textual fallback for witnesses our front end cannot parse.
        record(pass_bytes, "ddmin-lines", ddmin_lines(oracle, best));
        if best.len() <= CHAR_DDMIN_LIMIT {
            record(pass_bytes, "ddmin-chars", ddmin_chars(oracle, best));
        }
        return;
    }

    for idx in pass_order(stats, adaptive, round) {
        run_pass(idx, oracle, best, pass_bytes, stats);
        if oracle.calls() >= MAX_ORACLE_CALLS {
            break;
        }
    }
}

/// Runs one structural pass under its observability wrapper: a
/// `reduce-pass` span, the `reduce_pass_ms{pass}` histogram, and the
/// yield/cost stats feeding the adaptive schedule.
fn run_pass(
    idx: usize,
    oracle: &ReductionOracle,
    best: &mut String,
    pass_bytes: &mut BTreeMap<String, u64>,
    stats: &mut [PassStats],
) {
    let (name, pass) = STRUCTURAL_PASSES[idx];
    let telemetry = metamut_telemetry::handle();
    let mut span = telemetry.span_fast("reduce-pass");
    span.attr("pass", name);
    let start = telemetry.enabled().then(Instant::now);
    let calls_before = oracle.calls();
    let removed = pass(oracle, best);
    stats[idx].bytes += removed;
    stats[idx].calls += oracle.calls().saturating_sub(calls_before);
    record(pass_bytes, name, removed);
    if let Some(start) = start {
        telemetry.observe_hot(
            &metamut_telemetry::labeled("reduce_pass_ms", name),
            start.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Books `removed` bytes against `pass` (and the per-pass telemetry counter).
fn record(pass_bytes: &mut BTreeMap<String, u64>, pass: &str, removed: u64) {
    if removed > 0 {
        *pass_bytes.entry(pass.to_string()).or_insert(0) += removed;
        metamut_telemetry::handle().counter_add(
            &metamut_telemetry::labeled("reduce_bytes_removed", pass),
            removed,
        );
    }
}

/// Accepts `candidate` if it is smaller and still reproduces; returns the
/// bytes it removed.
fn try_candidate(oracle: &ReductionOracle, best: &mut String, candidate: String) -> u64 {
    if candidate.len() < best.len() && oracle.reproduces(&candidate) {
        let removed = (best.len() - candidate.len()) as u64;
        *best = candidate;
        removed
    } else {
        0
    }
}

/// Runs ddmin over a set of deletable spans of `best`; spans must be
/// pairwise disjoint. Returns bytes removed.
fn ddmin_span_deletion(oracle: &ReductionOracle, best: &mut String, spans: Vec<Span>) -> u64 {
    if spans.is_empty() {
        return 0;
    }
    let snapshot = best.clone();
    if spans.len() == 1 {
        return try_candidate(oracle, best, passes::delete_spans(&snapshot, &spans));
    }
    let all = spans.clone();
    let kept = ddmin(spans, |subset| {
        if oracle.calls() >= MAX_ORACLE_CALLS {
            return false;
        }
        let deleted = complement(&all, subset);
        oracle.reproduces(&passes::delete_spans(&snapshot, &deleted))
    });
    if kept.len() < all.len() {
        let deleted = complement(&all, &kept);
        try_candidate(oracle, best, passes::delete_spans(&snapshot, &deleted))
    } else {
        0
    }
}

/// Spans of `all` that are not in `subset` (`subset` is an ordered
/// sub-list of `all`, as ddmin guarantees).
fn complement(all: &[Span], subset: &[Span]) -> Vec<Span> {
    let mut out = Vec::with_capacity(all.len() - subset.len());
    let mut it = subset.iter().peekable();
    for s in all {
        if it.peek() == Some(&s) {
            it.next();
        } else {
            out.push(*s);
        }
    }
    out
}

/// Applies `(span, replacement)` edits (spans from one snapshot, pairwise
/// disjoint) back-to-front.
fn apply_edits(snapshot: &str, edits: &[(Span, String)]) -> String {
    let mut sorted: Vec<&(Span, String)> = edits.iter().collect();
    sorted.sort_by_key(|(s, _)| std::cmp::Reverse(s.lo));
    let mut out = snapshot.to_string();
    for (span, replacement) in sorted {
        out = passes::replace_span(&out, *span, replacement);
    }
    out
}

/// Greedily applies edit groups against one snapshot: each accepted group's
/// edits accumulate, each candidate is the snapshot with all accepted edits
/// plus one trial group. Returns bytes removed.
fn greedy_edit_groups(
    oracle: &ReductionOracle,
    best: &mut String,
    snapshot: &str,
    groups: Vec<Vec<(Span, String)>>,
) -> u64 {
    let mut accepted: Vec<(Span, String)> = Vec::new();
    let mut removed_total = 0u64;
    for group in groups {
        if oracle.calls() >= MAX_ORACLE_CALLS {
            break;
        }
        let accepted_spans: Vec<Span> = accepted.iter().map(|(s, _)| *s).collect();
        if group
            .iter()
            .any(|(s, _)| !passes::disjoint_from(*s, &accepted_spans))
        {
            continue;
        }
        let mut trial = accepted.clone();
        trial.extend(group.iter().cloned());
        let candidate = apply_edits(snapshot, &trial);
        let removed = try_candidate(oracle, best, candidate);
        if removed > 0 {
            accepted = trial;
            removed_total += removed;
        }
    }
    removed_total
}

fn drop_unused(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    let spans = passes::unused_decl_spans(&ast);
    if spans.is_empty() {
        return 0;
    }
    // One combined candidate; the decl-level ddmin mops up individually if
    // the bulk drop overshoots.
    try_candidate(
        oracle,
        best,
        passes::delete_spans(best.clone().as_str(), &spans),
    )
}

fn ddmin_decls(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    ddmin_span_deletion(oracle, best, passes::decl_spans(&ast))
}

fn ddmin_stmts(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let mut removed = 0u64;
    let mut depth = 0usize;
    // Hierarchical descent: finish a depth, re-parse (spans shifted), go
    // one level deeper until the tree runs out of compounds.
    while let Ok(ast) = parse("<reduce>", best) {
        let levels = passes::block_item_spans_by_depth(&ast);
        if depth >= levels.len() {
            break;
        }
        removed += ddmin_span_deletion(oracle, best, levels[depth].clone());
        depth += 1;
        if oracle.calls() >= MAX_ORACLE_CALLS {
            break;
        }
    }
    removed
}

fn inline_calls(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    let groups = passes::trivial_call_edits(&ast);
    let snapshot = best.clone();
    greedy_edit_groups(oracle, best, &snapshot, groups)
}

fn shrink_arrays(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    let groups: Vec<Vec<(Span, String)>> = passes::array_shrink_edits(&ast)
        .into_iter()
        .map(|e| vec![e])
        .collect();
    let snapshot = best.clone();
    greedy_edit_groups(oracle, best, &snapshot, groups)
}

fn simplify_exprs(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    let groups: Vec<Vec<(Span, String)>> = passes::expr_simplify_spans(&ast, 3, EXPR_ATTEMPTS)
        .into_iter()
        .map(|s| vec![(s, "0".to_string())])
        .collect();
    let snapshot = best.clone();
    greedy_edit_groups(oracle, best, &snapshot, groups)
}

fn reprint(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let Ok(ast) = parse("<reduce>", best) else {
        return 0;
    };
    try_candidate(oracle, best, printer::print_unit(&ast))
}

fn ddmin_lines(oracle: &ReductionOracle, best: &mut String) -> u64 {
    ddmin_span_deletion(oracle, best, passes::line_spans(best.clone().as_str()))
}

fn ddmin_chars(oracle: &ReductionOracle, best: &mut String) -> u64 {
    let snapshot = best.clone();
    let chars: Vec<Span> = (0..snapshot.len() as u32)
        .filter(|&i| snapshot.is_char_boundary(i as usize))
        .map(|i| {
            let lo = i as usize;
            let mut hi = lo + 1;
            while hi < snapshot.len() && !snapshot.is_char_boundary(hi) {
                hi += 1;
            }
            Span::new(lo as u32, hi as u32)
        })
        .collect();
    ddmin_span_deletion(oracle, best, chars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_simcomp::{CompileOptions, Profile};

    fn oracle_for(profile: Profile, options: CompileOptions, witness: &str) -> ReductionOracle {
        ReductionOracle::for_witness(profile, options, witness).expect("witness must crash")
    }

    #[test]
    fn reduces_bloated_scalar_brace_witness() {
        // clang-69213: `(int) {{}, 0}` compound literal at -O0, padded with
        // dead decls and statements campaign mutants typically carry.
        let witness = "\
int helper_a(void) { return 42; }\n\
int helper_b(int x) { return x + helper_a(); }\n\
int dead_global[16] = {1, 2, 3, 4, 5, 6, 7, 8};\n\
foo(int *ptr) { int unused_local = 9; *ptr = (int) {{}, 0}; return 0; }\n\
int trailer(void) { return dead_global[0] + helper_b(3); }\n";
        let oracle = oracle_for(Profile::Clang, CompileOptions::o0(), witness);
        let result = reduce(&oracle, witness, &ReduceConfig::default());
        assert!(
            oracle.reproduces(&result.reduced),
            "signature must be preserved: {:?}",
            result.reduced
        );
        assert!(
            result.reduced_bytes < witness.len() / 2,
            "expected a real shrink, got {} -> {} ({:?})",
            result.original_bytes,
            result.reduced_bytes,
            result.reduced
        );
        assert!(result.oracle_calls > 0);
        assert!(!result.pass_bytes.is_empty());
    }

    #[test]
    fn unparseable_witness_falls_back_to_textual_ddmin() {
        // A raw-feature front-end crash: deep paren nesting. Not valid in
        // our C subset as written (it is), but make it unparseable with
        // trailing garbage so the fallback path engages.
        let storm = format!("int x = {}1;\n@@@ not parseable @@@\n", "(".repeat(40));
        let oracle = oracle_for(Profile::Gcc, CompileOptions::o0(), &storm);
        let result = reduce(&oracle, &storm, &ReduceConfig::default());
        assert!(oracle.reproduces(&result.reduced));
        assert!(result.reduced_bytes < storm.len());
    }

    /// The adaptive scheduler only reorders work; the fixpoint the
    /// pipeline converges to is byte-for-byte the same as the canonical
    /// order's, on both the structural and the textual-fallback paths.
    #[test]
    fn adaptive_pass_order_leaves_fixpoint_unchanged() {
        let witnesses = [
            // Structural path: the bloated scalar-brace witness.
            "int helper_a(void) { return 42; }\n\
             int helper_b(int x) { return x + helper_a(); }\n\
             int dead_global[16] = {1, 2, 3, 4, 5, 6, 7, 8};\n\
             foo(int *ptr) { int unused_local = 9; *ptr = (int) {{}, 0}; return 0; }\n\
             int trailer(void) { return dead_global[0] + helper_b(3); }\n"
                .to_string(),
            // Fallback path: a paren storm the front end cannot parse.
            format!("int x = {}1;\n@@@ not parseable @@@\n", "(".repeat(40)),
        ];
        for (i, witness) in witnesses.iter().enumerate() {
            let profile = if i == 0 { Profile::Clang } else { Profile::Gcc };
            let canonical = reduce_scheduled(
                &oracle_for(profile, CompileOptions::o0(), witness),
                witness,
                false,
            );
            let adaptive = reduce(
                &oracle_for(profile, CompileOptions::o0(), witness),
                witness,
                &ReduceConfig::default(),
            );
            assert_eq!(
                canonical.reduced, adaptive.reduced,
                "witness {i}: adaptive ordering changed the fixpoint"
            );
            // Determinism of the schedule itself: a second adaptive run is
            // identical down to the oracle-call count.
            let again = reduce(
                &oracle_for(profile, CompileOptions::o0(), witness),
                witness,
                &ReduceConfig::default(),
            );
            assert_eq!(again.reduced, adaptive.reduced);
            assert_eq!(again.oracle_calls, adaptive.oracle_calls);
            assert_eq!(again.pass_bytes, adaptive.pass_bytes);
        }
    }

    /// The schedule orders by bytes-removed-per-oracle-call: round one is
    /// canonical, later rounds front-load the proven cheap high-yield
    /// passes and sink zero-yield ones to the back in canonical order.
    #[test]
    fn pass_order_ranks_by_yield_per_call() {
        let mut stats = vec![PassStats::default(); STRUCTURAL_PASSES.len()];
        // Round 0 (and the canonical schedule) always run canonically.
        let canonical: Vec<usize> = (0..STRUCTURAL_PASSES.len()).collect();
        assert_eq!(pass_order(&stats, true, 0), canonical);
        assert_eq!(pass_order(&stats, false, 3), canonical);

        // Pass 2 removed the most per call, pass 4 a little; the rest did
        // nothing (with varying costs — cost alone must not promote).
        stats[0] = PassStats {
            bytes: 0,
            calls: 50,
        };
        stats[2] = PassStats {
            bytes: 300,
            calls: 10,
        };
        stats[4] = PassStats {
            bytes: 40,
            calls: 20,
        };
        let order = pass_order(&stats, true, 1);
        assert_eq!(order[0], 2, "highest yield-per-call first");
        assert_eq!(order[1], 4);
        assert_eq!(
            &order[2..],
            &[0, 1, 3, 5, 6],
            "zero-yield passes keep canonical order at the back"
        );
    }

    #[test]
    fn non_reproducing_witness_is_returned_unchanged() {
        let oracle = oracle_for(
            Profile::Clang,
            CompileOptions::o0(),
            "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }",
        );
        let witness = "int main(void) { return 0; }";
        let result = reduce(&oracle, witness, &ReduceConfig::default());
        assert_eq!(result.reduced, witness);
        assert_eq!(result.ratio(), 1.0);
    }

    #[test]
    fn ratio_is_bytes_over_bytes() {
        let r = ReduceResult {
            reduced: "ab".into(),
            original_bytes: 8,
            reduced_bytes: 2,
            oracle_calls: 3,
            rounds: 1,
            pass_bytes: BTreeMap::new(),
            elapsed_ms: 0.0,
        };
        assert!((r.ratio() - 0.25).abs() < 1e-9);
    }
}
