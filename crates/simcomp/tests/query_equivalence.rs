//! Property: query-engine mutant compilation is bit-identical to cold.
//!
//! For random mutants of a campaign-shaped seed and every supported
//! configuration (Gcc/Clang × O0/O2/O3), compiling the mutant through the
//! shared [`QueryCache`] must reproduce the cold [`Compiler::compile`]
//! result exactly: same outcome (success stats, rejection, or crash
//! signature) and the same coverage *set* (which is derived from the
//! per-stage feature streams).
//!
//! Two mutant generators feed the same oracle:
//!
//! - **declaration edits**: k-declaration replacements (k = 1..4) from a
//!   pool mixing fast-path edits (body rewrites, volatile floods, crash
//!   triggers) with guard-chain fallbacks (signature changes, parse and
//!   sema failures, declaration deletions);
//! - **line edits**: compounding line rewrites, splices, duplications and
//!   deletions, which cut across declaration boundaries and produce
//!   garbage the declaration splitter must survive.
//!
//! Both the memo path and every cold fallback are exercised.
//!
//! All configurations share one [`QueryDb`], mirroring how campaign
//! workers, the reduction oracle, and the UB gate share memos in
//! production.

use metamut_simcomp::QueryDb;
use metamut_simcomp::{coverage_equal, CompileOptions, Compiler, Outcome, Profile, QueryCache};
use proptest::collection::vec;
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use std::sync::{Arc, OnceLock};

/// The seed, one declaration per slot. Joined with newlines it is
/// cacheable (all slot self-checks pass) under every configuration.
const DECLS: &[&str] = &[
    "typedef int T;",
    "int g = 3;",
    "volatile int vg;",
    "struct P { int x; int y; };",
    "static int helper(T a, T b) { return a * b + g; }",
    "int fold(int n) {\n    int acc = 0;\n    for (int i = 0; i < n; i = i + 1) { acc = acc + helper(i, i + 1); }\n    return acc;\n}",
    "int weigh(int n) {\n    int w = n;\n    while (w > 1) { w = w - 2; vg = w; }\n    return w + g;\n}",
    "int main(void) { struct P p; p.x = fold(4); p.y = helper(2, 3); vg = p.x; return p.x + p.y + weigh(9); }",
];

/// Whole-declaration replacements: body rewrites that keep the fast path
/// green, crash triggers (deep ternaries, volatile floods), and
/// guard-chain breakers (signature changes, parse/sema failures,
/// deletions that change the declaration count).
const REPLACEMENTS: &[&str] = &[
    "static int helper(T a, T b) { return a + b * 2 - g; }",
    "int fold(int n) { int acc = 1; for (int i = 0; i < n; i = i + 1) { acc = acc * 2 + vg; } return acc; }",
    "int weigh(int n) { int q = n ? n ? 1 : 2 : n ? 3 : n ? 4 : 5 ? 6 : 7; return q; }",
    "int main(void) { vg = g; vg = vg + 1; vg = vg + 1; return weigh(3) + fold(2); }",
    "static long helper(T a, T b) { return a - b; }",
    "volatile int extra_a; volatile int extra_b;",
    "int broken( { syntax",
    "int weigh(int n) { return no_such_symbol + n; }",
    "",
];

/// Line-level fragments: single-function edits, crash triggers (deep
/// ternaries, volatile floods), signature changes, and outright garbage.
const FRAGMENTS: &[&str] = &[
    "    g = g + 1;",
    "    return 0;",
    "    vg = vg + 1; vg = vg + 1;",
    "    int q = a ? b ? 1 : 2 : a ? 3 : b ? 4 : 5 ? 6 : 7;",
    "volatile int extra_a; volatile int extra_b; volatile int extra_c;",
    "static long helper(T a, T b) { return a - b; }",
    "int fold(int n, int m) { return n + m; }",
    "    while (1) { }",
    "    syntax error here",
    "    p.x = no_such_symbol;",
    "",
];

/// Replaces, for each `(slot, choice)` edit, one declaration of the seed
/// with a pool entry. Distinct slots compound into k-declaration mutants;
/// repeated slots overwrite (a smaller effective k).
fn mutate(edits: &[(usize, usize)]) -> String {
    let mut decls: Vec<&str> = DECLS.to_vec();
    for &(slot, choice) in edits {
        decls[slot % DECLS.len()] = REPLACEMENTS[choice % REPLACEMENTS.len()];
    }
    decls.join("\n") + "\n"
}

/// Applies `(selector, line)` edits one after another. Each edit rewrites,
/// duplicates, deletes, or splices a fragment after one line of the
/// current text, so successive edits compound into multi-line mutants.
fn mutate_lines(seed: &str, edits: &[(usize, usize)]) -> String {
    let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
    for &(selector, slot) in edits {
        if lines.is_empty() {
            break;
        }
        let line = slot % lines.len();
        let fragment = FRAGMENTS[selector % FRAGMENTS.len()];
        match (selector / FRAGMENTS.len()) % 4 {
            0 => lines[line] = fragment.to_string(),
            1 => lines.insert(line, fragment.to_string()),
            2 => {
                let dup = lines[line].clone();
                lines.insert(line, dup);
            }
            _ => {
                lines.remove(line);
            }
        }
    }
    lines.join("\n") + "\n"
}

fn configurations() -> &'static [(Compiler, QueryCache)] {
    static CONFIGS: OnceLock<Vec<(Compiler, QueryCache)>> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        let db = Arc::new(QueryDb::new());
        let mut out = Vec::new();
        for profile in [Profile::Gcc, Profile::Clang] {
            for options in [
                CompileOptions::o0(),
                CompileOptions::o2(),
                CompileOptions::o3(),
            ] {
                out.push((
                    Compiler::new(profile, options),
                    QueryCache::new(Arc::clone(&db)),
                ));
            }
        }
        out
    })
}

fn seed() -> String {
    DECLS.join("\n") + "\n"
}

/// Compiles `mutant` as an edit of `seed` under every configuration and
/// asserts the memoized result equals the cold one.
fn assert_matches_cold(seed: &str, mutant: &str) {
    for (compiler, cache) in configurations() {
        let cold = compiler.compile(mutant);
        let queried = cache.compile(compiler, seed, mutant);
        assert_eq!(
            queried.outcome,
            cold.outcome,
            "outcome diverged under {:?} {:?}:\n{mutant}",
            compiler.profile(),
            compiler.options(),
        );
        if let (Outcome::Crash(q), Outcome::Crash(c)) = (&queried.outcome, &cold.outcome) {
            assert_eq!(
                q.signature(),
                c.signature(),
                "crash signature diverged under {:?} {:?}:\n{mutant}",
                compiler.profile(),
                compiler.options(),
            );
        }
        assert!(
            coverage_equal(&queried.coverage, &cold.coverage),
            "coverage diverged ({} vs {} branches) under {:?} {:?}:\n{mutant}",
            queried.coverage.count(),
            cold.coverage.count(),
            compiler.profile(),
            compiler.options(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn query_engine_equals_cold_on_random_mutants(
        slots in vec(0usize..10_000, 1..5),
        choices in vec(0usize..10_000, 1..5),
    ) {
        let edits: Vec<(usize, usize)> = slots
            .iter()
            .copied()
            .zip(choices.iter().copied())
            .collect();
        assert_matches_cold(&seed(), &mutate(&edits));
    }

    #[test]
    fn query_engine_equals_cold_on_random_line_edits(
        selectors in vec(0usize..10_000, 1..5),
        lines in vec(0usize..10_000, 1..5),
    ) {
        let edits: Vec<(usize, usize)> = selectors
            .iter()
            .copied()
            .zip(lines.iter().copied())
            .collect();
        let seed = seed();
        assert_matches_cold(&seed, &mutate_lines(&seed, &edits));
    }
}
