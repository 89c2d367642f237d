//! Property: analyzer verdicts are invariant under reprinting.
//!
//! A mutant reaches the analyzer as whatever text the rewriter produced,
//! while the reduction oracle and the repair loop re-analyze *reprinted*
//! forms of the same program. If the analyses keyed off concrete syntax
//! (spans, spacing, literal spelling), a program could gate in one place
//! and pass in another. So: for randomly edited programs that still
//! parse, `print_unit` → re-parse → re-analyze must produce the same
//! span-insensitive finding key set — and the same UB-key set, which is
//! what the gate and the oracle actually compare.

use metamut_analyze::{alpha_equivalent, analyze_source, ub_keys, Finding};
use metamut_lang::parse;
use metamut_lang::printer::print_unit;
use proptest::collection::vec;
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use std::collections::BTreeSet;

/// A seed dense in analyzer-relevant material: arrays, pointers, loops,
/// divisions, branches, and an uninitialized-then-assigned local.
const SEED: &str = "\
int g = 3;
int arr[8];
volatile int vg;
static int helper(int a, int b) { return a * b + g; }
int fold(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + helper(i, arr[i % 8]); }
    return acc;
}
int pick(int c) {
    int x;
    if (c) { x = 10 / (c + 1); } else { x = 0; }
    int *p = &x;
    return *p;
}
int main(void) { vg = fold(4); return pick(vg) + g; }
";

/// Edit fragments biased toward triggering (or almost triggering) each
/// analysis: zero divisors, constant indices, null pointers, bare locals.
const FRAGMENTS: &[&str] = &[
    "    int u; g = u;",
    "    g = g / 0;",
    "    int d = 0; g = g % d;",
    "    g = arr[9];",
    "    g = arr[7];",
    "    int *q = 0; g = *q;",
    "    while (1) { }",
    "    while (1) { vg = vg + 1; }",
    "    return 0;",
    "    if (0) { g = 99; }",
    "    int ok = 5; g = g / ok;",
    "",
];

/// Applies `(selector, line)` edits one after another, like the simcomp
/// equivalence suite: rewrite, insert, duplicate, or delete a line.
fn mutate(seed: &str, edits: &[(usize, usize)]) -> String {
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

fn key_set(findings: &[Finding]) -> BTreeSet<(String, String)> {
    findings
        .iter()
        .map(|f| {
            (
                f.analysis.to_string(),
                format!("{:?}:{}:{}", f.severity, f.function, f.message),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn verdicts_survive_reprinting(
        selectors in vec(0usize..10_000, 1..6),
        slots in vec(0usize..10_000, 1..6),
    ) {
        let edits: Vec<(usize, usize)> = selectors
            .iter()
            .copied()
            .zip(slots.iter().copied())
            .collect();
        let program = mutate(SEED, &edits);
        let Ok(findings) = analyze_source(&program) else {
            // Unparseable programs are the compiler's problem, not ours.
            return Ok(());
        };
        let ast = parse("<prop>", &program).expect("analyze_source parsed it");
        let reprinted = print_unit(&ast);
        let refindings = analyze_source(&reprinted)
            .expect("a reprint of a parseable program must parse");
        assert_eq!(
            key_set(&findings),
            key_set(&refindings),
            "finding set changed under reprint:\n--- original ---\n{program}\n--- reprint ---\n{reprinted}"
        );
        assert_eq!(
            ub_keys(&findings),
            ub_keys(&refindings),
            "UB key set changed under reprint:\n{program}"
        );
        // And the reprint is, by construction, a no-op mutant.
        assert_eq!(alpha_equivalent(&program, &reprinted), Some(true));
    }
}
