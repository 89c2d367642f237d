//! Property: the crash signature (top-two-frame rule) is invariant
//! under whitespace- and comment-preserving rewrites of the witness.
//!
//! This is what makes signature-keyed triage and reduction sound: two
//! mutants that differ only in layout or comment residue must bucket to
//! the same bug, and the reducer's oracle must not be distracted by the
//! formatting churn its own span edits leave behind.
//!
//! The inserted comments draw from a deliberately inert alphabet — no
//! alphanumerics, digits, parens, braces, or quotes — because the raw
//! byte-level feature scanner (`features::raw_features`) does not strip
//! comments; text that *changed* identifier runs or nesting depths could
//! legitimately flip a planted front-end bug on or off.

use metamut_simcomp::{CompileOptions, Compiler, OptFlags, Profile};
use proptest::collection::vec;
use proptest::proptest;

/// The four §5 case-study trigger cores, each a standalone crasher.
fn crashing_witnesses() -> Vec<(&'static str, Profile, CompileOptions)> {
    vec![
        (
            "int r;\nint r_0;\nvoid f(void) {\n    int n = 0;\n    while (--n) {\n        r_0 += r;\n        r += r; r += r; r += r; r += r; r += r;\n    }\n}\n",
            Profile::Gcc,
            CompileOptions {
                opt_level: 3,
                flags: OptFlags {
                    no_tree_vrp: true,
                    ..Default::default()
                },
            },
        ),
        (
            "long long combinedVar_1;\nint *bar(void) {\n    return (int *)&__imag__ (*(_Complex double *)((char *)&combinedVar_1 + 16));\n}\n",
            Profile::Gcc,
            CompileOptions::o0(),
        ),
        (
            "void helper(int *x, int *y) { }\nvoid foo(int x[64], int y[64]) {\n    helper(x, y);\ngt:\n    ;\nlt:\n    ;\n}\nint main(void) { return 0; }\n",
            Profile::Clang,
            CompileOptions::o2(),
        ),
        (
            "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }\n",
            Profile::Clang,
            CompileOptions::o0(),
        ),
    ]
}

/// Applies comment/whitespace edits: each `(slot, text)` pair appends a
/// line comment, inserts a block-comment line, or inserts blank padding,
/// always at a line boundary so the token stream is untouched.
fn rewrite(witness: &str, edits: &[(usize, String)]) -> String {
    let mut lines: Vec<String> = witness.lines().map(|l| l.to_string()).collect();
    for (slot, text) in edits {
        let line = slot % lines.len();
        match (slot / lines.len()) % 3 {
            0 => {
                lines[line].push_str("  // ");
                lines[line].push_str(text);
            }
            1 => lines.insert(line, format!("/* {text} */")),
            2 => lines.insert(line, format!("   \t{}", " ".repeat(text.len()))),
            _ => unreachable!(),
        }
    }
    lines.join("\n") + "\n"
}

proptest! {
    #[test]
    fn signature_invariant_under_comment_and_whitespace_rewrites(
        slots in vec(0usize..10_000, 1..10),
        texts in vec("[-!~+=. ]{1,12}", 1..10),
    ) {
        let edits: Vec<(usize, String)> = slots
            .iter()
            .copied()
            .zip(texts.iter().cloned())
            .collect();
        for (witness, profile, options) in crashing_witnesses() {
            let compiler = Compiler::new(profile, options);
            let original = compiler
                .compile(witness)
                .outcome
                .crash()
                .expect("witness core must crash")
                .clone();

            let rewritten = rewrite(witness, &edits);
            let after = compiler
                .compile(&rewritten)
                .outcome
                .crash()
                .unwrap_or_else(|| {
                    panic!("rewrite stopped the crash:\n{rewritten}")
                })
                .clone();
            assert_eq!(
                after.signature(),
                original.signature(),
                "signature drifted under a layout-only rewrite:\n{rewritten}"
            );
            assert_eq!(after.bug_id, original.bug_id);
        }
    }
}
