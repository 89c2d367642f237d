//! Pins what `Compiler::compile` observes on inputs that exercise every
//! exit of the front end: lex errors, a parse error, the nesting limit, a
//! raw-byte crash, and the four case-study witnesses. For each input and
//! each of gcc-sim -O2 and clang-sim -O3 it pins the outcome class and a
//! hash of the covered bits. Any change to how the front end lexes,
//! parses or records coverage that moves one of these is a behaviour
//! change.

use metamut_lang::chash::Sip128;
use metamut_lang::parser::MAX_NESTING;
use metamut_reduce::fixtures::case_studies;
use metamut_simcomp::{CompileOptions, Compiler, CoverageMap, Outcome, Profile};

/// `(input, [gcc -O2, clang -O3])`, each `(class, covered bits, hash)`.
type Pin = (&'static str, [(&'static str, usize, u64); 2]);

const PINS: [Pin; 10] = [
    (
        "unterminated string",
        [
            ("rejected", 9, 0x0901_5b7d_d220_5b0c),
            ("rejected", 9, 0x0901_5b7d_d220_5b0c),
        ],
    ),
    (
        "unterminated comment",
        [
            ("rejected", 9, 0xd716_8098_d14a_12c0),
            ("rejected", 9, 0xd716_8098_d14a_12c0),
        ],
    ),
    (
        "stray @",
        [
            ("rejected", 9, 0x8464_5e80_1071_9ca2),
            ("rejected", 9, 0x8464_5e80_1071_9ca2),
        ],
    ),
    (
        "parse error",
        [
            ("rejected", 15, 0xffdd_9fc4_432d_efe2),
            ("rejected", 15, 0xffdd_9fc4_432d_efe2),
        ],
    ),
    (
        "one level past MAX_NESTING",
        [
            ("rejected", 19, 0x8a33_a9b8_fb2f_33e0),
            ("rejected", 19, 0x8a33_a9b8_fb2f_33e0),
        ],
    ),
    (
        "50-paren storm",
        [
            ("gcc-front-paren-stack", 14, 0xb0f3_c129_1205_888f),
            ("clang-front-paren-stack", 14, 0xb0f3_c129_1205_888f),
        ],
    ),
    (
        "gcc-111820-vectorizer-hang",
        [
            ("success", 145, 0x2308_42e9_41fc_3b85),
            ("success", 145, 0xcdd2_34f7_0a1e_cfc3),
        ],
    ),
    (
        "gcc-111819-fold-offsetof",
        [
            ("gcc-111819-fold-offsetof", 117, 0x94b7_7593_635e_4b9a),
            ("success", 150, 0xb426_c0bb_8a80_9e70),
        ],
    ),
    (
        "clang-63762-label-codegen",
        [
            ("success", 135, 0x0301_01a0_7d44_6e45),
            ("clang-63762-label-codegen", 135, 0x0301_01a0_7d44_6e45),
        ],
    ),
    (
        "clang-69213-scalar-brace",
        [
            ("rejected", 72, 0xdd63_64ee_1a5c_dd0e),
            ("clang-69213-scalar-brace", 70, 0x1874_f0bd_dc04_0451),
        ],
    ),
];

/// A sum of `n` terms: each `+` of the left-deep fold nests one level,
/// and no paren or brace comes near a planted raw-byte bug.
fn sum(n: usize) -> String {
    format!("int f(void) {{ return {}; }}", vec!["1"; n].join(" + "))
}

fn inputs() -> Vec<(&'static str, String)> {
    let past_limit = (1..=MAX_NESTING as usize + 2)
        .map(sum)
        .find(|src| metamut_lang::parse("deep.c", src).is_err())
        .expect("a sum deeper than the limit fails to parse");
    let mut inputs = vec![
        (
            "unterminated string",
            "int main(void) { char *s = \"abc; return 0; }".to_string(),
        ),
        ("unterminated comment", "int x; /* never closed".to_string()),
        ("stray @", "int x = 1 @ 2;".to_string()),
        ("parse error", "int f( { return 0; }".to_string()),
        ("one level past MAX_NESTING", past_limit),
        ("50-paren storm", format!("int x = {}1;", "(".repeat(50))),
    ];
    inputs.extend(
        case_studies()
            .into_iter()
            .map(|cs| (cs.bug_id, cs.source.to_string())),
    );
    inputs
}

fn class(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Success { .. } => "success",
        Outcome::Rejected { .. } => "rejected",
        Outcome::Crash(c) => c.bug_id,
    }
}

fn bits_hash(cov: &CoverageMap) -> u64 {
    let mut h = Sip128::default();
    for (word, bits) in cov.to_sparse_words() {
        h.write_u64(u64::from(word));
        h.write_u64(bits);
    }
    h.finish128() as u64
}

#[test]
fn front_end_observations_are_pinned() {
    let compilers = [
        Compiler::new(Profile::Gcc, CompileOptions::o2()),
        Compiler::new(Profile::Clang, CompileOptions::o3()),
    ];
    let inputs = inputs();
    assert_eq!(inputs.len(), PINS.len());
    for ((name, src), (pin_name, pin)) in inputs.iter().zip(PINS.iter()) {
        assert_eq!(name, pin_name);
        let row: Vec<(&str, usize, u64)> = compilers
            .iter()
            .map(|c| {
                let r = c.compile(src);
                (
                    class(&r.outcome),
                    r.coverage.count(),
                    bits_hash(&r.coverage),
                )
            })
            .collect();
        assert_eq!(row.as_slice(), pin.as_slice(), "{name}");
    }
}
