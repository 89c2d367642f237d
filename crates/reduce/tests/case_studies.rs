//! The ISSUE 3 acceptance gate: reducing the four reconstructed case-study
//! crashes must preserve each crash signature exactly and shrink every
//! witness to at most 25% of its original byte size.

use metamut_reduce::fixtures::case_studies;
use metamut_reduce::{reduce, ReduceConfig, ReductionOracle};
use metamut_simcomp::Compiler;

#[test]
fn case_studies_reduce_to_a_quarter_with_signatures_preserved() {
    for cs in case_studies() {
        let compiler = Compiler::new(cs.profile, cs.options.clone());
        let original_crash = compiler
            .compile(cs.source)
            .outcome
            .crash()
            .unwrap_or_else(|| panic!("{}: fixture does not crash", cs.bug_id))
            .clone();
        assert_eq!(original_crash.bug_id, cs.bug_id);

        let oracle = ReductionOracle::for_witness(cs.profile, cs.options.clone(), cs.source)
            .expect("fixture crashes");
        assert_eq!(oracle.target_signature(), original_crash.signature());
        let result = reduce(&oracle, cs.source, &ReduceConfig::default());

        // Signature preserved exactly: the reduced witness crashes with the
        // same top-two frames under the same profile and flags.
        let reduced_crash = compiler
            .compile(&result.reduced)
            .outcome
            .crash()
            .unwrap_or_else(|| panic!("{}: reduced witness no longer crashes", cs.bug_id))
            .clone();
        assert_eq!(
            reduced_crash.signature(),
            original_crash.signature(),
            "{}: signature drifted during reduction",
            cs.bug_id
        );
        assert_eq!(reduced_crash.bug_id, cs.bug_id);

        // Size gate: at most 25% of the original bytes.
        assert!(
            result.ratio() <= 0.25,
            "{}: reduced to {} of {} bytes (ratio {:.2}, want <= 0.25)\n--- reduced ---\n{}",
            cs.bug_id,
            result.reduced_bytes,
            result.original_bytes,
            result.ratio(),
            result.reduced
        );
        assert!(result.oracle_calls > 0);
    }
}
