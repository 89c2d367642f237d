//! # metamut-fuzzing
//!
//! The fuzzing layer of the reproduction: μCFuzz ([`mucfuzz`], Algorithm 1
//! of the paper), the long-term macro fuzzer ([`macro_fuzzer`], §3.4), the
//! four baseline fuzzers the evaluation compares against ([`aflpp`],
//! [`csmith`], [`yarpgen`], [`grayc`]), the embedded seed [`corpus`], and
//! the [`campaign`] runner that records the metrics behind Figures 7–9 and
//! Tables 4–5.
//!
//! ```
//! use metamut_fuzzing::{corpus, mucfuzz::MuCFuzz, campaign};
//! use metamut_simcomp::{Compiler, CompileOptions, Profile};
//! use std::sync::Arc;
//!
//! let mut fuzzer = MuCFuzz::new(
//!     "uCFuzz.s",
//!     Arc::new(metamut_mutators::supervised_registry()),
//!     corpus::seed_corpus().iter().map(|s| s.to_string()),
//! );
//! let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
//! let cfg = campaign::CampaignConfig {
//!     iterations: 25,
//!     seed: 7,
//!     sample_every: 5,
//!     ..Default::default()
//! };
//! let report = campaign::run_campaign(&mut fuzzer, &compiler, &cfg);
//! assert!(report.final_coverage > 0);
//! ```
//!
//! The multi-threaded engine shards the seed corpus across workers:
//!
//! ```
//! use metamut_fuzzing::{corpus, mucfuzz::MuCFuzz, parallel, CampaignConfig};
//! use metamut_simcomp::{Compiler, CompileOptions, Profile};
//! use std::sync::Arc;
//!
//! let seeds: Vec<String> = corpus::seed_corpus().iter().map(|s| s.to_string()).collect();
//! let registry = Arc::new(metamut_mutators::supervised_registry());
//! let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
//! let cfg = CampaignConfig { iterations: 25, seed: 7, workers: 2, ..Default::default() };
//! let report = parallel::run_parallel_campaign(
//!     &seeds,
//!     |_w, shard| MuCFuzz::new("uCFuzz.s", registry.clone(), shard),
//!     &compiler,
//!     &cfg,
//! );
//! assert_eq!(report.mutants.total, 25);
//! ```

#![warn(missing_docs)]

pub mod aflpp;
pub mod campaign;
pub mod corpus;
pub mod csmith;
pub mod generator;
pub mod grayc;
pub mod macro_fuzzer;
pub mod mucfuzz;
pub mod parallel;
pub mod resume;
pub mod yarpgen;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CorpusEntry, DedupStats};
pub use generator::{PoolSnapshot, TestGenerator};
pub use macro_fuzzer::{run_field_experiment, FieldReport, MacroConfig};
pub use parallel::{resolve_workers, run_parallel_campaign, run_parallel_campaign_with};
pub use resume::{
    CampaignCheckpoint, CheckpointDelta, StepProgress, SteppedCampaign, CHECKPOINT_VERSION,
};

use std::sync::Arc;

/// Builds all six evaluated fuzzers over the given seeds, in the paper's
/// presentation order: μCFuzz.s, μCFuzz.u, AFL++, GrayC, Csmith, YARPGen.
pub fn all_fuzzers(seeds: &[String]) -> Vec<Box<dyn TestGenerator>> {
    vec![
        Box::new(mucfuzz::MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seeds.iter().cloned(),
        )),
        Box::new(mucfuzz::MuCFuzz::new(
            "uCFuzz.u",
            Arc::new(metamut_mutators::unsupervised_registry()),
            seeds.iter().cloned(),
        )),
        Box::new(aflpp::AflPlusPlus::new(seeds.iter().cloned())),
        Box::new(grayc::GrayCLike::new(seeds.iter().cloned())),
        Box::new(csmith::CsmithLike::new()),
        Box::new(yarpgen::YarpGenLike::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_fuzzers_in_order() {
        let seeds: Vec<String> = corpus::seed_corpus()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let fuzzers = all_fuzzers(&seeds);
        let names: Vec<&str> = fuzzers.iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            vec!["uCFuzz.s", "uCFuzz.u", "AFL++", "GrayC", "Csmith", "YARPGen"]
        );
    }
}
