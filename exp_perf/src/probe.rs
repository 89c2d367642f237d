//! The cold-stage probe: the compiler's public stage functions called in
//! `Compiler::compile`'s order, each timed on its own, with the planted-bug
//! check after each stage as the compiler runs it. `Compiler::compile` has
//! no per-stage clock a caller can read, so this is how a traced run splits
//! cold-compile time into lex, parse, features, sema, lower, opt and
//! codegen, and measures IR and assembly size.
//!
//! Byte-level front-end statistics (`features::raw_features`) are timed with
//! the lexer: both scan the raw source.

use crate::stats::ratio;
use crate::Metric;
use metamut_simcomp::bugs::{check_stage, BugCtx};
use metamut_simcomp::{backend, features, lower, passes, Compiler, Stage};
use std::hint::black_box;
use std::time::Instant;

/// How a compile ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Accepted,
    Rejected,
    Crash(Stage),
}

const STAGES: [&str; 7] = [
    "lex", "parse", "features", "sema", "lower", "opt", "codegen",
];
const LEX: usize = 0;
const PARSE: usize = 1;
const FEATURES: usize = 2;
const SEMA: usize = 3;
const LOWER: usize = 4;
const OPT: usize = 5;
const CODEGEN: usize = 6;

/// Stage times and sizes summed over the probed programs.
#[derive(Debug, Default)]
pub struct Probe {
    ns: [u64; 7],
    runs: [u64; 7],
    insts_lowered: u64,
    insts_optimized: u64,
    asm_insts: u64,
}

impl Probe {
    fn timed<T>(&mut self, stage: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = black_box(f());
        self.ns[stage] += start.elapsed().as_nanos() as u64;
        self.runs[stage] += 1;
        value
    }

    /// Runs `src` through the stage chain under `compiler`'s profile and
    /// options and returns how the compile ended.
    pub fn run(&mut self, compiler: &Compiler, src: &str) -> Class {
        let options = compiler.options();
        let profile = compiler.profile();
        let crash = |stage: Stage, cx: &BugCtx<'_>| check_stage(profile, stage, cx);

        let raw = self.timed(LEX, || {
            let _ = black_box(metamut_lang::lexer::lex(src));
            features::raw_features(src)
        });
        let ast = self
            .timed(PARSE, || metamut_lang::parse("<probe>", src))
            .ok();
        let ast_features = self.timed(FEATURES, || ast.as_ref().map(features::ast_features));
        let mut cx = BugCtx {
            raw: &raw,
            ast: ast_features.as_ref(),
            opt: None,
            asm: None,
            opt_level: options.opt_level,
            flags: &options.flags,
        };
        if let Some(c) = crash(Stage::FrontEnd, &cx) {
            return Class::Crash(c.stage);
        }
        let Some(ast) = ast else {
            return Class::Rejected;
        };
        let Ok(sema) = self.timed(SEMA, || metamut_lang::analyze(&ast)) else {
            return Class::Rejected;
        };
        let lowered = self.timed(LOWER, || lower::lower(&ast, &sema));
        self.insts_lowered += lowered.module.inst_count() as u64;
        if let Some(c) = crash(Stage::IrGen, &cx) {
            return Class::Crash(c.stage);
        }
        let mut module = lowered.module;
        let report = self.timed(OPT, || {
            passes::optimize(&mut module, options.opt_level, &options.flags)
        });
        self.insts_optimized += module.inst_count() as u64;
        cx.opt = Some(&report);
        if let Some(c) = crash(Stage::Opt, &cx) {
            return Class::Crash(c.stage);
        }
        let asm = self.timed(CODEGEN, || backend::codegen(&module));
        self.asm_insts += asm.insts.len() as u64;
        cx.asm = Some((asm.spills, asm.peak_pressure));
        if let Some(c) = crash(Stage::BackEnd, &cx) {
            return Class::Crash(c.stage);
        }
        Class::Accepted
    }

    /// `stage.<name>_us`: mean microseconds per program that reached the
    /// stage; `ir.*` and `asm.insts`: mean instructions per program that
    /// reached lowering, optimization and codegen.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = STAGES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                Metric::new(
                    format!("stage.{name}_us"),
                    ratio(self.ns[i] as f64 / 1e3, self.runs[i] as f64),
                    "us",
                )
            })
            .collect();
        out.push(Metric::new(
            "ir.insts_lowered",
            ratio(self.insts_lowered as f64, self.runs[LOWER] as f64),
            "count",
        ));
        out.push(Metric::new(
            "ir.insts_optimized",
            ratio(self.insts_optimized as f64, self.runs[OPT] as f64),
            "count",
        ));
        out.push(Metric::new(
            "asm.insts",
            ratio(self.asm_insts as f64, self.runs[CODEGEN] as f64),
            "count",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_fuzzing::corpus::seed_corpus;
    use metamut_fuzzing::csmith::CsmithLike;
    use metamut_fuzzing::mucfuzz::MuCFuzz;
    use metamut_fuzzing::TestGenerator;
    use metamut_muast::MutRng;
    use metamut_reduce::fixtures::case_studies;
    use metamut_simcomp::{CompileOptions, Outcome, Profile};
    use std::sync::Arc;

    fn class_of(outcome: &Outcome) -> Class {
        match outcome {
            Outcome::Success { .. } => Class::Accepted,
            Outcome::Rejected { .. } => Class::Rejected,
            Outcome::Crash(c) => Class::Crash(c.stage),
        }
    }

    fn agrees(compiler: &Compiler, src: &str, probe: &mut Probe) -> Class {
        let class = probe.run(compiler, src);
        assert_eq!(
            class,
            class_of(&compiler.compile(src).outcome),
            "probe and Compiler::compile disagree on:\n{src}"
        );
        class
    }

    #[test]
    fn probe_outcome_class_matches_compile() {
        let compilers = [
            Compiler::new(Profile::Gcc, CompileOptions::o2()),
            Compiler::new(Profile::Clang, CompileOptions::o3()),
        ];
        let mut probe = Probe::default();
        let mut seen = std::collections::HashSet::new();
        for compiler in &compilers {
            for src in seed_corpus() {
                seen.insert(agrees(compiler, src, &mut probe));
            }
        }
        // A seeded sample: mutants of the corpus and generated programs.
        let mut rng = MutRng::new(7);
        let mut mutants = MuCFuzz::new(
            "uCFuzz",
            Arc::new(metamut_mutators::full_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        );
        let mut generated = CsmithLike::new();
        for _ in 0..300 {
            let src = mutants.next_candidate(&mut rng).program;
            seen.insert(agrees(&compilers[0], &src, &mut probe));
        }
        for _ in 0..60 {
            let src = generated.next_candidate(&mut rng).program;
            seen.insert(agrees(&compilers[1], &src, &mut probe));
        }
        // Every crash stage the case studies reach.
        for case in case_studies() {
            let compiler = Compiler::new(case.profile, case.options.clone());
            seen.insert(agrees(&compiler, case.source, &mut probe));
        }
        assert!(seen.contains(&Class::Accepted) && seen.contains(&Class::Rejected));
        assert!(seen.iter().filter(|c| matches!(c, Class::Crash(_))).count() >= 3);
        let m = probe.metrics();
        assert!(m.iter().all(|x| x.value > 0.0), "{m:?}");
    }
}
