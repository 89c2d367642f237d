//! Per-declaration pipeline artifacts and the stitch replay that turns
//! them back into a whole-program [`CompileResult`].
//!
//! The query engine ([`crate::query`]) memoizes the compiler stage by
//! stage and declaration by declaration. This module holds the pieces
//! that decomposition rests on: the optimizer split into a pre-inlining
//! and an inlining-and-later stage ([`opt_stage_a`] / [`opt_stage_b`]),
//! the per-declaration artifact records, and [`Compiler::stitch`], which
//! replays the cold pipeline's coverage recording and planted-bug checks
//! over those artifacts in the cold order. The result is bit-identical
//! (outcome, coverage set, crash signature) to a cold compile.

use crate::bugs;
use crate::coverage::{feature_hash, feature_hash_display, CoverageMap, Stage};
use crate::features::{self, AstFeatures};
use crate::ir::{Inst, IrFunction, Value};
use crate::passes::{self, LoopInfo, OptReport};
use crate::{CompileResult, Compiler, Outcome};
use metamut_lang::fxhash::FxHashMap;
use metamut_lang::token::Token;

// ----------------------------------------------------------------------
// Per-function optimizer stages
// ----------------------------------------------------------------------

/// Pass names in execution order for a given `-O` level, excluding the
/// trailing loop-analysis entry (whose count is the global loop total).
fn pass_names(opt_level: u8) -> &'static [&'static str] {
    match opt_level {
        0 => &[],
        1 => &["const-fold", "dce"],
        _ => &[
            "const-fold",
            "dce",
            "simplify-cfg",
            "inline",
            "strlen-opt",
            "const-fold-2",
            "dce-2",
        ],
    }
}

/// Index of the `inline` pass in [`pass_names`] at `-O2`+.
pub(crate) const INLINE_IDX: usize = 3;

/// Runs the pre-inlining passes on one function, pushing per-pass change
/// counts in [`pass_names`] order.
pub(crate) fn opt_stage_a(
    f: &mut IrFunction,
    opt_level: u8,
    report: &mut OptReport,
    counts: &mut Vec<usize>,
) {
    if opt_level == 0 {
        return;
    }
    counts.push(passes::const_fold_fn(f, report));
    counts.push(passes::dead_code_elim_fn(f, report));
    if opt_level >= 2 {
        counts.push(passes::simplify_cfg_fn(f, report));
    }
}

/// Runs the inlining-and-later passes on one function. `trivial` must be
/// the module-wide trivial-body map computed *between* the stages, exactly
/// as [`passes::optimize`] computes it between `simplify-cfg` and `inline`.
pub(crate) fn opt_stage_b(
    f: &mut IrFunction,
    trivial: &FxHashMap<String, (Vec<Inst>, Option<Value>)>,
    opt_level: u8,
    flags: &passes::OptFlags,
    report: &mut OptReport,
    counts: &mut Vec<usize>,
) {
    if opt_level < 2 {
        return;
    }
    counts.push(passes::inline_trivial_fn(f, trivial, report));
    counts.push(passes::strlen_reduce_fn(f, report));
    counts.push(passes::const_fold_fn(f, report));
    counts.push(passes::dead_code_elim_fn(f, report));
    passes::loop_analysis_fn(f, opt_level, flags, report);
}

// ----------------------------------------------------------------------
// Per-declaration artifacts
// ----------------------------------------------------------------------

/// Pipeline artifacts of one function definition.
#[derive(Debug, Clone)]
pub(crate) struct FnArtifacts {
    /// Optimizer coverage features this function contributed.
    pub(crate) opt_features: Vec<u64>,
    /// Per-pass change counts, in [`pass_names`] order.
    pub(crate) counts: Vec<usize>,
    /// Loops discovered in this function.
    pub(crate) loops: Vec<LoopInfo>,
    /// strlen-reduction observations from this function.
    pub(crate) strlen: Vec<(String, bool)>,
    /// Calls inlined away inside this function.
    pub(crate) inlined: usize,
    /// Back-end coverage features of this function's assembly.
    pub(crate) asm_features: Vec<u64>,
    /// Emitted instruction count.
    pub(crate) asm_len: usize,
    /// Spills inserted by register allocation.
    pub(crate) asm_spills: usize,
    /// Peak register pressure.
    pub(crate) asm_peak: usize,
}

/// Pipeline artifacts of one top-level declaration.
#[derive(Debug, Clone)]
pub(crate) struct DeclArtifacts {
    /// The front end's declaration-shape coverage code (tag 6).
    pub(crate) code6: u64,
    /// Type-diversity coverage features from this declaration's
    /// expression types.
    pub(crate) ty_feats: Vec<u64>,
    /// This declaration's [`AstFeatures`] partial.
    pub(crate) feats: AstFeatures,
    /// IR-generation coverage features from lowering this declaration.
    pub(crate) lower_features: Vec<u64>,
    /// Optimizer/back-end artifacts when the declaration is a function
    /// definition.
    pub(crate) func: Option<FnArtifacts>,
}

/// Rebuilds the whole-module [`OptReport`] from per-declaration artifacts:
/// per-pass counts sum, loops and strlen observations concatenate in
/// function order, and the loop-analysis entry carries the global total.
fn stitch_opt_report(arts: &[&DeclArtifacts], opt_level: u8) -> OptReport {
    let names = pass_names(opt_level);
    let mut report = OptReport::default();
    let mut sums = vec![0usize; names.len()];
    for a in arts {
        if let Some(fa) = &a.func {
            report.features.extend_from_slice(&fa.opt_features);
            for (i, c) in fa.counts.iter().enumerate() {
                sums[i] += c;
            }
            report.loops.extend(fa.loops.iter().cloned());
            report.strlen_reductions.extend(fa.strlen.iter().cloned());
            report.inlined += fa.inlined;
        }
    }
    report.pass_stats = names.iter().copied().zip(sums).collect();
    if opt_level >= 2 {
        report
            .pass_stats
            .push(("loop-analysis", report.loops.len()));
    }
    report
}

/// Whether two coverage maps record exactly the same branch set.
pub fn coverage_equal(a: &CoverageMap, b: &CoverageMap) -> bool {
    a.count() == b.count() && !a.would_grow(b) && !b.would_grow(a)
}

// ----------------------------------------------------------------------
// The stitch replay
// ----------------------------------------------------------------------

impl Compiler {
    /// Replays the cold pipeline's coverage recording and per-stage bug
    /// checks over stitched artifacts, in the cold order — including the
    /// early return (coverage truncation) when a planted bug fires.
    pub(crate) fn stitch(
        &self,
        mutant: &str,
        tokens: &[Token],
        tag8: u64,
        tag9: u64,
        arts: &[&DeclArtifacts],
    ) -> CompileResult {
        let opts = &self.options;
        let flags = &opts.flags;
        let mut cov = CoverageMap::new();

        // ---------------- Front end ----------------
        // Raw and lexical coverage depend on the mutant's exact text, so
        // they are always recomputed (they are also the cheap part).
        let raw = features::raw_features(mutant);
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[1, raw.max_paren_depth.min(64) as u64]),
        );
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[2, raw.max_brace_depth.min(64) as u64]),
        );
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[3, (raw.source_len / 64).min(128) as u64]),
        );
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[4, raw.max_ident_len.min(128) as u64]),
        );
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[5, raw.max_string_len.min(512) as u64 / 8]),
        );
        for w in tokens.windows(2) {
            let pair = (w[0].kind as u64) * 96 + w[1].kind as u64;
            cov.record(Stage::FrontEnd, feature_hash(&[20, pair % 331]));
        }
        cov.record(
            Stage::FrontEnd,
            feature_hash(&[22, (tokens.len() / 16).min(64) as u64]),
        );
        for a in arts {
            cov.record(Stage::FrontEnd, feature_hash(&[6, a.code6]));
        }
        let partials: Vec<AstFeatures> = arts.iter().map(|a| a.feats.clone()).collect();
        let merged = features::merge_decl_features(&partials);

        let cx = bugs::BugCtx {
            raw: &raw,
            ast: Some(&merged),
            opt: None,
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::FrontEnd, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
            };
        }

        cov.record(Stage::FrontEnd, feature_hash(&[8, tag8]));
        cov.record(Stage::FrontEnd, feature_hash(&[9, tag9]));
        for a in arts {
            for t in &a.ty_feats {
                cov.record(Stage::FrontEnd, *t);
            }
        }

        // ---------------- IR generation ----------------
        for a in arts {
            for f in &a.lower_features {
                cov.record(Stage::IrGen, *f);
            }
        }
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: Some(&merged),
            opt: None,
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::IrGen, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
            };
        }

        // ---------------- Optimizer ----------------
        let report = stitch_opt_report(arts, opts.opt_level);
        for f in &report.features {
            cov.record(Stage::Opt, *f);
        }
        for (name, n) in &report.pass_stats {
            cov.record(
                Stage::Opt,
                feature_hash_display(format_args!("{name}:{}", n.min(&16))),
            );
        }
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: Some(&merged),
            opt: Some(&report),
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::Opt, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
            };
        }

        // ---------------- Back end ----------------
        let funcs: Vec<&FnArtifacts> = arts.iter().filter_map(|a| a.func.as_ref()).collect();
        let asm_len: usize = funcs.iter().map(|f| f.asm_len).sum();
        let spills: usize = funcs.iter().map(|f| f.asm_spills).sum();
        let peak = funcs.iter().map(|f| f.asm_peak).max().unwrap_or(0);
        for fa in &funcs {
            for f in &fa.asm_features {
                cov.record(Stage::BackEnd, *f);
            }
        }
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: Some(&merged),
            opt: Some(&report),
            asm: Some((spills, peak)),
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::BackEnd, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
            };
        }

        CompileResult {
            outcome: Outcome::Success { asm_len, spills },
            coverage: cov,
        }
    }
}
