//! The seeded bug oracle: the catalog of planted compiler defects, their
//! triggering predicates, and crash-signature bookkeeping.
//!
//! Each planted bug models a real class of miscompilation-adjacent defect at
//! a realistic pipeline depth, including reconstructions of the paper's
//! four case studies (GCC #111820, GCC #111819, Clang #63762, Clang #69213).
//! A crash is identified by its top two stack frames, exactly like the
//! paper's unique-crash rule (§5.1).

use crate::coverage::Stage;
use crate::features::{AstFeatures, RawFeatures};
use crate::passes::{OptFlags, OptReport, TripCount};
use serde::Serialize;

/// What the planted defect does when triggered (Table 6's "consequences").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CrashKind {
    /// An internal consistency check fails (85% of the paper's bugs).
    AssertionFailure,
    /// A wild memory access (7%).
    SegmentationFault,
    /// The compiler never terminates (8%).
    Hang,
}

impl CrashKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::AssertionFailure => "Assertion Failure",
            CrashKind::SegmentationFault => "Segmentation Fault",
            CrashKind::Hang => "Hang",
        }
    }
}

/// Which simulated compiler a bug lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Profile {
    /// The GCC-like build.
    Gcc,
    /// The Clang-like build.
    Clang,
}

impl Profile {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Gcc => "gcc-sim",
            Profile::Clang => "clang-sim",
        }
    }
}

/// A crash produced by a triggered bug.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct CrashInfo {
    /// Stable identifier of the planted bug.
    pub bug_id: &'static str,
    /// Consequence class.
    pub kind: CrashKind,
    /// The pipeline stage (compiler component) that crashed.
    pub stage: Stage,
    /// Top two stack frames — the unique-crash signature.
    pub frames: [&'static str; 2],
}

impl CrashInfo {
    /// The unique-crash signature (top two frames), as the paper dedups.
    pub fn signature(&self) -> u64 {
        crate::coverage::feature_hash_str(&format!("{}::{}", self.frames[0], self.frames[1]))
    }
}

impl Serialize for Stage {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.label())
    }
}

/// Everything a bug predicate may look at.
#[derive(Debug, Clone, Copy)]
pub struct BugCtx<'a> {
    /// Raw-text features (always available).
    pub raw: &'a RawFeatures,
    /// AST features (once parsing succeeded).
    pub ast: Option<&'a AstFeatures>,
    /// Optimizer report (once the middle end ran).
    pub opt: Option<&'a OptReport>,
    /// Back-end stats: (spill count, peak pressure).
    pub asm: Option<(usize, usize)>,
    /// `-O` level.
    pub opt_level: u8,
    /// Extra flags.
    pub flags: &'a OptFlags,
}

/// A planted bug.
#[derive(Debug, Clone, Copy)]
pub struct Bug {
    /// Stable id (also the key used in reports).
    pub id: &'static str,
    /// Which simulated compiler carries it.
    pub profile: Profile,
    /// Pipeline stage where it fires.
    pub stage: Stage,
    /// Consequence when it fires.
    pub kind: CrashKind,
    /// Crash signature frames.
    pub frames: [&'static str; 2],
    /// The trigger predicate.
    pub predicate: fn(&BugCtx<'_>) -> bool,
}

impl Bug {
    /// The crash this bug produces.
    pub fn crash(&self) -> CrashInfo {
        CrashInfo {
            bug_id: self.id,
            kind: self.kind,
            stage: self.stage,
            frames: self.frames,
        }
    }
}

macro_rules! bug {
    ($id:literal, $profile:ident, $stage:ident, $kind:ident, [$f0:literal, $f1:literal], $pred:expr) => {
        Bug {
            id: $id,
            profile: Profile::$profile,
            stage: Stage::$stage,
            kind: CrashKind::$kind,
            frames: [$f0, $f1],
            predicate: $pred,
        }
    };
}

/// The full catalog of planted bugs across both profiles.
pub fn catalog() -> &'static [Bug] {
    &CATALOG
}

static CATALOG: [Bug; 41] = [
    // ------------------------------------------------------------------
    // Case-study reconstructions
    // ------------------------------------------------------------------
    // GCC #111820: the loop vectorizer hangs on a loop counting down from
    // zero when value-range pruning is disabled (-O3 -fno-tree-vrp).
    bug!(
        "gcc-111820-vectorizer-hang",
        Gcc,
        Opt,
        Hang,
        ["vect_analyze_loop", "number_of_iterations_exit"],
        |cx| {
            cx.opt_level >= 3
                && cx.flags.no_tree_vrp
                && cx.opt.is_some_and(|o| {
                    o.loops.iter().any(|l| {
                        l.descending
                            && l.starts_at_zero
                            && l.trip == TripCount::Infinite
                            && l.vectorized
                    })
                })
        }
    ),
    // GCC #111819: fold_offsetof assertion on `&__imag (cast)`.
    bug!(
        "gcc-111819-fold-offsetof",
        Gcc,
        IrGen,
        AssertionFailure,
        ["fold_offsetof", "build_unary_op"],
        |cx| cx.ast.is_some_and(|a| a.addr_of_imag_cast)
    ),
    // §5.2 strlen case: self-referential sprintf with the return-value
    // optimization active trips verify_range.
    bug!(
        "gcc-strlen-verify-range",
        Gcc,
        Opt,
        AssertionFailure,
        ["verify_range", "handle_printf_call"],
        |cx| {
            cx.opt_level >= 2
                && cx
                    .opt
                    .is_some_and(|o| o.strlen_reductions.iter().any(|(_, s)| *s))
        }
    ),
    // Clang #63762: a void function whose body is a call followed only by
    // labels, with every return removed (the Ret2V mutant of Figure 5).
    bug!(
        "clang-63762-label-codegen",
        Clang,
        BackEnd,
        AssertionFailure,
        [
            "clang::CodeGen::EmitBranchThroughCleanup",
            "llvm::BasicBlock::eraseFromParent"
        ],
        |cx| {
            cx.ast.is_some_and(|a| {
                a.functions
                    .iter()
                    .any(|f| f.void_ret && f.labels >= 2 && f.returns == 0 && f.calls >= 1)
            })
        }
    ),
    // Clang #69213: scalar compound literal with an empty brace member.
    bug!(
        "clang-69213-scalar-brace",
        Clang,
        FrontEnd,
        SegmentationFault,
        [
            "InitListChecker::CheckScalarType",
            "clang::Sema::ActOnInitList"
        ],
        |cx| cx.ast.is_some_and(|a| a.compound_lit_empty_brace)
    ),
    // ------------------------------------------------------------------
    // Front-end bugs (several reachable from raw bytes, for byte fuzzers)
    // ------------------------------------------------------------------
    bug!(
        "gcc-front-paren-stack",
        Gcc,
        FrontEnd,
        SegmentationFault,
        ["c_parser_expression", "c_parser_postfix_expression"],
        |cx| cx.raw.max_paren_depth > 26
    ),
    bug!(
        "clang-front-paren-stack",
        Clang,
        FrontEnd,
        SegmentationFault,
        [
            "clang::Parser::ParseParenExpression",
            "clang::Parser::ParseCastExpression"
        ],
        |cx| cx.raw.max_paren_depth > 20
    ),
    bug!(
        "gcc-front-ident-overflow",
        Gcc,
        FrontEnd,
        AssertionFailure,
        ["ht_lookup_with_hash", "cpp_interpret_string"],
        |cx| cx.raw.max_ident_len > 48
    ),
    bug!(
        "clang-front-string-overflow",
        Clang,
        FrontEnd,
        AssertionFailure,
        [
            "clang::StringLiteralParser::init",
            "clang::Lexer::LexStringLiteral"
        ],
        |cx| cx.raw.max_string_len > 64
    ),
    bug!(
        "clang-front-literal-width",
        Clang,
        FrontEnd,
        AssertionFailure,
        [
            "llvm::APInt::APInt",
            "clang::NumericLiteralParser::GetIntegerValue"
        ],
        |cx| cx.raw.max_digit_run > 19
    ),
    bug!(
        "gcc-front-brace-depth",
        Gcc,
        FrontEnd,
        SegmentationFault,
        [
            "c_parser_compound_statement",
            "c_parser_statement_after_labels"
        ],
        |cx| cx.raw.max_brace_depth > 14
    ),
    bug!(
        "gcc-front-switch-flood",
        Gcc,
        FrontEnd,
        AssertionFailure,
        ["c_do_switch_warnings", "splay_tree_insert"],
        |cx| cx.ast.is_some_and(|a| a.switch_max_cases > 12)
    ),
    bug!(
        "clang-front-decl-flood",
        Clang,
        FrontEnd,
        Hang,
        ["clang::DeclContext::addDecl", "clang::ASTContext::Allocate"],
        |cx| cx.ast.is_some_and(|a| a.decl_count > 48)
    ),
    bug!(
        "clang-front-bitfield-width",
        Clang,
        FrontEnd,
        AssertionFailure,
        [
            "clang::Sema::VerifyBitField",
            "clang::ASTContext::getTypeSize"
        ],
        |cx| cx.ast.is_some_and(|a| a.max_bitfield_width >= 31)
    ),
    // ------------------------------------------------------------------
    // IR-generation bugs
    // ------------------------------------------------------------------
    bug!(
        "gcc-irgen-ternary-nest",
        Gcc,
        IrGen,
        AssertionFailure,
        ["gimplify_cond_expr", "gimplify_expr"],
        |cx| cx.ast.is_some_and(|a| a.ternary_depth >= 5)
    ),
    bug!(
        "clang-irgen-ternary-nest",
        Clang,
        IrGen,
        AssertionFailure,
        [
            "clang::CodeGen::EmitConditionalOperator",
            "clang::CodeGen::EmitScalarExpr"
        ],
        |cx| cx.ast.is_some_and(|a| a.ternary_depth >= 6)
    ),
    bug!(
        "gcc-irgen-goto-web",
        Gcc,
        IrGen,
        AssertionFailure,
        ["make_edges", "find_taken_edge"],
        |cx| cx
            .ast
            .is_some_and(|a| a.functions.iter().any(|f| f.gotos >= 3 && f.labels >= 3))
    ),
    bug!(
        "clang-irgen-comma-arg",
        Clang,
        IrGen,
        AssertionFailure,
        [
            "clang::CodeGen::EmitCallArgs",
            "clang::CodeGen::EmitAnyExpr"
        ],
        |cx| cx
            .ast
            .is_some_and(|a| a.comma_in_call_arg && a.call_max_args >= 2)
    ),
    bug!(
        "clang-irgen-volatile-compound",
        Clang,
        IrGen,
        AssertionFailure,
        [
            "clang::CodeGen::EmitCompoundAssignLValue",
            "clang::CodeGen::EmitLoadOfLValue"
        ],
        |cx| cx.ast.is_some_and(|a| a.volatile_compound_assign)
    ),
    bug!(
        "gcc-irgen-imag-pair",
        Gcc,
        IrGen,
        SegmentationFault,
        ["gimplify_modify_expr", "get_inner_reference"],
        |cx| cx.ast.is_some_and(|a| a.imag_real_uses >= 2)
    ),
    bug!(
        "clang-irgen-init-depth",
        Clang,
        IrGen,
        AssertionFailure,
        ["InitListExpr::setInit", "clang::CodeGen::EmitAggExpr"],
        |cx| cx.ast.is_some_and(|a| a.init_list_depth >= 3)
    ),
    bug!(
        "gcc-irgen-arg-flood",
        Gcc,
        IrGen,
        AssertionFailure,
        ["gimplify_call_expr", "get_formal_tmp_var"],
        |cx| cx.ast.is_some_and(|a| a.call_max_args >= 7)
    ),
    // ------------------------------------------------------------------
    // Optimizer bugs
    // ------------------------------------------------------------------
    bug!(
        "gcc-opt-divzero-fold",
        Gcc,
        Opt,
        SegmentationFault,
        ["fold_binary_loc", "const_binop"],
        |cx| cx.opt_level >= 1 && cx.ast.is_some_and(|a| a.const_div_by_zero)
    ),
    bug!(
        "clang-opt-unroll-infinite",
        Clang,
        Opt,
        Hang,
        ["llvm::UnrollLoop", "llvm::LoopInfo::getLoopFor"],
        |cx| {
            cx.opt_level >= 3
                && cx.flags.unroll_loops
                && cx
                    .opt
                    .is_some_and(|o| o.loops.iter().any(|l| l.trip == TripCount::Infinite))
        }
    ),
    bug!(
        "gcc-opt-inline-cascade",
        Gcc,
        Opt,
        AssertionFailure,
        ["inline_small_functions", "estimate_edge_growth"],
        |cx| cx.opt_level >= 2 && cx.opt.is_some_and(|o| o.inlined >= 4)
    ),
    bug!(
        "clang-opt-empty-loop",
        Clang,
        Opt,
        Hang,
        ["llvm::LoopDeletion", "llvm::SCEV::isKnownPredicate"],
        |cx| {
            cx.opt_level >= 2
                && cx
                    .opt
                    .is_some_and(|o| o.loops.iter().any(|l| l.stores == 0 && l.body_blocks <= 3))
        }
    ),
    bug!(
        "clang-opt-dce-volatile",
        Clang,
        Opt,
        AssertionFailure,
        ["llvm::isInstructionTriviallyDead", "llvm::Value::use_empty"],
        |cx| cx.opt_level >= 1 && cx.ast.is_some_and(|a| a.volatile_decls >= 3)
    ),
    // ------------------------------------------------------------------
    // Back-end bugs (the rarest: need valid, optimizer-surviving code)
    // ------------------------------------------------------------------
    bug!(
        "gcc-back-spill-storm",
        Gcc,
        BackEnd,
        AssertionFailure,
        ["lra_assign", "assign_by_spills"],
        |cx| cx.asm.is_some_and(|(spills, _)| spills > 10)
    ),
    bug!(
        "gcc-back-jumptable",
        Gcc,
        BackEnd,
        SegmentationFault,
        ["expand_case", "emit_jump_table_data"],
        |cx| cx.asm.is_some() && cx.ast.is_some_and(|a| a.switch_max_cases >= 10)
    ),
    bug!(
        "clang-back-param-regs",
        Clang,
        BackEnd,
        AssertionFailure,
        [
            "llvm::CCState::AnalyzeFormalArguments",
            "llvm::TargetLowering::LowerCall"
        ],
        |cx| cx.asm.is_some() && cx.ast.is_some_and(|a| a.param_max >= 6)
    ),
    bug!(
        "clang-back-pressure",
        Clang,
        BackEnd,
        Hang,
        [
            "llvm::RegAllocGreedy::selectOrSplit",
            "llvm::LiveIntervals::computeLiveInRegUnits"
        ],
        |cx| cx
            .asm
            .is_some_and(|(_, pressure)| pressure >= crate::backend::NUM_REGS + 4)
    ),
    // ------------------------------------------------------------------
    // Deep-pipeline bugs reachable by stacked semantic mutations
    // ------------------------------------------------------------------
    bug!(
        "gcc-opt-neg-chain",
        Gcc,
        Opt,
        AssertionFailure,
        ["fold_unary_loc", "negate_expr_p"],
        |cx| cx.opt_level >= 1 && cx.ast.is_some_and(|a| a.max_unary_chain >= 4)
    ),
    bug!(
        "gcc-irgen-deep-expr",
        Gcc,
        IrGen,
        SegmentationFault,
        ["gimplify_expr", "mostly_copy_tree_r"],
        |cx| cx.ast.is_some_and(|a| a.max_expr_depth >= 16)
    ),
    bug!(
        "gcc-back-return-web",
        Gcc,
        BackEnd,
        AssertionFailure,
        [
            "thread_prologue_and_epilogue_insns",
            "emit_return_into_block"
        ],
        |cx| cx.asm.is_some()
            && cx
                .ast
                .is_some_and(|a| a.functions.iter().any(|f| f.returns >= 8))
    ),
    bug!(
        "gcc-opt-dead-branch",
        Gcc,
        Opt,
        AssertionFailure,
        ["remove_unreachable_nodes", "cgraph_edge::remove"],
        |cx| cx.opt_level >= 2 && cx.ast.is_some_and(|a| a.dead_if0_count >= 2)
    ),
    bug!(
        "clang-opt-identity-chain",
        Clang,
        Opt,
        AssertionFailure,
        [
            "llvm::InstCombiner::visitAdd",
            "llvm::SimplifyAssociativeOrCommutative"
        ],
        |cx| cx.opt_level >= 1 && cx.ast.is_some_and(|a| a.identity_arith_count >= 3)
    ),
    bug!(
        "clang-irgen-comma-chain",
        Clang,
        IrGen,
        AssertionFailure,
        [
            "clang::CodeGen::EmitIgnoredExpr",
            "clang::CodeGen::EmitAnyExprToTemp"
        ],
        |cx| cx.ast.is_some_and(|a| a.comma_expr_count >= 3)
    ),
    bug!(
        "clang-back-goto-dense",
        Clang,
        BackEnd,
        SegmentationFault,
        [
            "llvm::MachineBasicBlock::updateTerminator",
            "llvm::BranchFolder::OptimizeBlock"
        ],
        |cx| {
            cx.asm.is_some()
                && cx
                    .ast
                    .is_some_and(|a| a.functions.iter().any(|f| f.labels >= 3 && f.gotos >= 1))
        }
    ),
    bug!(
        "clang-front-typedef-chain",
        Clang,
        FrontEnd,
        AssertionFailure,
        [
            "clang::Sema::ActOnTypedefDeclarator",
            "clang::ASTContext::getTypedefType"
        ],
        |cx| cx.ast.is_some_and(|a| a.typedef_count >= 3)
    ),
    bug!(
        "gcc-front-static-flood",
        Gcc,
        FrontEnd,
        AssertionFailure,
        ["c_parser_declaration_or_fndef", "pushdecl"],
        |cx| cx.ast.is_some_and(|a| a.static_count >= 6)
    ),
    bug!(
        "clang-opt-loop-nest",
        Clang,
        Opt,
        AssertionFailure,
        ["llvm::LoopSimplify", "llvm::formDedicatedExitBlocks"],
        |cx| cx.opt_level >= 2 && cx.ast.is_some_and(|a| a.max_loop_depth >= 3)
    ),
];

/// Checks all bugs of `profile` whose stage is `stage`; returns the first
/// triggered crash (compilation aborts at the first internal error, like a
/// real compiler run).
pub fn check_stage(profile: Profile, stage: Stage, cx: &BugCtx<'_>) -> Option<CrashInfo> {
    CATALOG
        .iter()
        .filter(|b| b.profile == profile && b.stage == stage)
        .find(|b| (b.predicate)(cx))
        .map(|b| b.crash())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_ctx<'a>(raw: &'a RawFeatures, flags: &'a OptFlags) -> BugCtx<'a> {
        BugCtx {
            raw,
            ast: None,
            opt: None,
            asm: None,
            opt_level: 2,
            flags,
        }
    }

    #[test]
    fn catalog_is_well_formed() {
        let mut ids = std::collections::HashSet::new();
        let mut sigs = std::collections::HashSet::new();
        for b in catalog() {
            assert!(ids.insert(b.id), "duplicate id {}", b.id);
            assert!(
                sigs.insert(b.crash().signature()),
                "duplicate signature {}",
                b.id
            );
        }
        // Both profiles, all stages populated.
        for p in [Profile::Gcc, Profile::Clang] {
            for s in Stage::ALL {
                assert!(
                    catalog().iter().any(|b| b.profile == p && b.stage == s),
                    "no bug for {p:?}/{s:?}"
                );
            }
        }
        // Consequence mix: assertions dominate (Table 6: 85%).
        let assertions = catalog()
            .iter()
            .filter(|b| b.kind == CrashKind::AssertionFailure)
            .count();
        assert!(assertions * 2 > catalog().len());
    }

    #[test]
    fn raw_bug_triggers() {
        let mut raw = RawFeatures::default();
        let flags = OptFlags::default();
        assert!(check_stage(Profile::Gcc, Stage::FrontEnd, &empty_ctx(&raw, &flags)).is_none());
        raw.max_paren_depth = 30;
        let crash = check_stage(Profile::Gcc, Stage::FrontEnd, &empty_ctx(&raw, &flags)).unwrap();
        assert_eq!(crash.bug_id, "gcc-front-paren-stack");
        assert_eq!(crash.kind, CrashKind::SegmentationFault);
        // Clang's threshold is lower.
        raw.max_paren_depth = 24;
        assert!(check_stage(Profile::Gcc, Stage::FrontEnd, &empty_ctx(&raw, &flags)).is_none());
        assert!(check_stage(Profile::Clang, Stage::FrontEnd, &empty_ctx(&raw, &flags)).is_some());
    }

    #[test]
    fn profile_separation() {
        // An AST with the Clang #69213 shape fires only on Clang.
        let raw = RawFeatures::default();
        let ast = AstFeatures {
            compound_lit_empty_brace: true,
            ..Default::default()
        };
        let flags = OptFlags::default();
        let cx = BugCtx {
            raw: &raw,
            ast: Some(&ast),
            opt: None,
            asm: None,
            opt_level: 0,
            flags: &flags,
        };
        assert!(check_stage(Profile::Clang, Stage::FrontEnd, &cx).is_some());
        assert!(check_stage(Profile::Gcc, Stage::FrontEnd, &cx).is_none());
    }

    #[test]
    fn signatures_dedupe() {
        let a = CATALOG[0].crash();
        let b = CATALOG[0].crash();
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), CATALOG[1].crash().signature());
    }
}
