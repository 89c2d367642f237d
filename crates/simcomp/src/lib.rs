//! # metamut-simcomp
//!
//! The instrumented compiler under test: a four-stage pipeline (front end →
//! IR generation → optimizer → back end) over the `metamut-lang` C subset,
//! with AFL-style branch-coverage instrumentation ([`coverage`]) and a
//! seeded [`bugs`] oracle that plants assertion failures, segfaults and
//! hangs at realistic pipeline depths.
//!
//! Two build profiles exist — a GCC-like and a Clang-like compiler — with
//! distinct planted-bug sets, mirroring the paper's two fuzzing targets.
//!
//! ```
//! use metamut_simcomp::{Compiler, CompileOptions, Profile, Outcome};
//!
//! let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
//! let result = gcc.compile("int main(void) { return 0; }");
//! assert!(matches!(result.outcome, Outcome::Success { .. }));
//! assert!(result.coverage.count() > 0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bugs;
pub mod coverage;
pub mod dedup;
pub mod features;
pub mod ir;
pub mod lower;
pub mod passes;
mod query;

pub use bugs::{CrashInfo, CrashKind, Profile};
pub use coverage::{AtomicCoverage, CoverageMap, Stage};
pub use dedup::{Claim, DedupCache, Verdict};
/// Re-exported only because the standalone `exp_perf` benchmark imports
/// `metamut_simcomp::{QueryCache, QueryDb}`; it goes with the
/// [`QueryCache`] shim. Workspace crates use `metamut_analyze::QueryDb`.
pub use metamut_analyze::QueryDb;
pub use passes::OptFlags;
pub use query::QueryCache;

use coverage::{feature_hash, feature_hash_display, feature_hash_str};
use metamut_lang::fxhash::FxHashSet;
use metamut_lang::sema::SemaResult;
use metamut_lang::Ast;

/// Command-line-equivalent options for one compilation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// `-O` level (0–3).
    pub opt_level: u8,
    /// Extra optimization flags.
    pub flags: OptFlags,
}

impl CompileOptions {
    /// `-O0`
    pub fn o0() -> Self {
        CompileOptions::default()
    }

    /// `-O2` (the paper's RQ1 configuration).
    pub fn o2() -> Self {
        CompileOptions {
            opt_level: 2,
            flags: OptFlags {
                strict_aliasing: true,
                ..Default::default()
            },
        }
    }

    /// `-O3`
    pub fn o3() -> Self {
        CompileOptions {
            opt_level: 3,
            flags: OptFlags {
                strict_aliasing: true,
                ..Default::default()
            },
        }
    }

    /// A human-readable flag string for reports.
    pub fn render(&self) -> String {
        let mut s = format!("-O{}", self.opt_level);
        if self.flags.no_tree_vrp {
            s.push_str(" -fno-tree-vrp");
        }
        if self.flags.unroll_loops {
            s.push_str(" -funroll-loops");
        }
        if self.flags.strict_aliasing {
            s.push_str(" -fstrict-aliasing");
        }
        s
    }
}

/// The result classification of one compiler invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Compilation succeeded.
    Success {
        /// Number of emitted virtual instructions.
        asm_len: usize,
        /// Spills inserted by register allocation.
        spills: usize,
    },
    /// The input was rejected by the front end (it "does not compile").
    Rejected {
        /// Number of diagnostics.
        diagnostics: usize,
        /// The first error message.
        first_error: String,
    },
    /// The compiler itself crashed or hung: a bug was triggered.
    Crash(CrashInfo),
}

impl Outcome {
    /// Whether the input compiled cleanly.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success { .. })
    }

    /// A front-end rejection carrying the diagnostics' count and first
    /// error message.
    fn rejected(diags: &metamut_lang::Diagnostics) -> Self {
        Outcome::Rejected {
            diagnostics: diags.len(),
            first_error: diags
                .first_error()
                .map(|d| d.message.clone())
                .unwrap_or_default(),
        }
    }

    /// The crash, if one occurred.
    pub fn crash(&self) -> Option<&CrashInfo> {
        match self {
            Outcome::Crash(c) => Some(c),
            _ => None,
        }
    }
}

/// The full result of one compilation: outcome plus coverage observations.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// What happened.
    pub outcome: Outcome,
    /// Branch coverage observed during this run.
    pub coverage: CoverageMap,
    /// The front end's parse of the input, whatever the outcome; `None`
    /// when the input does not lex or parse. Consumers that need the
    /// tree (the UB gate, the reduction oracle) take it from here instead
    /// of parsing the same text again.
    pub ast: Option<Ast>,
    /// The front end's semantic tables for `ast`; `None` when the input
    /// did not get through semantic analysis (rejected, or crashed in
    /// the front end before it ran). With `ast`, this is everything a
    /// mutator needs, so a campaign pools a program without running its
    /// front end again.
    pub sema: Option<SemaResult>,
}

/// An instrumented compiler instance.
#[derive(Debug, Clone)]
pub struct Compiler {
    profile: Profile,
    options: CompileOptions,
}

impl Compiler {
    /// Creates a compiler with the given profile and options.
    pub fn new(profile: Profile, options: CompileOptions) -> Self {
        Compiler { profile, options }
    }

    /// The build profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The active options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Replaces the options (used by the macro fuzzer's flag sampling).
    pub fn with_options(&self, options: CompileOptions) -> Compiler {
        Compiler {
            profile: self.profile,
            options,
        }
    }

    /// Compiles `src`, returning the outcome and the coverage it produced.
    ///
    /// Crashes abort the pipeline at the stage whose planted bug fired, so
    /// later stages contribute no coverage — mirroring a real compiler
    /// process dying mid-run.
    ///
    /// With telemetry enabled, each completed stage records its wall time
    /// into the `stage_ms{<Stage>}` histogram (and [`passes::optimize`]
    /// times every individual pass into `pass_ms{<pass>}`).
    pub fn compile(&self, src: &str) -> CompileResult {
        let mut cov = CoverageMap::new();
        let opts = &self.options;
        let t_front = stage_timer();

        // ---------------- Front end ----------------
        let raw = features::raw_features(src);
        // Raw lexical coverage: buckets of structural statistics.
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

        // One lex feeds both the token-pair coverage and the parser; a lex
        // error's diagnostics feed both coverage records below.
        let lexed = metamut_lang::lexer::lex(src);
        // Lexer-level coverage: every distinct adjacent token-kind pair is a
        // scanner/parser dispatch edge. Byte-level fuzzers live here.
        match &lexed {
            Ok(tokens) => {
                // The scanner has finitely many dispatch edges: bucket the
                // token-pair space so byte-level fuzzers saturate it, like
                // a real lexer's branch set.
                for w in tokens.windows(2) {
                    let pair = (w[0].kind as u64) * 96 + w[1].kind as u64;
                    cov.record(Stage::FrontEnd, feature_hash(&[20, pair % 331]));
                }
                cov.record(
                    Stage::FrontEnd,
                    feature_hash(&[22, (tokens.len() / 16).min(64) as u64]),
                );
            }
            Err(diags) => {
                if let Some(first) = diags.iter().next() {
                    cov.record(
                        Stage::FrontEnd,
                        feature_hash(&[25, feature_hash_str(&first.message) % 96]),
                    );
                    cov.record(
                        Stage::FrontEnd,
                        feature_hash(&[21, u64::from(first.span.lo) % 31]),
                    );
                }
            }
        }

        let parsed =
            lexed.and_then(|tokens| metamut_lang::parser::parse_tokens("<fuzz>", src, tokens));
        match &parsed {
            Ok(ast) => {
                // Token/AST shape coverage.
                for d in &ast.unit.decls {
                    cov.record(Stage::FrontEnd, feature_hash(&[6, decl_code(d)]));
                }
            }
            Err(diags) => {
                // Error-recovery paths are front-end coverage too: the
                // message spells out the expected/found token pair and the
                // position class, like a parser's distinct error productions.
                if let Some(first) = diags.iter().next() {
                    // Parse errors land on one of finitely many error
                    // productions (message class x coarse position class).
                    let msg_class = feature_hash_str(&first.message) % 160;
                    cov.record(Stage::FrontEnd, feature_hash(&[24, msg_class]));
                }
                cov.record(
                    Stage::FrontEnd,
                    feature_hash(&[7, diags.len().min(32) as u64]),
                );
            }
        }
        let ast_feats = parsed.as_ref().ok().map(features::ast_features);

        // Front-end bug check runs on whatever the front end saw, even when
        // the input is ultimately rejected (error recovery crashes!).
        let flags = &opts.flags;
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: ast_feats.as_ref(),
            opt: None,
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::FrontEnd, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
                ast: parsed.ok(),
                sema: None,
            };
        }

        let ast = match parsed {
            Ok(ast) => ast,
            Err(diags) => {
                return CompileResult {
                    outcome: Outcome::rejected(&diags),
                    coverage: cov,
                    ast: None,
                    sema: None,
                }
            }
        };

        let sema = match metamut_lang::analyze(&ast) {
            Ok(s) => {
                cov.record(
                    Stage::FrontEnd,
                    feature_hash(&[8, s.records.len().min(32) as u64]),
                );
                cov.record(
                    Stage::FrontEnd,
                    feature_hash(&[9, s.functions.len().min(64) as u64]),
                );
                // Type-diversity coverage: one feature per distinct type.
                let mut seen = FxHashSet::default();
                for qt in s.expr_types.values() {
                    if seen.insert(qt) {
                        cov.record(
                            Stage::FrontEnd,
                            feature_hash_display(format_args!("ty:{qt}")),
                        );
                    }
                }
                s
            }
            Err(diags) => {
                if let Some(first) = diags.first_error() {
                    cov.record(Stage::FrontEnd, feature_hash_str(&first.message));
                }
                cov.record(
                    Stage::FrontEnd,
                    feature_hash(&[10, diags.len().min(32) as u64]),
                );
                return CompileResult {
                    outcome: Outcome::rejected(&diags),
                    coverage: cov,
                    ast: Some(ast),
                    sema: None,
                };
            }
        };

        observe_stage(Stage::FrontEnd, t_front);

        // ---------------- IR generation ----------------
        let t_irgen = stage_timer();
        let lowered = lower::lower(&ast, &sema);
        observe_stage(Stage::IrGen, t_irgen);
        for f in &lowered.features {
            cov.record(Stage::IrGen, *f);
        }
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: ast_feats.as_ref(),
            opt: None,
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::IrGen, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
                ast: Some(ast),
                sema: Some(sema),
            };
        }

        // ---------------- Optimizer ----------------
        let t_opt = stage_timer();
        let mut module = lowered.module;
        let report = passes::optimize(&mut module, opts.opt_level, flags);
        observe_stage(Stage::Opt, t_opt);
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
            ast: ast_feats.as_ref(),
            opt: Some(&report),
            asm: None,
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::Opt, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
                ast: Some(ast),
                sema: Some(sema),
            };
        }

        // ---------------- Back end ----------------
        let t_back = stage_timer();
        let asm = backend::codegen(&module);
        observe_stage(Stage::BackEnd, t_back);
        for f in &asm.features {
            cov.record(Stage::BackEnd, *f);
        }
        let cx = bugs::BugCtx {
            raw: &raw,
            ast: ast_feats.as_ref(),
            opt: Some(&report),
            asm: Some((asm.spills, asm.peak_pressure)),
            opt_level: opts.opt_level,
            flags,
        };
        if let Some(crash) = bugs::check_stage(self.profile, Stage::BackEnd, &cx) {
            return CompileResult {
                outcome: Outcome::Crash(crash),
                coverage: cov,
                ast: Some(ast),
                sema: Some(sema),
            };
        }

        CompileResult {
            outcome: Outcome::Success {
                asm_len: asm.insts.len(),
                spills: asm.spills,
            },
            coverage: cov,
            ast: Some(ast),
            sema: Some(sema),
        }
    }
}

/// `Some(now)` when telemetry is on — the guard keeps `Instant::now` off
/// the hot path for untelemetered runs.
fn stage_timer() -> Option<std::time::Instant> {
    metamut_telemetry::handle()
        .enabled()
        .then(std::time::Instant::now)
}

/// Records a completed stage's wall time into `stage_ms{<Stage>}`.
fn observe_stage(stage: Stage, start: Option<std::time::Instant>) {
    if let Some(s) = start {
        metamut_telemetry::handle().observe(
            &metamut_telemetry::labeled("stage_ms", stage.label()),
            s.elapsed().as_secs_f64() * 1e3,
        );
    }
}

fn decl_code(d: &metamut_lang::ast::ExternalDecl) -> u64 {
    use metamut_lang::ast::ExternalDecl as E;
    match d {
        E::Function(f) => 100 + f.params.len().min(16) as u64,
        E::Vars(g) => 200 + g.vars.len().min(8) as u64,
        E::Record(_) => 300,
        E::Enum(_) => 301,
        E::Typedef(_) => 302,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_SRC: &str =
        "int add(int a, int b) { return a + b; } int main(void) { return add(1, 2); }";

    #[test]
    fn success_produces_coverage() {
        let c = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let r = c.compile(OK_SRC);
        assert!(r.outcome.is_success(), "{:?}", r.outcome);
        assert!(r.coverage.count_stage(Stage::FrontEnd) > 0);
        assert!(r.coverage.count_stage(Stage::IrGen) > 0);
        assert!(r.coverage.count_stage(Stage::Opt) > 0);
        assert!(r.coverage.count_stage(Stage::BackEnd) > 0);
    }

    #[test]
    fn rejection_covers_error_paths_only() {
        let c = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let r = c.compile("int main(void) { return undeclared_var; }");
        assert!(matches!(r.outcome, Outcome::Rejected { .. }));
        assert!(r.coverage.count_stage(Stage::FrontEnd) > 0);
        assert_eq!(r.coverage.count_stage(Stage::IrGen), 0);
        assert_eq!(r.coverage.count_stage(Stage::BackEnd), 0);
    }

    #[test]
    fn o0_skips_optimizer_features() {
        let c0 = Compiler::new(Profile::Gcc, CompileOptions::o0());
        let c2 = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let r0 = c0.compile(OK_SRC);
        let r2 = c2.compile(OK_SRC);
        assert!(r2.coverage.count_stage(Stage::Opt) > r0.coverage.count_stage(Stage::Opt));
    }

    #[test]
    fn gcc_111819_case_study() {
        // The paper's GCC #111819 mutant shape triggers the IR-gen bug with
        // default options.
        let src = r#"
long long combinedVar_1;
int *bar(void) {
    return (int *)&__imag__ (*(_Complex double *)((char *)&combinedVar_1 + 16));
}
"#;
        let gcc = Compiler::new(Profile::Gcc, CompileOptions::o0());
        let r = gcc.compile(src);
        let crash = r.outcome.crash().expect("GCC must crash");
        assert_eq!(crash.bug_id, "gcc-111819-fold-offsetof");
        assert_eq!(crash.stage, Stage::IrGen);
        // Clang compiles the same input fine.
        let clang = Compiler::new(Profile::Clang, CompileOptions::o0());
        let r2 = clang.compile(src);
        assert!(r2.outcome.crash().is_none(), "{:?}", r2.outcome);
    }

    #[test]
    fn gcc_111820_case_study() {
        let src = r#"
int r;
int r_0;
void f(void) {
    int n = 0;
    while (--n) {
        r_0 += r;
        r += r; r += r; r += r; r += r; r += r;
    }
}
"#;
        let opts = CompileOptions {
            opt_level: 3,
            flags: OptFlags {
                no_tree_vrp: true,
                ..Default::default()
            },
        };
        let gcc = Compiler::new(Profile::Gcc, opts.clone());
        let r = gcc.compile(src);
        let crash = r.outcome.crash().expect("vectorizer must hang");
        assert_eq!(crash.bug_id, "gcc-111820-vectorizer-hang");
        assert_eq!(crash.kind, CrashKind::Hang);
        // Without -fno-tree-vrp the loop is pruned and nothing fires.
        let gcc_default = Compiler::new(Profile::Gcc, CompileOptions::o3());
        assert!(gcc_default.compile(src).outcome.crash().is_none());
    }

    #[test]
    fn clang_63762_case_study() {
        // Ret2V applied to the jump-heavy seed: void function, calls, two
        // labels, no returns.
        let src = r#"
void helper(int *x, int *y) { }
void foo(int x[64], int y[64]) {
    helper(x, y);
gt:
    ;
lt:
    ;
}
int main(void) { return 0; }
"#;
        let clang = Compiler::new(Profile::Clang, CompileOptions::o2());
        let r = clang.compile(src);
        let crash = r.outcome.crash().expect("clang must crash");
        assert_eq!(crash.bug_id, "clang-63762-label-codegen");
        assert_eq!(crash.stage, Stage::BackEnd);
        let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
        assert!(gcc.compile(src).outcome.crash().is_none());
    }

    #[test]
    fn clang_69213_case_study() {
        let src = "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }";
        let clang = Compiler::new(Profile::Clang, CompileOptions::o0());
        let r = clang.compile(src);
        let crash = r.outcome.crash().expect("clang must crash");
        assert_eq!(crash.bug_id, "clang-69213-scalar-brace");
        // GCC rejects the program instead of crashing.
        let gcc = Compiler::new(Profile::Gcc, CompileOptions::o0());
        let rg = gcc.compile(src);
        assert!(matches!(rg.outcome, Outcome::Rejected { .. }));
    }

    #[test]
    fn strlen_case_study() {
        let src = r#"
char buffer[32];
int test4(void) { return sprintf(buffer, "%s", buffer); }
int main(void) { memset(buffer, 'A', 32); if (test4() != 3) abort(); return 0; }
"#;
        let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let r = gcc.compile(src);
        let crash = r.outcome.crash().expect("strlen opt must crash");
        assert_eq!(crash.bug_id, "gcc-strlen-verify-range");
        // At -O0 the optimization never runs.
        let gcc0 = Compiler::new(Profile::Gcc, CompileOptions::o0());
        assert!(gcc0.compile(src).outcome.is_success());
    }

    #[test]
    fn raw_byte_crash_for_byte_fuzzers() {
        let garbage = format!("int x = {}1;", "(".repeat(50));
        let clang = Compiler::new(Profile::Clang, CompileOptions::o0());
        let r = clang.compile(&garbage);
        assert!(r.outcome.crash().is_some(), "{:?}", r.outcome);
    }

    #[test]
    fn coverage_grows_with_diversity() {
        let c = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let mut acc = CoverageMap::new();
        let r1 = c.compile(OK_SRC);
        acc.merge(&r1.coverage);
        let after_first = acc.count();
        let r2 = c.compile(
            "double mul(double x) { return x * 3.5; } int main(void) { return (int)mul(2.0); }",
        );
        acc.merge(&r2.coverage);
        assert!(acc.count() > after_first);
        // Recompiling the same source adds nothing.
        let r3 = c.compile(OK_SRC);
        let before = acc.count();
        acc.merge(&r3.coverage);
        assert_eq!(acc.count(), before);
    }

    #[test]
    fn options_render() {
        assert_eq!(CompileOptions::o0().render(), "-O0");
        let o = CompileOptions {
            opt_level: 3,
            flags: OptFlags {
                no_tree_vrp: true,
                unroll_loops: true,
                strict_aliasing: false,
            },
        };
        assert_eq!(o.render(), "-O3 -fno-tree-vrp -funroll-loops");
    }
}
