//! Content-addressed incremental compilation: the pipeline as shared,
//! input-addressed memos.
//!
//! PR 7 keyed the per-declaration pipeline by *slot-relative* indices
//! (`(seed slot, declaration k)`), so a declaration appearing
//! byte-identically in two seeds — or two tenants of the serve daemon —
//! was compiled twice. This revision re-keys every deterministic stage by
//! *content*: the memo key is a collision-resistant 128-bit hash of
//! exactly the inputs the stage can observe, so the key IS the input and
//! the memo can never go stale. No red-green validation, no dependency
//! tracking, no input flipping — [`QueryDb::memo_once`] is the whole
//! engine for these stages:
//!
//! ```text
//! parse    H(chunk token hash, typedefs ∩ idents)         mini-parse
//! sema     H(parse key, env-before fingerprint128)        check_decl
//! feat     H(parse key, volatile-before ∩ idents)         AstFeatures partial
//! lower    H(sema key, fn/enum-const facts ∩ idents)      per-decl IR
//! opt-pre  H(lower key, opt level)                        pre-inline passes
//! opt      H(opt-pre key, options, trivial map ∩ idents)  inline-and-later
//! codegen  H(opt key)                                     per-fn assembly
//! ```
//!
//! Each digest is *restricted to the chunk's identifier spellings*: a
//! stage observes the surrounding program only through name lookups
//! (typedef membership, function signatures, enum constants, the
//! volatile set, trivial-inline bodies), so context changes that don't
//! touch a declaration's names leave its keys — and memos — intact.
//! Record layouts are reachable only through types complete at the
//! declaration's own boundary, which the sema-stage environment
//! fingerprint covers. The compile profile is deliberately absent: every
//! stage artifact is profile-independent (profile-specific bug checks
//! live in the stitch replay), so Gcc and Clang share memos too.
//!
//! A compile is a *chain walk*: split the program into chunks, then walk
//! the declarations in order, deriving each boundary's environment
//! (snapshot, fingerprint, typedef set, volatile set, trivial map) from
//! the previous declaration's memos. Seeds sharing a prefix of identical
//! declarations share identical environment chains, so their memos
//! coincide — across mutants of one seed, across seeds of a campaign,
//! across the reducer's candidate stream, across tenants of the serve
//! daemon's shared [`QueryDb`], and even across compile profiles. Each
//! memo records the *origin* (slot or program) that computed it; a hit
//! from a different origin is a cross-seed hit (`query_cross_seed_hits`
//! telemetry, the `xs` status-line field).
//!
//! Seed slots survive only as a thin overlay: the seed's own result (for
//! hash-identical mutants), its interned chunk texts, the validated
//! chunk count that lets count-preserving mutants skip the whole-program
//! re-parse, and the seed's own captured walk ([`SeedChain`]) — for a
//! mutant chunk byte-identical to the seed's under provably identical
//! chain state, the walk reuses the seed's memo handles directly, paying
//! neither key derivation nor database traffic. Everything semantic
//! lives in the shared content memos; the captured walk only shortcuts
//! fetches that would return the very same artifacts.
//! Because a content key needs no pre-built slot, [`QueryCache::compile_program`]
//! serves slotless one-shot compiles (`metamut compile`, the macro
//! fuzzer, every reduction-oracle candidate) from the same memo pool,
//! with full per-program validation (whole-program parse,
//! chunk/declaration alignment, merged-features self-check).
//!
//! Correctness is held to the PR 7 bar: slot builds must stitch
//! bit-identically to the seed's cold compile, dirty declarations must
//! mini-parse to exactly one declaration and re-check cleanly, slotless
//! compiles re-validate the whole decomposition per program, and an
//! every-Nth cold cross-check stays available via
//! [`QueryCache::with_cross_check`].

use crate::coverage::feature_hash_display;
use crate::ir::{Inst, IrFunction, Value};
use crate::passes::{LoopInfo, OptReport};
use crate::stitch::{
    coverage_equal, opt_stage_a, opt_stage_b, DeclArtifacts, FnArtifacts, INLINE_IDX,
};
use crate::{features, lower, passes, CompileResult, Compiler};
use metamut_lang::chash::{hash128, Sip128};
use metamut_lang::declsplit::ident_spellings;
use metamut_lang::fxhash::{FxHashMap, FxHashSet};
use metamut_lang::token::Token;
use metamut_lang::{check_decl, Ast, DeclChunk, SemaResult, SemaSnapshot, TextInterner};
use metamut_query::{DynValue, KindId, QueryDb};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Guard-bail label for telemetry (`query_fallbacks{...}`).
const FRONT: &str = "front-end";

/// Estimated shared content memos per live seed slot, used to derive the
/// database-wide memo cap from the slot cap (roughly seven stages times a
/// campaign seed's declaration count).
const MEMOS_PER_SLOT: usize = 128;

// ----------------------------------------------------------------------
// Stage artifacts
// ----------------------------------------------------------------------
//
// Every artifact carries the `origin` (slot id or slotless program id)
// that first computed it; a memo hit whose origin differs from the
// current compile's is a cross-seed hit.

/// `parse`: the chunk mini-parsed under the typedef set visible at its
/// boundary. `ast` is `None` when the chunk fails to parse or parses to
/// more than one declaration.
struct CParse {
    ast: Option<Ast>,
    /// Front-end declaration-shape coverage code (tag 6).
    code6: u64,
    origin: u64,
}

/// `sema`: the declaration checked against its boundary snapshot. The
/// memo stores everything the chain walk needs to cross the boundary in
/// O(1): the after-snapshot, its 128-bit fingerprint, and the typedef
/// set the next chunk's parse key is built from.
struct CSema {
    ok: Option<CSemaOk>,
    origin: u64,
}

struct CSemaOk {
    sema: SemaResult,
    after: Arc<SemaSnapshot>,
    after_fp: u128,
    after_typedefs: Arc<FxHashSet<String>>,
    /// Type-diversity coverage features of this declaration.
    ty_feats: Vec<u64>,
}

/// `feat`: the declaration's [`features::AstFeatures`] partial plus the
/// volatile declarator names it *adds* (sorted). The after-set is
/// `before ∪ exports` — reconstructed by the walk, never stored, so the
/// memo stays valid under any before-set that agrees on the chunk's
/// identifiers.
struct CFeat {
    features: features::AstFeatures,
    exports: Vec<String>,
    origin: u64,
}

/// `lower`: per-declaration IR generation against the final environment
/// facts reachable through the chunk's identifiers.
struct CLower {
    features: Vec<u64>,
    func: Option<IrFunction>,
    origin: u64,
}

/// `opt-pre`: the pre-inlining optimizer stage on one function, plus the
/// function's own trivial-inline body (if any) for the module-wide join.
struct COptA {
    func: Option<IrFunction>,
    counts: Vec<usize>,
    features: Vec<u64>,
    #[allow(clippy::type_complexity)]
    trivial: Option<(String, (Vec<Inst>, Option<Value>))>,
    origin: u64,
}

/// `opt`: the full optimizer output for one function.
struct COpt {
    func: Option<IrFunction>,
    counts: Vec<usize>,
    features: Vec<u64>,
    loops: Vec<LoopInfo>,
    strlen: Vec<(String, bool)>,
    inlined: usize,
    origin: u64,
}

/// `codegen`: per-function back-end artifacts.
struct CCodegen {
    features: Vec<u64>,
    len: usize,
    spills: usize,
    peak: usize,
    origin: u64,
}

// ----------------------------------------------------------------------
// Keys
// ----------------------------------------------------------------------

/// Derives a stage key: a domain-separation tag plus the parent key.
fn stage_key(tag: &str, parent: u128) -> Sip128 {
    let mut h = Sip128::default();
    h.write_str(tag);
    h.write_u128(parent);
    h
}

/// Digest of `set`-membership over the chunk's sorted identifiers —
/// the typedef and volatile-set restriction digests.
fn membership_digest(h: &mut Sip128, idents: &[&str], set: &FxHashSet<String>) {
    for id in idents {
        if set.contains(*id) {
            h.write_str(id);
        }
    }
}

// ----------------------------------------------------------------------
// Slots
// ----------------------------------------------------------------------

/// The thin per-seed overlay over the shared content memos: everything
/// that is genuinely *per seed* rather than per declaration.
pub(crate) struct SlotState {
    /// Origin id for cross-seed accounting.
    id: u64,
    /// Content hash of the full seed text (hash-compare fast path for
    /// seed-identical mutants).
    seed_hash: u128,
    /// Validated chunk count: mutants preserving it skip the slotless
    /// path's whole-program re-parse.
    chunk_count: usize,
    /// The seed's chunk texts, interned process-wide — seeds of one
    /// family share most declarations, so their slots share this
    /// storage. The chain walk
    /// byte-compares mutant chunks against these to find reusable ones.
    texts: Vec<Arc<str>>,
    /// The seed's own walk, captured at slot build: memo handles plus
    /// chain state per chunk.
    chain: SeedChain,
    seed_result: CompileResult,
    cold_ms: f64,
    last_used: AtomicU64,
}

/// The seed's validated chain walk, captured at slot build. A mutant
/// chunk byte-identical to the seed's — under chain state the guards
/// below prove identical — reuses these handles directly: no key
/// derivation, no database traffic, no artifact clone. This is the hot
/// path of a campaign (one edited declaration, the rest untouched); the
/// shared content memos remain the slow-but-shared path for everything
/// else.
struct SeedChain {
    chunks: Vec<SeedChunk>,
    /// Environment fingerprint after the last declaration: when a
    /// mutant's walk ends on the same fingerprint, the final
    /// environment — which the lower and opt keys observe — is the
    /// seed's, so back-half handles are reusable too.
    finals_fp: u128,
}

/// One chunk of the captured seed walk. Every handle here is exactly
/// what the content-memo fetch would return for the same keys.
struct SeedChunk {
    /// Environment fingerprint at this chunk's boundary; a mutant walk
    /// re-syncs onto the seed chain whenever its running fingerprint
    /// matches (body-only edits re-sync at the very next declaration).
    env_fp_before: u128,
    parse_key: u128,
    sema_key: u128,
    parse: Arc<CParse>,
    sema: Arc<CSema>,
    feat: Arc<CFeat>,
    lower: Arc<CLower>,
    opt_a: Option<(u128, Arc<COptA>)>,
    /// The fully assembled per-declaration artifacts, ready for the
    /// stitch replay.
    art: DeclArtifacts,
}

/// A cached seed entry: ready for incremental compiles, or a remembered
/// failure (the seed's decomposition did not validate).
enum SlotHandle {
    Dud(AtomicU64),
    Ready(Arc<SlotState>),
}

/// The registered stage kinds (names feed the `query_hits{...}` /
/// `query_recomputes{...}` telemetry families).
#[derive(Clone, Copy)]
struct Kinds {
    parse: KindId,
    sema: KindId,
    feat: KindId,
    lower: KindId,
    opt_a: KindId,
    opt: KindId,
    codegen: KindId,
}

/// Per-database compiler query state, shared by every [`QueryCache`]
/// layered over one [`QueryDb`] (campaign workers, the reduction oracle,
/// every daemon tenant): the stage kinds, the slot table, the chunk-text
/// interner, and the cache counters.
pub(crate) struct SimcompQueries {
    kinds: Kinds,
    by_key: Mutex<FxHashMap<u128, SlotHandle>>,
    interner: TextInterner,
    initial_snapshot: Arc<SemaSnapshot>,
    initial_fp: u128,
    empty_names: Arc<FxHashSet<String>>,
    origin_seq: AtomicU64,
    use_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    mismatches: AtomicU64,
    compiles: AtomicU64,
    slot_evictions: AtomicU64,
    cross_seed: AtomicU64,
}

impl SimcompQueries {
    fn new(db: &QueryDb) -> SimcompQueries {
        let initial = SemaSnapshot::initial();
        let initial_fp = initial.fingerprint128();
        SimcompQueries {
            kinds: Kinds {
                parse: db.register_kind("parse"),
                sema: db.register_kind("sema"),
                feat: db.register_kind("features"),
                lower: db.register_kind("lower"),
                opt_a: db.register_kind("opt-pre"),
                opt: db.register_kind("opt"),
                codegen: db.register_kind("codegen"),
            },
            by_key: Mutex::new(FxHashMap::default()),
            interner: TextInterner::new(),
            initial_snapshot: Arc::new(initial),
            initial_fp,
            empty_names: Arc::new(FxHashSet::default()),
            origin_seq: AtomicU64::new(0),
            use_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            slot_evictions: AtomicU64::new(0),
            cross_seed: AtomicU64::new(0),
        }
    }

    /// Fetches (or computes) one stage memo and attributes cross-seed
    /// hits: a hit whose stored origin differs from this compile's was
    /// produced by another seed, tenant, or slotless program.
    #[allow(clippy::too_many_arguments)]
    fn fetch<T: Send + Sync + 'static>(
        &self,
        db: &QueryDb,
        kind: KindId,
        label: &'static str,
        key: u128,
        origin: u64,
        origin_of: impl Fn(&T) -> u64,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        let (v, hit) = db.memo_once(kind, key, || Arc::new(compute()) as DynValue);
        let Ok(art) = v.downcast::<T>() else {
            unreachable!("stage artifact type clash")
        };
        if hit && origin_of(&art) != origin {
            self.cross_seed.fetch_add(1, Ordering::Relaxed);
            let tele = metamut_telemetry::handle();
            if tele.enabled() {
                tele.counter_add(
                    &metamut_telemetry::labeled("query_cross_seed_hits", label),
                    1,
                );
            }
        }
        art
    }
}

// ----------------------------------------------------------------------
// QueryCache
// ----------------------------------------------------------------------

/// The campaign-facing entry point of content-addressed incremental
/// compilation: a seed → slot overlay plus slotless one-shot compiles
/// over a shared [`QueryDb`].
///
/// Same `compile(compiler, seed, mutant)` contract and counters as its
/// slot-keyed predecessor, plus: memo hits flow across seeds, tenants
/// and profiles (the keys are content, not slot indices); *any* edit
/// kind stays on the engine (environment-changing edits recompute
/// downstream declarations instead of falling cold); declaration-count
/// changes take the slotless path; and
/// [`QueryCache::compile_program`] compiles programs with no seed at
/// all from the same memo pool.
///
/// Cloning the cache is cheap and shares everything — state lives on the
/// database, so independently constructed caches over the same `QueryDb`
/// also share slots and memos.
#[derive(Clone)]
pub struct QueryCache {
    db: Arc<QueryDb>,
    state: Arc<SimcompQueries>,
    cross_check_every: usize,
    /// Seed-slot cap (`usize::MAX` = unbounded).
    cap: usize,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("slots", &self.len())
            .field("db", &self.db)
            .finish()
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(Arc::new(QueryDb::new()))
    }
}

impl QueryCache {
    /// A cache over `db`, registering the compiler's stage kinds on first
    /// use of that database.
    pub fn new(db: Arc<QueryDb>) -> QueryCache {
        let state = {
            let db_ref: &QueryDb = &db;
            db.extension(|| SimcompQueries::new(db_ref))
        };
        QueryCache {
            db,
            state,
            cross_check_every: 0,
            cap: usize::MAX,
        }
    }

    /// Recompile every `every`-th fast-path result cold and compare
    /// bit-for-bit (`0` disables). A mismatch bumps
    /// [`QueryCache::mismatches`] (and the `query_mismatches` telemetry
    /// counter) and returns the cold result — correctness first.
    #[must_use]
    pub fn with_cross_check(mut self, every: usize) -> QueryCache {
        self.cross_check_every = every;
        self
    }

    /// Caps the cache at `cap` seed slots (`0` = unbounded). Retiring a
    /// slot drops its overlay; the shared content memos it referenced
    /// stay for other seeds, bounded separately by an LRU sweep sized at
    /// `cap ×` [`MEMOS_PER_SLOT`].
    #[must_use]
    pub fn with_capacity(mut self, cap: usize) -> QueryCache {
        self.cap = if cap == 0 { usize::MAX } else { cap };
        self
    }

    /// The shared database (for layering other components — e.g. the UB
    /// gate — onto the same memo store).
    pub fn db(&self) -> &Arc<QueryDb> {
        &self.db
    }

    fn stamp(&self) -> u64 {
        self.state.use_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Compiles `mutant` as an edit of `seed`, hashing the mutant here.
    /// Campaign callers that already hashed the mutant (for dedup) should
    /// use [`QueryCache::compile_hashed`] and hash once.
    pub fn compile(&self, compiler: &Compiler, seed: &str, mutant: &str) -> CompileResult {
        self.compile_hashed(compiler, seed, mutant, hash128(mutant.as_bytes()))
    }

    /// Compiles `mutant` as an edit of `seed`: through the shared content
    /// memos when the seed has a validated slot and the chain guards
    /// hold, cold otherwise. Bit-identical to [`Compiler::compile`]
    /// either way. `mutant_hash` must be `chash::hash128` of the mutant
    /// bytes — the campaign computes it once per candidate and threads it
    /// through both the dedup cache and this lookup.
    pub fn compile_hashed(
        &self,
        compiler: &Compiler,
        seed: &str,
        mutant: &str,
        mutant_hash: u128,
    ) -> CompileResult {
        let Some(slot) = self.slot(compiler, seed) else {
            self.state.misses.fetch_add(1, Ordering::Relaxed);
            return compiler.compile(mutant);
        };
        if mutant_hash == slot.seed_hash {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return slot.seed_result.clone();
        }
        let handle = metamut_telemetry::handle();
        let t0 = handle.enabled().then(std::time::Instant::now);
        let chained = match metamut_lang::split_source(mutant) {
            // A count-preserving mutant is anchored by the slot's
            // validated decomposition (unchanged chunks are
            // token-identical to validated ones; changed chunks must
            // mini-parse to exactly one declaration); anything else is a
            // structural edit and takes the fully validated slotless
            // walk. Both serve from the same memos.
            Some((tokens, chunks)) if chunks.len() == slot.chunk_count => self
                .chain_walk(
                    compiler,
                    mutant,
                    &tokens,
                    &chunks,
                    slot.id,
                    false,
                    Some(&slot),
                    false,
                )
                .map(|(result, _)| result),
            Some((tokens, chunks)) => {
                self.run_chain(compiler, mutant, &tokens, &chunks, slot.id, true)
            }
            None => Err(FRONT),
        };
        match chained {
            Ok(result) => {
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = t0 {
                    let spent = t.elapsed().as_secs_f64() * 1e3;
                    handle.observe("query_saved_ms", (slot.cold_ms - spent).max(0.0));
                }
                self.cross_checked(compiler, mutant, result)
            }
            Err(label) => {
                self.state.misses.fetch_add(1, Ordering::Relaxed);
                if handle.enabled() {
                    handle.counter_add(&metamut_telemetry::labeled("query_fallbacks", label), 1);
                }
                compiler.compile(mutant)
            }
        }
    }

    /// Compiles a program with no seed at all — `metamut compile`, the
    /// macro fuzzer, every reduction-oracle candidate. Content keys need
    /// no pre-built slot, so warm memos (from campaigns, other programs,
    /// or earlier invocations on the shared database) serve immediately; the result is bit-identical to
    /// [`Compiler::compile`] (cold fallback on any guard failure, same
    /// every-Nth cross-check as the seeded path).
    pub fn compile_program(&self, compiler: &Compiler, src: &str) -> CompileResult {
        // A stable per-content origin: recompiling the same program is
        // a self-hit, not a cross-seed hit. Bit 62 keeps the id range
        // disjoint from the sequential slot ids.
        let origin = (hash128(src.as_bytes()) as u64) | (1 << 62);
        let chained = match metamut_lang::split_source(src) {
            Some((tokens, chunks)) => self.run_chain(compiler, src, &tokens, &chunks, origin, true),
            None => Err(FRONT),
        };
        match chained {
            Ok(result) => {
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                self.cross_checked(compiler, src, result)
            }
            Err(label) => {
                self.state.misses.fetch_add(1, Ordering::Relaxed);
                let handle = metamut_telemetry::handle();
                if handle.enabled() {
                    handle.counter_add(&metamut_telemetry::labeled("query_fallbacks", label), 1);
                }
                compiler.compile(src)
            }
        }
    }

    /// Applies the every-Nth cold cross-check to a fast-path result.
    fn cross_checked(
        &self,
        compiler: &Compiler,
        src: &str,
        result: CompileResult,
    ) -> CompileResult {
        let n = self.state.compiles.fetch_add(1, Ordering::Relaxed);
        if self.cross_check_every > 0 && n.is_multiple_of(self.cross_check_every as u64) {
            let cold = compiler.compile(src);
            if result.outcome != cold.outcome || !coverage_equal(&result.coverage, &cold.coverage) {
                self.state.mismatches.fetch_add(1, Ordering::Relaxed);
                metamut_telemetry::handle().counter_add("query_mismatches", 1);
                return cold;
            }
        }
        result
    }

    /// The content-addressed chain walk: derives every stage of every
    /// declaration from the shared memos, then replays the cold
    /// pipeline's coverage/bug-check order over the artifacts.
    ///
    /// With `validate` set (slot builds, slotless compiles, structural
    /// mutants) the decomposition itself is re-proven per program:
    /// whole-program parse, chunk/declaration count and span alignment,
    /// and the merged per-declaration features must equal the
    /// whole-program features. Count-preserving mutants of a validated
    /// slot skip those checks — their unchanged chunks are
    /// token-identical to validated ones, and their changed chunks are
    /// still required to mini-parse to exactly one declaration and
    /// re-check cleanly (the PR 4/PR 7 composition guarantee).
    ///
    /// `Err` carries the stage label at which the walk bailed; the
    /// caller compiles cold.
    fn run_chain(
        &self,
        compiler: &Compiler,
        src: &str,
        tokens: &[Token],
        chunks: &[DeclChunk],
        origin: u64,
        validate: bool,
    ) -> Result<CompileResult, &'static str> {
        self.chain_walk(compiler, src, tokens, chunks, origin, validate, None, false)
            .map(|(result, _)| result)
    }

    /// The full walk. `anchor` (count-preserving mutants of a validated
    /// slot) enables seed-chain reuse: chunks byte-identical to the
    /// seed's, met under chain state the sync guards prove identical,
    /// take their handles from the captured [`SeedChain`] instead of the
    /// database. `capture` (slot builds) returns the walk itself for the
    /// slot to keep. Reuse is sound because each guard implies key
    /// equality: same text + same environment fingerprint ⇒ same parse
    /// and sema keys; same volatile exports along the way ⇒ same feat
    /// keys; same final fingerprint ⇒ same lower keys; same
    /// trivial-inline contributions ⇒ same opt keys.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn chain_walk(
        &self,
        compiler: &Compiler,
        src: &str,
        tokens: &[Token],
        chunks: &[DeclChunk],
        origin: u64,
        validate: bool,
        anchor: Option<&SlotState>,
        capture: bool,
    ) -> Result<(CompileResult, Option<SeedChain>), &'static str> {
        let n = chunks.len();
        if n == 0 {
            return Err(FRONT);
        }
        let whole = if validate {
            let Ok(ast) = metamut_lang::parse("<content>", src) else {
                return Err(FRONT);
            };
            if ast.unit.decls.len() != n {
                return Err(FRONT);
            }
            for (ch, d) in chunks.iter().zip(&ast.unit.decls) {
                let ds = d.span();
                if !(ch.span.lo <= ds.lo && ds.hi <= ch.span.hi) {
                    return Err(FRONT);
                }
            }
            Some(ast)
        } else {
            None
        };

        let st = &*self.state;
        let db = &*self.db;
        let kinds = st.kinds;
        // Identifier spellings, computed lazily: chunks served from the
        // seed chain never need them.
        let mut idents: Vec<Option<Vec<&str>>> = vec![None; n];
        macro_rules! ids {
            ($k:expr) => {{
                if idents[$k].is_none() {
                    let ch = &chunks[$k];
                    idents[$k] = Some(ident_spellings(src, &tokens[ch.start..ch.end]));
                }
                idents[$k].as_deref().expect("just filled")
            }};
        }

        // ------------------------------------------------------------
        // Pass 1: parse + sema, walking the environment chain. Each
        // boundary's snapshot / fingerprint / typedef set comes from the
        // previous declaration's sema memo, so a shared prefix of
        // declarations shares the whole chain.
        // ------------------------------------------------------------
        let mut snap = Arc::clone(&st.initial_snapshot);
        let mut env_fp = st.initial_fp;
        let mut typedefs = Arc::clone(&st.empty_names);
        let mut parses: Vec<Arc<CParse>> = Vec::with_capacity(n);
        let mut semas: Vec<Arc<CSema>> = Vec::with_capacity(n);
        let mut parse_keys: Vec<u128> = Vec::with_capacity(n);
        let mut sema_keys: Vec<u128> = Vec::with_capacity(n);
        let mut fp_before: Vec<u128> = Vec::with_capacity(n);
        let mut reused1 = vec![false; n];
        for (k, ch) in chunks.iter().enumerate() {
            fp_before.push(env_fp);
            if let Some(slot) = anchor {
                let sc = &slot.chain.chunks[k];
                if env_fp == sc.env_fp_before && ch.text(src) == &*slot.texts[k] {
                    // Byte-identical chunk at a boundary with the seed's
                    // fingerprint: every key this chunk derives equals
                    // the seed's, so the captured handles ARE the memos.
                    let ok = sc.sema.ok.as_ref().expect("validated at slot build");
                    snap = Arc::clone(&ok.after);
                    env_fp = ok.after_fp;
                    typedefs = Arc::clone(&ok.after_typedefs);
                    parses.push(Arc::clone(&sc.parse));
                    semas.push(Arc::clone(&sc.sema));
                    parse_keys.push(sc.parse_key);
                    sema_keys.push(sc.sema_key);
                    reused1[k] = true;
                    continue;
                }
            }
            let parse_key = {
                let mut h = stage_key("parse", ch.hash);
                membership_digest(&mut h, ids!(k), &typedefs);
                h.finish128()
            };
            let text = ch.text(src);
            let tds = Arc::clone(&typedefs);
            let p = st.fetch(
                db,
                kinds.parse,
                "parse",
                parse_key,
                origin,
                |a: &CParse| a.origin,
                move || {
                    let ast = metamut_lang::parse_with_typedefs("<query>", text, &tds)
                        .ok()
                        .filter(|ast| ast.unit.decls.len() == 1);
                    let code6 = ast
                        .as_ref()
                        .map_or(0, |ast| crate::decl_code(&ast.unit.decls[0]));
                    CParse { ast, code6, origin }
                },
            );
            if p.ast.is_none() {
                return Err(FRONT);
            }
            let sema_key = {
                let mut h = stage_key("sema", parse_key);
                h.write_u128(env_fp);
                h.finish128()
            };
            let p2 = Arc::clone(&p);
            let snap2 = Arc::clone(&snap);
            let s = st.fetch(
                db,
                kinds.sema,
                "sema",
                sema_key,
                origin,
                |a: &CSema| a.origin,
                move || {
                    let ok = p2.ast.as_ref().and_then(|ast| {
                        check_decl(&snap2, ast, 0).ok().map(|dc| {
                            let ty_feats = dc
                                .sema
                                .expr_types
                                .values()
                                .map(|qt| feature_hash_display(format_args!("ty:{qt}")))
                                .collect();
                            CSemaOk {
                                after_fp: dc.after.fingerprint128(),
                                after_typedefs: Arc::new(dc.after.typedef_names()),
                                after: Arc::new(dc.after),
                                ty_feats,
                                sema: dc.sema,
                            }
                        })
                    });
                    CSema { ok, origin }
                },
            );
            let Some(ok) = s.ok.as_ref() else {
                return Err("sema");
            };
            snap = Arc::clone(&ok.after);
            env_fp = ok.after_fp;
            typedefs = Arc::clone(&ok.after_typedefs);
            parses.push(p);
            parse_keys.push(parse_key);
            sema_keys.push(sema_key);
            semas.push(s);
        }
        // The environment after the last declaration is the whole
        // program's final state: lowering's signature tables and the
        // module-shape coverage tags derive from it.
        let finals = snap;
        let finals_fp = env_fp;
        let tag8 = finals.records().len().min(32) as u64;
        let tag9 = finals.functions().len().min(64) as u64;
        // Matching final fingerprints ⇒ the final environment (which the
        // lower and opt keys observe) is the seed's, so back-half handles
        // of in-sync chunks are reusable.
        let finals_synced = anchor.is_some_and(|slot| finals_fp == slot.chain.finals_fp);

        // ------------------------------------------------------------
        // Pass 2: features (volatile chain), lowering, pre-inline opt.
        // ------------------------------------------------------------
        let opt_level = compiler.options().opt_level;
        let mut vol_before: FxHashSet<String> = FxHashSet::default();
        let mut vol_synced = anchor.is_some();
        let mut feats: Vec<Arc<CFeat>> = Vec::with_capacity(n);
        let mut lowers: Vec<Arc<CLower>> = Vec::with_capacity(n);
        let mut opt_as: Vec<Option<(u128, Arc<COptA>)>> = Vec::with_capacity(n);
        let mut reused2 = vec![false; n];
        for k in 0..n {
            if let Some(slot) = anchor {
                // Reuse needs the volatile set so far to equal the
                // seed's (⇒ same feat key) and the final environment to
                // be the seed's (⇒ same lower key).
                if reused1[k] && vol_synced && finals_synced {
                    let sc = &slot.chain.chunks[k];
                    for e in &sc.feat.exports {
                        vol_before.insert(e.clone());
                    }
                    feats.push(Arc::clone(&sc.feat));
                    lowers.push(Arc::clone(&sc.lower));
                    opt_as.push(sc.opt_a.clone());
                    reused2[k] = true;
                    continue;
                }
            }
            let feat_key = {
                let mut h = stage_key("feat", parse_keys[k]);
                membership_digest(&mut h, ids!(k), &vol_before);
                h.finish128()
            };
            let p = &parses[k];
            let f = st.fetch(
                db,
                kinds.feat,
                "features",
                feat_key,
                origin,
                |a: &CFeat| a.origin,
                || {
                    let ast = p.ast.as_ref().expect("parse checked in pass 1");
                    let df = features::decl_features(&ast.unit.decls[0], &vol_before);
                    let mut exports: Vec<String> = df
                        .volatile_after
                        .iter()
                        .filter(|v| !vol_before.contains(*v))
                        .cloned()
                        .collect();
                    exports.sort_unstable();
                    CFeat {
                        features: df.features,
                        exports,
                        origin,
                    }
                },
            );
            let lower_key = {
                let mut h = stage_key("lower", sema_keys[k]);
                h.write_u128(finals.lower_env_digest(ids!(k)));
                h.finish128()
            };
            let ok = semas[k].ok.as_ref().expect("sema checked in pass 1");
            let finals2 = Arc::clone(&finals);
            let p2 = Arc::clone(p);
            let lw = st.fetch(
                db,
                kinds.lower,
                "lower",
                lower_key,
                origin,
                |a: &CLower| a.origin,
                move || {
                    let ast = p2.ast.as_ref().expect("parse checked in pass 1");
                    // Lowering consults only final whole-program tables for
                    // cross-declaration facts; the key's restricted digest
                    // covers every name it can look up.
                    let hybrid = SemaResult {
                        functions: finals2.functions().clone(),
                        records: finals2.records().clone(),
                        enum_consts: finals2.enum_consts().clone(),
                        ..ok.sema.clone()
                    };
                    let ld = lower::lower_decl(&ast.unit.decls[0], &hybrid);
                    CLower {
                        features: ld.features,
                        func: ld.function,
                        origin,
                    }
                },
            );
            let oa = if lw.func.is_some() {
                let opt_a_key = {
                    let mut h = stage_key("opt_a", lower_key);
                    h.write(&[opt_level]);
                    h.finish128()
                };
                let lw2 = Arc::clone(&lw);
                let a = st.fetch(
                    db,
                    kinds.opt_a,
                    "opt-pre",
                    opt_a_key,
                    origin,
                    |a: &COptA| a.origin,
                    move || {
                        let mut f = lw2.func.clone().expect("function checked");
                        let mut report = OptReport::default();
                        let mut counts = Vec::new();
                        opt_stage_a(&mut f, opt_level, &mut report, &mut counts);
                        let trivial = if opt_level >= 2 {
                            passes::trivial_body_of(&f).map(|body| (f.name.clone(), body))
                        } else {
                            None
                        };
                        COptA {
                            func: Some(f),
                            counts,
                            features: report.features,
                            trivial,
                            origin,
                        }
                    },
                );
                Some((opt_a_key, a))
            } else {
                None
            };
            for e in &f.exports {
                vol_before.insert(e.clone());
            }
            if let Some(slot) = anchor {
                // An edited chunk keeps the volatile chain in sync iff it
                // exports exactly what the seed's chunk did.
                vol_synced = vol_synced && f.exports == slot.chain.chunks[k].feat.exports;
            }
            feats.push(f);
            lowers.push(lw);
            opt_as.push(oa);
        }

        if let Some(ast) = &whole {
            // The merged per-declaration partials must reproduce the
            // whole-program features exactly — the self-check that
            // anchors the decomposition when there is no validated slot.
            let parts: Vec<features::AstFeatures> =
                feats.iter().map(|f| f.features.clone()).collect();
            if features::merge_decl_features(&parts) != features::ast_features(ast) {
                return Err("features");
            }
        }

        // Module-wide trivial-inline join (plain code, not a memo: the
        // map is a cheap projection of the opt-pre memos).
        let mut trivial: FxHashMap<String, (Vec<Inst>, Option<Value>)> = FxHashMap::default();
        if opt_level >= 2 {
            for oa in opt_as.iter().flatten() {
                if let Some((name, body)) = &oa.1.trivial {
                    trivial.insert(name.clone(), body.clone());
                }
            }
        }
        // The opt keys observe the trivial map: back-half reuse further
        // needs every edited chunk's trivial contribution to equal the
        // seed's (reused chunks contribute the seed's entries verbatim).
        let trivial_synced = finals_synced
            && anchor.is_some_and(|slot| {
                (0..n).all(|k| {
                    reused2[k] || {
                        let ours = opt_as[k].as_ref().and_then(|(_, a)| a.trivial.as_ref());
                        let seeds = slot.chain.chunks[k]
                            .opt_a
                            .as_ref()
                            .and_then(|(_, a)| a.trivial.as_ref());
                        ours == seeds
                    }
                })
            });

        // ------------------------------------------------------------
        // Pass 3: inline-and-later passes + codegen, then stitch.
        // ------------------------------------------------------------
        let options_render = compiler.options().render();
        let mut owned: Vec<Option<DeclArtifacts>> = Vec::with_capacity(n);
        for k in 0..n {
            if reused2[k] && trivial_synced {
                // The seed's assembled artifacts are bit-identical to
                // what the fetches below would produce.
                owned.push(None);
                continue;
            }
            let func = if let Some((opt_a_key, a)) = &opt_as[k] {
                let opt_key = {
                    let mut h = stage_key("opt", *opt_a_key);
                    h.write_str(&options_render);
                    for id in ids!(k) {
                        if let Some(body) = trivial.get(*id) {
                            h.write_str(id);
                            h.write_str(&format!("{body:?}"));
                        }
                    }
                    h.finish128()
                };
                let a2 = Arc::clone(a);
                let flags = compiler.options().flags.clone();
                let trivial_ref = &trivial;
                let o = st.fetch(
                    db,
                    kinds.opt,
                    "opt",
                    opt_key,
                    origin,
                    |a: &COpt| a.origin,
                    move || {
                        let mut f = a2.func.clone().expect("function checked");
                        let mut report = OptReport {
                            features: a2.features.clone(),
                            ..OptReport::default()
                        };
                        let mut counts = a2.counts.clone();
                        opt_stage_b(
                            &mut f,
                            trivial_ref,
                            opt_level,
                            &flags,
                            &mut report,
                            &mut counts,
                        );
                        let inlined = if opt_level >= 2 {
                            counts[INLINE_IDX]
                        } else {
                            0
                        };
                        COpt {
                            func: Some(f),
                            counts,
                            features: report.features,
                            loops: report.loops,
                            strlen: report.strlen_reductions,
                            inlined,
                            origin,
                        }
                    },
                );
                let codegen_key = stage_key("codegen", opt_key).finish128();
                let o2 = Arc::clone(&o);
                let cg = st.fetch(
                    db,
                    kinds.codegen,
                    "codegen",
                    codegen_key,
                    origin,
                    |a: &CCodegen| a.origin,
                    move || {
                        let f = o2.func.as_ref().expect("function checked");
                        let asm = crate::backend::codegen_one(f);
                        CCodegen {
                            features: asm.features,
                            len: asm.insts.len(),
                            spills: asm.spills,
                            peak: asm.peak_pressure,
                            origin,
                        }
                    },
                );
                Some(FnArtifacts {
                    opt_features: o.features.clone(),
                    counts: o.counts.clone(),
                    loops: o.loops.clone(),
                    strlen: o.strlen.clone(),
                    inlined: o.inlined,
                    asm_features: cg.features.clone(),
                    asm_len: cg.len,
                    asm_spills: cg.spills,
                    asm_peak: cg.peak,
                })
            } else {
                None
            };
            let ok = semas[k].ok.as_ref().expect("sema checked in pass 1");
            owned.push(Some(DeclArtifacts {
                code6: parses[k].code6,
                ty_feats: ok.ty_feats.clone(),
                feats: feats[k].features.clone(),
                lower_features: lowers[k].features.clone(),
                func,
            }));
        }
        let refs: Vec<&DeclArtifacts> = owned
            .iter()
            .enumerate()
            .map(|(k, o)| match o {
                Some(art) => art,
                None => &anchor.expect("reuse implies an anchor").chain.chunks[k].art,
            })
            .collect();
        let result = compiler.stitch(src, tokens, tag8, tag9, &refs);
        drop(refs);
        let chain = capture.then(|| SeedChain {
            finals_fp,
            chunks: (0..n)
                .map(|k| SeedChunk {
                    env_fp_before: fp_before[k],
                    parse_key: parse_keys[k],
                    sema_key: sema_keys[k],
                    parse: Arc::clone(&parses[k]),
                    sema: Arc::clone(&semas[k]),
                    feat: Arc::clone(&feats[k]),
                    lower: Arc::clone(&lowers[k]),
                    opt_a: opt_as[k].clone(),
                    // The capture path never reuses, so every chunk owns
                    // its artifacts.
                    art: owned[k].take().expect("capture computes every chunk"),
                })
                .collect(),
        });
        Ok((result, chain))
    }

    /// Returns the ready slot for `seed`, building and validating it on
    /// first sight; `None` = uncacheable seed (always compiles cold).
    fn slot(&self, compiler: &Compiler, seed: &str) -> Option<Arc<SlotState>> {
        let key = {
            // (profile, options, seed-content) — hashed, never formatted
            // into a seed-sized string.
            let mut h = Sip128::default();
            h.write_str(&format!("{:?}", compiler.profile()));
            h.write_str(&compiler.options().render());
            h.write(seed.as_bytes());
            h.finish128()
        };
        let stamp = self.stamp();
        {
            let map = self.state.by_key.lock();
            if let Some(handle) = map.get(&key) {
                return match handle {
                    SlotHandle::Dud(used) => {
                        used.store(stamp, Ordering::Relaxed);
                        None
                    }
                    SlotHandle::Ready(slot) => {
                        slot.last_used.store(stamp, Ordering::Relaxed);
                        Some(Arc::clone(slot))
                    }
                };
            }
        }
        // Build outside the lock: slot construction runs the whole cold
        // pipeline plus the end-to-end validation below.
        let built = self.build_slot(compiler, seed);
        let mut map = self.state.by_key.lock();
        if let Some(existing) = map.get(&key) {
            // A racing build won; ours only warmed the shared memos.
            return match existing {
                SlotHandle::Dud(_) => None,
                SlotHandle::Ready(slot) => Some(Arc::clone(slot)),
            };
        }
        self.evict_for_room(&mut map);
        map.insert(
            key,
            match &built {
                Some(slot) => SlotHandle::Ready(Arc::clone(slot)),
                None => SlotHandle::Dud(AtomicU64::new(stamp)),
            },
        );
        built
    }

    /// LRU slot eviction: drops the least-recently-used overlays until
    /// the cache is under its cap, then bounds the shared content memos.
    /// Unlike the slot-keyed engine, retiring a slot does *not* drop the
    /// memos it referenced — another seed with the same declarations
    /// still hits them; the database-wide LRU sweep is what bounds
    /// memory.
    fn evict_for_room(&self, map: &mut FxHashMap<u128, SlotHandle>) {
        let mut evicted = false;
        while map.len() >= self.cap {
            let victim = map
                .iter()
                .min_by_key(|(_, h)| match h {
                    SlotHandle::Dud(used) => used.load(Ordering::Relaxed),
                    SlotHandle::Ready(slot) => slot.last_used.load(Ordering::Relaxed),
                })
                .map(|(k, _)| *k);
            let Some(victim) = victim else { return };
            map.remove(&victim);
            evicted = true;
            self.state.slot_evictions.fetch_add(1, Ordering::Relaxed);
            metamut_telemetry::handle().counter_add("query_slot_evictions", 1);
        }
        if evicted && self.cap != usize::MAX {
            self.db.enforce_cap(self.cap.saturating_mul(MEMOS_PER_SLOT));
        }
    }

    /// Builds a slot for `seed` and validates it end-to-end: the seed
    /// pushed through the fully validated chain walk must stitch
    /// bit-identically to its cold compile. `None` means mutants of this
    /// seed always compile cold — never that they compile wrong. The
    /// build itself warms the shared memos, so even a seed compiled once
    /// pays forward to every later program sharing its declarations.
    fn build_slot(&self, compiler: &Compiler, seed: &str) -> Option<Arc<SlotState>> {
        let t0 = std::time::Instant::now();
        let seed_result = compiler.compile(seed);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (tokens, chunks) = metamut_lang::split_source(seed)?;
        let id = self.state.origin_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (stitched, chain) = self
            .chain_walk(compiler, seed, &tokens, &chunks, id, true, None, true)
            .ok()?;
        if stitched.outcome != seed_result.outcome
            || !coverage_equal(&stitched.coverage, &seed_result.coverage)
        {
            return None;
        }
        Some(Arc::new(SlotState {
            id,
            seed_hash: hash128(seed.as_bytes()),
            chunk_count: chunks.len(),
            texts: chunks
                .iter()
                .map(|ch| self.state.interner.intern(ch.text(seed)))
                .collect(),
            chain: chain.expect("capture was requested"),
            seed_result,
            cold_ms,
            last_used: AtomicU64::new(self.stamp()),
        }))
    }

    /// Fast-path compiles served by the content memos.
    pub fn hits(&self) -> u64 {
        self.state.hits.load(Ordering::Relaxed)
    }

    /// Cold-fallback compiles (including uncacheable seeds).
    pub fn misses(&self) -> u64 {
        self.state.misses.load(Ordering::Relaxed)
    }

    /// Cross-check disagreements observed (should stay zero).
    pub fn mismatches(&self) -> u64 {
        self.state.mismatches.load(Ordering::Relaxed)
    }

    /// Seed slots retired by the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.state.slot_evictions.load(Ordering::Relaxed)
    }

    /// Stage memo hits served from a different origin (another seed,
    /// tenant, profile, or slotless program) than the compile that
    /// produced them — the cross-seed sharing this engine exists for.
    pub fn cross_seed_hits(&self) -> u64 {
        self.state.cross_seed.load(Ordering::Relaxed)
    }

    /// Distinct declaration texts interned across every slot on this
    /// database — seeds of one family share most of them.
    pub fn interned_texts(&self) -> usize {
        self.state.interner.len()
    }

    /// Total declaration-text bytes the live slots keep referenced.
    /// Because chunk texts are interned, seeds of one family share
    /// storage: this sum can exceed the interner's actual footprint many
    /// times over.
    pub fn retained_text_bytes(&self) -> usize {
        self.state
            .by_key
            .lock()
            .values()
            .map(|h| match h {
                SlotHandle::Dud(_) => 0,
                SlotHandle::Ready(slot) => slot.texts.iter().map(|t| t.len()).sum(),
            })
            .sum()
    }

    /// Fast-path rate over all compiles served so far.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }

    /// Number of cached seed entries (including uncacheable markers).
    pub fn len(&self) -> usize {
        self.state.by_key.lock().len()
    }

    /// Whether no seed has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total chunk-text bytes a slot keeps alive (test/diagnostic hook
    /// for the interner's sharing).
    #[cfg(test)]
    fn slot_text_bytes(&self, compiler: &Compiler, seed: &str) -> Option<usize> {
        self.slot(compiler, seed)
            .map(|s| s.texts.iter().map(|t| t.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Outcome, Profile};

    const SEED: &str = r#"
typedef int T;
int g = 3;
volatile int vg;
struct P { int x; int y; };
static int helper(int a) { return a + g; }
int fold(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + helper(i);
    }
    return acc;
}
int weigh(struct P p) {
    int s = p.x + p.y;
    if (s > 10) { s = s - vg; }
    return s;
}
int main() {
    struct P p;
    p.x = 4;
    p.y = 9;
    T t = fold(5);
    return t + weigh(p);
}
"#;

    fn configurations() -> Vec<Compiler> {
        let mut v = Vec::new();
        for profile in [Profile::Gcc, Profile::Clang] {
            for options in [
                CompileOptions::o0(),
                CompileOptions::o2(),
                CompileOptions::o3(),
            ] {
                v.push(Compiler::new(profile, options.clone()));
            }
        }
        v
    }

    fn assert_equivalent_to(compiler: &Compiler, cache: &QueryCache, seed: &str, mutant: &str) {
        let cold = compiler.compile(mutant);
        let inc = cache.compile(compiler, seed, mutant);
        assert_eq!(
            inc.outcome,
            cold.outcome,
            "outcome diverged under {:?} {}",
            compiler.profile(),
            compiler.options().render()
        );
        assert!(
            coverage_equal(&inc.coverage, &cold.coverage),
            "coverage diverged under {:?} {}",
            compiler.profile(),
            compiler.options().render()
        );
    }

    fn assert_equivalent(compiler: &Compiler, cache: &QueryCache, mutant: &str) {
        assert_equivalent_to(compiler, cache, SEED, mutant);
    }

    #[test]
    fn single_function_edit_takes_the_fast_path_everywhere() {
        let mutant = SEED.replace("acc = acc + helper(i);", "acc = acc + helper(i) + 1;");
        for compiler in configurations() {
            let cache = QueryCache::default();
            assert_equivalent(&compiler, &cache, &mutant);
            assert_eq!(cache.hits(), 1, "expected the query fast path");
            assert_eq!(cache.misses(), 0);
        }
    }

    #[test]
    fn multi_declaration_edits_take_the_fast_path() {
        let mutant = SEED
            .replace("return a + g;", "return a + g + 2;")
            .replace("acc = acc + helper(i);", "acc = acc + helper(i) - 1;")
            .replace("s = s - vg;", "s = s - vg + 3;");
        for compiler in configurations() {
            let cache = QueryCache::default();
            assert_equivalent(&compiler, &cache, &mutant);
            assert_eq!(cache.hits(), 1, "expected the query fast path");
        }
    }

    #[test]
    fn volatile_set_changes_recompute_instead_of_bailing() {
        let mutant = SEED.replace(
            "int acc = 0;",
            "volatile int shadow = 1; int acc = 0 * shadow;",
        );
        for compiler in configurations() {
            let cache = QueryCache::default();
            assert_equivalent(&compiler, &cache, &mutant);
            assert_eq!(cache.hits(), 1, "expected the query fast path");
        }
    }

    #[test]
    fn signature_changes_recompute_downstream_instead_of_bailing() {
        // The slot-keyed engine bailed cold on environment-changing
        // edits; content keys just produce new downstream keys and
        // recompute exactly the affected declarations.
        let mutant = SEED.replace("static int helper(int a)", "static long helper(long a)");
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        assert_equivalent(&compiler, &cache, &mutant);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn non_function_edits_stay_on_the_engine() {
        let mutant = SEED.replace("int g = 3;", "int g = 4;");
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o3());
        let cache = QueryCache::default();
        assert_equivalent(&compiler, &cache, &mutant);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn declaration_count_changes_take_the_slotless_walk() {
        let mutant = format!("{SEED}\nint extra(void) {{ return 1; }}\n");
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        assert_equivalent(&compiler, &cache, &mutant);
        assert_eq!(cache.hits(), 1, "structural edits ride the slotless path");
    }

    #[test]
    fn invalid_mutants_fall_back_cold() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        for bad in [
            SEED.replace("return acc;", "return acc +;"),
            SEED.replace("return acc;", "return undeclared_name;"),
        ] {
            assert_equivalent(&compiler, &cache, &bad);
        }
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn identical_declarations_hit_across_seeds() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        let mutant_a = SEED.replace("p.x = 4;", "p.x = 5;");
        assert_equivalent(&compiler, &cache, &mutant_a);
        assert_eq!(cache.cross_seed_hits(), 0, "one seed: nothing to share");
        // Seed B shares every declaration except main; building its slot
        // (and compiling its mutants) must serve the shared prefix from
        // seed A's memos.
        let seed_b = SEED.replace("return t + weigh(p);", "return t * weigh(p);");
        let mutant_b = seed_b.replace("p.x = 4;", "p.x = 5;");
        assert_equivalent_to(&compiler, &cache, &seed_b, &mutant_b);
        assert!(
            cache.cross_seed_hits() > 0,
            "shared declarations must hit across seeds"
        );
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.mismatches(), 0);
    }

    #[test]
    fn profiles_share_stage_memos() {
        // Stage artifacts are profile-independent (profile-specific bug
        // checks live in the stitch replay), so a Clang compile rides
        // the memos a Gcc compile produced.
        let db = Arc::new(QueryDb::new());
        let cache = QueryCache::new(Arc::clone(&db));
        let mutant = SEED.replace("p.y = 9;", "p.y = 19;");
        let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let clang = Compiler::new(Profile::Clang, CompileOptions::o2());
        assert_equivalent(&gcc, &cache, &mutant);
        let before = cache.cross_seed_hits();
        assert_equivalent(&clang, &cache, &mutant);
        assert!(
            cache.cross_seed_hits() > before,
            "the Clang slot must reuse the Gcc slot's stage memos"
        );
    }

    #[test]
    fn compile_program_rides_warm_memos_without_a_slot() {
        let db = Arc::new(QueryDb::new());
        let cache = QueryCache::new(Arc::clone(&db));
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cold = compiler.compile(SEED);
        let first = cache.compile_program(&compiler, SEED);
        assert_eq!(first.outcome, cold.outcome);
        assert!(coverage_equal(&first.coverage, &cold.coverage));
        // The second compile of the same program is pure memo hits.
        let recomputes = db.recomputes();
        let second = cache.compile_program(&compiler, SEED);
        assert_eq!(second.outcome, cold.outcome);
        assert_eq!(
            db.recomputes(),
            recomputes,
            "a repeat slotless compile must not recompute any stage"
        );
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn compile_program_shares_front_stages_across_options() {
        // parse/sema/feat/lower are options-independent; only opt and
        // codegen re-key when the options change — the macro fuzzer's
        // per-iteration option sampling shares the whole front end.
        let db = Arc::new(QueryDb::new());
        let cache = QueryCache::new(Arc::clone(&db));
        let o2 = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let o3 = Compiler::new(Profile::Gcc, CompileOptions::o3());
        let r2 = cache.compile_program(&o2, SEED);
        assert_eq!(r2.outcome, o2.compile(SEED).outcome);
        let hits_before = db.hits();
        let r3 = cache.compile_program(&o3, SEED);
        assert_eq!(r3.outcome, o3.compile(SEED).outcome);
        // 8 declarations × at least parse+sema+feat+lower shared.
        assert!(
            db.hits() >= hits_before + 4 * 8,
            "front stages must be shared across option variants"
        );
    }

    #[test]
    fn compile_program_falls_back_cold_on_invalid_programs() {
        let cache = QueryCache::default();
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let bad = "int broken( { return 0; }";
        let cold = compiler.compile(bad);
        let inc = cache.compile_program(&compiler, bad);
        assert_eq!(inc.outcome, cold.outcome);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn seed_identical_mutants_reuse_the_seed_result() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        let first = cache.compile(&compiler, SEED, SEED);
        assert_eq!(first.outcome, compiler.compile(SEED).outcome);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn editing_then_reverting_stays_consistent() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        let mutant = SEED.replace("return acc;", "return acc + 7;");
        assert_equivalent(&compiler, &cache, &mutant);
        let reverted = cache.compile(&compiler, SEED, SEED);
        assert_eq!(reverted.outcome, compiler.compile(SEED).outcome);
        assert_equivalent(&compiler, &cache, &mutant);
    }

    #[test]
    fn unparseable_seeds_are_remembered_as_duds() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        let seed = "int broken( { return 0; }";
        let mutant = "int broken( { return 1; }";
        let cold = compiler.compile(mutant);
        let inc = cache.compile(&compiler, seed, mutant);
        assert_eq!(inc.outcome, cold.outcome);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1, "the dud seed is cached as uncacheable");
    }

    #[test]
    fn capacity_cap_retires_slots_but_keeps_shared_memos_warm() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let db = Arc::new(QueryDb::new());
        let cache = QueryCache::new(Arc::clone(&db)).with_capacity(1);
        let seed_b = SEED.replace("int g = 3;", "int g = 30;");
        let mutant_a = SEED.replace("p.x = 4;", "p.x = 6;");
        let mutant_b = seed_b.replace("p.x = 4;", "p.x = 6;");
        assert_equivalent(&compiler, &cache, &mutant_a);
        // A second seed evicts the first slot overlay...
        assert_equivalent_to(&compiler, &cache, &seed_b, &mutant_b);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        // ...but the shared content memos survive: rebuilding seed A's
        // slot serves its declarations from the memos seed A itself
        // warmed (now cross-origin, since the rebuilt slot is a new
        // origin).
        let before = cache.cross_seed_hits();
        assert_equivalent(&compiler, &cache, &mutant_a);
        assert!(
            cache.cross_seed_hits() > before,
            "evicting a slot must not evict the shared content memos"
        );
        assert_eq!(cache.mismatches(), 0);
    }

    #[test]
    fn slots_share_interned_declaration_text() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cache = QueryCache::default();
        let seed_b = SEED.replace("return t + weigh(p);", "return t * weigh(p);");
        let a_bytes = cache
            .slot_text_bytes(&compiler, SEED)
            .expect("seed A slot builds");
        let interned_after_a = cache.interned_texts();
        let b_bytes = cache
            .slot_text_bytes(&compiler, &seed_b)
            .expect("seed B slot builds");
        // Seed B re-uses every interned chunk but its divergent main.
        assert!(b_bytes > 0 && a_bytes > 0);
        assert_eq!(
            cache.interned_texts(),
            interned_after_a + 1,
            "only the divergent declaration adds interner storage"
        );
    }

    #[test]
    fn cross_check_stays_clean() {
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o3());
        let cache = QueryCache::default().with_cross_check(1);
        for (i, edit) in [
            ("p.x = 4;", "p.x = 14;"),
            ("return s;", "return s * 2;"),
            ("T t = fold(5);", "T t = fold(6);"),
        ]
        .iter()
        .enumerate()
        {
            let mutant = SEED.replace(edit.0, edit.1);
            assert_equivalent(&compiler, &cache, &mutant);
            assert_eq!(cache.hits(), i as u64 + 1);
        }
        assert_eq!(cache.mismatches(), 0);
    }

    #[test]
    fn caches_layered_over_one_db_share_slots() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let db = Arc::new(QueryDb::new());
        let a = QueryCache::new(Arc::clone(&db));
        let b = QueryCache::new(Arc::clone(&db));
        let mutant = SEED.replace("p.y = 9;", "p.y = 19;");
        assert_equivalent(&compiler, &a, &mutant);
        assert_eq!(b.len(), 1);
        let recomputes = db.recomputes();
        let inc = b.compile(&compiler, SEED, &mutant);
        assert_eq!(inc.outcome, compiler.compile(&mutant).outcome);
        assert_eq!(
            db.recomputes(),
            recomputes,
            "the shared memos serve the repeat compile without recomputing"
        );
    }

    #[test]
    fn crashing_mutants_reproduce_cold_crashes() {
        let mutant = SEED.replace(
            "int s = p.x + p.y;",
            "int s = (p.x > 0 ? (p.y > 0 ? (p.x > 1 ? (p.y > 1 ? (p.x > 2 ? (p.y > 2 ? (p.x > 3 ? (p.y > 3 ? (p.x > 4 ? (p.y > 4 ? (p.x > 5 ? (p.y > 5 ? (p.x > 6 ? (p.y > 6 ? 1 : 2) : 3) : 4) : 5) : 6) : 7) : 8) : 9) : 10) : 11) : 12) : 13) : 14) : p.y);",
        );
        for compiler in configurations() {
            let cache = QueryCache::default();
            let cold = compiler.compile(&mutant);
            let inc = cache.compile(&compiler, SEED, &mutant);
            assert_eq!(inc.outcome, cold.outcome);
            assert!(coverage_equal(&inc.coverage, &cold.coverage));
            if let (Outcome::Crash(a), Outcome::Crash(b)) = (&inc.outcome, &cold.outcome) {
                assert_eq!(a.signature(), b.signature());
            }
        }
    }
}
