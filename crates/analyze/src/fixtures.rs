//! Fixture corpus shared by the crate's tests and the `exp_analyze`
//! bench gates: programs with one seeded UB defect each
//! (the analyzer must flag 100% of them with the expected analysis) and
//! known-clean programs (the analyzer must stay silent on every one).
//! The `INTERPROC_*` sets seed their defect *across a call boundary*, so
//! every hit requires a function summary — the intraprocedural analyzer
//! misses all of them.

/// Programs with exactly one seeded `Ub`-severity defect:
/// `(name, expected_analysis, source)`.
pub const UB_FIXTURES: &[(&str, &str, &str)] = &[
    (
        "uninit-simple",
        "uninit-read",
        "int f(void) { int x; return x + 1; }\n",
    ),
    (
        "uninit-expr",
        "uninit-read",
        "int f(void) { int a; int b = a * 2; return b; }\n",
    ),
    (
        "uninit-pointer",
        "uninit-read",
        "int f(void) { int *p; return *p; }\n",
    ),
    (
        "uninit-one-branch",
        "uninit-read",
        "int f(int c) { int x; if (c) { return x; } return 0; }\n",
    ),
    (
        "div-zero-literal",
        "div-by-zero",
        "int f(int a) { return a / 0; }\n",
    ),
    (
        "div-zero-var",
        "div-by-zero",
        "int f(int a) { int d = 0; return a / d; }\n",
    ),
    (
        "mod-zero-folded",
        "div-by-zero",
        "int f(int a) { int m = 5 - 5; return a % m; }\n",
    ),
    (
        "oob-read",
        "oob-index",
        "int f(void) { int a[4]; a[1] = 2; return a[7]; }\n",
    ),
    (
        "oob-global",
        "oob-index",
        "int g[3];\nint f(void) { return g[3]; }\n",
    ),
    (
        "oob-write",
        "oob-index",
        "int f(void) { int a[2]; int i = 5; a[i] = 1; return 0; }\n",
    ),
    (
        "null-deref-read",
        "null-deref",
        "int f(void) { int *p = 0; return *p; }\n",
    ),
    (
        "null-deref-arrow",
        "null-deref",
        "struct S { int v; };\nint f(void) { struct S *p = 0; return p->v; }\n",
    ),
    (
        "null-deref-write",
        "null-deref",
        "void f(void) { int *p = 0; *p = 3; }\n",
    ),
    (
        "null-deref-index",
        "null-deref",
        "int f(void) { int *p = 0; return p[2]; }\n",
    ),
    (
        "infinite-while",
        "infinite-loop",
        "int f(void) { int x = 0; while (1) { x = x + 1; } return x; }\n",
    ),
    (
        "infinite-for",
        "infinite-loop",
        "int f(void) { for (;;) { } return 1; }\n",
    ),
];

/// Programs with a `Lint`-severity defect: `(name, expected_analysis,
/// source)`. These must be flagged, but must *not* gate a mutant.
pub const LINT_FIXTURES: &[(&str, &str, &str)] = &[
    (
        "maybe-uninit",
        "possible-uninit-read",
        "int f(int c) { int x; if (c) { x = 1; } return x; }\n",
    ),
    (
        "maybe-uninit-loop",
        "possible-uninit-read",
        "int f(int n) { int s; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n",
    ),
    (
        "unreachable-after-return",
        "unreachable-code",
        "int f(void) { return 1; return 2; }\n",
    ),
    (
        "unreachable-if-zero",
        "unreachable-code",
        "int f(void) { if (0) { return 5; } return 1; }\n",
    ),
];

/// Known-good programs: the analyzer must report **zero** findings of any
/// severity on every one of these. `(name, source)`.
pub const CLEAN_FIXTURES: &[(&str, &str)] = &[
    ("add", "int add(int a, int b) { return a + b; }\n"),
    (
        "locals",
        "int f(void) { int x = 3; int y = x * 2; return x + y; }\n",
    ),
    (
        "for-sum",
        "int sum(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n",
    ),
    (
        "while-true-break",
        "int f(void) { int i = 0; while (1) { i = i + 1; if (i > 10) { break; } } return i; }\n",
    ),
    (
        "guarded-div",
        "int divide(int a, int b) { if (b != 0) { return a / b; } return 0; }\n",
    ),
    (
        "reassigned-divisor",
        "int f(void) { int d = 0; d = 7; return 10 / d; }\n",
    ),
    (
        "pointer-to-local",
        "int f(void) { int x = 5; int *p = &x; return *p; }\n",
    ),
    (
        "array-walk",
        "int f(void) { int a[4]; int t = 0; for (int i = 0; i < 4; i = i + 1) { a[i] = i; t = t + a[i]; } return t; }\n",
    ),
    (
        "switch-cases",
        "int f(int c) { int r = 0; switch (c) { case 1: r = 1; break; case 2: r = 2; break; default: r = 3; } return r; }\n",
    ),
    (
        "do-while",
        "int f(void) { int i = 0; do { i = i + 1; } while (i < 3); return i; }\n",
    ),
    (
        "goto-loop",
        "int f(int n) { int s = 0; loop: s = s + n; n = n - 1; if (n > 0) { goto loop; } return s; }\n",
    ),
    (
        "struct-members",
        "struct P { int x; int y; };\nint f(void) { struct P p; p.x = 1; p.y = 2; return p.x + p.y; }\n",
    ),
    (
        "typedef-use",
        "typedef int i32;\ni32 twice(i32 v) { return v * 2; }\n",
    ),
    (
        "string-walk",
        "int len(void) { char *s = \"hi\"; int n = 0; while (s[n] != 0) { n = n + 1; } return n; }\n",
    ),
    (
        "guarded-null",
        "int f(int *p) { if (p) { return *p; } return -1; }\n",
    ),
    (
        "volatile-spin",
        "volatile int ready;\nint f(void) { while (ready == 0) { } return ready; }\n",
    ),
];

/// Programs whose single seeded `Ub` defect only manifests **across a
/// call boundary**: `(name, expected_analysis, source)`. The
/// intraprocedural analyzer flags none of these; the summary-driven one
/// must flag all of them.
pub const INTERPROC_UB_FIXTURES: &[(&str, &str, &str)] = &[
    (
        "callee-div-param",
        "div-by-zero",
        "int div3(int a, int b) { return a / b; }\n\
         int f(int x) { return div3(x, 0); }\n",
    ),
    (
        "callee-div-chain",
        "div-by-zero",
        "int inner(int d) { return 10 / d; }\n\
         int mid(int d) { return inner(d); }\n\
         int f(void) { return mid(0); }\n",
    ),
    (
        "callee-mod-param",
        "div-by-zero",
        "int rem2(int a, int m) { return a % m; }\n\
         int f(int a) { return rem2(a, 0); }\n",
    ),
    (
        "ret-zero-div",
        "div-by-zero",
        "int zero(void) { return 0; }\n\
         int f(int a) { return a / zero(); }\n",
    ),
    (
        "ret-param-div",
        "div-by-zero",
        "int id(int v) { return v; }\n\
         int f(int a) { int d = id(0); return a / d; }\n",
    ),
    (
        "callee-idx-global",
        "oob-index",
        "int tab[4];\n\
         int get(int i) { return tab[i]; }\n\
         int f(void) { return get(9); }\n",
    ),
    (
        "callee-idx-local",
        "oob-index",
        "int get(int i) { int a[3]; a[0] = 1; return a[i]; }\n\
         int f(void) { return get(5); }\n",
    ),
    (
        "callee-idx-write",
        "oob-index",
        "int a2[2];\n\
         void put(int i) { a2[i] = 1; }\n\
         void f(void) { put(4); }\n",
    ),
    (
        "ret-const-oob",
        "oob-index",
        "int idx9(void) { return 9; }\n\
         int tab2[4];\n\
         int f(void) { return tab2[idx9()]; }\n",
    ),
    (
        "ret-null-deref",
        "null-deref",
        "int *nil(void) { return 0; }\n\
         int f(void) { return *nil(); }\n",
    ),
    (
        "ret-null-var-deref",
        "null-deref",
        "int *nil(void) { return 0; }\n\
         int f(void) { int *p = nil(); return *p; }\n",
    ),
    (
        "callee-deref-param",
        "null-deref",
        "int load(int *p) { return *p; }\n\
         int f(void) { return load(0); }\n",
    ),
    (
        "callee-deref-chain",
        "null-deref",
        "int deep(int *p) { return *p; }\n\
         int shallow(int *q) { return deep(q); }\n\
         int f(void) { return shallow(0); }\n",
    ),
    (
        "uninit-ptr-chain",
        "uninit-read",
        "int deep3(int *p) { return *p; }\n\
         int mid3(int *p) { return deep3(p); }\n\
         int f(void) { int x; return mid3(&x); }\n",
    ),
    (
        "uninit-addr-read",
        "uninit-read",
        "int peek(int *p) { return *p; }\n\
         int f(void) { int x; return peek(&x); }\n",
    ),
    (
        "uninit-rmw-callee",
        "uninit-read",
        "void acc(int *p) { *p = *p + 1; }\n\
         int f(void) { int x; acc(&x); return x; }\n",
    ),
    (
        "silent-callee-loop",
        "infinite-loop",
        "void nop(void) { }\n\
         int f(void) { int x = 0; while (1) { nop(); x = x + 1; } return x; }\n",
    ),
    (
        "silent-chain-loop",
        "infinite-loop",
        "void inner2(void) { }\n\
         void outer2(void) { inner2(); }\n\
         void f(void) { for (;;) { outer2(); } }\n",
    ),
];

/// Known-good programs exercising the same interprocedural machinery —
/// summaries must *suppress* correctly too: `(name, source)`. Zero
/// findings of any severity expected on every one.
pub const INTERPROC_CLEAN_FIXTURES: &[(&str, &str)] = &[
    (
        "writes-param-clean",
        "void init(int *p) { *p = 3; }\n\
         int f(void) { int x; init(&x); return x; }\n",
    ),
    (
        "rmw-initialized-clean",
        "void acc(int *p) { *p = *p + 1; }\n\
         int f(void) { int x = 0; acc(&x); return x; }\n",
    ),
    (
        "guarded-callee-div",
        "int div0(int a, int b) { if (b != 0) { return a / b; } return 0; }\n\
         int f(int a) { return div0(a, 0); }\n",
    ),
    (
        "observable-callee-loop",
        "volatile int tick;\n\
         void beep(void) { tick = tick + 1; }\n\
         void f(void) { while (1) { beep(); } }\n",
    ),
    (
        "prototype-callee-loop",
        "void ext(void);\n\
         void f(void) { while (1) { ext(); } }\n",
    ),
    (
        "recursive-clean",
        "int fac(int n) { if (n < 2) { return 1; } return n * fac(n - 1); }\n\
         int f(void) { return fac(5); }\n",
    ),
    (
        "ret-nonzero-div",
        "int seven(void) { return 7; }\n\
         int f(int a) { return a / seven(); }\n",
    ),
    (
        "inbounds-ret-idx",
        "int tab3[8];\n\
         int three(void) { return 3; }\n\
         int f(void) { return tab3[three()]; }\n",
    ),
    (
        "param-passthrough-clean",
        "int id2(int v) { return v; }\n\
         int f(void) { int y = id2(4); return 12 / y; }\n",
    ),
    (
        "callee-mixed-return",
        "int pick(int c) { if (c) { return 1; } return 2; }\n\
         int f(int a) { return a / pick(a); }\n",
    ),
    (
        "deref-nonnull-clean",
        "int load2(int *p) { return *p; }\n\
         int f(void) { int x = 1; return load2(&x); }\n",
    ),
    (
        "maybe-written-out-arg",
        "void maybe_set(int *p, int c) { if (c) { *p = 1; } }\n\
         int f(int c) { int x = 0; maybe_set(&x, c); return x; }\n",
    ),
    (
        "unused-ptr-arg-initialized",
        "void nop2(int *p) { }\n\
         int f(void) { int x = 2; nop2(&x); return x; }\n",
    ),
    (
        "local-shadows-fn-name",
        "int zero2(void) { return 0; }\n\
         int f(int a) { int zero2 = 1; return a / zero2; }\n",
    ),
];
