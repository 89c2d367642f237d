//! Behavioral contract of the campaign [`UbGate`] and the no-op lint.

use metamut_analyze::{alpha_equivalent, check_noop_mutant, first_new_ub, UbGate};

const PARENT: &str = "\
typedef int T;
int g = 3;
volatile int vg;
static T helper(T a, T b) { return a * b + g; }
int fold(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + helper(i, i + 1); }
    return acc;
}
int main(void) { vg = fold(4); return vg + g; }
";

#[test]
fn clean_mutant_passes() {
    let gate = UbGate::new();
    let mutant = PARENT.replace("a * b + g", "a + b * g");
    assert!(!gate.introduces_new_ub(Some(PARENT), &mutant));
}

#[test]
fn new_ub_in_one_edited_body_is_gated() {
    let gate = UbGate::new();
    let mutant = PARENT.replace("acc = acc + helper(i, i + 1);", "acc = acc / 0;");
    assert_ne!(mutant, PARENT);
    assert!(gate.introduces_new_ub(Some(PARENT), &mutant));
    assert_eq!(gate.filtered(), 1);
}

#[test]
fn parent_ub_is_not_new() {
    let parent = "int f(void) { int x; return x; }\nint main(void) { return f(); }\n";
    // The mutant still has the parent's uninit read, but nothing new.
    let mutant = "int f(void) { int x; return x; }\nint main(void) { return f() + 1; }\n";
    let gate = UbGate::new();
    assert!(!gate.introduces_new_ub(Some(parent), mutant));
    // A *different* fresh UB in main still gates.
    let worse = "int f(void) { int x; return x; }\nint main(void) { return f() / 0; }\n";
    assert!(gate.introduces_new_ub(Some(parent), worse));
}

#[test]
fn unparseable_mutant_is_never_gated() {
    let gate = UbGate::new();
    let mutant = PARENT.replace("int fold(int n) {", "int fold(int n) { ) (");
    assert!(
        !gate.introduces_new_ub(Some(PARENT), &mutant),
        "the compiler must see and reject unparseable mutants itself"
    );
}

#[test]
fn parentless_candidate_gates_on_any_ub() {
    let gate = UbGate::new();
    assert!(gate.introduces_new_ub(None, "int f(void) { return 1 / 0; }\n"));
    assert!(!gate.introduces_new_ub(None, "int f(void) { return 1; }\n"));
}

#[test]
fn verdicts_are_cached() {
    let gate = UbGate::new();
    let mutant = PARENT.replace("return acc;", "return acc / 0;");
    assert!(gate.introduces_new_ub(Some(PARENT), &mutant));
    let recomputes = gate.summary_recomputes();
    assert!(gate.introduces_new_ub(Some(PARENT), &mutant));
    assert_eq!(gate.checked(), 2);
    assert_eq!(gate.filtered(), 2);
    assert_eq!(
        gate.summary_recomputes(),
        recomputes,
        "second query must hit the verdict cache"
    );
}

#[test]
fn multi_chunk_edits_fall_back_to_full_analysis() {
    let gate = UbGate::new();
    let mutant = PARENT
        .replace("int g = 3;", "int g = 4;")
        .replace("return acc;", "return acc / 0;");
    assert!(gate.introduces_new_ub(Some(PARENT), &mutant));
}

#[test]
fn two_edited_bodies_gate_only_when_one_adds_ub() {
    // Two function bodies edited at once: clean edits pass, and new UB in
    // either body gates the mutant.
    let gate = UbGate::new();
    let clean = PARENT
        .replace("a * b + g", "a + b + g")
        .replace("int acc = 0;", "int acc = 1;");
    assert!(!gate.introduces_new_ub(Some(PARENT), &clean));
    let dirty = PARENT
        .replace("a * b + g", "a + b + g")
        .replace("int acc = 0;", "int acc = 1 / 0;");
    assert!(gate.introduces_new_ub(Some(PARENT), &dirty));
    assert_eq!(gate.checked(), 2);
    assert_eq!(gate.filtered(), 1);
}

#[test]
fn interproc_memos_are_shared_across_gates() {
    // Summary and finding memos are content-addressed on the shared
    // database, so a second gate re-deciding the same mutant computes
    // nothing new.
    use std::sync::Arc;
    let db = Arc::new(metamut_analyze::QueryDb::new());
    let first = UbGate::with_db(Arc::clone(&db));
    let mutant = PARENT.replace("int acc = 0;", "int acc = 2;");
    assert!(!first.introduces_new_ub(Some(PARENT), &mutant));
    let memos = db.len();
    let second = UbGate::with_db(Arc::clone(&db));
    assert!(!second.introduces_new_ub(Some(PARENT), &mutant));
    assert_eq!(db.len(), memos, "second gate must be all memo hits");
    assert_eq!(second.summary_recomputes(), 0);
    assert!(second.summary_hits() > 0);
}

#[test]
fn single_decl_edit_resummarizes_only_scc_ancestors() {
    // Call chain a → b → c plus unrelated d. Editing c invalidates the
    // summaries of c and its transitive callers (b, a) — and nothing
    // else: d must be a memo hit.
    use std::sync::Arc;
    let parent = "int c(int x) { return x + 1; }\n\
                  int b(int x) { return c(x); }\n\
                  int a(int x) { return b(x); }\n\
                  int d(int x) { return x * 2; }\n";
    let db = Arc::new(metamut_analyze::QueryDb::new());
    let gate = UbGate::with_db(db);
    let mutant = parent.replace("return x + 1;", "return x + 2;");
    assert!(!gate.introduces_new_ub(Some(parent), &mutant));
    assert_eq!(
        gate.summary_recomputes(),
        7,
        "4 parent summaries + exactly the edited function and its SCC ancestors (c, b, a)"
    );
    assert_eq!(gate.summary_hits(), 1, "d's summary must be a memo hit");
}

#[test]
fn gate_catches_cross_call_ub() {
    // Editing only the callee creates a division by zero at an *unedited*
    // call site — visible only through the callee's summary.
    let parent = "int zero(void) { return 1; }\n\
                  int f(void) { return 10 / zero(); }\n\
                  int main(void) { return f(); }\n";
    let mutant = parent.replace("return 1;", "return 0;");
    let gate = UbGate::new();
    assert!(gate.introduces_new_ub(Some(parent), &mutant));
}

#[test]
fn first_new_ub_reports_the_offending_finding() {
    let mutant = PARENT.replace("return acc;", "return acc / 0;");
    let f = first_new_ub(PARENT, &mutant).expect("division by zero is new UB");
    assert_eq!(f.analysis, "div-by-zero");
    assert_eq!(f.function, "fold");
    assert!(first_new_ub(PARENT, PARENT).is_none());
}

#[test]
fn noop_mutants_are_detected() {
    // Pure whitespace / formatting change.
    let reformatted = PARENT.replace("int acc = 0;", "int  acc  =  0 ;");
    let f = check_noop_mutant(PARENT, &reformatted).expect("formatting is a no-op");
    assert_eq!(f.analysis, "noop-mutant");

    // Consistent renaming is a no-op too.
    let renamed = PARENT.replace("acc", "total");
    assert_eq!(alpha_equivalent(PARENT, &renamed), Some(true));

    // A real change is not.
    let changed = PARENT.replace("int acc = 0;", "int acc = 1;");
    assert!(check_noop_mutant(PARENT, &changed).is_none());

    // Inconsistent renaming (collision with another variable) is not.
    let collided = PARENT.replace("int acc = 0;", "int n = 0;");
    assert_ne!(alpha_equivalent(PARENT, &collided), Some(true));
}
