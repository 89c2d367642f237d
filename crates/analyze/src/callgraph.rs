//! Call graph over a translation unit's function definitions, with
//! Tarjan SCC condensation.
//!
//! Edges are syntactic: a call whose callee is a plain identifier naming
//! a function *defined with a body* in the same unit resolves to that
//! definition. Everything else — prototypes, externs, function pointers,
//! names defined more than once — is an *unknown* callee, which the
//! summary layer treats maximally conservatively (may return, observable,
//! no parameter facts). Shadowing by locals is deliberately ignored here:
//! the graph only orders summarization bottom-up, and a spurious edge
//! merely over-approximates an SCC; the analyses themselves re-resolve
//! callees against the per-function scope before using any summary.
//!
//! [`CallGraph::sccs`] lists strongly connected components in bottom-up
//! (callees-first) order — Tarjan emits an SCC only once every component
//! it can reach has already been emitted — which is exactly the order
//! per-function summaries must be computed in.

use metamut_lang::ast::{ExprKind, FunctionDef};
use metamut_lang::fxhash::FxHashMap;
use metamut_lang::Ast;
use metamut_lang::Name;

use crate::analyses::{for_each_expr, walk_exprs};

/// Call graph over a slice of function definitions (all with bodies).
pub struct CallGraph {
    /// Resolved callee indices per function, deduplicated and sorted.
    pub callees: Vec<Vec<usize>>,
    /// Function index by name, for names defined exactly once. Duplicate
    /// definitions are dropped: a call to such a name stays unknown.
    pub by_name: FxHashMap<Name, usize>,
    /// Strongly connected components in bottom-up (callees-first) order.
    pub sccs: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over `funcs` (each must have a body).
    pub fn build(ast: &Ast, funcs: &[&FunctionDef]) -> CallGraph {
        let mut by_name: FxHashMap<Name, usize> = FxHashMap::default();
        let mut dupes: Vec<Name> = Vec::new();
        for (i, f) in funcs.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                dupes.push(f.name.clone());
            }
        }
        for name in dupes {
            by_name.remove(&name);
        }
        let mut callees: Vec<Vec<usize>> = Vec::with_capacity(funcs.len());
        for f in funcs {
            let mut out: Vec<usize> = Vec::new();
            if let Some(body) = &f.body {
                for_each_expr(ast, body, &mut |e| {
                    walk_exprs(ast, e, &mut |sub| {
                        if let ExprKind::Call { callee, .. } = &sub.kind {
                            if let ExprKind::Ident(name) = &ast[*callee].unparenthesized(ast).kind {
                                if let Some(&idx) = by_name.get(name.as_str()) {
                                    out.push(idx);
                                }
                            }
                        }
                    });
                });
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        let sccs = tarjan(&callees);
        CallGraph {
            callees,
            by_name,
            sccs,
        }
    }

    /// Whether function `i` sits in a cycle (a multi-member SCC, or a
    /// direct self-call). Cyclic functions summarize against an
    /// environment that excludes their own SCC.
    pub fn in_cycle(&self, i: usize, scc: &[usize]) -> bool {
        scc.len() > 1 || self.callees[i].contains(&i)
    }
}

/// Iterative Tarjan over an adjacency list; components are emitted in
/// reverse-topological (callees-first) order.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::ast::ExternalDecl;
    use metamut_lang::parse;

    fn graph_of(src: &str) -> (Vec<String>, CallGraph) {
        let ast = parse("<cg>", src).expect("parse");
        let funcs: Vec<&FunctionDef> = ast
            .unit
            .decls
            .iter()
            .filter_map(|d| match d {
                ExternalDecl::Function(f) if f.body.is_some() => Some(f),
                _ => None,
            })
            .collect();
        let names = funcs.iter().map(|f| f.name.to_string()).collect();
        let cg = CallGraph::build(&ast, &funcs);
        (names, cg)
    }

    #[test]
    fn bottom_up_order_is_callees_first() {
        let (names, cg) = graph_of(
            "int c(void) { return 1; }\n\
             int b(void) { return c(); }\n\
             int a(void) { return b() + c(); }\n",
        );
        let pos = |n: &str| {
            let idx = names.iter().position(|x| x == n).unwrap();
            cg.sccs.iter().position(|s| s.contains(&idx)).unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let (names, cg) = graph_of(
            "int odd(int n);\n\
             int even(int n) { return n == 0 ? 1 : odd(n - 1); }\n\
             int odd(int n) { return n == 0 ? 0 : even(n - 1); }\n\
             int top(void) { return even(4); }\n",
        );
        assert_eq!(names.len(), 3);
        let cycle = cg
            .sccs
            .iter()
            .find(|s| s.len() == 2)
            .expect("even/odd form one SCC");
        assert!(cg.in_cycle(cycle[0], cycle));
        // `top` comes after its callees.
        assert_eq!(cg.sccs.last().unwrap().len(), 1);
    }

    #[test]
    fn duplicate_names_stay_unknown() {
        let (_, cg) = graph_of(
            "int f(void) { return 1; }\n\
             int f(void) { return 2; }\n\
             int g(void) { return f(); }\n",
        );
        assert!(!cg.by_name.contains_key("f"));
        // No resolved edge from g.
        assert!(cg.callees[2].is_empty());
    }

    #[test]
    fn self_recursion_flags_cycle() {
        let (names, cg) = graph_of("int fac(int n) { return n < 2 ? 1 : n * fac(n - 1); }\n");
        let idx = names.iter().position(|x| x == "fac").unwrap();
        let scc = cg.sccs.iter().find(|s| s.contains(&idx)).unwrap();
        assert!(cg.in_cycle(idx, scc));
    }
}
