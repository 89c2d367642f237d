//! Csmith analogue: a generation-based fuzzer that emits random, valid,
//! UB-avoiding C programs from scratch (no seeds), in the spirit of
//! Yang et al.'s generator the paper compares against.

use crate::generator::{Candidate, TestGenerator};
use metamut_muast::MutRng;
use std::fmt::Write;

/// The program generator.
#[derive(Debug, Default)]
pub struct CsmithLike {
    emitted: usize,
}

impl CsmithLike {
    /// Creates the generator.
    pub fn new() -> Self {
        CsmithLike::default()
    }

    /// Generates one complete program.
    pub fn generate(&self, rng: &mut MutRng) -> String {
        let mut g = Gen {
            rng,
            out: String::with_capacity(1024),
            globals: Vec::new(),
            funcs: Vec::new(),
        };
        g.program();
        g.out
    }
}

impl TestGenerator for CsmithLike {
    fn name(&self) -> &'static str {
        "Csmith"
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        self.emitted += 1;
        Candidate::new(self.generate(rng), None)
    }

    fn feedback(&mut self, _candidate: &Candidate, _new_coverage: bool, _compiled: bool) {
        // Generation-based: no pool to grow.
    }
}

struct Gen<'r> {
    rng: &'r mut MutRng,
    out: String,
    globals: Vec<String>,
    funcs: Vec<String>,
}

impl Gen<'_> {
    fn program(&mut self) {
        let n_globals = self.rng.int_in(2, 5) as usize;
        for i in 0..n_globals {
            let name = format!("g_{i}");
            let init = self.rng.int_in(-100, 100);
            let _ = writeln!(self.out, "int {name} = {init};");
            self.globals.push(name);
        }
        let n_funcs = self.rng.int_in(2, 4) as usize;
        for i in 0..n_funcs {
            self.function(i);
        }
        // main combines every generated function, Csmith checksum style.
        let _ = writeln!(self.out, "int main(void) {{");
        let _ = writeln!(self.out, "    int checksum = 0;");
        let funcs = self.funcs.clone();
        for f in &funcs {
            let a = self.rng.int_in(-9, 9);
            let b = self.rng.int_in(-9, 9);
            let _ = writeln!(self.out, "    checksum += {f}({a}, {b});");
        }
        let _ = writeln!(self.out, "    return checksum & 0xff;");
        let _ = writeln!(self.out, "}}");
    }

    fn function(&mut self, idx: usize) {
        let name = format!("func_{idx}");
        let _ = writeln!(self.out, "int {name}(int p0, int p1) {{");
        let n_locals = self.rng.int_in(1, 4) as usize;
        let mut vars: Vec<String> = vec!["p0".into(), "p1".into()];
        vars.extend(self.globals.iter().cloned());
        for i in 0..n_locals {
            let v = format!("l_{i}");
            let init = self.expr(&vars, 2);
            let _ = writeln!(self.out, "    int {v} = {init};");
            vars.push(v);
        }
        let n_stmts = self.rng.int_in(2, 6) as usize;
        for _ in 0..n_stmts {
            self.statement(&vars, 1);
        }
        let ret = self.expr(&vars, 2);
        let _ = writeln!(self.out, "    return {ret};");
        let _ = writeln!(self.out, "}}");
        self.funcs.push(name);
    }

    fn statement(&mut self, vars: &[String], indent: usize) {
        let pad = "    ".repeat(indent);
        match self.rng.index(5) {
            0 => {
                // Assignment.
                let v = vars[self.rng.index(vars.len())].clone();
                let e = self.expr(vars, 2);
                let _ = writeln!(self.out, "{pad}{v} = {e};");
            }
            1 => {
                // Compound assignment (safe operators only).
                let v = vars[self.rng.index(vars.len())].clone();
                let op = ["+=", "-=", "^=", "|=", "&="][self.rng.index(5)];
                let e = self.expr(vars, 1);
                let _ = writeln!(self.out, "{pad}{v} {op} {e};");
            }
            2 => {
                // Guarded if.
                let c = self.expr(vars, 1);
                let v = vars[self.rng.index(vars.len())].clone();
                let e = self.expr(vars, 1);
                let _ = writeln!(self.out, "{pad}if ({c}) {{ {v} = {e}; }}");
            }
            3 => {
                // Bounded for loop over a fresh counter.
                let v = vars[self.rng.index(vars.len())].clone();
                let n = self.rng.int_in(1, 8);
                let e = self.expr(vars, 1);
                let _ = writeln!(
                    self.out,
                    "{pad}for (int it = 0; it < {n}; it++) {{ {v} += ({e}) & 0xff; }}"
                );
            }
            _ => {
                // Ternary store.
                let v = vars[self.rng.index(vars.len())].clone();
                let c = self.expr(vars, 1);
                let a = self.expr(vars, 1);
                let b = self.expr(vars, 1);
                let _ = writeln!(self.out, "{pad}{v} = ({c}) ? ({a}) : ({b});");
            }
        }
    }

    /// A UB-free integer expression over `vars`.
    fn expr(&mut self, vars: &[String], depth: usize) -> String {
        if depth == 0 || self.rng.chance(0.3) {
            return if self.rng.chance(0.5) && !vars.is_empty() {
                vars[self.rng.index(vars.len())].clone()
            } else {
                self.rng.int_in(-128, 127).to_string()
            };
        }
        let a = self.expr(vars, depth - 1);
        let b = self.expr(vars, depth - 1);
        match self.rng.index(8) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * ({b} & 0xf))"),
            // Division guarded against zero, Csmith's safe_div style.
            3 => format!("({a} / (({b} & 0xf) | 1))"),
            4 => format!("({a} ^ {b})"),
            5 => format!("(({a} << ({b} & 7)) & 0xffff)"),
            6 => format!("({a} < {b})"),
            _ => format!("({a} & {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_valid() {
        let gen = CsmithLike::new();
        let mut rng = MutRng::new(2024);
        for i in 0..30 {
            let p = gen.generate(&mut rng);
            metamut_lang::compile_check(&p)
                .unwrap_or_else(|e| panic!("generated program {i} invalid: {e}\n{p}"));
        }
    }

    #[test]
    fn programs_vary() {
        let gen = CsmithLike::new();
        let mut rng = MutRng::new(1);
        let a = gen.generate(&mut rng);
        let b = gen.generate(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = CsmithLike::new();
        let mut r1 = MutRng::new(9);
        let mut r2 = MutRng::new(9);
        assert_eq!(gen.generate(&mut r1), gen.generate(&mut r2));
    }
}
