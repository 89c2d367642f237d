//! YARPGen analogue: a generation-based fuzzer specialized toward loop
//! nests and array kernels — modelling YARPGen v2's focus on loop
//! optimizations (§6, reference 36 in the paper), which explains why it finds
//! loop-optimizer bugs but few general crashes.

use crate::generator::{Candidate, TestGenerator};
use metamut_muast::MutRng;
use std::fmt::Write;

/// The loop-kernel generator.
#[derive(Debug, Default)]
pub struct YarpGenLike {
    emitted: usize,
}

impl YarpGenLike {
    /// Creates the generator.
    pub fn new() -> Self {
        YarpGenLike::default()
    }

    /// Generates one loop-heavy program.
    pub fn generate(&self, rng: &mut MutRng) -> String {
        let mut out = String::with_capacity(1024);
        let arrays = rng.int_in(2, 4) as usize;
        let size = [8usize, 16, 32][rng.index(3)];
        for i in 0..arrays {
            let _ = writeln!(out, "int arr_{i}[{size}];");
        }
        let _ = writeln!(out, "int scalar_acc;");

        let kernels = rng.int_in(1, 3) as usize;
        for k in 0..kernels {
            let _ = writeln!(out, "void kernel_{k}(void) {{");
            let depth = rng.int_in(1, 2) as usize;
            let body_stmts = rng.int_in(1, 4) as usize;
            // Loop nest header(s).
            for d in 0..depth {
                let pad = "    ".repeat(d + 1);
                let step = rng.int_in(1, 2);
                let _ = writeln!(
                    out,
                    "{pad}for (int i{d} = 0; i{d} < {size}; i{d} += {step}) {{"
                );
            }
            let pad = "    ".repeat(depth + 1);
            for _ in 0..body_stmts {
                let dst = rng.index(arrays);
                let src = rng.index(arrays);
                let idx = format!("i0 & {}", size - 1);
                match rng.index(4) {
                    0 => {
                        let _ = writeln!(
                            out,
                            "{pad}arr_{dst}[{idx}] = arr_{src}[{idx}] + {};",
                            rng.int_in(1, 9)
                        );
                    }
                    1 => {
                        let _ = writeln!(
                            out,
                            "{pad}arr_{dst}[{idx}] += arr_{src}[{idx}] * {};",
                            rng.int_in(1, 4)
                        );
                    }
                    2 => {
                        let _ = writeln!(out, "{pad}scalar_acc += arr_{src}[{idx}];");
                    }
                    _ => {
                        let _ = writeln!(
                            out,
                            "{pad}arr_{dst}[{idx}] = scalar_acc ^ arr_{src}[{idx}];"
                        );
                    }
                }
            }
            for d in (0..depth).rev() {
                let pad = "    ".repeat(d + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            let _ = writeln!(out, "}}");
        }

        let _ = writeln!(out, "int main(void) {{");
        for i in 0..arrays {
            let _ = writeln!(out, "    for (int i = 0; i < {size}; i++) arr_{i}[i] = i;");
        }
        for k in 0..kernels {
            let _ = writeln!(out, "    kernel_{k}();");
        }
        let _ = writeln!(out, "    return (scalar_acc + arr_0[0]) & 0xff;");
        let _ = writeln!(out, "}}");
        out
    }
}

impl TestGenerator for YarpGenLike {
    fn name(&self) -> &'static str {
        "YARPGen"
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        self.emitted += 1;
        Candidate::new(self.generate(rng), None)
    }

    fn feedback(&mut self, _candidate: &Candidate, _new_coverage: bool, _compiled: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compile() {
        let gen = YarpGenLike::new();
        let mut rng = MutRng::new(77);
        for i in 0..30 {
            let p = gen.generate(&mut rng);
            metamut_lang::compile_check(&p)
                .unwrap_or_else(|e| panic!("kernel {i} invalid: {e}\n{p}"));
        }
    }

    #[test]
    fn programs_are_loop_heavy() {
        let gen = YarpGenLike::new();
        let mut rng = MutRng::new(5);
        let p = gen.generate(&mut rng);
        assert!(p.matches("for (").count() >= 3, "{p}");
        assert!(p.contains("arr_0"));
    }
}
