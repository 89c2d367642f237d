//! AFL++ analogue: a coverage-guided byte-level havoc fuzzer with no
//! semantic awareness. Most of its mutants fail to compile (Table 5: 3.5%
//! compilable) but its byte soup explores front-end error handling.

use crate::generator::{Candidate, SeedPool, TestGenerator};
use metamut_muast::MutRng;

/// The byte-level fuzzer.
#[derive(Debug)]
pub struct AflPlusPlus {
    pool: SeedPool,
    /// Maximum havoc stacking per candidate.
    max_stack: usize,
    /// Input size cap (resource-limit enhancement #4 of §3.4).
    max_len: usize,
}

impl AflPlusPlus {
    /// Creates the fuzzer over the seed corpus.
    pub fn new(seeds: impl IntoIterator<Item = String>) -> Self {
        AflPlusPlus {
            pool: SeedPool::new(seeds),
            max_stack: 8,
            max_len: 1 << 16,
        }
    }

    fn havoc_once(buf: &mut Vec<u8>, rng: &mut MutRng) {
        if buf.is_empty() {
            buf.extend_from_slice(b"A");
            return;
        }
        match rng.index(7) {
            // Bit flip.
            0 => {
                let i = rng.index(buf.len());
                let bit = rng.index(8);
                buf[i] ^= 1 << bit;
            }
            // Random byte overwrite.
            1 => {
                let i = rng.index(buf.len());
                buf[i] = rng.int_in(0, 255) as u8;
            }
            // Interesting-byte overwrite (AFL's interesting values).
            2 => {
                let i = rng.index(buf.len());
                let interesting = [0u8, 1, 0x7f, 0x80, 0xff, b'(', b')', b'{', b'}', b'"', b';'];
                buf[i] = interesting[rng.index(interesting.len())];
            }
            // Delete a block.
            3 => {
                let start = rng.index(buf.len());
                let len = (rng.index(16) + 1).min(buf.len() - start);
                let tail = buf.split_off(start);
                buf.extend_from_slice(&tail[len.min(tail.len())..]);
            }
            // Duplicate a block (how `((((` stacks arise from seeds).
            4 => {
                let start = rng.index(buf.len());
                let len = (rng.index(32) + 1).min(buf.len() - start);
                let block: Vec<u8> = buf[start..start + len].to_vec();
                let at = rng.index(buf.len() + 1);
                let tail = buf.split_off(at);
                buf.extend_from_slice(&block);
                buf.extend_from_slice(&tail);
            }
            // Repeat one byte as a run (AFL's block-insert of a constant),
            // the op that grows "((((" stacks and long identifiers.
            5 => {
                let i = rng.index(buf.len());
                let b = buf[i];
                let n = rng.index(24) + 4;
                let tail = buf.split_off(i);
                buf.extend_from_slice(&vec![b; n]);
                buf.extend_from_slice(&tail);
            }
            // Insert random byte.
            _ => {
                let at = rng.index(buf.len() + 1);
                let tail = buf.split_off(at);
                buf.extend_from_slice(&[rng.int_in(32, 126) as u8]);
                buf.extend_from_slice(&tail);
            }
        }
    }
}

impl TestGenerator for AflPlusPlus {
    fn name(&self) -> &'static str {
        "AFL++"
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        let (parent_idx, parent) = self.pool.pick(rng);
        let mut buf = parent.as_bytes().to_vec();
        let stack = rng.index(self.max_stack) + 1;
        for _ in 0..stack {
            Self::havoc_once(&mut buf, rng);
            if buf.len() > self.max_len {
                buf.truncate(self.max_len);
            }
        }
        // The compiler takes UTF-8; lossily repair like AFL harnesses do.
        let program = String::from_utf8_lossy(&buf).into_owned();
        Candidate::new(program, Some(parent_idx))
    }

    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, _compiled: bool) {
        if new_coverage {
            self.pool.push(candidate.program.clone());
        }
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn seed_source(&self, index: usize) -> Option<&str> {
        self.pool.get(index)
    }

    fn drain_new_seeds(&mut self) -> Vec<String> {
        self.pool.take_new_seeds()
    }

    fn adopt_seeds(&mut self, seeds: Vec<String>) {
        self.pool.adopt(seeds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;

    fn fuzzer() -> AflPlusPlus {
        AflPlusPlus::new(seed_corpus().iter().map(|s| s.to_string()))
    }

    #[test]
    fn mutates_bytes() {
        let mut f = fuzzer();
        let mut rng = MutRng::new(3);
        let mut changed = 0;
        for _ in 0..20 {
            let c = f.next_candidate(&mut rng);
            if c.parent
                .map(|i| f.pool.get(i) != Some(c.program.as_str()))
                .unwrap_or(true)
            {
                changed += 1;
            }
        }
        assert!(changed >= 18, "{changed}/20");
    }

    #[test]
    fn most_mutants_do_not_compile() {
        let mut f = fuzzer();
        let mut rng = MutRng::new(5);
        let mut compiled = 0;
        let total = 60;
        for _ in 0..total {
            let c = f.next_candidate(&mut rng);
            if metamut_lang::compile_check(&c.program).is_ok() {
                compiled += 1;
            }
        }
        // Table 5: ~3.5% for AFL++. Allow generous slack, but far below the
        // semantic fuzzers.
        assert!(
            compiled * 4 < total,
            "byte fuzzer compiled {compiled}/{total}"
        );
    }

    #[test]
    fn respects_length_cap() {
        let mut f = fuzzer();
        f.max_len = 128;
        let mut rng = MutRng::new(9);
        for _ in 0..50 {
            let c = f.next_candidate(&mut rng);
            // Lossy UTF-8 repair can expand each invalid byte to a 3-byte
            // replacement character, so the cap is on the pre-repair bytes.
            assert!(c.program.len() <= 3 * 128, "len {}", c.program.len());
            f.feedback(&c, false, false);
        }
    }
}
