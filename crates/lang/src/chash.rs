//! Collision-resistant 128-bit content hashing (SipHash-2-4-128).
//!
//! The UB gate's content-addressed memos (`metamut-analyze::gate`), the
//! mutant dedup cache and the whole-program caches key shared tables by
//! *content*: two seeds — or two tenants of the serve daemon — that
//! contain a byte-identical function must map it to the same key, and two
//! *different* inputs must never collide, because a collision silently
//! serves one program's results to another. The 64-bit FxHash used
//! for dirty-set detection is fine when a collision merely costs a
//! fallback, but it is not fit to *address* shared artifacts: at
//! campaign scale (millions of mutants per tenant, many tenants per
//! daemon) the 64-bit birthday bound is uncomfortably close. This
//! module provides a fixed-key SipHash-2-4 with the 128-bit finalization
//! from the reference implementation: keyless determinism (the same
//! content hashes identically across processes and checkpoint resumes),
//! strong mixing, and a 2^64 birthday bound.
//!
//! Implemented from the SipHash specification; no external crates.

/// Streaming SipHash-2-4 state with 128-bit finalization.
///
/// The key is fixed (arbitrary odd constants): this is a *content* hash,
/// not a DoS-resistant map hasher, and determinism across processes is a
/// feature — the serve daemon's checkpoint/resume paths must rebuild
/// byte-identical keys.
#[derive(Clone, Debug)]
pub struct Sip128 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    buf: [u8; 8],
    buf_len: usize,
    len: u64,
}

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0x6a09_e667_f3bc_c909;

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl Default for Sip128 {
    fn default() -> Self {
        Self::with_keys(K0, K1)
    }
}

impl Sip128 {
    /// A hasher with explicit keys (used by the known-answer tests; all
    /// production call sites use [`Sip128::default`]'s fixed keys).
    pub fn with_keys(k0: u64, k1: u64) -> Self {
        Sip128 {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            // The 128-bit variant of SipHash XORs 0xee into v1 at init.
            v1: k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            buf: [0; 8],
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
    }

    /// Feeds raw bytes. Successive writes are equivalent to one
    /// concatenated write; callers that hash multiple variable-length
    /// fields must add their own framing (see [`Sip128::write_str`]).
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let need = 8 - self.buf_len;
            let take = need.min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < 8 {
                return;
            }
            let m = u64::from_le_bytes(self.buf);
            self.compress(m);
            self.buf_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let m = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.compress(m);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Feeds a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Feeds a `u128` (little-endian).
    #[inline]
    pub fn write_u128(&mut self, x: u128) {
        self.write(&x.to_le_bytes());
    }

    /// Feeds a length-prefixed string, so adjacent field boundaries can
    /// never alias (`("ab","c")` vs `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The 128-bit digest of everything written so far. Takes `&self`:
    /// finalization runs on a copy, so a hasher can be reused as a
    /// common prefix for several derived keys.
    pub fn finish128(&self) -> u128 {
        let mut s = self.clone();
        let mut last = [0u8; 8];
        last[..s.buf_len].copy_from_slice(&s.buf[..s.buf_len]);
        let m = u64::from_le_bytes(last) | (s.len & 0xff) << 56;
        s.compress(m);
        s.v2 ^= 0xee;
        for _ in 0..4 {
            sipround(&mut s.v0, &mut s.v1, &mut s.v2, &mut s.v3);
        }
        let lo = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
        s.v1 ^= 0xdd;
        for _ in 0..4 {
            sipround(&mut s.v0, &mut s.v1, &mut s.v2, &mut s.v3);
        }
        let hi = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
        (lo as u128) | ((hi as u128) << 64)
    }
}

/// One-shot 128-bit content hash of a byte string.
pub fn hash128(bytes: &[u8]) -> u128 {
    let mut h = Sip128::default();
    h.write(bytes);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash authors' `vectors_sip128`
    /// table: key `00 01 .. 0f`, messages `[]`, `[0]`, `[0,1]`, ...
    #[test]
    fn matches_reference_siphash_2_4_128() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let expected: [[u8; 16]; 4] = [
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93,
            ],
            [
                0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
                0xfc, 0x45,
            ],
            [
                0x81, 0x77, 0x22, 0x8d, 0xa4, 0xa4, 0x5d, 0xc7, 0xfc, 0xa3, 0x8b, 0xde, 0xf6, 0x0a,
                0xff, 0xe4,
            ],
            [
                0x9c, 0x70, 0xb6, 0x0c, 0x52, 0x67, 0xa9, 0x4e, 0x5f, 0x33, 0xb6, 0xb0, 0x29, 0x85,
                0xed, 0x51,
            ],
        ];
        for (n, want) in expected.iter().enumerate() {
            let mut h = Sip128::with_keys(k0, k1);
            let msg: Vec<u8> = (0..n as u8).collect();
            h.write(&msg);
            let d = h.finish128();
            let mut got = [0u8; 16];
            got[..8].copy_from_slice(&(d as u64).to_le_bytes());
            got[8..].copy_from_slice(&((d >> 64) as u64).to_le_bytes());
            assert_eq!(&got, want, "message length {n}");
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let one = hash128(data);
        for split in [0usize, 1, 7, 8, 9, 20, data.len()] {
            let mut h = Sip128::default();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish128(), one, "split at {split}");
        }
    }

    #[test]
    fn framing_separates_adjacent_fields() {
        let mut a = Sip128::default();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Sip128::default();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish128(), b.finish128());
    }

    #[test]
    fn finish_is_reusable_as_a_prefix() {
        let mut h = Sip128::default();
        h.write_str("prefix");
        let p = h.finish128();
        let mut h2 = h.clone();
        h2.write_str("suffix");
        assert_eq!(h.finish128(), p, "finish128 must not consume the state");
        assert_ne!(h2.finish128(), p);
    }
}
