//! Fast, non-cryptographic hashing used throughout the workspace.
//!
//! Two hashers, each for one kind of key:
//!
//! - [`Fnv64`] (FNV-1a, one multiply per byte) backs [`FastHashMap`] /
//!   [`FastHashSet`] — tables keyed by node ids, XIDs and short strings —
//!   and the unordered matcher's own signatures. It is left as it is, so
//!   no iteration order of those tables moves.
//! - [`WordHash`] folds eight bytes per 64×64→128-bit multiply. It computes
//!   the BULD subtree signatures (phase 2 hashes every node, so a per-byte
//!   multiply would be most of a node's cost) and, through
//!   [`SigHashMap`], hashes keys that already are signatures with a single
//!   fold.
//!
//! Signatures are unkeyed and computed from content a client controls, so
//! anyone can construct documents whose subtrees collide — as they could
//! with FNV. A collision cannot change a delta: every signature match is
//! verified by subtree size and node-by-node equality before it is
//! accepted. What a document built to collide buys is those verification
//! walks, on one candidate list. Signatures live only in memory, for one
//! diff or carried to the next diff of the same document within a process;
//! no delta, XID or log byte depends on either hasher. The one table keyed
//! by raw client text on the hot path, the interner's per-thread cache,
//! uses [`RandomWordState`], a [`WordHash`] with a per-process random
//! initial state.

#![doc = "xylint: hot-path"]

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a (64 bit) hasher.
///
/// Implements [`std::hash::Hasher`] so it can back standard collections via
/// [`FastHashMap`] / [`FastHashSet`].
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A hasher with the standard FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// A hasher seeded with an arbitrary value (used to domain-separate
    /// different kinds of keys).
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h
    }

    /// Absorb raw bytes.
    ///
    /// FNV-1a's xor-multiply chain is inherently sequential, so the loop is
    /// unrolled into 8-byte rounds (same math, one bounds check per round and
    /// better instruction scheduling) rather than vectorized. Output is
    /// bit-identical to the byte-at-a-time definition — the known-vector
    /// tests below pin that down.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // INVARIANT: chunks_exact(8) yields exactly-8-byte slices.
            let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            state ^= w & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 8) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 16) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 24) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 32) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 40) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= (w >> 48) & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            state ^= w >> 56;
            state = state.wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    /// Absorb a 64-bit value as its eight little-endian bytes.
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Final hash value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.state
    }

    /// One-shot convenience: hash a byte slice.
    #[inline]
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.update(bytes);
        h.value()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Initial state of [`WordHash`] (the fractional part of π).
const WORD_INIT: u64 = 0x243f_6a88_85a3_08d3;
/// Multiplier of [`WordHash`]'s fold (the fractional part of the golden
/// ratio, odd).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold: `state ^ word` times a fixed odd constant as a 128-bit
/// product, the two halves xored together.
#[inline]
fn fold(state: u64, word: u64) -> u64 {
    let p = u128::from(state ^ word) * u128::from(WORD_MUL);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The 0–7 bytes of `rest` as a zero-padded little-endian word, read with
/// two overlapping loads instead of a variable-length copy.
#[inline]
fn tail_word(rest: &[u8]) -> u64 {
    let n = rest.len();
    if n >= 4 {
        let (mut lo, mut hi) = ([0u8; 4], [0u8; 4]);
        lo.copy_from_slice(&rest[..4]);
        hi.copy_from_slice(&rest[n - 4..]);
        // The windows overlap on bytes n-4..4, which both hold the same
        // values, so the or is exact.
        u64::from(u32::from_le_bytes(lo)) | (u64::from(u32::from_le_bytes(hi)) << (8 * (n - 4)))
    } else if n > 0 {
        u64::from(rest[0])
            | (u64::from(rest[n / 2]) << (8 * (n / 2)))
            | (u64::from(rest[n - 1]) << (8 * (n - 1)))
    } else {
        0
    }
}

/// Streaming signature hasher: one 64×64→128-bit multiply per eight input
/// bytes, and one per 64-bit value.
///
/// [`WordHash::update`] reads its bytes as little-endian words, zero-pads
/// the last (possibly empty) word and tags it with the update's length in
/// its top byte, so the split of a stream into updates is part of the hash:
/// `"ab"` then `"c"` differs from `"a"` then `"bc"` without separator bytes.
/// [`WordHash::fold`] absorbs a value that is already a hash (a child
/// signature, a label hash) in one step.
///
/// Implements [`std::hash::Hasher`] for [`SigHashMap`]: `write_u64`,
/// `write_u32` and `write_u8` are single folds.
#[derive(Debug, Clone)]
pub struct WordHash {
    state: u64,
}

impl WordHash {
    /// A hasher in the fixed initial state.
    #[inline]
    pub fn new() -> Self {
        WordHash { state: WORD_INIT }
    }

    /// A hasher that has absorbed `seed` (domain separation between node
    /// kinds).
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        WordHash {
            state: fold(WORD_INIT, seed),
        }
    }

    /// Absorb `bytes`: one fold per full word, one for the tagged tail.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // INVARIANT: chunks_exact(8) yields exactly-8-byte slices.
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            state = fold(state, word);
        }
        // The tail holds at most seven bytes, so the top byte is free for
        // the length tag.
        let tag = (bytes.len() as u64 & 0xff) << 56;
        self.state = fold(state, tail_word(chunks.remainder()) | tag);
    }

    /// Absorb one 64-bit value in a single fold.
    #[inline]
    pub fn fold(&mut self, v: u64) {
        self.state = fold(self.state, v);
    }

    /// Final hash value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.state
    }

    /// One-shot convenience: hash a byte slice.
    #[inline]
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = WordHash::new();
        h.update(bytes);
        h.value()
    }
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash::new()
    }
}

impl Hasher for WordHash {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }
}

/// Builds [`WordHash`]es whose initial state is a per-process random value:
/// for tables keyed by text from outside the program (the interner's
/// per-thread cache), where a fixed state would let an input choose names
/// that all land in one probe sequence.
#[derive(Debug, Clone, Copy)]
pub struct RandomWordState {
    state: u64,
}

impl RandomWordState {
    /// The process's random state (drawn once, from the standard library's
    /// per-process hash keys).
    pub fn new() -> Self {
        static STATE: OnceLock<u64> = OnceLock::new();
        let state = *STATE.get_or_init(|| RandomState::new().build_hasher().finish());
        RandomWordState { state }
    }
}

impl Default for RandomWordState {
    fn default() -> Self {
        RandomWordState::new()
    }
}

impl BuildHasher for RandomWordState {
    type Hasher = WordHash;

    #[inline]
    fn build_hasher(&self) -> WordHash {
        WordHash { state: self.state }
    }
}

/// `HashMap` for keys that already are uniform hashes (subtree signatures,
/// and pairs of node ids beside them): one fold per key word.
pub type SigHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHash>>;

/// `HashMap` with the fast FNV hasher.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv64>>;
/// `HashSet` with the fast FNV hasher.
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<Fnv64>>;

/// Create an empty [`FastHashMap`].
pub fn fast_map<K, V>() -> FastHashMap<K, V> {
    FastHashMap::default()
}

/// Create an empty [`FastHashMap`] with a capacity hint.
pub fn fast_map_with_capacity<K, V>(cap: usize) -> FastHashMap<K, V> {
    FastHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

/// Create an empty [`FastHashSet`].
pub fn fast_set<K>() -> FastHashSet<K> {
    FastHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv64::hash_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv64::hash_bytes(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv64::hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.value(), Fnv64::hash_bytes(b"foobar"));
    }

    #[test]
    fn long_input_matches_reference_loop() {
        // Exercises the unrolled 8-byte rounds plus the remainder tail on an
        // input well past 64 bytes, against the textbook byte-at-a-time loop.
        let data: Vec<u8> = (0u16..517).map(|i| (i % 251) as u8).collect();
        let mut reference = 0xcbf2_9ce4_8422_2325u64;
        for &b in &data {
            reference ^= u64::from(b);
            reference = reference.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(Fnv64::hash_bytes(&data), reference);
        // Split across updates at an offset that misaligns the chunks.
        let mut h = Fnv64::new();
        h.update(&data[..13]);
        h.update(&data[13..]);
        assert_eq!(h.value(), reference);
    }

    #[test]
    fn seed_separates_domains() {
        let a = {
            let mut h = Fnv64::with_seed(1);
            h.update(b"x");
            h.value()
        };
        let b = {
            let mut h = Fnv64::with_seed(2);
            h.update(b"x");
            h.value()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastHashMap<&str, u32> = fast_map();
        m.insert("k", 1);
        assert_eq!(m.get("k"), Some(&1));
        let mut s: FastHashSet<u64> = fast_set();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn update_u64_differs_from_bytes_of_other_value() {
        let mut a = Fnv64::new();
        a.update_u64(1);
        let mut b = Fnv64::new();
        b.update_u64(2);
        assert_ne!(a.value(), b.value());
    }

    /// The fold and the tail rule spelled out byte by byte, independently of
    /// `chunks_exact` and `from_le_bytes`.
    fn word_reference(seed: Option<u64>, updates: &[&[u8]]) -> u64 {
        let step = |state: u64, word: u64| {
            let p = (state ^ word) as u128 * 0x9e37_79b9_7f4a_7c15u128;
            (p as u64) ^ ((p >> 64) as u64)
        };
        let mut state = 0x243f_6a88_85a3_08d3u64;
        if let Some(seed) = seed {
            state = step(state, seed);
        }
        for bytes in updates {
            let mut i = 0;
            while i + 8 <= bytes.len() {
                let mut w = 0u64;
                for k in 0..8 {
                    w |= u64::from(bytes[i + k]) << (8 * k);
                }
                state = step(state, w);
                i += 8;
            }
            let mut w = (bytes.len() as u64 & 0xff) << 56;
            for k in 0..bytes.len() - i {
                w |= u64::from(bytes[i + k]) << (8 * k);
            }
            state = step(state, w);
        }
        state
    }

    /// Pinned outputs: a change to the fold, the constants or the tail rule
    /// must be deliberate.
    const KNOWN: [u64; 5] = [
        0xe184_8576_4ba0_3644,
        0xb0be_fd16_dc8a_cbe9,
        0xaf52_63fb_91e5_e56f,
        0xdd10_efcb_c5fb_09b3,
        0xd214_f7ce_6436_f0b1,
    ];

    #[test]
    fn word_hash_known_vectors() {
        assert_eq!(WordHash::hash_bytes(b""), KNOWN[0]);
        assert_eq!(WordHash::hash_bytes(b"a"), KNOWN[1]);
        assert_eq!(WordHash::hash_bytes(b"foobar"), KNOWN[2]);
        assert_eq!(WordHash::hash_bytes(b"signature"), KNOWN[3]);
        let mut h = WordHash::with_seed(0xE1E);
        h.fold(7);
        assert_eq!(h.value(), KNOWN[4]);
    }

    #[test]
    fn word_hash_tails_match_reference_loop() {
        let data: Vec<u8> = (0u8..40)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=16 {
            let bytes = &data[..len];
            assert_eq!(
                WordHash::hash_bytes(bytes),
                word_reference(None, &[bytes]),
                "len {len}"
            );
            let mut h = WordHash::with_seed(0x7E7);
            h.update(bytes);
            h.update(&data[len..len + 3]);
            assert_eq!(
                h.value(),
                word_reference(Some(0x7E7), &[bytes, &data[len..len + 3]]),
                "len {len}"
            );
        }
    }

    #[test]
    fn word_hash_update_boundaries_are_part_of_the_hash() {
        let split = |parts: &[&[u8]]| {
            let mut h = WordHash::new();
            for p in parts {
                h.update(p);
            }
            h.value()
        };
        assert_ne!(split(&[b"ab", b"c"]), split(&[b"a", b"bc"]));
        assert_ne!(split(&[b"abcdefgh", b""]), split(&[b"abcdefgh"]));
        assert_ne!(split(&[b"ab"]), split(&[b"ab\0"]));
        assert_ne!(split(&[b""]), split(&[]));
    }

    #[test]
    fn random_state_is_one_per_process_and_keys_the_hash() {
        let (a, b) = (RandomWordState::new(), RandomWordState::new());
        let hash = |s: &RandomWordState| {
            let mut h = s.build_hasher();
            h.update(b"product");
            h.value()
        };
        assert_eq!(hash(&a), hash(&b), "one state per process");
        assert_ne!(a.state, WORD_INIT);
        let mut m: HashMap<&str, u32, RandomWordState> = HashMap::default();
        m.insert("name", 1);
        assert_eq!(m.get("name"), Some(&1));
    }

    #[test]
    fn sig_hash_map_works() {
        let mut m: SigHashMap<(u64, u32), u32> = SigHashMap::default();
        for i in 0..1000u64 {
            m.insert((i.wrapping_mul(WORD_MUL), i as u32), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(5u64.wrapping_mul(WORD_MUL), 5)), Some(&5));
    }
}
