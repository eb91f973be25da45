//! Fast, dependency-free key hashing for the shuffle.
//!
//! The shuffle hot path hashes every emitted key to route it to a reduce
//! worker and to group it with the other values for the same key. The
//! standard library's default hasher (SipHash) is keyed and DoS-resistant —
//! qualities an in-process engine over trusted data does not need — and costs
//! several times more per key than a multiply-xor mix. [`FxHasher`] is an
//! in-repo port of the rustc/Firefox "FxHash" scheme: fold each word into the
//! state with a rotate, xor and multiply by a single odd constant.
//!
//! The engine upholds a **hash-once invariant**: the key hash runs exactly
//! once per emitted key-value pair, on the map worker that produced it. The
//! resulting 64-bit hash is carried alongside the record through partitioning
//! ([`crate::shard_for_hash`] reuses it for routing) and grouping (the
//! crate-internal `Prehashed` wrapper and pass-through hasher reuse it for
//! the grouping lookups). In debug builds the
//! engine's counted hashing path bumps a thread-local counter and every map
//! and reduce worker asserts the invariant when it finishes; the public
//! [`hash_of`] helper is uncounted, so user code can hash freely.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// The FxHash multiplier (a 64-bit truncation of π's digits, as used by
/// rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A multiply-xor hasher (FxHash). Not collision-resistant against an
/// adversary — do not use for untrusted input — but 3-5x cheaper than SipHash
/// on the short keys the shuffle routes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Fold the tail length in so "ab" + "" and "a" + "b" differ.
            word[7] = tail.len() as u8;
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.fold(value as u64);
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.fold(value as u64);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.fold(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.fold(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.fold(value as u64);
        self.fold((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.fold(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`BuildHasher`] for [`FxHasher`] (stateless, so hashes are stable across
/// runs and threads — unlike `RandomState`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// The canonical key hash of the engine: one [`FxHasher`] pass over `key`.
///
/// This is the hash [`crate::shard_for_hash`] maps onto a reduce worker and
/// the grouping maps reuse verbatim. Safe to call from user mappers and
/// reducers — the debug-build hash-once accounting only counts the engine's
/// own shuffle-side invocations (see the crate-internal `hash_for_shuffle`).
#[inline]
pub fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// [`hash_of`], counted: the engine's shuffle paths hash every emitted key
/// through this wrapper exactly once, and in debug builds each call bumps the
/// per-thread counter the workers assert against. Crate-internal so user code
/// calling the public [`hash_of`] can never trip the engine's assertions.
#[inline]
pub(crate) fn hash_for_shuffle<K: Hash + ?Sized>(key: &K) -> u64 {
    #[cfg(debug_assertions)]
    debug_hash_count::bump();
    hash_of(key)
}

/// A key bundled with its precomputed [`hash_of`] value. Its `Hash` impl
/// feeds only the stored hash to the hasher, so inserting a `Prehashed<K>`
/// into a [`PrehashedMap`] never re-hashes `K` itself.
#[derive(Clone, Debug)]
pub(crate) struct Prehashed<K> {
    hash: u64,
    key: K,
}

impl<K> Prehashed<K> {
    /// Rebundles a key with a hash computed earlier (e.g. on the map worker
    /// that emitted it).
    #[inline]
    pub(crate) fn from_parts(hash: u64, key: K) -> Self {
        Prehashed { hash, key }
    }

    /// Unwraps the key.
    #[inline]
    pub(crate) fn into_key(self) -> K {
        self.key
    }
}

impl<K: Eq> PartialEq for Prehashed<K> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The hash comparison is a cheap early-out; equal keys always carry
        // equal hashes because both came from the same `hash_of`.
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Prehashed<K> {}

impl<K> Hash for Prehashed<K> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A hasher that passes a single `write_u64` straight through — the partner
/// of [`Prehashed`], turning a hash-map lookup into "use the stored hash".
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PassthroughHasher {
    hash: u64,
}

impl Hasher for PassthroughHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassthroughHasher only accepts the u64 from Prehashed");
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.hash = value;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`BuildHasher`] for [`PassthroughHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BuildPassthroughHasher;

impl BuildHasher for BuildPassthroughHasher {
    type Hasher = PassthroughHasher;

    #[inline]
    fn build_hasher(&self) -> PassthroughHasher {
        PassthroughHasher::default()
    }
}

/// The grouping map of the shuffle: keyed by [`Prehashed`] so every lookup
/// reuses the hash computed when the pair was emitted.
pub(crate) type PrehashedMap<K, V> = HashMap<Prehashed<K>, V, BuildPassthroughHasher>;

/// Creates an empty [`PrehashedMap`] with room for `capacity` keys.
pub(crate) fn prehashed_map_with_capacity<K, V>(capacity: usize) -> PrehashedMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, BuildPassthroughHasher)
}

/// Debug-build test hook: a per-thread count of the engine's counted
/// `hash_for_shuffle` invocations (the public [`hash_of`] does not count).
///
/// The engine's workers [`take`](debug_hash_count::take) the counter when they
/// start and assert the expected count when they finish — each map worker must
/// hash exactly its emitted pairs, each reduce worker must hash nothing. The
/// counter is thread-local, so concurrently running tests (or other engine
/// rounds) cannot disturb the accounting.
#[cfg(debug_assertions)]
pub mod debug_hash_count {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(crate) fn bump() {
        COUNT.with(|count| count.set(count.get() + 1));
    }

    /// Returns the current thread's [`super::hash_of`] call count and resets
    /// it to zero.
    pub fn take() -> u64 {
        COUNT.with(|count| count.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_differ() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
        let distinct: std::collections::HashSet<u64> =
            (0..1000u64).map(|key| hash_of(&key)).collect();
        assert_eq!(distinct.len(), 1000, "sequential u64 keys must not collide");
    }

    #[test]
    fn byte_streams_with_different_boundaries_differ() {
        // The tail-length fold keeps short byte strings from aliasing.
        assert_ne!(hash_of("ab"), hash_of("a"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn prehashed_reuses_the_stored_hash() {
        let prehashed = |key: u64| Prehashed::from_parts(hash_of(&key), key);
        assert_eq!(prehashed(7), prehashed(7));
        assert_ne!(prehashed(7), prehashed(8));
        assert_eq!(prehashed(7).into_key(), 7);

        let mut map = prehashed_map_with_capacity::<u64, u32>(4);
        map.insert(prehashed(1), 10);
        map.insert(prehashed(2), 20);
        assert_eq!(map.get(&prehashed(1)), Some(&10));
        assert_eq!(map.len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_counter_counts_shuffle_hashes_only() {
        let _ = debug_hash_count::take();
        // The public helper never counts — user code cannot trip the engine's
        // hash-once assertions.
        for key in 0..5u64 {
            let _ = hash_of(&key);
        }
        assert_eq!(debug_hash_count::take(), 0);
        // The engine's counted path counts once per key; map operations over
        // Prehashed entries must not hash again.
        let _ = hash_for_shuffle(&7u64);
        let mut map = prehashed_map_with_capacity::<u64, u32>(4);
        map.insert(Prehashed::from_parts(hash_for_shuffle(&99u64), 99u64), 1);
        assert_eq!(debug_hash_count::take(), 2);
        assert_eq!(debug_hash_count::take(), 0);
    }
}
