//! Reducer key spaces: a reducer's key is its index.
//!
//! Every key of a Section 2.3 / Section 4 round is a short sequence of bucket
//! numbers, and the set of keys a round can use is known before the first
//! edge is mapped: the non-decreasing `p`-sequences over `b` buckets
//! (bucket-oriented processing and the bucket-ordered triangle algorithm), or
//! the share vectors `∏ [0, shares[i])` (variable- and CQ-oriented
//! processing). A [`KeySpace`] enumerates that set once per round and ranks
//! it, so the shuffle carries a `u32` reducer index — one multiply to hash,
//! one or two varint bytes on the wire — and the mapper's whole job becomes
//! "hash the two endpoints, emit the edge to a precomputed slice of indices".
//!
//! Ranks follow the **lexicographic order of the coordinate sequences**
//! (multisets by the combinatorial number system, share vectors mixed-radix
//! with the first coordinate most significant), so sorting reducers by index
//! is sorting them by coordinates and the engine's deterministic reduce order
//! is the one the sequence-valued keys had.
//!
//! The byte *pricing* of a shuffled record does not follow the encoding: the
//! rounds keep charging `4 · p + size_of::<Edge>()` per record (see
//! `vec_key_record_bytes` in the bucket-oriented module), the logical cost of
//! shipping the coordinates, so the planner's predicted `shuffle_bytes` still
//! match measurement exactly. What the arena really carries is reported
//! separately as `JobMetrics::wire_bytes`.

use std::fmt;

/// Most entries the destination table of [`KeySpace::multisets`], or the
/// offset tables of a [`KeySpace::grid`] together, may hold (1 GiB of
/// indices). The table has about `p² / 2` entries per key, so the bound is
/// far beyond any reducer budget the table is worth building for.
pub(crate) const MAX_DESTINATIONS: usize = 1 << 28;

/// Why a key space cannot be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySpaceError {
    /// `b = 0`, or a share of 0: there is no bucket to hash a node into.
    NoBuckets,
    /// Keys need between 2 coordinates (a pattern has an edge) and 256
    /// (conjunctive-query variables are `u8`).
    Width(usize),
    /// More than `u32::MAX` keys, or routing tables (the multisets'
    /// destination table, the grid's offset tables) over `MAX_DESTINATIONS`
    /// (2^28) entries.
    TooLarge,
}

impl fmt::Display for KeySpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeySpaceError::NoBuckets => write!(f, "a key space needs at least one bucket"),
            KeySpaceError::Width(p) => {
                write!(f, "a reducer key has 2 to 256 coordinates, not {p}")
            }
            KeySpaceError::TooLarge => write!(
                f,
                "the key space exceeds u32::MAX keys or {MAX_DESTINATIONS} table entries"
            ),
        }
    }
}

impl std::error::Error for KeySpaceError {}

#[derive(Clone, Debug)]
enum Shape {
    /// Non-decreasing sequences over `buckets` values.
    Multisets {
        buckets: u32,
        /// `sequences[l * (buckets + 1) + r]`: how many non-decreasing
        /// sequences of length `l` exist over `r` values, `C(r + l − 1, l)`.
        sequences: Vec<u32>,
        /// Keys per unordered bucket pair, `C(b + p − 3, p − 2)`.
        per_pair: usize,
        /// Pair-major: the ascending indices of the keys containing the pair.
        destinations: Vec<u32>,
    },
    /// Share vectors; `strides[i]` is the index weight of coordinate `i`.
    Grid { shares: Vec<u32>, strides: Vec<u32> },
}

/// The enumerated, ranked key set of one round (see the module docs).
#[derive(Clone, Debug)]
pub struct KeySpace {
    width: usize,
    len: u32,
    shape: Shape,
}

/// Advances a non-decreasing sequence over `0..buckets` to its lexicographic
/// successor; `false` (sequence unchanged) after the last one.
fn next_multiset(coords: &mut [u32], buckets: u32) -> bool {
    let Some(at) = coords.iter().rposition(|&c| c + 1 < buckets) else {
        return false;
    };
    let value = coords[at] + 1;
    coords[at..].fill(value);
    true
}

/// `C(values + length − 1, length)`, the non-decreasing sequences of `length`
/// over `values ≥ 1` values, if a `u32` holds it.
fn multiset_count(values: usize, length: usize) -> Option<u32> {
    // The running value is the count for the lengths 0, 1, …: it only grows.
    let mut count = 1u64;
    for i in 0..length as u64 {
        count = count * (values as u64 + i) / (i + 1);
        if count > u64::from(u32::MAX) {
            return None;
        }
    }
    Some(count as u32)
}

/// Key count and keys per bucket pair of the multiset space over `b` buckets
/// and `p` coordinates, or why it cannot be built.
fn multiset_sizes(b: usize, p: usize) -> Result<(u32, usize), KeySpaceError> {
    check_width(p)?;
    if b == 0 {
        return Err(KeySpaceError::NoBuckets);
    }
    // Each of the b(b + 1)/2 bucket pairs owns a run of the table, so more
    // buckets than this cannot fit; the bound also keeps `sequences` small.
    if b >= 1 << 15 {
        return Err(KeySpaceError::TooLarge);
    }
    let len = multiset_count(b, p).ok_or(KeySpaceError::TooLarge)?;
    let per_pair = multiset_count(b, p - 2).ok_or(KeySpaceError::TooLarge)? as usize;
    (b * (b + 1) / 2)
        .checked_mul(per_pair)
        .filter(|&entries| entries <= MAX_DESTINATIONS)
        .ok_or(KeySpaceError::TooLarge)?;
    Ok((len, per_pair))
}

fn check_width(p: usize) -> Result<(), KeySpaceError> {
    if (2..=256).contains(&p) {
        Ok(())
    } else {
        Err(KeySpaceError::Width(p))
    }
}

impl KeySpace {
    /// `Ok` exactly when [`KeySpace::multisets`] would build the space —
    /// the same checked arithmetic, nothing allocated — so a planner can turn
    /// a bucket count down before a round is asked to run with it.
    pub fn check_multisets(b: usize, p: usize) -> Result<(), KeySpaceError> {
        multiset_sizes(b, p).map(|_| ())
    }

    /// The `C(b + p − 1, p)` non-decreasing `p`-sequences over `b` buckets
    /// (Theorem 4.2), with the destination table the mappers route by.
    pub fn multisets(b: usize, p: usize) -> Result<Self, KeySpaceError> {
        let (len, per_pair) = multiset_sizes(b, p)?;
        let buckets = b as u32;
        let columns = b + 1;
        // No entry exceeds the last one, `len`.
        let mut sequences = vec![0u32; (p + 1) * columns];
        sequences[..columns].fill(1);
        for l in 1..=p {
            for r in 1..columns {
                let at = l * columns + r;
                sequences[at] = sequences[at - 1] + sequences[at - columns];
            }
        }
        debug_assert_eq!(sequences[p * columns + b], len);
        let pairs = b * (b + 1) / 2;

        // One pass over the keys in index order: key `index` joins the run of
        // every distinct bucket pair it contains, so each run ends up
        // ascending and exactly `per_pair` long.
        let mut destinations = vec![0u32; pairs * per_pair];
        let mut filled = vec![0usize; pairs];
        let mut coords = vec![0u32; p];
        for index in 0..len {
            for i in 0..p {
                if i > 0 && coords[i] == coords[i - 1] {
                    continue;
                }
                for j in i + 1..p {
                    if j > i + 1 && coords[j] == coords[j - 1] {
                        continue;
                    }
                    let pair = pair_index(buckets, coords[i], coords[j]);
                    destinations[pair * per_pair + filled[pair]] = index;
                    filled[pair] += 1;
                }
            }
            let more = next_multiset(&mut coords, buckets);
            debug_assert_eq!(more, index + 1 < len);
        }
        debug_assert!(filled.iter().all(|&n| n == per_pair));
        Ok(KeySpace {
            width: p,
            len,
            shape: Shape::Multisets {
                buckets,
                sequences,
                per_pair,
                destinations,
            },
        })
    }

    /// The share vectors `∏ [0, shares[i])` of Sections 4.1 / 4.3.
    pub fn grid(shares: &[u32]) -> Result<Self, KeySpaceError> {
        check_width(shares.len())?;
        if shares.contains(&0) {
            return Err(KeySpaceError::NoBuckets);
        }
        let mut strides = vec![1u32; shares.len()];
        let mut len = 1u32;
        for (stride, &share) in strides.iter_mut().zip(shares).rev() {
            *stride = len;
            len = len.checked_mul(share).ok_or(KeySpaceError::TooLarge)?;
        }
        // A round keeps one `free_offsets` table per role an edge is shipped
        // in, and any ordered pair of coordinates can be a role: together
        // they stay within the bound the multiset table has.
        let table = |a: usize, b: usize| u64::from(len / shares[a] / shares[b]);
        let tables: u64 = (0..shares.len())
            .flat_map(|a| (0..a).map(move |b| (a, b)))
            .map(|(a, b)| 2 * table(a, b))
            .sum();
        if tables > MAX_DESTINATIONS as u64 {
            return Err(KeySpaceError::TooLarge);
        }
        Ok(KeySpace {
            width: shares.len(),
            len,
            shape: Shape::Grid {
                shares: shares.to_vec(),
                strides,
            },
        })
    }

    /// Coordinates per key: the pattern's node count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of keys — the reducers the round could use.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Never: a key space holds at least the all-zero key.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The coordinate sequence of key `index`.
    pub fn coords(&self, index: u32) -> Vec<u32> {
        assert!(index < self.len, "key {index} of {}", self.len);
        let mut rest = index;
        match &self.shape {
            Shape::Multisets {
                buckets, sequences, ..
            } => {
                let columns = *buckets as usize + 1;
                let mut value = 0u32;
                (0..self.width)
                    .map(|i| {
                        // Keys whose coordinate `i` is `value` come in one
                        // block, one per way to finish over `value..buckets`.
                        let row = (self.width - 1 - i) * columns;
                        loop {
                            let block = sequences[row + (buckets - value) as usize];
                            if rest < block {
                                return value;
                            }
                            rest -= block;
                            value += 1;
                        }
                    })
                    .collect()
            }
            Shape::Grid { strides, .. } => strides
                .iter()
                .map(|&stride| {
                    let coord = rest / stride;
                    rest %= stride;
                    coord
                })
                .collect(),
        }
    }

    /// The index of a coordinate sequence — the inverse of [`KeySpace::coords`].
    ///
    /// # Panics
    /// Panics if `coords` is not a key of this space.
    pub fn rank(&self, coords: &[u32]) -> u32 {
        assert_eq!(coords.len(), self.width, "key width");
        match &self.shape {
            Shape::Multisets {
                buckets, sequences, ..
            } => {
                let columns = *buckets as usize + 1;
                let mut previous = 0u32;
                let mut index = 0u32;
                for (i, &coord) in coords.iter().enumerate() {
                    assert!(
                        previous <= coord && coord < *buckets,
                        "{coords:?} is not a non-decreasing sequence below {buckets}"
                    );
                    // Skip the blocks of the smaller values `previous..coord`:
                    // by the hockey-stick identity they sum to a difference
                    // of two entries one row up.
                    let row = (self.width - i) * columns;
                    index += sequences[row + (buckets - previous) as usize]
                        - sequences[row + (buckets - coord) as usize];
                    previous = coord;
                }
                index
            }
            Shape::Grid { shares, strides } => coords
                .iter()
                .zip(shares.iter().zip(strides))
                .map(|(&coord, (&share, &stride))| {
                    assert!(coord < share, "{coords:?} is outside the shares {shares:?}");
                    coord * stride
                })
                .sum(),
        }
    }

    /// The keys an edge with endpoint buckets `bu` and `bv` is shipped to:
    /// every multiset containing both, ascending, `C(b + p − 3, p − 2)` of
    /// them (Section 4.5).
    ///
    /// # Panics
    /// Panics on a grid space or a bucket out of range.
    #[inline]
    pub fn destinations(&self, bu: u32, bv: u32) -> &[u32] {
        let Shape::Multisets {
            buckets,
            per_pair,
            destinations,
            ..
        } = &self.shape
        else {
            panic!("share vectors route by stride, not by destination table");
        };
        let (lo, hi) = if bu <= bv { (bu, bv) } else { (bv, bu) };
        assert!(hi < *buckets, "bucket {hi} of {buckets}");
        let start = pair_index(*buckets, lo, hi) * per_pair;
        &destinations[start..start + per_pair]
    }

    /// The index weight of coordinate `var` of a share vector.
    ///
    /// # Panics
    /// Panics on a multiset space.
    pub fn stride(&self, var: usize) -> u32 {
        match &self.shape {
            Shape::Grid { strides, .. } => strides[var],
            Shape::Multisets { .. } => panic!("multisets have no per-coordinate stride"),
        }
    }

    /// Index contributions of every combination of the coordinates other
    /// than `a` and `b`, ascending: adding the contributions of `a` and `b`
    /// to each gives the keys that agree with an edge on those two.
    ///
    /// # Panics
    /// Panics on a multiset space.
    pub fn free_offsets(&self, a: usize, b: usize) -> Vec<u32> {
        let Shape::Grid { shares, strides } = &self.shape else {
            panic!("multisets route by destination table, not by stride");
        };
        let mut offsets = vec![0u32];
        for (d, (&share, &stride)) in shares.iter().zip(strides).enumerate() {
            if d != a && d != b && share > 1 {
                offsets = offsets
                    .iter()
                    .flat_map(|&base| (0..share).map(move |x| base + x * stride))
                    .collect();
            }
        }
        offsets
    }
}

/// Position of the unordered pair `lo ≤ hi` among the `b(b + 1)/2` pairs.
#[inline]
fn pair_index(buckets: u32, lo: u32, hi: u32) -> usize {
    let (b, lo, hi) = (buckets as usize, lo as usize, hi as usize);
    lo * (2 * b - lo + 1) / 2 + (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_codec::ArenaCodec;
    use subgraph_shares::counting::{bucket_oriented_replication, useful_reducers};

    /// Every key of `space` in index order, checking `rank ∘ coords = id` and
    /// that index order is lexicographic coordinate order.
    fn keys_in_order(space: &KeySpace) -> Vec<Vec<u32>> {
        let keys: Vec<Vec<u32>> = (0..space.len() as u32).map(|i| space.coords(i)).collect();
        for (index, key) in keys.iter().enumerate() {
            assert_eq!(space.rank(key) as usize, index, "{key:?}");
        }
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "lexicographic order");
        keys
    }

    #[test]
    fn multiset_spaces_rank_lexicographically_and_route_by_containment() {
        for b in 1..=8usize {
            for p in 2..=6usize {
                let space = KeySpace::multisets(b, p).unwrap();
                assert_eq!(space.len() as u128, useful_reducers(b as u64, p as u64));
                let keys = keys_in_order(&space);
                assert!(keys.iter().all(|k| k.windows(2).all(|w| w[0] <= w[1])));
                assert!(keys.iter().all(|k| k.iter().all(|&c| (c as usize) < b)));
                let replication = bucket_oriented_replication(b as u64, p as u64) as usize;
                for bu in 0..b as u32 {
                    for bv in 0..b as u32 {
                        // Brute force: the keys holding both buckets (twice
                        // the same bucket when the endpoints share one).
                        let expected: Vec<u32> = keys
                            .iter()
                            .enumerate()
                            .filter(|(_, key)| {
                                let count = |x| key.iter().filter(|&&c| c == x).count();
                                if bu == bv {
                                    count(bu) >= 2
                                } else {
                                    count(bu) >= 1 && count(bv) >= 1
                                }
                            })
                            .map(|(index, _)| index as u32)
                            .collect();
                        assert_eq!(space.destinations(bu, bv), expected, "b={b} p={p}");
                        assert_eq!(expected.len(), replication);
                    }
                }
            }
        }
    }

    #[test]
    fn grid_spaces_rank_mixed_radix_first_coordinate_most_significant() {
        for shares in [
            vec![1, 1],
            vec![3, 1],
            vec![1, 4, 1],
            vec![2, 3, 4],
            vec![1, 1, 1, 1],
            vec![3, 1, 2, 1, 5],
            vec![2, 2, 2, 2, 2, 2],
        ] {
            let space = KeySpace::grid(&shares).unwrap();
            assert_eq!(space.len(), shares.iter().product::<u32>() as usize);
            let keys = keys_in_order(&space);
            assert!(keys
                .iter()
                .all(|k| k.iter().zip(&shares).all(|(c, s)| c < s)));
            // Routing: base of the two fixed coordinates plus every free
            // offset is exactly the set of keys agreeing on them.
            let p = shares.len();
            for a in 0..p {
                for b in (0..p).filter(|&b| b != a) {
                    let offsets = space.free_offsets(a, b);
                    assert!(offsets.windows(2).all(|w| w[0] < w[1]));
                    let (xa, xb) = (shares[a] - 1, shares[b] - 1);
                    let base = xa * space.stride(a) + xb * space.stride(b);
                    let routed: Vec<u32> = offsets.iter().map(|o| base + o).collect();
                    let expected: Vec<u32> = (0..space.len() as u32)
                        .filter(|&i| keys[i as usize][a] == xa && keys[i as usize][b] == xb)
                        .collect();
                    assert_eq!(routed, expected, "shares {shares:?} role ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn small_key_spaces_encode_in_at_most_two_bytes() {
        for space in [
            KeySpace::multisets(6, 3).unwrap(),
            KeySpace::multisets(8, 6).unwrap(),
            KeySpace::multisets(44, 3).unwrap(),
            KeySpace::grid(&[25, 25, 26]).unwrap(),
        ] {
            assert!(space.len() < 16_384);
            let mut buf = Vec::new();
            (space.len() as u32 - 1).encode(&mut buf);
            assert!(buf.len() <= 2);
        }
        let mut buf = Vec::new();
        (KeySpace::multisets(6, 3).unwrap().len() as u32 - 1).encode(&mut buf);
        assert_eq!(buf.len(), 1, "the 56 triangle keys of b = 6 take one byte");
    }

    #[test]
    fn impossible_spaces_are_named_errors() {
        use KeySpaceError::*;
        assert_eq!(KeySpace::multisets(0, 3).unwrap_err(), NoBuckets);
        assert_eq!(KeySpace::multisets(4, 1).unwrap_err(), Width(1));
        assert_eq!(KeySpace::multisets(1, 257).unwrap_err(), Width(257));
        assert_eq!(
            KeySpace::multisets(1, usize::MAX).unwrap_err(),
            Width(usize::MAX)
        );
        // C(3002, 3) keys overflow u32; C(902, 3) fit, their table does not.
        assert_eq!(KeySpace::multisets(3000, 3).unwrap_err(), TooLarge);
        assert_eq!(KeySpace::multisets(usize::MAX, 2).unwrap_err(), TooLarge);
        assert_eq!(KeySpace::multisets(900, 3).unwrap_err(), TooLarge);
        assert_eq!(KeySpace::multisets(1, 256).unwrap().len(), 1);
        assert_eq!(KeySpace::grid(&[2, 0, 2]).unwrap_err(), NoBuckets);
        assert_eq!(KeySpace::grid(&[7]).unwrap_err(), Width(1));
        assert_eq!(KeySpace::grid(&[1 << 16, 1 << 16]).unwrap_err(), TooLarge);
        assert_eq!(
            KeySpace::grid(&[u32::MAX, 1]).unwrap().len(),
            u32::MAX as usize
        );
        assert!(TooLarge.to_string().contains("u32::MAX"));
    }
}
