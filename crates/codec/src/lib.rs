//! Compact record serialization for the engine's arena shuffle.
//!
//! The map-reduce engine's classic shuffle moves every `(key, value)` pair as
//! a Rust struct inside `Vec<(u64, K, V)>` buckets: ~32 bytes per record for
//! the paper's triangle workloads against a ~10-byte logical payload. The
//! arena shuffle instead serializes records into flat byte buffers, and this
//! crate defines the encoding those buffers use: [`ArenaCodec`], a
//! fixed-format, allocation-free codec with LEB128 varints for integers.
//!
//! The codec is *engine-internal*: encoded bytes never leave the process and
//! are always decoded by the same build that produced them, so there is no
//! versioning, no endianness tag, and decoding malformed input is allowed to
//! panic (the engine only feeds a decoder bytes its own encoder wrote).
//!
//! Keys and values are encoded back to back, so `decode` must consume exactly
//! the bytes `encode` produced — the round-trip property the test suite and
//! the engine's grouping loops both rely on.
//!
//! This crate exists (rather than the trait living in the mapreduce crate)
//! so that `subgraph-graph` can implement the codec for its `Edge` type
//! without depending on the engine: both depend on this leaf crate instead.

/// Appends `value` as an LEB128 varint (7 bits per byte, little groups
/// first, high bit = continuation). Values below 128 cost one byte — the
/// common case for the paper's bucket coordinates and small node ids.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads an LEB128 varint written by [`write_varint`], advancing `*pos`.
///
/// # Panics
/// Panics on truncated input or a varint longer than 10 bytes; arena buffers
/// are engine-produced, so either indicates a bug, not bad user data.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
        assert!(shift < 64, "varint exceeds 10 bytes");
    }
}

/// Reads one LEB128 varint from a byte stream — the streaming counterpart of
/// [`read_varint`], used by the engine's spill-run reader where frames arrive
/// from a file instead of a resident buffer.
///
/// Returns `Ok(None)` on a clean end of stream (no byte consumed): a sequence
/// of length-prefixed frames is terminated by EOF at a frame boundary, so the
/// reader distinguishes "no more frames" from a truncated length
/// (`ErrorKind::UnexpectedEof`).
pub fn read_varint_from(read: &mut impl std::io::Read) -> std::io::Result<Option<u64>> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut byte = [0u8; 1];
    loop {
        match read.read(&mut byte) {
            Ok(0) => {
                return if shift == 0 {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream ended inside a varint",
                    ))
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        if shift >= 64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "varint exceeds 10 bytes",
            ));
        }
    }
}

/// Most bytes [`write_varint`] appends for a value of `bits` significant
/// bits: 7 bits per byte.
pub const fn max_varint_len(bits: u32) -> usize {
    bits.div_ceil(7) as usize
}

/// The sum of two [`ArenaCodec::MAX_ENCODED_LEN`]s: unbounded if either is.
pub const fn add_bounds(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(a), Some(b)) => a.checked_add(b),
        _ => None,
    }
}

/// A value that can serialize itself into (and back out of) an arena byte
/// buffer. See the [crate docs](self) for the contract: `decode` must return
/// an equal value and consume exactly the bytes `encode` appended, and
/// `encode` appends at most [`ArenaCodec::MAX_ENCODED_LEN`] bytes.
pub trait ArenaCodec: Sized {
    /// The most bytes `encode` appends for any value of the type, or `None`
    /// when the encoding has no bound (a `Vec`). The arena encodes a bounded
    /// record straight into its open chunk when that much room is left.
    const MAX_ENCODED_LEN: Option<usize>;
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from `buf` starting at `*pos`, advancing `*pos`
    /// past the consumed bytes.
    fn decode(buf: &[u8], pos: &mut usize) -> Self;
}

impl ArenaCodec for u8 {
    const MAX_ENCODED_LEN: Option<usize> = Some(1);

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let byte = buf[*pos];
        *pos += 1;
        byte
    }
}

impl ArenaCodec for u16 {
    const MAX_ENCODED_LEN: Option<usize> = Some(max_varint_len(u16::BITS));

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as u16
    }
}

impl ArenaCodec for u32 {
    const MAX_ENCODED_LEN: Option<usize> = Some(max_varint_len(u32::BITS));

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as u32
    }
}

impl ArenaCodec for u64 {
    const MAX_ENCODED_LEN: Option<usize> = Some(max_varint_len(u64::BITS));

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos)
    }
}

impl ArenaCodec for usize {
    const MAX_ENCODED_LEN: Option<usize> = Some(max_varint_len(u64::BITS));

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as usize
    }
}

impl ArenaCodec for bool {
    const MAX_ENCODED_LEN: Option<usize> = Some(1);

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        u8::decode(buf, pos) != 0
    }
}

impl<T: ArenaCodec, const N: usize> ArenaCodec for [T; N] {
    const MAX_ENCODED_LEN: Option<usize> = match T::MAX_ENCODED_LEN {
        Some(item) => item.checked_mul(N),
        None => None,
    };

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        std::array::from_fn(|_| T::decode(buf, pos))
    }
}

impl<A: ArenaCodec, B: ArenaCodec> ArenaCodec for (A, B) {
    const MAX_ENCODED_LEN: Option<usize> = add_bounds(A::MAX_ENCODED_LEN, B::MAX_ENCODED_LEN);

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::decode(buf, pos);
        let b = B::decode(buf, pos);
        (a, b)
    }
}

impl<A: ArenaCodec, B: ArenaCodec, C: ArenaCodec> ArenaCodec for (A, B, C) {
    const MAX_ENCODED_LEN: Option<usize> = add_bounds(
        add_bounds(A::MAX_ENCODED_LEN, B::MAX_ENCODED_LEN),
        C::MAX_ENCODED_LEN,
    );

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::decode(buf, pos);
        let b = B::decode(buf, pos);
        let c = C::decode(buf, pos);
        (a, b, c)
    }
}

impl<T: ArenaCodec> ArenaCodec for Vec<T> {
    const MAX_ENCODED_LEN: Option<usize> = None;

    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let len = read_varint(buf, pos) as usize;
        (0..len).map(|_| T::decode(buf, pos)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: ArenaCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut pos = 0;
        let back = T::decode(&buf, &mut pos);
        assert_eq!(back, value);
        assert_eq!(pos, buf.len(), "decode must consume exactly the encoding");
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for value in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), value);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        assert_eq!(buf, [5]);
        buf.clear();
        write_varint(&mut buf, 127);
        assert_eq!(buf, [127]);
        buf.clear();
        write_varint(&mut buf, 128);
        assert_eq!(buf, [0x80, 1]);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(9000u16);
        round_trip(3_000_000u32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn composites_round_trip() {
        round_trip([1u32, 2, 3]);
        round_trip((7u32, 9u64));
        round_trip((1u8, 2u32, 3u32));
        round_trip(vec![5u32, 0, 1_000_000]);
        round_trip(Vec::<u32>::new());
        round_trip(([0u32, 5, 5], (17u32, 99u32)));
    }

    /// Encodes `value`, checks the length against the type's bound, and
    /// returns it.
    fn bounded_len<T: ArenaCodec>(value: &T) -> usize {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let bound = T::MAX_ENCODED_LEN.expect("the type is bounded");
        assert!(
            buf.len() <= bound,
            "{} bytes over a bound of {bound}",
            buf.len()
        );
        buf.len()
    }

    #[test]
    fn encodings_stay_within_their_bounds_and_reach_them_at_the_extremes() {
        // Every varint length boundary: 2^(7k) − 1 and 2^(7k).
        let boundaries = (0..64).flat_map(|bits| [(1u64 << bits) - 1, 1u64 << bits]);
        for value in boundaries.chain([u64::MAX]) {
            bounded_len(&value);
            bounded_len(&(value as usize));
            bounded_len(&(value as u32));
            bounded_len(&(value as u16));
            bounded_len(&(value as u8));
        }
        assert_eq!(bounded_len(&u8::MAX), 1);
        assert_eq!(bounded_len(&true), 1);
        assert_eq!(bounded_len(&u16::MAX), 3);
        assert_eq!(bounded_len(&u32::MAX), 5);
        assert_eq!(bounded_len(&u64::MAX), 10);
        assert_eq!(bounded_len(&usize::MAX), 10);
        // Composites are the sum of their parts; the multiway round's record
        // (a bucket triple and a role-tagged pair of ids) at its largest.
        assert_eq!(bounded_len(&[u32::MAX; 3]), 15);
        assert_eq!(bounded_len(&(u32::MAX, u64::MAX)), 15);
        let multiway = ([u32::MAX; 3], (u8::MAX, u32::MAX, u32::MAX));
        assert_eq!(bounded_len(&multiway), 26);
        assert_eq!(bounded_len(&([0u32; 3], (0u8, 0u32, 0u32))), 6);
        assert_eq!(<[u32; 0]>::MAX_ENCODED_LEN, Some(0));
    }

    #[test]
    fn a_vec_anywhere_leaves_the_record_unbounded() {
        assert_eq!(<Vec<u8>>::MAX_ENCODED_LEN, None);
        assert_eq!(<(u32, Vec<u32>)>::MAX_ENCODED_LEN, None);
        assert_eq!(<(Vec<u32>, u8, bool)>::MAX_ENCODED_LEN, None);
        assert_eq!(<[Vec<u32>; 2]>::MAX_ENCODED_LEN, None);
        assert_eq!(<[Vec<u32>; 0]>::MAX_ENCODED_LEN, None);
        assert_eq!(add_bounds(Some(usize::MAX), Some(1)), None);
    }

    #[test]
    fn back_to_back_records_decode_in_order() {
        // The arena stores records contiguously; interleaved decode must track.
        let mut buf = Vec::new();
        for i in 0..100u32 {
            ([i, i * 2, i * 3], (i, i + 1)).encode(&mut buf);
        }
        let mut pos = 0;
        for i in 0..100u32 {
            let (key, value) = <([u32; 3], (u32, u32))>::decode(&buf, &mut pos);
            assert_eq!(key, [i, i * 2, i * 3]);
            assert_eq!(value, (i, i + 1));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    #[should_panic]
    fn truncated_varint_panics() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        let _ = read_varint(&buf, &mut pos);
    }

    #[test]
    fn streaming_varints_match_the_slice_reader() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 0x3fff, u32::MAX as u64, u64::MAX];
        for value in values {
            write_varint(&mut buf, value);
        }
        let mut cursor = std::io::Cursor::new(&buf);
        for value in values {
            assert_eq!(read_varint_from(&mut cursor).unwrap(), Some(value));
        }
        // Clean EOF at a frame boundary is "no more frames", not an error.
        assert_eq!(read_varint_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn streaming_varint_rejects_mid_value_eof() {
        let mut cursor = std::io::Cursor::new([0x80u8, 0x80]);
        let err = read_varint_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
