//! Bit-level message encoding.
//!
//! The paper claims all messages have size `O(log Δ)` bits. To check that
//! claim literally rather than asymptotically hand-wave it, every protocol
//! message implements [`WireEncode`]: the engine encodes each sent message
//! and charges its exact bit length to the run's [`RunMetrics`]
//! (messages are delivered in decoded form, so encoding correctness is also
//! exercised by round-trip tests).
//!
//! Unbounded non-negative integers use Elias gamma codes
//! ([`BitWriter::write_gamma`]), which cost `2⌊log₂(v+1)⌋ + 1` bits — the
//! canonical `O(log v)` self-delimiting code.
//!
//! [`RunMetrics`]: crate::RunMetrics

/// Append-only bit buffer used to encode messages.
///
/// # Example
///
/// ```
/// use kw_sim::wire::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b101, 3);
/// w.write_gamma(17);
/// let bits = w.bit_len();
///
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_gamma(), Some(17));
/// assert_eq!(bits, 1 + 3 + 9); // gamma(17) = 2*4+1 bits
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits used in the final byte (0 means byte-aligned).
    partial_bits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.partial_bits as usize
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.len() - 1;
            self.buf[last] |= 1 << self.partial_bits;
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Appends the low `width` bits of `value`, least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` has bits above `width`.
    pub fn write_bits(&mut self, value: u64, width: u8) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in 0..width {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Appends `value` in Elias gamma code (`2⌊log₂(value+1)⌋ + 1` bits).
    ///
    /// Gamma codes are defined for positive integers; this writes
    /// `value + 1` — computed in `u128`, so *every* `u64` round-trips,
    /// including `u64::MAX` (whose `value + 1 = 2⁶⁴` encodes in
    /// `2·64 + 1 = 129` bits).
    pub fn write_gamma(&mut self, value: u64) {
        let v = value as u128 + 1;
        let width = (127 - v.leading_zeros()) as u8; // floor(log2 v), <= 64
        for _ in 0..width {
            self.write_bit(false);
        }
        self.write_bit(true);
        // v = 2^width + low bits; the low bits always fit in a u64 (for
        // width 64 the payload is v - 2^64 = value + 1 - 2^64 = 0).
        self.write_bits((v & !(1u128 << width)) as u64, width);
    }

    /// Consumes the writer, returning the padded byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader over a bit buffer produced by [`BitWriter`].
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit, or `None` at end of buffer.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `width` bits written by [`BitWriter::write_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u8) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64");
        let mut out = 0u64;
        for i in 0..width {
            if self.read_bit()? {
                out |= 1 << i;
            }
        }
        Some(out)
    }

    /// Reads an Elias-gamma-coded value written by
    /// [`BitWriter::write_gamma`].
    ///
    /// Widths up to 64 are valid (width 64 is `u64::MAX`); the arithmetic
    /// runs in `u128` so the boundary decodes exactly rather than
    /// overflowing the shift.
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut width = 0u8;
        while !self.read_bit()? {
            width += 1;
            if width > 64 {
                return None;
            }
        }
        let low = self.read_bits(width)?;
        // Reject corrupt streams whose width-64 payload would exceed u64
        // (only `low == 0` is a valid width-64 encoding).
        u64::try_from(((1u128 << width) | u128::from(low)) - 1).ok()
    }
}

/// A message type with an exact bit-level wire format.
///
/// The engine uses [`encoded_bits`](WireEncode::encoded_bits) to charge
/// message sizes. When [`EngineConfig::check_wire`] is set, in every
/// build profile, it also encodes each sent message, checks the length
/// against `encoded_bits` and decodes the bytes back, failing the run with
/// [`SimError::WireMismatch`] on any disagreement; so the three must agree.
///
/// [`EngineConfig::check_wire`]: crate::EngineConfig::check_wire
/// [`SimError::WireMismatch`]: crate::SimError::WireMismatch
pub trait WireEncode {
    /// Serializes `self` into the writer.
    fn encode(&self, w: &mut BitWriter);

    /// Deserializes a value; `None` on malformed input.
    fn decode(r: &mut BitReader<'_>) -> Option<Self>
    where
        Self: Sized;

    /// Exact encoded size in bits (defaults to encoding and measuring).
    ///
    /// The default allocates a scratch buffer per call and the engine
    /// calls this once per queued message per round, so hot protocols
    /// should override it with a closed form (see [`gamma_len`]). With
    /// `check_wire` enabled the engine verifies the override against the
    /// real encoding.
    fn encoded_bits(&self) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.bit_len()
    }
}

/// Round-trips a message through its wire format, for tests and debug
/// checks.
///
/// Returns `None` if decoding fails or does not consume what was written.
pub fn roundtrip<M: WireEncode>(msg: &M) -> Option<M> {
    let mut w = BitWriter::new();
    msg.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    M::decode(&mut r)
}

/// Length in bits of [`BitWriter::write_gamma`]'s encoding of `value`,
/// without encoding anything.
///
/// The engine charges every queued message through
/// [`WireEncode::encoded_bits`] each round; message types whose format is
/// built from gamma codes and fixed-width fields should override that
/// method with a closed form using this helper, so the accounting pass
/// stays allocation-free.
///
/// Defined for every `u64`: the width is computed in `u128`, so
/// `gamma_len(u64::MAX)` is `129` rather than an overflow panic —
/// mirroring `write_gamma`, which encodes the full domain.
#[inline]
pub fn gamma_len(value: u64) -> usize {
    // Stay in u64 on the hot path; only the unrepresentable `value + 1`
    // (i.e. `u64::MAX`, width 64) needs the special case.
    match value.checked_add(1) {
        Some(v) => 2 * (63 - v.leading_zeros() as usize) + 1,
        None => 129,
    }
}

impl WireEncode for u64 {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(*self);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma()
    }

    fn encoded_bits(&self) -> usize {
        gamma_len(*self)
    }
}

impl WireEncode for bool {
    fn encode(&self, w: &mut BitWriter) {
        w.write_bit(*self);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_bit()
    }

    fn encoded_bits(&self) -> usize {
        1
    }
}

/// Encodes an `f64` exactly (64 raw bits).
///
/// Protocols in this workspace avoid raw floats on the wire where the paper
/// promises `O(log Δ)` messages — they send the integer exponents that
/// define the value instead — but the exact form is available for reference
/// implementations and tests.
impl WireEncode for f64 {
    fn encode(&self, w: &mut BitWriter) {
        w.write_bits(self.to_bits(), 64);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_bits(64).map(f64::from_bits)
    }

    fn encoded_bits(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [
            true, false, true, true, false, false, false, true, true, false,
        ];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 10);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn bits_roundtrip_various_widths() {
        for (v, width) in [
            (0u64, 1u8),
            (1, 1),
            (5, 3),
            (255, 8),
            (1 << 20, 21),
            (u64::MAX, 64),
        ] {
            let mut w = BitWriter::new();
            w.write_bits(v, width);
            let bytes = w.into_bytes();
            assert_eq!(
                BitReader::new(&bytes).read_bits(width),
                Some(v),
                "v={v} width={width}"
            );
        }
    }

    #[test]
    fn gamma_roundtrip_and_length() {
        for v in [
            0u64,
            1,
            2,
            3,
            7,
            16,
            17,
            100,
            1_000_000,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let expect_bits = 2 * (128 - (v as u128 + 1).leading_zeros() as usize - 1) + 1;
            assert_eq!(w.bit_len(), expect_bits, "gamma length for {v}");
            assert_eq!(gamma_len(v), expect_bits, "closed form for {v}");
            let bytes = w.into_bytes();
            assert_eq!(BitReader::new(&bytes).read_gamma(), Some(v));
        }
    }

    /// The boundary encodings pinned exactly: `0` is the single bit `1`;
    /// `u64::MAX` is 64 zeros, a one, and 64 payload zeros — 129 bits, the
    /// longest gamma code any `u64` produces.
    #[test]
    fn gamma_boundary_payloads() {
        assert_eq!(gamma_len(0), 1);
        assert_eq!(gamma_len(u64::MAX), 129);
        assert_eq!(u64::MAX.encoded_bits(), 129);
        assert_eq!(roundtrip(&0u64), Some(0));
        assert_eq!(roundtrip(&u64::MAX), Some(u64::MAX));
        // A width-64 code whose payload is nonzero would decode past
        // u64::MAX; the reader must reject it instead of wrapping.
        let mut w = BitWriter::new();
        for _ in 0..64 {
            w.write_bit(false);
        }
        w.write_bit(true);
        w.write_bits(1, 64); // payload 1 → would be 2^64 + 1 - 1 > u64::MAX
        let bytes = w.into_bytes();
        assert_eq!(BitReader::new(&bytes).read_gamma(), None);
    }

    #[test]
    fn gamma_is_logarithmic() {
        // The O(log Δ) message-size claim rests on this.
        let mut w = BitWriter::new();
        w.write_gamma(1 << 20);
        assert!(w.bit_len() <= 2 * 21 + 1);
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.read_gamma(), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_bits_checks_range() {
        BitWriter::new().write_bits(8, 3);
    }

    #[test]
    fn primitive_impls_roundtrip() {
        assert_eq!(roundtrip(&true), Some(true));
        assert_eq!(roundtrip(&12345u64), Some(12345));
        assert_eq!(roundtrip(&3.75f64), Some(3.75));
        assert_eq!(true.encoded_bits(), 1);
        assert_eq!(3.75f64.encoded_bits(), 64);
    }

    #[test]
    fn mixed_stream() {
        let mut w = BitWriter::new();
        w.write_gamma(9);
        w.write_bit(false);
        w.write_bits(0b11, 2);
        w.write_gamma(0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_gamma(), Some(9));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_gamma(), Some(0));
    }
}
