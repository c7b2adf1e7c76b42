//! The one little-endian byte codec behind every persisted and wire
//! format of the workspace: the `DCSS` engine snapshot, the `DCSM` model
//! file and the cluster's request/response frames.
//!
//! * [`ByteWriter`] appends fixed-width integers and floats, tagged
//!   options and raw bytes; [`ByteWriter::finish`] closes the buffer
//!   with a CRC-32 over every preceding byte.
//! * [`ByteReader`] takes them back, checking the remaining length
//!   *before* every read, so no byte string makes it panic or allocate
//!   beyond the bytes it was given ([`ByteReader::checked_len`]).
//! * [`Envelope`] is the file framing
//!   `magic 4B | version u16 | body | crc32 u32` that the snapshot and
//!   the model file share: [`Envelope::open`] checks the magic, the
//!   version and the CRC, in that order, before the body is read.
//!
//! Each refusal is a distinct [`DecodeError`].
//!
//! [`crc32`] guards every one of those formats and runs up to four
//! times per cluster report, so it is slicing-by-16: sixteen 256-entry
//! tables, built by a `const fn` at compile time (16 KiB of static
//! data), let each 16-byte block cost sixteen independent lookups
//! instead of a chain of sixteen dependent ones; the last `len % 16`
//! bytes take the classic byte loop. Safe code only, so no carry-less
//! multiply.

use std::fmt;

/// Builds the sixteen slicing tables of the IEEE CRC-32 at compile
/// time. Table 0 is the classic byte-at-a-time table; table `k` advances
/// a byte's contribution past `k` further zero bytes, so one lookup per
/// byte of a 16-byte block, all XORed together, advances the CRC over
/// the whole block.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// IEEE CRC-32 (the pcap/zlib polynomial) over `bytes`.
///
/// Slicing-by-16: each 16-byte block costs sixteen independent table
/// lookups instead of sixteen dependent ones; the last `len % 16` bytes
/// take the byte-at-a-time loop.
///
/// ```
/// // The canonical check value for "123456789".
/// assert_eq!(deepcsi_frame::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        crc = t[15][c0 as usize]
            ^ t[14][c1 as usize]
            ^ t[13][c2 as usize]
            ^ t[12][c3 as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic.
    BadMagic {
        /// The magic the format starts with.
        expected: [u8; 4],
    },
    /// A format version this build does not understand.
    UnsupportedVersion {
        /// The version the buffer carries.
        found: u16,
        /// The one version this build reads.
        expected: u16,
    },
    /// The buffer ended before the encoded structure did (or a length
    /// prefix claims more elements than the bytes left can hold).
    Truncated,
    /// The trailing CRC does not match the bytes before it.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC stored in the buffer.
        found: u32,
    },
    /// An unknown enum or option tag.
    BadTag(u8),
    /// Bytes remained after the encoded structure.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { expected } => {
                write!(f, "not a {} image (bad magic)", expected.escape_ascii())
            }
            DecodeError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported version {found} (expected {expected})")
            }
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::BadCrc { expected, found } => write!(
                f,
                "CRC mismatch (computed {expected:#010x}, stored {found:#010x})"
            ),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian values to a growing buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

/// Takes little-endian values off the front of a byte slice; every take
/// checks the remaining length first.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

/// The fixed-width values both sides move, each as its `to_le_bytes`.
macro_rules! fixed_width {
    ($($t:ident),*) => {
        impl ByteWriter {
            $(
                #[doc = concat!("Appends a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.bytes(&v.to_le_bytes());
                }
            )*
        }

        impl ByteReader<'_> {
            $(
                #[doc = concat!("Takes a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t, DecodeError> {
                    self.array().map($t::from_le_bytes)
                }
            )*
        }
    };
}

fixed_width!(u8, u16, u32, u64, f32, f64);

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an option: tag `0`, or tag `1` followed by `put(value)`.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.u8(v.is_some().into());
        if let Some(x) = v {
            put(self, x);
        }
    }

    /// Appends a `u32` length prefix.
    ///
    /// # Panics
    ///
    /// When `len` does not fit a `u32`.
    #[inline]
    pub fn len_prefix(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("length fits u32"));
    }

    /// Appends a list: its length prefix, then `put` of each item.
    pub fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.len_prefix(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// The bytes written so far, without a CRC.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Closes the buffer with a CRC-32 (`u32`) over every byte written.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet taken.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// A `0`/`1` tag as a `bool`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    /// An option written by [`ByteWriter::opt`].
    #[inline]
    pub fn opt<T>(
        &mut self,
        take: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.bool()? {
            take(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A `u32` length prefix, validated against the bytes actually left
    /// (`elem_size` bytes at least per element) before the caller
    /// allocates for it: a lying length cannot make a decoder allocate
    /// gigabytes.
    #[inline]
    pub fn checked_len(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if self.remaining() / elem_size.max(1) < n {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A list written by [`ByteWriter::list`], whose items take at least
    /// `elem_size` bytes each (see [`ByteReader::checked_len`]).
    pub fn list<T>(
        &mut self,
        elem_size: usize,
        mut take: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.checked_len(elem_size)?;
        (0..n).map(|_| take(self)).collect()
    }

    /// Checks that every byte was taken.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// A versioned file framing: `magic 4B | version u16 | body | crc32`,
/// the CRC (IEEE, `u32` LE) over every byte before it.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// The four bytes every image starts with.
    pub magic: [u8; 4],
    /// The one version this build writes and reads.
    pub version: u16,
}

impl Envelope {
    /// A writer with the magic and version already written; close it
    /// with [`ByteWriter::finish`].
    pub fn writer(&self, capacity: usize) -> ByteWriter {
        let mut w = ByteWriter::with_capacity(capacity);
        w.bytes(&self.magic);
        w.u16(self.version);
        w
    }

    /// Checks the magic, the version and the CRC of `buf`, in that
    /// order, and returns a reader over the body between them.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when `buf` is too short for the field
    /// being checked, then [`DecodeError::BadMagic`],
    /// [`DecodeError::UnsupportedVersion`] or [`DecodeError::BadCrc`].
    pub fn open<'a>(&self, buf: &'a [u8]) -> Result<ByteReader<'a>, DecodeError> {
        let mut r = ByteReader::new(buf);
        if r.array::<4>()? != self.magic {
            return Err(DecodeError::BadMagic {
                expected: self.magic,
            });
        }
        let found = r.u16()?;
        if found != self.version {
            return Err(DecodeError::UnsupportedVersion {
                found,
                expected: self.version,
            });
        }
        let body_len = r.remaining().checked_sub(4).ok_or(DecodeError::Truncated)?;
        let body = r.take(body_len)?;
        let found = r.u32()?;
        let expected = crc32(&buf[..buf.len() - 4]);
        if expected != found {
            return Err(DecodeError::BadCrc { expected, found });
        }
        Ok(ByteReader::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TEST: Envelope = Envelope {
        magic: *b"TEST",
        version: 3,
    };

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time, bit-at-a-time CRC-32 the slicing tables must
    /// reproduce; it shares no table with [`crc32`].
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    proptest! {
        #[test]
        fn crc32_matches_the_reference_at_every_length_to_64(
            bytes in collection::vec(any::<u8>(), 64),
        ) {
            for n in 0..=64 {
                prop_assert_eq!(crc32(&bytes[..n]), crc32_reference(&bytes[..n]), "length {}", n);
            }
        }

        #[test]
        fn crc32_matches_the_reference_on_arbitrary_buffers(
            bytes in collection::vec(any::<u8>(), 0..4097),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        }

        /// A 1 453-byte cluster request at every offset into its
        /// buffer: each lands a different tail on the byte loop.
        #[test]
        fn crc32_matches_the_reference_at_every_misalignment_of_a_frame(
            bytes in collection::vec(any::<u8>(), 1453 + 16),
        ) {
            for off in 0..16 {
                let frame = &bytes[off..off + 1453];
                prop_assert_eq!(crc32(frame), crc32_reference(frame), "offset {}", off);
            }
        }
    }

    #[test]
    fn every_value_round_trips() {
        let mut w = TEST.writer(0);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(u32::MAX);
        w.u64(1 << 40);
        w.f32(-0.5);
        w.f64(f64::MIN_POSITIVE);
        w.opt(None::<u64>, ByteWriter::u64);
        w.opt(Some(2.5), ByteWriter::f64);
        w.list(b"ab", |w, &b| w.u8(b));
        let image = w.finish();
        let mut r = TEST.open(&image).unwrap();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.f32(), Ok(-0.5));
        assert_eq!(r.f64(), Ok(f64::MIN_POSITIVE));
        assert_eq!(r.opt(ByteReader::u64), Ok(None));
        assert_eq!(r.opt(ByteReader::f64), Ok(Some(2.5)));
        assert_eq!(r.list(1, ByteReader::u8), Ok(b"ab".to_vec()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn the_envelope_refuses_in_order() {
        let mut w = TEST.writer(0);
        w.u64(42);
        let image = w.finish();
        for n in 0..image.len() {
            assert!(TEST.open(&image[..n]).is_err(), "prefix of {n} bytes");
        }
        let mut bad = image.clone();
        bad[0] = b'X';
        assert_eq!(
            TEST.open(&bad).unwrap_err(),
            DecodeError::BadMagic { expected: *b"TEST" }
        );
        let mut bad = image.clone();
        bad[4] = 9;
        assert_eq!(
            TEST.open(&bad).unwrap_err(),
            DecodeError::UnsupportedVersion {
                found: 9,
                expected: 3
            }
        );
        let mut bad = image.clone();
        bad[8] ^= 1;
        assert!(matches!(
            TEST.open(&bad).unwrap_err(),
            DecodeError::BadCrc { .. }
        ));
    }

    #[test]
    fn reads_refuse_short_buffers_and_lying_lengths() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 2]);
        assert_eq!(r.checked_len(2), Err(DecodeError::Truncated));
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.opt(ByteReader::u8), Err(DecodeError::BadTag(2)));
        let mut r = ByteReader::new(&[0; 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(
            ByteReader::new(&[0]).finish(),
            Err(DecodeError::TrailingBytes)
        );
    }
}
