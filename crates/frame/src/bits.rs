//! LSB-first bit packing, as used by 802.11 information fields.

use bytes::{BufMut, BytesMut};

/// Writes values LSB-first into a growing byte buffer.
///
/// 802.11 information elements place the least-significant bit of each
/// field in the lowest free bit position of the stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BytesMut,
    /// Pending bits, LSB-first; fewer than 8 between calls.
    acc: u64,
    filled: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: BytesMut::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Appends the low `bits` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 32`.
    pub fn put(&mut self, value: u32, bits: u8) {
        assert!(bits <= 32, "at most 32 bits per put");
        let mask = (1u64 << bits) - 1;
        self.acc |= (u64::from(value) & mask) << self.filled;
        self.filled += bits;
        while self.filled >= 8 {
            self.buf.put_u8(self.acc as u8);
            self.acc >>= 8;
            self.filled -= 8;
        }
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.filled as usize
    }

    /// Finishes the stream, zero-padding the final byte.
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.buf.put_u8(self.acc as u8);
        }
        self.buf.into()
    }
}

/// Reads values LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Reads `bits` bits; returns `None` when the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 32`.
    pub fn get(&mut self, bits: u8) -> Option<u32> {
        assert!(bits <= 32, "at most 32 bits per get");
        if self.pos + bits as usize > self.data.len() * 8 {
            return None;
        }
        // The next 8 bytes as one little-endian word, zero-padded past
        // the end; a field starts at most 7 bits in, so 39 bits suffice.
        let byte = self.pos / 8;
        let word = match self.data.get(byte..byte + 8) {
            Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")),
            None => {
                let mut w = [0u8; 8];
                let tail = &self.data[byte.min(self.data.len())..];
                w[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(w)
            }
        };
        let out = (word >> (self.pos % 8)) & ((1u64 << bits) - 1);
        self.pos += bits as usize;
        Some(out as u32)
    }

    /// Remaining unread bits.
    pub fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0x1FF, 9);
        w.put(0, 1);
        w.put(0x7F, 7);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(9), Some(0x1FF));
        assert_eq!(r.get(1), Some(0));
        assert_eq!(r.get(7), Some(0x7F));
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.put(1, 1); // bit 0 of byte 0
        w.put(0, 1);
        w.put(1, 1); // bit 2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0101]);
    }

    #[test]
    fn cross_byte_field() {
        let mut w = BitWriter::new();
        w.put(0b11111, 5);
        w.put(0b111111, 6); // spans byte boundary
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(5), Some(0b11111));
        assert_eq!(r.get(6), Some(0b111111));
    }

    #[test]
    fn reader_detects_exhaustion() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.get(8), Some(0xFF));
        assert_eq!(r.get(1), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.put(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.put(0xFF, 8);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn word_reads_match_bit_by_bit_reads() {
        // Every width 0..=32 at every alignment, up to the last byte.
        let data: Vec<u8> = (0..13u32).map(|i| (i * 73 + 41) as u8).collect();
        let bit = |pos: usize| u32::from((data[pos / 8] >> (pos % 8)) & 1);
        for start in 0..8 {
            for bits in 0..=32u8 {
                let mut r = BitReader::new(&data);
                r.get(start as u8).unwrap();
                let mut pos = start;
                while pos + bits as usize <= data.len() * 8 {
                    let want = (0..bits as usize).fold(0, |acc, i| acc | bit(pos + i) << i);
                    assert_eq!(
                        r.get(bits),
                        Some(want),
                        "start {start} width {bits} at {pos}"
                    );
                    pos += bits as usize;
                    if bits == 0 {
                        break;
                    }
                }
                assert_eq!(r.remaining_bits(), data.len() * 8 - pos);
            }
        }
    }

    #[test]
    fn writer_matches_bit_by_bit_packing() {
        let fields: Vec<(u32, u8)> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761), (i % 33) as u8))
            .collect();
        let mut w = BitWriter::new();
        let mut want = Vec::new();
        let mut filled = 0;
        for &(v, bits) in &fields {
            w.put(v, bits);
            for i in 0..bits {
                if filled % 8 == 0 {
                    want.push(0u8);
                }
                *want.last_mut().unwrap() |= (((v >> i) & 1) as u8) << (filled % 8);
                filled += 1;
            }
        }
        assert_eq!(w.bit_len(), filled);
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn truncated_wide_read_returns_none() {
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        assert_eq!(r.get(12), Some(0xDAB));
        assert_eq!(r.remaining_bits(), 4);
        assert_eq!(r.get(5), None, "5 bits > 4 remaining");
        assert_eq!(r.get(4), Some(0xC));
    }
}
