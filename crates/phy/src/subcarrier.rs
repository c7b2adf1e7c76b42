//! Sounded OFDM subcarrier layouts for VHT channel sounding.

use crate::{Band, WifiChannel};
use std::sync::OnceLock;

/// The set of OFDM sub-channels sounded during VHT channel sounding.
///
/// For an 80 MHz VHT channel the usable tones are −122…−2 and +2…+122
/// (242 tones); the 8 pilot tones (±11, ±39, ±75, ±103) carry known symbols
/// and are not fed back, leaving **K = 234** sounded sub-channels — the
/// figure quoted in §IV of the paper ("the mechanism does not consider the
/// 14 control sub-channels and the 8 pilot ones").
///
/// Narrower-band views (Fig. 12a) are produced by [`SubcarrierLayout::subband`],
/// which keeps only the sounded tones that fall inside the narrower
/// channel's frequency span — mirroring how the paper extracts channels 38
/// and 36 from the channel-42 capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubcarrierLayout {
    band: Band,
    indices: Vec<i32>,
}

impl SubcarrierLayout {
    /// The 80 MHz VHT sounding layout (K = 234).
    pub fn vht80() -> Self {
        let pilots = [-103, -75, -39, -11, 11, 39, 75, 103];
        let mut indices = Vec::with_capacity(234);
        for k in -122..=122 {
            if (-1..=1).contains(&k) {
                continue; // DC region
            }
            if pilots.contains(&k) {
                continue;
            }
            indices.push(k);
        }
        SubcarrierLayout {
            band: Band::Mhz80,
            indices,
        }
    }

    /// The 40 MHz VHT sounding layout (tones −58…−2, +2…+58 minus pilots
    /// ±11, ±53), used when a device natively sounds a 40 MHz channel.
    pub fn vht40() -> Self {
        let pilots = [-53, -11, 11, 53];
        let mut indices = Vec::new();
        for k in -58..=58 {
            if (-1..=1).contains(&k) || pilots.contains(&k) {
                continue;
            }
            indices.push(k);
        }
        SubcarrierLayout {
            band: Band::Mhz40,
            indices,
        }
    }

    /// The 20 MHz VHT sounding layout (tones −28…−1, +1…+28 minus pilots
    /// ±7, ±21).
    pub fn vht20() -> Self {
        let pilots = [-21, -7, 7, 21];
        let mut indices = Vec::new();
        for k in -28..=28 {
            if k == 0 || pilots.contains(&k) {
                continue;
            }
            indices.push(k);
        }
        SubcarrierLayout {
            band: Band::Mhz20,
            indices,
        }
    }

    /// Layout for a given bandwidth (160 MHz sounds the 80 MHz one). The
    /// three layouts are built once, on first use.
    pub fn for_band(band: Band) -> &'static Self {
        static NATIVE: OnceLock<[SubcarrierLayout; 3]> = OnceLock::new();
        let [vht20, vht40, vht80] =
            NATIVE.get_or_init(|| [Self::vht20(), Self::vht40(), Self::vht80()]);
        match band {
            Band::Mhz20 => vht20,
            Band::Mhz40 => vht40,
            Band::Mhz80 | Band::Mhz160 => vht80,
        }
    }

    /// Bandwidth this layout belongs to.
    pub fn band(&self) -> Band {
        self.band
    }

    /// The sounded subcarrier indices, ascending.
    pub fn indices(&self) -> &[i32] {
        &self.indices
    }

    /// Number of sounded sub-channels (the paper's `K`, or `Ncol` after
    /// sub-band selection).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when no subcarriers are sounded.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Position of subcarrier index `k` within this layout, if sounded.
    pub fn position_of(&self, k: i32) -> Option<usize> {
        self.indices.binary_search(&k).ok()
    }

    /// Carves the view of a narrower channel out of this layout: keeps the
    /// sounded tones whose frequency falls inside `sub`'s span, expressed
    /// as **positions** into this layout (usable to slice captured data).
    ///
    /// The paper extracts 110 tones for the 40 MHz channel 38 and 54 tones
    /// for the 20 MHz channel 36 out of the 234-tone channel-42 capture;
    /// this method reproduces those counts.
    ///
    /// # Panics
    ///
    /// Panics if `sub` is wider than `parent`.
    pub fn subband(&self, parent: &WifiChannel, sub: &WifiChannel) -> Vec<usize> {
        assert!(
            sub.band.hz() <= parent.band.hz(),
            "sub-channel must be narrower than the parent channel"
        );
        let offset = sub.tone_offset_from(parent);
        // Span of usable tones of the sub-channel, in the parent's tone grid.
        // A 40 MHz channel uses tones ±58 around its own center; a 20 MHz
        // channel ±28; an 80 MHz channel ±122. The sub-channel's own DC and
        // edge tones are excluded, and the parent's pilot holes remain —
        // matching what an observer slicing an 80 MHz capture actually has.
        let half = match sub.band {
            Band::Mhz20 => 28,
            Band::Mhz40 => 58,
            Band::Mhz80 => 122,
            Band::Mhz160 => 250,
        };
        let lo = offset - half;
        let hi = offset + half;
        self.indices
            .iter()
            .enumerate()
            .filter(|(_, &k)| k >= lo && k <= hi && k != offset)
            .map(|(pos, _)| pos)
            .collect()
    }
}

impl Default for SubcarrierLayout {
    fn default() -> Self {
        SubcarrierLayout::vht80()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vht80_has_234_sounded_tones() {
        let l = SubcarrierLayout::vht80();
        assert_eq!(l.len(), 234);
        assert_eq!(l.indices()[0], -122);
        assert_eq!(*l.indices().last().unwrap(), 122);
        // Pilots and DC are excluded.
        for k in [-103, -75, -39, -11, -1, 0, 1, 11, 39, 75, 103] {
            assert_eq!(l.position_of(k), None, "tone {k} should not be sounded");
        }
    }

    #[test]
    fn vht40_has_110_sounded_tones() {
        assert_eq!(SubcarrierLayout::vht40().len(), 110);
    }

    #[test]
    fn vht20_has_52_sounded_tones() {
        assert_eq!(SubcarrierLayout::vht20().len(), 52);
    }

    #[test]
    fn for_band_serves_the_native_layouts() {
        for (band, want) in [
            (Band::Mhz20, SubcarrierLayout::vht20()),
            (Band::Mhz40, SubcarrierLayout::vht40()),
            (Band::Mhz80, SubcarrierLayout::vht80()),
            (Band::Mhz160, SubcarrierLayout::vht80()),
        ] {
            assert_eq!(SubcarrierLayout::for_band(band), &want);
        }
    }

    #[test]
    fn indices_sorted_ascending() {
        for l in [
            SubcarrierLayout::vht20(),
            SubcarrierLayout::vht40(),
            SubcarrierLayout::vht80(),
        ] {
            assert!(l.indices().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn subband_40mhz_extraction_count() {
        let l = SubcarrierLayout::vht80();
        let pos = l.subband(&WifiChannel::CH42, &WifiChannel::CH38);
        // 40 MHz span [−122, −6]: 117 raw tones − 4 pilots − DC/edge carving
        // ≈ the paper's 110-tone figure (±a few edge tones).
        assert!(
            (108..=113).contains(&pos.len()),
            "40 MHz subset has {} tones",
            pos.len()
        );
        // Every selected position maps to a tone in the 40 MHz span.
        for &p in &pos {
            let k = l.indices()[p];
            assert!((-122..=-6).contains(&k));
        }
    }

    #[test]
    fn subband_20mhz_extraction_count() {
        let l = SubcarrierLayout::vht80();
        let pos = l.subband(&WifiChannel::CH42, &WifiChannel::CH36);
        assert!(
            (50..=55).contains(&pos.len()),
            "20 MHz subset has {} tones",
            pos.len()
        );
    }

    #[test]
    fn subband_of_same_channel_is_everything_but_dc() {
        let l = SubcarrierLayout::vht80();
        let pos = l.subband(&WifiChannel::CH42, &WifiChannel::CH42);
        assert_eq!(pos.len(), l.len()); // DC already excluded from layout
    }

    #[test]
    #[should_panic(expected = "narrower")]
    fn subband_wider_than_parent_panics() {
        let l = SubcarrierLayout::vht20();
        let _ = l.subband(&WifiChannel::CH36, &WifiChannel::CH42);
    }

    #[test]
    fn position_of_finds_sounded_tones() {
        let l = SubcarrierLayout::vht80();
        assert_eq!(l.position_of(-122), Some(0));
        assert_eq!(l.position_of(2), l.position_of(-2).map(|p| p + 1));
    }
}
