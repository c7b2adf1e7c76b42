//! Carrier frequencies, bandwidths and timing constants.

use std::fmt;

/// Speed of light in vacuum \[m/s\]; used to convert path lengths to delays.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// OFDM subcarrier spacing for 802.11ac, `1/T` \[Hz\].
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// Useful OFDM symbol period `T` \[s\] (without guard interval).
pub const SYMBOL_PERIOD_S: f64 = 1.0 / SUBCARRIER_SPACING_HZ;

/// Channel bandwidth of a VHT transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Band {
    /// 20 MHz channel.
    Mhz20,
    /// 40 MHz channel.
    Mhz40,
    /// 80 MHz channel (the paper's capture bandwidth).
    #[default]
    Mhz80,
    /// 160 MHz channel (supported by the standard; unused in the paper).
    Mhz160,
}

impl Band {
    /// Bandwidth in hertz.
    pub fn hz(self) -> f64 {
        match self {
            Band::Mhz20 => 20e6,
            Band::Mhz40 => 40e6,
            Band::Mhz80 => 80e6,
            Band::Mhz160 => 160e6,
        }
    }

    /// The 2-bit Channel Width field value used in the VHT MIMO Control
    /// field (0 = 20 MHz … 3 = 160 MHz).
    pub fn vht_width_field(self) -> u8 {
        match self {
            Band::Mhz20 => 0,
            Band::Mhz40 => 1,
            Band::Mhz80 => 2,
            Band::Mhz160 => 3,
        }
    }

    /// Inverse of [`Band::vht_width_field`].
    pub fn from_vht_width_field(v: u8) -> Option<Band> {
        match v {
            0 => Some(Band::Mhz20),
            1 => Some(Band::Mhz40),
            2 => Some(Band::Mhz80),
            3 => Some(Band::Mhz160),
            _ => None,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Mhz20 => write!(f, "20 MHz"),
            Band::Mhz40 => write!(f, "40 MHz"),
            Band::Mhz80 => write!(f, "80 MHz"),
            Band::Mhz160 => write!(f, "160 MHz"),
        }
    }
}

/// A Wi-Fi channel: IEEE channel number, center frequency and bandwidth.
///
/// The paper's testbed transmits on channel 42 (`fc` = 5.21 GHz, 80 MHz)
/// and the bandwidth ablation of Fig. 12a extracts channel 38 (40 MHz) and
/// channel 36 (20 MHz) subsets from the same capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiChannel {
    /// IEEE channel number.
    pub number: u16,
    /// Center frequency \[Hz\].
    pub center_hz: f64,
    /// Channel bandwidth.
    pub band: Band,
}

impl WifiChannel {
    /// Channel 42: 80 MHz centred at 5.21 GHz — the paper's data channel.
    pub const CH42: WifiChannel = WifiChannel {
        number: 42,
        center_hz: 5.210e9,
        band: Band::Mhz80,
    };

    /// Channel 38: 40 MHz centred at 5.19 GHz (lower half of channel 42).
    pub const CH38: WifiChannel = WifiChannel {
        number: 38,
        center_hz: 5.190e9,
        band: Band::Mhz40,
    };

    /// Channel 36: 20 MHz centred at 5.18 GHz (lower quarter of channel 42).
    pub const CH36: WifiChannel = WifiChannel {
        number: 36,
        center_hz: 5.180e9,
        band: Band::Mhz20,
    };

    /// Carrier wavelength λ = c / fc \[m\].
    pub fn wavelength(&self) -> f64 {
        SPEED_OF_LIGHT / self.center_hz
    }

    /// Frequency of OFDM subcarrier `k` relative to this channel's center:
    /// `fc + k/T` (paper Eq. (2)).
    pub fn subcarrier_freq(&self, k: i32) -> f64 {
        self.center_hz + k as f64 * SUBCARRIER_SPACING_HZ
    }

    /// Offset (in 312.5 kHz tones) of this channel's center from another
    /// channel's center. Used to re-index subcarriers when carving a
    /// narrower channel out of an 80 MHz capture.
    pub fn tone_offset_from(&self, other: &WifiChannel) -> i32 {
        ((self.center_hz - other.center_hz) / SUBCARRIER_SPACING_HZ).round() as i32
    }
}

impl Default for WifiChannel {
    fn default() -> Self {
        WifiChannel::CH42
    }
}

impl fmt::Display for WifiChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{} ({:.2} GHz, {})",
            self.number,
            self.center_hz / 1e9,
            self.band
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel42_matches_paper() {
        let ch = WifiChannel::CH42;
        assert_eq!(ch.number, 42);
        assert!((ch.center_hz - 5.21e9).abs() < 1.0);
        assert_eq!(ch.band, Band::Mhz80);
    }

    #[test]
    fn wavelength_at_5ghz_is_about_575mm_over_10() {
        let lambda = WifiChannel::CH42.wavelength();
        assert!((lambda - 0.05754).abs() < 1e-4, "λ = {lambda}");
    }

    #[test]
    fn subcarrier_frequency_spacing() {
        let ch = WifiChannel::CH42;
        let f1 = ch.subcarrier_freq(1);
        let f0 = ch.subcarrier_freq(0);
        assert!((f1 - f0 - SUBCARRIER_SPACING_HZ).abs() < 1e-6);
        assert!((ch.subcarrier_freq(-122) - (5.21e9 - 122.0 * 312_500.0)).abs() < 1e-3);
    }

    #[test]
    fn tone_offsets_of_subchannels() {
        // ch38 center is 20 MHz below ch42 → −64 tones.
        assert_eq!(WifiChannel::CH38.tone_offset_from(&WifiChannel::CH42), -64);
        // ch36 center is 30 MHz below ch42 → −96 tones.
        assert_eq!(WifiChannel::CH36.tone_offset_from(&WifiChannel::CH42), -96);
    }

    #[test]
    fn width_field_roundtrip() {
        for b in [Band::Mhz20, Band::Mhz40, Band::Mhz80, Band::Mhz160] {
            assert_eq!(Band::from_vht_width_field(b.vht_width_field()), Some(b));
        }
        assert_eq!(Band::from_vht_width_field(7), None);
    }

    #[test]
    fn symbol_period_is_3_2_us() {
        assert!((SYMBOL_PERIOD_S - 3.2e-6).abs() < 1e-12);
    }
}
