//! MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// A locally-administered address derived from a small station id —
    /// handy for simulated beamformees.
    pub fn station(id: u64) -> Self {
        MacAddr([
            0x02,
            0x00,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// The raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// `true` for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        self.0 == [0xFF; 6]
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a MAC address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(ParseMacError);
        }
        for (o, p) in octets.iter_mut().zip(parts) {
            *o = u8::from_str_radix(p, 16).map_err(|_| ParseMacError)?;
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let a = MacAddr::new([0x02, 0x42, 0xAC, 0x11, 0x00, 0x07]);
        let s = a.to_string();
        assert_eq!(s, "02:42:ac:11:00:07");
        assert_eq!(s.parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn broadcast_is_detected() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::station(1).is_broadcast());
    }

    #[test]
    fn station_addresses_are_local_and_unique() {
        let a = MacAddr::station(1);
        let b = MacAddr::station(2);
        assert_ne!(a, b);
        assert_eq!(a.octets()[0] & 0x02, 0x02, "locally administered bit");
    }

    #[test]
    fn bad_strings_fail() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("02:00".parse::<MacAddr>().is_err());
        assert!("gg:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("01:02:03:04:05:06:07".parse::<MacAddr>().is_err());
    }
}
