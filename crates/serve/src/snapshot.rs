//! Engine snapshot/restore: persist per-device policy state across
//! process restarts.
//!
//! `AdaptiveThreshold` floors are *learned* — losing them on restart
//! means every device re-runs calibration, and during that window a
//! right-module/wrong-confidence impostor is indistinguishable from a
//! re-warming registrant. An [`EngineSnapshot`] captures every device's
//! [`PolicySnapshot`] (plus its decided-at bookkeeping) in a compact
//! versioned binary format with a trailing CRC, so
//! [`Engine::restore`](crate::Engine::restore) can resume exactly where
//! the previous process stopped.
//!
//! The format is deliberately strict to decode: bad magic, an unknown
//! version, a truncated buffer, a CRC mismatch, an unknown tag, or
//! trailing garbage each produce a distinct [`SnapshotError`] instead of
//! a best-effort partial restore.

use crate::policy::{PolicyKind, PolicySnapshot, Welford};
use crate::window::WindowSnapshot;
use deepcsi_frame::MacAddr;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// File magic: "DCSS" (DeepCSI State Snapshot).
const MAGIC: [u8; 4] = *b"DCSS";

/// Current format version.
const VERSION: u16 = 1;

/// Builds the standard IEEE CRC-32 table at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (the pcap/zlib polynomial) over `bytes`.
///
/// Shared by the snapshot format and the cluster wire codec, so both
/// integrity checks agree on one implementation.
///
/// ```
/// // The canonical check value for "123456789".
/// assert_eq!(deepcsi_serve::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Why a snapshot failed to decode (or to read/write).
#[derive(Debug)]
pub enum SnapshotError {
    /// The buffer does not start with the `DCSS` magic.
    BadMagic,
    /// A format version this build does not understand.
    UnsupportedVersion(u16),
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// The trailing CRC does not match the payload.
    BadCrc {
        /// CRC computed over the received payload.
        expected: u32,
        /// CRC stored in the buffer.
        found: u32,
    },
    /// An unknown policy-kind or option tag.
    BadTag(u8),
    /// Bytes remained after the encoded structure and its CRC.
    TrailingBytes,
    /// Reading or writing the snapshot file failed.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a DCSS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadCrc { expected, found } => {
                write!(
                    f,
                    "snapshot CRC mismatch (computed {expected:#010x}, stored {found:#010x})"
                )
            }
            SnapshotError::BadTag(t) => write!(f, "unknown snapshot tag {t:#04x}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn put_window(out: &mut Vec<u8>, w: &WindowSnapshot) {
    put_u32(out, w.votes.len() as u32);
    for &m in &w.votes {
        put_u32(out, u32::try_from(m).expect("module index fits u32"));
    }
    put_opt_f64(out, w.ema);
    put_u64(out, w.observations);
}

fn put_welford(out: &mut Vec<u8>, w: &Welford) {
    put_u64(out, w.count);
    put_f64(out, w.mean);
    put_f64(out, w.m2);
}

fn policy_kind_tag(kind: PolicyKind) -> u8 {
    match kind {
        PolicyKind::FixedMajority => 1,
        PolicyKind::ConfidenceWeighted => 2,
        PolicyKind::AdaptiveThreshold => 3,
    }
}

fn put_policy(out: &mut Vec<u8>, snap: &PolicySnapshot) {
    out.push(policy_kind_tag(snap.kind()));
    match snap {
        PolicySnapshot::Fixed { window } => put_window(out, window),
        PolicySnapshot::Confidence {
            votes,
            weights,
            ema,
            observations,
        } => {
            put_u32(out, votes.len() as u32);
            for &(m, w) in votes {
                put_u32(out, u32::try_from(m).expect("module index fits u32"));
                put_f64(out, w);
            }
            put_u32(out, weights.len() as u32);
            for &w in weights {
                put_f64(out, w);
            }
            put_opt_f64(out, *ema);
            put_u64(out, *observations);
        }
        PolicySnapshot::Adaptive {
            window,
            calib,
            vote_calib,
            profile,
            threshold,
            vote_gate,
        } => {
            put_window(out, window);
            put_welford(out, calib);
            put_welford(out, vote_calib);
            match profile {
                None => out.push(0),
                Some((mean, sigma)) => {
                    out.push(1);
                    put_f64(out, *mean);
                    put_f64(out, *sigma);
                }
            }
            put_opt_f64(out, *threshold);
            put_opt_f64(out, *vote_gate);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Strict little-endian reader: every take checks the remaining length
/// *before* touching (or allocating for) the payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(SnapshotError::BadTag(t)),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            t => Err(SnapshotError::BadTag(t)),
        }
    }

    /// A length prefix validated against the bytes actually present
    /// (`elem_size` bytes per element) before any allocation — a lying
    /// length cannot make the decoder allocate gigabytes.
    fn checked_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if self.remaining() / elem_size.max(1) < n {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn window(&mut self) -> Result<WindowSnapshot, SnapshotError> {
        let n = self.checked_len(4)?;
        let mut votes = Vec::with_capacity(n);
        for _ in 0..n {
            votes.push(self.u32()? as usize);
        }
        let ema = self.opt_f64()?;
        let observations = self.u64()?;
        Ok(WindowSnapshot {
            votes,
            ema,
            observations,
        })
    }

    fn welford(&mut self) -> Result<Welford, SnapshotError> {
        Ok(Welford {
            count: self.u64()?,
            mean: self.f64()?,
            m2: self.f64()?,
        })
    }

    fn policy(&mut self) -> Result<PolicySnapshot, SnapshotError> {
        match self.u8()? {
            1 => Ok(PolicySnapshot::Fixed {
                window: self.window()?,
            }),
            2 => {
                let n = self.checked_len(12)?;
                let mut votes = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = self.u32()? as usize;
                    let w = self.f64()?;
                    votes.push((m, w));
                }
                let k = self.checked_len(8)?;
                let mut weights = Vec::with_capacity(k);
                for _ in 0..k {
                    weights.push(self.f64()?);
                }
                let ema = self.opt_f64()?;
                let observations = self.u64()?;
                Ok(PolicySnapshot::Confidence {
                    votes,
                    weights,
                    ema,
                    observations,
                })
            }
            3 => {
                let window = self.window()?;
                let calib = self.welford()?;
                let vote_calib = self.welford()?;
                let profile = match self.u8()? {
                    0 => None,
                    1 => Some((self.f64()?, self.f64()?)),
                    t => return Err(SnapshotError::BadTag(t)),
                };
                let threshold = self.opt_f64()?;
                let vote_gate = self.opt_f64()?;
                Ok(PolicySnapshot::Adaptive {
                    window,
                    calib,
                    vote_calib,
                    profile,
                    threshold,
                    vote_gate,
                })
            }
            t => Err(SnapshotError::BadTag(t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot structures
// ---------------------------------------------------------------------------

/// One device's saved serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// The transmitter the state belongs to.
    pub mac: MacAddr,
    /// Report index of the first decisive verdict, if one was reached.
    pub decided_at: Option<u64>,
    /// The policy evidence (windows, floors, calibration).
    pub policy: PolicySnapshot,
}

/// Every device's saved state under one engine, encodable to a compact
/// versioned binary image.
///
/// Layout (all integers little-endian):
///
/// ```text
/// "DCSS" | version u16 | policy-kind u8 | count u32
///   count × [ mac 6B | decided_at Option<u64> | tagged PolicySnapshot ]
/// crc32 u32            (IEEE, over every preceding byte)
/// ```
///
/// ```
/// use deepcsi_serve::EngineSnapshot;
///
/// let snap = EngineSnapshot { policy: Default::default(), devices: vec![] };
/// let bytes = snap.encode();
/// assert_eq!(EngineSnapshot::decode(&bytes).unwrap(), snap);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The policy the states were learned under. Restore refuses
    /// per-device on a kind mismatch (see
    /// [`DecisionPolicy::restore_state`](crate::DecisionPolicy::restore_state)).
    pub policy: PolicyKind,
    /// Per-device states, sorted by MAC for deterministic bytes.
    pub devices: Vec<DeviceSnapshot>,
}

impl EngineSnapshot {
    /// Serializes to the `DCSS` binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.devices.len() * 128);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        out.push(policy_kind_tag(self.policy));
        put_u32(&mut out, self.devices.len() as u32);
        for dev in &self.devices {
            out.extend_from_slice(&dev.mac.octets());
            put_opt_u64(&mut out, dev.decided_at);
            put_policy(&mut out, &dev.policy);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Strictly decodes a `DCSS` image produced by
    /// [`encode`](EngineSnapshot::encode).
    pub fn decode(buf: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        // CRC first: everything after the magic/version checks assumes
        // an intact payload.
        if buf.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if buf.len() < MAGIC.len() + 2 {
            return Err(SnapshotError::Truncated);
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if buf.len() < MAGIC.len() + 2 + 4 {
            return Err(SnapshotError::Truncated);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let found = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let expected = crc32(payload);
        if expected != found {
            return Err(SnapshotError::BadCrc { expected, found });
        }
        let mut r = Reader::new(&payload[6..]);
        let kind = match r.u8()? {
            1 => PolicyKind::FixedMajority,
            2 => PolicyKind::ConfidenceWeighted,
            3 => PolicyKind::AdaptiveThreshold,
            t => return Err(SnapshotError::BadTag(t)),
        };
        // ≥ 7 bytes per device (mac + two tags) keeps a lying count from
        // allocating an absurd vector.
        let count = r.checked_len(7)?;
        let mut devices = Vec::with_capacity(count);
        for _ in 0..count {
            let mac_bytes: [u8; 6] = r.take(6)?.try_into().expect("6 bytes");
            let mac = MacAddr::new(mac_bytes);
            let decided_at = r.opt_u64()?;
            let policy = r.policy()?;
            devices.push(DeviceSnapshot {
                mac,
                decided_at,
                policy,
            });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(EngineSnapshot {
            policy: kind,
            devices,
        })
    }

    /// Writes the encoded snapshot to `path` atomically: into
    /// `<path>.tmp` beside it (the full file name plus `.tmp`, so no
    /// other file is touched), synced to disk, then renamed over `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a snapshot file.
    pub fn read_from(path: &Path) -> Result<EngineSnapshot, SnapshotError> {
        let bytes = fs::read(path)?;
        EngineSnapshot::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            policy: PolicyKind::AdaptiveThreshold,
            devices: vec![
                DeviceSnapshot {
                    mac: MacAddr::station(1),
                    decided_at: Some(12),
                    policy: PolicySnapshot::Adaptive {
                        window: WindowSnapshot {
                            votes: vec![0, 0, 1],
                            ema: Some(0.91),
                            observations: 40,
                        },
                        calib: Welford {
                            count: 20,
                            mean: 0.9,
                            m2: 0.004,
                        },
                        vote_calib: Welford {
                            count: 20,
                            mean: 0.97,
                            m2: 0.001,
                        },
                        profile: Some((0.9, 0.015)),
                        threshold: Some(0.84),
                        vote_gate: Some(0.61),
                    },
                },
                DeviceSnapshot {
                    mac: MacAddr::station(2),
                    decided_at: None,
                    policy: PolicySnapshot::Adaptive {
                        window: WindowSnapshot::default(),
                        calib: Welford::default(),
                        vote_calib: Welford::default(),
                        profile: None,
                        threshold: None,
                        vote_gate: None,
                    },
                },
            ],
        }
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_every_policy_kind() {
        for snap in [
            EngineSnapshot {
                policy: PolicyKind::FixedMajority,
                devices: vec![DeviceSnapshot {
                    mac: MacAddr::station(7),
                    decided_at: Some(3),
                    policy: PolicySnapshot::Fixed {
                        window: WindowSnapshot {
                            votes: vec![2, 2, 2, 1],
                            ema: Some(0.5),
                            observations: 9,
                        },
                    },
                }],
            },
            EngineSnapshot {
                policy: PolicyKind::ConfidenceWeighted,
                devices: vec![DeviceSnapshot {
                    mac: MacAddr::station(8),
                    decided_at: None,
                    policy: PolicySnapshot::Confidence {
                        votes: vec![(0, 0.9), (1, 0.2)],
                        weights: vec![0.9, 0.2],
                        ema: Some(0.55),
                        observations: 2,
                    },
                }],
            },
            sample(),
        ] {
            let bytes = snap.encode();
            assert_eq!(EngineSnapshot::decode(&bytes).unwrap(), snap);
        }
    }

    #[test]
    fn rejects_corruption() {
        let bytes = sample().encode();
        assert!(matches!(
            EngineSnapshot::decode(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::BadCrc { .. }) | Err(SnapshotError::Truncated)
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::decode(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            EngineSnapshot::decode(&bad_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            EngineSnapshot::decode(&flipped),
            Err(SnapshotError::BadCrc { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EngineSnapshot::decode(&trailing).is_err());
        // Truncation at every prefix must error, never panic.
        for n in 0..bytes.len() {
            assert!(EngineSnapshot::decode(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn write_to_leaves_a_neighbouring_tmp_file_alone() {
        let dir = std::env::temp_dir().join(format!("deepcsi-snapshot-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.dcss");
        let neighbour = dir.join("state.tmp");
        fs::write(&neighbour, b"not ours").unwrap();
        sample().write_to(&path).unwrap();
        assert_eq!(EngineSnapshot::read_from(&path).unwrap(), sample());
        assert_eq!(fs::read(&neighbour).unwrap(), b"not ours");
        assert!(
            !dir.join("state.dcss.tmp").exists(),
            "the temp file is renamed away"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
