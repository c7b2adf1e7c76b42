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
//! trailing garbage each produce a distinct [`DecodeError`] (as
//! [`SnapshotError::Decode`]) instead of a best-effort partial restore.
//! The bytes go through the workspace's one codec,
//! `deepcsi_frame::{ByteWriter, ByteReader, Envelope}`.

use crate::policy::{PolicyKind, PolicySnapshot, Welford};
use crate::window::WindowSnapshot;
use deepcsi_frame::{ByteReader, ByteWriter, DecodeError, Envelope, MacAddr};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// "DCSS" (DeepCSI State Snapshot), format version 1.
const DCSS: Envelope = Envelope {
    magic: *b"DCSS",
    version: 1,
};

/// Why a snapshot failed to decode (or to read/write).
#[derive(Debug)]
pub enum SnapshotError {
    /// The bytes are not a valid `DCSS` image.
    Decode(DecodeError),
    /// Reading or writing the snapshot file failed.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Decode(e) => write!(f, "snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Decode(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
        }
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
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

fn put_module(w: &mut ByteWriter, m: usize) {
    w.u32(u32::try_from(m).expect("module index fits u32"));
}

fn put_window(w: &mut ByteWriter, win: &WindowSnapshot) {
    w.list(&win.votes, |w, &m| put_module(w, m));
    w.opt(win.ema, ByteWriter::f64);
    w.u64(win.observations);
}

fn put_welford(w: &mut ByteWriter, wf: &Welford) {
    w.u64(wf.count);
    w.f64(wf.mean);
    w.f64(wf.m2);
}

fn policy_kind_tag(kind: PolicyKind) -> u8 {
    match kind {
        PolicyKind::FixedMajority => 1,
        PolicyKind::ConfidenceWeighted => 2,
        PolicyKind::AdaptiveThreshold => 3,
    }
}

fn put_policy(w: &mut ByteWriter, snap: &PolicySnapshot) {
    w.u8(policy_kind_tag(snap.kind()));
    match snap {
        PolicySnapshot::Fixed { window } => put_window(w, window),
        PolicySnapshot::Confidence {
            votes,
            weights,
            ema,
            observations,
        } => {
            w.list(votes, |w, &(m, weight)| {
                put_module(w, m);
                w.f64(weight);
            });
            w.list(weights, |w, &weight| w.f64(weight));
            w.opt(*ema, ByteWriter::f64);
            w.u64(*observations);
        }
        PolicySnapshot::Adaptive {
            window,
            calib,
            vote_calib,
            profile,
            threshold,
            vote_gate,
        } => {
            put_window(w, window);
            put_welford(w, calib);
            put_welford(w, vote_calib);
            w.opt(*profile, |w, (mean, sigma)| {
                w.f64(mean);
                w.f64(sigma);
            });
            w.opt(*threshold, ByteWriter::f64);
            w.opt(*vote_gate, ByteWriter::f64);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_module(r: &mut ByteReader) -> Result<usize, DecodeError> {
    Ok(r.u32()? as usize)
}

fn read_window(r: &mut ByteReader) -> Result<WindowSnapshot, DecodeError> {
    Ok(WindowSnapshot {
        votes: r.list(4, read_module)?,
        ema: r.opt(ByteReader::f64)?,
        observations: r.u64()?,
    })
}

fn read_welford(r: &mut ByteReader) -> Result<Welford, DecodeError> {
    Ok(Welford {
        count: r.u64()?,
        mean: r.f64()?,
        m2: r.f64()?,
    })
}

fn read_policy_kind(r: &mut ByteReader) -> Result<PolicyKind, DecodeError> {
    match r.u8()? {
        1 => Ok(PolicyKind::FixedMajority),
        2 => Ok(PolicyKind::ConfidenceWeighted),
        3 => Ok(PolicyKind::AdaptiveThreshold),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn read_policy(r: &mut ByteReader) -> Result<PolicySnapshot, DecodeError> {
    match read_policy_kind(r)? {
        PolicyKind::FixedMajority => Ok(PolicySnapshot::Fixed {
            window: read_window(r)?,
        }),
        PolicyKind::ConfidenceWeighted => Ok(PolicySnapshot::Confidence {
            votes: r.list(12, |r| Ok((read_module(r)?, r.f64()?)))?,
            weights: r.list(8, ByteReader::f64)?,
            ema: r.opt(ByteReader::f64)?,
            observations: r.u64()?,
        }),
        PolicyKind::AdaptiveThreshold => Ok(PolicySnapshot::Adaptive {
            window: read_window(r)?,
            calib: read_welford(r)?,
            vote_calib: read_welford(r)?,
            profile: r.opt(|r| Ok((r.f64()?, r.f64()?)))?,
            threshold: r.opt(ByteReader::f64)?,
            vote_gate: r.opt(ByteReader::f64)?,
        }),
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
    /// Encodes to the `DCSS` binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = DCSS.writer(64 + self.devices.len() * 128);
        w.u8(policy_kind_tag(self.policy));
        w.list(&self.devices, |w, dev| {
            w.bytes(&dev.mac.octets());
            w.opt(dev.decided_at, ByteWriter::u64);
            put_policy(w, &dev.policy);
        });
        w.finish()
    }

    /// Strictly decodes a `DCSS` image produced by
    /// [`encode`](EngineSnapshot::encode).
    pub fn decode(buf: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        // The envelope checks the CRC first: everything after it
        // assumes an intact payload.
        let mut r = DCSS.open(buf)?;
        let policy = read_policy_kind(&mut r)?;
        // ≥ 7 bytes per device (mac + two tags) keeps a lying count from
        // allocating an absurd vector.
        let devices = r.list(7, |r| {
            Ok(DeviceSnapshot {
                mac: MacAddr::new(r.array()?),
                decided_at: r.opt(ByteReader::u64)?,
                policy: read_policy(r)?,
            })
        })?;
        r.finish()?;
        Ok(EngineSnapshot { policy, devices })
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

    /// One snapshot per policy kind.
    fn every_kind() -> [EngineSnapshot; 3] {
        [
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
        ]
    }

    #[test]
    fn round_trips_every_policy_kind() {
        for snap in every_kind() {
            let bytes = snap.encode();
            assert_eq!(EngineSnapshot::decode(&bytes).unwrap(), snap);
        }
    }

    /// The `DCSS` bytes of one snapshot per policy kind, pinned by a
    /// 64-bit FNV-1a over each image's length (u64 LE) and bytes: a
    /// codec change that moves a single bit fails here.
    #[test]
    fn encodings_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for bytes in every_kind().map(|s| s.encode()) {
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(&bytes) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0x128a_7a4d_2fa4_e978);
    }

    #[test]
    fn rejects_corruption() {
        let bytes = sample().encode();
        assert!(matches!(
            EngineSnapshot::decode(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Decode(
                DecodeError::BadCrc { .. } | DecodeError::Truncated
            ))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::decode(&bad_magic),
            Err(SnapshotError::Decode(DecodeError::BadMagic { .. }))
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            EngineSnapshot::decode(&bad_version),
            Err(SnapshotError::Decode(
                DecodeError::UnsupportedVersion { .. }
            ))
        ));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            EngineSnapshot::decode(&flipped),
            Err(SnapshotError::Decode(DecodeError::BadCrc { .. }))
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
