//! The two persisted formats decode totally: no byte string makes
//! `EngineSnapshot::decode` (the `DCSS` state image) or
//! `Authenticator::load` (the saved model) panic, whether the bytes are
//! arbitrary or one byte away from a valid image.
//!
//! Both are `magic | version | body | crc32` envelopes. A changed image
//! is decoded as it is and again with its trailing CRC recomputed, so
//! the structural decoder behind the checksum is what gets exercised.
//! Every `DCSS` image that decodes is restored onto a live engine of
//! its policy kind. A changed model image is written to a file of its
//! own and loaded; half of its changes land in the header
//! (architecture, input spec and shape), where a bad value must be
//! refused before anything is built.

mod common;

use common::{dataset, frames, untrained};
use deepcsi_core::{Authenticator, FrozenAuthenticator, ModelConfig};
use deepcsi_data::InputSpec;
use deepcsi_frame::crc32;
use deepcsi_serve::{DeviceRegistry, Engine, EngineSnapshot, PolicyKind, ReplaySource};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A valid `DCSS` image per policy kind, each the state of an engine
/// that served a short replay, and the model and registry they ran with.
struct Snapshots {
    frozen: Arc<FrozenAuthenticator>,
    registry: DeviceRegistry,
    images: Vec<Vec<u8>>,
}

fn snapshots() -> &'static Snapshots {
    static SNAPSHOTS: OnceLock<Snapshots> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let ds = dataset(2, 12);
        let frozen = Arc::new(untrained(ModelConfig::demo(2)).freeze());
        let registry = ReplaySource::registry(&ds);
        let kinds = [
            PolicyKind::FixedMajority,
            PolicyKind::ConfidenceWeighted,
            PolicyKind::AdaptiveThreshold,
        ];
        let images = kinds
            .into_iter()
            .map(|kind| {
                let engine = Engine::start_frozen(
                    common::config(kind, 1),
                    Arc::clone(&frozen),
                    registry.clone(),
                );
                for frame in frames(&ds) {
                    engine.ingest_frame(&frame);
                }
                engine.drain();
                let snap = engine.snapshot();
                assert!(!snap.devices.is_empty(), "the replay leaves device state");
                engine.shutdown();
                snap.encode()
            })
            .collect();
        Snapshots {
            frozen,
            registry,
            images,
        }
    })
}

/// Overwrites the image's trailing CRC with the checksum of the rest.
fn with_crc(mut image: Vec<u8>) -> Vec<u8> {
    let n = image.len() - 4;
    let crc = crc32(&image[..n]);
    image[n..].copy_from_slice(&crc.to_le_bytes());
    image
}

/// Decodes `bytes` and restores whatever decodes onto an engine of the
/// image's policy kind.
fn decode_and_restore(bytes: &[u8]) {
    let Ok(snap) = EngineSnapshot::decode(bytes) else {
        return;
    };
    let fixture = snapshots();
    let engine = Engine::start_frozen(
        common::config(snap.policy, 1),
        Arc::clone(&fixture.frozen),
        fixture.registry.clone(),
    );
    assert!(engine.restore(&snap) <= snap.devices.len());
    let _ = engine.snapshot();
    engine.shutdown();
}

/// One change to `image` at `at` (taken modulo the image length): flip
/// the byte by `xor`, delete it, or insert `xor` before it.
fn one_byte_change(mut image: Vec<u8>, change: u8, at: usize, xor: u8) -> Vec<u8> {
    let at = at % image.len();
    match change {
        0 => image[at] ^= xor,
        1 => drop(image.remove(at)),
        _ => image.insert(at, xor),
    }
    image
}

/// A saved model small enough to load hundreds of times.
fn model_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let (model, shape) = (ModelConfig::demo(2), (2, 1, 8));
        let auth =
            Authenticator::with_config(model.build(shape), InputSpec::default(), model, shape);
        let path = temp_file("valid");
        auth.save(&path).expect("save the model");
        let image = std::fs::read(&path).expect("read the model back");
        std::fs::remove_file(&path).ok();
        image
    })
}

/// A temp file of this process, one per property (they run in parallel).
fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "deepcsi-decoders-{}-{name}.bin",
        std::process::id()
    ))
}

/// Loads `bytes` through a file; any `Err` is fine, a panic is not.
fn load_bytes(name: &str, bytes: &[u8]) {
    let path = temp_file(name);
    std::fs::write(&path, bytes).expect("write the image");
    let _ = Authenticator::load(&path);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #[test]
    fn snapshot_decode_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_and_restore(&bytes);
        // The same bytes behind a valid magic and version and in front
        // of a matching CRC reach the structural decoder.
        let header = &snapshots().images[0][..6];
        decode_and_restore(&with_crc([header, &bytes, &[0; 4]].concat()));
    }

    #[test]
    fn snapshot_decode_is_total_on_one_byte_changes(
        kind in 0usize..3,
        change in 0u8..3,
        at in 0usize..1 << 20,
        xor in 1u8..=255,
    ) {
        let image = snapshots().images[kind].clone();
        let changed = one_byte_change(image, change, at, xor);
        decode_and_restore(&changed);
        decode_and_restore(&with_crc(changed));
    }

    #[test]
    fn model_load_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        load_bytes("arbitrary", &bytes);
    }

    #[test]
    fn model_load_is_total_on_one_byte_changes(
        in_header in any::<bool>(),
        change in 0u8..3,
        at in 0usize..1 << 20,
        xor in 1u8..=255,
    ) {
        let image = model_image().to_vec();
        let at = if in_header { at % 256 } else { at };
        let changed = one_byte_change(image, change, at, xor);
        load_bytes("changed", &changed);
        load_bytes("changed", &with_crc(changed));
    }
}
