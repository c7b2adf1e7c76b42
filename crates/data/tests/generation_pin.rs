//! Pins the bits of dataset generation end to end: channel sounding,
//! impairments, the beamformee's feedback computation and quantization.
//!
//! A tiny D1 and D2 (two modules, three snapshots per trace, D2's
//! mobility traces included) are hashed with FNV-1a over every trace's
//! coordinates, timestamps and quantized angles. Any change to the
//! generated bits moves the hash.

use deepcsi_data::{generate_d1, generate_d2, Dataset, GenConfig};

fn fnv1a(datasets: &[Dataset]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for ds in datasets {
        for t in &ds.traces {
            eat(&t.module.0.to_le_bytes());
            eat(&[t.beamformee]);
            eat(&t.env_id.to_le_bytes());
            eat(format!("{:?}", t.kind).as_bytes());
            for ts in &t.timestamps {
                eat(&ts.to_bits().to_le_bytes());
            }
            for fb in &t.snapshots {
                eat(format!("{} {}", fb.mimo, fb.codebook).as_bytes());
                for k in &fb.subcarriers {
                    eat(&k.to_le_bytes());
                }
                for q in fb.q_phi.iter().chain(&fb.q_psi) {
                    eat(&q.to_le_bytes());
                }
            }
        }
    }
    hash
}

#[test]
fn tiny_d1_and_d2_are_pinned() {
    let cfg = GenConfig {
        num_modules: 2,
        snapshots_per_trace: 3,
        ..GenConfig::default()
    };
    let (d1, d2) = (generate_d1(&cfg), generate_d2(&cfg));
    assert_eq!(d1.num_snapshots(), 2 * 9 * 2 * 3);
    assert!(d2
        .traces
        .iter()
        .any(|t| matches!(t.kind, deepcsi_data::TraceKind::D2Mobility { .. })));
    let hash = fnv1a(&[d1, d2]);
    assert_eq!(
        hash, 0xfeef_80f4_6d07_6b5b,
        "generated datasets moved: {hash:#018x}"
    );
}
