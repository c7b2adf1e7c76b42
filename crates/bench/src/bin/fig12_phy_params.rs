//! **Fig. 12** — accuracy vs (a) channel bandwidth and (b) number of TX
//! antennas used for fingerprinting.
//!
//! Paper: both forms of diversity help, especially on the hard sets —
//! 80 MHz > 40 MHz > 20 MHz (Ncol 234/110/54) and 3 > 2 > 1 antennas.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split, generate_d1, D1Set, InputSpec};
use deepcsi_phy::{SubcarrierLayout, WifiChannel};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    let layout = SubcarrierLayout::vht80();

    println!("Fig. 12a — accuracy vs channel bandwidth, beamformee 1, stream 0\n");
    let bands: [(&str, Option<Vec<usize>>); 3] = [
        ("80MHz", None),
        (
            "40MHz",
            Some(layout.subband(&WifiChannel::CH42, &WifiChannel::CH38)),
        ),
        (
            "20MHz",
            Some(layout.subband(&WifiChannel::CH42, &WifiChannel::CH36)),
        ),
    ];
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        for (name, positions) in &bands {
            let ncol = positions.as_ref().map(|p| p.len()).unwrap_or(layout.len());
            let spec = InputSpec {
                subcarrier_positions: positions.clone(),
                ..scale.spec.clone()
            };
            let split = d1_split(&ds, set, &[1], &spec);
            run_labeled(
                &scale,
                &split,
                "fig12a",
                &format!("{set:?}-{name}-ncol{ncol}"),
                false,
            );
        }
        println!();
    }

    println!("Fig. 12b — accuracy vs number of TX antennas, beamformee 1, stream 0\n");
    let antenna_sets: [(&str, Vec<usize>); 3] = [
        ("3ant", vec![0, 1, 2]),
        ("2ant", vec![0, 1]),
        ("1ant", vec![0]),
    ];
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        for (name, antennas) in &antenna_sets {
            let spec = InputSpec {
                antennas: antennas.clone(),
                ..scale.spec.clone()
            };
            let split = d1_split(&ds, set, &[1], &spec);
            run_labeled(&scale, &split, "fig12b", &format!("{set:?}-{name}"), false);
        }
        println!();
    }
}
