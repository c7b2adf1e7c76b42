//! **Fig. 8** — confusion matrices for beamformee 1, 3 TX antennas,
//! spatial stream 0, on the Table I sets.
//!
//! Paper: S1 98.02 %, S2 75.41 %, S3 42.97 %.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split, generate_d1, D1Set};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    println!("Fig. 8 — D1 static sets, beamformee 1, stream 0\n");
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        let split = d1_split(&ds, set, &[1], &scale.spec);
        run_labeled(&scale, &split, "fig08", &format!("{set:?}"), true);
    }
}
