//! **Fig. 9** — confusion matrices when the training set pools the
//! feedback of *both* beamformees.
//!
//! Paper: S1 97.62 %, S2 77.38 %, S3 47.28 % — slightly better than
//! single-beamformee training on S2/S3, at the cost of trusting another
//! station's reports.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split, generate_d1, D1Set};

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    println!("Fig. 9 — mixed beamformees (train/test on both), stream 0\n");
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        let split = d1_split(&ds, set, &[1, 2], &scale.spec);
        run_labeled(&scale, &split, "fig09", &format!("{set:?}-mixed"), true);
    }
}
