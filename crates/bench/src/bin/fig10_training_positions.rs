//! **Fig. 10** — accuracy as a function of the number of beamformee
//! positions in the training set (1..9 for S1, 1..5 for S2/S3).
//!
//! Paper: accuracy increases monotonically with training-position
//! diversity for every set.

use deepcsi_bench::{run_labeled, FigureScale};
use deepcsi_data::{d1_split_positions, generate_d1, D1Set};

/// Nested training-position subsets, growing outward from the center so
/// every prefix is spatially balanced.
fn growth_order(set: D1Set) -> Vec<usize> {
    match set {
        D1Set::S1 => vec![5, 3, 7, 1, 9, 2, 4, 6, 8],
        D1Set::S2 => vec![5, 3, 7, 1, 9],
        D1Set::S3 => vec![3, 2, 4, 1, 5],
    }
}

fn main() {
    let scale = FigureScale::from_args();
    let ds = generate_d1(&scale.gen);
    println!("Fig. 10 — accuracy vs number of training positions, beamformee 1\n");
    for set in [D1Set::S1, D1Set::S2, D1Set::S3] {
        let order = growth_order(set);
        let test_positions = set.test_positions();
        println!("set {set:?} (test positions {test_positions:?}):");
        for n in 1..=order.len() {
            let train_positions = &order[..n];
            let split =
                d1_split_positions(&ds, train_positions, &test_positions, &[1], &scale.spec);
            run_labeled(&scale, &split, "fig10", &format!("{set:?}-npos{n}"), false);
        }
        println!();
    }
}
