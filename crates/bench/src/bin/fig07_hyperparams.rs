//! **Fig. 7** — hyper-parameter selection: validation accuracy (set S1,
//! beamformee 1) as a function of (a) the number of convolutional layers
//! and (b) the number of filters per layer, against model size.
//!
//! Paper: accuracy is nearly flat in depth (2–7 layers) and rises gently
//! with filter count; (5 layers, 128 filters) is picked by the elbow
//! method.

use deepcsi_bench::{pct, result_line, FigureScale};
use deepcsi_core::{run_experiment, ExperimentConfig, ModelConfig};
use deepcsi_data::{d1_split, generate_d1, D1Set};
use deepcsi_nn::TrainConfig;

fn main() {
    let mut scale = FigureScale::from_args();
    // The hyper-parameter sweep trains 11 models; shrink the dataset.
    if !scale.paper_model {
        scale.gen.num_modules = 6;
        scale.gen.snapshots_per_trace = 60;
    }
    // Depth 7 needs the full 234-tone width (234 → … → 1 over 7 pools),
    // exactly like the paper's input.
    scale.spec = deepcsi_data::InputSpec::paper_default();
    let ds = generate_d1(&scale.gen);
    let split = d1_split(&ds, D1Set::S1, &[1], &scale.spec);
    let classes = scale.gen.num_modules as usize;

    let kernels_for = |n: usize| -> Vec<usize> {
        // The paper's kernel schedule 7,7,7,5,3 extended/truncated.
        let base = [7usize, 7, 7, 5, 3, 3, 3];
        base[..n].to_vec()
    };

    let run = |model: ModelConfig, label: &str| {
        let cfg = ExperimentConfig {
            model,
            train: TrainConfig {
                epochs: scale.epochs,
                batch_size: 64,
                learning_rate: scale.learning_rate,
                seed: 7,
                ..TrainConfig::default()
            },
        };
        let t = std::time::Instant::now();
        // Fig. 7 reports *validation* accuracy, so evaluate on val.
        let probe_split = deepcsi_data::Split {
            train: split.train.clone(),
            val: split.val.clone(),
            test: split.val.clone(),
        };
        let net_probe = cfg.model.build_for(&split.train.x[0]);
        let params = net_probe.num_params();
        let result = run_experiment(&cfg, &probe_split);
        println!(
            "{label:<28} val acc {:>8}  params {:>9}  ({:.1?})",
            pct(result.accuracy),
            params,
            t.elapsed()
        );
        result_line("fig07", &format!("{label}-acc"), result.accuracy);
        result_line("fig07", &format!("{label}-params"), params as f64);
    };

    println!("Fig. 7a — validation accuracy vs number of conv layers (S1)\n");
    for n_conv in 2..=7usize {
        let filters = if scale.paper_model { 128 } else { 24 };
        let model = ModelConfig {
            conv_filters: vec![filters; n_conv],
            conv_kernels: kernels_for(n_conv),
            attention_kernel: 7,
            dense_units: vec![128, 64],
            dropout_rates: vec![0.5, 0.2],
            num_classes: classes,
            seed: 7,
        };
        run(model, &format!("nconv{n_conv}"));
    }

    println!("\nFig. 7b — validation accuracy vs filters per layer (5 conv layers)\n");
    let filter_sweep: &[usize] = if scale.paper_model {
        &[16, 32, 64, 128, 256]
    } else {
        &[8, 16, 24, 32, 48]
    };
    for &filters in filter_sweep {
        let model = ModelConfig {
            conv_filters: vec![filters; 5],
            conv_kernels: vec![7, 7, 7, 5, 3],
            attention_kernel: 7,
            dense_units: vec![128, 64],
            dropout_rates: vec![0.5, 0.2],
            num_classes: classes,
            seed: 7,
        };
        run(model, &format!("filters{filters}"));
    }
}
