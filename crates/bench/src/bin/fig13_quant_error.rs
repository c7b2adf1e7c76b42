//! **Fig. 13** — probability density of the Ṽ quantization error for the
//! two standard MU codebooks, per (TX antenna, spatial stream) element.
//!
//! Paper: the recursive structure of Algorithm 1 propagates quantization
//! error from the first reconstructed stream into the second, so every
//! `[Ṽ]_{m,2}` element reconstructs worse than `[Ṽ]_{m,1}`; the
//! (bψ=7, bφ=9) codebook is roughly 4× more accurate than (bψ=5, bφ=7).
//! This is a pure-math experiment (no training): we simulate MU-MIMO
//! soundings, quantize, reconstruct and histogram the element errors.

use deepcsi_bench::{result_line, PAPER_FLAGS};
use deepcsi_bfi::{BeamformingFeedback, VSeries};
use deepcsi_channel::{AntennaArray, ChannelModel, Environment};
use deepcsi_data::GenConfig;
use deepcsi_obs::Flags;
use deepcsi_phy::{Codebook, MimoConfig, SubcarrierLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of simulated soundings (the paper uses 100 000 channel
/// realisations; scaled down by default for laptop runs).
const NUM_SOUNDINGS: usize = 400; // × 234 tones ≈ 94 k matrix samples

#[allow(clippy::needless_range_loop)] // stream index addresses parallel arrays
fn main() {
    let paper_scale = Flags::from_env(PAPER_FLAGS).has("--paper");
    let n_soundings = if paper_scale { 2000 } else { NUM_SOUNDINGS };

    let gen = GenConfig::default();
    let env = Environment::fig6(gen.env_id);
    let layout = SubcarrierLayout::vht20(); // small layout → more positions
    let tones = layout.indices().to_vec();
    let model = ChannelModel::new(&env, layout);
    let mimo = MimoConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(13);

    for cb in [Codebook::MU_LOW, Codebook::MU_HIGH] {
        // error histogram per element (3 antennas × 2 streams).
        let mut errors: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for _ in 0..n_soundings {
            // Random TX/RX placement inside the room for channel variety.
            let tx = AntennaArray::new(
                deepcsi_channel::Point2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-0.2..1.0)),
                0.0,
                env.half_wavelength(),
                3,
            );
            let rx = AntennaArray::new(
                deepcsi_channel::Point2::new(rng.gen_range(-1.5..1.5), rng.gen_range(2.5..3.5)),
                0.0,
                env.half_wavelength(),
                2,
            );
            let cfr = model.cfr(&tx, &rx, &mut rng);
            let exact = VSeries::exact_from_cfr(&cfr, &tones, mimo);
            let quantized = BeamformingFeedback::from_cfr(&cfr, &tones, mimo, cb).reconstruct();
            for (e, q) in exact.v.iter().zip(quantized.v.iter()) {
                for m in 0..3 {
                    for s in 0..2 {
                        errors[m * 2 + s].push((e[(m, s)] - q[(m, s)]).abs());
                    }
                }
            }
        }

        println!("\n=== Fig. 13 ({cb}) — Ṽ quantization error PDFs ===");
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "element", "mean", "p50", "p95"
        );
        for m in 0..3 {
            for s in 0..2 {
                let v = &mut errors[m * 2 + s];
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let p50 = v[v.len() / 2];
                let p95 = v[v.len() * 95 / 100];
                println!(
                    "  [Ṽ]_{},{}  {:>12.3e} {:>12.3e} {:>12.3e}",
                    m + 1,
                    s + 1,
                    mean,
                    p50,
                    p95
                );
                result_line(
                    "fig13",
                    &format!("{cb}-V{}{}-mean", m + 1, s + 1).replace(' ', ""),
                    mean,
                );
            }
        }
        // Histogram for the first antenna, both streams (the paper's PDF).
        println!("  histogram (20 bins over [0, p99]):");
        for s in 0..2 {
            let v = &errors[s];
            let p99 = v[v.len() * 99 / 100];
            let mut bins = [0usize; 20];
            for &e in v.iter() {
                let b = ((e / p99 * 20.0) as usize).min(19);
                bins[b] += 1;
            }
            let dens: Vec<String> = bins
                .iter()
                .map(|&c| format!("{:.2}", c as f64 / v.len() as f64))
                .collect();
            println!("   stream {}: {}", s + 1, dens.join(" "));
        }

        // Headline check: stream-2 elements reconstruct worse.
        let mean_of = |idx: usize| errors[idx].iter().sum::<f64>() / errors[idx].len() as f64;
        let s1: f64 = (0..3).map(|m| mean_of(m * 2)).sum::<f64>() / 3.0;
        let s2: f64 = (0..3).map(|m| mean_of(m * 2 + 1)).sum::<f64>() / 3.0;
        println!(
            "  mean error stream1 {:.3e}  vs stream2 {:.3e}  (ratio {:.2})",
            s1,
            s2,
            s2 / s1
        );
        result_line(
            "fig13",
            &format!("{cb}-stream2-over-stream1").replace(' ', ""),
            s2 / s1,
        );
    }
}
