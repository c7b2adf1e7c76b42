//! The DeepCSI classifier architecture (Fig. 4).

use deepcsi_nn::{
    AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Network, Selu, SpatialAttention, Tensor,
};

/// Architecture hyper-parameters of the DeepCSI classifier.
///
/// The defaults are the paper's selection (§III-C / §V): five
/// convolutional layers with 128 filters and kernels (1,7)(1,7)(1,7)(1,5)
/// (1,3), max-pooling (1,2) after each, a spatial-attention block, dense
/// layers of 128 and 64 units with alpha-dropout rates 0.5 and 0.2, and a
/// 10-class softmax head. At the paper's input size this counts 489,305
/// trainable parameters (the paper reports 489,301).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Filters per convolutional layer (one entry per layer).
    pub conv_filters: Vec<usize>,
    /// Kernel widths per convolutional layer (same length).
    pub conv_kernels: Vec<usize>,
    /// Attention convolution kernel width.
    pub attention_kernel: usize,
    /// Hidden dense layer sizes.
    pub dense_units: Vec<usize>,
    /// Alpha-dropout rates between the dense layers (same length).
    pub dropout_rates: Vec<f32>,
    /// Number of output classes (modules).
    pub num_classes: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's architecture.
    pub fn paper(num_classes: usize, seed: u64) -> Self {
        ModelConfig {
            conv_filters: vec![128; 5],
            conv_kernels: vec![7, 7, 7, 5, 3],
            attention_kernel: 7,
            dense_units: vec![128, 64],
            dropout_rates: vec![0.5, 0.2],
            num_classes,
            seed,
        }
    }

    /// A two-conv-layer demo profile that trains to usable accuracy in
    /// about a second on narrow (`stride: 4`) inputs — the recipe the
    /// serving demos, the `deepcsi-served` binary and the engine
    /// integration tests all share.
    pub fn demo(num_classes: usize) -> Self {
        ModelConfig {
            conv_filters: vec![16, 16],
            conv_kernels: vec![7, 5],
            attention_kernel: 7,
            dense_units: vec![32],
            dropout_rates: vec![0.1],
            num_classes,
            seed: 5,
        }
    }

    /// A slimmer profile for laptop-scale experiment sweeps (same layer
    /// structure, fewer filters/units). Used by the figure binaries
    /// together with [`deepcsi_data::InputSpec::fast`].
    pub fn fast(num_classes: usize, seed: u64) -> Self {
        ModelConfig {
            conv_filters: vec![24; 4],
            conv_kernels: vec![7, 7, 5, 3],
            attention_kernel: 7,
            dense_units: vec![48, 32],
            dropout_rates: vec![0.3, 0.1],
            num_classes,
            seed,
        }
    }

    /// Checks that [`ModelConfig::build`] can assemble this
    /// architecture for `input_shape` `(channels, rows, cols)`.
    ///
    /// # Errors
    ///
    /// Why it cannot: configuration vectors that disagree in length, a
    /// zero size, an even kernel width, a dropout rate outside `[0, 1)`
    /// or an input too narrow for the pooling pyramid.
    pub fn validate(&self, (ch, rows, cols): (usize, usize, usize)) -> Result<(), String> {
        if self.conv_filters.len() != self.conv_kernels.len() {
            return Err("one kernel per conv layer".into());
        }
        if self.dense_units.len() != self.dropout_rates.len() {
            return Err("one dropout rate per dense layer".into());
        }
        if ch == 0 || rows == 0 || cols == 0 {
            return Err(format!("empty input shape {:?}", (ch, rows, cols)));
        }
        let sizes = self.conv_filters.iter().chain(&self.dense_units);
        if sizes.chain([&self.num_classes]).any(|&n| n == 0) {
            return Err("every layer needs at least one unit".into());
        }
        let mut kernels = self.conv_kernels.iter().chain([&self.attention_kernel]);
        if let Some(k) = kernels.find(|&&k| k % 2 == 0) {
            return Err(format!("kernel width {k} is even (same padding needs odd)"));
        }
        if let Some(r) = self.dropout_rates.iter().find(|r| !(0.0..1.0).contains(*r)) {
            return Err(format!("dropout rate {r} is outside [0, 1)"));
        }
        if self.conv_filters.iter().fold(cols, |c, _| c / 2) == 0 {
            return Err("input too narrow for the pooling pyramid".into());
        }
        Ok(())
    }

    /// The length of every weight tensor [`ModelConfig::build`] would
    /// make for `input_shape`, in `Network::weights` order, computed
    /// with checked arithmetic and without building anything.
    ///
    /// # Errors
    ///
    /// [`ModelConfig::validate`]'s reason, or a tensor whose size
    /// overflows `usize`.
    pub(crate) fn weight_lens(
        &self,
        input_shape: (usize, usize, usize),
    ) -> Result<Vec<usize>, String> {
        self.validate(input_shape)?;
        let mul = |a: usize, b: usize| {
            a.checked_mul(b)
                .ok_or_else(|| format!("a weight tensor of {a} × {b} values overflows"))
        };
        let (mut ch, rows, mut cols) = input_shape;
        let mut lens = Vec::new();
        for (&filters, &kernel) in self.conv_filters.iter().zip(&self.conv_kernels) {
            lens.extend([mul(mul(filters, ch)?, kernel)?, filters]);
            ch = filters;
            cols /= 2;
        }
        lens.extend([mul(2, self.attention_kernel)?, 1]);
        let mut dim = mul(mul(ch, rows)?, cols)?;
        for &units in self.dense_units.iter().chain([&self.num_classes]) {
            lens.extend([mul(units, dim)?, units]);
            dim = units;
        }
        Ok(lens)
    }

    /// Builds the network for a given input shape `(channels, rows,
    /// cols)`.
    ///
    /// # Panics
    ///
    /// Panics with [`ModelConfig::validate`]'s reason when the
    /// configuration cannot be built for this input.
    pub fn build(&self, input_shape: (usize, usize, usize)) -> Network {
        if let Err(reason) = self.validate(input_shape) {
            panic!("{reason}");
        }
        let (mut ch, rows, mut cols) = input_shape;
        let mut net = Network::new();
        for (li, (&filters, &kernel)) in self
            .conv_filters
            .iter()
            .zip(self.conv_kernels.iter())
            .enumerate()
        {
            net.push(Conv2d::new(
                ch,
                filters,
                (1, kernel),
                self.seed.wrapping_add(li as u64 * 101),
            ));
            net.push(Selu::new());
            net.push(MaxPool2d::new((1, 2)));
            ch = filters;
            cols /= 2;
        }
        net.push(SpatialAttention::new(
            self.attention_kernel,
            self.seed.wrapping_add(7777),
        ));
        net.push(Flatten::new());
        let mut dim = ch * rows * cols;
        for (li, (&units, &rate)) in self
            .dense_units
            .iter()
            .zip(self.dropout_rates.iter())
            .enumerate()
        {
            net.push(Dense::new(
                dim,
                units,
                self.seed.wrapping_add(900 + li as u64),
            ));
            net.push(Selu::new());
            net.push(AlphaDropout::new(
                rate,
                self.seed.wrapping_add(950 + li as u64),
            ));
            dim = units;
        }
        net.push(Dense::new(
            dim,
            self.num_classes,
            self.seed.wrapping_add(999),
        ));
        net
    }

    /// Builds the network and sanity-checks it against a probe input.
    ///
    /// # Panics
    ///
    /// Panics if the probe's shape disagrees with `input_shape`.
    pub fn build_for(&self, probe: &Tensor) -> Network {
        let [c, h, w]: [usize; 3] = probe
            .shape()
            .try_into()
            .expect("classifier input must be rank 3");
        self.build((c, h, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer(net: &Network, x: &Tensor) -> Tensor {
        let frozen = net.freeze();
        frozen.infer(x, &mut frozen.ctx())
    }

    #[test]
    fn paper_architecture_parameter_count() {
        // §III-C: "a DNN containing 489,301 trainable parameters". Our
        // bias bookkeeping counts 489,305 — same architecture.
        let cfg = ModelConfig::paper(10, 0);
        let net = cfg.build((5, 1, 234));
        assert_eq!(net.num_params(), 489_305);
    }

    #[test]
    fn forward_shape_is_class_logits() {
        let cfg = ModelConfig::fast(10, 1);
        let net = cfg.build((5, 1, 117));
        let y = infer(&net, &Tensor::zeros(vec![5, 1, 117]));
        assert_eq!(y.shape(), &[10]);
        assert!(y.is_finite());
    }

    #[test]
    fn works_for_20mhz_inputs() {
        // 52 tones survive the paper's five (1,2) pools: 52→26→13→6→3→1.
        let cfg = ModelConfig::paper(10, 0);
        let net = cfg.build((5, 1, 52));
        let y = infer(&net, &Tensor::zeros(vec![5, 1, 52]));
        assert_eq!(y.shape(), &[10]);
    }

    #[test]
    fn two_row_input_is_supported() {
        let cfg = ModelConfig::fast(10, 3);
        let net = cfg.build((5, 2, 117));
        let y = infer(&net, &Tensor::zeros(vec![5, 2, 117]));
        assert_eq!(y.shape(), &[10]);
    }

    #[test]
    fn seeds_change_weights() {
        let a = ModelConfig::fast(4, 1).build((2, 1, 32));
        let b = ModelConfig::fast(4, 2).build((2, 1, 32));
        let x = Tensor::from_vec(vec![0.5; 64], vec![2, 1, 32]);
        let ya = infer(&a, &x);
        let yb = infer(&b, &x);
        assert_ne!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn weight_lens_match_the_built_network() {
        for (cfg, shape) in [
            (ModelConfig::paper(10, 0), (5, 1, 234)),
            (ModelConfig::demo(4), (5, 1, 59)),
            (ModelConfig::fast(3, 1), (5, 2, 117)),
        ] {
            let lens: Vec<usize> = cfg.build(shape).weights().iter().map(|w| w.len()).collect();
            assert_eq!(cfg.weight_lens(shape), Ok(lens));
        }
        let mut huge = ModelConfig::demo(4);
        huge.dense_units[0] = usize::MAX / 2;
        assert!(huge
            .weight_lens((5, 1, 59))
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn validate_names_what_build_would_panic_on() {
        assert_eq!(ModelConfig::demo(4).validate((5, 1, 59)), Ok(()));
        for want in [
            "one kernel",
            "one dropout",
            "at least one unit",
            "even",
            "outside",
        ] {
            let mut cfg = ModelConfig::demo(4);
            match want {
                "one kernel" => cfg.conv_kernels.push(3),
                "one dropout" => cfg.dropout_rates.clear(),
                "at least one unit" => cfg.num_classes = 0,
                "even" => cfg.attention_kernel = 4,
                _ => cfg.dropout_rates[0] = f32::NAN,
            }
            let err = cfg.validate((5, 1, 59)).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
        let narrow = ModelConfig::demo(4).validate((5, 1, 3)).unwrap_err();
        assert!(narrow.contains("too narrow"), "{narrow}");
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn too_narrow_input_panics() {
        let cfg = ModelConfig::paper(10, 0);
        let _ = cfg.build((5, 1, 8)); // 8 → 4 → 2 → 1 → 0
    }
}
