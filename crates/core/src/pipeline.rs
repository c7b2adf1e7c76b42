//! The deployed observer: sniffed bytes → module identity.

use crate::model::ModelConfig;
use deepcsi_bfi::BeamformingFeedback;
use deepcsi_data::InputSpec;
use deepcsi_frame::{BeamformingReportFrame, FrameError, MacAddr};
use deepcsi_nn::{FrozenModel, InferCtx, Network, QuantError, QuantSpec, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// Numeric backend of a frozen serving snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The f32 reference path — bit-equal to training-time
    /// `forward(x, false)`.
    #[default]
    F32,
    /// Post-training-quantized int8: integer conv/dense kernels,
    /// calibrated activation scales, approximately-equal predictions
    /// (see `deepcsi_nn::quant`).
    Int8,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Precision {
    /// The CLI-facing name (`"f32"` / `"int8"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision {other:?} (expected f32 or int8)"
            )),
        }
    }
}

/// Errors from the authentication pipeline.
#[derive(Debug)]
pub enum AuthError {
    /// The captured bytes did not decode as a beamforming report.
    Frame(FrameError),
    /// Model persistence failed.
    Io(std::io::Error),
    /// Model (de)serialisation failed.
    Codec(bincode::Error),
    /// A saved model decoded but cannot be served: its architecture does
    /// not build, its weights do not fit the architecture, or a weight
    /// is NaN or ±∞.
    InvalidModel(String),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::Frame(e) => write!(f, "frame decode failed: {e}"),
            AuthError::Io(e) => write!(f, "model i/o failed: {e}"),
            AuthError::Codec(e) => write!(f, "model codec failed: {e}"),
            AuthError::InvalidModel(reason) => write!(f, "invalid model: {reason}"),
        }
    }
}

impl std::error::Error for AuthError {}

impl From<FrameError> for AuthError {
    fn from(e: FrameError) -> Self {
        AuthError::Frame(e)
    }
}

impl From<std::io::Error> for AuthError {
    fn from(e: std::io::Error) -> Self {
        AuthError::Io(e)
    }
}

impl From<bincode::Error> for AuthError {
    fn from(e: bincode::Error) -> Self {
        AuthError::Codec(e)
    }
}

/// Serialised trained model: architecture + input spec + weights.
#[derive(Serialize, Deserialize)]
struct SavedModel {
    model: ModelConfig,
    spec: InputSpec,
    input_shape: (usize, usize, usize),
    weights: Vec<Vec<f32>>,
}

/// A trained DeepCSI classifier deployed as a real-time authenticator
/// (the "DeepCSI Real-Time Inference" box of Fig. 1).
///
/// Feed it raw captured frames ([`Authenticator::classify_frame`]) or
/// already-parsed feedback ([`Authenticator::classify_feedback`]); it
/// returns the inferred module identity.
pub struct Authenticator {
    net: Network,
    spec: InputSpec,
    model: Option<ModelConfig>,
    input_shape: Option<(usize, usize, usize)>,
    /// Lazily built inference snapshot backing the one-shot
    /// `classify_*` calls, so they never re-copy the weights. Safe to
    /// cache: nothing in this type's API mutates `net`'s weights after
    /// construction.
    frozen: OnceLock<FrozenModel>,
}

impl Clone for Authenticator {
    fn clone(&self) -> Self {
        // The frozen cache is per-instance scratch; the clone rebuilds
        // its own on first use.
        Authenticator {
            net: self.net.clone(),
            spec: self.spec.clone(),
            model: self.model.clone(),
            input_shape: self.input_shape,
            frozen: OnceLock::new(),
        }
    }
}

impl Authenticator {
    /// Wraps a trained network and the input spec it was trained with.
    pub fn new(net: Network, spec: InputSpec) -> Self {
        Authenticator {
            net,
            spec,
            model: None,
            input_shape: None,
            frozen: OnceLock::new(),
        }
    }

    /// Like [`Authenticator::new`], also recording the architecture so
    /// the model can be saved with [`Authenticator::save`].
    pub fn with_config(
        net: Network,
        spec: InputSpec,
        model: ModelConfig,
        input_shape: (usize, usize, usize),
    ) -> Self {
        Authenticator {
            net,
            spec,
            model: Some(model),
            input_shape: Some(input_shape),
            frozen: OnceLock::new(),
        }
    }

    /// The cached inference snapshot (built on first use).
    fn frozen_model(&self) -> &FrozenModel {
        self.frozen.get_or_init(|| self.net.freeze())
    }

    /// The input spec this authenticator tensorises feedback with.
    pub fn spec(&self) -> &InputSpec {
        &self.spec
    }

    /// Classifies a parsed beamforming feedback, returning the predicted
    /// module id.
    ///
    /// Runs on a cached frozen snapshot, so repeated calls copy no
    /// weights (only a small scratch context is built per call — batch
    /// callers should [`Authenticator::freeze`] and reuse an
    /// [`InferCtx`] instead).
    pub fn classify_feedback(&self, fb: &BeamformingFeedback) -> usize {
        let x = self.spec.tensor(fb);
        let frozen = self.frozen_model();
        frozen.infer(&x, &mut frozen.ctx()).argmax()
    }

    /// The wrapped network (training-side access; the serving engine
    /// runs on [`Authenticator::freeze`]'s snapshot instead).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The recorded input shape `(channels, rows, cols)`, when this
    /// authenticator was built with [`Authenticator::with_config`] or
    /// loaded from disk. The serving engine uses it to pin the accepted
    /// tensor shape up front.
    pub fn input_shape(&self) -> Option<(usize, usize, usize)> {
        self.input_shape
    }

    /// Builds the input tensor for a parsed feedback without classifying
    /// it (the serving engine batches tensors before inference).
    pub fn tensorize(&self, fb: &BeamformingFeedback) -> Tensor {
        self.spec.tensor(fb)
    }

    /// Snapshots this authenticator into an immutable, `Send + Sync`
    /// [`FrozenAuthenticator`] for serving.
    ///
    /// The frozen model's predictions are bit-equal to this
    /// authenticator's (`Network::forward(x, false)` arithmetic); the
    /// weights are copied exactly once, so any number of worker threads
    /// can share one `Arc<FrozenAuthenticator>` with no per-worker
    /// clone.
    pub fn freeze(&self) -> FrozenAuthenticator {
        FrozenAuthenticator {
            model: self.net.freeze(),
            spec: self.spec.clone(),
            input_shape: self.input_shape,
            precision: Precision::F32,
        }
    }

    /// Decodes a captured frame and classifies its feedback, returning
    /// the reporting beamformee's address and the predicted module id.
    ///
    /// # Errors
    ///
    /// [`AuthError::Frame`] when the bytes do not parse.
    pub fn classify_frame(&self, bytes: &[u8]) -> Result<(MacAddr, usize), AuthError> {
        let frame = BeamformingReportFrame::parse(bytes)?;
        let source = frame.source();
        let id = self.classify_feedback(frame.feedback());
        Ok((source, id))
    }

    /// Saves the trained model (requires construction via
    /// [`Authenticator::with_config`]).
    ///
    /// # Errors
    ///
    /// I/O or serialisation failures.
    ///
    /// # Panics
    ///
    /// Panics if the authenticator was built without a recorded
    /// architecture.
    pub fn save<P: AsRef<Path>>(&mut self, path: P) -> Result<(), AuthError> {
        let model = self.model.clone().expect("architecture not recorded");
        let input_shape = self.input_shape.expect("input shape not recorded");
        let saved = SavedModel {
            model,
            spec: self.spec.clone(),
            input_shape,
            weights: self.net.save_weights(),
        };
        let file = std::fs::File::create(path)?;
        bincode::serialize_into(std::io::BufWriter::new(file), &saved)?;
        Ok(())
    }

    /// Loads a model saved by [`Authenticator::save`].
    ///
    /// # Errors
    ///
    /// I/O or deserialisation failures, and [`AuthError::InvalidModel`]
    /// when the decoded model cannot be served (see
    /// [`ModelConfig::validate`] and `Network::load_weights`) — a corrupt
    /// file is refused here rather than panicking or serving NaN.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, AuthError> {
        let file = std::fs::File::open(path)?;
        let saved: SavedModel = bincode::deserialize_from(std::io::BufReader::new(file))?;
        saved
            .model
            .validate(saved.input_shape)
            .map_err(AuthError::InvalidModel)?;
        let mut net = saved.model.build(saved.input_shape);
        net.load_weights(&saved.weights)
            .map_err(AuthError::InvalidModel)?;
        Ok(Authenticator {
            net,
            spec: saved.spec,
            model: Some(saved.model),
            input_shape: Some(saved.input_shape),
            frozen: OnceLock::new(),
        })
    }
}

/// An immutable, `Send + Sync` snapshot of a trained [`Authenticator`]:
/// the frozen classifier weights plus the input spec they were trained
/// with.
///
/// Produced by [`Authenticator::freeze`]. This is the type the serving
/// engine shares across its worker ring — one `Arc<FrozenAuthenticator>`
/// for the whole pool, each worker holding only its own scratch
/// [`InferCtx`]s. All inference is bit-equal to the source
/// authenticator's.
pub struct FrozenAuthenticator {
    model: FrozenModel,
    spec: InputSpec,
    input_shape: Option<(usize, usize, usize)>,
    precision: Precision,
}

impl FrozenAuthenticator {
    /// Builds a post-training-quantized **int8** snapshot of `auth`:
    /// activation scales are calibrated by running `calib` (a
    /// representative batch of input tensors, e.g.
    /// [`Authenticator::tensorize`]d training feedback) through the f32
    /// model, then the conv/dense layers are re-frozen onto integer
    /// kernels (`deepcsi_nn::quant`).
    ///
    /// Predictions are *approximately* equal to the f32 snapshot's —
    /// top-1 agreement is pinned ≥ 99% by the accuracy-parity suite —
    /// and, like f32, **bit-identical at any batch size**, so the
    /// engine's worker- and batch-invariance contract holds at both
    /// precisions.
    ///
    /// # Errors
    ///
    /// [`QuantError::EmptySample`] for an empty calibration batch;
    /// [`QuantError::Shape`] when the assembled pipeline fails shape
    /// validation (mis-matched calibration).
    pub fn quantized(
        auth: &Authenticator,
        calib: &[Tensor],
    ) -> Result<FrozenAuthenticator, QuantError> {
        let spec = QuantSpec::calibrate(&auth.net.freeze(), calib)?;
        Ok(FrozenAuthenticator {
            model: auth.net.freeze_int8(&spec)?,
            spec: auth.spec.clone(),
            input_shape: auth.input_shape,
            precision: Precision::Int8,
        })
    }

    /// The input spec feedback is tensorised with.
    pub fn spec(&self) -> &InputSpec {
        &self.spec
    }

    /// The numeric backend this snapshot serves with.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The recorded input shape `(channels, rows, cols)`, when the
    /// source authenticator recorded one (see
    /// [`Authenticator::input_shape`]).
    pub fn input_shape(&self) -> Option<(usize, usize, usize)> {
        self.input_shape
    }

    /// The frozen classifier.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// A fresh per-worker scratch context.
    pub fn ctx(&self) -> InferCtx {
        self.model.ctx()
    }

    /// Builds the input tensor for a parsed feedback without classifying
    /// it (the serving engine batches tensors before inference).
    pub fn tensorize(&self, fb: &BeamformingFeedback) -> Tensor {
        self.spec.tensor(fb)
    }

    /// Classifies a parsed beamforming feedback, returning the predicted
    /// module id (bit-equal to [`Authenticator::classify_feedback`]).
    pub fn classify_feedback(&self, fb: &BeamformingFeedback, ctx: &mut InferCtx) -> usize {
        let x = self.spec.tensor(fb);
        self.model.infer(&x, ctx).argmax()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_data::{generate_trace, GenConfig, TraceKind, TraceSpec};
    use deepcsi_impair::DeviceId;

    fn tiny_trace() -> deepcsi_data::Trace {
        generate_trace(
            &GenConfig {
                snapshots_per_trace: 2,
                ..GenConfig::default()
            },
            &TraceSpec {
                module: DeviceId(0),
                beamformee: 1,
                n_rx: 2,
                rx_position: 3,
                kind: TraceKind::D1Static { position: 3 },
            },
        )
    }

    fn tiny_authenticator() -> (Authenticator, ModelConfig, InputSpec) {
        let spec = InputSpec::fast();
        let trace = tiny_trace();
        let probe = spec.tensor(&trace.snapshots[0]);
        let [c, h, w]: [usize; 3] = probe.shape().try_into().unwrap();
        let model = ModelConfig::fast(3, 9);
        let net = model.build((c, h, w));
        (
            Authenticator::with_config(net, spec.clone(), model.clone(), (c, h, w)),
            model,
            spec,
        )
    }

    #[test]
    fn classifies_feedback_and_frames_consistently() {
        let (auth, _, _) = tiny_authenticator();
        let trace = tiny_trace();
        let fb = &trace.snapshots[0];
        let direct = auth.classify_feedback(fb);
        assert!(direct < 3);
        // Through the frame path.
        let frame = deepcsi_frame::BeamformingReportFrame::new(
            MacAddr::station(100),
            MacAddr::station(1),
            MacAddr::station(100),
            3,
            fb.clone(),
        );
        let (src, id) = auth.classify_frame(&frame.encode()).unwrap();
        assert_eq!(src, MacAddr::station(1));
        assert_eq!(id, direct);
    }

    #[test]
    fn garbage_frame_is_an_error() {
        let (auth, _, _) = tiny_authenticator();
        let err = auth.classify_frame(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, AuthError::Frame(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn save_load_preserves_predictions() {
        let (mut auth, _, _) = tiny_authenticator();
        let trace = tiny_trace();
        let before: Vec<usize> = trace
            .snapshots
            .iter()
            .map(|fb| auth.classify_feedback(fb))
            .collect();
        let dir = std::env::temp_dir().join("deepcsi-auth-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let loaded = Authenticator::load(&path).unwrap();
        let after: Vec<usize> = trace
            .snapshots
            .iter()
            .map(|fb| loaded.classify_feedback(fb))
            .collect();
        assert_eq!(before, after);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frozen_authenticator_matches_source_predictions() {
        let (auth, _, _) = tiny_authenticator();
        let frozen = auth.freeze();
        let mut ctx = frozen.ctx();
        let trace = tiny_trace();
        for fb in &trace.snapshots {
            assert_eq!(
                auth.classify_feedback(fb),
                frozen.classify_feedback(fb, &mut ctx)
            );
        }
        assert_eq!(frozen.input_shape(), auth.input_shape());
    }

    #[test]
    fn load_refuses_a_corrupt_model() {
        let (mut auth, _, _) = tiny_authenticator();
        let dir = std::env::temp_dir().join("deepcsi-auth-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        auth.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for what in [
            "truncated weight vector",
            "NaN weight",
            "mismatched config lengths",
        ] {
            let mut bad: SavedModel = bincode::deserialize(&bytes).unwrap();
            match what {
                "truncated weight vector" => drop(bad.weights[0].pop()),
                "NaN weight" => bad.weights[1][0] = f32::NAN,
                _ => bad.model.conv_kernels.push(3),
            }
            std::fs::write(&path, bincode::serialize(&bad).unwrap()).unwrap();
            assert!(
                matches!(Authenticator::load(&path), Err(AuthError::InvalidModel(_))),
                "{what} must be refused"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_fails() {
        assert!(matches!(
            Authenticator::load("/nonexistent/model.bin"),
            Err(AuthError::Io(_))
        ));
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("fp16".parse::<Precision>().is_err());
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn quantized_snapshot_serves_the_same_interface() {
        let (auth, _, _) = tiny_authenticator();
        let trace = tiny_trace();
        let calib: Vec<Tensor> = trace
            .snapshots
            .iter()
            .map(|fb| auth.tensorize(fb))
            .collect();
        let frozen = auth.freeze();
        let int8 = FrozenAuthenticator::quantized(&auth, &calib).unwrap();
        assert_eq!(frozen.precision(), Precision::F32);
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(int8.input_shape(), auth.input_shape());
        let mut ctx = int8.ctx();
        for fb in &trace.snapshots {
            let id = int8.classify_feedback(fb, &mut ctx);
            assert!(id < 3);
        }
        // Empty calibration is rejected up front.
        assert!(FrozenAuthenticator::quantized(&auth, &[]).is_err());
    }
}
