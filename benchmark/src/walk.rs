//! The stage walk: one thread calls the layers in pipeline order over a
//! workload's own frames and model, with a span around each call.
//!
//! With spans on it yields the per-layer self-time budget; with spans
//! off it is the reference the engine and cluster runs are checked
//! against (per-report top-1).

use crate::trace::SpanBuf;
use deepcsi_capture::{FrameSource, PcapFileSource, SourcePoll};
use deepcsi_cluster::codec::encode_request;
use deepcsi_cluster::{FrameKind, RequestDecoder, RequestFrame};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_nn::Tensor;
use deepcsi_obs::{AuditEvent, AuditLog};
use deepcsi_serve::{
    DecisionPolicyConfig, DeviceRegistry, PolicyState, Verdict, VerdictPolicy, WindowConfig,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a workload's reports reach the MAC-layer parser.
pub enum Ingress {
    /// Out of a radiotap capture image (`replay_*`).
    Capture(Vec<u8>),
    /// Handed over as MPDUs (`paced_demo`).
    Frames(Vec<Vec<u8>>),
    /// Through the cluster wire codec (`wire_churn`).
    Wire(Vec<(MacAddr, Vec<u8>)>),
}

pub struct WalkInput<'a> {
    pub ingress: Ingress,
    pub auth: &'a FrozenAuthenticator,
    /// Reports per `infer_batch` call.
    pub batch: usize,
    pub decision: DecisionPolicyConfig,
    pub registry: &'a DeviceRegistry,
}

pub struct WalkResult {
    /// Argmax of every report, in arrival order.
    pub top1: Vec<usize>,
    pub wall: Duration,
}

/// The softmax probability of the winning logit (the engine's own
/// confidence definition, so walk and engine feed policies alike).
pub(crate) fn softmax_peak(logits: &[f32]) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum: f64 = logits.iter().map(|&v| f64::from(v - max).exp()).sum();
    1.0 / sum
}

pub fn walk(input: &WalkInput<'_>, spans: &mut SpanBuf) -> WalkResult {
    let started = Instant::now();
    let auth = input.auth;
    let policy = input
        .decision
        .build(WindowConfig::default(), VerdictPolicy::default());
    let audit = AuditLog::new(4096);
    let mut states: BTreeMap<MacAddr, (Box<dyn PolicyState>, bool)> = BTreeMap::new();
    let mut ctx = auth.ctx();
    let mut top1 = Vec::new();

    let mut capture = match &input.ingress {
        Ingress::Capture(image) => Some(PcapFileSource::from_bytes(image.clone())),
        _ => None,
    };
    let mut decoder = RequestDecoder::new();
    let count = match &input.ingress {
        Ingress::Capture(_) => usize::MAX,
        Ingress::Frames(f) => f.len(),
        Ingress::Wire(f) => f.len(),
    };

    let mut batch: Vec<(MacAddr, Tensor)> = Vec::with_capacity(input.batch);
    let mut flush =
        |batch: &mut Vec<(MacAddr, Tensor)>, top1: &mut Vec<usize>, spans: &mut SpanBuf| {
            if batch.is_empty() {
                return;
            }
            let first = top1.len() as u32;
            let (macs, tensors): (Vec<MacAddr>, Vec<Tensor>) = batch.drain(..).unzip();
            let outputs = spans.span("nn.infer_batch", first, |_| {
                auth.model().infer_batch(&tensors, &mut ctx)
            });
            for (mac, logits) in macs.into_iter().zip(&outputs) {
                let report = top1.len() as u32;
                let module = logits.argmax();
                top1.push(module);
                let expected = input.registry.expected(mac).map(|d| d.0 as usize);
                let decided = spans.span("serve.policy_push", report, |_| {
                    let (state, done) = states
                        .entry(mac)
                        .or_insert_with(|| (policy.new_state(), false));
                    state.push(module, softmax_peak(logits.as_slice()));
                    if *done {
                        return None;
                    }
                    let verdict = state.verdict(expected);
                    (verdict != Verdict::Unknown).then(|| {
                        *done = true;
                        (verdict, state.decision())
                    })
                });
                if let Some((verdict, decision)) = decided {
                    spans.span("obs.audit_append", report, |_| {
                        audit.append(AuditEvent {
                            seq: 0,
                            unix_ms: 0,
                            source: mac.to_string(),
                            verdict: verdict.as_str().to_string(),
                            expected: expected.map(|e| e as u64),
                            module: decision.map(|d| d.module as u64),
                            vote_fraction: decision.map_or(0.0, |d| d.vote_fraction),
                            confidence: decision.map_or(0.0, |d| d.confidence_ema),
                            observations: decision.map_or(0, |d| d.observations),
                            reports_to_verdict: decision.map(|d| d.observations),
                            policy: policy.name().to_string(),
                            precision: auth.precision().as_str().to_string(),
                        })
                    });
                }
            }
        };

    for i in 0..count {
        let report = i as u32;
        let mpdu: Vec<u8> = match &input.ingress {
            Ingress::Capture(_) => {
                let source = capture.as_mut().expect("capture ingress");
                match spans.span("capture.poll_frame", report, |_| source.poll_frame()) {
                    Ok(SourcePoll::Frame(f)) => f.mpdu,
                    Ok(_) => break,
                    Err(e) => panic!("walk capture broke: {e}"),
                }
            }
            Ingress::Frames(frames) => frames[i].clone(),
            Ingress::Wire(frames) => {
                let (mac, payload) = &frames[i];
                let bytes = spans.span("cluster.encode", report, |_| {
                    encode_request(&RequestFrame {
                        kind: FrameKind::Report,
                        seq: report,
                        mac: *mac,
                        payload: payload.clone(),
                    })
                });
                spans.span("cluster.decode", report, |_| {
                    decoder.push(&bytes);
                    decoder
                        .try_next()
                        .expect("own encoding decodes")
                        .expect("one whole frame")
                        .payload
                })
            }
        };
        let frame = spans
            .span("frame.parse", report, |_| {
                BeamformingReportFrame::parse(&mpdu)
            })
            .expect("workload frames are valid");
        let fb = frame.feedback();
        let tensor = spans.span("data.tensor", report, |spans| {
            let series = spans.span("bfi.reconstruct", report, |_| fb.reconstruct());
            auth.spec()
                .tensor_from_series(&series, fb.mimo.m_tx(), fb.mimo.n_ss())
        });
        batch.push((frame.source(), tensor));
        if batch.len() == input.batch {
            flush(&mut batch, &mut top1, spans);
        }
    }
    flush(&mut batch, &mut top1, spans);
    WalkResult {
        top1,
        wall: started.elapsed(),
    }
}
