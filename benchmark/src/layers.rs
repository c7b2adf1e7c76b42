//! Per-layer micro-measurements: each public call timed warm from the
//! outside, as the median of [`WINDOWS`] windows. They do not depend on
//! the workload; every traced run takes them over the same D1 frames.

use crate::fixture::{capture_image, Container, Fixture, Rng};
use crate::stats::median;
use crate::walk::softmax_peak;
use crate::workloads::unique_sources;
use deepcsi_bfi::{BeamformingFeedback, VSeries};
use deepcsi_capture::{FrameSource, PcapFileSource, PcapngReader, SourcePoll};
use deepcsi_cluster::codec::encode_request;
use deepcsi_cluster::{FrameKind, RequestDecoder, RequestFrame};
use deepcsi_core::{Authenticator, FrozenAuthenticator, ModelConfig};
use deepcsi_data::InputSpec;
use deepcsi_frame::BeamformingReportFrame;
use deepcsi_nn::{InferPool, Tensor};
use deepcsi_obs::{AuditEvent, AuditLog, Profiler, TraceConfig, Tracer};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, PolicyKind,
    VerdictPolicy, WindowConfig,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timing windows per measurement.
const WINDOWS: usize = 5;

/// Nanoseconds per unit of work: `run` is called on fresh `prepare`d
/// input until a window's worth of `run` time has passed, and reports
/// the units it did; only `run` is on the clock.
fn ns_per_unit<I>(
    window: Duration,
    mut prepare: impl FnMut() -> I,
    mut run: impl FnMut(I) -> usize,
) -> f64 {
    run(prepare());
    let per: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let (mut busy, mut units) = (Duration::ZERO, 0usize);
            while busy < window {
                let input = prepare();
                let t = Instant::now();
                units += run(input);
                busy += t.elapsed();
            }
            busy.as_nanos() as f64 / units as f64
        })
        .collect();
    median(&per)
}

/// Multiply-accumulates of one forward pass, computed from the layer
/// shapes of `cfg` (not measured): convolutions with same padding and a
/// halving pool after each, the 2→1 attention convolution plus its
/// scaling, then the dense stack.
fn macs_per_report(cfg: &ModelConfig, (mut ch, rows, mut cols): (usize, usize, usize)) -> f64 {
    let mut macs = 0usize;
    for (&filters, &kernel) in cfg.conv_filters.iter().zip(&cfg.conv_kernels) {
        macs += filters * ch * kernel * rows * cols;
        ch = filters;
        cols /= 2;
    }
    macs += (2 * cfg.attention_kernel + ch) * rows * cols;
    let mut dim = ch * rows * cols;
    for &units in cfg.dense_units.iter().chain([&cfg.num_classes]) {
        macs += dim * units;
        dim = units;
    }
    macs as f64
}

struct Net {
    tag: &'static str,
    auth: Authenticator,
    config: ModelConfig,
    tensors: Vec<Tensor>,
}

struct Layers<'a> {
    fixture: &'a Fixture,
    window: Duration,
    out: Vec<(String, f64)>,
}

impl Layers<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.out.push((name.into(), value));
    }
}

/// Every workload-independent per-layer metric, as `(name, value)`.
/// `out_dir` is where the one file-backed measurement writes.
pub fn measure(
    fixture: &Fixture,
    seed: u64,
    window: Duration,
    out_dir: &Path,
) -> Vec<(String, f64)> {
    let mut l = Layers {
        fixture,
        window,
        out: Vec::new(),
    };
    let frames: Vec<&[u8]> = fixture.frames[..512]
        .iter()
        .map(|(_, f)| f.as_slice())
        .collect();
    let parsed: Vec<BeamformingReportFrame> = frames
        .iter()
        .map(|f| BeamformingReportFrame::parse(f).expect("valid frame"))
        .collect();
    let feedback: Vec<&BeamformingFeedback> = parsed.iter().map(|p| p.feedback()).collect();

    capture(&mut l, seed);
    frame(&mut l, &frames, &parsed, seed);
    let nets = bfi_data_core(&mut l, &feedback);
    nn(&mut l, &nets);
    serve(&mut l, &nets[0], &frames);
    obs(&mut l, &nets[0], out_dir);
    cluster(&mut l, &frames);
    l.out
}

fn capture(l: &mut Layers<'_>, seed: u64) {
    let head = &l.fixture.frames[..512];
    let pcap = capture_image(head, &mut Rng::new(seed), Container::Pcap);
    let pcapng = capture_image(head, &mut Rng::new(seed), Container::Pcapng);
    let mut skipped_share = 0.0;
    let per_pcap = ns_per_unit(
        l.window,
        || PcapFileSource::from_bytes(pcap.clone()),
        |mut source| {
            while let SourcePoll::Frame(f) = source.poll_frame().expect("own capture") {
                black_box(f);
            }
            let c = source.counters();
            skipped_share = c.prefilter_skipped as f64 / c.packets_seen as f64;
            c.packets_seen as usize
        },
    );
    l.put("capture.pcap_ns_per_frame", per_pcap);
    l.put("capture.skipped_share", skipped_share);
    let per_pcapng = ns_per_unit(
        l.window,
        || (),
        |()| {
            PcapngReader::new(&pcapng)
                .expect("own capture")
                .map(|r| black_box(r).is_ok() as usize)
                .sum()
        },
    );
    l.put("capture.pcapng_ns_per_frame", per_pcapng);
}

fn frame(l: &mut Layers<'_>, frames: &[&[u8]], parsed: &[BeamformingReportFrame], seed: u64) {
    let parse = ns_per_unit(
        l.window,
        || (),
        |()| {
            for f in frames {
                black_box(BeamformingReportFrame::parse(f).is_ok());
            }
            frames.len()
        },
    );
    l.put("frame.parse_ns_per_frame", parse);
    let encode = ns_per_unit(
        l.window,
        || (),
        |()| {
            for p in parsed {
                black_box(p.encode());
            }
            parsed.len()
        },
    );
    l.put("frame.encode_ns_per_frame", encode);
    // 64 frames cut inside their fixed header: each must be refused.
    let mut rng = Rng::new(seed);
    let errors = (0..64)
        .filter(|_| {
            let f = frames[rng.below(frames.len())];
            BeamformingReportFrame::parse(&f[..rng.below(34)]).is_err()
        })
        .count();
    l.put("frame.parse_errors", errors as f64);
}

/// `bfi`, `data` and `core`, and the two networks later layers reuse.
fn bfi_data_core(l: &mut Layers<'_>, feedback: &[&BeamformingFeedback]) -> [Net; 2] {
    let fbs = &feedback[..256];
    let reconstruct = ns_per_unit(
        l.window,
        || (),
        |()| {
            for fb in fbs {
                black_box(fb.reconstruct());
            }
            fbs.len()
        },
    );
    l.put("bfi.reconstruct_ns_per_report", reconstruct);

    let t = Instant::now();
    let demo = l.fixture.demo_auth();
    l.put("core.train_s", t.elapsed().as_secs_f64());
    let paper = l.fixture.paper_auth();
    l.put("data.generate_d1_s", l.fixture.generate_d1_s);

    let series: Vec<VSeries> = fbs.iter().map(|fb| fb.reconstruct()).collect();
    let (m, n_ss) = (fbs[0].mimo.m_tx(), fbs[0].mimo.n_ss());
    let tensorize = |l: &mut Layers<'_>, spec: &InputSpec| {
        ns_per_unit(
            l.window,
            || (),
            |()| {
                for s in &series {
                    black_box(spec.tensor_from_series(s, m, n_ss));
                }
                series.len()
            },
        )
    };
    let s4 = tensorize(l, demo.spec());
    l.put("data.tensorize_ns_per_report.s4", s4);
    let s1 = tensorize(l, paper.spec());
    l.put("data.tensorize_ns_per_report.s1", s1);
    let kept = demo.spec().tensor_from_series(&series[0], m, n_ss).shape()[2];
    l.put(
        "bfi.used_subcarrier_share",
        kept as f64 / series[0].len() as f64,
    );

    let frozen = demo.freeze();
    let mut ctx = frozen.ctx();
    let classify = ns_per_unit(
        l.window,
        || (),
        |()| {
            for fb in fbs {
                black_box(frozen.classify_feedback(fb, &mut ctx));
            }
            fbs.len()
        },
    );
    l.put("core.classify_us_per_report", classify / 1e3);

    let net = |tag, auth: Authenticator, config, n: usize| Net {
        tag,
        tensors: feedback[..n].iter().map(|fb| auth.tensorize(fb)).collect(),
        auth,
        config,
    };
    let classes = l.fixture.dataset.modules().len();
    [
        net("demo", demo, ModelConfig::demo(classes), 512),
        net("paper", paper, ModelConfig::paper(classes, 0), 64),
    ]
}

fn nn(l: &mut Layers<'_>, nets: &[Net; 2]) {
    for net in nets {
        let shape = net.auth.input_shape().expect("recorded shape");
        let macs = macs_per_report(&net.config, shape);
        l.put(format!("nn.macs_per_report.{}", net.tag), macs);
        let f32_model = net.auth.freeze();
        let int8_model = FrozenAuthenticator::quantized(&net.auth, &net.tensors[..32])
            .expect("calibrates on its own inputs");
        for (precision, frozen) in [("f32", &f32_model), ("int8", &int8_model)] {
            let mut ctx = frozen.ctx();
            for batch in [1usize, 32] {
                let xs = &net.tensors[..batch];
                let per = ns_per_unit(
                    l.window,
                    || (),
                    |()| {
                        black_box(frozen.model().infer_batch(xs, &mut ctx));
                        batch
                    },
                );
                l.put(
                    format!("nn.infer_us_per_report.{}_{precision}_b{batch}", net.tag),
                    per / 1e3,
                );
                if (net.tag, precision, batch) == ("paper", "f32", 32) {
                    l.put("nn.gmacs_per_s.paper_f32_b32", macs / per);
                }
            }
        }
        // Activation bytes in and out of every op, as the profiler
        // computes them from tensor sizes; the same pass gives the
        // per-op time shares.
        let mut ctx = f32_model.ctx();
        ctx.set_profiler(Profiler::new());
        for _ in 0..3 {
            f32_model.model().infer_batch(&net.tensors[..32], &mut ctx);
        }
        let ops = ctx.take_profiler().expect("attached above").into_ops();
        let bytes: f64 = ops
            .iter()
            .map(|o| o.bytes as f64 / o.samples.max(1) as f64)
            .sum();
        l.put(format!("nn.bytes_per_report.{}", net.tag), bytes);
        if net.tag == "paper" {
            let total: u64 = ops.iter().map(|o| o.ns).sum();
            for name in ["conv2d", "selu", "maxpool2d", "spatial_attention", "dense"] {
                let ns: u64 = ops.iter().filter(|o| o.name == name).map(|o| o.ns).sum();
                l.put(
                    format!("nn.op_share.paper.{name}"),
                    ns as f64 / total as f64,
                );
            }
        }
    }
    let paper = &nets[1];
    let frozen = paper.auth.freeze();
    let mut pool = InferPool::new(2);
    let pooled = ns_per_unit(
        l.window,
        || (),
        |()| {
            black_box(pool.infer_batch(frozen.model(), &paper.tensors[..32]));
            32
        },
    );
    l.put("nn.pool_us_per_report.paper_f32_b32_l2", pooled / 1e3);
    let freeze = ns_per_unit(
        l.window,
        || (),
        |()| {
            black_box(paper.auth.freeze());
            1
        },
    );
    l.put("nn.freeze_ms", freeze / 1e6);
    let quantize = ns_per_unit(
        l.window,
        || (),
        |()| {
            black_box(FrozenAuthenticator::quantized(&paper.auth, &paper.tensors[..32]).is_ok());
            1
        },
    );
    l.put("nn.quantize_ms", quantize / 1e6);
}

fn serve(l: &mut Layers<'_>, demo: &Net, frames: &[&[u8]]) {
    // Caller-side cost of handing a frame over while the queue has room.
    let engine = Engine::start_frozen(
        EngineConfig {
            queue_capacity: 4096,
            ..EngineConfig::default()
        },
        demo.auth.freeze(),
        DeviceRegistry::new(),
    );
    let ingest = ns_per_unit(
        l.window,
        || engine.drain(),
        |()| {
            for f in frames {
                black_box(engine.ingest_frame(f));
            }
            frames.len()
        },
    );
    l.put("serve.ingest_frame_ns", ingest);
    let dropped = engine.shutdown().stats.dropped;
    assert_eq!(
        dropped, 0,
        "ingest_frame_ns must be measured with room in the queue"
    );

    // A recorded prediction sequence through each policy.
    let frozen = demo.auth.freeze();
    let predictions: Vec<(usize, f64)> = frozen
        .model()
        .infer_batch(&demo.tensors, &mut frozen.ctx())
        .iter()
        .map(|y| (y.argmax(), softmax_peak(y.as_slice())))
        .collect();
    for (tag, kind) in [
        ("fixed", PolicyKind::FixedMajority),
        ("confidence", PolicyKind::ConfidenceWeighted),
        ("adaptive", PolicyKind::AdaptiveThreshold),
    ] {
        let policy = DecisionPolicyConfig {
            kind,
            ..DecisionPolicyConfig::default()
        }
        .build(WindowConfig::default(), VerdictPolicy::default());
        let push = ns_per_unit(
            l.window,
            || policy.new_state(),
            |mut state| {
                for &(module, confidence) in &predictions {
                    state.push(module, confidence);
                    black_box(state.verdict(Some(0)));
                }
                predictions.len()
            },
        );
        l.put(format!("serve.policy_push_ns.{tag}"), push);
    }

    // Snapshot of 1 024 resident devices.
    let engine = Engine::start_frozen(
        EngineConfig {
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        demo.auth.freeze(),
        DeviceRegistry::new(),
    );
    let owned: Vec<Vec<u8>> = frames
        .iter()
        .cycle()
        .take(1024)
        .map(|f| f.to_vec())
        .collect();
    for (_, f) in unique_sources(&owned) {
        engine.ingest_frame(&f);
    }
    engine.drain();
    let us = |ns: f64| ns / 1e3;
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.devices.len(), 1024);
    l.put(
        "serve.snapshot_capture_us",
        us(ns_per_unit(
            l.window,
            || (),
            |()| {
                black_box(engine.snapshot());
                1
            },
        )),
    );
    l.put(
        "serve.snapshot_encode_us",
        us(ns_per_unit(
            l.window,
            || (),
            |()| {
                black_box(snapshot.encode());
                1
            },
        )),
    );
    l.put(
        "serve.snapshot_restore_us",
        us(ns_per_unit(
            l.window,
            || (),
            |()| black_box(engine.restore(&snapshot)).min(1),
        )),
    );
    l.put("serve.snapshot_bytes", snapshot.encode().len() as f64);
    engine.shutdown();
}

fn obs(l: &mut Layers<'_>, demo: &Net, out_dir: &Path) {
    let event = AuditEvent {
        seq: 0,
        unix_ms: 1_700_000_000_000,
        source: "02:00:00:00:01:02".to_string(),
        verdict: "accept".to_string(),
        expected: Some(1),
        module: Some(1),
        vote_fraction: 0.84,
        confidence: 0.62,
        observations: 10,
        reports_to_verdict: Some(10),
        policy: "fixed".to_string(),
        precision: "f32".to_string(),
    };
    let append = |l: &mut Layers<'_>, log: &AuditLog| {
        ns_per_unit(
            l.window,
            || event.clone(),
            |e| {
                black_box(log.append(e));
                1
            },
        )
    };
    let in_memory = append(l, &AuditLog::new(4096));
    l.put("obs.audit_append_ns", in_memory);
    std::fs::create_dir_all(out_dir).expect("create the benchmark's out directory");
    let path = out_dir.join("audit_append.jsonl");
    let to_file = {
        let log = AuditLog::with_file(4096, &path).expect("create audit file");
        let ns = append(l, &log);
        log.flush();
        assert_eq!(log.write_errors(), 0, "audit file writes failed");
        ns
    };
    std::fs::remove_file(&path).expect("remove audit file");
    l.put("obs.audit_append_file_ns", to_file);

    let engine = Engine::start_frozen(
        EngineConfig::default(),
        demo.auth.freeze(),
        DeviceRegistry::new(),
    );
    let telemetry = engine.telemetry_handle();
    let render = ns_per_unit(
        l.window,
        || (),
        |()| {
            black_box(telemetry.metrics().to_prometheus());
            1
        },
    );
    l.put("obs.metrics_render_us", render / 1e3);
    engine.shutdown();

    let tracer = Tracer::new(TraceConfig::always());
    let mut thread = tracer.thread();
    let (t0, t1) = (Instant::now(), Instant::now());
    let record = ns_per_unit(
        l.window,
        || (),
        |()| {
            for _ in 0..1024 {
                thread.record("span", black_box(t0), black_box(t1));
            }
            1024
        },
    );
    l.put("obs.span_record_ns", record);
}

fn cluster(l: &mut Layers<'_>, frames: &[&[u8]]) {
    let requests: Vec<RequestFrame> =
        unique_sources(&frames[..256].iter().map(|f| f.to_vec()).collect::<Vec<_>>())
            .into_iter()
            .enumerate()
            .map(|(i, (mac, payload))| RequestFrame {
                kind: FrameKind::Report,
                seq: i as u32,
                mac,
                payload,
            })
            .collect();
    let encode = ns_per_unit(
        l.window,
        || (),
        |()| {
            for r in &requests {
                black_box(encode_request(r));
            }
            requests.len()
        },
    );
    l.put("cluster.encode_ns_per_frame", encode);
    let wire: Vec<u8> = requests.iter().flat_map(encode_request).collect();
    let decode = ns_per_unit(l.window, RequestDecoder::new, |mut decoder| {
        decoder.push(&wire);
        let mut n = 0;
        while let Some(frame) = decoder.try_next().expect("own encoding decodes") {
            black_box(frame);
            n += 1;
        }
        n
    });
    l.put("cluster.decode_ns_per_frame", decode);
}
