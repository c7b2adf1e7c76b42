//! Persistent inference pool: how a batch is split across threads.
//!
//! Spawning and joining threads per call costs as much as the inference
//! itself on the small micro-batches a per-report CSI stream produces.
//! The pool's lane threads are spawned once, each parks on a channel
//! owning its [`InferCtx`] for the process lifetime, and a call hands
//! each lane a borrowed block of the batch and collects the results in
//! order. The hot path is two channel operations per helper lane — no
//! thread creation, no stack setup, no join.
//!
//! The partition is [`plan_split`], and every sample only ever reads its
//! own lanes, so pool outputs are bit-equal to
//! [`FrozenModel::infer_batch`] (and to the per-sample reference) for any
//! batch size and any lane count — lane count can never change a
//! verdict.
//!
//! # Why `unsafe` lives here (and only here)
//!
//! A lane receives `&FrozenModel` and `&[Tensor]` that borrow from the
//! caller's stack frame. Scoped threads prove that lifetime to the
//! compiler structurally; a persistent thread cannot, so the borrow is
//! erased into a raw [`Job`] and re-materialised on the lane. The
//! safety argument is confinement in time, enforced two ways:
//!
//! * [`InferPool::infer_batch`] blocks on every dispatched lane's reply
//!   before returning, so on the normal path no `Job` outlives the
//!   borrow it was built from.
//! * If the caller's own chunk panics mid-call, a drain guard's `Drop`
//!   still receives every outstanding reply during unwinding — the
//!   borrow stays alive until every lane has finished touching it.
//!
//! Nothing else in the crate needs `unsafe`; the crate root keeps
//! `#![deny(unsafe_code)]` and this file opts back in alone.
#![allow(unsafe_code)]

use crate::frozen::{plan_split, FrozenModel, InferCtx};
use crate::tensor::Tensor;
use deepcsi_obs::{merge_op_stats, OpStat, Profiler};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A borrowed inference request with its lifetimes erased for the trip
/// across the channel: `model` and `xs..xs+len` point into the calling
/// frame of [`InferPool::infer_batch`], which stays on the stack until
/// the lane's reply (or the drain guard) proves the lane is done.
#[derive(Clone, Copy)]
struct Job {
    model: *const FrozenModel,
    xs: *const Tensor,
    len: usize,
}

// SAFETY: the pointers are only ever dereferenced between dispatch and
// reply, and `infer_batch` (plus its drain guard on the panic path)
// never lets the borrowed frame unwind before every reply is in.
// `FrozenModel` and `Tensor` are themselves `Sync`/`Send` data.
unsafe impl Send for Job {}

enum Msg {
    /// Run inference over the job's block and reply with the outputs.
    Run(Job),
    /// Install (or clear) the lane's per-op profiler.
    SetProfiler(Box<Option<Profiler>>),
    /// Reply with a snapshot of the lane profiler's op table.
    Profile,
}

enum Reply {
    Outputs(Vec<Tensor>),
    /// The op chain unwound mid-batch; the lane itself is still parked
    /// and serviceable (its scratch is overwritten by the next load).
    Panicked,
    Profile(Vec<OpStat>),
}

/// One parked helper thread and its two channel endpoints. Lane 0 is
/// the caller itself (it runs the first chunk in place), so a pool of
/// `n` lanes holds `n - 1` of these.
struct Lane {
    tx: Sender<Msg>,
    rx: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

fn spawn_lane(index: usize) -> Lane {
    let (tx, job_rx) = channel::<Msg>();
    let (reply_tx, rx) = channel::<Reply>();
    let handle = std::thread::Builder::new()
        .name(format!("deepcsi-infer-{index}"))
        .spawn(move || lane_main(job_rx, reply_tx))
        .expect("spawn inference lane");
    Lane {
        tx,
        rx,
        handle: Some(handle),
    }
}

fn lane_main(jobs: Receiver<Msg>, replies: Sender<Reply>) {
    let mut ctx = InferCtx::new();
    // Whether `SetProfiler` armed this lane — a contained panic loses
    // the profiler mid-batch (it is moved out for the op loop), so the
    // lane re-arms a fresh one rather than silently dropping out of the
    // merged table.
    let mut armed = false;
    while let Ok(msg) = jobs.recv() {
        match msg {
            Msg::Run(job) => {
                // SAFETY: the dispatching `infer_batch` frame is pinned
                // until it receives this lane's reply (or its drain
                // guard does), so the model and slice are live for the
                // whole dereference. `len ≥ 1`: `plan_split` never
                // produces an empty chunk.
                let (model, xs) =
                    unsafe { (&*job.model, std::slice::from_raw_parts(job.xs, job.len)) };
                // Contain an op panic to this job: the lane thread must
                // outlive it, or the *next* dispatch would race the
                // dying thread's channel teardown. Scratch state after
                // an unwind is garbage, but every `infer_batch` starts
                // by overwriting it (`load`), so the lane stays sound.
                let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.infer_batch(xs, &mut ctx)
                })) {
                    Ok(out) => Reply::Outputs(out),
                    Err(_) => {
                        if armed && ctx.profiler().is_none() {
                            ctx.set_profiler(Profiler::new());
                        }
                        Reply::Panicked
                    }
                };
                if replies.send(reply).is_err() {
                    return;
                }
            }
            Msg::SetProfiler(profiler) => {
                armed = profiler.is_some();
                match *profiler {
                    Some(p) => ctx.set_profiler(p),
                    None => drop(ctx.take_profiler()),
                }
            }
            Msg::Profile => {
                let table = ctx.profiler().map(|p| p.ops().to_vec()).unwrap_or_default();
                if replies.send(Reply::Profile(table)).is_err() {
                    return;
                }
            }
        }
    }
}

/// Receives outstanding lane replies even if the caller's in-place
/// chunk panics: dropped during unwinding, it blocks until every
/// dispatched lane has replied (or hung up), so no lane can still be
/// reading the caller's frame once the frame unwinds past it.
struct Drain<'a> {
    lanes: &'a [Lane],
    /// Next lane index to collect from.
    next: usize,
    /// One past the last lane that was handed a job.
    dispatched: usize,
}

impl Drain<'_> {
    /// Collects the next lane's outputs in dispatch order; `None` means
    /// the lane's job panicked (or, unexpectedly, the lane hung up).
    fn recv_next(&mut self) -> Option<Vec<Tensor>> {
        let lane = &self.lanes[self.next];
        self.next += 1;
        match lane.rx.recv() {
            Ok(Reply::Outputs(out)) => Some(out),
            // A `Profile` here is impossible (replies come back in
            // request order and every `Run` gets exactly one reply),
            // but treat it like a failed job rather than trusting it.
            Ok(Reply::Panicked) | Ok(Reply::Profile(_)) | Err(_) => None,
        }
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        for lane in &self.lanes[self.next..self.dispatched] {
            // A reply or a hangup both prove the lane is done with the
            // job's borrow; ignore which.
            let _ = lane.rx.recv();
        }
    }
}

/// A persistent per-engine inference pool: `lanes` contexts total — one
/// owned in place by the caller, the rest parked on dedicated threads
/// that live as long as the pool.
///
/// [`InferPool::infer_batch`] outputs are bit-identical to
/// [`FrozenModel::infer_batch`] for any batch size and lane count. The
/// model is passed per call, so one pool serves f32 and int8 snapshots
/// alike and survives model swaps.
///
/// A panicking op poisons only its own call: the lane contains the
/// unwind, the in-flight `infer_batch` panics, and every lane stays
/// parked and serviceable for the next batch.
pub struct InferPool {
    /// Lane 0: the caller's own context, run in place per call.
    local: InferCtx,
    helpers: Vec<Lane>,
    /// Lanes engaged by the most recent `infer_batch` call.
    engaged: usize,
}

impl std::fmt::Debug for InferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferPool")
            .field("lanes", &self.lanes())
            .field("engaged", &self.engaged)
            .finish()
    }
}

impl InferPool {
    /// Builds a pool with `lanes` total inference lanes, parking
    /// `lanes - 1` helper threads. Contexts are model-independent
    /// (buffers grow on first use), so the pool outlives any particular
    /// frozen snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> InferPool {
        assert!(lanes >= 1, "need at least one inference lane");
        InferPool {
            local: InferCtx::new(),
            helpers: (1..lanes).map(spawn_lane).collect(),
            engaged: 0,
        }
    }

    /// Total lane count (helper threads plus the caller's own lane).
    pub fn lanes(&self) -> usize {
        self.helpers.len() + 1
    }

    /// How many lanes the most recent [`InferPool::infer_batch`] call
    /// actually engaged (1 for a batch below two lane blocks, up to
    /// [`InferPool::lanes`] under load; 0 before any call). The
    /// engine exports this as pool occupancy.
    pub fn last_engaged(&self) -> usize {
        self.engaged
    }

    /// Runs `xs` through `model` across the pool's lanes, bit-equal to
    /// [`FrozenModel::infer_batch`] on a single context for any batch
    /// size and lane count (the partition is [`plan_split`]).
    ///
    /// The caller runs chunk 0 on its own lane while helpers run the
    /// rest, then collects replies in dispatch order — output order is
    /// exactly input order.
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape (checked up front, so it
    /// cannot depend on how the batch was split), and surfaces a lane's
    /// contained op panic as `"inference thread panicked"`; the pool
    /// itself stays usable afterwards.
    pub fn infer_batch(&mut self, model: &FrozenModel, xs: &[Tensor]) -> Vec<Tensor> {
        if xs.is_empty() {
            self.engaged = 0;
            return Vec::new();
        }
        assert!(
            xs.iter().all(|x| x.shape() == xs[0].shape()),
            "batch samples must share a shape"
        );
        let (threads, chunk) = plan_split(xs.len(), self.lanes());
        if threads == 1 {
            self.engaged = 1;
            return model.infer_batch(xs, &mut self.local);
        }
        let mut parts = xs.chunks(chunk);
        let local_part = parts.next().expect("non-empty batch has a first chunk");
        let mut dispatched = 0;
        for part in parts {
            let job = Job {
                model,
                xs: part.as_ptr(),
                len: part.len(),
            };
            // Lanes contain job panics, so a lane thread lives as long
            // as the pool and the send cannot fail.
            self.helpers[dispatched]
                .tx
                .send(Msg::Run(job))
                .expect("pool lane outlives the pool's dispatches");
            dispatched += 1;
        }
        self.engaged = dispatched + 1;
        // From here to the last reply the borrows of `model`/`xs` are
        // shared with the helper lanes; the guard keeps that window
        // closed even if our own chunk panics below.
        let mut guard = Drain {
            lanes: &self.helpers,
            next: 0,
            dispatched,
        };
        let mut out = model.infer_batch(local_part, &mut self.local);
        for _ in 0..dispatched {
            match guard.recv_next() {
                Some(mut part) => out.append(&mut part),
                // Guard's Drop drains the lanes after the dead one.
                None => panic!("inference thread panicked"),
            }
        }
        out
    }

    /// Arms every lane with a profiler — index 0 goes to the caller's
    /// in-place lane, the rest to the helpers in order (so per-lane
    /// tracer bindings land on the thread they were built for).
    /// [`InferPool::profile_table`] then merges all lanes' tables.
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`InferPool::lanes`] profilers are given.
    pub fn set_profilers(&mut self, profilers: Vec<Profiler>) {
        assert_eq!(profilers.len(), self.lanes(), "one profiler per lane");
        let mut profilers = profilers.into_iter();
        self.local
            .set_profiler(profilers.next().expect("lane 0 profiler"));
        for (lane, prof) in self.helpers.iter().zip(profilers) {
            lane.tx
                .send(Msg::SetProfiler(Box::new(Some(prof))))
                .expect("pool lane outlives the pool's dispatches");
        }
    }

    /// Merged per-op profile across every lane (empty when
    /// [`InferPool::set_profilers`] was never called): each helper is
    /// asked for a snapshot of its table, and the caller-lane table is
    /// merged in locally. Sample counts sum to exactly the samples
    /// inferred — every sample runs on exactly one lane.
    pub fn profile_table(&mut self) -> Vec<OpStat> {
        let mut table = Vec::new();
        if let Some(prof) = self.local.profiler() {
            merge_op_stats(&mut table, prof.ops());
        }
        for lane in &self.helpers {
            lane.tx
                .send(Msg::Profile)
                .expect("pool lane outlives the pool's dispatches");
            if let Ok(Reply::Profile(ops)) = lane.rx.recv() {
                merge_op_stats(&mut table, &ops);
            }
        }
        table
    }
}

impl Drop for InferPool {
    fn drop(&mut self) {
        for mut lane in self.helpers.drain(..) {
            // Hang up the job channel so the lane's recv loop exits,
            // then reap the thread (ignoring a panicked lane's payload).
            drop(lane.tx);
            if let Some(handle) = lane.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Selu};
    use crate::network::Network;
    use crate::PAR_MIN_CHUNK;

    fn tiny_frozen() -> FrozenModel {
        let mut net = Network::new();
        net.push(Dense::new(3, 5, 1));
        net.push(Selu::new());
        net.push(Dense::new(5, 2, 2));
        net.freeze()
    }

    fn batch(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                Tensor::from_vec(
                    vec![
                        i as f32 * 0.1 - 1.0,
                        (i % 7) as f32 * 0.3,
                        -(i as f32) * 0.05,
                    ],
                    vec![3],
                )
            })
            .collect()
    }

    #[test]
    fn pool_is_bit_identical_to_single_context_for_any_split() {
        let frozen = tiny_frozen();
        let mut one = frozen.ctx();
        for lanes in [1usize, 2, 3, 4, 16] {
            let mut pool = InferPool::new(lanes);
            for n in [1usize, 3, PAR_MIN_CHUNK, 33, 64, 70] {
                let xs = batch(n);
                let want = frozen.infer_batch(&xs, &mut one);
                let got = pool.infer_batch(&frozen, &xs);
                assert_eq!(got.len(), want.len(), "lanes {lanes} batch {n}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.as_slice(), w.as_slice(), "lanes {lanes} batch {n}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_engages_no_lane() {
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(4);
        assert!(pool.infer_batch(&frozen, &[]).is_empty());
        assert_eq!(pool.last_engaged(), 0);
    }

    #[test]
    fn engagement_tracks_the_plan_split() {
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(4);
        // Below two lane blocks: inline, single lane.
        pool.infer_batch(&frozen, &batch(PAR_MIN_CHUNK));
        assert_eq!(pool.last_engaged(), 1);
        // Four full lane blocks: every lane engaged.
        pool.infer_batch(&frozen, &batch(4 * PAR_MIN_CHUNK));
        assert_eq!(pool.last_engaged(), 4);
    }

    #[test]
    fn mixed_shapes_panic_before_any_dispatch() {
        // 32 + 32 same-shape runs split into internally-uniform chunks
        // at 2 lanes, so only the up-front check can catch the mix.
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(2);
        let mut xs = batch(32);
        xs.extend(vec![Tensor::zeros(vec![1, 3]); 32]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.infer_batch(&frozen, &xs)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("share a shape"), "got {msg:?}");
    }

    /// Shape-preserving op that panics when it sees a poisoned input
    /// value — lets a test kill one specific lane (the one whose chunk
    /// holds the poison) while the others finish normally.
    struct PanicOnPoison;

    impl crate::frozen::InferOp for PanicOnPoison {
        fn name(&self) -> &'static str {
            "panic_on_poison"
        }

        fn apply(&self, ctx: &mut InferCtx) {
            assert!(
                !ctx.data().iter().any(|&v| v > 100.0),
                "poisoned input reached the op"
            );
        }
    }

    #[test]
    fn lane_panic_is_contained_and_the_pool_stays_usable() {
        let trap = FrozenModel::from_ops(vec![Box::new(PanicOnPoison)]);
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(2);

        // Poison only the second chunk: the helper lane dies while the
        // caller's own chunk succeeds.
        let mut xs = batch(2 * PAR_MIN_CHUNK);
        xs[PAR_MIN_CHUNK] = Tensor::from_vec(vec![1000.0, 0.0, 0.0], vec![3]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.infer_batch(&trap, &xs)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("inference thread panicked"), "got {msg:?}");

        // The pool recovers: the lane contained the unwind and the next
        // batch is bit-identical to the single-context path.
        let xs = batch(2 * PAR_MIN_CHUNK);
        let mut one = frozen.ctx();
        let want = frozen.infer_batch(&xs, &mut one);
        let got = pool.infer_batch(&frozen, &xs);
        assert_eq!(pool.last_engaged(), 2);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_slice(), w.as_slice());
        }
    }

    #[test]
    fn profile_table_accounts_every_sample_exactly_once() {
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(3);
        pool.set_profilers((0..3).map(|_| Profiler::new()).collect());
        let n = 3 * PAR_MIN_CHUNK;
        pool.infer_batch(&frozen, &batch(n));
        pool.infer_batch(&frozen, &batch(n));
        let table = pool.profile_table();
        assert_eq!(table.len(), 3, "one row per op");
        for stat in &table {
            assert_eq!(stat.samples, 2 * n as u64, "op {}", stat.name);
        }
    }
}
