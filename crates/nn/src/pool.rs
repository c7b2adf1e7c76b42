//! A batch split across scoped threads.
//!
//! [`InferPool::infer_batch`] partitions a batch by [`plan_split`],
//! runs chunk 0 on the calling thread and every other chunk on a
//! `std::thread::scope` thread, and concatenates the outputs in order.
//! Every sample only ever reads its own lanes, so the outputs are
//! bit-equal to [`FrozenModel::infer_batch`] on a single context (and
//! to the per-sample reference) for any batch size and any lane count.
//!
//! The serving engine does not split batches: its shard workers are its
//! only threads, each running [`FrozenModel::infer_batch`] on its own
//! [`InferCtx`]. The split stays for the lane-scaling benchmark row.

use crate::frozen::{plan_split, FrozenModel, InferCtx};
use crate::tensor::Tensor;

/// `lanes` scratch contexts, one per lane of a split batch. The
/// contexts persist across calls, so their buffers stay at their
/// high-water mark; the threads do not — each call starts its helpers
/// and joins them before it returns.
///
/// The model is passed per call, so one pool serves f32 and int8
/// snapshots alike.
#[derive(Debug)]
pub struct InferPool {
    /// Lane `i` runs chunk `i`; lane 0 on the calling thread.
    ctxs: Vec<InferCtx>,
}

impl InferPool {
    /// Builds a pool of `lanes` scratch contexts.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> InferPool {
        assert!(lanes >= 1, "need at least one inference lane");
        InferPool {
            ctxs: (0..lanes).map(|_| InferCtx::new()).collect(),
        }
    }

    /// Total lane count, the calling thread's included.
    pub fn lanes(&self) -> usize {
        self.ctxs.len()
    }

    /// Runs `xs` through `model` across the pool's lanes, bit-equal to
    /// [`FrozenModel::infer_batch`] on a single context for any batch
    /// size and lane count; output order is input order.
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape (checked up front, so it
    /// cannot depend on how the batch was split), and with `"inference
    /// thread panicked"` if an op panics on a helper lane. Every helper
    /// is joined before the call returns or unwinds, and the pool stays
    /// usable afterwards.
    pub fn infer_batch(&mut self, model: &FrozenModel, xs: &[Tensor]) -> Vec<Tensor> {
        assert!(
            xs.iter().all(|x| x.shape() == xs[0].shape()),
            "batch samples must share a shape"
        );
        // `plan_split` yields at most `lanes` chunks, so the zip keeps
        // every sample.
        let (_, chunk) = plan_split(xs.len(), self.lanes());
        let mut lanes = xs.chunks(chunk).zip(&mut self.ctxs);
        let Some((first, ctx)) = lanes.next() else {
            return Vec::new();
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = lanes
                .map(|(part, ctx)| scope.spawn(move || model.infer_batch(part, ctx)))
                .collect();
            let mut out = model.infer_batch(first, ctx);
            for helper in helpers {
                match helper.join() {
                    Ok(part) => out.extend(part),
                    Err(_) => panic!("inference thread panicked"),
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Selu};
    use crate::network::Network;
    use crate::testkit::PanicOnPoison;
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
    fn empty_batch_yields_no_outputs() {
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(4);
        assert!(pool.infer_batch(&frozen, &[]).is_empty());
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

    #[test]
    fn lane_panic_is_contained_and_the_pool_stays_usable() {
        let trap = FrozenModel::from_ops(vec![Box::new(PanicOnPoison)]);
        let frozen = tiny_frozen();
        let mut pool = InferPool::new(2);

        // Poison only the second chunk: the helper lane panics while
        // the caller's own chunk succeeds.
        let mut xs = batch(2 * PAR_MIN_CHUNK);
        xs[PAR_MIN_CHUNK] = Tensor::from_vec(vec![1000.0, 0.0, 0.0], vec![3]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.infer_batch(&trap, &xs)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("inference thread panicked"), "got {msg:?}");

        // The next batch reloads every context, so it is bit-identical
        // to the single-context path.
        let xs = batch(2 * PAR_MIN_CHUNK);
        let mut one = frozen.ctx();
        let want = frozen.infer_batch(&xs, &mut one);
        let got = pool.infer_batch(&frozen, &xs);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_slice(), w.as_slice());
        }
    }
}
