//! The optimizer.

/// Adam (Kingma & Ba) with bias correction — what the DeepCSI
/// classifier trains with.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and the standard
    /// (β₁, β₂, ε) = (0.9, 0.999, 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current step count.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to every weight tensor in `weights` from the
    /// gradient at the same position in `grads` (a network's
    /// [`crate::Network::weights_mut`] and a [`crate::TrainCtx`]'s
    /// grads, say).
    ///
    /// # Panics
    ///
    /// Panics if the tensors differ in count or length from the
    /// gradients, or from the weights of the first step.
    pub fn step(&mut self, mut weights: Vec<&mut [f32]>, grads: Vec<&[f32]>) {
        assert_eq!(weights.len(), grads.len(), "one gradient per weight tensor");
        if self.m.is_empty() {
            self.m = weights.iter().map(|w| vec![0.0; w.len()]).collect();
            self.v = weights.iter().map(|w| vec![0.0; w.len()]).collect();
        }
        assert_eq!(
            self.m.len(),
            weights.len(),
            "optimizer bound to another net"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let tensors = weights
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v);
        for (((w, g), m), v) in tensors {
            assert_eq!(
                (w.len(), g.len()),
                (m.len(), m.len()),
                "parameter shape mismatch"
            );
            let moments = m.iter_mut().zip(v.iter_mut());
            for ((w, &g), (m, v)) in w.iter_mut().zip(g).zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::loss::softmax_cross_entropy;
    use crate::network::Network;
    use crate::planes::Planes;
    use crate::tensor::Tensor;

    fn one_layer() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(2, 2, 3));
        net
    }

    #[test]
    fn adam_descends() {
        let x = Tensor::from_vec(vec![1.0, -1.0], vec![2]);
        let mut net = one_layer();
        let mut opt = Adam::new(0.05);
        let mut loss = f32::INFINITY;
        for _ in 0..30 {
            let mut ctx = net.train_ctx();
            let out = net.forward_batch(Planes::from_samples([&x].into_iter()), true, &mut ctx);
            let (l, g) = softmax_cross_entropy(&out.sample(0), 1);
            net.backward_batch(Planes::from_samples([&g].into_iter()), &mut ctx);
            opt.step(net.weights_mut(), ctx.grads());
            loss = l;
        }
        assert!(loss < 0.1, "Adam stuck at {loss}");
    }

    #[test]
    fn adam_counts_steps() {
        let mut net = one_layer();
        let ctx = net.train_ctx();
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.steps(), 0);
        opt.step(net.weights_mut(), ctx.grads());
        opt.step(net.weights_mut(), ctx.grads());
        assert_eq!(opt.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "bound to another net")]
    fn adam_rejects_architecture_swap() {
        let mut a = one_layer();
        let mut opt = Adam::new(0.001);
        let ctx = a.train_ctx();
        opt.step(a.weights_mut(), ctx.grads());
        let mut b = Network::new();
        b.push(Dense::new(2, 2, 0));
        b.push(Dense::new(2, 2, 1));
        let ctx = b.train_ctx();
        opt.step(b.weights_mut(), ctx.grads());
    }
}
