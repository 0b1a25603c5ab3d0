//! The one parameter update every learner in the workspace uses.
//!
//! SDP, DRL\[Jiang\], EIIE and the DDPG actor and critic all train with
//! the same step: average the minibatch gradient, clip its global L2
//! norm, then take an Adam step. This module holds that step once:
//!
//! * [`Params`] views a network (or its gradients) as an ordered list of
//!   flat `f64` buffers. A network and its gradient type list their
//!   buffers in the same order, and that order is also the layout of
//!   [`flat_params`] — the checkpoint payload.
//! * [`accumulate`], [`scale`], [`global_norm`], [`flat_params`] and
//!   [`set_flat_params`] work on any [`Params`].
//! * [`ClippedAdam`] owns one [`Adam`] slot per buffer and applies the
//!   clipped step.

/// An ordered view of trainable `f64` buffers.
///
/// `buffers` and `buffers_mut` list the same buffers in the same order;
/// a network and its gradients list corresponding buffers at the same
/// positions with the same lengths.
pub trait Params {
    /// Every buffer, in layout order.
    fn buffers(&self) -> Vec<&[f64]>;

    /// Every buffer, mutably, in layout order.
    fn buffers_mut(&mut self) -> Vec<&mut [f64]>;
}

/// Adds `other` into `acc`, buffer by buffer.
///
/// # Panics
///
/// Panics if the two layouts differ.
pub fn accumulate(acc: &mut impl Params, other: &impl Params) {
    let (dst, src) = (acc.buffers_mut(), other.buffers());
    assert_eq!(dst.len(), src.len(), "buffer count mismatch");
    for (a, b) in dst.into_iter().zip(src) {
        assert_eq!(a.len(), b.len(), "buffer length mismatch");
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
}

/// Multiplies every value by `alpha`.
pub fn scale(p: &mut impl Params, alpha: f64) {
    for b in p.buffers_mut() {
        b.iter_mut().for_each(|g| *g *= alpha);
    }
}

/// Global L2 norm: the square root of the per-buffer sums of squares,
/// added in layout order.
pub fn global_norm(p: &impl Params) -> f64 {
    let mut sq = 0.0;
    for b in p.buffers() {
        sq += b.iter().map(|g| g * g).sum::<f64>();
    }
    sq.sqrt()
}

/// Concatenates every buffer in layout order.
pub fn flat_params(p: &impl Params) -> Vec<f64> {
    p.buffers().concat()
}

/// Writes a [`flat_params`] vector back into `p`.
///
/// # Panics
///
/// Panics if `flat.len()` differs from the total buffer length.
pub fn set_flat_params(p: &mut impl Params, flat: &[f64]) {
    let mut rest = flat;
    for b in p.buffers_mut() {
        assert!(b.len() <= rest.len(), "flat parameter vector has wrong length");
        let (head, tail) = rest.split_at(b.len());
        b.copy_from_slice(head);
        rest = tail;
    }
    assert!(rest.is_empty(), "flat parameter vector has wrong length");
}

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// The paper trains SDP with a learning rate of `1e-5` (Table 2); Adam is
/// the de-facto optimizer of both Jiang et al. and the PopSAN line of work
/// the paper builds on.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    state: Vec<AdamSlot>,
}

#[derive(Debug, Clone)]
struct AdamSlot {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Adam with the standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, state: Vec::new() }
    }

    /// Registers a parameter buffer of length `len`, returning its slot.
    fn register(&mut self, len: usize) -> usize {
        self.state.push(AdamSlot { m: vec![0.0; len], v: vec![0.0; len], t: 0 });
        self.state.len() - 1
    }

    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or doesn't match the
    /// registered length, or if `slot` was never registered.
    fn step(&mut self, slot: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let s = &mut self.state[slot];
        assert_eq!(s.m.len(), params.len(), "slot length mismatch");
        s.t += 1;
        let b1t = 1.0 - self.beta1.powi(s.t as i32);
        let b2t = 1.0 - self.beta2.powi(s.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            s.m[i] = self.beta1 * s.m[i] + (1.0 - self.beta1) * g;
            s.v[i] = self.beta2 * s.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = s.m[i] / b1t;
            let v_hat = s.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Global-norm clipping followed by an [`Adam`] step, with one Adam slot
/// per buffer of the network it was built for (slot `i` is buffer `i`).
///
/// # Example
///
/// ```
/// use spikefolio_tensor::optim::{Adam, ClippedAdam, Params};
///
/// /// One trainable buffer.
/// struct Weights(Vec<f64>);
///
/// impl Params for Weights {
///     fn buffers(&self) -> Vec<&[f64]> {
///         vec![&self.0]
///     }
///     fn buffers_mut(&mut self) -> Vec<&mut [f64]> {
///         vec![&mut self.0]
///     }
/// }
///
/// // Minimize (x - 3)² from x = 0.
/// let mut x = Weights(vec![0.0]);
/// let mut trainer = ClippedAdam::new(&x, Adam::new(0.2), Some(10.0));
/// for _ in 0..300 {
///     let mut grad = Weights(vec![2.0 * (x.0[0] - 3.0)]);
///     trainer.apply(&mut x, &mut grad);
/// }
/// assert!((x.0[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct ClippedAdam {
    adam: Adam,
    /// Global-norm gradient clip (None = no clipping).
    pub max_grad_norm: Option<f64>,
}

impl ClippedAdam {
    /// Registers every buffer of `net` with `adam`.
    pub fn new(net: &impl Params, mut adam: Adam, max_grad_norm: Option<f64>) -> Self {
        for b in net.buffers() {
            adam.register(b.len());
        }
        Self { adam, max_grad_norm }
    }

    /// Clips `grads` in place to `max_grad_norm` (when its
    /// [`global_norm`] exceeds it), then takes one Adam descent step on
    /// `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` or `grads` is laid out differently from the network
    /// this trainer was built for.
    pub fn apply(&mut self, net: &mut impl Params, grads: &mut impl Params) {
        if let Some(max) = self.max_grad_norm {
            let n = global_norm(grads);
            if n > max && n > 0.0 {
                scale(grads, max / n);
            }
        }
        let (params, grads) = (net.buffers_mut(), grads.buffers());
        assert_eq!(params.len(), self.adam.state.len(), "network buffer count mismatch");
        assert_eq!(grads.len(), self.adam.state.len(), "gradient buffer count mismatch");
        for (slot, (p, g)) in params.into_iter().zip(grads).enumerate() {
            self.adam.step(slot, p, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-buffer parameter set: a vector and a 1-element scalar, the
    /// shape of EIIE's head bias.
    #[derive(Debug, Clone, PartialEq)]
    struct Two {
        w: Vec<f64>,
        b: f64,
    }

    impl Params for Two {
        fn buffers(&self) -> Vec<&[f64]> {
            vec![&self.w, std::slice::from_ref(&self.b)]
        }
        fn buffers_mut(&mut self) -> Vec<&mut [f64]> {
            vec![&mut self.w, std::slice::from_mut(&mut self.b)]
        }
    }

    /// Minimizes f(x) = (x - 3)^2 with gradient 2(x-3).
    fn run_quadratic(opt: &mut Adam, steps: usize, start: f64) -> f64 {
        let slot = opt.register(1);
        let mut x = vec![start];
        for _ in 0..steps {
            let g = 2.0 * (x[0] - 3.0);
            opt.step(slot, &mut x, &[g]);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let x = run_quadratic(&mut opt, 300, 0.0);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction the first Adam step is ≈ lr * sign(grad).
        let mut opt = Adam::new(0.01);
        let slot = opt.register(1);
        let mut x = vec![0.0];
        opt.step(slot, &mut x, &[1e-3]);
        assert!((x[0] + 0.01).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    fn multiple_slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let a = opt.register(1);
        let b = opt.register(1);
        let mut xa = vec![0.0];
        let mut xb = vec![0.0];
        for _ in 0..10 {
            opt.step(a, &mut xa, &[1.0]);
        }
        // Slot b has taken no steps: its state must be untouched.
        opt.step(b, &mut xb, &[1.0]);
        assert!((xb[0] + 0.1).abs() < 1e-6, "xb = {}", xb[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grad_length_panics() {
        let mut opt = Adam::new(0.1);
        let slot = opt.register(2);
        let mut x = vec![0.0];
        opt.step(slot, &mut x, &[1.0]);
    }

    #[test]
    fn norm_adds_per_buffer_sums_in_order() {
        let g = Two { w: vec![3.0, 0.0], b: 4.0 };
        assert_eq!(global_norm(&g), 5.0);
        let w_sq: f64 = [0.1f64, 0.2, 0.3].iter().map(|x| x * x).sum();
        let g = Two { w: vec![0.1, 0.2, 0.3], b: 0.7 };
        assert_eq!(global_norm(&g), (w_sq + 0.7 * 0.7).sqrt());
    }

    #[test]
    fn accumulate_and_scale_touch_every_buffer() {
        let mut acc = Two { w: vec![1.0, 2.0], b: 3.0 };
        accumulate(&mut acc, &Two { w: vec![10.0, 20.0], b: 30.0 });
        assert_eq!(acc, Two { w: vec![11.0, 22.0], b: 33.0 });
        scale(&mut acc, 2.0);
        assert_eq!(acc, Two { w: vec![22.0, 44.0], b: 66.0 });
    }

    #[test]
    fn clip_fires_only_above_the_max_and_scales_every_buffer() {
        let net = Two { w: vec![0.0, 0.0], b: 0.0 };
        // Norm 5 against a max of 1: every buffer, the 1-element one
        // included, shrinks by the same factor 1/5.
        let mut trainer = ClippedAdam::new(&net, Adam::new(0.1), Some(1.0));
        let mut g = Two { w: vec![3.0, 0.0], b: 4.0 };
        trainer.apply(&mut net.clone(), &mut g);
        assert_eq!(g, Two { w: vec![3.0 * (1.0 / 5.0), 0.0], b: 4.0 * (1.0 / 5.0) });
        assert!((global_norm(&g) - 1.0).abs() < 1e-15);

        // At or below the max the gradients stay bitwise unchanged.
        let below = Two { w: vec![0.3, -0.1], b: 1e-300 };
        for max in [Some(global_norm(&below)), Some(10.0), None] {
            let mut trainer = ClippedAdam::new(&net, Adam::new(0.1), max);
            let mut g = below.clone();
            trainer.apply(&mut net.clone(), &mut g);
            assert_eq!(g, below, "max {max:?}");
        }
    }

    #[test]
    fn clipped_step_equals_adam_on_the_clipped_gradient() {
        let start = Two { w: vec![0.5, -0.5], b: 0.25 };
        let mut net = start.clone();
        let mut trainer = ClippedAdam::new(&net, Adam::new(0.1), Some(1.0));
        let mut g = Two { w: vec![30.0, 0.0], b: 40.0 };
        trainer.apply(&mut net, &mut g);

        let mut adam = Adam::new(0.1);
        let (sw, sb) = (adam.register(2), adam.register(1));
        let mut w = start.w.clone();
        let mut b = [start.b];
        adam.step(sw, &mut w, &[30.0 * (1.0 / 50.0), 0.0]);
        adam.step(sb, &mut b, &[40.0 * (1.0 / 50.0)]);
        assert_eq!(net, Two { w, b: b[0] });
    }

    #[test]
    fn flattening_round_trips_in_layout_order() {
        let p = Two { w: vec![1.0, 2.0], b: 3.0 };
        assert_eq!(flat_params(&p), vec![1.0, 2.0, 3.0]);
        let mut q = Two { w: vec![0.0, 0.0], b: 0.0 };
        set_flat_params(&mut q, &[1.0, 2.0, 3.0]);
        assert_eq!(q, p);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn unflattening_rejects_a_short_vector() {
        set_flat_params(&mut Two { w: vec![0.0, 0.0], b: 0.0 }, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn unflattening_rejects_a_long_vector() {
        set_flat_params(&mut Two { w: vec![0.0, 0.0], b: 0.0 }, &[1.0, 2.0, 3.0, 4.0]);
    }
}
