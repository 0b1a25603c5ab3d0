//! The one parameter update every learner in the workspace uses.
//!
//! SDP, DRL\[Jiang\], EIIE and the DDPG actor and critic all train with
//! the same step: average the minibatch gradient, clip its global L2
//! norm, then take an Adam step. This module holds that step once:
//!
//! * [`Params`] views a network (or its gradients) as an ordered sequence
//!   of flat `f64` buffers. A network and its gradient type list their
//!   buffers in the same order, and that order is also the layout of
//!   [`flat_params`] — the checkpoint payload. The view borrows the
//!   buffers in place, so walking it allocates nothing.
//! * [`accumulate`], [`reduce_scaled`], [`scale`], [`global_norm`],
//!   [`flat_params`], [`flat_params_into`], [`set_flat_params`] and
//!   [`distance`] work on any [`Params`].
//! * [`ClippedAdam`] owns one [`Adam`] slot per buffer and applies the
//!   clipped step. It computes the gradient's global norm once per step
//!   and returns it, so callers that report the norm never recompute it.
//!
//! The step streams every buffer through a few element-wise passes —
//! norm, clip (only when it fires), and one zipped Adam loop over
//! `(param, grad, m, v)` that the compiler vectorizes. No pass
//! reassociates a sum or fuses a multiply-add, so the result is bitwise
//! the naive scalar loop's.

/// An ordered view of trainable `f64` buffers.
///
/// `buffers` and `buffers_mut` list the same buffers in the same order;
/// a network and its gradients list corresponding buffers at the same
/// positions with the same lengths.
pub trait Params {
    /// Every buffer, in layout order.
    fn buffers(&self) -> impl Iterator<Item = &[f64]>;

    /// Every buffer, mutably, in layout order.
    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]>;
}

/// Pairs the buffers of two layouts, asserting that they agree.
fn paired<'a, 'b>(
    a: impl Iterator<Item = &'a mut [f64]>,
    b: impl Iterator<Item = &'b [f64]>,
) -> impl Iterator<Item = (&'a mut [f64], &'b [f64])> {
    let (mut a, mut b) = (a.fuse(), b.fuse());
    std::iter::from_fn(move || match (a.next(), b.next()) {
        (Some(x), Some(y)) => {
            assert_eq!(x.len(), y.len(), "buffer length mismatch");
            Some((x, y))
        }
        (None, None) => None,
        _ => panic!("buffer count mismatch"),
    })
}

/// Adds `other` into `acc`, buffer by buffer.
///
/// # Panics
///
/// Panics if the two layouts differ.
pub fn accumulate(acc: &mut impl Params, other: &impl Params) {
    for (a, b) in paired(acc.buffers_mut(), other.buffers()) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
}

/// Overwrites `dst` with `alpha · Σ parts`, summing the parts in iteration
/// order from `0.0` and scaling in the last part's pass.
///
/// Bitwise equal to zeroing `dst`, [`accumulate`]-ing every part in order
/// and then [`scale`]-ing by `alpha`, without the separate zeroing and
/// scaling passes. No parts leave `dst` at `0.0 · alpha`.
///
/// # Panics
///
/// Panics if a part's layout differs from `dst`'s.
pub fn reduce_scaled<'a, P: Params + 'a>(
    dst: &mut impl Params,
    parts: impl IntoIterator<Item = &'a P>,
    alpha: f64,
) {
    let mut parts = parts.into_iter().peekable();
    if parts.peek().is_none() {
        for d in dst.buffers_mut() {
            d.fill(0.0 * alpha);
        }
        return;
    }
    let mut first = true;
    while let Some(part) = parts.next() {
        let last = parts.peek().is_none();
        for (d, g) in paired(dst.buffers_mut(), part.buffers()) {
            let pairs = d.iter_mut().zip(g);
            match (first, last) {
                (true, true) => pairs.for_each(|(d, &g)| *d = (0.0 + g) * alpha),
                (true, false) => pairs.for_each(|(d, &g)| *d = 0.0 + g),
                (false, false) => pairs.for_each(|(d, &g)| *d += g),
                (false, true) => pairs.for_each(|(d, &g)| *d = (*d + g) * alpha),
            }
        }
        first = false;
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
    let mut flat = Vec::new();
    flat_params_into(p, &mut flat);
    flat
}

/// [`flat_params`] into `out`, reusing its allocation.
pub fn flat_params_into(p: &impl Params, out: &mut Vec<f64>) {
    out.clear();
    // Sized up front: growing buffer by buffer would over-allocate up to
    // twice the parameter count and copy on every doubling.
    out.reserve_exact(p.buffers().map(<[f64]>::len).sum());
    for b in p.buffers() {
        out.extend_from_slice(b);
    }
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

/// L2 distance between a [`flat_params`] vector and the live buffers of
/// `p`: the square root of `Σ (flat_i − p_i)²`, added in flat order.
/// Bitwise equal to the same fold over two [`flat_params`] copies.
///
/// # Panics
///
/// Panics if `flat.len()` differs from the total buffer length.
pub fn distance(flat: &[f64], p: &impl Params) -> f64 {
    let mut live = p.buffers().flatten();
    let sq = flat
        .iter()
        .map(|a| {
            let b = live.next().expect("flat parameter vector has wrong length");
            (a - b) * (a - b)
        })
        .sum::<f64>();
    assert!(live.next().is_none(), "flat parameter vector has wrong length");
    sq.sqrt()
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
    /// One zipped pass over `(param, grad, m, v)`: no indexing, so the
    /// loop vectorizes, and every element sees the textbook operations in
    /// the textbook order (no fused multiply-add, no reciprocal).
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
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (one_m_b1, one_m_b2) = (1.0 - beta1, 1.0 - beta2);
        let b1t = 1.0 - beta1.powi(s.t as i32);
        let b2t = 1.0 - beta2.powi(s.t as i32);
        let moments = s.m.iter_mut().zip(s.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = beta1 * *m + one_m_b1 * g;
            *v = beta2 * *v + one_m_b2 * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
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
///     fn buffers(&self) -> impl Iterator<Item = &[f64]> {
///         std::iter::once(&self.0[..])
///     }
///     fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
///         std::iter::once(&mut self.0[..])
///     }
/// }
///
/// // Minimize (x - 3)² from x = 0.
/// let mut x = Weights(vec![0.0]);
/// let mut trainer = ClippedAdam::new(&x, Adam::new(0.2), Some(10.0));
/// for _ in 0..300 {
///     let mut grad = Weights(vec![2.0 * (x.0[0] - 3.0)]);
///     let norm = trainer.apply(&mut x, &mut grad);
///     assert!(norm >= 0.0);
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

    /// Computes the [`global_norm`] of `grads`, clips `grads` in place to
    /// `max_grad_norm` when the norm exceeds it, then takes one Adam
    /// descent step on `net`. Returns the pre-clip norm.
    ///
    /// # Panics
    ///
    /// Panics if `net` or `grads` is laid out differently from the network
    /// this trainer was built for.
    pub fn apply(&mut self, net: &mut impl Params, grads: &mut impl Params) -> f64 {
        let norm = global_norm(grads);
        if let Some(max) = self.max_grad_norm {
            if norm > max && norm > 0.0 {
                scale(grads, max / norm);
            }
        }
        let slots = self.adam.state.len();
        let mut count = 0;
        for (p, g) in paired(net.buffers_mut(), grads.buffers()) {
            assert!(count < slots, "network buffer count mismatch");
            self.adam.step(count, p, g);
            count += 1;
        }
        assert_eq!(count, slots, "network buffer count mismatch");
        norm
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
        fn buffers(&self) -> impl Iterator<Item = &[f64]> {
            [&self.w[..], std::slice::from_ref(&self.b)].into_iter()
        }
        fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
            [&mut self.w[..], std::slice::from_mut(&mut self.b)].into_iter()
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

    /// The textbook scalar Adam loop, indexed element by element: the
    /// reference the vectorized step must reproduce bit for bit.
    struct ScalarAdam {
        m: Vec<Vec<f64>>,
        v: Vec<Vec<f64>>,
        t: i32,
    }

    impl ScalarAdam {
        fn new(net: &Two) -> Self {
            let zeros: Vec<Vec<f64>> = net.buffers().map(|b| vec![0.0; b.len()]).collect();
            Self { m: zeros.clone(), v: zeros, t: 0 }
        }

        fn step(&mut self, net: &mut Two, grads: &Two, lr: f64) {
            let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
            self.t += 1;
            let b1t = 1.0 - beta1.powi(self.t);
            let b2t = 1.0 - beta2.powi(self.t);
            for (slot, (p, g)) in net.buffers_mut().zip(grads.buffers()).enumerate() {
                let (m, v) = (&mut self.m[slot], &mut self.v[slot]);
                for i in 0..p.len() {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
                    let m_hat = m[i] / b1t;
                    let v_hat = v[i] / b2t;
                    p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    #[test]
    fn vectorized_step_equals_the_scalar_loop_bitwise() {
        // 37 lanes (several SIMD widths plus a tail) and the 1-element
        // buffer; four steps, the second one clipped.
        let w0: Vec<f64> = (0..37).map(|i| ((i * 7919) % 97) as f64 / 97.0 - 0.5).collect();
        let start = Two { w: w0, b: 0.125 };
        let mut net = start.clone();
        let mut trainer = ClippedAdam::new(&net, Adam::new(0.05), Some(4.0));
        let mut reference = start.clone();
        let mut scalar = ScalarAdam::new(&reference);
        let mut clipped = 0;
        for step in 0..4 {
            let amp = if step == 1 { 50.0 } else { 0.1 };
            let g = Two {
                w: (0..37).map(|i| amp * (((i + step) * 31) % 13) as f64 / 13.0 - 0.02).collect(),
                b: -amp * 0.3,
            };
            let norm = global_norm(&g);
            let mut expected = g.clone();
            if norm > 4.0 {
                clipped += 1;
                for x in expected.buffers_mut().flatten() {
                    *x *= 4.0 / norm;
                }
            }
            scalar.step(&mut reference, &expected, 0.05);
            let mut g = g;
            assert_eq!(trainer.apply(&mut net, &mut g), norm, "step {step}");
            assert_eq!(g, expected, "step {step}: clipped gradient");
            assert_eq!(net, reference, "step {step}: parameters");
        }
        assert_eq!(clipped, 1, "exactly one step must clip");
        assert_ne!(net, start);
    }

    #[test]
    fn apply_returns_the_norm_of_the_reduced_gradient() {
        let parts = [
            Two { w: vec![0.5, -1.5, 2.25], b: 0.75 },
            Two { w: vec![-0.1, 0.3, 1e-3], b: -2.0 },
            Two { w: vec![3.0, 0.0, -0.7], b: 0.2 },
        ];
        let mut reduced = Two { w: vec![9.0; 3], b: 9.0 };
        reduce_scaled(&mut reduced, &parts, 1.0 / 3.0);
        // The reduction is bitwise zero + accumulate in order + scale.
        let mut expected = Two { w: vec![0.0; 3], b: 0.0 };
        for p in &parts {
            accumulate(&mut expected, p);
        }
        scale(&mut expected, 1.0 / 3.0);
        assert_eq!(reduced, expected);
        let norm = global_norm(&reduced);
        let mut net = Two { w: vec![0.0; 3], b: 0.0 };
        for max in [None, Some(1.0)] {
            let mut trainer = ClippedAdam::new(&net, Adam::new(0.1), max);
            let mut g = reduced.clone();
            assert_eq!(trainer.apply(&mut net, &mut g), norm, "max {max:?}");
        }
    }

    #[test]
    fn reduce_of_one_part_and_of_none() {
        let part = Two { w: vec![-0.0, 1.5], b: -3.0 };
        let mut dst = Two { w: vec![7.0, 7.0], b: 7.0 };
        reduce_scaled(&mut dst, [&part], 2.0);
        // `0.0 + -0.0` is `+0.0`, as when accumulating into zeros.
        assert!(dst.w[0] == 0.0 && dst.w[0].is_sign_positive());
        assert_eq!(dst, Two { w: vec![0.0, 3.0], b: -6.0 });
        reduce_scaled::<Two>(&mut dst, [], 2.0);
        assert_eq!(dst, Two { w: vec![0.0, 0.0], b: 0.0 });
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn reduce_rejects_a_mismatched_part() {
        let mut dst = Two { w: vec![0.0; 2], b: 0.0 };
        reduce_scaled(&mut dst, [&Two { w: vec![0.0; 3], b: 0.0 }], 1.0);
    }

    #[test]
    fn distance_equals_the_two_copy_formula() {
        let mut net = Two { w: (0..19).map(|i| i as f64 * 0.37 - 2.0).collect(), b: -0.6 };
        let mut trainer = ClippedAdam::new(&net, Adam::new(0.01), Some(1.0));
        let mut before = vec![123.0]; // stale contents are overwritten
        for step in 0..3 {
            flat_params_into(&net, &mut before);
            let copy = flat_params(&net);
            assert_eq!(before, copy);
            let mut g = Two { w: (0..19).map(|i| ((i + step) % 5) as f64 - 2.0).collect(), b: 1.0 };
            trainer.apply(&mut net, &mut g);
            let after = flat_params(&net);
            let two_copy =
                copy.iter().zip(&after).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            assert_eq!(distance(&before, &net), two_copy, "step {step}");
            assert!(two_copy > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn distance_rejects_a_short_vector() {
        distance(&[1.0, 2.0], &Two { w: vec![0.0, 0.0], b: 0.0 });
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
