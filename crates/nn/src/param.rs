//! Trainable parameters and the module visitor.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use emba_tensor::{Gradients, Graph, Tensor, Var};

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// An inert token, kept only because the frozen `benchmark/` passes one to
/// the two split-path methods of `emba_core::Matcher`,
/// `encode_records_standalone` and `score_encoded_pairs`, which ignore it.
/// It holds no state: a [`Param`] keys its leaf on [`Graph::id`]. The
/// benchmark's next coordinated edit drops the argument and this type.
#[derive(Debug, Clone, Copy)]
pub struct GraphStamp;

impl GraphStamp {
    /// The token; every call returns the same value.
    pub fn next() -> Self {
        GraphStamp
    }
}

/// A trainable tensor with its accumulated gradient.
///
/// The binding between a parameter and the [`Var`] that represents it inside
/// the current forward graph is tracked internally, keyed by [`Graph::id`]:
/// call [`Param::bind`] during the forward pass and [`Param::accumulate`]
/// after [`Graph::backward`].
#[derive(Debug)]
pub struct Param {
    id: u64,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// `(Graph::id, leaf)` of the last bind.
    bound: Cell<Option<(u64, Var)>>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self {
            id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
            value,
            grad,
            bound: Cell::new(None),
        }
    }

    /// Stable identity used by optimizers to key their per-parameter state.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of scalar values in this parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// This parameter's leaf on `g`: recorded on the first bind in `g`,
    /// reused by every later one (weight sharing within one forward pass).
    /// A leaf bound on another graph is never handed out here.
    pub fn bind(&self, g: &Graph) -> Var {
        if let Some((id, v)) = self.bound.get() {
            if id == g.id() {
                return v;
            }
        }
        let v = g.leaf(self.value.clone());
        self.bound.set(Some((g.id(), v)));
        v
    }

    /// Adds the gradient computed for this parameter's bound leaf (if any)
    /// into `self.grad`, then clears the binding.
    pub fn accumulate(&mut self, grads: &Gradients) {
        if let Some((_, v)) = self.bound.take() {
            if let Some(g) = grads.get(v) {
                self.grad.add_scaled_in_place(g, 1.0);
            }
        }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.rows(), self.value.cols());
    }
}

/// Anything holding trainable parameters.
///
/// The visitor pattern sidesteps the borrow gymnastics of returning nested
/// `&mut` collections and gives a deterministic parameter order, which the
/// checkpoint format and the optimizers rely on.
pub trait Module {
    /// Visits every parameter in a fixed, deterministic order.
    fn visit(&self, f: &mut dyn FnMut(&Param));

    /// Mutable variant of [`Module::visit`], in the same order.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.len());
        n
    }

    /// After `Graph::backward`, folds each bound parameter's gradient into
    /// its accumulator.
    fn accumulate_gradients(&mut self, grads: &Gradients) {
        self.visit_mut(&mut |p| p.accumulate(grads));
    }

    /// Zeroes all gradient accumulators.
    fn zero_grads(&mut self) {
        self.visit_mut(&mut |p| p.zero_grad());
    }

    /// Snapshot of all parameter values in visit order.
    fn state(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a [`Module::state`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length or any tensor shape disagrees with the
    /// module's parameters.
    fn load_state(&mut self, state: &[Tensor]) {
        let mut i = 0;
        self.visit_mut(&mut |p| {
            assert!(i < state.len(), "state snapshot too short at parameter {i}");
            assert_eq!(
                state[i].shape(),
                p.value.shape(),
                "state snapshot shape mismatch at parameter {i}"
            );
            p.value = state[i].clone();
            i += 1;
        });
        assert_eq!(i, state.len(), "state snapshot has {} extra tensors", state.len() - i);
    }
}

/// Global L2 gradient-norm clipping across all parameters of a module.
///
/// Returns the pre-clip norm.
pub fn clip_grad_norm(module: &mut dyn Module, max_norm: f32) -> f32 {
    let mut sq = 0.0f32;
    module.visit(&mut |p| {
        sq += p.grad.data().iter().map(|&g| g * g).sum::<f32>();
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        // In place: gradient accumulators are uniquely owned here, so this
        // reuses their buffers instead of allocating one per parameter per
        // optimizer step.
        module.visit_mut(&mut |p| {
            p.grad.scale_mut(scale);
        });
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair {
        a: Param,
        b: Param,
    }

    impl Module for Pair {
        fn visit(&self, f: &mut dyn FnMut(&Param)) {
            f(&self.a);
            f(&self.b);
        }
        fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    fn pair() -> Pair {
        Pair {
            a: Param::new(Tensor::from_rows(&[&[1.0, 2.0]])),
            b: Param::new(Tensor::from_rows(&[&[3.0], &[4.0]])),
        }
    }

    #[test]
    fn bind_reuses_var_within_one_graph() {
        let p = Param::new(Tensor::ones(1, 1));
        let g = Graph::new();
        let v1 = p.bind(&g);
        let v2 = p.bind(&g);
        assert_eq!(v1, v2);
        assert_eq!(g.len(), 1, "a second bind in the same graph records nothing");
    }

    #[test]
    fn bind_in_a_second_graph_records_one_leaf_there() {
        let p = Param::new(Tensor::row(&[1.5, -2.25]));
        let g_a = Graph::new();
        p.bind(&g_a);
        let g_b = Graph::new();
        // B's node 0 is another tensor, so a `Var` left over from A would
        // read the wrong value below.
        g_b.leaf(Tensor::zeros(1, 1));
        let before = g_b.len();
        let v = p.bind(&g_b);
        assert_eq!(g_b.len(), before + 1);
        assert_eq!(p.bind(&g_b), v);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g_b.value(v)), bits(&p.value));
        assert_eq!(g_a.len(), 1);
    }

    #[test]
    fn accumulate_folds_gradient_and_clears_binding() {
        let mut p = Param::new(Tensor::row(&[2.0, 3.0]));
        let g = Graph::new();
        let v = p.bind(&g);
        let sq = g.mul(v, v);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        p.accumulate(&grads);
        assert_eq!(p.grad.data(), &[4.0, 6.0]);
        // Second accumulate is a no-op because the binding is consumed.
        p.accumulate(&grads);
        assert_eq!(p.grad.data(), &[4.0, 6.0]);
    }

    #[test]
    fn weight_sharing_accumulates_both_uses() {
        let mut p = Param::new(Tensor::row(&[5.0]));
        let g = Graph::new();
        let v1 = p.bind(&g);
        let v2 = p.bind(&g);
        let s = g.add(v1, v2); // same var twice
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        p.accumulate(&grads);
        assert_eq!(p.grad.data(), &[2.0]);
    }

    #[test]
    fn state_roundtrip() {
        let m = pair();
        let state = m.state();
        let mut other = pair();
        other.a.value = Tensor::zeros(1, 2);
        other.load_state(&state);
        assert_eq!(other.a.value.data(), &[1.0, 2.0]);
        assert_eq!(m.num_params(), 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_state_rejects_wrong_shape() {
        let mut m = pair();
        let mut state = m.state();
        state[0] = Tensor::zeros(2, 2);
        m.load_state(&state);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut m = pair();
        m.a.grad = Tensor::from_rows(&[&[3.0, 0.0]]);
        m.b.grad = Tensor::from_rows(&[&[4.0], &[0.0]]);
        let norm = clip_grad_norm(&mut m, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let mut sq = 0.0;
        m.visit(&mut |p| sq += p.grad.data().iter().map(|&g| g * g).sum::<f32>());
        assert!((sq.sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut m = pair();
        m.a.grad = Tensor::from_rows(&[&[0.1, 0.0]]);
        let norm = clip_grad_norm(&mut m, 1.0);
        assert!(norm < 1.0);
        assert_eq!(m.a.grad.data(), &[0.1, 0.0]);
    }
}
