//! Gated recurrent units — the RNN substrate for the DeepMatcher baseline.
//!
//! DeepMatcher (Mudgal et al., SIGMOD 2018) aggregates attribute embeddings
//! with bidirectional RNNs; this module provides the [`GruCell`] and
//! [`BiGru`] used by `emba-core`'s DeepMatcher reimplementation.

use emba_tensor::{Graph, Tensor, Var};
use rand::Rng;

use crate::layers::Linear;
use crate::param::{Module, Param};

/// A single GRU cell with the standard update/reset/candidate gates.
#[derive(Debug)]
pub struct GruCell {
    /// Input projection for all three gates, `[in, 3*hidden]` as one matmul
    /// (update ‖ reset ‖ candidate).
    input: Linear,
    /// Hidden projection for the update and reset gates, `[hidden, 2*hidden]`.
    hidden_zr: Linear,
    /// Hidden projection for the candidate, `[hidden, hidden]` (applied to
    /// the reset-gated state).
    hidden_n: Linear,
    hidden: usize,
}

impl GruCell {
    /// Creates a cell mapping `in_dim` inputs to `hidden` state dims.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            input: Linear::new(in_dim, 3 * hidden, rng),
            hidden_zr: Linear::new(hidden, 2 * hidden, rng),
            hidden_n: Linear::new(hidden, hidden, rng),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step: consumes `x: [1, in]` and `h: [1, hidden]`, returns the new
    /// `[1, hidden]` state.
    pub fn step(&self, g: &Graph, x: Var, h: Var) -> Var {
        let hd = self.hidden;
        let xi = self.input.forward(g, x); // [1, 3h]
        let hz = self.hidden_zr.forward(g, h); // [1, 2h]

        let xz = g.slice_cols(xi, 0, hd);
        let xr = g.slice_cols(xi, hd, 2 * hd);
        let xn = g.slice_cols(xi, 2 * hd, 3 * hd);
        let hzz = g.slice_cols(hz, 0, hd);
        let hzr = g.slice_cols(hz, hd, 2 * hd);

        let z = g.sigmoid(g.add(xz, hzz));
        let r = g.sigmoid(g.add(xr, hzr));
        let rh = g.mul(r, h);
        let n = g.tanh(g.add(xn, self.hidden_n.forward(g, rh)));

        // h' = (1 - z) ⊙ n + z ⊙ h  =  n + z ⊙ (h - n)
        let delta = g.mul(z, g.sub(h, n));
        g.add(n, delta)
    }

    /// Runs the cell across `xs: [seq, in]`, returning `[seq, hidden]` with
    /// one row per timestep. `reverse` scans right-to-left (output rows stay
    /// in input order).
    pub fn scan(&self, g: &Graph, xs: Var, reverse: bool) -> Var {
        let seq = g.shape(xs).0;
        assert!(seq > 0, "cannot scan an empty sequence");
        let mut h = g.leaf(Tensor::zeros(1, self.hidden));
        let mut states = vec![h; seq];
        let order: Vec<usize> = if reverse {
            (0..seq).rev().collect()
        } else {
            (0..seq).collect()
        };
        for t in order {
            let x = g.slice_rows(xs, t, t + 1);
            h = self.step(g, x, h);
            states[t] = h;
        }
        g.concat_rows(&states)
    }
}

impl Module for GruCell {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.input.visit(f);
        self.hidden_zr.visit(f);
        self.hidden_n.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.input.visit_mut(f);
        self.hidden_zr.visit_mut(f);
        self.hidden_n.visit_mut(f);
    }
}

/// A bidirectional GRU: forward and backward cells with concatenated states.
#[derive(Debug)]
pub struct BiGru {
    forward: GruCell,
    backward: GruCell,
}

impl BiGru {
    /// Creates a BiGRU whose output width is `2 * hidden`.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            forward: GruCell::new(in_dim, hidden, rng),
            backward: GruCell::new(in_dim, hidden, rng),
        }
    }

    /// Output width (`2 * hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.forward.hidden()
    }

    /// Encodes `xs: [seq, in]` into `[seq, 2*hidden]`.
    pub fn forward(&self, g: &Graph, xs: Var) -> Var {
        let fwd = self.forward.scan(g, xs, false);
        let bwd = self.backward.scan(g, xs, true);
        g.concat_cols(&[fwd, bwd])
    }
}

impl Module for BiGru {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.forward.visit(f);
        self.backward.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.forward.visit_mut(f);
        self.backward.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scan_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let cell = GruCell::new(4, 6, &mut rng);
        let g = Graph::new();
        let xs = g.leaf(Tensor::rand_normal(5, 4, 0.0, 1.0, &mut rng));
        let hs = cell.scan(&g, xs, false);
        assert_eq!(g.value(hs).shape(), (5, 6));
    }

    #[test]
    fn state_stays_bounded() {
        // tanh candidate + convex gate combination keeps |h| <= 1.
        let mut rng = StdRng::seed_from_u64(1);
        let cell = GruCell::new(3, 4, &mut rng);
        let g = Graph::new();
        let xs = g.leaf(Tensor::rand_normal(20, 3, 0.0, 5.0, &mut rng));
        let hs = cell.scan(&g, xs, false);
        assert!(g.value(hs).data().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn reverse_scan_differs_but_matches_flipped_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = GruCell::new(2, 3, &mut rng);
        let x = Tensor::rand_normal(4, 2, 0.0, 1.0, &mut rng);
        let mut flipped_rows: Vec<&[f32]> = x.iter_rows().collect();
        flipped_rows.reverse();
        let flipped = Tensor::from_rows(&flipped_rows);

        let g = Graph::new();
        let rev = g.value(cell.scan(&g, g.leaf(x), true));
        let fwd_on_flipped = g.value(cell.scan(&g, g.leaf(flipped), false));
        // Reverse scan at row t equals forward scan over the flipped input at
        // row seq-1-t.
        for t in 0..4 {
            assert_eq!(rev.row_slice(t), fwd_on_flipped.row_slice(3 - t));
        }
    }

    #[test]
    fn bigru_output_width_and_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = BiGru::new(3, 5, &mut rng);
        assert_eq!(net.out_dim(), 10);
        let g = Graph::new();
        let xs = g.leaf(Tensor::rand_normal(4, 3, 0.0, 1.0, &mut rng));
        let hs = net.forward(&g, xs);
        assert_eq!(g.value(hs).shape(), (4, 10));
        let sq = g.mul(hs, hs);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        net.accumulate_gradients(&grads);
        let mut nonzero = true;
        net.visit(&mut |p| {
            if p.grad.norm() == 0.0 {
                nonzero = false;
            }
        });
        assert!(nonzero);
    }
}
