//! Basic trainable layers: linear projections, embedding tables, and layer
//! normalization.

use std::sync::{Arc, Mutex, PoisonError};

use emba_tensor::{backend, Graph, QuantizedMatrix, Tensor, Var};
use rand::Rng;

use crate::param::Param;

/// Cached int8 twin of a weight matrix, keyed so weight updates invalidate
/// it: the buffer address plus the bit patterns of the first and last
/// elements. The address alone is not enough — the allocator can hand a new
/// weight tensor the address a previous one just freed.
#[derive(Debug)]
struct QuantCache {
    key: (usize, u32, u32),
    q: Arc<QuantizedMatrix>,
}

fn quant_key(w: &Tensor) -> (usize, u32, u32) {
    let d = w.data();
    (
        d.as_ptr() as usize,
        d.first().map_or(0, |v| v.to_bits()),
        d.last().map_or(0, |v| v.to_bits()),
    )
}

/// Layers below this weight size stay f32 even under the int8 backend.
/// Tiny projections (the 2-class match head, scalar gates) offer no
/// meaningful GEMM work to accelerate, but sit closest to the logits where
/// quantization noise lands directly on the output probability.
const QUANT_MIN_ELEMS: usize = 2048;

/// Affine projection `y = x · W + b` with `W: [in, out]`, `b: [1, out]`.
#[derive(Debug)]
pub struct Linear {
    /// Weight matrix, `[in_dim, out_dim]`.
    pub weight: Param,
    /// Bias row, `[1, out_dim]`.
    pub bias: Param,
    /// Lazily built int8 weights, used when the int8 backend is installed.
    /// A `Mutex` so that a model is `Sync`: the lanes of a two-lane
    /// `PairScorer` share it. It is held while quantizing, so lanes that reach
    /// a layer's first int8 use together quantize it once; after that it
    /// only guards a clone of the cached `Arc`.
    quant: Mutex<Option<QuantCache>>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Self {
            weight: Param::new(Tensor::xavier(in_dim, out_dim, rng)),
            bias: Param::new(Tensor::zeros(1, out_dim)),
            quant: Mutex::new(None),
        }
    }

    /// The int8 twin of the current weights, quantizing (once) on first use
    /// or after the weight tensor changed.
    pub fn quantized_weight(&self) -> Arc<QuantizedMatrix> {
        let key = quant_key(&self.weight.value);
        let mut cache = self.quant.lock().unwrap_or_else(PoisonError::into_inner);
        match &*cache {
            Some(c) if c.key == key => c.q.clone(),
            _ => {
                let q = Arc::new(QuantizedMatrix::quantize(&self.weight.value));
                *cache = Some(QuantCache { key, q: q.clone() });
                q
            }
        }
    }

    /// The int8 twin [`Linear::quantized_weight`] built for the current
    /// weights, if it has built one — never quantizes.
    pub fn cached_quantized_weight(&self) -> Option<Arc<QuantizedMatrix>> {
        let key = quant_key(&self.weight.value);
        self.quant.lock().unwrap_or_else(PoisonError::into_inner).as_ref().filter(|c| c.key == key).map(|c| c.q.clone())
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Whether this layer runs int8 under a quantized backend.
    pub(crate) fn quantizable(&self) -> bool {
        self.weight.value.rows() * self.weight.value.cols() >= QUANT_MIN_ELEMS
    }

    /// Applies the projection to an `[m, in]` input, producing `[m, out]`,
    /// followed by GELU when `gelu`, as one fused tape op.
    pub fn forward(&self, g: &Graph, x: Var, gelu: bool) -> Var {
        if backend::kind().quantized() && self.quantizable() {
            return g.linear_q8(x, &self.quantized_weight(), &self.bias.value, gelu);
        }
        g.linear(x, self.weight.bind(g), self.bias.bind(g), gelu)
    }
}

crate::module_params!(Linear: weight, bias);

/// A lookup table mapping integer ids to learned `[1, dim]` rows.
#[derive(Debug)]
pub struct Embedding {
    /// The table, `[vocab, dim]`.
    pub weight: Param,
}

impl Embedding {
    /// Normal(0, 0.02)-initialized table, matching BERT's initializer.
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            weight: Param::new(Tensor::rand_normal(vocab, dim, 0.0, 0.02, rng)),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.value.rows()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Gathers the rows for `ids`, producing `[len(ids), dim]`.
    pub fn forward(&self, g: &Graph, ids: &[usize]) -> Var {
        let w = self.weight.bind(g);
        g.embedding(w, ids)
    }
}

crate::module_params!(Embedding: weight);

/// Per-row layer normalization with learned scale and shift.
#[derive(Debug)]
pub struct LayerNorm {
    /// Scale, `[1, dim]`, initialized to ones.
    pub gamma: Param,
    /// Shift, `[1, dim]`, initialized to zeros.
    pub beta: Param,
}

impl LayerNorm {
    /// Identity-initialized layer norm over rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(1, dim)),
            beta: Param::new(Tensor::zeros(1, dim)),
        }
    }

    /// Normalizes each row of an `[m, dim]` input.
    pub fn forward(&self, g: &Graph, x: Var) -> Var {
        let gamma = self.gamma.bind(g);
        let beta = self.beta.bind(g);
        g.layer_norm(x, gamma, beta)
    }
}

crate::module_params!(LayerNorm: gamma, beta);

/// Applies inverted dropout when `train` is set; identity otherwise.
pub fn dropout<R: Rng + ?Sized>(g: &Graph, x: Var, p: f32, train: bool, rng: &mut R) -> Var {
    if train && p > 0.0 {
        g.dropout(x, p, rng)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.weight.value = Tensor::zeros(3, 2);
        lin.bias.value = Tensor::row(&[1.0, -1.0]);
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(4, 3));
        let y = lin.forward(&g, x, false);
        let v = g.value(y);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row_slice(0), &[1.0, -1.0]);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 2);
    }

    #[test]
    fn linear_gradients_flow_to_both_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(1, 2));
        let y = lin.forward(&g, x, false);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        lin.accumulate_gradients(&grads);
        assert!(lin.weight.grad.norm() > 0.0);
        assert!(lin.bias.grad.norm() > 0.0);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::new(10, 4, &mut rng);
        let g = Graph::new();
        let e = emb.forward(&g, &[3, 3, 7]);
        let v = g.value(e);
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.row_slice(0), v.row_slice(1));
        assert_eq!(emb.vocab(), 10);
        assert_eq!(emb.dim(), 4);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(8);
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(
            2,
            8,
            (0..16).map(|i| i as f32).collect(),
        ));
        let y = ln.forward(&g, x);
        let v = g.value(y);
        for r in 0..2 {
            let row = v.row_slice(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_identity_in_eval_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(2, 2));
        let y = dropout(&g, x, 0.5, false, &mut rng);
        assert_eq!(y, x);
    }
}
