//! The dense matrix type and its raw (non-differentiable) kernels.

use std::fmt;
use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

use crate::{fwd, kernels, pool};

/// A dense, row-major matrix of `f32` values.
///
/// Every tensor in this crate is rank 2; vectors are represented as `[1, n]`
/// (row) or `[n, 1]` (column) matrices and scalars as `[1, 1]`. The buffer is
/// shared behind an [`Arc`], so `clone` is O(1) and mutation copies on write.
///
/// # Panics
///
/// Like most array programming libraries, shape mismatches are programming
/// errors and panic with a descriptive message rather than returning
/// `Result`; the checked constructor [`Tensor::try_from_vec`] is available at
/// API boundaries where data arrives from outside the program.
#[derive(Clone)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f32>>,
}

impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rows".to_string(), self.rows.to_value()),
            ("cols".to_string(), self.cols.to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

/// Hand-written so the shape×length invariant is *validated*, not assumed.
///
/// A derived impl would accept any `{rows, cols, data}` triple, and a
/// hand-edited or bit-flipped snapshot whose `data` is shorter than
/// `rows * cols` would drive the GEMM kernels (which index by shape, not
/// by buffer length) out of bounds. Deserialization therefore rejects any
/// tree where `data.len() != rows * cols`, including shapes whose element
/// count overflows `usize`.
impl Deserialize for Tensor {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("Tensor: missing field `{name}`")))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<f32>::from_value(field("data")?)?;
        let expected = rows.checked_mul(cols).ok_or_else(|| {
            serde::Error::custom(format!("Tensor: shape {rows}x{cols} overflows usize"))
        })?;
        if data.len() != expected {
            return Err(serde::Error::custom(format!(
                "Tensor: buffer of {} values does not fill shape {rows}x{cols} ({expected} elements)",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data: Arc::new(data) })
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: Arc::new(vec![value; rows * cols]),
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `[1, 1]` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::full(1, 1, value)
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::try_from_vec(rows, cols, data).expect("buffer length must equal rows * cols")
    }

    /// Checked variant of [`Tensor::from_vec`].
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: Arc::new(data),
        })
    }

    /// Creates a tensor from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} but row 0 has {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a `[1, n]` row vector.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `[n, 1]` column vector.
    pub fn column(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Samples every element uniformly from `[-limit, limit)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self::from_vec(rows, cols, data)
    }

    /// Xavier/Glorot uniform initialization for a weight matrix with
    /// `rows` inputs and `cols` outputs.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Self::rand_uniform(rows, cols, limit, rng)
    }

    /// Samples every element from a normal distribution via Box–Muller.
    pub fn rand_normal<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                mean + std * z
            })
            .collect();
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer, copying if it is shared.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`, copying the buffer if shared.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        let cols = self.cols;
        self.data_mut()[r * cols + c] = value;
    }

    /// The single value of a `[1, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a [1,1] tensor, got {}x{}", self.rows, self.cols);
        self.data[0]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// In-place `self *= s`, reusing the buffer when unshared.
    ///
    /// The gradient batch-average and clip paths run this once per parameter
    /// per optimizer step; the allocating [`Tensor::scale`] there would churn
    /// a fresh buffer each time and bypass the scratch [`pool`].
    pub fn scale_mut(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// In-place `self += other * s`, reusing the buffer when unshared.
    ///
    /// This is the accumulation primitive used by gradient aggregation and
    /// the optimizers, where avoiding a fresh allocation per parameter per
    /// step matters.
    pub fn add_scaled_in_place(&mut self, other: &Tensor, s: f32) {
        self.assert_same_shape(other, "add_scaled_in_place");
        let dst = self.data_mut();
        for (d, &o) in dst.iter_mut().zip(other.data.iter()) {
            *d += o * s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Largest element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Hands the underlying buffer back to the scratch [`pool`] if this was
    /// its last reference; a no-op for shared buffers (parameters,
    /// checkpointed values), which stay untouched.
    pub fn recycle(self) {
        if let Ok(buf) = Arc::try_unwrap(self.data) {
            pool::put(buf);
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = pool::take_uninit(self.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Self::from_vec(self.cols, self.rows, out)
    }

    /// Matrix product `self · other`.
    ///
    /// Routes through the direct-operand GEMM in [`kernels`](crate::kernels),
    /// at every size.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} · {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = pool::take_uninit(m * n);
        kernels::gemm_nn(m, k, n, &self.data, &other.data, &mut out);
        Self::from_vec(m, n, out)
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} · ({}x{})ᵀ inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = pool::take_uninit(m * n);
        kernels::gemm_nt(m, k, n, &self.data, &other.data, &mut out);
        Self::from_vec(m, n, out)
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: ({}x{})ᵀ · {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = pool::take_uninit(m * n);
        kernels::gemm_tn(m, k, n, &self.data, &other.data, &mut out);
        Self::from_vec(m, n, out)
    }

    /// Numerically stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.data.as_ref().clone();
        for r in 0..self.rows {
            softmax_in_place(&mut out[r * self.cols..(r + 1) * self.cols]);
        }
        Self::from_vec(self.rows, self.cols, out)
    }

    /// Numerically stable softmax applied independently to each column.
    pub fn softmax_cols(&self) -> Self {
        let mut out = pool::take_uninit(self.len());
        let mut col = vec![0.0f32; self.rows];
        for c in 0..self.cols {
            for (r, v) in col.iter_mut().enumerate() {
                *v = self.data[r * self.cols + c];
            }
            softmax_in_place(&mut col);
            for (r, &v) in col.iter().enumerate() {
                out[r * self.cols + c] = v;
            }
        }
        Self::from_vec(self.rows, self.cols, out)
    }

    /// Mean over rows: `[m, n] -> [1, n]`.
    pub fn mean_axis0(&self) -> Self {
        let mut out = vec![0.0f32; self.cols];
        fwd::mean_rows_grouped_into(&self.data, self.cols, &crate::RowGroups::from_lens(&[self.rows]), &mut out);
        Self::from_vec(1, self.cols, out)
    }

    /// Index of the largest element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row_slice(r);
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Returns the rows `[r0, r1)` as a new tensor.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows, "row slice {r0}..{r1} out of bounds for {} rows", self.rows);
        Self::from_vec(r1 - r0, self.cols, self.data[r0 * self.cols..r1 * self.cols].to_vec())
    }

    /// Returns the columns `[c0, c1)` as a new tensor.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Self {
        assert!(c0 <= c1 && c1 <= self.cols, "col slice {c0}..{c1} out of bounds for {} cols", self.cols);
        let w = c1 - c0;
        let mut out = Vec::with_capacity(self.rows * w);
        for r in 0..self.rows {
            out.extend_from_slice(&self.row_slice(r)[c0..c1]);
        }
        Self::from_vec(self.rows, w, out)
    }

    /// Stacks tensors with identical column counts vertically.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Self {
        Self::concat(parts, false)
    }

    /// Stacks tensors with identical row counts horizontally.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Self {
        Self::concat(parts, true)
    }

    /// [`fwd::concat_into`] of `parts` into a new tensor.
    fn concat(parts: &[&Tensor], side_by_side: bool) -> Self {
        let views: Vec<_> = parts.iter().map(|t| (t.data(), t.shape())).collect();
        let (rows, cols) = fwd::concat_shape(&views, side_by_side);
        let mut out = pool::take_uninit(rows * cols);
        fwd::concat_into(&views, side_by_side, &mut out);
        Self::from_vec(rows, cols, out)
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data == other.data
    }
}

/// Error returned by [`Tensor::try_from_vec`] when the buffer length does not
/// match the requested shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// `rows * cols` of the requested shape.
    pub expected: usize,
    /// Actual buffer length.
    pub actual: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buffer length {} does not match shape ({} elements)", self.actual, self.expected)
    }
}

impl std::error::Error for ShapeError {}

fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    kernels::scaled_softmax_in_place(xs, 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-5 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row_slice(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn try_from_vec_rejects_bad_length() {
        let err = Tensor::try_from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(err, ShapeError { expected: 4, actual: 3 });
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_variants_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(3, 4, 1.0, &mut rng);
        let b = Tensor::rand_uniform(5, 4, 1.0, &mut rng);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert_eq!(via_t.shape(), direct.shape());
        for (x, y) in via_t.data().iter().zip(direct.data()) {
            assert!(approx(*x, *y));
        }

        let c = Tensor::rand_uniform(4, 3, 1.0, &mut rng);
        let d = Tensor::rand_uniform(4, 6, 1.0, &mut rng);
        let via_t = c.transpose().matmul(&d);
        let direct = c.matmul_tn(&d);
        for (x, y) in via_t.data().iter().zip(direct.data()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-10.0, 0.0, 10.0]]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let row = s.row_slice(r);
            assert!(approx(row.iter().sum::<f32>(), 1.0));
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Monotone in the logits.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::row(&[1000.0, 1000.0, -1000.0]);
        let s = t.softmax_rows();
        assert!(s.all_finite());
        assert!(approx(s.get(0, 0), 0.5));
    }

    #[test]
    fn softmax_cols_matches_transposed_row_softmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::rand_uniform(4, 5, 2.0, &mut rng);
        let a = t.softmax_cols();
        let b = t.transpose().softmax_rows().transpose();
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn means_and_reductions() {
        let t = Tensor::from_rows(&[&[1.0, 3.0], &[5.0, 7.0]]);
        assert_eq!(t.mean_axis0().data(), &[3.0, 5.0]);
        assert_eq!(t.sum(), 16.0);
        assert_eq!(t.mean(), 4.0);
        assert_eq!(t.max(), 7.0);
    }

    #[test]
    fn argmax_rows_breaks_ties_to_first() {
        let t = Tensor::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 2.0, 2.0]]);
        assert_eq!(t.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn slicing_and_concat_roundtrip() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let left = t.slice_cols(0, 1);
        let right = t.slice_cols(1, 3);
        let back = Tensor::concat_cols(&[&left, &right]);
        assert_eq!(back, t);

        let top = t.slice_rows(0, 1);
        let bottom = t.slice_rows(1, 2);
        let back = Tensor::concat_rows(&[&top, &bottom]);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "concat_cols: row mismatch")]
    fn concat_cols_checks_rows_when_the_first_part_is_empty() {
        let _ = Tensor::concat_cols(&[&Tensor::zeros(0, 2), &Tensor::ones(3, 2)]);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = Tensor::zeros(2, 2);
        let b = a.clone();
        a.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 9.0);
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn add_scaled_in_place_accumulates() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        a.add_scaled_in_place(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn scale_mut_reuses_unshared_buffer() {
        let mut a = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let ptr = a.data().as_ptr();
        a.scale_mut(0.5);
        assert_eq!(a.data(), &[0.5, -1.0, 1.5, 2.0]);
        assert_eq!(a.data().as_ptr(), ptr, "unshared scale_mut must not reallocate");
    }

    #[test]
    fn scale_mut_copies_on_write_when_shared() {
        let mut a = Tensor::from_rows(&[&[2.0, 4.0]]);
        let b = a.clone();
        a.scale_mut(2.0);
        assert_eq!(a.data(), &[4.0, 8.0]);
        assert_eq!(b.data(), &[2.0, 4.0], "shared holder must see the old values");
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Tensor::rand_normal(3, 7, 0.0, 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = Tensor::rand_normal(3, 5, 0.0, 2.0, &mut rng);
        let back = Tensor::from_value(&t.to_value()).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data(), "serde round-trip must preserve every bit");
    }

    #[test]
    fn deserialize_rejects_shape_length_mismatch() {
        // A snapshot whose buffer is shorter than rows*cols must be an
        // error, never a tensor that later indexes out of bounds.
        let mut v = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "data" {
                    *val = Value::Array(vec![Value::Float(1.0)]);
                }
            }
        }
        let err = Tensor::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("does not fill shape"), "{err}");
    }

    #[test]
    fn deserialize_rejects_overflowing_shape() {
        let v = Value::Object(vec![
            ("rows".to_string(), Value::UInt(u64::MAX / 2)),
            ("cols".to_string(), Value::UInt(4)),
            ("data".to_string(), Value::Array(vec![])),
        ]);
        let err = Tensor::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn deserialize_rejects_missing_and_mistyped_fields() {
        for missing in ["rows", "cols", "data"] {
            let v = Value::Object(
                Tensor::ones(2, 2)
                    .to_value()
                    .as_object()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| k != missing)
                    .cloned()
                    .collect(),
            );
            assert!(Tensor::from_value(&v).is_err(), "dropped `{missing}` must fail");
        }
        let v = Value::Object(vec![
            ("rows".to_string(), Value::Str("two".into())),
            ("cols".to_string(), Value::UInt(2)),
            ("data".to_string(), Value::Array(vec![])),
        ]);
        assert!(Tensor::from_value(&v).is_err());
    }

    #[test]
    fn xavier_limit_respects_fan() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor::xavier(100, 100, &mut rng);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
    }

}
