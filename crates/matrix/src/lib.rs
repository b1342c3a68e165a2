//! # wm-matrix — dense row-major matrices
//!
//! Minimal dense-matrix substrate for the GEMM simulator: [`Matrix`] is
//! row-major dense storage of logical `f32` values (the paper generates
//! FP32 once; dtype conversion happens downstream). The pattern
//! generators build operands as `Matrix`es, and the GEMM and GEMV engines
//! read them as `Matrix`es or as `wm_kernels::EncodedMatrix` words; there
//! is no view type, and a transposed operand is a [`Matrix::transposed`]
//! copy.
//!
//! Indexing is `(row, col)` everywhere; storage is row-major. Out-of-range
//! indexing panics (debug *and* release): index arithmetic bugs must never
//! silently corrupt an experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A dense row-major matrix of logical `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero — degenerate GEMMs indicate a
    /// configuration error upstream.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Create a matrix from a closure of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Create a matrix taking ownership of row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-dimension matrices cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Element access.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Mutable element access.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of range");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Apply `f` to every element in place (used by quantization and the
    /// bit-surgery patterns).
    pub fn map_in_place(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// An owned transposed copy.
    pub fn transposed(&self) -> Self {
        // This matrix's row-major storage is its transpose's column-major.
        Self::from_col_major(self.cols, self.rows, &self.data)
    }

    /// Create a `rows x cols` matrix from column-major data (the
    /// transpose of `data` read as a `cols x rows` row-major matrix).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        // Square tiles, so the lines a tile reads and the lines it writes
        // stay cached together: walking a whole column of a wide matrix
        // touches a line per row, and at power-of-two widths those lines
        // compete for the same few cache sets.
        const TILE: usize = 8;
        let mut m = Self::zeros(rows, cols);
        for c0 in (0..cols).step_by(TILE) {
            for r0 in (0..rows).step_by(TILE) {
                for c in c0..(c0 + TILE).min(cols) {
                    for r in r0..(r0 + TILE).min(rows) {
                        m.data[r * cols + c] = data[c * rows + r];
                    }
                }
            }
        }
        m
    }

    /// Elementwise approximate equality with absolute-or-relative tolerance
    /// `tol`: `|a-b| <= tol * max(1, |a|, |b|)`.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    /// Fraction of exactly-zero elements (used by the sparsity experiments
    /// to verify the requested sparsity was achieved).
    pub fn zero_fraction(&self) -> f64 {
        let zeros = self.data.iter().filter(|&&v| v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_rejected() {
        Matrix::zeros(0, 5);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_get_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn set_then_get() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 7.5);
        assert_eq!(m.get(1, 0), 7.5);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn transposed_copy_swaps_indices() {
        // Shapes inside one tile, a whole number of tiles, and ragged
        // edges in both directions.
        for (rows, cols) in [(3, 5), (16, 24), (37, 21)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as f32);
            let t = m.transposed();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for r in 0..cols {
                for c in 0..rows {
                    assert_eq!(t.get(r, c), m.get(c, r));
                }
            }
        }
    }

    #[test]
    fn column_major_data_fills_columns_first() {
        let data: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let m = Matrix::from_col_major(2, 3, &data);
        assert_eq!(m.as_slice(), &[0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        assert_eq!(m, Matrix::from_vec(3, 2, data).transposed());
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.5);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn map_in_place_applies_everywhere() {
        let mut m = Matrix::filled(2, 2, 2.0);
        m.map_in_place(|v| v * v);
        assert!(m.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn approx_eq_tolerance_semantics() {
        let a = Matrix::filled(2, 2, 100.0);
        let mut b = a.clone();
        b.set(0, 0, 100.0 + 0.5);
        assert!(a.approx_eq(&b, 0.01)); // 0.5 <= 0.01 * 100.5
        assert!(!a.approx_eq(&b, 1e-6));
        let c = Matrix::filled(2, 3, 100.0);
        assert!(!a.approx_eq(&c, 1.0), "shape mismatch must fail");
    }

    #[test]
    fn zero_fraction_counts_exact_zeros() {
        let mut m = Matrix::filled(2, 2, 1.0);
        m.set(0, 0, 0.0);
        m.set(1, 1, 0.0);
        assert_eq!(m.zero_fraction(), 0.5);
    }

    #[test]
    fn mean_is_arithmetic_mean() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.mean(), 2.5);
    }
}
