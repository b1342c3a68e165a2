//! Incremental linear least-squares: the shared fitting core.
//!
//! The `wm-predict` online power predictor and `wm-optimizer`'s fitted
//! §V power model both reduce to the same normal-equations problem:
//! accumulate `XᵀX` and `Xᵀy` over a stream of observations, then solve
//! `(XᵀX + λI)·β = Xᵀy`. A
//! [`RidgeFitter`] holds exactly those sufficient statistics, so:
//!
//! * fitting is **online** — one `K×K` update per observation, no stored
//!   design matrix;
//! * fitting is **order-insensitive for duplicated observations** — the
//!   accumulated sums of identical terms are identical regardless of
//!   arrival order (floating-point addition is commutative), which the
//!   `wm-predict` property tests pin down;
//! * two fitters over disjoint observation sets [`RidgeFitter::merge`]
//!   exactly when their per-cell sums do.
//!
//! The solve is a Cholesky factorization of the regularized Gram matrix —
//! `K` here is small (a feature vector), so the
//! `O(K³)` cost is noise next to accumulating a single observation stream.

/// Online ridge-regression accumulator over `dim`-dimensional inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeFitter {
    dim: usize,
    lambda: f64,
    /// Row-major upper triangle is authoritative; kept full for clarity.
    xtx: Vec<f64>,
    xty: Vec<f64>,
    n: u64,
}

impl RidgeFitter {
    /// A fresh fitter for `dim`-dimensional inputs with L2 penalty
    /// `lambda` (use `0.0` for plain least squares).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lambda` is negative/non-finite.
    pub fn new(dim: usize, lambda: f64) -> Self {
        assert!(dim > 0, "need at least one input dimension");
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative"
        );
        Self {
            dim,
            lambda,
            xtx: vec![0.0; dim * dim],
            xty: vec![0.0; dim],
            n: 0,
        }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Observations accumulated so far.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// L2 penalty the fitter was built with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The accumulated `XᵀX` Gram matrix, row-major `dim × dim`.
    pub fn xtx(&self) -> &[f64] {
        &self.xtx
    }

    /// The accumulated `Xᵀy` vector, length `dim`.
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }

    /// Rebuild a fitter from previously exported sufficient statistics
    /// (the persistence path: [`Self::xtx`], [`Self::xty`],
    /// [`Self::observations`] round-trip through here exactly).
    ///
    /// Returns `Err` rather than panicking on malformed state — persisted
    /// files are external input, not caller bugs.
    pub fn from_parts(
        dim: usize,
        lambda: f64,
        xtx: Vec<f64>,
        xty: Vec<f64>,
        n: u64,
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("dim must be positive".to_string());
        }
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(format!(
                "lambda must be finite and non-negative, got {lambda}"
            ));
        }
        if xtx.len() != dim * dim {
            return Err(format!(
                "xtx has {} cells, expected {}",
                xtx.len(),
                dim * dim
            ));
        }
        if xty.len() != dim {
            return Err(format!("xty has {} cells, expected {dim}", xty.len()));
        }
        if let Some(bad) = xtx.iter().chain(xty.iter()).find(|v| !v.is_finite()) {
            return Err(format!("non-finite sufficient statistic {bad}"));
        }
        Ok(Self {
            dim,
            lambda,
            xtx,
            xty,
            n,
        })
    }

    /// Accumulate one observation `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.dim, "observation dimension mismatch");
        for i in 0..self.dim {
            for j in 0..self.dim {
                self.xtx[i * self.dim + j] += x[i] * x[j];
            }
            self.xty[i] += x[i] * y;
        }
        self.n += 1;
    }

    /// Fold another fitter's accumulated statistics in (same `dim` and
    /// `lambda` required). Exact when the per-cell additions are.
    ///
    /// # Panics
    ///
    /// Panics on a `dim` or `lambda` mismatch.
    pub fn merge(&mut self, other: &RidgeFitter) {
        assert_eq!(self.dim, other.dim, "cannot merge fitters of unequal dim");
        assert_eq!(
            self.lambda, other.lambda,
            "cannot merge fitters of unequal lambda"
        );
        for (a, b) in self.xtx.iter_mut().zip(other.xtx.iter()) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(other.xty.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Solve `(XᵀX + λI)·β = Xᵀy` for the coefficient vector.
    ///
    /// Returns `None` when the regularized Gram matrix is not positive
    /// definite (too few / degenerate observations and `λ = 0`).
    pub fn solve(&self) -> Option<Vec<f64>> {
        if self.n == 0 {
            return None;
        }
        let k = self.dim;
        let mut a = self.xtx.clone();
        for i in 0..k {
            a[i * k + i] += self.lambda;
        }
        // Cholesky: a = L·Lᵀ, in place (lower triangle).
        let mut l = vec![0.0f64; k * k];
        for i in 0..k {
            for j in 0..=i {
                let mut sum = a[i * k + j];
                for p in 0..j {
                    sum -= l[i * k + p] * l[j * k + p];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * k + i] = sum.sqrt();
                } else {
                    l[i * k + j] = sum / l[j * k + j];
                }
            }
        }
        // Forward substitution L·z = Xᵀy.
        let mut z = vec![0.0f64; k];
        for i in 0..k {
            let mut sum = self.xty[i];
            for p in 0..i {
                sum -= l[i * k + p] * z[p];
            }
            z[i] = sum / l[i * k + i];
        }
        // Back substitution Lᵀ·β = z.
        let mut beta = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut sum = z[i];
            for p in i + 1..k {
                sum -= l[p * k + i] * beta[p];
            }
            beta[i] = sum / l[i * k + i];
        }
        if beta.iter().all(|b| b.is_finite()) {
            Some(beta)
        } else {
            None
        }
    }
}

/// Evaluate a fitted linear model: `βᵀx`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn linear_predict(beta: &[f64], x: &[f64]) -> f64 {
    assert_eq!(beta.len(), x.len(), "coefficient/input length mismatch");
    beta.iter().zip(x).map(|(b, xi)| b * xi).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 3 + 2·x1 - 0.5·x2
        let mut f = RidgeFitter::new(3, 0.0);
        for i in 0..20 {
            let x1 = i as f64;
            let x2 = (i * i % 7) as f64;
            f.observe(&[1.0, x1, x2], 3.0 + 2.0 * x1 - 0.5 * x2);
        }
        let beta = f.solve().unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9, "{beta:?}");
        assert!((beta[1] - 2.0).abs() < 1e-9, "{beta:?}");
        assert!((beta[2] + 0.5).abs() < 1e-9, "{beta:?}");
        assert!((linear_predict(&beta, &[1.0, 10.0, 4.0]) - 21.0).abs() < 1e-8);
    }

    #[test]
    fn empty_and_degenerate_fits_return_none() {
        let f = RidgeFitter::new(2, 0.0);
        assert_eq!(f.solve(), None);
        // Rank-1 data with no regularization cannot be solved...
        let mut f = RidgeFitter::new(2, 0.0);
        f.observe(&[1.0, 2.0], 1.0);
        f.observe(&[2.0, 4.0], 2.0);
        assert_eq!(f.solve(), None);
        // ...but a ridge penalty makes it definite.
        let mut f = RidgeFitter::new(2, 1e-6);
        f.observe(&[1.0, 2.0], 1.0);
        f.observe(&[2.0, 4.0], 2.0);
        assert!(f.solve().is_some());
    }

    #[test]
    fn ridge_shrinks_toward_zero() {
        let mut plain = RidgeFitter::new(1, 0.0);
        let mut ridged = RidgeFitter::new(1, 10.0);
        for i in 1..=5 {
            plain.observe(&[i as f64], 2.0 * i as f64);
            ridged.observe(&[i as f64], 2.0 * i as f64);
        }
        let b0 = plain.solve().unwrap()[0];
        let b1 = ridged.solve().unwrap()[0];
        assert!((b0 - 2.0).abs() < 1e-12);
        assert!(b1 < b0 && b1 > 0.0);
    }

    #[test]
    fn duplicated_observations_are_order_insensitive() {
        // Identical observations accumulate identical terms, so any
        // arrival order yields bit-identical sufficient statistics.
        let obs = [([1.0, 3.0], 5.0), ([1.0, -2.0], 0.5), ([1.0, 7.5], 11.0)];
        let orders: [[usize; 6]; 3] = [[0, 0, 1, 1, 2, 2], [2, 1, 0, 2, 1, 0], [1, 2, 2, 0, 0, 1]];
        let fits: Vec<RidgeFitter> = orders
            .iter()
            .map(|order| {
                let mut f = RidgeFitter::new(2, 1e-3);
                for &i in order {
                    f.observe(&obs[i].0, obs[i].1);
                }
                f
            })
            .collect();
        assert_eq!(fits[0], fits[1]);
        assert_eq!(fits[0], fits[2]);
    }

    #[test]
    fn merge_matches_sequential_accumulation() {
        let pts: Vec<([f64; 2], f64)> = (0..12)
            .map(|i| ([1.0, i as f64], 0.5 + 1.5 * i as f64))
            .collect();
        let mut whole = RidgeFitter::new(2, 0.0);
        for (x, y) in &pts {
            whole.observe(x, *y);
        }
        let mut left = RidgeFitter::new(2, 0.0);
        let mut right = RidgeFitter::new(2, 0.0);
        for (x, y) in &pts[..5] {
            left.observe(x, *y);
        }
        for (x, y) in &pts[5..] {
            right.observe(x, *y);
        }
        left.merge(&right);
        assert_eq!(left.observations(), whole.observations());
        let a = left.solve().unwrap();
        let b = whole.solve().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        RidgeFitter::new(3, 0.0).observe(&[1.0, 2.0], 0.0);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut f = RidgeFitter::new(3, 1e-4);
        for i in 0..40 {
            let x1 = (i % 9) as f64;
            let x2 = (i * 3 % 11) as f64;
            f.observe(&[1.0, x1, x2], 0.7 + 1.3 * x1 - 0.2 * x2);
        }
        let rebuilt = RidgeFitter::from_parts(
            f.dim(),
            f.lambda(),
            f.xtx().to_vec(),
            f.xty().to_vec(),
            f.observations(),
        )
        .unwrap();
        assert_eq!(rebuilt, f);
        assert_eq!(rebuilt.solve(), f.solve());
    }

    #[test]
    fn from_parts_rejects_malformed_state() {
        assert!(RidgeFitter::from_parts(0, 0.0, vec![], vec![], 0).is_err());
        assert!(RidgeFitter::from_parts(2, -1.0, vec![0.0; 4], vec![0.0; 2], 0).is_err());
        assert!(RidgeFitter::from_parts(2, 0.0, vec![0.0; 3], vec![0.0; 2], 0).is_err());
        assert!(RidgeFitter::from_parts(2, 0.0, vec![0.0; 4], vec![0.0; 1], 0).is_err());
        assert!(RidgeFitter::from_parts(2, 0.0, vec![f64::NAN; 4], vec![0.0; 2], 0).is_err());
    }
}
