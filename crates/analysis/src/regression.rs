//! Correlation.
//!
//! Fig. 8 of the paper plots average GEMM power against two per-experiment
//! statistics — mean bit alignment and mean Hamming weight — and reads off
//! a (loose) monotone trend. We quantify the same relationship with
//! Pearson's r and Spearman's rank correlation.

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pearson product-moment correlation coefficient.
///
/// Returns 0 when either variable is constant (no linear relationship is
/// expressible).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "x and y must pair up");
    if x.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(x), mean(y));
    let sxx: f64 = x.iter().map(|xi| (xi - mx) * (xi - mx)).sum();
    let syy: f64 = y.iter().map(|yi| (yi - my) * (yi - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    sxy / (sxx * syy).sqrt()
}

/// Average ranks, assigning tied values the mean of their rank range.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on ranks; tie-aware).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "x and y must pair up");
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_anticorrelation() {
        let x = [0.0, 1.0, 2.0];
        let y = [4.0, 2.0, 0.0];
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
        assert!((spearman(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_but_nonlinear_favours_spearman() {
        let x: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|xi| xi.exp()).collect();
        let p = pearson(&x, &y);
        let s = spearman(&x, &y);
        assert!((s - 1.0).abs() < 1e-12, "spearman {s}");
        assert!(p < 0.95, "pearson {p} should be visibly below 1");
    }

    #[test]
    fn constant_variable_gives_zero_correlation() {
        let x = [1.0, 1.0, 1.0];
        let y = [2.0, 3.0, 4.0];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(spearman(&x, &y), 0.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_rejected() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}
