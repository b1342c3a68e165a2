//! §IV.C placement transforms: partial sorting.
//!
//! The paper defines partial sorting as: *"Sorting n percent means that the
//! lowest n percent of values are sorted into the first n percent of
//! indices (row-wise)."* The remaining values keep their original relative
//! order in the remaining indices.
//!
//! Three layouts are studied:
//!
//! * **into rows** — indices counted in row-major order over the whole
//!   matrix ([`sort_into_rows`]);
//! * **into columns** — indices counted in column-major order
//!   ([`sort_into_cols`]);
//! * **within rows** — each row independently partially sorted
//!   ([`sort_within_rows`]).
//!
//! The paper's fourth variant, *sorted and aligned* (Fig. 5b), is not a
//! different matrix pattern: it is [`sort_into_rows`] on both operands with
//! the GEMM-level B-transposition enabled, so the kernel multiplies low
//! values with low values. That switch lives in the kernel configuration.

use wm_matrix::Matrix;

/// The unsigned key whose order is [`f32::total_cmp`]'s: negative values
/// flip every bit, the rest only the sign bit.
#[inline]
fn total_order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// The value whose [`total_order_key`] is `key`.
#[inline]
fn from_total_order_key(key: u32) -> f32 {
    f32::from_bits(key ^ (!((key as i32 >> 31) as u32) | 0x8000_0000))
}

/// Sort ascending in [`f32::total_cmp`] order. Equal keys are equal bit
/// patterns, so the result is exactly `sort_unstable_by(f32::total_cmp)`'s.
fn sort_total(data: &mut [f32]) {
    let keys = sorted_keys(data);
    for (v, &key) in data.iter_mut().zip(&keys) {
        *v = from_total_order_key(key);
    }
}

/// The [`total_order_key`]s of `data`, ascending: an LSD radix sort, one
/// byte per pass, skipping bytes every key shares.
fn sorted_keys(data: &[f32]) -> Vec<u32> {
    let mut keys: Vec<u32> = data.iter().map(|&v| total_order_key(v)).collect();
    let mut counts = [[0usize; 256]; 4];
    for &key in &keys {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * pass)) as usize & 0xFF] += 1;
        }
    }
    let mut out = vec![0u32; keys.len()];
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&keys.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        for digit in 1..256 {
            next[digit] = next[digit - 1] + count[digit - 1];
        }
        for &key in &keys {
            let digit = (key >> (8 * pass)) as usize & 0xFF;
            out[next[digit]] = key;
            next[digit] += 1;
        }
        std::mem::swap(&mut keys, &mut out);
    }
    keys
}

/// Sort the lowest `fraction` of `data`'s values into the leading
/// `fraction` of its indices (ascending); the remaining values keep their
/// original relative order in the tail.
///
/// `fraction` is clamped to `[0, 1]`. With `fraction == 1.0` the slice is
/// fully sorted ascending. Ties at the selection boundary are broken by
/// original index, so the function is fully deterministic.
pub fn sort_lowest_fraction(data: &mut [f32], fraction: f64) {
    let n = data.len();
    let k = (fraction.clamp(0.0, 1.0) * n as f64).round() as usize;
    if k == 0 || n == 0 {
        return;
    }
    if k >= n {
        sort_total(data);
        return;
    }
    // Select the k lowest (value, index) pairs.
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.select_nth_unstable_by(k - 1, |&i, &j| {
        data[i as usize]
            .total_cmp(&data[j as usize])
            .then(i.cmp(&j))
    });
    let mut chosen = vec![false; n];
    for &i in &idx[..k] {
        chosen[i as usize] = true;
    }
    // Gather: chosen values sorted ascending, the rest in original order.
    let mut low: Vec<f32> = Vec::with_capacity(k);
    let mut rest: Vec<f32> = Vec::with_capacity(n - k);
    for (i, &v) in data.iter().enumerate() {
        if chosen[i] {
            low.push(v);
        } else {
            rest.push(v);
        }
    }
    sort_total(&mut low);
    data[..k].copy_from_slice(&low);
    data[k..].copy_from_slice(&rest);
}

/// Partially sort a matrix in row-major index order (Fig. 5a/5b pattern).
pub fn sort_into_rows(m: &mut Matrix, fraction: f64) {
    sort_lowest_fraction(m.as_mut_slice(), fraction);
}

/// A full sort of `m`'s values in row-major index order: what
/// [`sort_into_rows`] at fraction 1 leaves, built from a borrowed matrix
/// (the full-sort patterns all start here, see
/// `PatternSpec::starts_sorted`). [`column_major`] lays the same sort out
/// column by column.
pub fn fully_sorted(m: &Matrix) -> Matrix {
    let values = sorted_keys(m.as_slice())
        .into_iter()
        .map(from_total_order_key)
        .collect();
    Matrix::from_vec(m.rows(), m.cols(), values)
}

/// `sorted`'s row-major sequence laid out column by column: what
/// [`sort_into_cols`] at fraction 1 leaves, given [`fully_sorted`]'s
/// matrix.
pub fn column_major(sorted: &Matrix) -> Matrix {
    Matrix::from_col_major(sorted.rows(), sorted.cols(), sorted.as_slice())
}

/// Partially sort a matrix in column-major index order (Fig. 5c pattern):
/// the lowest values fill the leading *columns*.
pub fn sort_into_cols(m: &mut Matrix, fraction: f64) {
    let mut t = m.transposed();
    sort_lowest_fraction(t.as_mut_slice(), fraction);
    *m = t.transposed();
}

/// Partially sort each row independently (Fig. 5d pattern).
pub fn sort_within_rows(m: &mut Matrix, fraction: f64) {
    for r in 0..m.rows() {
        sort_lowest_fraction(m.row_mut(r), fraction);
    }
}

/// Count of adjacent inversions (`data[i] > data[i+1]`) — a sortedness
/// measure used by tests and the optimizer's transform search.
pub fn adjacent_inversions(data: &[f32]) -> usize {
    data.windows(2).filter(|w| w[0] > w[1]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::Xoshiro256pp;
    use wm_numerics::Gaussian;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = Gaussian::new(0.0, 210.0);
        Matrix::from_fn(rows, cols, |_, _| g.sample_f32(&mut rng))
    }

    fn sorted_copy(values: &[f32]) -> Vec<f32> {
        let mut v = values.to_vec();
        v.sort_unstable_by(f32::total_cmp);
        v
    }

    #[test]
    fn zero_fraction_is_identity() {
        let base = random_matrix(8, 8, 1);
        let mut m = base.clone();
        sort_into_rows(&mut m, 0.0);
        assert_eq!(m, base);
        sort_into_cols(&mut m, 0.0);
        assert_eq!(m, base);
        sort_within_rows(&mut m, 0.0);
        assert_eq!(m, base);
    }

    #[test]
    fn full_fraction_sorts_completely() {
        let mut m = random_matrix(8, 8, 2);
        sort_into_rows(&mut m, 1.0);
        assert_eq!(adjacent_inversions(m.as_slice()), 0);
    }

    #[test]
    fn sorting_preserves_the_multiset() {
        let base = random_matrix(16, 16, 3);
        for fraction in [0.25, 0.5, 0.75, 1.0] {
            let mut m = base.clone();
            sort_into_rows(&mut m, fraction);
            assert_eq!(sorted_copy(m.as_slice()), sorted_copy(base.as_slice()));
        }
    }

    #[test]
    fn partial_sort_prefix_is_sorted_and_low() {
        let base = random_matrix(16, 16, 4);
        let mut m = base.clone();
        sort_into_rows(&mut m, 0.5);
        let n = m.len();
        let k = n / 2;
        let prefix = &m.as_slice()[..k];
        // Prefix ascending.
        assert_eq!(adjacent_inversions(prefix), 0);
        // Prefix is exactly the k lowest values of the original.
        assert_eq!(prefix.to_vec(), sorted_copy(base.as_slice())[..k].to_vec());
        // Tail preserves original relative order of the remaining values.
        let tail: Vec<f32> = m.as_slice()[k..].to_vec();
        let threshold = prefix[k - 1];
        let expected_tail: Vec<f32> = {
            // Values not selected, in original order. Reconstruct via the
            // same selection rule: k lowest with index tie-break.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&i, &j| {
                base.as_slice()[i]
                    .total_cmp(&base.as_slice()[j])
                    .then(i.cmp(&j))
            });
            let chosen: std::collections::HashSet<usize> = idx[..k].iter().copied().collect();
            (0..n)
                .filter(|i| !chosen.contains(i))
                .map(|i| base.as_slice()[i])
                .collect()
        };
        assert_eq!(tail, expected_tail);
        assert!(tail.iter().all(|&v| v >= threshold));
    }

    #[test]
    fn full_sorts_from_a_borrowed_matrix_match_the_in_place_sorts() {
        for (rows, cols, seed) in [(8, 8, 9), (5, 11, 10), (1, 7, 11)] {
            let base = random_matrix(rows, cols, seed);
            let mut by_rows = base.clone();
            sort_into_rows(&mut by_rows, 1.0);
            assert_eq!(
                bits(fully_sorted(&base).as_slice()),
                bits(by_rows.as_slice())
            );
            let mut by_cols = base.clone();
            sort_into_cols(&mut by_cols, 1.0);
            let laid_out = column_major(&fully_sorted(&base));
            assert_eq!((laid_out.rows(), laid_out.cols()), (rows, cols));
            assert_eq!(bits(laid_out.as_slice()), bits(by_cols.as_slice()));
        }
    }

    #[test]
    fn column_sort_means_columns_ascend() {
        let mut m = random_matrix(8, 8, 5);
        sort_into_cols(&mut m, 1.0);
        // Column-major full sort: walking down column 0 then column 1 etc.
        // must be globally ascending.
        let mut prev = f32::NEG_INFINITY;
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                assert!(m.get(r, c) >= prev);
                prev = m.get(r, c);
            }
        }
    }

    #[test]
    fn within_rows_sorts_rows_independently() {
        let base = random_matrix(8, 8, 6);
        let mut m = base.clone();
        sort_within_rows(&mut m, 1.0);
        for r in 0..m.rows() {
            assert_eq!(adjacent_inversions(m.row(r)), 0);
            assert_eq!(sorted_copy(m.row(r)), sorted_copy(base.row(r)));
        }
        // But the whole matrix is generally NOT globally sorted.
        assert!(adjacent_inversions(m.as_slice()) > 0);
    }

    #[test]
    fn inversions_decrease_monotonically_in_fraction() {
        let base = random_matrix(16, 16, 7);
        let mut last = usize::MAX;
        for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut m = base.clone();
            sort_into_rows(&mut m, fraction);
            let inv = adjacent_inversions(m.as_slice());
            assert!(
                inv <= last,
                "inversions rose from {last} to {inv} at fraction {fraction}"
            );
            last = inv;
        }
    }

    #[test]
    fn fraction_is_clamped() {
        let base = random_matrix(4, 4, 8);
        let mut m = base.clone();
        sort_into_rows(&mut m, -3.0);
        assert_eq!(m, base);
        sort_into_rows(&mut m, 7.0);
        assert_eq!(adjacent_inversions(m.as_slice()), 0);
    }

    /// Bit patterns, since NaN payloads and signed zeros must survive.
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Awkward values: NaNs of both signs and several payloads, signed
    /// zeros and infinities, subnormals, and heavy duplication.
    fn awkward(n: usize, seed: u64) -> Vec<f32> {
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_0042),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            1.5,
            -1.5,
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = Gaussian::new(0.0, 210.0);
        (0..n)
            .map(|_| match rng.next_bounded(4) {
                0 => special[rng.next_bounded(special.len())],
                1 => f32::from_bits(rng.next_u32()),
                _ => g.sample_f32(&mut rng),
            })
            .collect()
    }

    #[test]
    fn radix_sort_is_the_total_cmp_sort() {
        for (n, seed) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (7, 4),
            (65, 5),
            (1000, 6),
            (4099, 7),
        ] {
            let mut values = awkward(n, seed);
            let mut reference = values.clone();
            reference.sort_unstable_by(f32::total_cmp);
            sort_total(&mut values);
            assert_eq!(bits(&values), bits(&reference), "n = {n}");
        }
        // Constant input skips every pass.
        let mut same = vec![-0.0f32; 300];
        sort_total(&mut same);
        assert_eq!(bits(&same), vec![0x8000_0000; 300]);
    }

    #[test]
    fn tiny_slices_are_safe() {
        let mut empty: [f32; 0] = [];
        sort_lowest_fraction(&mut empty, 0.5);
        let mut one = [3.0f32];
        sort_lowest_fraction(&mut one, 1.0);
        assert_eq!(one, [3.0]);
    }
}
