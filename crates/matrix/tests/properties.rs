//! Property-based tests for matrix invariants.

use proptest::prelude::*;
use wm_matrix::Matrix;

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        prop::collection::vec(-1.0e3f32..1.0e3, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn transpose_is_involutive(m in arb_matrix()) {
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn rows_concatenate_to_storage(m in arb_matrix()) {
        let mut collected = Vec::new();
        for r in 0..m.rows() {
            collected.extend_from_slice(m.row(r));
        }
        prop_assert_eq!(collected.as_slice(), m.as_slice());
    }

    #[test]
    fn map_in_place_identity_is_noop(m in arb_matrix()) {
        let mut n = m.clone();
        n.map_in_place(|v| v);
        prop_assert_eq!(n, m);
    }

    #[test]
    fn approx_eq_is_reflexive_and_symmetric(m in arb_matrix(), n in arb_matrix()) {
        prop_assert!(m.approx_eq(&m, 0.0));
        prop_assert_eq!(m.approx_eq(&n, 1e-3), n.approx_eq(&m, 1e-3));
    }

    #[test]
    fn zero_fraction_bounds(m in arb_matrix()) {
        let f = m.zero_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }
}
