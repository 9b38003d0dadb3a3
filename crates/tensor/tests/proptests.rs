//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::{chol, kron, Matrix, SymPacked};

/// Strategy: a dimension in a range small enough for exhaustive checks.
fn dim() -> impl Strategy<Value = usize> {
    1usize..20
}

/// Strategy: a GEMM edge length straddling the microkernel (4×8) and cache
/// block (64) boundaries, including non-multiples of every block size and
/// sizes large enough to cross into the packed SYRK path.
fn gemm_dim() -> impl Strategy<Value = usize> {
    1usize..140
}

/// Naive triple-loop product — the ground truth the packed kernels are
/// checked against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spd_inverse_roundtrips(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.1);
        let inv = chol::spd_inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(d)) < 1e-7);
    }

    #[test]
    fn cholesky_reconstructs(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.1);
        let ch = chol::cholesky(&a).unwrap();
        let rebuilt = ch.factor().matmul(&ch.factor().transpose());
        prop_assert!(rebuilt.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn solve_consistent_with_inverse(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.2);
        let b = rng.uniform_vec(d, -1.0, 1.0);
        let ch = chol::cholesky(&a).unwrap();
        let x_solve = ch.solve(&b);
        let x_inv = ch.inverse().matvec(&b);
        for (l, r) in x_solve.iter().zip(x_inv.iter()) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn sympacked_roundtrip(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(d + 1, d);
        let sym = x.gramian();
        let packed = SymPacked::from_matrix(&sym);
        prop_assert_eq!(packed.len(), d * (d + 1) / 2);
        prop_assert!(packed.to_matrix().max_abs_diff(&sym) < 1e-15);
    }

    #[test]
    fn gramian_is_psd_diagonal_nonnegative(rows in 1usize..12, cols in 1usize..12, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(rows, cols);
        let g = x.gramian();
        for i in 0..cols {
            prop_assert!(g[(i, i)] >= 0.0);
        }
        prop_assert_eq!(g.max_asymmetry(), 0.0);
    }

    #[test]
    fn kron_vec_identity(din in 1usize..6, dout in 1usize..6, seed in 0u64..1_000_000) {
        // (A ⊗ G) vec(X) == vec(G X A) for symmetric A (col-major vec).
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(din, 0.1);
        let g = rng.spd_matrix(dout, 0.1);
        let x = rng.uniform_matrix(dout, din, -1.0, 1.0);

        let fast = kron::precondition_gradient(&x, &a, &g);
        let big = kron::kron(&a, &g);
        let v = kron::vec_col_major(&x);
        let explicit = kron::unvec_col_major(&big.matvec(&v), dout, din);
        prop_assert!(fast.max_abs_diff(&explicit) < 1e-9);
    }

    #[test]
    fn matmul_associative(seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let b = rng.uniform_matrix(6, 3, -1.0, 1.0);
        let c = rng.uniform_matrix(3, 5, -1.0, 1.0);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn damping_shifts_trace(d in dim(), gamma in 0.0f64..10.0, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.0);
        let damped = a.damped(gamma);
        prop_assert!((damped.trace() - a.trace() - gamma * d as f64).abs() < 1e-9);
    }

    #[test]
    fn packed_gemm_matches_naive(m in gemm_dim(), k in gemm_dim(), n in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        prop_assert!(a.matmul(&b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn transpose_free_gemm_matches_naive(m in gemm_dim(), k in gemm_dim(), n in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        // A · Bᵀ without materialising Bᵀ.
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let bt = rng.uniform_matrix(n, k, -1.0, 1.0);
        prop_assert!(a.matmul_nt(&bt).max_abs_diff(&naive_matmul(&a, &bt.transpose())) < 1e-12);
        // Aᵀ · B without materialising Aᵀ.
        let at = rng.uniform_matrix(k, m, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        prop_assert!(at.matmul_tn(&b).max_abs_diff(&naive_matmul(&at.transpose(), &b)) < 1e-12);
    }

    #[test]
    fn syrk_matches_naive(rows in gemm_dim(), d in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.uniform_matrix(rows, d, -1.0, 1.0);
        let gram = x.gramian();
        prop_assert!(gram.max_abs_diff(&naive_matmul(&x.transpose(), &x)) < 1e-12);
        prop_assert_eq!(gram.max_asymmetry(), 0.0);
        let outer = x.syrk_nt();
        prop_assert!(outer.max_abs_diff(&naive_matmul(&x, &x.transpose())) < 1e-12);
        prop_assert_eq!(outer.max_asymmetry(), 0.0);
    }

    #[test]
    fn tiled_cholesky_matches_serial_reference(d in 1usize..97, seed in 0u64..1_000_000) {
        // 1..=96 crosses the reference crossover and every tile remainder.
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.5);
        let reference = chol::cholesky_unblocked(&a).unwrap();
        let tiled = chol::cholesky(&a).unwrap();
        prop_assert!(tiled.factor().max_abs_diff(reference.factor()) < 1e-12);
    }

    #[test]
    fn tiled_inverse_matches_serial_reference(d in 1usize..97, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.5);
        let ch = chol::cholesky(&a).unwrap();
        let tiled = ch.inverse();
        prop_assert!(tiled.max_abs_diff(&ch.inverse_unblocked()) < 1e-12);
        prop_assert_eq!(tiled.max_asymmetry(), 0.0);
    }
}

/// Large factor dims: the first size split over the pool (128), a
/// 64-multiple (256) and the remainder just past it (257).
#[test]
fn tiled_kernels_match_serial_reference_at_large_dims() {
    for (d, seed) in [(128usize, 1u64), (256, 2), (257, 3)] {
        let a = MatrixRng::new(seed).spd_matrix(d, 0.5);
        let reference = chol::cholesky_unblocked(&a).unwrap();
        let ch = chol::cholesky(&a).unwrap();
        assert!(
            ch.factor().max_abs_diff(reference.factor()) < 1e-12,
            "factor at d={d}"
        );
        let inv = ch.inverse();
        assert!(
            inv.max_abs_diff(&ch.inverse_unblocked()) < 1e-12,
            "inverse at d={d}"
        );
        assert_eq!(inv.max_asymmetry(), 0.0);
    }
}
