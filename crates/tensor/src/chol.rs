//! Cholesky factorization and SPD inversion.
//!
//! The paper inverts every damped Kronecker factor `(A + γI)` and `(G + γI)`
//! with cuSolver's Cholesky path (§V-B). This module is the CPU analogue:
//! `LLᵀ` factorization ([`cholesky`]), triangular solves, and a full SPD
//! inverse ([`spd_inverse`]) via inversion of the triangular factor
//! (the POTRF + POTRI sequence).
//!
//! From `SMALL_N` up, the inverse runs as three register-tiled phases,
//! each reading contiguous row-major rows:
//!
//! 1. a row-oriented (Banachiewicz) Cholesky, `L[i][j] = (A[i][j] −
//!    L[i][..j]·L[j][..j]) / L[j][j]`;
//! 2. a column-tiled triangular inverse writing the rows of `(L⁻¹)ᵀ` (row
//!    `j` is column `j` of `M = L⁻¹`, the forward substitution `L y = e_j`);
//! 3. the symmetric product `A⁻¹ = MᵀM` (LAUUM) on the upper triangle,
//!    mirrored.
//!
//! All three push their O(n³) work through `gemm::dot_tile`: a 4 × 2
//! block of dot products over shared row prefixes. In the Cholesky and the
//! LAUUM a tile is four output rows × one even-aligned column pair
//! `(jp, jp + 1)`; in the triangular inverse it is four columns of `M` ×
//! one pair of rows of `L`. The dot runs over the pair's shared range and
//! the at most one remaining term per entry is added in scalar order
//! afterwards. Off-diagonals multiply by reciprocal pivots rather than
//! divide. Every entry is therefore summed in an order fixed by its own
//! `(i, j)` alone, independent of the tile or task that computes it —
//! which is what keeps the result bit-identical for any `SPDKFAC_THREADS`
//! and inside or outside a pool task. From `PAR_N` up the phases split
//! over the pool: the Cholesky rows of a `ROW_BLOCK`-row block for the
//! columns left of that block, the column quads of the triangular inverse,
//! and the row tiles of the LAUUM.
//!
//! The seed kernels [`cholesky_unblocked`] and [`Cholesky::inverse_unblocked`]
//! stay as the path below `SMALL_N` and as the serial reference selected
//! by [`crate::gemm::set_reference_kernels`].

use crate::error::TensorError;
use crate::gemm::{self, TILE_C, TILE_R};
use crate::matrix::Matrix;
use crate::pool::{self, SharedSlice};

/// Dimensions below this use the seed kernels: there a tile's fixed costs
/// (horizontal sums, scalar fix-ups, repeated padding rows) outweigh its
/// short dots. Measured crossover, see DESIGN.md §2.1.
const SMALL_N: usize = 20;

/// Rows per Cholesky row block; the block's row tiles go to the pool
/// together for the columns left of the block.
const ROW_BLOCK: usize = 64;

/// Smallest dimension whose phases dispatch to the pool.
const PAR_N: usize = 128;

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Produced by [`cholesky`]; provides solves and the SPD inverse.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

/// Computes the Cholesky factorization `A = L Lᵀ` of a symmetric positive
/// definite matrix.
///
/// Only the lower triangle of `a` is read, so numerically-slightly-asymmetric
/// inputs are accepted (the upper triangle is ignored).
///
/// # Errors
///
/// - [`TensorError::NotSquare`] if `a` is rectangular.
/// - [`TensorError::NotPositiveDefinite`] if a non-positive pivot appears.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, chol::cholesky};
///
/// # fn main() -> Result<(), spdkfac_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = cholesky(&a)?;
/// let rebuilt = ch.factor().matmul(&ch.factor().transpose());
/// assert!(rebuilt.max_abs_diff(&a) < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn cholesky(a: &Matrix) -> Result<Cholesky, TensorError> {
    if gemm::reference_kernels() || !a.is_square() || a.rows() < SMALL_N {
        return cholesky_unblocked(a);
    }
    let n = a.rows();
    // Factor in place over a copy of the lower triangle (the upper stays 0).
    let mut w = vec![0.0; n * n];
    for (i, (dst, src)) in w.chunks_mut(n).zip(a.as_slice().chunks(n)).enumerate() {
        dst[..=i].copy_from_slice(&src[..=i]);
    }
    // Reciprocal pivots `1 / L[j][j]`: off-diagonals multiply, not divide.
    let mut rdiag = vec![0.0; n];
    let parallel = pool::is_parallel() && n >= PAR_N;
    for b0 in (0..n).step_by(ROW_BLOCK) {
        let b1 = (b0 + ROW_BLOCK).min(n);
        // Columns left of the block: each row tile reads only its own rows
        // and the finished rows above `b0`.
        if b0 > 0 {
            let (done, rest) = w.split_at_mut(b0 * n);
            let shared = SharedSlice::new(&mut rest[..(b1 - b0) * n]);
            let rdiag = &rdiag[..b0];
            let tiles = (b1 - b0).div_ceil(TILE_R);
            let body = |t: usize| {
                let r0 = b0 + t * TILE_R;
                let r1 = (r0 + TILE_R).min(b1);
                // SAFETY: task t owns rows [r0, r1) of the block.
                let tile = unsafe { shared.slice_mut((r0 - b0) * n..(r1 - b0) * n) };
                // Pivots are only checked on diagonals, never left of one.
                let _ = chol_rows(done, tile, rdiag, n, r0, 0, b0);
            };
            for_tasks(parallel, tiles, body);
        }
        // The block's own columns, tile after tile: the first failing
        // diagonal is therefore the lowest one.
        for r0 in (b0..b1).step_by(TILE_R) {
            let r1 = (r0 + TILE_R).min(n);
            let (done, rest) = w.split_at_mut(r0 * n);
            let own = chol_rows(
                done,
                &mut rest[..(r1 - r0) * n],
                &rdiag[..r0],
                n,
                r0,
                b0,
                r1,
            )?;
            rdiag[r0..r1].copy_from_slice(&own[..r1 - r0]);
        }
    }
    Ok(Cholesky {
        l: Matrix::from_vec(n, n, w),
    })
}

/// The seed factorization: serial unblocked column-by-column `LLᵀ`.
///
/// Kept as the small-matrix path of [`cholesky`], the serial reference for
/// `bench_kernels`, and the parity baseline for the proptests (pivots
/// included: both report the first failing index).
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn cholesky_unblocked(a: &Matrix) -> Result<Cholesky, TensorError> {
    if !a.is_square() {
        return Err(TensorError::NotSquare {
            op: "cholesky",
            shape: a.shape(),
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // Diagonal entry.
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(TensorError::NotPositiveDefinite { pivot: j });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(Cholesky { l })
}

impl Cholesky {
    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` using the factorization (forward then backward
    /// substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve: rhs length mismatch");
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solves `A X = B` column-by-column.
    ///
    /// # Panics
    ///
    /// Panics if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_matrix: shape mismatch");
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for c in 0..b.cols() {
            for r in 0..n {
                col[r] = b[(r, c)];
            }
            let x = self.solve(&col);
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        out
    }

    /// Computes the full inverse `A⁻¹ = L⁻ᵀ L⁻¹` (POTRI-style).
    ///
    /// The result is exactly symmetric by construction. From `SMALL_N` up
    /// it runs the tiled triangular inverse and LAUUM (module docs).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        if gemm::reference_kernels() || n < SMALL_N {
            return self.inverse_unblocked();
        }
        let l = self.l.as_slice();
        let parallel = pool::is_parallel() && n >= PAR_N;
        // Rows of Mᵀ, one column quad of M per task: each column is an
        // independent forward substitution.
        let rdiag: Vec<f64> = (0..n).map(|i| 1.0 / l[i * n + i]).collect();
        let mut mt = vec![0.0; n * n];
        {
            let shared = SharedSlice::new(&mut mt);
            let tasks = n.div_ceil(TILE_R);
            let body = |t: usize| {
                let jq = t * TILE_R;
                // SAFETY: task t owns rows [jq, jq + TILE_R) of Mᵀ.
                let rows = unsafe { shared.slice_mut(jq * n..(jq + TILE_R).min(n) * n) };
                trinv_cols(l, &rdiag, rows, jq);
            };
            for_tasks(parallel, tasks, body);
        }
        // Upper triangle of MᵀM, one row tile per task, then mirrored.
        let mut inv = vec![0.0; n * n];
        {
            let shared = SharedSlice::new(&mut inv);
            let tiles = n.div_ceil(TILE_R);
            let body = |t: usize| {
                let i0 = t * TILE_R;
                // SAFETY: task t owns output rows [i0, i0 + TILE_R).
                let rows = unsafe { shared.slice_mut(i0 * n..(i0 + TILE_R).min(n) * n) };
                lauum_rows(&mt, rows, n, i0);
            };
            for_tasks(parallel, tiles, body);
        }
        gemm::mirror_upper(&mut inv, n);
        Matrix::from_vec(n, n, inv)
    }

    /// The seed inverse: serial scalar triangular inversion followed by the
    /// scalar `MᵀM` product. Kept as the small-matrix path of
    /// [`Cholesky::inverse`], the serial reference for `bench_kernels`, and
    /// the parity baseline for the proptests.
    pub fn inverse_unblocked(&self) -> Matrix {
        let n = self.dim();
        // Invert the lower-triangular factor: M = L⁻¹ (lower triangular).
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0 / self.l[(i, i)];
            for j in 0..i {
                let mut s = 0.0;
                for k in j..i {
                    s += self.l[(i, k)] * m[(k, j)];
                }
                m[(i, j)] = -s / self.l[(i, i)];
            }
        }
        // A⁻¹ = Mᵀ M, computed on the upper triangle then mirrored.
        let mut inv = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                // Column i of M dotted with column j of M, rows ≥ max(i, j)=j.
                let mut s = 0.0;
                for k in j..n {
                    s += m[(k, i)] * m[(k, j)];
                }
                inv[(i, j)] = s;
                inv[(j, i)] = s;
            }
        }
        inv
    }

    /// Log-determinant of `A`: `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Convenience wrapper: factorizes and inverts an SPD matrix in one call.
///
/// This is the operation the paper's load-balancing placement distributes
/// across GPUs (`f(T_i)` in §IV-B).
///
/// # Errors
///
/// Propagates [`cholesky`] errors.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, chol::spd_inverse};
///
/// # fn main() -> Result<(), spdkfac_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let inv = spd_inverse(&a)?;
/// assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(2)) < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn spd_inverse(a: &Matrix) -> Result<Matrix, TensorError> {
    Ok(cholesky(a)?.inverse())
}

// Every tile below pads a short edge by repeating its last row; the padded
// results are discarded (see `gemm::dot_tile`). Pairs stay aligned to even
// columns because tiles start at multiples of `TILE_R`.
const _: () = assert!(TILE_R.is_multiple_of(TILE_C));

/// Runs `body(0)`, …, `body(tasks - 1)` over the pool when `parallel`,
/// otherwise in order on this thread.
fn for_tasks(parallel: bool, tasks: usize, body: impl Fn(usize) + Sync) {
    if parallel {
        pool::parallel_for(tasks, body);
    } else {
        (0..tasks).for_each(body);
    }
}

/// Row `i` of a factor under construction: rows above `r0` are read from
/// `done`, the rows of the current tile (from `r0`) from `tile`.
fn row<'a>(done: &'a [f64], tile: &'a [f64], n: usize, r0: usize, i: usize) -> &'a [f64] {
    if i < r0 {
        &done[i * n..(i + 1) * n]
    } else {
        &tile[(i - r0) * n..(i - r0 + 1) * n]
    }
}

/// Cholesky phase: columns `c0..c1` (`c0` even) of the factor rows held in
/// `tile` (global rows from `r0`, holding `A`'s lower triangle where not
/// yet factored), given the finished rows `..r0` in `done` and their
/// reciprocal pivots in `rdiag`. Returns the reciprocal pivots of the
/// tile's own diagonal entries in `c0..c1`.
///
/// Per pair `(jp, jp + 1)` the tile kernel takes the dot over the shared
/// prefix `..jp`; the term `jp` of the odd column follows once its pair
/// mate is resolved.
fn chol_rows(
    done: &[f64],
    tile: &mut [f64],
    rdiag: &[f64],
    n: usize,
    r0: usize,
    c0: usize,
    c1: usize,
) -> Result<[f64; TILE_R], TensorError> {
    let rows = tile.len() / n;
    let mut own = [0.0; TILE_R];
    for jp in (c0..c1).step_by(TILE_C) {
        let s = {
            let tile = &*tile;
            let x = std::array::from_fn(|r| &row(done, tile, n, r0, r0 + r.min(rows - 1))[..jp]);
            let y = std::array::from_fn(|c| &row(done, tile, n, r0, (jp + c).min(c1 - 1))[..jp]);
            gemm::dot_tile(jp, x, y)
        };
        for (c, j) in (jp..(jp + TILE_C).min(c1)).enumerate() {
            for i in r0.max(j)..r0 + rows {
                let lj = row(done, tile, n, r0, j);
                let li = &tile[(i - r0) * n..(i - r0 + 1) * n];
                let mut t = s[i - r0][c];
                for k in jp..j {
                    t += li[k] * lj[k];
                }
                let v = if i == j {
                    let d = li[j] - t;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(TensorError::NotPositiveDefinite { pivot: j });
                    }
                    let ljj = d.sqrt();
                    own[j - r0] = 1.0 / ljj;
                    ljj
                } else if j < r0 {
                    (li[j] - t) * rdiag[j]
                } else {
                    (li[j] - t) * own[j - r0]
                };
                tile[(i - r0) * n + j] = v;
            }
        }
    }
    Ok(own)
}

/// Triangular-inverse phase: rows `jq..` of `Mᵀ` held in `y` (up to
/// `TILE_R` of them, one per column of `M = L⁻¹` from `jq`), i.e. the
/// forward substitutions `L y = e_j`, over row pairs of `L` starting at
/// `jq`. The tile kernel takes the dot over the finished range `jq..i0` —
/// the `Mᵀ` rows stay in cache while the rows of `L` stream past — and the
/// pair's first row follows in scalar order. `rdiag` holds `1 / L[i][i]`.
fn trinv_cols(l: &[f64], rdiag: &[f64], y: &mut [f64], jq: usize) {
    let n = rdiag.len();
    let cols = y.len() / n;
    for i0 in (jq..n).step_by(TILE_C) {
        let i1 = (i0 + TILE_C).min(n);
        let s = {
            let y = &*y;
            let yc = std::array::from_fn(|c| {
                let c = c.min(cols - 1);
                &y[c * n + jq..c * n + i0]
            });
            let x = std::array::from_fn(|r| {
                let i = (i0 + r).min(i1 - 1);
                &l[i * n + jq..i * n + i0]
            });
            gemm::dot_tile(i0 - jq, yc, x)
        };
        for (c, sc) in s.iter().enumerate().take(cols) {
            let j = jq + c;
            let yj = &mut y[c * n..(c + 1) * n];
            for i in i0.max(j)..i1 {
                yj[i] = if i == j {
                    rdiag[i]
                } else {
                    let li = &l[i * n..(i + 1) * n];
                    let mut t = sc[i - i0];
                    for k in i0..i {
                        t += li[k] * yj[k];
                    }
                    -t * rdiag[i]
                };
            }
        }
    }
}

/// LAUUM phase: the upper-triangle entries of rows `i0..` of `MᵀM` into
/// `out`. `A⁻¹[i][j]` is the dot of `Mᵀ` rows `i` and `j` over `j..n`; the
/// tile runs each pair over `jp..n`, where `Mᵀ[j][jp..j]` is zero.
fn lauum_rows(mt: &[f64], out: &mut [f64], n: usize, i0: usize) {
    let rows = out.len() / n;
    for jp in (i0..n).step_by(TILE_C) {
        let x = std::array::from_fn(|r| {
            let i = i0 + r.min(rows - 1);
            &mt[i * n + jp..(i + 1) * n]
        });
        let y = std::array::from_fn(|c| {
            let j = (jp + c).min(n - 1);
            &mt[j * n + jp..(j + 1) * n]
        });
        let s = gemm::dot_tile(n - jp, x, y);
        for (c, j) in (jp..(jp + TILE_C).min(n)).enumerate() {
            for (r, sr) in s.iter().enumerate().take(rows.min(j + 1 - i0)) {
                out[r * n + j] = sr[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(n + 4, n);
        let mut a = x.gramian_scaled(n as f64);
        a.add_scaled_identity(0.5);
        a
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1, 2, 3, 8, 17, 40] {
            let a = random_spd(n, n as u64);
            let ch = cholesky(&a).unwrap();
            let rebuilt = ch.factor().matmul(&ch.factor().transpose());
            assert!(
                rebuilt.max_abs_diff(&a) < 1e-10,
                "reconstruction failed at n={n}"
            );
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        let a = random_spd(6, 42);
        let ch = cholesky(&a).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(ch.factor()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotSquare { op: "cholesky", .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_negative_diagonal_immediately() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn solve_matches_direct() {
        let a = random_spd(12, 3);
        let ch = cholesky(&a).unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = random_spd(7, 8);
        let ch = cholesky(&a).unwrap();
        let mut rng = MatrixRng::new(9);
        let b = rng.uniform_matrix(7, 3, -1.0, 1.0);
        let x = ch.solve_matrix(&b);
        let ax = a.matmul(&x);
        assert!(ax.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn inverse_is_symmetric_and_correct() {
        for n in [1, 2, 5, 16, 33] {
            let a = random_spd(n, 100 + n as u64);
            let inv = spd_inverse(&a).unwrap();
            assert_eq!(inv.max_asymmetry(), 0.0, "asymmetric inverse at n={n}");
            let prod = a.matmul(&inv);
            assert!(
                prod.max_abs_diff(&Matrix::identity(n)) < 1e-8,
                "A·A⁻¹ ≠ I at n={n}"
            );
        }
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = Matrix::identity(5);
        let inv = spd_inverse(&i).unwrap();
        assert!(inv.max_abs_diff(&i) < 1e-14);
    }

    #[test]
    fn inverse_of_diagonal() {
        let a = Matrix::from_diag(&[2.0, 4.0, 8.0]);
        let inv = spd_inverse(&a).unwrap();
        let expect = Matrix::from_diag(&[0.5, 0.25, 0.125]);
        assert!(inv.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn log_det_matches_diagonal_case() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = cholesky(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn tiled_factorization_matches_unblocked() {
        // Below, at and above SMALL_N, across tile/pair remainders and
        // row blocks (d = 128, 256, 257 are in the crate's proptests).
        for n in [5usize, 23, 24, 27, 33, 64, 65, 130] {
            let a = random_spd(n, 500 + n as u64);
            let tiled = cholesky(&a).unwrap();
            let reference = cholesky_unblocked(&a).unwrap();
            assert!(
                tiled.factor().max_abs_diff(reference.factor()) < 1e-10,
                "tiled factor diverges at n={n}"
            );
        }
    }

    #[test]
    fn tiled_inverse_matches_unblocked() {
        for n in [5usize, 23, 24, 27, 33, 64, 65, 130] {
            let a = random_spd(n, 900 + n as u64);
            let ch = cholesky(&a).unwrap();
            let tiled = ch.inverse();
            assert!(
                tiled.max_abs_diff(&ch.inverse_unblocked()) < 1e-10,
                "tiled inverse diverges at n={n}"
            );
            assert_eq!(tiled.max_asymmetry(), 0.0);
        }
    }

    fn pivot(r: Result<Cholesky, TensorError>) -> usize {
        match r {
            Err(TensorError::NotPositiveDefinite { pivot }) => pivot,
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn tiled_pivot_matches_unblocked() {
        // Interior rows of a 4-row tile, in the first and a later row block.
        for (n, bad) in [(40usize, 30usize), (150, 130), (150, 65)] {
            let mut a = random_spd(n, 77 + n as u64);
            a[(bad, bad)] = -100.0;
            let p = pivot(cholesky(&a));
            assert_eq!(p, bad);
            assert_eq!(p, pivot(cholesky_unblocked(&a)));
        }
        // A NaN off-diagonal (lower triangle) poisons its row's diagonal.
        for (n, i, j) in [(40usize, 33usize, 10usize), (150, 130, 70), (150, 66, 65)] {
            let mut a = random_spd(n, 88 + n as u64);
            a[(i, j)] = f64::NAN;
            let p = pivot(cholesky(&a));
            assert_eq!(p, i);
            assert_eq!(p, pivot(cholesky_unblocked(&a)));
        }
    }

    #[test]
    fn inverse_is_bit_identical_inside_and_outside_pool_task() {
        // Inside a pool task every phase re-enters serially; outside, large
        // matrices split over the pool. Both must give the same bits.
        for n in [48usize, 200, 257] {
            let a = random_spd(n, 4242 + n as u64);
            let outside = spd_inverse(&a).unwrap();
            let inside = std::sync::Mutex::new(None);
            pool::parallel_for(2, |t| {
                if t == 0 {
                    *inside.lock().unwrap() = Some(spd_inverse(&a).unwrap());
                }
            });
            let inside = inside.into_inner().unwrap().expect("task ran");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&outside), bits(&inside), "bits differ at n={n}");
        }
    }

    #[test]
    fn damping_rescues_singular_matrix() {
        // Rank-1 Gramian is singular; damping per Eq. 12 makes it invertible.
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let a = x.gramian();
        assert!(cholesky(&a).is_err());
        let damped = a.damped(1e-3);
        assert!(spd_inverse(&damped).is_ok());
    }
}
