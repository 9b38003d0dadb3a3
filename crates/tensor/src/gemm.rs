//! Packed, cache-blocked GEMM / SYRK kernels with pool dispatch.
//!
//! This is the compute substrate behind every hot `Matrix` operation:
//!
//! - [`gemm`]: `C += op(A) · op(B)` with a register-tiled `MR × NR`
//!   microkernel over panels packed once per cache block (the
//!   BLIS/GotoBLAS structure). Transposition is absorbed by the packing
//!   routines, so `AᵀB` / `ABᵀ` products never materialize a transpose.
//! - [`syrk_tn`] / [`syrk_nt`]: symmetric rank-k products `XᵀX` / `XXᵀ`
//!   computing only the upper triangle (half the FLOPs of the equivalent
//!   GEMM) and mirroring it — the kernel behind the Kronecker-factor
//!   statistics `E[aaᵀ]` / `E[ggᵀ]`. Large products run on the packed
//!   microkernel restricted to the diagonal-and-right panels of each row
//!   block; small ones use an unpacked block-pair loop.
//!
//! The inner loops (microkernel, dot, axpy) dispatch once at runtime to
//! AVX2+FMA versions when the CPU supports them; the portable fallbacks
//! compile on every architecture.
//!
//! Row blocks of the output are distributed over the persistent pool
//! ([`crate::pool`]); each output element is produced by exactly one task in
//! serial loop order, so results are bit-identical for any thread count.
//!
//! [`set_reference_kernels`] routes every entry point back to the pre-pool
//! serial kernels (the seed implementation). It exists so benchmarks and
//! parity tests can measure/verify optimized-vs-reference on the same build;
//! production code should never enable it.

use crate::pool::{self, SharedSlice};
use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime-dispatched AVX2+FMA inner loops. The crate is compiled for
/// baseline x86-64 (SSE2), so the hot loops here are duplicated behind
/// `#[target_feature]` and selected once at runtime; every other
/// architecture (and pre-AVX2 hardware) falls back to the portable
/// kernels below.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{MR, NR, TILE_C, TILE_R};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// One-time CPUID probe for the AVX2+FMA fast path.
    pub fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// `MR × NR` rank-`kc` update on packed panels: 8 × 256-bit FMA
    /// accumulators (4 rows × 2 vectors of 4 doubles).
    ///
    /// # Safety
    /// Caller must have verified [`available`]; panels must hold at least
    /// `kc * MR` / `kc * NR` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel(
        kc: usize,
        apanel: &[f64],
        bpanel: &[f64],
        acc: &mut [[f64; NR]; MR],
    ) {
        unsafe {
            let ap = apanel.as_ptr();
            let bp = bpanel.as_ptr();
            let mut c = [[_mm256_setzero_pd(); 2]; MR];
            for p in 0..kc {
                let b0 = _mm256_loadu_pd(bp.add(p * NR));
                let b1 = _mm256_loadu_pd(bp.add(p * NR + 4));
                for (r, cr) in c.iter_mut().enumerate() {
                    let a = _mm256_set1_pd(*ap.add(p * MR + r));
                    cr[0] = _mm256_fmadd_pd(a, b0, cr[0]);
                    cr[1] = _mm256_fmadd_pd(a, b1, cr[1]);
                }
            }
            for (dst, cr) in acc.iter_mut().zip(c.iter()) {
                _mm256_storeu_pd(dst.as_mut_ptr(), cr[0]);
                _mm256_storeu_pd(dst.as_mut_ptr().add(4), cr[1]);
            }
        }
    }

    /// FMA dot product with four independent vector accumulators.
    ///
    /// # Safety
    /// Caller must have verified [`available`]; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        unsafe {
            let n = x.len();
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            let chunks = n / 16;
            for c in 0..chunks {
                let i = c * 16;
                a0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), a0);
                a1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 4)),
                    _mm256_loadu_pd(yp.add(i + 4)),
                    a1,
                );
                a2 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 8)),
                    _mm256_loadu_pd(yp.add(i + 8)),
                    a2,
                );
                a3 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 12)),
                    _mm256_loadu_pd(yp.add(i + 12)),
                    a3,
                );
            }
            let mut acc = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
            let mut i = chunks * 16;
            while i + 4 <= n {
                acc = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc);
                i += 4;
            }
            let mut buf = [0.0f64; 4];
            _mm256_storeu_pd(buf.as_mut_ptr(), acc);
            let mut s = (buf[0] + buf[1]) + (buf[2] + buf[3]);
            while i < n {
                s += *xp.add(i) * *yp.add(i);
                i += 1;
            }
            s
        }
    }

    /// `TILE_R × TILE_C` block of dot products (see [`super::dot_tile`]):
    /// one 4-lane FMA accumulator per entry, the `k % 4` tail through a
    /// masked load, and each accumulator reduced as `(l0 + l1) + (l2 + l3)`.
    ///
    /// # Safety
    /// Caller must have verified [`available`]; every slice holds `k`
    /// elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_tile(
        k: usize,
        x: [&[f64]; TILE_R],
        y: [&[f64]; TILE_C],
    ) -> [[f64; TILE_C]; TILE_R] {
        const LANES: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
        unsafe {
            let xp = x.map(<[f64]>::as_ptr);
            let y0 = y[0].as_ptr();
            let y1 = y[1].as_ptr();
            let mut acc = [[_mm256_setzero_pd(); TILE_C]; TILE_R];
            let mut p = 0;
            while p + 4 <= k {
                let b0 = _mm256_loadu_pd(y0.add(p));
                let b1 = _mm256_loadu_pd(y1.add(p));
                for (a, &xr) in acc.iter_mut().zip(xp.iter()) {
                    let v = _mm256_loadu_pd(xr.add(p));
                    a[0] = _mm256_fmadd_pd(v, b0, a[0]);
                    a[1] = _mm256_fmadd_pd(v, b1, a[1]);
                }
                p += 4;
            }
            if p < k {
                let mask = _mm256_loadu_si256(LANES.as_ptr().add(4 - (k - p)).cast());
                let b0 = _mm256_maskload_pd(y0.add(p), mask);
                let b1 = _mm256_maskload_pd(y1.add(p), mask);
                for (a, &xr) in acc.iter_mut().zip(xp.iter()) {
                    let v = _mm256_maskload_pd(xr.add(p), mask);
                    a[0] = _mm256_fmadd_pd(v, b0, a[0]);
                    a[1] = _mm256_fmadd_pd(v, b1, a[1]);
                }
            }
            let mut out = [[0.0; TILE_C]; TILE_R];
            for (o, a) in out.iter_mut().zip(acc.iter()) {
                // [a0+a1, b0+b1, a2+a3, b2+b3] → [(a0+a1)+(a2+a3), (b0+b1)+(b2+b3)]
                let h = _mm256_hadd_pd(a[0], a[1]);
                let s = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
                _mm_storeu_pd(o.as_mut_ptr(), s);
            }
            out
        }
    }

    /// `y += alpha * x` with FMA.
    ///
    /// # Safety
    /// Caller must have verified [`available`]; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        unsafe {
            let n = x.len();
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i + 4 <= n {
                let yv = _mm256_loadu_pd(yp.add(i));
                let xv = _mm256_loadu_pd(xp.add(i));
                _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(a, xv, yv));
                i += 4;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i);
                i += 1;
            }
        }
    }
}

/// Microkernel tile height (rows of C per register tile).
const MR: usize = 4;
/// Microkernel tile width (cols of C per register tile).
const NR: usize = 8;
/// Rows (`x` operands) of a [`dot_tile`] block.
pub(crate) const TILE_R: usize = 4;
/// Columns (`y` operands) of a [`dot_tile`] block.
pub(crate) const TILE_C: usize = 2;
/// Rows of `op(A)` packed per task block; multiple of `MR`.
const MC: usize = 64;
/// Depth (k) packed per cache block.
const KC: usize = 256;
/// Columns of `op(B)` packed per cache block.
const NC: usize = 2048;
/// Below this many multiply-adds, packing costs more than it saves.
const SMALL_FLOPS: usize = 256 * 1024;
/// Minimum multiply-adds before a parallel dispatch is worth it.
const PAR_FLOPS: usize = 128 * 1024;
/// Column-block edge for the small-size SYRK path.
const SYRK_BLOCK: usize = 64;
/// Above this many multiply-adds a SYRK routes through the packed
/// microkernel (below it, the unpacked block-pair loop wins).
const SYRK_PACK_FLOPS: usize = 512 * 1024;

static REFERENCE: AtomicBool = AtomicBool::new(false);

/// Routes `Matrix` products, Gramians and Cholesky/SPD-inverse through the
/// pre-optimization serial kernels (`true`) or the packed pooled kernels
/// (`false`, the default). For benchmarking and parity testing only.
pub fn set_reference_kernels(on: bool) {
    REFERENCE.store(on, Ordering::SeqCst);
}

/// `true` while [`set_reference_kernels`] has selected the serial seed
/// kernels.
pub fn reference_kernels() -> bool {
    REFERENCE.load(Ordering::SeqCst)
}

/// The seed GEMM: serial cache-blocked i-k-j loop over row-major storage.
///
/// Kept callable as the comparison baseline for `bench_kernels` and the
/// parity proptests.
pub fn matmul_reference(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    const BLOCK: usize = 64;
    let mut out = vec![0.0; m * n];
    for ib in (0..m).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let ke = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let je = (jb + BLOCK).min(n);
                for i in ib..ie {
                    for kk in kb..ke {
                        let av = a[i * k + kk];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n + jb..kk * n + je];
                        let orow = &mut out[i * n + jb..i * n + je];
                        for (o, &r) in orow.iter_mut().zip(brow.iter()) {
                            *o += av * r;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The seed Gramian: serial upper-triangle `XᵀX` accumulation. Comparison
/// baseline for `bench_kernels` and the parity proptests.
pub fn gramian_reference(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; d * d];
    for s in 0..rows {
        let row = &x[s * d..(s + 1) * d];
        for i in 0..d {
            let v = row[i];
            if v == 0.0 {
                continue;
            }
            let orow = &mut out[i * d + i..(i + 1) * d];
            for (o, &r) in orow.iter_mut().zip(row[i..].iter()) {
                *o += v * r;
            }
        }
    }
    for i in 0..d {
        for j in (i + 1)..d {
            out[j * d + i] = out[i * d + j];
        }
    }
    out
}

/// `C = op(A) · op(B)` into a fresh row-major `m × n` buffer.
///
/// `trans_a == false` reads `a` as row-major `m × k`; `true` reads it as
/// row-major `k × m` (i.e. computes `AᵀB` without materializing `Aᵀ`).
/// Likewise `trans_b` for `b` (`false`: `k × n`; `true`: `n × k`).
pub(crate) fn gemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    if m * n * k <= SMALL_FLOPS {
        gemm_small(trans_a, trans_b, m, k, n, a, b, &mut out);
        return out;
    }
    let shared = SharedSlice::new(&mut out);
    let row_blocks = m.div_ceil(MC);
    let parallel = pool::is_parallel() && row_blocks > 1 && m * n * k >= PAR_FLOPS;
    for jc in (0..n).step_by(NC) {
        let nc = (jc + NC).min(n) - jc;
        let n_panels = nc.div_ceil(NR);
        let mut bpack = vec![0.0; KC * n_panels * NR];
        for kb in (0..k).step_by(KC) {
            let kc = (kb + KC).min(k) - kb;
            pack_b(trans_b, b, k, n, kb, kc, jc, nc, &mut bpack);
            let body = |blk: usize| {
                let i0 = blk * MC;
                let mc = (i0 + MC).min(m) - i0;
                let mut apack = vec![0.0; KC * MC];
                pack_a(trans_a, a, m, k, i0, mc, kb, kc, &mut apack);
                // SAFETY: each task owns row range [i0, i0 + mc).
                let c = unsafe { shared.slice_mut(i0 * n..(i0 + mc) * n) };
                block_multiply(&apack, &bpack, mc, kc, nc, jc, n, c, 0);
            };
            if parallel {
                pool::parallel_for(row_blocks, body);
            } else {
                for blk in 0..row_blocks {
                    body(blk);
                }
            }
        }
    }
    out
}

/// Unpacked triple-loop for small products (still transpose-free).
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let at = |i: usize, p: usize| {
        if trans_a {
            a[p * m + i]
        } else {
            a[i * k + p]
        }
    };
    match (trans_a, trans_b) {
        (_, false) => {
            // k-major accumulation over contiguous B rows.
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                for p in 0..k {
                    let av = at(i, p);
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    axpy(av, brow, orow);
                }
            }
        }
        (false, true) => {
            // Row-dot-row: both operands contiguous along k.
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &b[j * k..(j + 1) * k];
                    out[i * n + j] = dot(arow, brow);
                }
            }
        }
        (true, true) => {
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += a[p * m + i] * b[j * k + p];
                    }
                    out[i * n + j] = s;
                }
            }
        }
    }
}

/// Pipelined dot product: AVX2+FMA when the CPU has it, otherwise four
/// independent scalar partial accumulators.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: AVX2+FMA presence checked above; lengths equal.
        return unsafe { simd::dot(x, y) };
    }
    dot_generic(x, y)
}

/// Portable dot product (four independent partial accumulators).
#[inline]
fn dot_generic(x: &[f64], y: &[f64]) -> f64 {
    // Four independent partial sums so the accumulation chain pipelines.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xi = &x[c * 4..c * 4 + 4];
        let yi = &y[c * 4..c * 4 + 4];
        for l in 0..4 {
            acc[l] += xi[l] * yi[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y += alpha * x`: AVX2+FMA when available, portable loop otherwise.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: AVX2+FMA presence checked above; lengths equal.
        unsafe { simd::axpy(alpha, x, y) };
        return;
    }
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// Register-tiled block of dot products over shared prefixes:
/// `out[r][c] = x[r] · y[c]`, every slice of length `k`.
///
/// Each entry has its own 4-lane accumulator (lane `p % 4` takes term `p`)
/// reduced as `(l0 + l1) + (l2 + l3)`, so an entry's value depends only on
/// its two operands — never on which other rows share the tile. Callers
/// may therefore pad a short tile with repeated rows and discard the
/// duplicates. AVX2+FMA when the CPU has it, portable otherwise.
#[inline]
pub(crate) fn dot_tile(
    k: usize,
    x: [&[f64]; TILE_R],
    y: [&[f64]; TILE_C],
) -> [[f64; TILE_C]; TILE_R] {
    assert!(
        x.iter().chain(y.iter()).all(|s| s.len() == k),
        "dot_tile: operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: AVX2+FMA presence checked above; lengths checked above.
        return unsafe { simd::dot_tile(k, x, y) };
    }
    dot_tile_generic(k, x, y)
}

/// Portable [`dot_tile`] with the same lane assignment and reduction order.
fn dot_tile_generic(k: usize, x: [&[f64]; TILE_R], y: [&[f64]; TILE_C]) -> [[f64; TILE_C]; TILE_R] {
    let mut acc = [[[0.0f64; 4]; TILE_C]; TILE_R];
    for p in 0..k {
        for (ar, xr) in acc.iter_mut().zip(x.iter()) {
            for (a, yc) in ar.iter_mut().zip(y.iter()) {
                a[p % 4] += xr[p] * yc[p];
            }
        }
    }
    acc.map(|ar| ar.map(|l| (l[0] + l[1]) + (l[2] + l[3])))
}

/// Packs `mc` rows × `kc` depth of `op(A)` into `MR`-row panels,
/// zero-padding the row remainder.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    trans_a: bool,
    a: &[f64],
    m: usize,
    k: usize,
    i0: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    apack: &mut [f64],
) {
    let _ = m;
    for (panel, ir) in (0..mc).step_by(MR).enumerate() {
        let rows = (ir + MR).min(mc) - ir;
        let dst = &mut apack[panel * KC * MR..];
        for p in 0..kc {
            let d = &mut dst[p * MR..p * MR + MR];
            if trans_a {
                // op(A)(i, p) = a[(kb + p) * m + i]  (contiguous in i).
                let src = &a[(kb + p) * m + i0 + ir..];
                d[..rows].copy_from_slice(&src[..rows]);
            } else {
                for (r, dv) in d.iter_mut().enumerate().take(rows) {
                    *dv = a[(i0 + ir + r) * k + kb + p];
                }
            }
            for dv in d.iter_mut().skip(rows) {
                *dv = 0.0;
            }
        }
    }
}

/// Packs `kc` depth × `nc` cols of `op(B)` into `NR`-col panels,
/// zero-padding the column remainder.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    trans_b: bool,
    b: &[f64],
    k: usize,
    n: usize,
    kb: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bpack: &mut [f64],
) {
    let _ = n;
    for (panel, jr) in (0..nc).step_by(NR).enumerate() {
        let cols = (jr + NR).min(nc) - jr;
        let dst = &mut bpack[panel * KC * NR..];
        for p in 0..kc {
            let d = &mut dst[p * NR..p * NR + NR];
            if trans_b {
                // op(B)(p, j) = b[(jc + j) * k + kb + p].
                for (c, dv) in d.iter_mut().enumerate().take(cols) {
                    *dv = b[(jc + jr + c) * k + kb + p];
                }
            } else {
                let ldb = n;
                let src = &b[(kb + p) * ldb + jc + jr..];
                d[..cols].copy_from_slice(&src[..cols]);
            }
            for dv in d.iter_mut().skip(cols) {
                *dv = 0.0;
            }
        }
    }
}

/// Multiplies one packed `mc × kc` A block against the packed `kc × nc` B
/// block, accumulating into the caller's row slice of C (`mc` full rows,
/// leading dimension `ldc`, starting at column `jc`). `jr0` (`NR`-aligned)
/// skips B panels left of it — the SYRK kernels use this to compute only
/// the upper-triangle column range of each row block.
#[allow(clippy::too_many_arguments)]
fn block_multiply(
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    kc: usize,
    nc: usize,
    jc: usize,
    ldc: usize,
    c: &mut [f64],
    jr0: usize,
) {
    debug_assert_eq!(jr0 % NR, 0);
    for jr in (jr0..nc).step_by(NR) {
        let bp = jr / NR;
        let cols = (jr + NR).min(nc) - jr;
        let bpanel = &bpack[bp * KC * NR..bp * KC * NR + kc * NR];
        for (ap, ir) in (0..mc).step_by(MR).enumerate() {
            let rows = (ir + MR).min(mc) - ir;
            let apanel = &apack[ap * KC * MR..ap * KC * MR + kc * MR];
            let mut acc = [[0.0f64; NR]; MR];
            microkernel(kc, apanel, bpanel, &mut acc);
            for r in 0..rows {
                let crow = &mut c[(ir + r) * ldc + jc + jr..(ir + r) * ldc + jc + jr + cols];
                for (cv, av) in crow.iter_mut().zip(acc[r].iter()) {
                    *cv += av;
                }
            }
        }
    }
}

/// Register-tiled `MR × NR` rank-`kc` update: AVX2+FMA path when the CPU
/// has it, portable fixed-size-array path otherwise.
#[inline]
fn microkernel(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [[f64; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if simd::available() {
        // SAFETY: AVX2+FMA presence checked above; panel sizes are
        // guaranteed by the packing layout (kc*MR / kc*NR elements).
        unsafe { simd::microkernel(kc, apanel, bpanel, acc) };
        return;
    }
    microkernel_generic(kc, apanel, bpanel, acc)
}

/// Portable microkernel; the fixed-size accumulator array keeps the inner
/// loop fully unrolled and autovectorized.
#[inline(always)]
fn microkernel_generic(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for p in 0..kc {
        let av: &[f64; MR] = apanel[p * MR..p * MR + MR].try_into().expect("MR panel");
        let bv: &[f64; NR] = bpanel[p * NR..p * NR + NR].try_into().expect("NR panel");
        for r in 0..MR {
            let ar = av[r];
            for cc in 0..NR {
                acc[r][cc] += ar * bv[cc];
            }
        }
    }
}

/// Packed-microkernel SYRK: `C = XᵀX` (`nt == false`, `n = d`) or
/// `C = XXᵀ` (`nt == true`, `n = rows`) over the same panel machinery as
/// [`gemm`], visiting only the B panels at or right of each row block's
/// diagonal (≈ half the FLOPs) and mirroring the result. Bit-identical
/// for any thread count: each row block is owned by one task and k blocks
/// stay sequential.
fn syrk_packed(nt: bool, rows: usize, d: usize, x: &[f64], out: &mut [f64]) {
    let (n, k) = if nt { (rows, d) } else { (d, rows) };
    let (ta, tb) = if nt { (false, true) } else { (true, false) };
    let row_blocks = n.div_ceil(MC);
    let parallel = pool::is_parallel() && row_blocks > 1 && n * n * k / 2 >= PAR_FLOPS;
    let shared = SharedSlice::new(out);
    for jc in (0..n).step_by(NC) {
        let nc = (jc + NC).min(n) - jc;
        let n_panels = nc.div_ceil(NR);
        let mut bpack = vec![0.0; KC * n_panels * NR];
        for kb in (0..k).step_by(KC) {
            let kc = (kb + KC).min(k) - kb;
            pack_b(tb, x, k, n, kb, kc, jc, nc, &mut bpack);
            let body = |blk: usize| {
                let i0 = blk * MC;
                // Upper triangle: this row block only needs columns
                // j ≥ i0, rounded down to the owning NR panel. (`jc` is a
                // multiple of NC, itself a multiple of NR, so the local
                // offset stays panel-aligned.)
                let j_lo = (i0 / NR) * NR;
                if j_lo >= jc + nc {
                    return;
                }
                let jr0 = j_lo.saturating_sub(jc);
                let mc = (i0 + MC).min(n) - i0;
                let mut apack = vec![0.0; KC * MC];
                pack_a(ta, x, n, k, i0, mc, kb, kc, &mut apack);
                // SAFETY: each task owns row range [i0, i0 + mc).
                let c = unsafe { shared.slice_mut(i0 * n..(i0 + mc) * n) };
                block_multiply(&apack, &bpack, mc, kc, nc, jc, n, c, jr0);
            };
            if parallel {
                pool::parallel_for(row_blocks, body);
            } else {
                for blk in 0..row_blocks {
                    body(blk);
                }
            }
        }
    }
    mirror_upper(out, n);
}

/// Symmetric rank-k product `XᵀX` (`x` row-major `rows × d`) into a fresh
/// `d × d` buffer, computing the upper triangle block-wise (half the FLOPs
/// of the equivalent GEMM) and mirroring it.
pub(crate) fn syrk_tn(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; d * d];
    if rows == 0 || d == 0 {
        return out;
    }
    if rows * d * d / 2 > SYRK_PACK_FLOPS {
        syrk_packed(false, rows, d, x, &mut out);
        return out;
    }
    let nb = d.div_ceil(SYRK_BLOCK);
    // Upper-triangle block pairs (bi ≤ bj), each owned by exactly one task.
    let pairs: Vec<(usize, usize)> = (0..nb)
        .flat_map(|bi| (bi..nb).map(move |bj| (bi, bj)))
        .collect();
    let shared = SharedSlice::new(&mut out);
    let work = rows * d * d / 2;
    let body = |t: usize| {
        let (bi, bj) = pairs[t];
        let i0 = bi * SYRK_BLOCK;
        let i1 = (i0 + SYRK_BLOCK).min(d);
        let j0 = bj * SYRK_BLOCK;
        let j1 = (j0 + SYRK_BLOCK).min(d);
        // SAFETY: block (bi, bj) rows i0..i1 columns j0..j1 are written by
        // this task only (distinct pairs → disjoint index sets).
        let c = unsafe { shared.slice_mut(0..d * d) };
        for s in 0..rows {
            let row = &x[s * d..(s + 1) * d];
            for i in i0..i1 {
                let v = row[i];
                if v == 0.0 {
                    continue;
                }
                let lo = j0.max(i);
                let crow = &mut c[i * d + lo..i * d + j1];
                axpy(v, &row[lo..j1], crow);
            }
        }
    };
    if pool::is_parallel() && pairs.len() > 1 && work >= PAR_FLOPS {
        pool::parallel_for(pairs.len(), body);
    } else {
        for t in 0..pairs.len() {
            body(t);
        }
    }
    mirror_upper(&mut out, d);
    out
}

/// Symmetric rank-k product `XXᵀ` (`x` row-major `rows × d`) into a fresh
/// `rows × rows` buffer: upper triangle of row-dot-row products, mirrored.
pub(crate) fn syrk_nt(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
    let n = rows;
    let mut out = vec![0.0; n * n];
    if n == 0 || d == 0 {
        return out;
    }
    if n * n * d / 2 > SYRK_PACK_FLOPS {
        syrk_packed(true, rows, d, x, &mut out);
        return out;
    }
    let nb = n.div_ceil(SYRK_BLOCK);
    let pairs: Vec<(usize, usize)> = (0..nb)
        .flat_map(|bi| (bi..nb).map(move |bj| (bi, bj)))
        .collect();
    let shared = SharedSlice::new(&mut out);
    let work = n * n * d / 2;
    let body = |t: usize| {
        let (bi, bj) = pairs[t];
        let i0 = bi * SYRK_BLOCK;
        let i1 = (i0 + SYRK_BLOCK).min(n);
        let j0 = bj * SYRK_BLOCK;
        let j1 = (j0 + SYRK_BLOCK).min(n);
        // SAFETY: see `syrk_tn` — disjoint upper-triangle blocks per task.
        let c = unsafe { shared.slice_mut(0..n * n) };
        for i in i0..i1 {
            let xi = &x[i * d..(i + 1) * d];
            for j in j0.max(i)..j1 {
                let xj = &x[j * d..(j + 1) * d];
                c[i * n + j] = dot(xi, xj);
            }
        }
    };
    if pool::is_parallel() && pairs.len() > 1 && work >= PAR_FLOPS {
        pool::parallel_for(pairs.len(), body);
    } else {
        for t in 0..pairs.len() {
            body(t);
        }
    }
    mirror_upper(&mut out, n);
    out
}

/// Copies the strictly-upper triangle of a square `d × d` buffer into the
/// lower one, in square blocks so the column-strided writes stay in cache.
pub(crate) fn mirror_upper(out: &mut [f64], d: usize) {
    const B: usize = 16;
    for i0 in (0..d).step_by(B) {
        for j0 in (i0..d).step_by(B) {
            for i in i0..(i0 + B).min(d) {
                for j in (j0.max(i + 1))..(j0 + B).min(d) {
                    out[j * d + i] = out[i * d + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * scale)
            .collect()
    }

    fn naive(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    s += av * bv;
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn gemm_matches_naive_all_transposes_and_edges() {
        // Shapes straddling MR/NR/MC/KC boundaries, including remainders.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 11),
            (63, 65, 66),
            (64, 256, 64),
            (65, 257, 67),
            (130, 40, 90),
        ] {
            let a_n = seq(m * k, 0.01);
            let a_t = seq(k * m, 0.01);
            let b_n = seq(k * n, 0.02);
            let b_t = seq(n * k, 0.02);
            for &(ta, tb) in &[(false, false), (false, true), (true, false), (true, true)] {
                let a = if ta { &a_t } else { &a_n };
                let b = if tb { &b_t } else { &b_n };
                let got = gemm(ta, tb, m, k, n, a, b);
                let want = naive(ta, tb, m, k, n, a, b);
                assert!(
                    max_diff(&got, &want) < 1e-10,
                    "mismatch at {m}x{k}x{n} ta={ta} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn syrk_tn_matches_gemm() {
        for &(rows, d) in &[
            (1usize, 1usize),
            (7, 5),
            (33, 64),
            (50, 65),
            (129, 100),
            (40, 200),
            (300, 130),
        ] {
            let x = seq(rows * d, 0.01);
            let got = syrk_tn(rows, d, &x);
            let want = naive(true, false, d, rows, d, &x, &x);
            assert!(max_diff(&got, &want) < 1e-10, "syrk_tn {rows}x{d}");
            for i in 0..d {
                for j in 0..d {
                    assert_eq!(got[i * d + j], got[j * d + i]);
                }
            }
        }
    }

    #[test]
    fn syrk_nt_matches_gemm() {
        for &(rows, d) in &[
            (1usize, 1usize),
            (5, 7),
            (65, 33),
            (100, 129),
            (200, 40),
            (130, 300),
        ] {
            let x = seq(rows * d, 0.01);
            let got = syrk_nt(rows, d, &x);
            let want = naive(false, true, rows, d, rows, &x, &x);
            assert!(max_diff(&got, &want) < 1e-10, "syrk_nt {rows}x{d}");
        }
    }

    #[test]
    fn reference_kernels_match_packed() {
        let (m, k, n) = (37, 53, 29);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let packed = gemm(false, false, m, k, n, &a, &b);
        let reference = matmul_reference(m, k, n, &a, &b);
        assert!(max_diff(&packed, &reference) < 1e-11);

        let x = seq(41 * 23, 0.01);
        assert!(max_diff(&syrk_tn(41, 23, &x), &gramian_reference(41, 23, &x)) < 1e-11);
    }

    #[test]
    fn dot_tile_matches_dot_per_entry() {
        let rows: Vec<Vec<f64>> = (0..6).map(|r| seq(37, 0.01 * (r + 1) as f64)).collect();
        for k in 0..=37 {
            let x = std::array::from_fn(|r| &rows[r][..k]);
            let y = std::array::from_fn(|c| &rows[TILE_R + c][..k]);
            let got = dot_tile(k, x, y);
            let portable = dot_tile_generic(k, x, y);
            for r in 0..TILE_R {
                for c in 0..TILE_C {
                    let want: f64 = x[r].iter().zip(y[c]).map(|(a, b)| a * b).sum();
                    assert!((got[r][c] - want).abs() < 1e-12, "k={k} ({r},{c})");
                    assert!((portable[r][c] - want).abs() < 1e-12, "portable k={k}");
                }
            }
            // An entry's value does not depend on its tile neighbours.
            let dup = dot_tile(k, [x[1]; TILE_R], [y[0]; TILE_C]);
            assert_eq!(dup[3][1].to_bits(), got[1][0].to_bits(), "k={k}");
        }
    }

    #[test]
    fn reference_mode_toggle() {
        assert!(!reference_kernels());
        set_reference_kernels(true);
        assert!(reference_kernels());
        set_reference_kernels(false);
        assert!(!reference_kernels());
    }
}
