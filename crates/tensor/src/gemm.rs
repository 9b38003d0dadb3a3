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
//! The packed kernels pick one microkernel per process ([`Kernel`]): an
//! AVX-512F `8 × 16` tile, an AVX2+FMA `4 × 8` tile, or the portable `4 × 8`
//! fallback that compiles on every architecture. The packing routines take
//! their panel shape from the selected tile. Every C element is the same
//! chain of fused multiply-adds from zero over one KC block, added into C
//! block by block, so the two SIMD tiles give bit-identical results. `dot`,
//! `axpy` and `dot_tile` dispatch to AVX2+FMA versions on their own.
//!
//! Packing buffers are per-thread and reused across calls: at most one
//! `KC × NC` B block and one `KC × MC` A block per thread.
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
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Runtime-dispatched SIMD inner loops. The crate is compiled for baseline
/// x86-64 (SSE2), so the hot loops here are duplicated behind
/// `#[target_feature]` and selected once at runtime; every other
/// architecture (and pre-AVX2 hardware) falls back to the portable kernels
/// below.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{TILE_C, TILE_R};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// One-time CPUID probe for the AVX2+FMA fast path.
    pub fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// One-time CPUID probe for the AVX-512F microkernel.
    pub fn avx512_available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }

    /// `4 × 8` rank-`kc` update on packed panels: 8 × 256-bit FMA
    /// accumulators (4 rows × 2 vectors of 4 doubles).
    ///
    /// # Safety
    /// Caller must have verified [`available`]; panels must hold at least
    /// `kc * 4` / `kc * 8` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_avx2(
        kc: usize,
        apanel: &[f64],
        bpanel: &[f64],
        acc: &mut [[f64; 8]; 4],
    ) {
        debug_assert!(apanel.len() >= kc * 4 && bpanel.len() >= kc * 8);
        unsafe {
            let ap = apanel.as_ptr();
            let bp = bpanel.as_ptr();
            let mut c = [[_mm256_setzero_pd(); 2]; 4];
            for p in 0..kc {
                let b0 = _mm256_loadu_pd(bp.add(p * 8));
                let b1 = _mm256_loadu_pd(bp.add(p * 8 + 4));
                for (r, cr) in c.iter_mut().enumerate() {
                    let a = _mm256_set1_pd(*ap.add(p * 4 + r));
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

    /// `8 × 16` rank-`kc` update on packed panels: 16 × 512-bit FMA
    /// accumulators (8 rows × 2 vectors of 8 doubles). Each accumulator
    /// lane runs the same FMA chain as [`microkernel_avx2`], so the two
    /// produce identical bits for every C element.
    ///
    /// # Safety
    /// Caller must have verified [`avx512_available`]; panels must hold at
    /// least `kc * 8` / `kc * 16` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel_avx512(
        kc: usize,
        apanel: &[f64],
        bpanel: &[f64],
        acc: &mut [[f64; 16]; 8],
    ) {
        debug_assert!(apanel.len() >= kc * 8 && bpanel.len() >= kc * 16);
        unsafe {
            let ap = apanel.as_ptr();
            let bp = bpanel.as_ptr();
            let mut c = [[_mm512_setzero_pd(); 2]; 8];
            for p in 0..kc {
                let b0 = _mm512_loadu_pd(bp.add(p * 16));
                let b1 = _mm512_loadu_pd(bp.add(p * 16 + 8));
                for (r, cr) in c.iter_mut().enumerate() {
                    let a = _mm512_set1_pd(*ap.add(p * 8 + r));
                    cr[0] = _mm512_fmadd_pd(a, b0, cr[0]);
                    cr[1] = _mm512_fmadd_pd(a, b1, cr[1]);
                }
            }
            for (dst, cr) in acc.iter_mut().zip(c.iter()) {
                _mm512_storeu_pd(dst.as_mut_ptr(), cr[0]);
                _mm512_storeu_pd(dst.as_mut_ptr().add(8), cr[1]);
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

/// Rows (`x` operands) of a [`dot_tile`] block.
pub(crate) const TILE_R: usize = 4;
/// Columns (`y` operands) of a [`dot_tile`] block.
pub(crate) const TILE_C: usize = 2;
/// Rows of `op(A)` packed per task block; multiple of every tile height.
const MC: usize = 64;
/// Depth (k) packed per cache block.
const KC: usize = 256;
/// Columns of `op(B)` packed per cache block; multiple of every tile width.
const NC: usize = 2048;
/// At or below this many multiply-adds a GEMM takes the unpacked loop.
/// The packed 8 × 16 tile is faster at every size measured (about 3× at
/// 48³, still 2× at 8 × 27 × 27); the cut sits just above 48³ so that
/// small products keep the unpacked loop's rounding (DESIGN.md, `gemm`).
const SMALL_FLOPS: usize = 128 * 1024;
/// Minimum multiply-adds before a parallel dispatch is worth it.
const PAR_FLOPS: usize = 128 * 1024;
/// Column-block edge for the small-size SYRK path.
const SYRK_BLOCK: usize = 64;
/// Above this many multiply-adds a SYRK routes through the packed
/// microkernel, which beats the block-pair loop at every size measured
/// (3–4× at d = 48–64, 3× for a 2048 × 16 batch). The cut keeps
/// products of up to 2¹⁶ multiply-adds on the block-pair loop's rounding
/// (DESIGN.md, `gemm`).
const SYRK_PACK_FLOPS: usize = 64 * 1024;

/// A register-tile microkernel: writes the `MR × NR` block
/// `acc[r][c] = Σ_p apanel[p·MR + r] · bpanel[p·NR + c]` over `kc` packed
/// steps, each entry a chain of multiply-adds from zero in `p` order.
///
/// # Safety
/// The CPU must have the kernel's target features (see [`Kernel`]) and the
/// panels must hold at least `kc · MR` / `kc · NR` elements.
type Micro<const MR: usize, const NR: usize> =
    unsafe fn(usize, &[f64], &[f64], &mut [[f64; NR]; MR]);

/// The microkernel family the packed GEMM/SYRK run on, probed once per
/// process by [`Kernel::detect`].
///
/// | kernel   | tile    | accumulators      | needs         |
/// |----------|---------|-------------------|---------------|
/// | `Avx512` | 8 × 16  | 16 × 512-bit FMA  | `avx512f`     |
/// | `Avx2`   | 4 × 8   | 8 × 256-bit FMA   | `avx2`, `fma` |
/// | portable | 4 × 8   | autovectorized    | —             |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

impl Kernel {
    /// The widest kernel this CPU runs.
    fn detect() -> Kernel {
        static KERNEL: OnceLock<Kernel> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if simd::avx512_available() {
                    return Kernel::Avx512;
                }
                if simd::available() {
                    return Kernel::Avx2;
                }
            }
            Kernel::Portable
        })
    }
}

/// Evaluates `$body` with `$mk` bound to `$kernel`'s microkernel, so the
/// generic packed code is instantiated once per tile shape. Asserts the
/// CPU features each SIMD kernel's safety contract needs.
macro_rules! dispatch {
    ($kernel:expr, $mk:ident => $body:expr) => {
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                assert!(
                    simd::avx512_available(),
                    "AVX-512F kernel on a CPU without it"
                );
                let $mk: Micro<8, 16> = simd::microkernel_avx512;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                assert!(simd::available(), "AVX2 kernel on a CPU without AVX2+FMA");
                let $mk: Micro<4, 8> = simd::microkernel_avx2;
                $body
            }
            Kernel::Portable => {
                let $mk: Micro<4, 8> = microkernel_generic;
                $body
            }
        }
    };
}

thread_local! {
    /// This thread's packed `op(A)` block (at most `KC × MC` elements).
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// This thread's packed `op(B)` block (at most `KC × NC` elements).
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the first `len` elements of this thread's packing buffer
/// `cell`, growing it on first use. Its contents are stale: the packing
/// routines overwrite every element the microkernel reads. A nested call
/// that finds the buffer in use gets a fresh one instead.
fn with_pack<R>(
    cell: &'static LocalKey<RefCell<Vec<f64>>>,
    len: usize,
    f: impl FnOnce(&mut [f64]) -> R,
) -> R {
    cell.with(|c| match c.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

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
    gemm_into(trans_a, trans_b, m, k, n, a, b, &mut out);
    out
}

/// As [`gemm`], overwriting the caller's `m × n` buffer `out` (whatever it
/// held) instead of allocating one. Bit-identical to [`gemm`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len(), m * n, "gemm_into: output is not m × n");
    // Any empty dimension lands here too.
    if m * n * k <= SMALL_FLOPS {
        out.fill(0.0);
        gemm_small(trans_a, trans_b, m, k, n, a, b, out);
        return;
    }
    gemm_packed(Kernel::detect(), trans_a, trans_b, m, k, n, a, b, out);
}

/// [`packed`] on `kernel`'s microkernel: `out = op(A) · op(B)`.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    kernel: Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    // SAFETY: `dispatch!` asserted `mk`'s CPU features.
    dispatch!(kernel, mk => unsafe { packed(mk, trans_a, trans_b, m, k, n, a, b, out, false) });
}

/// The packed driver behind [`gemm_into`] and the SYRKs: writes
/// `op(A) · op(B)` into the row-major `m × n` buffer `out` (whatever it
/// held) with the `MR × NR` microkernel `mk`, packing each `KC`-deep slice
/// of `op(B)` once per `NC` columns and each `MC`-row block of `op(A)` per
/// task. `k` must be nonzero.
///
/// With `upper` set (square outputs only) each row block skips the B
/// panels left of its diagonal: the upper triangle comes out exact and the
/// lower one is garbage for the caller to overwrite. Each row block is
/// owned by one task and k blocks stay sequential, so the result is
/// bit-identical for any thread count.
///
/// # Safety
/// The CPU must have `mk`'s target features (see [`Micro`]).
#[allow(clippy::too_many_arguments)]
unsafe fn packed<const MR: usize, const NR: usize>(
    mk: Micro<MR, NR>,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    upper: bool,
) {
    let row_blocks = m.div_ceil(MC);
    let work = if upper { m * n * k / 2 } else { m * n * k };
    let parallel = pool::is_parallel() && row_blocks > 1 && work >= PAR_FLOPS;
    let shared = SharedSlice::new(out);
    for jc in (0..n).step_by(NC) {
        let nc = (jc + NC).min(n) - jc;
        with_pack(&PACK_B, KC * nc.div_ceil(NR) * NR, |bpack| {
            for kb in (0..k).step_by(KC) {
                let kc = (kb + KC).min(k) - kb;
                // op(B)(p, j) is b[j·k + p] transposed, else b[p·n + j].
                let (off, ld) = if trans_b {
                    (jc * k + kb, k)
                } else {
                    (kb * n + jc, n)
                };
                pack::<NR>(&b[off..], ld, trans_b, nc, kc, bpack);
                let bpack = &*bpack;
                let body = |blk: usize| {
                    let i0 = blk * MC;
                    // Upper triangle: this row block only needs columns
                    // j ≥ i0, rounded down to the owning NR panel. (`jc` is
                    // a multiple of NC, itself a multiple of NR, so the
                    // local offset stays panel-aligned.)
                    let j_lo = if upper { (i0 / NR) * NR } else { 0 };
                    if j_lo >= jc + nc {
                        return;
                    }
                    let jr0 = j_lo.saturating_sub(jc);
                    let mc = (i0 + MC).min(m) - i0;
                    with_pack(&PACK_A, KC * MC, |apack| {
                        // op(A)(i, p) is a[p·m + i] transposed, else a[i·k + p].
                        let (off, ld) = if trans_a {
                            (kb * m + i0, m)
                        } else {
                            (i0 * k + kb, k)
                        };
                        pack::<MR>(&a[off..], ld, !trans_a, mc, kc, apack);
                        // SAFETY: each task owns row range [i0, i0 + mc).
                        let c = unsafe { shared.slice_mut(i0 * n..(i0 + mc) * n) };
                        // SAFETY: `mk`'s CPU features are this function's
                        // precondition.
                        unsafe {
                            block_multiply(mk, apack, bpack, mc, kc, nc, jc, n, c, jr0, kb == 0)
                        };
                    });
                };
                if parallel {
                    pool::parallel_for(row_blocks, body);
                } else {
                    for blk in 0..row_blocks {
                        body(blk);
                    }
                }
            }
        });
    }
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
        (_, false) if n < 4 => {
            // Narrower than one vector (matrix–vector products): `axpy`
            // would run only its scalar tail. The same per-entry sum in the
            // same order, for R rows at once so the add chains overlap.
            // Adding +0.0 for a zero `a` entry matches skipping it: the sum
            // starts at +0.0 and so is never −0.0.
            const R: usize = 8;
            for i0 in (0..m).step_by(R) {
                let rows = (i0 + R).min(m) - i0;
                // Row r of op(A) along p is `a[lane[r] + p · step]`; lanes
                // past `rows` repeat the last row and are discarded.
                let (step, lane): (usize, [usize; R]) = if trans_a {
                    (m, std::array::from_fn(|r| i0 + r.min(rows - 1)))
                } else {
                    (1, std::array::from_fn(|r| (i0 + r.min(rows - 1)) * k))
                };
                for j in 0..n {
                    let mut acc = [0.0f64; R];
                    for p in 0..k {
                        let bv = b[p * n + j];
                        for (s, &l) in acc.iter_mut().zip(&lane) {
                            let av = a[l + p * step];
                            *s += if av != 0.0 { av * bv } else { 0.0 };
                        }
                    }
                    for (r, &s) in acc.iter().enumerate().take(rows) {
                        out[(i0 + r) * n + j] = s;
                    }
                }
            }
        }
        (_, false) => {
            // k-major accumulation over contiguous B rows.
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                for p in 0..k {
                    let av = at(i, p);
                    if av == 0.0 {
                        continue;
                    }
                    axpy(av, &b[p * n..(p + 1) * n], orow);
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

/// Packs `len` lanes × `kc` steps of a row-major operand into `W`-lane
/// panels (panel stride `KC · W`, step-major inside a panel), zero-padding
/// the last panel's missing lanes. Element (step `p`, lane `l`) is
/// `src[l · ld + p]` when `lane_major`, else `src[p · ld + l]`; `src`
/// starts at element (0, 0). Rows of `op(A)` and columns of `op(B)` are the
/// lanes of the A and B panels.
fn pack<const W: usize>(
    src: &[f64],
    ld: usize,
    lane_major: bool,
    len: usize,
    kc: usize,
    out: &mut [f64],
) {
    for (panel, l0) in (0..len).step_by(W).enumerate() {
        let lanes = (l0 + W).min(len) - l0;
        let dst = &mut out[panel * KC * W..panel * KC * W + kc * W];
        if lane_major {
            // One contiguous source run per lane, scattered at stride W.
            for l in 0..W {
                if l < lanes {
                    let run = &src[(l0 + l) * ld..][..kc];
                    for (d, &v) in dst.chunks_exact_mut(W).zip(run) {
                        d[l] = v;
                    }
                } else {
                    for d in dst.chunks_exact_mut(W) {
                        d[l] = 0.0;
                    }
                }
            }
        } else {
            // One contiguous source run per step.
            for (p, d) in dst.chunks_exact_mut(W).enumerate() {
                d[..lanes].copy_from_slice(&src[p * ld + l0..][..lanes]);
                d[lanes..].fill(0.0);
            }
        }
    }
}

/// Multiplies one packed `mc × kc` A block against the packed `kc × nc` B
/// block, accumulating into the caller's row slice of C (`mc` full rows,
/// leading dimension `ldc`, starting at column `jc`). `jr0` (`NR`-aligned)
/// skips B panels left of it — the SYRK kernels use this to compute only
/// the upper-triangle column range of each row block. The `first` k block
/// writes `0.0 + acc`, which is what accumulating into a zeroed C gives
/// (a −0.0 sum included), so C needs no clearing beforehand.
///
/// # Safety
/// The CPU must have `mk`'s target features (see [`Micro`]).
#[allow(clippy::too_many_arguments)]
unsafe fn block_multiply<const MR: usize, const NR: usize>(
    mk: Micro<MR, NR>,
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    kc: usize,
    nc: usize,
    jc: usize,
    ldc: usize,
    c: &mut [f64],
    jr0: usize,
    first: bool,
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
            // SAFETY: `mk`'s CPU features are this function's
            // precondition; the panels were sliced to exactly kc·MR / kc·NR
            // elements above.
            unsafe { mk(kc, apanel, bpanel, &mut acc) };
            for r in 0..rows {
                let crow = &mut c[(ir + r) * ldc + jc + jr..(ir + r) * ldc + jc + jr + cols];
                for (cv, av) in crow.iter_mut().zip(acc[r].iter()) {
                    *cv = if first { 0.0 } else { *cv } + av;
                }
            }
        }
    }
}

/// Portable microkernel (see [`Micro`]); the fixed-size accumulator array
/// keeps the inner loop fully unrolled and autovectorized.
fn microkernel_generic<const MR: usize, const NR: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    *acc = [[0.0; NR]; MR];
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
/// `C = XXᵀ` (`nt == true`, `n = rows`) through [`packed`]'s upper-triangle
/// mode (≈ half the FLOPs), mirrored.
fn syrk_packed(kernel: Kernel, nt: bool, rows: usize, d: usize, x: &[f64], out: &mut [f64]) {
    let (n, k) = if nt { (rows, d) } else { (d, rows) };
    // SAFETY: `dispatch!` asserted `mk`'s CPU features.
    dispatch!(kernel, mk => unsafe { packed(mk, !nt, nt, n, k, n, x, x, out, true) });
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
        syrk_packed(Kernel::detect(), false, rows, d, x, &mut out);
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
        syrk_packed(Kernel::detect(), true, rows, d, x, &mut out);
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

    /// The row-blocked matrix–vector path rounds exactly like the
    /// `axpy`-per-entry loop it replaces, zero entries included.
    #[test]
    fn narrow_gemm_small_keeps_the_axpy_rounding() {
        for &(m, k) in &[
            (1usize, 1usize),
            (7, 5),
            (8, 33),
            (9, 64),
            (17, 256),
            (256, 256),
        ] {
            for n in 1..4 {
                for ta in [false, true] {
                    let mut a = seq(m * k, 0.013);
                    a.iter_mut().step_by(5).for_each(|v| *v = 0.0);
                    let b = seq(k * n, 0.021);
                    let mut want = vec![0.0; m * n];
                    for i in 0..m {
                        for p in 0..k {
                            let av = if ta { a[p * m + i] } else { a[i * k + p] };
                            if av != 0.0 {
                                for j in 0..n {
                                    want[i * n + j] += av * b[p * n + j];
                                }
                            }
                        }
                    }
                    let mut got = vec![0.0; m * n];
                    gemm_small(ta, false, m, k, n, &a, &b, &mut got);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} ta={ta}");
                }
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

    /// The AVX-512 and AVX2 tiles run the same per-element FMA chain, so the
    /// packed GEMM and both SYRKs agree bit for bit across every MR/NR/MC/KC
    /// edge.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_and_avx2_kernels_agree_bit_for_bit() {
        if !(simd::avx512_available() && simd::available()) {
            println!("skipped: this CPU lacks avx512f or avx2+fma");
            return;
        }
        const EDGES: [usize; 13] = [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Each edge on each axis against a fixed ragged pair, plus the cube.
        let shapes = EDGES
            .iter()
            .flat_map(|&v| [(v, 65, 17), (17, v, 65), (65, 17, v), (v, v, v)]);
        for (m, k, n) in shapes {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, 0.02);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let run = |kernel| {
                    let mut c = vec![0.0; m * n];
                    gemm_packed(kernel, ta, tb, m, k, n, &a, &b, &mut c);
                    bits(&c)
                };
                assert_eq!(
                    run(Kernel::Avx512),
                    run(Kernel::Avx2),
                    "gemm {m}x{k}x{n} ta={ta} tb={tb}"
                );
            }
        }
        for &rows in &EDGES {
            for &d in &EDGES {
                let x = seq(rows * d, 0.01);
                for nt in [false, true] {
                    let n = if nt { rows } else { d };
                    let run = |kernel| {
                        let mut c = vec![0.0; n * n];
                        syrk_packed(kernel, nt, rows, d, &x, &mut c);
                        bits(&c)
                    };
                    assert_eq!(
                        run(Kernel::Avx512),
                        run(Kernel::Avx2),
                        "syrk {rows}x{d} nt={nt}"
                    );
                }
            }
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
