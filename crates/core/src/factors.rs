//! Running Kronecker-factor statistics and damped inversion.

use crate::error::{FactorSide, KfacError};
use spdkfac_nn::KfacCapture;
use spdkfac_tensor::{chol, sym, Matrix};

/// Per-layer Kronecker-factor state: exponential moving averages of
/// `A = E[a aᵀ]` and `G = E[ĝ ĝᵀ]` plus their damped inverses.
#[derive(Debug, Clone)]
pub struct FactorState {
    layer: usize,
    a: Option<Matrix>,
    g: Option<Matrix>,
    a_inv: Option<Matrix>,
    g_inv: Option<Matrix>,
}

impl FactorState {
    /// Creates empty state for preconditionable layer `layer`.
    pub fn new(layer: usize) -> Self {
        FactorState {
            layer,
            a: None,
            g: None,
            a_inv: None,
            g_inv: None,
        }
    }

    /// The layer index this state belongs to.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Folds a fresh capture into the running averages with decay
    /// `stat_decay` (first update installs the statistics directly).
    pub fn update_from_capture(&mut self, cap: &KfacCapture, stat_decay: f64) {
        self.update_factors(cap.factor_a(), cap.factor_g(), stat_decay);
    }

    /// Folds externally-computed (e.g. all-reduced) factor matrices into the
    /// running averages.
    pub fn update_factors(&mut self, a_new: Matrix, g_new: Matrix, stat_decay: f64) {
        self.update_a(a_new, stat_decay);
        self.update_g(g_new, stat_decay);
    }

    /// Folds a fresh `A` factor alone (the forward-pass side of the SPD
    /// pipeline, where `A` and `G` arrive in different passes).
    pub fn update_a(&mut self, a_new: Matrix, stat_decay: f64) {
        match &mut self.a {
            Some(a) => a.ema_update(stat_decay, &a_new),
            None => self.a = Some(a_new),
        }
    }

    /// Folds a fresh `G` factor alone (the backward-pass side).
    pub fn update_g(&mut self, g_new: Matrix, stat_decay: f64) {
        match &mut self.g {
            Some(g) => g.ema_update(stat_decay, &g_new),
            None => self.g = Some(g_new),
        }
    }

    /// Folds a fresh `side` factor that arrives as its packed upper triangle
    /// (the all-reduce's wire format) into the running average, without a
    /// dense copy. Same bits as [`Self::update_a`] / [`Self::update_g`] on
    /// the unpacked `d × d` matrix.
    pub fn update_packed(&mut self, side: FactorSide, d: usize, packed: &[f64], stat_decay: f64) {
        let slot = match side {
            FactorSide::A => &mut self.a,
            FactorSide::G => &mut self.g,
        };
        match slot {
            Some(m) => sym::ema_update_packed(m, stat_decay, packed),
            None => {
                let mut m = Matrix::zeros(d, d);
                sym::unpack_into(packed, &mut m);
                *slot = Some(m);
            }
        }
    }

    /// Installs a `d × d` inverse of the damped `side` factor from its
    /// packed upper triangle (the broadcast's wire format), reusing the
    /// storage of the inverse it replaces.
    pub fn set_inv_packed(&mut self, side: FactorSide, d: usize, packed: &[f64]) {
        let slot = match side {
            FactorSide::A => &mut self.a_inv,
            FactorSide::G => &mut self.g_inv,
        };
        sym::unpack_into(packed, slot.get_or_insert_with(|| Matrix::zeros(d, d)));
    }

    /// Current running factor `A`, if any update has happened.
    pub fn factor_a(&self) -> Option<&Matrix> {
        self.a.as_ref()
    }

    /// Current running factor `G`, if any update has happened.
    pub fn factor_g(&self) -> Option<&Matrix> {
        self.g.as_ref()
    }

    /// The damped input factor `A + γI` ready for inversion (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn damped_a(&self, gamma: f64) -> Matrix {
        self.a.as_ref().expect("no A statistics yet").damped(gamma)
    }

    /// The damped output factor `G + γI` ready for inversion (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn damped_g(&self, gamma: f64) -> Matrix {
        self.g.as_ref().expect("no G statistics yet").damped(gamma)
    }

    /// Recomputes both damped inverses locally.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::FactorInversion`] when a damped factor is not
    /// positive definite (damping too small).
    pub fn refresh_inverses(&mut self, gamma: f64) -> Result<(), KfacError> {
        let a_inv = chol::spd_inverse(&self.damped_a(gamma)).map_err(|source| {
            KfacError::FactorInversion {
                layer: self.layer,
                factor: FactorSide::A,
                source,
            }
        })?;
        let g_inv = chol::spd_inverse(&self.damped_g(gamma)).map_err(|source| {
            KfacError::FactorInversion {
                layer: self.layer,
                factor: FactorSide::G,
                source,
            }
        })?;
        self.a_inv = Some(a_inv);
        self.g_inv = Some(g_inv);
        Ok(())
    }

    /// Installs an externally-computed (e.g. broadcast) inverse of `A`.
    pub fn set_a_inv(&mut self, inv: Matrix) {
        self.a_inv = Some(inv);
    }

    /// Installs an externally-computed (e.g. broadcast) inverse of `G`.
    pub fn set_g_inv(&mut self, inv: Matrix) {
        self.g_inv = Some(inv);
    }

    /// Current inverse of the damped `A`, if computed.
    pub fn a_inv(&self) -> Option<&Matrix> {
        self.a_inv.as_ref()
    }

    /// Current inverse of the damped `G`, if computed.
    pub fn g_inv(&self) -> Option<&Matrix> {
        self.g_inv.as_ref()
    }
}

/// Computes the local `A` factor from captured input rows:
/// `A = aᵀa / rows` (Eq. 7 averaged over batch × spatial positions).
pub fn local_factor_a(a_rows: &Matrix) -> Matrix {
    a_rows.gramian_scaled(a_rows.rows() as f64)
}

/// Computes the local `G` factor from captured (mean-reduced) output-gradient
/// rows: `G = N²/rows · gᵀg` (Eq. 8 with per-sample rescaling, see
/// `spdkfac_nn::KfacCapture::factor_g`).
pub fn local_factor_g(g_rows: &Matrix, batch: usize) -> Matrix {
    let n = batch as f64;
    g_rows.gramian_scaled(g_rows.rows() as f64 / (n * n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_tensor::rng::MatrixRng;
    use spdkfac_tensor::SymPacked;

    fn capture(seed: u64) -> KfacCapture {
        let mut rng = MatrixRng::new(seed);
        KfacCapture {
            a_rows: rng.gaussian_matrix(16, 4),
            g_rows: rng.gaussian_matrix(16, 3),
            batch: 16,
        }
    }

    #[test]
    fn first_update_installs_factors() {
        let mut st = FactorState::new(0);
        let cap = capture(1);
        st.update_from_capture(&cap, 0.95);
        assert!(st.factor_a().unwrap().max_abs_diff(&cap.factor_a()) < 1e-15);
        assert!(st.factor_g().unwrap().max_abs_diff(&cap.factor_g()) < 1e-15);
    }

    /// Factors and inverses installed from the packed wire format match the
    /// dense path bit for bit, and a second install reuses the storage.
    #[test]
    fn packed_installs_match_dense_updates() {
        let (c1, c2) = (capture(1), capture(2));
        let (mut dense, mut packed) = (FactorState::new(0), FactorState::new(0));
        for cap in [&c1, &c2] {
            dense.update_factors(cap.factor_a(), cap.factor_g(), 0.9);
            let pa = SymPacked::from_matrix(&cap.factor_a());
            let pg = SymPacked::from_matrix(&cap.factor_g());
            packed.update_packed(FactorSide::A, 4, pa.as_slice(), 0.9);
            packed.update_packed(FactorSide::G, 3, pg.as_slice(), 0.9);
        }
        assert_eq!(packed.factor_a(), dense.factor_a());
        assert_eq!(packed.factor_g(), dense.factor_g());

        let inv = chol::spd_inverse(&dense.damped_a(0.1)).unwrap();
        let wire = SymPacked::from_matrix(&inv);
        packed.set_inv_packed(FactorSide::A, 4, wire.as_slice());
        let storage = packed.a_inv().unwrap().as_slice().as_ptr();
        packed.set_inv_packed(FactorSide::A, 4, wire.as_slice());
        assert_eq!(packed.a_inv(), Some(&wire.to_matrix()));
        assert_eq!(packed.a_inv().unwrap().as_slice().as_ptr(), storage);
    }

    #[test]
    fn ema_blends_second_update() {
        let mut st = FactorState::new(0);
        let c1 = capture(1);
        let c2 = capture(2);
        st.update_from_capture(&c1, 0.9);
        st.update_from_capture(&c2, 0.9);
        let mut expect = c1.factor_a().clone();
        expect.ema_update(0.9, &c2.factor_a());
        assert!(st.factor_a().unwrap().max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn inverses_satisfy_identity() {
        let mut st = FactorState::new(2);
        st.update_from_capture(&capture(3), 0.95);
        st.refresh_inverses(0.1).unwrap();
        let prod = st.damped_a(0.1).matmul(st.a_inv().unwrap());
        assert!(prod.max_abs_diff(&Matrix::identity(4)) < 1e-8);
        let prod_g = st.damped_g(0.1).matmul(st.g_inv().unwrap());
        assert!(prod_g.max_abs_diff(&Matrix::identity(3)) < 1e-8);
    }

    #[test]
    fn inversion_error_names_layer() {
        let mut st = FactorState::new(7);
        // Rank-deficient A with zero damping fails.
        let cap = KfacCapture {
            a_rows: Matrix::from_rows(&[&[1.0, 2.0]]),
            g_rows: Matrix::from_rows(&[&[1.0]]),
            batch: 1,
        };
        st.update_from_capture(&cap, 0.95);
        let err = st.refresh_inverses(0.0).unwrap_err();
        match err {
            KfacError::FactorInversion { layer, .. } => assert_eq!(layer, 7),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn local_factor_helpers_match_capture_methods() {
        // Bit for bit: the trainer's hooks use the helpers, the
        // single-process optimizer the capture methods.
        let cap = capture(9);
        assert_eq!(local_factor_a(&cap.a_rows), cap.factor_a());
        assert_eq!(local_factor_g(&cap.g_rows, cap.batch), cap.factor_g());
    }
}
