//! Gradient preconditioning with inverted Kronecker factors (Eq. 11).

use crate::factors::FactorState;
use spdkfac_tensor::{kron, Matrix};

/// Preconditions a weight gradient: `∇̃W = G⁻¹ · ∇W · A⁻¹`.
///
/// # Panics
///
/// Panics if the inverses have not been computed yet or shapes mismatch.
pub fn precondition_weight(state: &FactorState, grad: &Matrix) -> Matrix {
    let a_inv = state.a_inv().expect("A inverse not computed");
    let g_inv = state.g_inv().expect("G inverse not computed");
    kron::precondition_gradient(grad, a_inv, g_inv)
}

/// Preconditions a bias gradient with the output-side factor only:
/// `∇̃b = G⁻¹ · ∇b`.
///
/// The factor dimensions here carry no bias augmentation (DESIGN.md §4), so
/// the input-side factor for the bias is the scalar `E[1·1ᵀ] = 1` and only
/// `G⁻¹` applies.
///
/// # Panics
///
/// Panics if the `G` inverse has not been computed yet or shapes mismatch.
pub fn precondition_bias(state: &FactorState, grad: &Matrix) -> Matrix {
    let g_inv = state.g_inv().expect("G inverse not computed");
    g_inv.matmul(grad)
}

/// The working buffers of [`precondition_gradients`], kept across
/// iterations so that preconditioning allocates nothing once they have
/// grown to the largest layer.
#[derive(Debug)]
pub struct PrecondScratch {
    /// `G⁻¹ · ∇W` (and `G⁻¹ · ∇b`) before it is multiplied by `A⁻¹`.
    product: Matrix,
    /// A weight's direction while its raw gradient is still needed for the
    /// KL clip; stays empty without a clip.
    direction: Matrix,
    /// `⟨∇̃, ∇⟩` per parameter in the model's flat order, for the KL clip.
    dots: Vec<f64>,
}

impl Default for PrecondScratch {
    fn default() -> Self {
        PrecondScratch {
            product: Matrix::zeros(0, 0),
            direction: Matrix::zeros(0, 0),
            dots: Vec::new(),
        }
    }
}

/// Replaces every gradient of `net` by its update direction, in place:
/// `∇W ← G⁻¹ · ∇W · A⁻¹` and `∇b ← G⁻¹ · ∇b` for preconditioned layers
/// (Eq. 11); other parameters, and layers whose state has no inverses yet,
/// keep the raw gradient. The optimizer then steps along the gradients.
/// Working in place keeps one weight-sized buffer instead of a second copy
/// of every gradient.
///
/// `state_of_layer[l]` maps layer index to an index into `states` (or
/// `None` for non-preconditioned layers). With `kl_clip = Some((lr, clip))`
/// every direction is then scaled by [`kl_clip_scale`], computed from each
/// parameter's `⟨∇̃, ∇⟩` taken before its gradient was overwritten; returns
/// that scale (1.0 without a clip).
pub fn precondition_gradients(
    net: &mut spdkfac_nn::Sequential,
    state_of_layer: &[Option<usize>],
    states: &[FactorState],
    kl_clip: Option<(f64, f64)>,
    scratch: &mut PrecondScratch,
) -> f64 {
    let PrecondScratch {
        product,
        direction,
        dots,
    } = scratch;
    dots.clear();
    for (li, layer) in net.layers_mut().iter_mut().enumerate() {
        let state = state_of_layer
            .get(li)
            .copied()
            .flatten()
            .map(|si| &states[si])
            .filter(|st| st.a_inv().is_some());
        let mut params = layer.params_mut();
        let first = dots.len();
        if kl_clip.is_some() {
            dots.resize(first + params.len(), 0.0);
        }
        let Some(st) = state else {
            for (k, p) in params.iter().enumerate() {
                if let Some(dot) = dots.get_mut(first + k) {
                    *dot = inner(&p.grad, &p.grad);
                }
            }
            continue;
        };
        let g_inv = st.g_inv().expect("G inverse not computed");
        let a_inv = st.a_inv().expect("A inverse not computed");
        // Bias first: `G⁻¹ · ∇b` then leaves `G⁻¹` in cache for the weight.
        for (pi, p) in params.iter_mut().enumerate().rev() {
            g_inv.matmul_into(&p.grad, product);
            let dir = match (pi, kl_clip) {
                (0, None) => {
                    product.matmul_into(a_inv, &mut p.grad);
                    continue;
                }
                (0, Some(_)) => {
                    product.matmul_into(a_inv, direction);
                    &*direction
                }
                _ => &*product,
            };
            if let Some(dot) = dots.get_mut(first + pi) {
                *dot = inner(dir, &p.grad);
            }
            p.grad.clone_from(dir);
        }
    }
    let Some((lr, clip)) = kl_clip else {
        return 1.0;
    };
    let nu = kl_clip_scale(dots, lr, clip);
    if nu < 1.0 {
        for p in net.parameters_mut() {
            p.grad.scale(nu);
        }
    }
    nu
}

/// `⟨d, g⟩` summed in element order.
fn inner(d: &Matrix, g: &Matrix) -> f64 {
    d.as_slice()
        .iter()
        .zip(g.as_slice().iter())
        .map(|(a, b)| a * b)
        .sum()
}

/// The KL clip for directions kept apart from their gradients: scales
/// `directions` in place by [`kl_clip_scale`] over `⟨∇̃, ∇⟩`, where
/// `raw_grads` yields the raw gradients in the directions' order. Returns
/// the scale.
///
/// # Panics
///
/// Panics if `raw_grads` does not yield one gradient per direction.
pub fn apply_kl_clip<'a>(
    directions: &mut [Matrix],
    raw_grads: impl IntoIterator<Item = &'a Matrix>,
    lr: f64,
    kl_clip: f64,
) -> f64 {
    let mut grads = raw_grads.into_iter();
    let dots: Vec<f64> = directions
        .iter()
        .map(|d| inner(d, grads.next().expect("kl_clip: length mismatch")))
        .collect();
    assert!(grads.next().is_none(), "kl_clip: length mismatch");
    let nu = kl_clip_scale(&dots, lr, kl_clip);
    if nu < 1.0 {
        for d in directions.iter_mut() {
            d.scale(nu);
        }
    }
    nu
}

/// The standard K-FAC trust-region scale that keeps the predicted KL step
/// below `kl_clip`: `ν = min(1, sqrt(kl_clip / Σ_k ⟨∇̃_k, ∇_k⟩ · lr²))`,
/// from the per-parameter inner products `dots` in the model's flat order.
pub fn kl_clip_scale(dots: &[f64], lr: f64, kl_clip: f64) -> f64 {
    let vg_sum: f64 = dots.iter().fold(0.0, |acc, dot| acc + dot * lr * lr);
    if vg_sum > 0.0 {
        (kl_clip / vg_sum).sqrt().min(1.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_nn::KfacCapture;
    use spdkfac_tensor::rng::MatrixRng;

    fn ready_state(seed: u64, da: usize, dg: usize) -> FactorState {
        let mut rng = MatrixRng::new(seed);
        let cap = KfacCapture {
            a_rows: rng.gaussian_matrix(da + 8, da),
            g_rows: rng.gaussian_matrix(da + 8, dg),
            batch: da + 8,
        };
        let mut st = FactorState::new(0);
        st.update_from_capture(&cap, 0.95);
        st.refresh_inverses(0.3).unwrap();
        st
    }

    #[test]
    fn identity_factors_leave_grad_unchanged() {
        let mut st = FactorState::new(0);
        st.set_a_inv(Matrix::identity(3));
        st.set_g_inv(Matrix::identity(2));
        let mut rng = MatrixRng::new(1);
        let grad = rng.uniform_matrix(2, 3, -1.0, 1.0);
        let out = precondition_weight(&st, &grad);
        assert!(out.max_abs_diff(&grad) < 1e-15);
    }

    #[test]
    fn preconditioning_matches_manual_product() {
        let st = ready_state(2, 4, 3);
        let mut rng = MatrixRng::new(3);
        let grad = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let out = precondition_weight(&st, &grad);
        let manual = st
            .g_inv()
            .unwrap()
            .matmul(&grad)
            .matmul(st.a_inv().unwrap());
        assert!(out.max_abs_diff(&manual) < 1e-14);
    }

    #[test]
    fn bias_uses_g_only() {
        let st = ready_state(4, 4, 3);
        let grad = Matrix::from_vec(3, 1, vec![1.0, -1.0, 0.5]);
        let out = precondition_bias(&st, &grad);
        let manual = st.g_inv().unwrap().matmul(&grad);
        assert!(out.max_abs_diff(&manual) < 1e-14);
    }

    /// A small MLP with gradients, and factor states for its layers: the
    /// first without inverses (raw-gradient fallback), the others ready.
    fn net_with_grads() -> (spdkfac_nn::Sequential, Vec<Option<usize>>, Vec<FactorState>) {
        let data = spdkfac_nn::data::gaussian_blobs(3, 5, 4, 0.3, 9);
        let mut net = spdkfac_nn::models::mlp(&[5, 4, 4, 3], 9);
        let (x, y) = data.batch(0, data.len());
        let logits = net.forward(&x, false);
        let (_, grad) = spdkfac_nn::loss::softmax_cross_entropy(&logits, &y);
        net.backward(&grad);
        let mut state_of_layer = vec![None; net.len()];
        let dims = net.kfac_dims();
        let states = net
            .preconditionable()
            .iter()
            .enumerate()
            .map(|(si, &li)| {
                state_of_layer[li] = Some(si);
                match si {
                    0 => FactorState::new(li),
                    _ => ready_state(20 + si as u64, dims[si].0, dims[si].1),
                }
            })
            .collect();
        (net, state_of_layer, states)
    }

    /// In-place preconditioning leaves in each gradient exactly the bits of
    /// the out-of-place products (and of the out-of-place KL clip), and a
    /// second pass reuses the scratch buffer.
    #[test]
    fn in_place_directions_match_out_of_place_products() {
        for kl_clip in [None, Some((0.5, 1e-4))] {
            let (mut net, state_of_layer, states) = net_with_grads();
            let mut want = Vec::new();
            for (li, layer) in net.layers().iter().enumerate() {
                let st = state_of_layer[li]
                    .map(|si| &states[si])
                    .filter(|st| st.a_inv().is_some());
                for (pi, p) in layer.params().iter().enumerate() {
                    want.push(match (st, pi) {
                        (Some(st), 0) => precondition_weight(st, &p.grad),
                        (Some(st), _) => precondition_bias(st, &p.grad),
                        (None, _) => p.grad.clone(),
                    });
                }
            }
            let raw: Vec<Matrix> = net.parameters().iter().map(|p| p.grad.clone()).collect();
            let want_nu =
                kl_clip.map_or(1.0, |(lr, clip)| apply_kl_clip(&mut want, &raw, lr, clip));
            assert!(kl_clip.is_none() || want_nu < 1.0, "the clip must bind");

            let mut scratch = PrecondScratch::default();
            let nu =
                precondition_gradients(&mut net, &state_of_layer, &states, kl_clip, &mut scratch);
            assert_eq!(nu.to_bits(), want_nu.to_bits());
            for (k, (p, w)) in net.parameters().iter().zip(&want).enumerate() {
                assert_eq!(&p.grad, w, "parameter {k}, clip {kl_clip:?}");
            }

            let buffer = scratch.product.as_slice().as_ptr();
            let (mut again, _, _) = net_with_grads();
            precondition_gradients(&mut again, &state_of_layer, &states, kl_clip, &mut scratch);
            assert_eq!(scratch.product.as_slice().as_ptr(), buffer);
        }
    }

    #[test]
    fn kl_clip_noop_when_step_is_small() {
        let mut dirs = vec![Matrix::from_rows(&[&[1e-6]])];
        let grads = vec![Matrix::from_rows(&[&[1e-6]])];
        let nu = apply_kl_clip(&mut dirs, &grads, 0.01, 1e-3);
        assert_eq!(nu, 1.0);
        assert_eq!(dirs[0][(0, 0)], 1e-6);
    }

    #[test]
    fn kl_clip_scales_large_steps() {
        let mut dirs = vec![Matrix::from_rows(&[&[100.0]])];
        let grads = vec![Matrix::from_rows(&[&[100.0]])];
        let nu = apply_kl_clip(&mut dirs, &grads, 1.0, 1e-3);
        assert!(nu < 1.0);
        assert!((dirs[0][(0, 0)] - 100.0 * nu).abs() < 1e-12);
    }
}
