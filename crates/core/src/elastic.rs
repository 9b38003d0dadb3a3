//! Elastic-runtime state handoff: a bit-exact, flat-`f64` checkpoint of one
//! rank's full training state, and the policy knobs of the elastic driver.
//!
//! ## Why a flat `f64` vector
//!
//! The handoff travels over the *existing* collectives (a broadcast from the
//! surviving rank 0 after each membership-epoch transition), whose payload
//! type is `Vec<f64>`. Packing into `f64` keeps the transfer on the exact
//! code path every other byte of training data takes — timeouts, wire
//! accounting, flight-recorder spans all included — at zero new transport
//! surface. All counts and dimensions are small integers, which `f64`
//! represents exactly (< 2⁵³), and payload values are `f64` already, so the
//! round-trip is **bit-exact** (proptest-asserted, NaN payloads included).
//!
//! ## SPMD safety across epochs
//!
//! K-FAC's factor/inverse state is *replicated* on every rank (factors are
//! all-reduced, inverses broadcast), so any survivor holds the full
//! authoritative state. After a resize, rank 0 of the new epoch broadcasts
//! this checkpoint and **every** rank — survivor or joiner — restores from
//! it. Survivors don't strictly need the data, but restoring everyone from
//! one buffer re-establishes bit-identical replicas by construction, which
//! is what makes the next epoch's collectives SPMD-safe (DESIGN §2.15).

use crate::factors::FactorState;
use spdkfac_collectives::TcpConfig;
use spdkfac_nn::optim::Sgd;
use spdkfac_nn::Sequential;
use spdkfac_tensor::Matrix;

/// Schema tag leading every packed checkpoint (`"ELCK"` + version 1).
const PACK_MAGIC: f64 = 0x0045_4C43_4B01_u64 as f64;

/// One preconditionable layer's factor snapshot inside a
/// [`TrainCheckpoint`]: the EMA factors and damped inverses, each absent
/// until the training loop first produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorCheckpoint {
    /// Network layer index this state belongs to.
    pub layer: usize,
    /// Running `A` EMA.
    pub a: Option<Matrix>,
    /// Running `G` EMA.
    pub g: Option<Matrix>,
    /// Damped inverse of `A`.
    pub a_inv: Option<Matrix>,
    /// Damped inverse of `G`.
    pub g_inv: Option<Matrix>,
}

impl FactorCheckpoint {
    /// Snapshots one layer's [`FactorState`].
    pub fn capture(st: &FactorState) -> FactorCheckpoint {
        FactorCheckpoint {
            layer: st.layer(),
            a: st.factor_a().cloned(),
            g: st.factor_g().cloned(),
            a_inv: st.a_inv().cloned(),
            g_inv: st.g_inv().cloned(),
        }
    }

    /// Rebuilds a [`FactorState`] holding exactly this snapshot.
    pub fn restore(&self) -> FactorState {
        let mut st = FactorState::new(self.layer);
        if let Some(a) = &self.a {
            // First update installs the matrix directly (no EMA blend).
            st.update_a(a.clone(), 0.0);
        }
        if let Some(g) = &self.g {
            st.update_g(g.clone(), 0.0);
        }
        if let Some(inv) = &self.a_inv {
            st.set_a_inv(inv.clone());
        }
        if let Some(inv) = &self.g_inv {
            st.set_g_inv(inv.clone());
        }
        st
    }
}

/// Complete optimizer + factor state of one rank at an iteration boundary —
/// everything a fresh process needs to continue the run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Next iteration to execute (all prior iterations are complete).
    pub iter: usize,
    /// Globally-averaged losses of the completed iterations.
    pub losses: Vec<f64>,
    /// Flattened model parameters ([`Sequential::flat_params`] order).
    pub params: Vec<f64>,
    /// SGD momentum buffers (positional; empty before the first step).
    pub velocity: Vec<Matrix>,
    /// Per-preconditionable-layer factor state, layer order.
    pub factors: Vec<FactorCheckpoint>,
    /// EKFAC eigenbases `(Q, λ)` per inversion tensor (`2L`, A/G
    /// interleaved); all `None` outside `Algorithm::EkfacSpd`.
    pub ekfac_bases: Vec<Option<(Matrix, Vec<f64>)>>,
    /// EKFAC eigenbasis second-moment scales per layer (`L`).
    pub ekfac_scales: Vec<Option<Matrix>>,
}

impl TrainCheckpoint {
    /// Snapshots a rank's live training state. `states`, `bases` and
    /// `scales` are the trainer's working vectors; `net`/`sgd` contribute
    /// parameters and momentum.
    pub fn capture(
        iter: usize,
        losses: &[f64],
        net: &Sequential,
        sgd: &Sgd,
        states: &[FactorState],
        ekfac_bases: &[Option<(Matrix, Vec<f64>)>],
        ekfac_scales: &[Option<Matrix>],
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            iter,
            losses: losses.to_vec(),
            params: net.flat_params(),
            velocity: sgd.velocity().to_vec(),
            factors: states.iter().map(FactorCheckpoint::capture).collect(),
            ekfac_bases: ekfac_bases.to_vec(),
            ekfac_scales: ekfac_scales.to_vec(),
        }
    }

    /// Serializes to the flat `f64` wire vector. Inverse of
    /// [`TrainCheckpoint::unpack`]; bit-exact round trip.
    pub fn pack(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(64 + self.params.len() + self.losses.len());
        out.push(PACK_MAGIC);
        out.push(self.iter as f64);
        pack_vec(&mut out, &self.losses);
        pack_vec(&mut out, &self.params);
        out.push(self.velocity.len() as f64);
        for m in &self.velocity {
            pack_matrix(&mut out, m);
        }
        out.push(self.factors.len() as f64);
        for f in &self.factors {
            out.push(f.layer as f64);
            pack_opt_matrix(&mut out, f.a.as_ref());
            pack_opt_matrix(&mut out, f.g.as_ref());
            pack_opt_matrix(&mut out, f.a_inv.as_ref());
            pack_opt_matrix(&mut out, f.g_inv.as_ref());
        }
        out.push(self.ekfac_bases.len() as f64);
        for b in &self.ekfac_bases {
            match b {
                None => out.push(0.0),
                Some((q, vals)) => {
                    out.push(1.0);
                    pack_matrix(&mut out, q);
                    pack_vec(&mut out, vals);
                }
            }
        }
        out.push(self.ekfac_scales.len() as f64);
        for s in &self.ekfac_scales {
            pack_opt_matrix(&mut out, s.as_ref());
        }
        out
    }

    /// The longest [`TrainCheckpoint::pack`] vector a run of `net` over
    /// `iters` iterations can produce: every optional section present
    /// (momentum, factors, inverses, EKFAC bases and scales) and one loss
    /// per iteration. A receiver computes it from its own fresh replica to
    /// bound what a state source may announce.
    pub(crate) fn max_packed_len(net: &Sequential, iters: usize) -> usize {
        // Present optional matrix: tag, rows, cols, data.
        let opt_matrix = |rows: usize, cols: usize| 3 + rows * cols;
        let numel: Vec<usize> = net.parameters().iter().map(|p| p.numel()).collect();
        let dims = net.kfac_dims();
        let params: usize = numel.iter().sum();
        let velocity: usize = numel.iter().map(|n| 2 + n).sum();
        let factors: usize = dims
            .iter()
            .map(|&(a, g)| 1 + 2 * opt_matrix(a, a) + 2 * opt_matrix(g, g))
            .sum();
        let bases: usize = dims
            .iter()
            .flat_map(|&(a, g)| [a, g])
            .map(|d| opt_matrix(d, d) + 1 + d)
            .sum();
        let scales: usize = dims.iter().map(|&(a, g)| opt_matrix(g, a)).sum();
        // Magic and iteration, then each section behind its length prefix.
        2 + (1 + iters) + (1 + params) + (1 + velocity) + (1 + factors) + (1 + bases) + (1 + scales)
    }

    /// Deserializes a [`TrainCheckpoint::pack`] vector.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation (bad magic,
    /// truncated section, absurd count) — which on the elastic path means
    /// the handoff broadcast was corrupt and the joiner must abort.
    pub fn unpack(data: &[f64]) -> Result<TrainCheckpoint, String> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.f64()?;
        if magic.to_bits() != PACK_MAGIC.to_bits() {
            return Err(format!("checkpoint magic mismatch: {magic}"));
        }
        let iter = r.count("iter")?;
        let losses = r.vec("losses")?;
        let params = r.vec("params")?;
        let nv = r.count("velocity count")?;
        let mut velocity = Vec::with_capacity(nv);
        for _ in 0..nv {
            velocity.push(r.matrix("velocity")?);
        }
        let nf = r.count("factor count")?;
        let mut factors = Vec::with_capacity(nf);
        for _ in 0..nf {
            factors.push(FactorCheckpoint {
                layer: r.count("factor layer")?,
                a: r.opt_matrix("factor A")?,
                g: r.opt_matrix("factor G")?,
                a_inv: r.opt_matrix("factor A⁻¹")?,
                g_inv: r.opt_matrix("factor G⁻¹")?,
            });
        }
        let nb = r.count("basis count")?;
        let mut ekfac_bases = Vec::with_capacity(nb);
        for _ in 0..nb {
            ekfac_bases.push(match r.tag("basis tag")? {
                false => None,
                true => {
                    let q = r.matrix("basis Q")?;
                    let vals = r.vec("basis λ")?;
                    Some((q, vals))
                }
            });
        }
        let ns = r.count("scale count")?;
        let mut ekfac_scales = Vec::with_capacity(ns);
        for _ in 0..ns {
            ekfac_scales.push(r.opt_matrix("scale")?);
        }
        if r.pos != data.len() {
            return Err(format!(
                "checkpoint has {} trailing values",
                data.len() - r.pos
            ));
        }
        Ok(TrainCheckpoint {
            iter,
            losses,
            params,
            velocity,
            factors,
            ekfac_bases,
            ekfac_scales,
        })
    }
}

fn pack_vec(out: &mut Vec<f64>, v: &[f64]) {
    out.push(v.len() as f64);
    out.extend_from_slice(v);
}

fn pack_matrix(out: &mut Vec<f64>, m: &Matrix) {
    out.push(m.rows() as f64);
    out.push(m.cols() as f64);
    out.extend_from_slice(m.as_slice());
}

fn pack_opt_matrix(out: &mut Vec<f64>, m: Option<&Matrix>) {
    match m {
        None => out.push(0.0),
        Some(m) => {
            out.push(1.0);
            pack_matrix(out, m);
        }
    }
}

struct Reader<'a> {
    data: &'a [f64],
    pos: usize,
}

/// Sections are length-prefixed with exact small integers; anything else in
/// a count slot means a torn or foreign buffer.
const MAX_COUNT: f64 = (1u64 << 40) as f64;

impl Reader<'_> {
    fn f64(&mut self) -> Result<f64, String> {
        let v = self
            .data
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("checkpoint truncated at {}", self.pos))?;
        self.pos += 1;
        Ok(v)
    }

    fn count(&mut self, what: &str) -> Result<usize, String> {
        let v = self.f64()?;
        if !(0.0..MAX_COUNT).contains(&v) || v.fract() != 0.0 {
            return Err(format!("checkpoint {what} of {v} is not a count"));
        }
        Ok(v as usize)
    }

    fn tag(&mut self, what: &str) -> Result<bool, String> {
        let v = self.f64()?;
        if v == 0.0 {
            Ok(false)
        } else if v == 1.0 {
            Ok(true)
        } else {
            Err(format!("checkpoint {what} of {v} is not 0/1"))
        }
    }

    fn slice(&mut self, n: usize, what: &str) -> Result<&[f64], String> {
        if self.pos + n > self.data.len() {
            return Err(format!("checkpoint {what} truncated"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn vec(&mut self, what: &str) -> Result<Vec<f64>, String> {
        let n = self.count(what)?;
        Ok(self.slice(n, what)?.to_vec())
    }

    fn matrix(&mut self, what: &str) -> Result<Matrix, String> {
        let rows = self.count(what)?;
        let cols = self.count(what)?;
        let data = self.slice(rows * cols, what)?.to_vec();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn opt_matrix(&mut self, what: &str) -> Result<Option<Matrix>, String> {
        Ok(match self.tag(what)? {
            false => None,
            true => Some(self.matrix(what)?),
        })
    }
}

/// One stable-membership interval of an elastic run: the world held `world`
/// ranks from iteration `from_iter` until the next span (or the end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipSpan {
    /// Membership epoch of this interval.
    pub epoch: u64,
    /// World size during the interval.
    pub world: usize,
    /// First iteration executed under this epoch.
    pub from_iter: usize,
}

/// Elastic-driver knobs for a [`TrainSession`](crate::distributed::TrainSession).
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// The long-lived rendezvous to join
    /// ([`spdkfac_collectives::tcp::ElasticRendezvous`]) and ring wiring
    /// parameters.
    pub tcp: TcpConfig,
    /// Poll the rendezvous for pending joiners every this many iterations
    /// (rank 0 only; the verdict rides the loss all-reduce so every rank
    /// agrees). 0 disables planned grows — only failures trigger resizes.
    pub poll_every: usize,
    /// Abort after this many membership epochs (runaway churn guard).
    pub max_epochs: u64,
    /// Stop (with an error) rather than continue below this world size.
    pub min_world: usize,
    /// Leave the group voluntarily after completing this iteration count:
    /// the worker drops its endpoint and returns without rejoining. The
    /// graceful half of fault injection — peers observe it exactly like a
    /// crash. `None` = run to completion.
    pub leave_after: Option<usize>,
    /// Epoch-0 rank claim forwarded to the rendezvous (`None` = arrival
    /// order). Ignored on rejoin, where survivor order rules.
    pub claim: Option<usize>,
}

impl ElasticPolicy {
    /// Defaults: poll every iteration, 16 epochs max, shrink floor 1.
    pub fn new(tcp: TcpConfig) -> ElasticPolicy {
        ElasticPolicy {
            tcp,
            poll_every: 1,
            max_epochs: 16,
            min_world: 1,
            leave_after: None,
            claim: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn mat_bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        (m.rows(), m.cols(), bits(m.as_slice()))
    }

    /// Structural + bit equality (PartialEq would reject NaN payloads).
    fn assert_bit_eq(a: &TrainCheckpoint, b: &TrainCheckpoint) {
        assert_eq!(a.iter, b.iter);
        assert_eq!(bits(&a.losses), bits(&b.losses));
        assert_eq!(bits(&a.params), bits(&b.params));
        assert_eq!(a.velocity.len(), b.velocity.len());
        for (x, y) in a.velocity.iter().zip(&b.velocity) {
            assert_eq!(mat_bits(x), mat_bits(y));
        }
        assert_eq!(a.factors.len(), b.factors.len());
        for (x, y) in a.factors.iter().zip(&b.factors) {
            assert_eq!(x.layer, y.layer);
            for (mx, my) in [(&x.a, &y.a), (&x.g, &y.g), (&x.a_inv, &y.a_inv)] {
                assert_eq!(mx.as_ref().map(mat_bits), my.as_ref().map(mat_bits));
            }
            assert_eq!(
                x.g_inv.as_ref().map(mat_bits),
                y.g_inv.as_ref().map(mat_bits)
            );
        }
        assert_eq!(a.ekfac_bases.len(), b.ekfac_bases.len());
        for (x, y) in a.ekfac_bases.iter().zip(&b.ekfac_bases) {
            match (x, y) {
                (None, None) => {}
                (Some((qx, vx)), Some((qy, vy))) => {
                    assert_eq!(mat_bits(qx), mat_bits(qy));
                    assert_eq!(bits(vx), bits(vy));
                }
                _ => panic!("basis presence mismatch"),
            }
        }
        for (x, y) in a.ekfac_scales.iter().zip(&b.ekfac_scales) {
            assert_eq!(x.as_ref().map(mat_bits), y.as_ref().map(mat_bits));
        }
    }

    /// Any f64, including ±∞, NaN and subnormals — payload slots must carry
    /// all of them verbatim.
    fn any_f64() -> impl Strategy<Value = f64> {
        (0u64..4, -1e300f64..1e300).prop_map(|(k, v)| match k {
            0 => v,
            1 => f64::NAN,
            2 => f64::INFINITY * v.signum(),
            _ => v * 1e-310, // subnormal territory
        })
    }

    fn any_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..max_dim + 1, 1..max_dim + 1).prop_flat_map(|(r, c)| {
            pvec(any_f64(), r * c).prop_map(move |d| Matrix::from_vec(r, c, d))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn pack_unpack_is_bit_exact(
            iter in 0usize..1_000_000,
            losses in pvec(any_f64(), 0..20),
            params in pvec(any_f64(), 0..200),
            velocity in pvec(any_matrix(5), 0..4),
            layers in pvec((0usize..32, 0u8..16), 0..4),
            with_bases in (0u8..2).prop_map(|b| b == 1),
        ) {
            let factors: Vec<FactorCheckpoint> = layers
                .iter()
                .map(|&(layer, mask)| FactorCheckpoint {
                    layer,
                    a: (mask & 1 != 0).then(|| Matrix::from_vec(2, 2, vec![1.0, f64::NAN, -0.0, 4.0])),
                    g: (mask & 2 != 0).then(|| Matrix::from_vec(1, 3, vec![5.0, 6.0, 7.0])),
                    a_inv: (mask & 4 != 0).then(|| Matrix::from_vec(2, 2, vec![0.5; 4])),
                    g_inv: (mask & 8 != 0).then(|| Matrix::from_vec(3, 3, vec![0.25; 9])),
                })
                .collect();
            let l = factors.len();
            let ekfac_bases: Vec<Option<(Matrix, Vec<f64>)>> = (0..2 * l)
                .map(|t| {
                    (with_bases && t % 2 == 0)
                        .then(|| (Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]), vec![0.5, 2.0]))
                })
                .collect();
            let ekfac_scales: Vec<Option<Matrix>> = (0..l)
                .map(|i| with_bases.then(|| Matrix::from_vec(1, 1, vec![i as f64])))
                .collect();
            let ckpt = TrainCheckpoint {
                iter,
                losses,
                params,
                velocity,
                factors,
                ekfac_bases,
                ekfac_scales,
            };
            let packed = ckpt.pack();
            let back = TrainCheckpoint::unpack(&packed).expect("round trip");
            assert_bit_eq(&ckpt, &back);
        }
    }

    #[test]
    fn unpack_rejects_garbage_and_truncation() {
        assert!(TrainCheckpoint::unpack(&[]).is_err());
        assert!(TrainCheckpoint::unpack(&[1.0, 2.0, 3.0]).is_err());
        let mut good = TrainCheckpoint {
            iter: 3,
            losses: vec![0.5],
            params: vec![1.0, 2.0],
            velocity: vec![],
            factors: vec![],
            ekfac_bases: vec![],
            ekfac_scales: vec![],
        }
        .pack();
        // Truncation and trailing garbage both fail loudly.
        assert!(TrainCheckpoint::unpack(&good[..good.len() - 1]).is_err());
        good.push(0.0);
        assert!(TrainCheckpoint::unpack(&good).is_err());
    }

    #[test]
    fn factor_checkpoint_round_trips_through_factor_state() {
        let mut st = FactorState::new(4);
        st.update_a(Matrix::from_vec(2, 2, vec![2.0, 0.1, 0.1, 3.0]), 0.9);
        st.update_g(Matrix::from_vec(1, 1, vec![7.0]), 0.9);
        st.set_a_inv(Matrix::from_vec(2, 2, vec![0.5, 0.0, 0.0, 0.5]));
        let snap = FactorCheckpoint::capture(&st);
        let back = snap.restore();
        assert_eq!(back.layer(), 4);
        assert_eq!(
            back.factor_a().unwrap().as_slice(),
            st.factor_a().unwrap().as_slice()
        );
        assert_eq!(
            back.factor_g().unwrap().as_slice(),
            st.factor_g().unwrap().as_slice()
        );
        assert_eq!(
            back.a_inv().unwrap().as_slice(),
            st.a_inv().unwrap().as_slice()
        );
        assert!(back.g_inv().is_none());
    }
}
