//! Per-layer timings taken by calling each layer's public functions at the
//! workload's shapes, outside the trainer.

use crate::session::join_ring;
use crate::stats::median_of;
use crate::workload::{Workload, WORLD};
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::{wire, OpKind};
use spdkfac_core::factors::{local_factor_a, local_factor_g};
use spdkfac_core::fusion::{self, FactorPipeline};
use spdkfac_core::perf::ExpInverseModel;
use spdkfac_core::placement::{self, PlacementStrategy, TensorAssignment};
use spdkfac_nn::data::Dataset;
use spdkfac_nn::loss::softmax_cross_entropy;
use spdkfac_obs::Phase;
use spdkfac_tensor::chol;
use spdkfac_tensor::rng::MatrixRng;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Repetitions of each timed call (median reported).
const REPS: usize = 15;

pub type Metric = (String, f64, &'static str);

/// Kernel timings plus the inversion model refitted from them.
pub struct Micro {
    pub metrics: Vec<Metric>,
    pub inverse_fit: ExpInverseModel,
}

/// One collective of a steady iteration: submission phase, kind, elements.
/// Factor all-reduces are listed layer-wise; the trainer may fuse them.
fn messages(w: &Workload) -> Vec<(Phase, OpKind, usize)> {
    let net = (w.model)();
    let cfg = w.config();
    let packed = |d: usize| d * (d + 1) / 2;
    let dims: Vec<usize> = net.kfac_dims().iter().flat_map(|&(a, g)| [a, g]).collect();
    let mut out = vec![(Phase::GradComm, OpKind::AllReduce, net.num_params())];
    out.extend(
        dims.iter()
            .map(|&d| (Phase::FactorComm, OpKind::AllReduce, packed(d))),
    );
    let placed = placement::place(
        &dims,
        WORLD,
        &cfg.comp_model,
        &cfg.comm_model,
        PlacementStrategy::default(),
    );
    for (t, a) in placed.assignments().iter().enumerate() {
        if let TensorAssignment::Gpu(_) = a {
            out.push((Phase::InverseComm, OpKind::Broadcast, packed(dims[t])));
        }
    }
    out.push((Phase::Update, OpKind::AllReduce, 1));
    out
}

pub fn measure(w: &Workload, data: &Dataset) -> Micro {
    let mut metrics = Vec::new();
    let cfg = w.config();

    // nn: one forward + backward of rank 0's first batch, K-FAC capture on
    // as in training; core::factors: the local factors of that capture.
    let (x, y) = data.shard(WORLD, 0).batch(0, w.batch);
    let mut net = (w.model)();
    let ffbp = median_of(REPS, || {
        let t0 = Instant::now();
        let out = net.forward(&x, true);
        let forward = t0.elapsed();
        let grad = softmax_cross_entropy(&out, &y).1;
        let t1 = Instant::now();
        net.backward(&grad);
        let t = (forward + t1.elapsed()).as_secs_f64();
        net.take_captures();
        t
    });
    let out = net.forward(&x, true);
    net.backward(&softmax_cross_entropy(&out, &y).1);
    let captures = net.take_captures();
    let factors = median_of(REPS, || {
        let t0 = Instant::now();
        for (_, cap) in &captures {
            black_box(local_factor_a(black_box(&cap.a_rows)));
            black_box(local_factor_g(black_box(&cap.g_rows), cap.batch));
        }
        t0.elapsed().as_secs_f64()
    });
    metrics.push(("nn.forward_backward_s".into(), ffbp, "s"));
    metrics.push(("core.factors.local_factor_s".into(), factors, "s"));

    // tensor: damped SPD inverses at the factor dims of every workload, so
    // each traced run reports the same rows.
    let mut rng = MatrixRng::new(7);
    let mut samples = Vec::new();
    for d in crate::workload::factor_dims() {
        let mut m = rng.gaussian_matrix(2 * d, d).gramian_scaled((2 * d) as f64);
        m.add_scaled_identity(cfg.kfac.damping);
        let t = median_of(REPS, || {
            let t0 = Instant::now();
            black_box(chol::spd_inverse(black_box(&m)).expect("damped Gramian is SPD"));
            t0.elapsed().as_secs_f64()
        });
        samples.push((d, t));
        metrics.push((format!("tensor.spd_inverse_s.d{d}"), t, "s"));
    }
    let inverse_fit = ExpInverseModel::fit(&samples);

    // collectives::wire: encode and decode every message of one iteration
    // in the format the policy gives it.
    let policy = cfg.wire;
    let msgs = messages(w);
    let payloads: Vec<(wire::WireFormat, Vec<f64>)> = msgs
        .iter()
        .map(|&(phase, kind, n)| (policy.format_for(phase, kind), rng.gaussian_vec(n, 1.0)))
        .collect();
    let encode = median_of(REPS, || {
        payloads
            .iter()
            .map(|(fmt, v)| {
                let v = v.clone();
                let t0 = Instant::now();
                black_box(wire::encode(*fmt, black_box(v)));
                t0.elapsed().as_secs_f64()
            })
            .sum()
    });
    let encoded: Vec<wire::WirePayload> = payloads
        .iter()
        .map(|(fmt, v)| wire::encode(*fmt, v.clone()).0)
        .collect();
    let decode = median_of(REPS, || {
        encoded
            .iter()
            .map(|p| {
                let p = p.clone();
                let t0 = Instant::now();
                black_box(wire::decode(black_box(p)));
                t0.elapsed().as_secs_f64()
            })
            .sum()
    });
    metrics.push(("collectives.wire.encode_s".into(), encode, "s"));
    metrics.push(("collectives.wire.decode_s".into(), decode, "s"));

    metrics.push((
        "collectives.ring.allreduce_s".into(),
        ring_allreduce(w, &msgs),
        "s",
    ));

    // core: placement plus both fusion plans, from the pinned models and
    // evenly spaced ready times.
    let dims: Vec<(usize, usize)> = (w.model)().kfac_dims();
    let inv_dims: Vec<usize> = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
    let ready: Vec<f64> = (0..dims.len()).map(|i| i as f64 * 1e-4).collect();
    let a_sizes: Vec<usize> = dims.iter().map(|&(a, _)| a * (a + 1) / 2).collect();
    let g_sizes: Vec<usize> = dims.iter().rev().map(|&(_, g)| g * (g + 1) / 2).collect();
    let plan = median_of(REPS, || {
        let t0 = Instant::now();
        black_box(placement::place(
            &inv_dims,
            WORLD,
            &cfg.comp_model,
            &cfg.comm_model,
            PlacementStrategy::default(),
        ));
        for sizes in [&a_sizes, &g_sizes] {
            let pipe = FactorPipeline::new(ready.clone(), sizes.clone()).expect("valid pipeline");
            black_box(fusion::plan(&pipe, &cfg.comm_model, cfg.fusion));
        }
        t0.elapsed().as_secs_f64()
    });
    metrics.push(("core.plan_s".into(), plan, "s"));

    Micro {
        metrics,
        inverse_fit,
    }
}

/// Rank 0's time for `WorkerComm::allreduce_avg` over every all-reduce of
/// one iteration, on a 2-rank TCP ring with the workload's wire policy.
fn ring_allreduce(w: &Workload, msgs: &[(Phase, OpKind, usize)]) -> f64 {
    let policy = w.wire_policy();
    let addr = RendezvousServer::spawn("127.0.0.1:0", WORLD)
        .expect("rendezvous bind")
        .to_string();
    let reduces: Vec<(Phase, usize)> = msgs
        .iter()
        .filter(|m| m.1 == OpKind::AllReduce)
        .map(|m| (m.0, m.2))
        .collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let (addr, reduces) = (&addr, &reduces);
                s.spawn(move || {
                    let comm = join_ring(addr, rank, policy).expect("TCP ring forms");
                    let mut bufs: Vec<Vec<f64>> =
                        reduces.iter().map(|&(_, n)| vec![rank as f64; n]).collect();
                    median_of(REPS, || {
                        let t0 = Instant::now();
                        for (&(phase, _), buf) in reduces.iter().zip(bufs.iter_mut()) {
                            comm.set_phase(phase);
                            comm.allreduce_avg(buf);
                        }
                        t0.elapsed().as_secs_f64()
                    })
                })
            })
            .collect();
        let times: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().expect("ring benchmark rank panicked"))
            .collect();
        times[0]
    })
}
