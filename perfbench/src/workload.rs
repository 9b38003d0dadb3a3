//! The benchmark's workloads: model, generated dataset, batch, wire policy
//! and the SPD-KFAC configuration each one runs under.

use spdkfac_collectives::WirePolicy;
use spdkfac_core::distributed::{Algorithm, DistributedConfig};
use spdkfac_core::perf::ExpInverseModel;
use spdkfac_nn::data::{gaussian_blobs, synthetic_images, Dataset};
use spdkfac_nn::models::{deep_mlp, small_cnn};
use spdkfac_nn::Sequential;
use std::collections::BTreeSet;

/// Ranks per session: one per core of the 2-core reference machine.
pub const WORLD: usize = 2;

/// Seed of the model initialisation.
const MODEL_SEED: u64 = 1;

/// Seed of each workload's task: class centres or templates and the
/// samples drawn around them. The benchmark seed shuffles the samples, so
/// every seed trains the same network on the same task and only the order
/// of the batches differs. Seed-to-seed spread of the loss figures then
/// measures batch order, not how hard a randomly drawn task happens to be.
const TASK_SEED: u64 = 1000;

/// Samples per class: enough that a session rarely repeats a batch.
const PER_CLASS: usize = 320;

/// Inversion-cost model (Eq. 26) pinned for every workload.
///
/// Fitted with `ExpInverseModel::fit` (log-space least squares, the Fig. 8
/// method) to the median time of `chol::spd_inverse` at the nine factor
/// dims of the three workloads (8 to 256), one kernel-pool thread, on the
/// reference machine: 2 vCPUs of an "Intel(R) Xeon(R) Processor" (AVX2 and
/// F16C present), Linux 6.18. Three traced runs gave alpha 5.7e-6 to 6.3e-6
/// and beta 0.0279 to 0.0296; the constants round their middle. Every
/// traced run refits the same kernel timings and prints the result beside
/// these constants.
///
/// `DistributedConfig::new`'s default, `ExpInverseModel::new(5e-5, 2e-3)`,
/// predicts about 0.08 ms at d = 256 against about 3.5 ms measured here.
/// With it LBP marks every tensor NCT at world 2, InverseComm is empty and
/// SPD-KFAC places inverses exactly like D-KFAC.
pub const INVERSE_MODEL: ExpInverseModel = ExpInverseModel {
    alpha: 6e-6,
    beta: 0.029,
};

/// What the traced run checks a workload stresses most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stress {
    /// InverseComp + Update outweigh FF&BP + FactorComp.
    Inversion,
    /// FF&BP + FactorComp outweigh InverseComp + Update.
    Compute,
    /// Comm-thread busy time outweighs FF&BP + FactorComp.
    Comm,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Builds the (deterministic) model replica.
    pub model: fn() -> Sequential,
    /// Generates the dataset from the benchmark seed.
    pub data: fn(u64) -> Dataset,
    /// Samples per rank per iteration.
    pub batch: usize,
    /// Learning rate and Tikhonov damping: gentle enough that the loss
    /// still falls steadily when the session ends. Later in training the
    /// loss of one batch order drifts from another's, and the loss figures
    /// would measure that instead of the code.
    pub lr: f64,
    pub damping: f64,
    /// Wire policy, as `WirePolicy::parse` reads it.
    pub wire: &'static str,
    /// Iterations of one training session.
    pub iters: usize,
    /// Loss every session must get below (see `time_to_target_s`). Each
    /// sits where the smoothed loss crosses it on the same iteration for
    /// nearly every seed, so `time_to_target_s` measures speed rather than
    /// batch order.
    pub loss_target: f64,
    pub stress: Stress,
}

impl Workload {
    /// The SPD-KFAC configuration of one session.
    pub fn config(&self) -> DistributedConfig {
        let mut cfg = DistributedConfig::new(WORLD, Algorithm::SpdKfac);
        cfg.kfac.damping = self.damping;
        cfg.kfac.lr = self.lr;
        cfg.kfac.momentum = 0.0;
        cfg.comp_model = INVERSE_MODEL;
        cfg.wire = self.wire_policy();
        cfg
    }

    pub fn wire_policy(&self) -> WirePolicy {
        WirePolicy::parse(self.wire).expect("workload wire policy parses")
    }
}

fn wide_mlp() -> Sequential {
    deep_mlp(64, 256, 4, 10, MODEL_SEED)
}

fn wide_mlp_data(seed: u64) -> Dataset {
    gaussian_blobs(10, 64, PER_CLASS, 1.0, TASK_SEED).shuffled(seed)
}

fn cnn() -> Sequential {
    small_cnn(3, 16, 10, MODEL_SEED)
}

fn cnn_data(seed: u64) -> Dataset {
    synthetic_images(10, 3, 16, PER_CLASS, 1.0, TASK_SEED).shuffled(seed)
}

fn deep_narrow() -> Sequential {
    deep_mlp(32, 48, 12, 8, MODEL_SEED)
}

fn deep_narrow_data(seed: u64) -> Dataset {
    gaussian_blobs(8, 32, PER_CLASS, 1.0, TASK_SEED).shuffled(seed)
}

pub const WORKLOADS: [Workload; 3] = [
    // Bound by inversion and preconditioning (factor dims 64, 256 and
    // 10): stresses the Cholesky/GEMM kernels, LBP placement and the
    // inverse broadcasts.
    Workload {
        name: "wide_mlp",
        model: wide_mlp,
        data: wide_mlp_data,
        batch: 32,
        lr: 0.01,
        damping: 0.1,
        wire: "f64",
        iters: 50,
        loss_target: 1.5,
        stress: Stress::Inversion,
    },
    // Bound by convolution FF/BP (im2col) and factor construction; small
    // factor dims (8 to 72, plus 256) keep inversion minor.
    Workload {
        name: "small_cnn",
        model: cnn,
        data: cnn_data,
        batch: 32,
        lr: 0.01,
        damping: 0.1,
        wire: "f64",
        iters: 100,
        loss_target: 1.0,
        stress: Stress::Compute,
    },
    // 13 K-FAC layers of d <= 48 on the uniform f16 wire over a raw
    // loopback link: many small messages make the ring, TCP frame I/O and
    // the f16 codec dominate. The only workload that runs the codec.
    Workload {
        name: "deep_narrow_f16",
        model: deep_narrow,
        data: deep_narrow_data,
        batch: 16,
        lr: 0.003,
        damping: 0.3,
        wire: "f16",
        iters: 200,
        loss_target: 1.5,
        stress: Stress::Comm,
    },
];

/// Every Kronecker-factor dim of every workload, ascending.
pub fn factor_dims() -> BTreeSet<usize> {
    WORKLOADS
        .iter()
        .flat_map(|w| (w.model)().kfac_dims())
        .flat_map(|(a, g)| [a, g])
        .collect()
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
