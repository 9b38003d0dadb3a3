//! Iteration builders: scheduling one training iteration of each algorithm
//! onto the simulated cluster.

use crate::graph::{Tag, TaskGraph, TaskSpan};
use crate::hardware::HardwareProfile;
use crate::net::{self, NetTopology, NetworkModel};
use crate::report::{attribute, SimReport};
use crate::sched::PolicyHandle;
use spdkfac_core::distributed::{Algorithm, FactorComm, Preconditioner};
use spdkfac_core::fusion::{self, FactorPipeline, FusionController, FusionStrategy};
use spdkfac_core::placement::{
    Placement, PlacementContext, PlacementPolicy, PlacementStrategy, TensorAssignment,
};
use spdkfac_models::ModelProfile;
use spdkfac_obs::{CollEdge, SpanMeta};

/// Builds the collective metadata for the next network task: `seq` is the
/// running k-th-collective index of the simulated Horovod queue (mirroring
/// the per-thread counter `CommTelemetry` keeps on real comm tracks), so
/// the causal analyzer groups simulated collectives exactly like measured
/// ones.
fn coll_meta(edge: CollEdge, seq: &mut u64, size: usize) -> SpanMeta {
    let m = SpanMeta {
        edge: Some(edge),
        seq: Some(*seq),
        size: Some(size),
        ..SpanMeta::default()
    };
    *seq += 1;
    m
}

/// Queues one factor all-reduce of `elems` elements after task `dep`.
fn push_factor_comm(
    net: &mut dyn NetworkModel,
    g: &mut TaskGraph,
    seq: &mut u64,
    elems: usize,
    dep: usize,
) -> usize {
    let meta = coll_meta(CollEdge::Join, seq, elems);
    net.push_allreduce(g, elems, &[dep], Tag::FactorComm, meta)
}

/// Queues the inverse phase of `plc` over `dims`, every inversion after
/// `deps`. Per-GPU order (§V-B): communicated tensors first (smallest
/// first) so their broadcasts hit the network early, then the replicated
/// NCTs, which overlap the remaining broadcasts. CT broadcasts are issued
/// round-robin across owners so the network picks them up roughly in
/// completion order. Returns GPU 0's inversion ids and the broadcast ids.
fn push_inverse_phase(
    g: &mut TaskGraph,
    net: &mut dyn NetworkModel,
    hw: &HardwareProfile,
    plc: &Placement,
    dims: &[usize],
    deps: &[usize],
    seq: &mut u64,
) -> (Vec<usize>, Vec<usize>) {
    let comp_ids: Vec<Vec<(usize, usize)>> = (0..plc.world())
        .map(|p| {
            let mut mine = plc.set_for_gpu(p);
            mine.sort_by(|&a, &b| {
                plc.is_nct(a)
                    .cmp(&plc.is_nct(b))
                    .then(dims[a].cmp(&dims[b]))
                    .then(a.cmp(&b))
            });
            mine.into_iter()
                .map(|t| {
                    (
                        t,
                        g.push(p, hw.inverse_time(dims[t]), deps, Tag::InverseComp),
                    )
                })
                .collect()
        })
        .collect();
    let mut bcast_ids = Vec::new();
    let max_len = comp_ids.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..max_len {
        for &(t, comp_id) in comp_ids.iter().filter_map(|ids| ids.get(k)) {
            if let TensorAssignment::Gpu(owner) = plc.assignments()[t] {
                let d = dims[t];
                let meta = coll_meta(CollEdge::FanOut { root: owner }, seq, d * (d + 1) / 2);
                bcast_ids.push(net.push_bcast(g, d, owner, &[comp_id], Tag::InverseComm, meta));
            }
        }
    }
    let gpu0 = comp_ids[0].iter().map(|&(_, id)| id).collect();
    (gpu0, bcast_ids)
}

/// Training algorithms that can be simulated (the bars of Fig. 2 plus the
/// Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// SGD on a single GPU (no communication).
    SgdSingle,
    /// K-FAC on a single GPU (no communication).
    KfacSingle,
    /// Distributed synchronous SGD with WFBP gradient aggregation.
    SSgd,
    /// D-KFAC: bulk factor aggregation, local inversion everywhere.
    DKfac,
    /// MPD-KFAC: bulk factor aggregation, sequential (round-robin) inverse
    /// placement with result broadcasts.
    MpdKfac,
    /// SPD-KFAC: pipelined factor aggregation with optimal tensor fusion +
    /// LBP inverse placement.
    SpdKfac,
}

impl Algo {
    /// The trainer algorithm whose row of core's schedule table
    /// ([`Algorithm::schedule`]) this simulates. The single-GPU baselines
    /// take S-SGD's and D-KFAC's rows on one GPU with no communication.
    fn algorithm(self) -> Algorithm {
        match self {
            Algo::SgdSingle | Algo::SSgd => Algorithm::SSgd,
            Algo::KfacSingle | Algo::DKfac => Algorithm::DKfac,
            Algo::MpdKfac => Algorithm::MpdKfac,
            Algo::SpdKfac => Algorithm::SpdKfac,
        }
    }
}

/// How Kronecker factors are aggregated across workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorCommMode {
    /// No aggregation (single-GPU training).
    LocalOnly,
    /// One bulk all-reduce of all `A` and `G` factors after backward
    /// (the baseline of Pauloski et al., used by D-KFAC / MPD-KFAC).
    Bulk,
    /// All `A`s all-reduced at the end of forward (overlapping backward),
    /// all `G`s at the end of backward — Fig. 10's "Naive". This is not
    /// `Pipelined(FusionStrategy::Naive)`, which queues the `G` message from
    /// the last backward step, ahead of the final gradient bucket; here it
    /// waits behind every gradient all-reduce.
    Naive,
    /// Per-bucket all-reduces pipelined with compute under the given fusion
    /// strategy (Fig. 10's "LW w/o TF" = `LayerWise`, "LW w/ TTF" =
    /// `Threshold`, "SP w/ OTF" = `Optimal`).
    Pipelined(FusionStrategy),
}

impl From<FactorComm> for FactorCommMode {
    fn from(comm: FactorComm) -> Self {
        match comm {
            FactorComm::Bulk => FactorCommMode::Bulk,
            FactorComm::Pipelined(strategy) => FactorCommMode::Pipelined(strategy),
        }
    }
}

/// How gradients are fused for WFBP aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradFusionMode {
    /// Horovod default: fuse until the buffer capacity
    /// (`SimConfig::grad_fusion_elems`) is reached.
    #[default]
    Threshold,
    /// MG-WFBP (Shi et al., the paper's reference \[23\]): the same Eq. 15
    /// merging rule the factor pipeline uses, applied to gradients.
    Optimal,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware cost models.
    pub hw: HardwareProfile,
    /// Number of GPUs for the distributed algorithms.
    pub world: usize,
    /// Horovod gradient fusion-buffer capacity in elements (64 MB of fp32 by
    /// default).
    pub grad_fusion_elems: usize,
    /// Override the algorithm's factor-aggregation mode (for the Fig. 10
    /// pipelining ablation).
    pub factor_mode: Option<FactorCommMode>,
    /// Override the algorithm's inverse placement (for the Fig. 12/13
    /// ablations and the scaling study's alternative policies).
    pub placement: Option<PolicyHandle>,
    /// Gradient fusion policy for the WFBP aggregation.
    pub grad_fusion: GradFusionMode,
    /// Network topology / execution model (see [`crate::net`]).
    pub topology: NetTopology,
    /// Bytes per communicated element (4 = fp32, the paper's setting;
    /// 2 = fp16 wire compression as used by later systems like KAISA).
    /// Scales the bandwidth term of both collective models.
    pub wire_bytes: f64,
    /// Wire-codec CPU cost in seconds per element (encode + decode), added
    /// to the bandwidth term of both collective models. 0 for the f64/fp32
    /// pass-through; calibrate from the real stack's `calib/encode` fit
    /// when simulating compressed formats.
    pub codec_s_per_elem: f64,
}

impl SimConfig {
    /// The paper's testbed at the given GPU count (communication models are
    /// rescaled from the 64-GPU calibration point via
    /// [`HardwareProfile::scaled_to_world`]).
    pub fn paper_testbed(world: usize) -> Self {
        SimConfig {
            hw: HardwareProfile::rtx2080ti_ib100().scaled_to_world(world),
            world,
            grad_fusion_elems: 16 * 1024 * 1024,
            grad_fusion: GradFusionMode::default(),
            factor_mode: None,
            placement: None,
            topology: NetTopology::default(),
            wire_bytes: 4.0,
            codec_s_per_elem: 0.0,
        }
    }
}

/// Simulates one training iteration of `algo` on `model` and returns the
/// schedule with its Fig. 2-style breakdown.
pub fn simulate_iteration(model: &ModelProfile, cfg: &SimConfig, algo: Algo) -> SimReport {
    simulate_iteration_planned(model, cfg, algo, None)
}

/// As [`simulate_iteration`], but plan decisions (fusion plans, inverse
/// placement) are computed from `plan_hw`'s cost models while task
/// durations come from `cfg.hw` — the drifting-hardware replay: `plan_hw`
/// is what the planner *believes*, `cfg.hw` is what the cluster *does*.
/// `None` plans from `cfg.hw` (belief matches reality), which is exactly
/// [`simulate_iteration`].
pub fn simulate_iteration_planned(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    plan_hw: Option<&HardwareProfile>,
) -> SimReport {
    let single = matches!(algo, Algo::SgdSingle | Algo::KfacSingle);
    let schedule = algo.algorithm().schedule();
    let precond = schedule.preconditioner != Preconditioner::None;
    let world = if single { 1 } else { cfg.world.max(1) };
    let adjust = |profile: &HardwareProfile| -> HardwareProfile {
        let mut h = if single {
            profile.single_gpu()
        } else {
            profile.clone()
        };
        // Wire precision: β terms are calibrated for 4-byte elements, and
        // a compressed format adds its codec CPU cost per element.
        let wire = cfg.wire_bytes / 4.0;
        h.allreduce.beta = h.allreduce.beta * wire + cfg.codec_s_per_elem;
        h.bcast.beta = h.bcast.beta * wire + cfg.codec_s_per_elem;
        h
    };
    let hw = adjust(&cfg.hw);
    let phw = plan_hw.map(adjust).unwrap_or_else(|| hw.clone());

    // Single-GPU runs and S-SGD move no factors and invert locally; the
    // distributed K-FAC variants take their row of core's schedule table
    // unless the config overrides it for an ablation.
    let (factor_mode, policy): (FactorCommMode, PolicyHandle) = if !precond || single {
        (FactorCommMode::LocalOnly, PlacementStrategy::NonDist.into())
    } else {
        (
            cfg.factor_mode.unwrap_or(schedule.factor_comm.into()),
            cfg.placement
                .clone()
                .unwrap_or_else(|| schedule.placement.into()),
        )
    };

    // The network model owns resource layout and collective timing:
    // resources 0..world are the GPU streams, the rest belong to the model
    // (shared queue, per-root links, or the hierarchical fluid links).
    // `exec_net` executes with reality's models; `plan_net` prices
    // collectives with the planner's (possibly stale) beliefs.
    let mut exec_net = net::build(&cfg.topology, &hw, world);
    let plan_net = net::build(&cfg.topology, &phw, world);
    let mut g = TaskGraph::new(exec_net.num_resources());
    let batch = model.batch_size();
    let layers = model.layers();
    let nl = layers.len();

    let a_sizes: Vec<usize> = layers.iter().map(|l| l.packed_a()).collect();
    let g_sizes_rev: Vec<usize> = layers.iter().rev().map(|l| l.packed_g()).collect();

    // ---------------- Forward pass (+ A factors) --------------------------
    // Analytic ready times on the (contention-free) representative stream.
    let mut a_ready = Vec::with_capacity(nl);
    let mut cursor = 0.0f64;
    for l in layers {
        if precond {
            cursor += hw.factor_a_time(l, batch);
            a_ready.push(cursor);
        }
        cursor += hw.ff_time(l, batch);
    }
    // Fusion plans are computed against the planning network's all-reduce
    // model: for the flat queue that is the *contended* cost (the paper
    // fits its models from measurements taken during training, which
    // include compute contention); for hierarchical topologies it is the
    // closed-form effective model, since contention is simulated directly.
    let plan_comm = plan_net.plan_allreduce();
    // Running k-th-collective index of the network queue.
    let mut coll_seq: u64 = 0;
    // One pipelined pass's fusion controller, planned over its ready times.
    let controller = |ready: &[f64], sizes: &[usize]| match factor_mode {
        FactorCommMode::Pipelined(strategy) => Some(FusionController::new(fusion::plan(
            &FactorPipeline::new(ready.to_vec(), sizes.to_vec()).expect("factor pipeline"),
            &plan_comm,
            strategy,
        ))),
        _ => None,
    };

    let mut a_ctl = controller(&a_ready, &a_sizes);
    let mut a_comp_ids = Vec::with_capacity(nl);
    let mut factor_comm_ids: Vec<usize> = Vec::new();
    for (i, l) in layers.iter().enumerate() {
        if precond {
            let id = g.push(0, hw.factor_a_time(l, batch), &[], Tag::FactorComp);
            a_comp_ids.push(id);
            if let Some(bucket) = a_ctl.as_mut().and_then(|c| c.offer(i)) {
                let elems = bucket.iter().map(|&k| a_sizes[k]).sum();
                let net = &mut *exec_net;
                factor_comm_ids.push(push_factor_comm(net, &mut g, &mut coll_seq, elems, id));
            }
        }
        g.push(0, hw.ff_time(l, batch), &[], Tag::FfBp);
    }
    if precond && factor_mode == FactorCommMode::Naive {
        let dep = *a_comp_ids.last().expect("layers non-empty");
        let elems = a_sizes.iter().sum();
        let net = &mut *exec_net;
        factor_comm_ids.push(push_factor_comm(net, &mut g, &mut coll_seq, elems, dep));
    }

    // ---------------- Backward pass (+ G factors + WFBP gradients) --------
    // Analytic G ready times, continuing the stream cursor.
    let mut g_ready = Vec::with_capacity(nl);
    let mut grad_ready = Vec::with_capacity(nl);
    for l in layers.iter().rev() {
        cursor += hw.bp_time(l, batch);
        grad_ready.push(cursor);
        if precond {
            cursor += hw.factor_g_time(l, batch);
            g_ready.push(cursor);
        }
    }
    let mut g_ctl = controller(&g_ready, &g_sizes_rev);
    let grad_sizes_rev: Vec<usize> = layers.iter().rev().map(|l| l.params()).collect();
    let mut grad_ctl = (!single && cfg.grad_fusion == GradFusionMode::Optimal).then(|| {
        FusionController::new(fusion::plan(
            &FactorPipeline::new(grad_ready, grad_sizes_rev).expect("grad pipeline"),
            &plan_comm,
            FusionStrategy::Optimal,
        ))
    });

    let mut last_bwd_id = 0usize;
    let mut g_comp_ids = Vec::with_capacity(nl);
    let mut grad_acc = 0usize;
    for (k, l) in layers.iter().rev().enumerate() {
        let bp_id = g.push(0, hw.bp_time(l, batch), &[], Tag::FfBp);
        last_bwd_id = bp_id;
        if precond {
            let gid = g.push(0, hw.factor_g_time(l, batch), &[], Tag::FactorComp);
            g_comp_ids.push(gid);
            last_bwd_id = gid;
            if let Some(bucket) = g_ctl.as_mut().and_then(|c| c.offer(k)) {
                let elems = bucket.iter().map(|&j| g_sizes_rev[j]).sum();
                let net = &mut *exec_net;
                factor_comm_ids.push(push_factor_comm(net, &mut g, &mut coll_seq, elems, gid));
            }
        }
        if !single {
            // This layer's gradients join the fusion buffer. MG-WFBP flushes
            // where the Eq. 15 plan over gradient ready times closes a
            // bucket; WFBP once the Horovod buffer capacity is reached.
            grad_acc += l.params();
            let flush = match grad_ctl.as_mut() {
                Some(ctl) => ctl.offer(k).is_some(),
                None => grad_acc >= cfg.grad_fusion_elems,
            };
            if flush {
                let meta = coll_meta(CollEdge::Join, &mut coll_seq, grad_acc);
                exec_net.push_allreduce(&mut g, grad_acc, &[bp_id], Tag::GradComm, meta);
                grad_acc = 0;
            }
        }
    }
    if !single && grad_acc > 0 {
        let meta = coll_meta(CollEdge::Join, &mut coll_seq, grad_acc);
        exec_net.push_allreduce(&mut g, grad_acc, &[last_bwd_id], Tag::GradComm, meta);
    }
    // Bulk sends every factor, Naive the G block, behind the gradients.
    let tail = match factor_mode {
        FactorCommMode::Bulk => {
            Some(a_sizes.iter().sum::<usize>() + g_sizes_rev.iter().sum::<usize>())
        }
        FactorCommMode::Naive => Some(g_sizes_rev.iter().sum()),
        _ => None,
    };
    if let Some(elems) = tail {
        let dep = *g_comp_ids.last().expect("layers non-empty");
        let net = &mut *exec_net;
        factor_comm_ids.push(push_factor_comm(net, &mut g, &mut coll_seq, elems, dep));
    }

    // ---------------- Inverse phase ---------------------------------------
    if precond {
        let inv_dims = model.all_factor_dims();
        let plan_bcast = plan_net.plan_bcast();
        let ctx = PlacementContext::new(&inv_dims, world, &phw.inverse, &plan_bcast)
            .with_gpus_per_node(plan_net.gpus_per_node());
        let plc = policy.place(&ctx);
        // Barrier: all factors aggregated (and backward finished).
        let mut barrier = factor_comm_ids.clone();
        barrier.push(last_bwd_id);
        let (gpu0_comp_ids, bcast_ids) = push_inverse_phase(
            &mut g,
            &mut *exec_net,
            &hw,
            &plc,
            &inv_dims,
            &barrier,
            &mut coll_seq,
        );
        // Preconditioning + update on the representative GPU.
        let mut update_deps = gpu0_comp_ids;
        update_deps.extend(&bcast_ids);
        let precond_time: f64 = layers
            .iter()
            .map(|l| l.precond_flops() / hw.gemm_flops + hw.kernel_overhead)
            .sum();
        g.push(0, precond_time, &update_deps, Tag::Other);
    } else {
        // SGD-style update.
        g.push(0, hw.kernel_overhead, &[], Tag::Other);
    }

    let spans = exec_net.execute(&mut g);
    attribute(spans, world)
}

/// Simulates the *average* iteration time when K-FAC's second-order work
/// (factor aggregation + inversion) runs only every `kfac_interval`-th
/// iteration, with the other iterations applying the stale preconditioner —
/// the amortization later systems (e.g. KAISA) build on, and an extension of
/// the paper's timing study (which refreshes every iteration).
///
/// Iterations without second-order work cost an S-SGD iteration plus the
/// preconditioning GEMMs.
///
/// # Panics
///
/// Panics if `kfac_interval == 0`.
pub fn simulate_amortized_iteration(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    kfac_interval: usize,
) -> f64 {
    assert!(kfac_interval > 0, "kfac_interval must be positive");
    let full = simulate_iteration(model, cfg, algo).total;
    if kfac_interval == 1 {
        return full;
    }
    // Light iteration: forward/backward + gradient aggregation + stale
    // preconditioning (no factor compute/comm, no inversions).
    let ssgd = simulate_iteration(model, cfg, Algo::SSgd).total;
    let hw = &cfg.hw;
    let precond: f64 = model
        .layers()
        .iter()
        .map(|l| l.precond_flops() / hw.gemm_flops + hw.kernel_overhead)
        .sum();
    let light = ssgd + precond;
    ((kfac_interval - 1) as f64 * light + full) / kfac_interval as f64
}

/// Simulates only the inverse phase (Fig. 12): inversion + broadcasting of
/// `dims` under `policy`, starting from idle at t = 0. Returns the phase
/// report (its `total` is the Fig. 12 bar).
pub fn simulate_inverse_phase(
    dims: &[usize],
    cfg: &SimConfig,
    policy: &dyn PlacementPolicy,
) -> SimReport {
    let world = cfg.world.max(1);
    let mut hw = cfg.hw.clone();
    hw.bcast.beta = hw.bcast.beta * (cfg.wire_bytes / 4.0) + cfg.codec_s_per_elem;
    let mut exec_net = net::build(&cfg.topology, &hw, world);
    let mut g = TaskGraph::new(exec_net.num_resources());
    let plan_bcast = exec_net.plan_bcast();
    let ctx = PlacementContext::new(dims, world, &hw.inverse, &plan_bcast)
        .with_gpus_per_node(exec_net.gpus_per_node());
    let plc = policy.place(&ctx);
    push_inverse_phase(&mut g, &mut *exec_net, &hw, &plc, dims, &[], &mut 0);
    let spans = exec_net.execute(&mut g);
    attribute(spans, world)
}

/// Outcome of the drifting-hardware replay (see [`simulate_drift_replay`]).
#[derive(Debug, Clone)]
pub struct DriftReplay {
    /// One iteration before the drift: planned and executed on `cfg.hw`.
    pub before: SimReport,
    /// One iteration after the drift with the **stale** generation-0 plan:
    /// planned from the pre-drift models, executed on the drifted hardware
    /// — what a static-plan trainer keeps paying.
    pub stale: SimReport,
    /// One iteration after the adaptive runtime's re-plan barrier: planned
    /// from the agreed post-drift models, executed on the drifted hardware.
    pub replanned: SimReport,
    /// The stale iteration followed by the re-planned one on a shared
    /// clock, with the re-planned iteration's collectives stamped
    /// generation 1 — a two-generation trace for the causal analyzer.
    pub spans: Vec<TaskSpan>,
}

impl DriftReplay {
    /// Modelled time the re-plan recovers per post-drift iteration.
    pub fn recovered_s(&self) -> f64 {
        self.stale.total - self.replanned.total
    }
}

/// Replays the adaptive runtime's drifting-hardware scenario in the
/// simulator: mid-run, the network's startup latency α multiplies by
/// `alpha_scale` (e.g. `2.0` = congestion doubles per-collective latency).
/// A static-plan trainer keeps executing the plan fitted to the old α
/// (`stale`); the adaptive runtime re-fits at the next barrier, agrees on
/// the drifted models, and swaps to the plan they imply (`replanned`).
/// Larger α penalizes many-message plans, so the re-planned fusion merges
/// more aggressively and the LBP placement re-balances CT/NCT choices.
///
/// # Panics
///
/// Panics if `alpha_scale` is not positive and finite.
pub fn simulate_drift_replay(
    model: &ModelProfile,
    cfg: &SimConfig,
    algo: Algo,
    alpha_scale: f64,
) -> DriftReplay {
    assert!(
        alpha_scale.is_finite() && alpha_scale > 0.0,
        "invalid alpha_scale {alpha_scale}"
    );
    let before = simulate_iteration(model, cfg, algo);
    let mut drifted = cfg.clone();
    drifted.hw.allreduce.alpha *= alpha_scale;
    drifted.hw.bcast.alpha *= alpha_scale;
    let stale = simulate_iteration_planned(model, &drifted, algo, Some(&cfg.hw));
    let replanned = simulate_iteration(model, &drifted, algo);
    // Generation-boundary trace: the stale (generation-0) iteration, then
    // the re-planned one shifted onto the same clock with its collectives
    // stamped generation 1 — per-epoch k-th-collective matching keeps the
    // two iterations' queues separate even though both restart seq at 0.
    let offset = stale.total;
    let mut spans = stale.spans.clone();
    spans.extend(replanned.spans.iter().map(|s| {
        let mut s = *s;
        s.start += offset;
        s.end += offset;
        if s.meta.edge.is_some() {
            s.meta.generation = Some(1);
        }
        s
    }));
    DriftReplay {
        before,
        stale,
        replanned,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_models::{densenet201, paper_models, resnet50};

    fn cfg() -> SimConfig {
        SimConfig::paper_testbed(64)
    }

    #[test]
    fn sgd_single_has_no_comm() {
        let r = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        assert_eq!(r.breakdown.grad_comm, 0.0);
        assert_eq!(r.breakdown.factor_comm, 0.0);
        assert!(r.breakdown.ff_bp > 0.0);
    }

    #[test]
    fn kfac_single_is_about_4x_sgd() {
        // Fig. 2: "KFAC takes about 4 times slower than SGD".
        let sgd = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        let kfac = simulate_iteration(&resnet50(), &cfg(), Algo::KfacSingle);
        let ratio = kfac.total / sgd.total;
        assert!(
            (2.5..6.0).contains(&ratio),
            "KFAC/SGD single-GPU ratio {ratio:.2} out of range"
        );
    }

    #[test]
    fn ssgd_adds_bounded_comm() {
        let sgd = simulate_iteration(&resnet50(), &cfg(), Algo::SgdSingle);
        let ssgd = simulate_iteration(&resnet50(), &cfg(), Algo::SSgd);
        assert!(ssgd.total > sgd.total);
        assert!(ssgd.breakdown.grad_comm > 0.0);
        // WFBP hides most gradient communication behind backward.
        assert!(ssgd.breakdown.grad_comm < 0.1);
    }

    #[test]
    fn table3_ordering_holds_on_all_models() {
        // SPD < MPD < D on ResNet/Inception; SPD < D < MPD on DenseNet-201.
        for m in paper_models() {
            let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
            let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
            let spd = simulate_iteration(&m, &cfg(), Algo::SpdKfac).total;
            assert!(spd < d, "{}: SPD {spd:.4} !< D {d:.4}", m.name());
            assert!(spd < mpd, "{}: SPD {spd:.4} !< MPD {mpd:.4}", m.name());
        }
    }

    #[test]
    fn densenet_mpd_slower_than_dkfac() {
        // Fig. 9 / Table III: MPD-KFAC loses to D-KFAC on DenseNet-201
        // because broadcasting hundreds of small inverses is startup-bound.
        let m = densenet201();
        let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
        let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
        assert!(mpd > d, "DenseNet-201: MPD {mpd:.4} should exceed D {d:.4}");
    }

    #[test]
    fn spd_hides_factor_comm() {
        let m = resnet50();
        let d = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let spd = simulate_iteration(&m, &cfg(), Algo::SpdKfac);
        assert!(
            spd.breakdown.factor_comm < d.breakdown.factor_comm,
            "SPD factor comm {:.4} !< D {:.4}",
            spd.breakdown.factor_comm,
            d.breakdown.factor_comm
        );
    }

    #[test]
    fn inverse_phase_lbp_beats_baselines() {
        // Fig. 12 orderings on all four models.
        for m in paper_models() {
            let dims = m.all_factor_dims();
            let non = simulate_inverse_phase(&dims, &cfg(), &PlacementStrategy::NonDist).total;
            let seq = simulate_inverse_phase(&dims, &cfg(), &PlacementStrategy::SeqDist).total;
            let lbp = simulate_inverse_phase(&dims, &cfg(), &PlacementStrategy::default()).total;
            assert!(
                lbp <= non * 1.001,
                "{}: LBP {lbp:.4} vs Non-Dist {non:.4}",
                m.name()
            );
            assert!(
                lbp <= seq * 1.001,
                "{}: LBP {lbp:.4} vs Seq-Dist {seq:.4}",
                m.name()
            );
        }
    }

    #[test]
    fn densenet_seqdist_worse_than_nondist() {
        // Fig. 12: Seq-Dist loses to Non-Dist on DenseNet-201.
        let m = densenet201();
        let dims = m.all_factor_dims();
        let non = simulate_inverse_phase(&dims, &cfg(), &PlacementStrategy::NonDist).total;
        let seq = simulate_inverse_phase(&dims, &cfg(), &PlacementStrategy::SeqDist).total;
        assert!(
            seq > non,
            "DenseNet-201: Seq-Dist {seq:.4} !> Non-Dist {non:.4}"
        );
    }

    #[test]
    fn breakdown_sums_to_total_everywhere() {
        for algo in [
            Algo::SgdSingle,
            Algo::KfacSingle,
            Algo::SSgd,
            Algo::DKfac,
            Algo::MpdKfac,
            Algo::SpdKfac,
        ] {
            let r = simulate_iteration(&resnet50(), &cfg(), algo);
            assert!(
                (r.breakdown.total() - r.total).abs() < 1e-9,
                "{algo:?}: breakdown {:.6} != total {:.6}",
                r.breakdown.total(),
                r.total
            );
        }
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let m = resnet50();
        let slow = cfg();
        let mut fast = cfg();
        fast.hw.allreduce.beta /= 4.0;
        fast.hw.bcast.beta /= 4.0;
        for algo in [Algo::SSgd, Algo::DKfac, Algo::MpdKfac, Algo::SpdKfac] {
            let ts = simulate_iteration(&m, &slow, algo).total;
            let tf = simulate_iteration(&m, &fast, algo).total;
            assert!(
                tf <= ts + 1e-9,
                "{algo:?}: faster net slower? {tf:.4} vs {ts:.4}"
            );
        }
    }

    #[test]
    fn mgwfbp_gradient_fusion_never_slower_for_ssgd() {
        // MG-WFBP's plan-based fusion should match or beat the Horovod
        // threshold buffer on S-SGD for every paper model.
        for m in paper_models() {
            let thr = simulate_iteration(&m, &cfg(), Algo::SSgd).total;
            let mut oc = cfg();
            oc.grad_fusion = GradFusionMode::Optimal;
            let opt = simulate_iteration(&m, &oc, Algo::SSgd).total;
            assert!(
                opt <= thr + 1e-4,
                "{}: MG-WFBP {opt:.4} > WFBP {thr:.4}",
                m.name()
            );
        }
    }

    #[test]
    fn per_root_parallel_network_never_slower() {
        // Removing broadcast serialization can only help (or tie).
        for m in paper_models() {
            let dims = m.all_factor_dims();
            for strategy in [PlacementStrategy::SeqDist, PlacementStrategy::default()] {
                let ser = simulate_inverse_phase(&dims, &cfg(), &strategy).total;
                let mut pcfg = cfg();
                pcfg.topology = NetTopology::per_root_parallel();
                let par = simulate_inverse_phase(&dims, &pcfg, &strategy).total;
                assert!(par <= ser + 1e-9, "{}: {par} > {ser}", m.name());
            }
        }
    }

    #[test]
    fn fp16_wire_halves_exposed_comm_cost() {
        let m = resnet50();
        let d32 = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let mut c16 = cfg();
        c16.wire_bytes = 2.0;
        let d16 = simulate_iteration(&m, &c16, Algo::DKfac);
        assert!(d16.total < d32.total);
        // The bulk factor all-reduce is exposed in D-KFAC; its β term halves
        // while the α term stays, so the saving is a bit under 2x.
        assert!(d16.breakdown.factor_comm < d32.breakdown.factor_comm * 0.7);
        assert!(d16.breakdown.factor_comm > d32.breakdown.factor_comm * 0.4);
    }

    #[test]
    fn codec_cost_erodes_the_compression_win() {
        // fp16 wire with a free codec beats fp32; the same wire with an
        // absurdly expensive codec is worse than not compressing at all.
        let m = resnet50();
        let d32 = simulate_iteration(&m, &cfg(), Algo::DKfac);
        let mut free = cfg();
        free.wire_bytes = 2.0;
        let d16 = simulate_iteration(&m, &free, Algo::DKfac);
        assert!(d16.breakdown.factor_comm < d32.breakdown.factor_comm);
        let mut costly = free.clone();
        costly.codec_s_per_elem = cfg().hw.allreduce.beta * 10.0;
        let slow = simulate_iteration(&m, &costly, Algo::DKfac);
        assert!(slow.breakdown.factor_comm > d32.breakdown.factor_comm);
    }

    #[test]
    fn amortized_iterations_interpolate_between_kfac_and_ssgd() {
        let m = resnet50();
        let full = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 1);
        let sparse = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 10);
        let very_sparse = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, 100);
        let ssgd = simulate_iteration(&m, &cfg(), Algo::SSgd).total;
        assert!(sparse < full);
        assert!(very_sparse < sparse);
        assert!(
            very_sparse > ssgd,
            "stale-factor K-FAC still costs more than S-SGD"
        );
        // Monotone decreasing in the interval.
        let mut prev = full;
        for k in [2usize, 4, 8, 16, 32] {
            let t = simulate_amortized_iteration(&m, &cfg(), Algo::SpdKfac, k);
            assert!(t <= prev + 1e-12, "interval {k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn simulated_collectives_carry_causal_metadata() {
        // Satellite: every simulated collective is stamped with edge/seq/
        // size so the causal analyzer resolves simulator stragglers exactly
        // (not via the EPS start-time heuristic).
        let r = simulate_iteration(&resnet50(), &cfg(), Algo::SpdKfac);
        let world = cfg().world;
        let comm: Vec<_> = r.spans.iter().filter(|s| s.tag.is_comm()).collect();
        assert!(!comm.is_empty());
        let mut seqs: Vec<u64> = Vec::new();
        for s in &comm {
            assert!(s.meta.edge.is_some(), "comm span missing edge: {s:?}");
            assert!(s.meta.size.is_some(), "comm span missing size: {s:?}");
            seqs.push(s.meta.seq.expect("comm span missing seq"));
        }
        seqs.sort_unstable();
        let expect: Vec<u64> = (0..comm.len() as u64).collect();
        assert_eq!(seqs, expect, "collective seqs must be 0..n unique");
        // The causal graph consumes the metadata end to end.
        let obs = crate::graph::to_obs_spans(&r.spans);
        let report = spdkfac_obs::CriticalReport::from_spans(
            &obs,
            spdkfac_obs::RankMap::simulator(world, world + 1),
        );
        assert!(report.path_total() >= 0.95 * report.wall());
    }

    #[test]
    fn drift_replay_replans_to_a_better_plan() {
        // Network α jumps 8x mid-run: the stale plan (fitted to the cheap
        // α) pays exposed latency on every small message; the re-planned
        // iteration merges harder and re-balances, beating the stale plan.
        let m = resnet50();
        let r = simulate_drift_replay(&m, &cfg(), Algo::SpdKfac, 8.0);
        assert!(
            r.stale.total > r.before.total,
            "drift must hurt: stale {:.4} !> before {:.4}",
            r.stale.total,
            r.before.total
        );
        assert!(
            r.replanned.total < r.stale.total,
            "re-plan must beat the stale plan: {:.4} !< {:.4}",
            r.replanned.total,
            r.stale.total
        );
        assert!(r.recovered_s() > 0.0);
        // The concatenated trace spans both generations…
        assert!(r
            .spans
            .iter()
            .any(|s| s.meta.generation == Some(1) && s.meta.edge.is_some()));
        assert!(r
            .spans
            .iter()
            .any(|s| s.meta.generation.is_none() && s.meta.edge.is_some()));
        // …and the causal analyzer still attributes ≥95% of wall time
        // across the generation boundary.
        let world = cfg().world;
        let obs = crate::graph::to_obs_spans(&r.spans);
        let report = spdkfac_obs::CriticalReport::from_spans(
            &obs,
            spdkfac_obs::RankMap::simulator(world, world + 1),
        );
        assert!(
            report.path_total() >= 0.95 * report.wall(),
            "attribution {:.1}% across generation boundary",
            100.0 * report.path_total() / report.wall()
        );
    }

    #[test]
    fn drift_replay_identity_scale_is_a_fixed_point() {
        // alpha_scale = 1 drifts nothing: the "stale" and "re-planned"
        // iterations are the same schedule (no spurious plan churn).
        let m = resnet50();
        let r = simulate_drift_replay(&m, &cfg(), Algo::SpdKfac, 1.0);
        assert!((r.stale.total - r.before.total).abs() < 1e-12);
        assert!((r.replanned.total - r.before.total).abs() < 1e-12);
    }

    #[test]
    fn fusion_strategy_ordering_fig10() {
        // Fig. 10 shape: on the non-overlapped factor-comm metric OTF beats
        // Naive and LW outright and stays within scheduling noise of TTF
        // (whose exposure OTF trades for a faster overall iteration); on
        // iteration time OTF is the best strategy on every model.
        for m in paper_models() {
            let run = |mode: FactorCommMode| {
                let mut c = cfg();
                c.factor_mode = Some(mode);
                let r = simulate_iteration(&m, &c, Algo::SpdKfac);
                (r.breakdown.factor_comm, r.total)
            };
            let naive = run(FactorCommMode::Naive);
            let lw = run(FactorCommMode::Pipelined(FusionStrategy::LayerWise));
            let ttf = run(FactorCommMode::Pipelined(FusionStrategy::Threshold {
                elems: 16 * 1024 * 1024,
                cycle_s: 0.005,
            }));
            let otf = run(FactorCommMode::Pipelined(FusionStrategy::Optimal));
            assert!(
                otf.0 <= naive.0 + 1e-9,
                "{}: OTF {:.4} > Naive {:.4}",
                m.name(),
                otf.0,
                naive.0
            );
            assert!(
                otf.0 <= lw.0 + 1e-9,
                "{}: OTF {:.4} > LW {:.4}",
                m.name(),
                otf.0,
                lw.0
            );
            assert!(
                otf.0 <= ttf.0 + 0.01,
                "{}: OTF {:.4} ≫ TTF {:.4}",
                m.name(),
                otf.0,
                ttf.0
            );
            for (name, other) in [("Naive", naive.1), ("LW", lw.1), ("TTF", ttf.1)] {
                assert!(
                    otf.1 <= other + 1e-9,
                    "{}: OTF total {:.4} > {name} total {other:.4}",
                    m.name(),
                    otf.1
                );
            }
        }
    }
}
