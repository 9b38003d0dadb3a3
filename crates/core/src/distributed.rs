//! Multi-worker trainers over real in-process collectives: S-SGD, D-KFAC,
//! MPD-KFAC and SPD-KFAC.
//!
//! All three K-FAC variants execute the *same* mathematics (Eq. 13); they
//! differ only in **how Kronecker factors are communicated** and **where the
//! inverses are computed**:
//!
//! | Variant  | factor communication | inverse placement |
//! |----------|----------------------|-------------------|
//! | D-KFAC   | one bulk all-reduce after backward | every GPU inverts everything ([`PlacementStrategy::NonDist`]) |
//! | MPD-KFAC | one bulk all-reduce after backward | round-robin, broadcast results ([`PlacementStrategy::SeqDist`]) |
//! | SPD-KFAC | pipelined per-bucket all-reduces during forward/backward with dynamic tensor fusion (Eq. 15) | Algorithm 1 (LBP) with CT/NCT classification |
//!
//! Consequently the parameter trajectories of the three variants agree to
//! floating-point reordering noise — asserted by the integration tests —
//! which is the paper's premise for comparing them on wall-clock time only
//! (§VI: *"our proposed algorithms are systemic optimizations without
//! affecting the numerical results"*).

use crate::calibrate::Calibrator;
use crate::ekfac::precondition_ekfac;
use crate::elastic::{ElasticPolicy, FactorCheckpoint, MembershipSpan, TrainCheckpoint};
use crate::factors::{local_factor_a, local_factor_g, FactorState};
use crate::fusion::{self, FactorPipeline, FusionStrategy};
use crate::optimizer::KfacConfig;
use crate::perf::{AlphaBetaModel, ExpInverseModel};
use crate::placement::{self, PlacementStrategy, TensorAssignment};
use crate::precond::{apply_kl_clip, build_directions};
use crate::runtime::{self, ReplanController, ReplanPolicy};
use spdkfac_collectives::{
    connect_elastic, elastic_poll, Backend, CommError, CommGroup, JoinIntent, PendingOp, TcpConfig,
    WirePolicy, WorkerComm,
};
use spdkfac_nn::data::Dataset;
use spdkfac_nn::loss::softmax_cross_entropy;
use spdkfac_nn::optim::Sgd;
use spdkfac_nn::Sequential;
use spdkfac_obs::{Phase, Recorder, SpanGuard};
use spdkfac_tensor::eig::sym_eig;
use spdkfac_tensor::{chol, Matrix, SymPacked};
use std::sync::Arc;
use std::time::Instant;

/// An in-flight fused factor all-reduce: the `(layer, side)` tensors it
/// carries, their packed lengths, and the async handle to wait on.
type PendingFactors = (Vec<(usize, Side)>, Vec<usize>, PendingOp);

/// Which training algorithm the workers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// First-order baseline: gradients all-reduced, no preconditioning.
    SSgd,
    /// D-KFAC: bulk factor aggregation, local inversion everywhere.
    DKfac,
    /// MPD-KFAC: bulk factor aggregation, round-robin distributed inversion
    /// with result broadcasts (the prior state of the art, §II-B).
    MpdKfac,
    /// SPD-KFAC: pipelined factor aggregation with dynamic tensor fusion +
    /// load-balancing inverse placement (the paper's contribution, §IV).
    SpdKfac,
    /// Distributed EKFAC (extension): SPD-KFAC's pipelined aggregation and
    /// LBP machinery, but the per-tensor operation is an eigendecomposition
    /// (broadcasting `Q‖λ`) and preconditioning runs in the Kronecker
    /// eigenbasis with moment-corrected scales (see [`crate::ekfac`]).
    EkfacSpd,
}

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of worker ranks.
    pub world: usize,
    /// Training algorithm.
    pub algorithm: Algorithm,
    /// K-FAC hyper-parameters (ignored by [`Algorithm::SSgd`] except lr /
    /// momentum / weight decay).
    pub kfac: KfacConfig,
    /// Fusion strategy for SPD-KFAC's factor pipeline.
    pub fusion: FusionStrategy,
    /// Inverse placement strategy override. Defaults depend on the
    /// algorithm (NonDist / SeqDist / LBP); set explicitly for ablations.
    pub placement: Option<PlacementStrategy>,
    /// Inversion-cost model used by LBP's NCT test.
    pub comp_model: ExpInverseModel,
    /// Broadcast-cost model used by LBP's NCT test.
    pub comm_model: AlphaBetaModel,
    /// WFBP gradient fusion-buffer capacity in elements: gradients are
    /// all-reduced asynchronously during backward once this many elements
    /// have accumulated (Horovod's 64 MB buffer ≙ 16 M fp32 elements).
    pub grad_fusion_elems: usize,
    /// Adaptive re-planning policy (see [`crate::runtime`]). At each due
    /// inter-iteration barrier every rank refits its calibrator, the fitted
    /// coefficients are agreement-all-reduced, and placement + fusion plans
    /// are deterministically recomputed from the agreed models; a changed
    /// plan is swapped in atomically with a generation bump. Calibration
    /// samples come off the recorder, so under [`train`] (no recorder) a
    /// due barrier still synchronizes but re-plans from the baseline models
    /// — a fixed point.
    pub replan: ReplanPolicy,
    /// Per-op-kind wire encoding for the collectives (see
    /// [`spdkfac_collectives::wire`]). Defaults to the bit-exact f64
    /// pass-through; compressed formats (`WirePolicy::parse("f16")`,
    /// `"grad=topk:0.01,factor=f16"`, …) trade bounded numerical error for
    /// wire bytes. Re-plan barriers account for the format: the agreed
    /// wire-byte and codec fits are composed into an effective per-element
    /// model for the factor format before fusion planning.
    pub wire: WirePolicy,
}

impl DistributedConfig {
    /// A ready-to-run configuration for `world` workers and `algorithm`,
    /// with paper-like default cost models.
    pub fn new(world: usize, algorithm: Algorithm) -> Self {
        DistributedConfig {
            world,
            algorithm,
            kfac: KfacConfig::default(),
            fusion: FusionStrategy::Optimal,
            placement: None,
            // Arbitrary-but-plausible CPU-scale models; placement
            // correctness does not depend on the constants.
            comp_model: ExpInverseModel::new(5e-5, 2e-3),
            comm_model: AlphaBetaModel::new(2e-4, 2e-9),
            grad_fusion_elems: 16 * 1024 * 1024,
            replan: ReplanPolicy::Off,
            wire: WirePolicy::default(),
        }
    }

    fn effective_placement(&self) -> PlacementStrategy {
        self.placement.unwrap_or(match self.algorithm {
            Algorithm::SSgd | Algorithm::DKfac => PlacementStrategy::NonDist,
            Algorithm::MpdKfac => PlacementStrategy::SeqDist,
            Algorithm::SpdKfac | Algorithm::EkfacSpd => PlacementStrategy::default(),
        })
    }
}

/// Outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Globally-averaged training loss per iteration.
    pub losses: Vec<f64>,
    /// Flattened final parameters (identical on every rank up to fp noise;
    /// taken from rank 0).
    pub final_params: Vec<f64>,
    /// Total `f64` elements moved over the ring during the run.
    pub traffic_elements: u64,
    /// Total post-encoding bytes actually put on the wire — equals
    /// `8 * traffic_elements` under the f64 pass-through, less under
    /// compressed wire formats.
    pub traffic_wire_bytes: u64,
    /// Collective operations executed (per-rank executions summed).
    pub collective_ops: u64,
    /// Stable-membership intervals the run passed through. Non-elastic runs
    /// report a single epoch-0 span; elastic runs append one span per
    /// membership epoch they participated in (the resize timeline).
    pub membership: Vec<MembershipSpan>,
}

/// The unified entry point to every trainer mode — local in-process groups,
/// a single rank of an external (TCP) group, and the elastic fault-tolerant
/// runtime — configured fluently:
///
/// ```
/// use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
/// use spdkfac_nn::data::gaussian_blobs;
/// use spdkfac_nn::models::mlp;
///
/// let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
/// cfg.kfac.damping = 0.1;
/// cfg.kfac.momentum = 0.0;
/// let data = gaussian_blobs(3, 6, 16, 0.3, 17);
/// let r = TrainSession::builder(cfg)
///     .run(&|| mlp(&[6, 12, 3], 3), &data, 4, 4)
///     .expect("local run");
/// assert_eq!(r.losses.len(), 4);
/// ```
///
/// Modes (chosen by which builder methods were called):
///
/// - **Local** (default): spawns `config.world` worker threads over the
///   in-process backend — the replacement for the deprecated [`train`] /
///   [`train_with_recorder`].
/// - **Endpoint** ([`TrainSession::endpoint`]): runs this process as one
///   rank of an already-connected group — the replacement for the
///   deprecated [`train_worker`]. Peer failures surface as `Err` instead
///   of a panic.
/// - **Elastic** ([`TrainSession::elastic`]): joins an
///   [`spdkfac_collectives::ElasticRendezvous`] and survives membership
///   changes — rank death shrinks the world at the next barrier, joiners
///   are absorbed with a full state handoff (see [`crate::elastic`] and
///   DESIGN §2.15).
///
/// `build` must be deterministic so all replicas start identical.
#[derive(Debug)]
pub struct TrainSession {
    config: DistributedConfig,
    recorder: Option<Arc<Recorder>>,
    endpoint: Option<WorkerComm>,
    elastic: Option<ElasticPolicy>,
}

impl TrainSession {
    /// Starts configuring a session running `config`.
    pub fn builder(config: DistributedConfig) -> TrainSession {
        TrainSession {
            config,
            recorder: None,
            endpoint: None,
            elastic: None,
        }
    }

    /// Attaches a recorder: every worker records phase-tagged spans and
    /// metrics into `rec`, laid out as [`spdkfac_obs::TrackLayout::trainer`]
    /// — rank `r`'s compute thread on track `r`, its communication thread on
    /// track `world + r` (spans on out-of-range tracks are dropped, so a
    /// recorder sized for the initial world stays safe across elastic
    /// resizes). After the run,
    /// `IterationBreakdown::from_recorder(&rec, world)` yields the measured
    /// counterpart of the simulator's breakdown.
    pub fn recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Runs this process as one rank of an externally-connected group
    /// (e.g. a [`Backend::Tcp`] endpoint from a multi-process launcher)
    /// instead of spawning local worker threads. Mutually exclusive with
    /// [`TrainSession::elastic`].
    pub fn endpoint(mut self, comm: WorkerComm) -> Self {
        self.endpoint = Some(comm);
        self
    }

    /// Joins an elastic rendezvous instead of a fixed-membership group; the
    /// run then survives rank deaths (world shrinks at the next barrier)
    /// and absorbs joiners (world grows, with checkpointed state handoff).
    /// `config.world` is ignored — the rendezvous dictates the world size
    /// of each membership epoch. Mutually exclusive with
    /// [`TrainSession::endpoint`].
    pub fn elastic(mut self, policy: ElasticPolicy) -> Self {
        self.elastic = Some(policy);
        self
    }

    /// Trains `iters` iterations of `config.algorithm` on `dataset` with
    /// `batch` samples per rank per iteration, and returns rank-valid
    /// results (losses are globally averaged, so all ranks report the same
    /// values).
    ///
    /// # Errors
    ///
    /// Communication failures in endpoint mode, and unrecoverable elastic
    /// failures (world below `min_world`, epoch budget exhausted, corrupt
    /// state handoff) in elastic mode. Local mode is infallible.
    ///
    /// # Panics
    ///
    /// Panics if any rank's data shard is smaller than `batch`, or if a
    /// damped factor fails to invert (raise `config.kfac.damping`) — the
    /// numerics stay fail-fast in every mode.
    pub fn run(
        self,
        build: &(dyn Fn() -> Sequential + Sync),
        dataset: &Dataset,
        iters: usize,
        batch: usize,
    ) -> Result<RunResult, CommError> {
        match (self.endpoint, self.elastic) {
            (Some(_), Some(_)) => Err(CommError::Rendezvous(
                "TrainSession: endpoint and elastic modes are mutually exclusive".into(),
            )),
            (None, Some(policy)) => run_elastic(
                &self.config,
                &policy,
                build,
                dataset,
                iters,
                batch,
                self.recorder,
            ),
            (Some(comm), None) => worker_impl(
                &self.config,
                build,
                dataset,
                iters,
                batch,
                comm,
                self.recorder,
            ),
            (None, None) => Ok(local_train_impl(
                &self.config,
                build,
                dataset,
                iters,
                batch,
                self.recorder.as_ref(),
            )),
        }
    }
}

/// Trains `iters` iterations of `cfg.algorithm` on `dataset` with one model
/// replica per rank (built by `build`, which must be deterministic so all
/// replicas start identical) and `batch` samples per rank per iteration.
///
/// # Panics
///
/// Panics if any rank's data shard is smaller than `batch`, or if a damped
/// factor fails to invert (raise `cfg.kfac.damping`).
#[deprecated(note = "use TrainSession::builder(cfg).run(...)")]
pub fn train(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
) -> RunResult {
    local_train_impl(cfg, build, dataset, iters, batch, None)
}

/// [`train`], instrumented: every worker records phase-tagged spans and
/// metrics into `rec` (see [`TrainSession::recorder`] for the layout).
///
/// # Panics
///
/// As [`train`].
#[deprecated(note = "use TrainSession::builder(cfg).recorder(rec).run(...)")]
pub fn train_with_recorder(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    rec: &Arc<Recorder>,
) -> RunResult {
    local_train_impl(cfg, build, dataset, iters, batch, Some(rec))
}

fn local_train_impl(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    rec: Option<&Arc<Recorder>>,
) -> RunResult {
    let endpoints = CommGroup::builder()
        .world_size(cfg.world)
        .backend(Backend::Local)
        .wire_policy(cfg.wire)
        .build()
        .expect("local backend is infallible")
        .into_endpoints();
    let mut result: Option<RunResult> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for comm in endpoints {
            let cfg = cfg.clone();
            let rec = rec.map(Arc::clone);
            handles.push(s.spawn(move || {
                let rank = comm.rank();
                worker_impl(&cfg, build, dataset, iters, batch, comm, rec)
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            let r = h.join().expect("worker panicked");
            if rank == 0 {
                result = Some(r);
            }
        }
    });
    result.expect("rank 0 result missing")
}

/// Per-factor bookkeeping for the SPD pipeline: which state and side a
/// pipeline position refers to.
#[derive(Debug, Clone, Copy)]
enum Side {
    A,
    G,
}

/// Per-worker span handle: phase spans on the worker's compute track
/// (`track == rank`), all no-ops when no recorder is attached.
struct WorkerObs {
    rec: Option<Arc<Recorder>>,
    track: usize,
}

impl WorkerObs {
    /// Opens a phase span on this worker's compute track; recorded on drop.
    fn span(&self, phase: Phase) -> Option<SpanGuard<'_>> {
        self.rec.as_deref().map(|r| r.span(self.track, phase))
    }

    /// As [`WorkerObs::span`], carrying a payload size in the span metadata
    /// (tensor dimension for inversions) for online calibration.
    fn sized_span(&self, phase: Phase, size: usize) -> Option<SpanGuard<'_>> {
        self.span(phase).map(|g| g.sized(size))
    }

    /// As [`WorkerObs::span`], with a display label. The per-iteration
    /// update spans are labeled `iter<N>` so the live telemetry monitor
    /// and merged traces have explicit iteration boundaries.
    fn labeled_span(&self, phase: Phase, label: String) -> Option<SpanGuard<'_>> {
        self.rec
            .as_deref()
            .map(|r| r.span_labeled(self.track, phase, label))
    }

    /// Records one realized fused-message flush (satellite of §IV-A): the
    /// planned bucket counts are published as gauges once, but the bytes
    /// actually moved per flush are only known here. `pass` is `"a"` or
    /// `"g"`.
    fn record_flush(&self, pass: &str, elems: usize) {
        if let Some(r) = &self.rec {
            let m = r.metrics();
            m.histogram("fusion/realized/elems").observe(elems as f64);
            m.counter(&format!("fusion/{pass}/flushes")).inc();
            m.counter(&format!("fusion/{pass}/realized_elems"))
                .add(elems as u64);
        }
    }
}

/// Runs one rank's full training loop over an already-connected communicator
/// endpoint — the backend-agnostic entry point beneath the local trainer.
///
/// # Panics
///
/// Panics on any communication failure (the historical behavior). The
/// replacement — `TrainSession::builder(cfg).endpoint(comm)` — surfaces
/// those as `Err` instead.
#[deprecated(note = "use TrainSession::builder(cfg).endpoint(comm).run(...)")]
pub fn train_worker(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    comm: WorkerComm,
    rec: Option<Arc<Recorder>>,
) -> RunResult {
    let rank = comm.rank();
    worker_impl(cfg, build, dataset, iters, batch, comm, rec)
        .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
}

/// One rank over an already-connected endpoint: fresh state, one segment.
fn worker_impl(
    cfg: &DistributedConfig,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    comm: WorkerComm,
    rec: Option<Arc<Recorder>>,
) -> Result<RunResult, CommError> {
    let rank = comm.rank();
    let world = comm.world_size();
    // Communication threads record on tracks `world..2*world`
    // (TrackLayout::trainer); the phase of each collective is captured at
    // submission time from the worker's current phase tag.
    if let Some(r) = &rec {
        comm.set_recorder(Arc::clone(r), world + rank);
    }
    let obs = WorkerObs { rec, track: rank };
    let mut ws = WorkerState::fresh(cfg, build);
    train_segment(cfg, &mut ws, dataset, iters, batch, &comm, &obs, None)?;
    let stats = comm.stats();
    Ok(RunResult {
        losses: ws.losses,
        final_params: ws.net.flat_params(),
        traffic_elements: stats.elements_sent(),
        traffic_wire_bytes: stats.wire_bytes_sent(),
        collective_ops: stats.ops_executed(),
        membership: vec![MembershipSpan {
            epoch: 0,
            world,
            from_iter: 0,
        }],
    })
}

/// A rank's complete mutable training state, detached from any communicator
/// — the unit that survives an elastic membership change. Everything else
/// the loop needs (shards, placement, fusion plans, calibration) is derived
/// per segment from this state plus the current world size.
struct WorkerState {
    net: Sequential,
    sgd: Sgd,
    states: Vec<FactorState>,
    ekfac_bases: Vec<Option<(Matrix, Vec<f64>)>>,
    ekfac_scales: Vec<Option<Matrix>>,
    losses: Vec<f64>,
    /// Next iteration to execute; prior iterations are complete.
    next_iter: usize,
}

impl WorkerState {
    fn fresh(cfg: &DistributedConfig, build: &(dyn Fn() -> Sequential + Sync)) -> WorkerState {
        let net = build();
        let pre = net.preconditionable();
        let nlayers = pre.len();
        WorkerState {
            sgd: Sgd::new(cfg.kfac.lr, cfg.kfac.momentum, cfg.kfac.weight_decay),
            states: pre.iter().map(|&li| FactorState::new(li)).collect(),
            ekfac_bases: vec![None; 2 * nlayers],
            ekfac_scales: vec![None; nlayers],
            losses: Vec::new(),
            next_iter: 0,
            net,
        }
    }

    fn checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint::capture(
            self.next_iter,
            &self.losses,
            &self.net,
            &self.sgd,
            &self.states,
            &self.ekfac_bases,
            &self.ekfac_scales,
        )
    }

    fn restore(&mut self, ckpt: &TrainCheckpoint) {
        self.net.set_flat_params(&ckpt.params);
        self.sgd.set_velocity(ckpt.velocity.clone());
        self.states = ckpt.factors.iter().map(FactorCheckpoint::restore).collect();
        self.ekfac_bases = ckpt.ekfac_bases.clone();
        self.ekfac_scales = ckpt.ekfac_scales.clone();
        self.losses = ckpt.losses.clone();
        self.next_iter = ckpt.iter;
    }
}

/// How a [`train_segment`] call ended (when it didn't fail).
enum SegmentEnd {
    /// All requested iterations are complete.
    Done,
    /// The group agreed (via the loss all-reduce's piggybacked flag) to
    /// pause at this barrier and re-form with pending joiners.
    ResizeRequested,
    /// This rank's `leave_after` budget is spent; the caller should drop
    /// the endpoint without rejoining.
    Leave,
}

/// Elastic context of one segment; `None` runs the loop in classic
/// fixed-membership mode (bit-identical to the historical trainer).
struct SegmentElastic {
    tcp: TcpConfig,
    poll_every: usize,
    leave_after: Option<usize>,
}

/// Fallible sync all-reduce: the async op plus an error-propagating wait
/// (the `WorkerComm` sync wrappers panic instead, which elastic segments
/// must not).
fn allreduce_avg_checked(comm: &WorkerComm, buf: &mut [f64]) -> Result<(), CommError> {
    let out = comm.allreduce_avg_async(buf.to_vec()).wait()?;
    buf.copy_from_slice(&out.data);
    Ok(())
}

/// Runs iterations `ws.next_iter..iters` of one rank's training loop over
/// `comm`, mutating `ws` in place so the caller can hand the state to a
/// successor group on membership changes. Communication failures surface as
/// `Err` with `ws` left at the last completed iteration boundary; numeric
/// failures stay panics in every mode.
#[allow(clippy::too_many_arguments)]
fn train_segment(
    cfg: &DistributedConfig,
    ws: &mut WorkerState,
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    comm: &WorkerComm,
    obs: &WorkerObs,
    elastic: Option<&SegmentElastic>,
) -> Result<SegmentEnd, CommError> {
    let rank = comm.rank();
    let world = comm.world_size();
    let WorkerState {
        net,
        sgd,
        states,
        ekfac_bases,
        ekfac_scales,
        losses,
        next_iter,
    } = ws;
    let shard = dataset.shard(world, rank);
    assert!(
        shard.len() >= batch,
        "rank {rank}: shard of {} samples cannot supply batches of {batch}",
        shard.len()
    );

    // Preconditionable-layer bookkeeping. The factor states live in `ws`
    // (they survive segments); only the index map is rebuilt here.
    let pre = net.preconditionable();
    let nlayers = pre.len();
    let mut state_of_layer = vec![None; net.len()];
    assert_eq!(states.len(), nlayers, "factor state count mismatch");
    for (si, &li) in pre.iter().enumerate() {
        state_of_layer[li] = Some(si);
        assert_eq!(states[si].layer(), li, "factor state layer mismatch");
    }
    let dims = net.kfac_dims(); // (a_dim, g_dim) per state
    let a_sizes: Vec<usize> = dims.iter().map(|&(a, _)| a * (a + 1) / 2).collect();
    let g_sizes: Vec<usize> = dims.iter().map(|&(_, g)| g * (g + 1) / 2).collect();

    // Inverse placement over the 2L tensors (A_l, G_l interleaved). The
    // generation-0 plan goes into the epoch-versioned store; re-plan
    // barriers may swap it later (see `crate::runtime`).
    let inv_dims: Vec<usize> = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
    let inv_placement = placement::place(
        &inv_dims,
        world,
        &cfg.comp_model,
        &cfg.comm_model,
        cfg.effective_placement(),
    );
    // Publish the load balancer's verdict once (rank 0): CT/NCT counts and
    // the modelled per-GPU load it balanced (Eq. 21).
    if rank == 0 {
        if let Some(r) = &obs.rec {
            let m = r.metrics();
            let ncts = inv_placement.num_nct();
            m.gauge("placement/nct").set(ncts as f64);
            m.gauge("placement/ct")
                .set((inv_placement.assignments().len() - ncts) as f64);
            let loads = inv_placement.per_gpu_load(&inv_dims, &cfg.comp_model, &cfg.comm_model);
            for (g, load) in loads.iter().enumerate() {
                m.gauge(&format!("placement/gpu{g}/load")).set(*load);
            }
        }
    }
    let mut store = runtime::PlanStore::new(inv_placement, None, None);
    let mut controller = ReplanController::new(cfg.replan);
    let mut calibrator = Calibrator::new(cfg.comp_model, cfg.comm_model);
    // Recorder high-water mark: spans ending before this were already fed
    // to the calibrator at an earlier barrier.
    let mut ingested_until = 0.0f64;
    // Measured pipelines saved from the iteration-0 plan agreement, so
    // re-plan barriers can recompute fusion plans from the agreed models.
    let mut a_pipeline: Option<FactorPipeline> = None;
    let mut g_pipeline: Option<FactorPipeline> = None;

    // EKFAC extension state (per-tensor eigenbases and per-layer scales)
    // lives in `ws` alongside the optimizer; assert shapes after a restore.
    assert_eq!(ekfac_bases.len(), 2 * nlayers, "eigenbasis count mismatch");
    assert_eq!(ekfac_scales.len(), nlayers, "eigenscale count mismatch");

    let flight = spdkfac_obs::flight::global();
    let seg_start = *next_iter;
    // A mid-iteration abort records the interrupted iteration's loss (it is
    // pushed before the factor/inverse ops that may fail) without advancing
    // the resume point; the retry re-records it, so drop any tail past the
    // last completed iteration. SPMD-safe: every rank resumes from the same
    // handed-off state.
    losses.truncate(seg_start);
    for iter in seg_start..iters {
        let flight_iter_start = flight.now();
        let start = (iter * batch) % (shard.len() - batch + 1);
        let (x, y) = shard.batch(start, batch);
        let capture = cfg.algorithm != Algorithm::SSgd;

        // ---------- Forward (+ pipelined A-factor aggregation for SPD) ----
        let mut a_ready = vec![0.0f64; nlayers];
        let mut pending: Vec<PendingFactors> = Vec::new();
        let pipelined = matches!(cfg.algorithm, Algorithm::SpdKfac | Algorithm::EkfacSpd);
        // Collectives submitted during the forward pass are the pipelined
        // A-factor all-reduces.
        comm.set_phase(Phase::FactorComm);
        let forward_span = obs.span(Phase::FfBp);
        let out = if pipelined {
            // Until the first iteration's ready times are agreed, nothing is
            // known to hide a message behind: each pass goes out as one
            // message (Naive), not one startup per factor that a short pass
            // would leave fully exposed.
            let plan = store.current().a_fusion.clone().unwrap_or_else(|| {
                fusion::plan(
                    &FactorPipeline::new(vec![0.0; nlayers], a_sizes.clone()).expect("valid"),
                    &cfg.comm_model,
                    FusionStrategy::Naive,
                )
            });
            let t0 = Instant::now();
            let mut pos = 0usize;
            let mut ctl = fusion::FusionController::new(plan);
            let mut buf: Vec<SymPacked> = Vec::new();
            let out = net.forward_each(&x, capture, |_, layer| {
                if let Some(a_rows) = layer.take_a_stat() {
                    a_ready[pos] = t0.elapsed().as_secs_f64();
                    let factor = {
                        let _fc = obs.span(Phase::FactorComp);
                        SymPacked::from_matrix(&local_factor_a(&a_rows))
                    };
                    buf.push(factor);
                    if let Some(positions) = ctl.offer(pos) {
                        let members: Vec<(usize, Side)> =
                            positions.iter().map(|&p| (p, Side::A)).collect();
                        let sizes: Vec<usize> = buf.iter().map(|s| s.len()).collect();
                        let concat: Vec<f64> =
                            buf.drain(..).flat_map(SymPacked::into_vec).collect();
                        if rank == 0 {
                            obs.record_flush("a", concat.len());
                        }
                        pending.push((members, sizes, comm.allreduce_avg_async(concat)));
                    }
                    pos += 1;
                }
            });
            assert!(ctl.is_drained(), "unflushed A-factor bucket");
            out
        } else {
            net.forward(&x, capture)
        };
        drop(forward_span);

        // ---------- Loss ------------------------------------------------
        let (local_loss, grad) = softmax_cross_entropy(&out, &y);

        // ---------- Backward: WFBP gradient aggregation (all algorithms)
        // and pipelined G-factor aggregation (SPD). Gradients of each layer
        // become ready as its backward runs; they join a fusion buffer and
        // are all-reduced asynchronously once `grad_fusion_elems` is reached
        // — the wait-free back-propagation of §II-A.
        let mut g_ready = vec![0.0f64; nlayers];
        let mut spd_g = if pipelined {
            let plan = store.current().g_fusion.clone().unwrap_or_else(|| {
                let rev_sizes: Vec<usize> = g_sizes.iter().rev().copied().collect();
                fusion::plan(
                    &FactorPipeline::new(vec![0.0; nlayers], rev_sizes).expect("valid"),
                    &cfg.comm_model,
                    FusionStrategy::Naive,
                )
            });
            Some((
                fusion::FusionController::new(plan),
                Vec::<SymPacked>::new(),
                0usize,
            ))
        } else {
            None
        };
        // In-flight gradient buckets: (segments = (layer, param, len), handle).
        type GradSegment = (usize, usize, usize);
        let mut grad_pending: Vec<(Vec<GradSegment>, PendingOp)> = Vec::new();
        let mut grad_buf: Vec<f64> = Vec::new();
        let mut grad_segments: Vec<GradSegment> = Vec::new();
        let t0 = Instant::now();
        let backward_span = obs.span(Phase::FfBp);
        net.backward_each(&grad, |li, layer| {
            // (a) SPD: G-factor capture + fused async all-reduce.
            if let Some((ctl, buf, pos)) = spd_g.as_mut() {
                if let Some((g_rows, n)) = layer.take_g_stat() {
                    g_ready[*pos] = t0.elapsed().as_secs_f64();
                    let factor = {
                        let _fc = obs.span(Phase::FactorComp);
                        SymPacked::from_matrix(&local_factor_g(&g_rows, n))
                    };
                    buf.push(factor);
                    if let Some(positions) = ctl.offer(*pos) {
                        let members: Vec<(usize, Side)> =
                            positions.iter().map(|&p| (p, Side::G)).collect();
                        let sizes: Vec<usize> = buf.iter().map(|s| s.len()).collect();
                        let concat: Vec<f64> =
                            buf.drain(..).flat_map(SymPacked::into_vec).collect();
                        if rank == 0 {
                            obs.record_flush("g", concat.len());
                        }
                        comm.set_phase(Phase::FactorComm);
                        pending.push((members, sizes, comm.allreduce_avg_async(concat)));
                    }
                    *pos += 1;
                }
            }
            // (b) WFBP: this layer's gradients join the fusion buffer.
            for (pi, p) in layer.params().iter().enumerate() {
                grad_segments.push((li, pi, p.grad.as_slice().len()));
                grad_buf.extend_from_slice(p.grad.as_slice());
            }
            if grad_buf.len() >= cfg.grad_fusion_elems {
                comm.set_phase(Phase::GradComm);
                grad_pending.push((
                    std::mem::take(&mut grad_segments),
                    comm.allreduce_avg_async(std::mem::take(&mut grad_buf)),
                ));
            }
        });
        drop(backward_span);
        if let Some((ctl, _, _)) = &spd_g {
            assert!(ctl.is_drained(), "unflushed G-factor bucket");
        }
        if !grad_buf.is_empty() {
            comm.set_phase(Phase::GradComm);
            grad_pending.push((
                std::mem::take(&mut grad_segments),
                comm.allreduce_avg_async(std::mem::take(&mut grad_buf)),
            ));
        }

        // ---------- Factor aggregation (bulk path for D/MPD) --------------
        if matches!(cfg.algorithm, Algorithm::DKfac | Algorithm::MpdKfac) {
            let fc = obs.span(Phase::FactorComp);
            let caps = net.take_captures();
            let mut concat = Vec::new();
            let mut members = Vec::new();
            let mut sizes = Vec::new();
            for (li, cap) in &caps {
                let si = state_of_layer[*li].expect("capture from unknown layer");
                let a = SymPacked::from_matrix(&cap.factor_a());
                let g = SymPacked::from_matrix(&cap.factor_g());
                members.push((si, Side::A));
                sizes.push(a.len());
                concat.extend_from_slice(a.as_slice());
                members.push((si, Side::G));
                sizes.push(g.len());
                concat.extend_from_slice(g.as_slice());
            }
            drop(fc);
            comm.set_phase(Phase::FactorComm);
            pending.push((members, sizes, comm.allreduce_avg_async(concat)));
        }

        // ---------- Install averaged gradients ---------------------------
        for (segments, handle) in grad_pending.drain(..) {
            let data = handle.wait()?.data;
            let mut off = 0usize;
            let layers = net.layers_mut();
            for (li, pi, len) in segments {
                let mut params = layers[li].params_mut();
                let p = &mut *params[pi];
                p.grad.as_mut_slice().copy_from_slice(&data[off..off + len]);
                off += len;
            }
            debug_assert_eq!(off, data.len(), "gradient bucket mis-sized");
        }

        // ---------- Install averaged factors ------------------------------
        if capture {
            if pipelined {
                // The pipelined path consumed the per-layer stats during the
                // passes; drain any leftover capture state.
                let _ = net.take_captures();
            }
            for (members, sizes, handle) in pending.drain(..) {
                let data = handle.wait()?.data;
                let mut off = 0usize;
                for ((pos_or_state, side), sz) in members.into_iter().zip(sizes) {
                    let packed_slice = &data[off..off + sz];
                    off += sz;
                    let (si, dim) = match side {
                        // SPD A-pass positions run front-to-back; G-pass
                        // positions run back-to-front. Bulk-path members
                        // already carry state indices.
                        Side::A => {
                            let si = pos_or_state;
                            (si, dims[si].0)
                        }
                        Side::G => {
                            let si = if pipelined {
                                nlayers - 1 - pos_or_state
                            } else {
                                pos_or_state
                            };
                            (si, dims[si].1)
                        }
                    };
                    let packed = SymPacked::from_vec(dim, packed_slice.to_vec());
                    match side {
                        Side::A => states[si].update_a(packed.to_matrix(), cfg.kfac.stat_decay),
                        Side::G => states[si].update_g(packed.to_matrix(), cfg.kfac.stat_decay),
                    }
                }
            }

            // ---------- Distributed eigendecomposition (EKFAC extension) ---
            if cfg.algorithm == Algorithm::EkfacSpd {
                if iter % cfg.kfac.inv_update_freq.max(1) == 0 {
                    let mine: Vec<usize> = store.current().placement.set_for_gpu(rank);
                    let mut computed: Vec<Option<(Matrix, Vec<f64>)>> = vec![None; 2 * nlayers];
                    for &t in &mine {
                        // One sized span per tensor: the calibrator reads
                        // (dimension, duration) pairs off these.
                        let _inv = obs.sized_span(Phase::InverseComp, inv_dims[t]);
                        let si = t / 2;
                        let factor = if t % 2 == 0 {
                            states[si].factor_a().expect("no A statistics").clone()
                        } else {
                            states[si].factor_g().expect("no G statistics").clone()
                        };
                        let e = sym_eig(&factor).unwrap_or_else(|err| {
                            panic!("rank {rank}: eigendecomposition of tensor {t} failed: {err}")
                        });
                        computed[t] = Some((e.vectors, e.values));
                    }
                    // Broadcast Q‖λ for CT tensors (d² + d elements each).
                    comm.set_phase(Phase::InverseComm);
                    let mut bcasts: Vec<(usize, PendingOp)> = Vec::new();
                    for t in 0..2 * nlayers {
                        if let TensorAssignment::Gpu(owner) =
                            store.current().placement.assignments()[t]
                        {
                            let d = inv_dims[t];
                            let buf = match &computed[t] {
                                Some((q, v)) => {
                                    let mut b = q.as_slice().to_vec();
                                    b.extend_from_slice(v);
                                    b
                                }
                                None => vec![0.0; d * d + d],
                            };
                            bcasts.push((t, comm.broadcast_async(buf, owner)));
                        }
                    }
                    for (t, h) in bcasts {
                        let d = inv_dims[t];
                        let data = h.wait()?.data;
                        let q = Matrix::from_vec(d, d, data[..d * d].to_vec());
                        let v = data[d * d..].to_vec();
                        computed[t] = Some((q, v));
                    }
                    for t in 0..2 * nlayers {
                        ekfac_bases[t] = Some(
                            computed[t]
                                .take()
                                .expect("basis neither computed nor received"),
                        );
                    }
                    // Reseed the eigenbasis scales from the eigenvalue
                    // products (the K-FAC spectrum), to be moment-corrected
                    // by the per-step EMA below.
                    for si in 0..nlayers {
                        let (_, va) = ekfac_bases[2 * si].as_ref().expect("A basis");
                        let (_, vg) = ekfac_bases[2 * si + 1].as_ref().expect("G basis");
                        ekfac_scales[si] = Some(Matrix::from_fn(vg.len(), va.len(), |i, j| {
                            (vg[i] * va[j]).max(0.0)
                        }));
                    }
                }
            } else
            // ---------- Distributed inversion per placement ---------------
            if iter % cfg.kfac.inv_update_freq.max(1) == 0 {
                // Compute this rank's assigned inverses (NCTs + own CTs).
                let mine: Vec<usize> = store.current().placement.set_for_gpu(rank);
                let mut computed: Vec<Option<SymPacked>> = vec![None; 2 * nlayers];
                for &t in &mine {
                    // One sized span per tensor: the calibrator reads
                    // (dimension, duration) pairs off these.
                    let _inv = obs.sized_span(Phase::InverseComp, inv_dims[t]);
                    let si = t / 2;
                    let damped = if t % 2 == 0 {
                        states[si].damped_a(cfg.kfac.damping)
                    } else {
                        states[si].damped_g(cfg.kfac.damping)
                    };
                    let inv = chol::spd_inverse(&damped).unwrap_or_else(|e| {
                        panic!("rank {rank}: inversion of tensor {t} failed: {e}")
                    });
                    computed[t] = Some(SymPacked::from_matrix(&inv));
                }
                // Broadcast CT results (everyone issues in tensor order).
                comm.set_phase(Phase::InverseComm);
                let mut bcasts: Vec<(usize, PendingOp)> = Vec::new();
                for t in 0..2 * nlayers {
                    if let TensorAssignment::Gpu(owner) = store.current().placement.assignments()[t]
                    {
                        let d = inv_dims[t];
                        let buf = match &computed[t] {
                            Some(p) => p.as_slice().to_vec(),
                            None => vec![0.0; d * (d + 1) / 2],
                        };
                        bcasts.push((t, comm.broadcast_async(buf, owner)));
                    }
                }
                for (t, h) in bcasts {
                    let data = h.wait()?.data;
                    computed[t] = Some(SymPacked::from_vec(inv_dims[t], data));
                }
                // Install all inverses.
                for (t, slot) in computed.iter_mut().enumerate() {
                    let si = t / 2;
                    let inv = slot
                        .take()
                        .expect("inverse neither computed nor received")
                        .to_matrix();
                    if t % 2 == 0 {
                        states[si].set_a_inv(inv);
                    } else {
                        states[si].set_g_inv(inv);
                    }
                }
            }
        }

        // ---------- Update -------------------------------------------------
        let update_span = obs.labeled_span(Phase::Update, format!("iter{iter}"));
        if capture {
            let (mut directions, raw) = if cfg.algorithm == Algorithm::EkfacSpd {
                build_ekfac_directions(
                    net,
                    &state_of_layer,
                    ekfac_bases,
                    ekfac_scales,
                    cfg.kfac.stat_decay,
                    cfg.kfac.damping,
                )
            } else {
                build_directions(net, &state_of_layer, states)
            };
            if let Some(clip) = cfg.kfac.kl_clip {
                apply_kl_clip(&mut directions, &raw, cfg.kfac.lr, clip);
            }
            sgd.step_with_directions(&mut net.parameters_mut(), &directions);
        } else {
            sgd.step(&mut net.parameters_mut());
        }
        drop(update_span);

        // ---------- Loss reporting ----------------------------------------
        // Elastic mode piggybacks a resize flag on the loss all-reduce:
        // rank 0 polls the rendezvous for pending joiners and sets element
        // 1, so every rank reaches the same verdict at the same barrier
        // with zero extra collectives. Non-elastic mode keeps the 1-element
        // reduce bit-exactly as before.
        comm.set_phase(Phase::Update);
        let mut resize_requested = false;
        let loss = if let Some(el) = elastic {
            let mut flag = 0.0;
            if rank == 0 && el.poll_every > 0 && (iter + 1) % el.poll_every == 0 {
                if let Ok(status) = elastic_poll(&el.tcp) {
                    if status.pending > 0 {
                        flag = 1.0;
                    }
                }
            }
            let mut loss_buf = [local_loss, flag];
            allreduce_avg_checked(comm, &mut loss_buf)?;
            resize_requested = loss_buf[1] > 0.0;
            loss_buf[0]
        } else {
            let mut loss_buf = [local_loss];
            allreduce_avg_checked(comm, &mut loss_buf)?;
            loss_buf[0]
        };
        losses.push(loss);
        // Flight-recorder iteration boundary: the heartbeat picks up the
        // new (iteration, loss) pair and the bounded window keeps one span
        // per completed iteration on this rank's compute track.
        flight.record_iteration(iter as u64 + 1, loss);
        flight.record_span(
            rank,
            Phase::Update,
            &format!("iter{iter}"),
            flight_iter_start,
            flight.now(),
        );

        // ---------- Agree on SPD fusion plans after the first iteration ----
        // "First" is per segment: fusion plans are derived from measured
        // ready-times under the *current* world size, so each membership
        // epoch re-agrees from its own first iteration.
        if pipelined && iter == seg_start && nlayers > 0 {
            let mut times: Vec<f64> = a_ready.iter().chain(g_ready.iter()).copied().collect();
            allreduce_avg_checked(comm, &mut times)?;
            let (a_avg, g_avg) = times.split_at(nlayers);
            let a_pipe =
                FactorPipeline::new(monotonize(a_avg), a_sizes.clone()).expect("A pipeline valid");
            let rev_g_sizes: Vec<usize> = g_sizes.iter().rev().copied().collect();
            let g_pipe =
                FactorPipeline::new(monotonize(g_avg), rev_g_sizes).expect("G pipeline valid");
            let a = fusion::plan(&a_pipe, &cfg.comm_model, cfg.fusion);
            let g = fusion::plan(&g_pipe, &cfg.comm_model, cfg.fusion);
            // Publish the tensor-fusion verdict (Eq. 15) once, on rank 0:
            // how many factors each pass fused into how many messages.
            if rank == 0 {
                if let Some(r) = &obs.rec {
                    let m = r.metrics();
                    m.gauge("fusion/a/factors").set(nlayers as f64);
                    m.gauge("fusion/a/messages").set(a.num_messages() as f64);
                    m.gauge("fusion/a/merges")
                        .set((nlayers - a.num_messages()) as f64);
                    m.gauge("fusion/g/factors").set(nlayers as f64);
                    m.gauge("fusion/g/messages").set(g.num_messages() as f64);
                    m.gauge("fusion/g/merges")
                        .set((nlayers - g.num_messages()) as f64);
                }
            }
            store.install_fusion(Some(a), Some(g));
            a_pipeline = Some(a_pipe);
            g_pipeline = Some(g_pipe);
        }

        // ---------- Adaptive re-plan barrier (see `crate::runtime`) --------
        // SPMD-safe by construction: entry depends only on `iter`, the
        // models are agreement-all-reduced (doubling as the barrier), and
        // the re-plan + hysteresis are pure functions of rank-identical
        // inputs — so every rank swaps (or doesn't) together.
        if controller.due(iter) {
            let t_barrier = Instant::now();
            let replan_span = obs.span(Phase::Update);
            if let Some(r) = &obs.rec {
                let fresh: Vec<spdkfac_obs::Span> = r
                    .spans()
                    .into_iter()
                    .filter(|s| s.end > ingested_until)
                    .collect();
                ingested_until = r.now();
                calibrator.ingest_spans(&fresh);
            }
            let mut agree = runtime::encode_models(calibrator.refit()).to_vec();
            comm.set_phase(Phase::Update);
            allreduce_avg_checked(comm, &mut agree)?;
            let mut agreed = runtime::decode_models(&agree, &cfg.comp_model, &cfg.comm_model);
            // Plan fusion with the model for what the factor all-reduces
            // actually cost on this wire format: β re-expressed per element
            // through the agreed per-byte line plus the codec line. Under
            // f64 (or before any wire fit exists) this is the identity.
            agreed.allreduce = agreed.effective_allreduce(cfg.wire.factor.bytes_per_elem());
            // The standing placement prices migration: a CT only moves if
            // the rebalancing win exceeds one broadcast of its state.
            let prev = store.current().placement.clone();
            let (placement, a_f, g_f) = runtime::replan(
                &agreed,
                &inv_dims,
                world,
                cfg.effective_placement(),
                Some(&prev),
                a_pipeline.as_ref(),
                g_pipeline.as_ref(),
                cfg.fusion,
            );
            let outcome = controller.consider(&mut store, placement, a_f, g_f);
            if outcome.swapped {
                comm.set_generation(store.generation());
            }
            drop(replan_span);
            if rank == 0 {
                if let Some(r) = &obs.rec {
                    runtime::publish_replan_metrics(
                        r.metrics(),
                        &outcome,
                        t_barrier.elapsed().as_secs_f64(),
                    );
                    calibrator.publish_metrics(r.metrics());
                }
            }
        }

        if rank == 0 {
            if let Some(r) = &obs.rec {
                r.metrics().counter("train/iterations").inc();
            }
        }

        // The iteration is complete on every rank (the loss all-reduce was
        // the barrier); advance the resume point before acting on any
        // membership decision.
        *next_iter = iter + 1;
        if let Some(el) = elastic {
            if el.leave_after.is_some_and(|n| iter + 1 >= n) {
                return Ok(SegmentEnd::Leave);
            }
            if resize_requested && iter + 1 < iters {
                return Ok(SegmentEnd::ResizeRequested);
            }
        }
    }

    Ok(SegmentEnd::Done)
}

/// The elastic driver: joins the rendezvous, hands off / receives state at
/// each membership epoch, and runs segments until the iteration budget is
/// spent (see `TrainSession::elastic`).
///
/// Recovery flow on any segment exit short of `Done`:
/// 1. drop the endpoint (closing ring sockets — peers blocked on a dead
///    rank's collective fail over to the same path),
/// 2. re-dial the rendezvous with `Rejoin { epoch, old_rank }`,
/// 3. on the new epoch, every rank restores from the checkpoint broadcast
///    by the new rank 0 (K-FAC state is replicated, so any survivor is an
///    authoritative source; bit-identical replicas are re-established by
///    construction, which keeps the next epoch SPMD-safe),
/// 4. run the next segment from the checkpoint's iteration.
#[allow(clippy::too_many_arguments)]
fn run_elastic(
    cfg: &DistributedConfig,
    policy: &ElasticPolicy,
    build: &(dyn Fn() -> Sequential + Sync),
    dataset: &Dataset,
    iters: usize,
    batch: usize,
    rec: Option<Arc<Recorder>>,
) -> Result<RunResult, CommError> {
    let flight = spdkfac_obs::flight::global();
    let mut ws: Option<WorkerState> = None;
    let mut membership: Vec<MembershipSpan> = Vec::new();
    let mut traffic_elements = 0u64;
    let mut traffic_wire_bytes = 0u64;
    let mut collective_ops = 0u64;
    let mut intent = JoinIntent::Fresh {
        claim: policy.claim,
    };
    let mut epochs_joined = 0u64;
    loop {
        epochs_joined += 1;
        if epochs_joined > policy.max_epochs {
            return Err(CommError::Rendezvous(format!(
                "elastic run exceeded its budget of {} membership epochs",
                policy.max_epochs
            )));
        }
        let ep = connect_elastic(&policy.tcp, &intent, cfg.wire)?;
        let comm = ep.comm;
        let rank = comm.rank();
        let world = comm.world_size();
        if world < policy.min_world {
            return Err(CommError::Rendezvous(format!(
                "epoch {}: world shrank to {world}, below min_world {}",
                ep.epoch, policy.min_world
            )));
        }
        if let Some(r) = &rec {
            comm.set_recorder(Arc::clone(r), world + rank);
        }
        let obs = WorkerObs {
            rec: rec.clone(),
            track: rank,
        };
        flight.set_member_epoch(ep.epoch);

        let mut state = ws.take().unwrap_or_else(|| WorkerState::fresh(cfg, build));
        // ---------- State handoff -----------------------------------------
        // After any transition with survivors, the new rank 0 broadcasts its
        // full checkpoint (length first — joiners cannot size the payload)
        // and everyone restores from it.
        if ep.epoch > 0 {
            if let Some(src) = ep.state_source {
                let _handoff = obs.labeled_span(Phase::Update, format!("handoff-e{}", ep.epoch));
                comm.set_phase(Phase::Update);
                let packed = if rank == src {
                    state.checkpoint().pack()
                } else {
                    Vec::new()
                };
                let len_buf = vec![packed.len() as f64];
                let len = comm.broadcast_async(len_buf, src).wait()?.data[0] as usize;
                let payload = if rank == src { packed } else { vec![0.0; len] };
                let data = comm.broadcast_async(payload, src).wait()?.data;
                if rank != src {
                    let ckpt = TrainCheckpoint::unpack(&data).map_err(|e| {
                        CommError::Io(format!("epoch {}: state handoff corrupt: {e}", ep.epoch))
                    })?;
                    state.restore(&ckpt);
                }
            }
        }
        membership.push(MembershipSpan {
            epoch: ep.epoch,
            world,
            from_iter: state.next_iter,
        });

        let seg_cfg = SegmentElastic {
            tcp: policy.tcp.clone(),
            poll_every: policy.poll_every,
            leave_after: policy.leave_after,
        };
        let end = train_segment(
            cfg,
            &mut state,
            dataset,
            iters,
            batch,
            &comm,
            &obs,
            Some(&seg_cfg),
        );
        let stats = comm.stats();
        traffic_elements += stats.elements_sent();
        traffic_wire_bytes += stats.wire_bytes_sent();
        collective_ops += stats.ops_executed();
        match end {
            Ok(SegmentEnd::Done) | Ok(SegmentEnd::Leave) => {
                drop(comm);
                return Ok(RunResult {
                    final_params: state.net.flat_params(),
                    losses: state.losses,
                    traffic_elements,
                    traffic_wire_bytes,
                    collective_ops,
                    membership,
                });
            }
            Ok(SegmentEnd::ResizeRequested) => {
                intent = JoinIntent::Rejoin {
                    epoch: ep.epoch,
                    old_rank: rank,
                };
                ws = Some(state);
                drop(comm);
            }
            Err(e) => {
                eprintln!(
                    "[spdkfac] epoch {} rank {rank}: peer failure ({e}); rejoining rendezvous",
                    ep.epoch
                );
                intent = JoinIntent::Rejoin {
                    epoch: ep.epoch,
                    old_rank: rank,
                };
                ws = Some(state);
                drop(comm);
            }
        }
    }
}

/// Builds EKFAC update directions: every preconditioned layer's gradient is
/// projected into its Kronecker eigenbasis, the basis second moments are
/// EMA-updated with the squared projection, and the rescaled projection is
/// mapped back (see [`crate::ekfac`]). Biases use row-mean denominators.
fn build_ekfac_directions(
    net: &Sequential,
    state_of_layer: &[Option<usize>],
    bases: &[Option<(Matrix, Vec<f64>)>],
    scales: &mut [Option<Matrix>],
    stat_decay: f64,
    damping: f64,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let mut directions = Vec::new();
    let mut raw = Vec::new();
    for (li, layer) in net.layers().iter().enumerate() {
        let params = layer.params();
        match state_of_layer.get(li).copied().flatten() {
            Some(si) if scales[si].is_some() => {
                let (q_a, _) = bases[2 * si].as_ref().expect("A basis");
                let (q_g, _) = bases[2 * si + 1].as_ref().expect("G basis");
                // Moment-correct the scales with this step's weight gradient.
                let grad_w = &params[0].grad;
                let projected = q_g.matmul_tn(grad_w).matmul(q_a);
                let sq = Matrix::from_fn(projected.rows(), projected.cols(), |i, j| {
                    projected[(i, j)] * projected[(i, j)]
                });
                let scale = scales[si].as_mut().expect("scale");
                scale.ema_update(stat_decay, &sq);
                let scale = scales[si].as_ref().expect("scale");
                for (pi, p) in params.iter().enumerate() {
                    raw.push(p.grad.clone());
                    if pi == 0 {
                        directions.push(precondition_ekfac(&p.grad, q_a, q_g, scale, damping));
                    } else {
                        let proj = q_g.matmul_tn(&p.grad);
                        let cols = scale.cols() as f64;
                        let rescaled = Matrix::from_fn(proj.rows(), 1, |i, _| {
                            let row_mean: f64 = scale.row(i).iter().sum::<f64>() / cols;
                            proj[(i, 0)] / (row_mean + damping)
                        });
                        directions.push(q_g.matmul(&rescaled));
                    }
                }
            }
            _ => {
                for p in params {
                    raw.push(p.grad.clone());
                    directions.push(p.grad.clone());
                }
            }
        }
    }
    (directions, raw)
}

/// Clamps a measured time series to be non-decreasing (averaging across
/// ranks can introduce tiny inversions).
fn monotonize(ts: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(ts.len());
    let mut cur = f64::NEG_INFINITY;
    for &t in ts {
        cur = cur.max(t);
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_nn::data::gaussian_blobs;
    use spdkfac_nn::models::{deep_mlp, mlp};

    fn run(algorithm: Algorithm, world: usize, iters: usize) -> RunResult {
        let mut cfg = DistributedConfig::new(world, algorithm);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 8 * world.max(2), 0.3, 17);
        TrainSession::builder(cfg)
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run")
    }

    #[test]
    fn ssgd_trains_and_syncs() {
        let r = run(Algorithm::SSgd, 3, 10);
        assert_eq!(r.losses.len(), 10);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
        assert!(r.traffic_elements > 0);
        // Non-elastic runs report a single epoch-0 membership span.
        assert_eq!(
            r.membership,
            vec![MembershipSpan {
                epoch: 0,
                world: 3,
                from_iter: 0
            }]
        );
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_match_train_session() {
        // The legacy entry points are thin wrappers over the same impl and
        // must stay bit-identical until removed.
        let mut cfg = DistributedConfig::new(2, Algorithm::DKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let build = || mlp(&[6, 12, 3], 3);
        let old = train(&cfg, &build, &data, 4, 4);
        let new = TrainSession::builder(cfg)
            .run(&build, &data, 4, 4)
            .expect("local run");
        assert_eq!(old.final_params, new.final_params);
        assert_eq!(old.losses, new.losses);
    }

    #[test]
    fn dkfac_trains() {
        let r = run(Algorithm::DKfac, 2, 8);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
    }

    #[test]
    fn all_kfac_variants_agree_numerically() {
        let d = run(Algorithm::DKfac, 2, 6);
        let m = run(Algorithm::MpdKfac, 2, 6);
        let s = run(Algorithm::SpdKfac, 2, 6);
        let max_dm = max_diff(&d.final_params, &m.final_params);
        let max_ds = max_diff(&d.final_params, &s.final_params);
        assert!(max_dm < 1e-8, "D vs MPD diverged: {max_dm}");
        assert!(max_ds < 1e-8, "D vs SPD diverged: {max_ds}");
    }

    #[test]
    fn world_one_matches_multi_world_shapes() {
        let r = run(Algorithm::SpdKfac, 1, 4);
        assert_eq!(r.losses.len(), 4);
    }

    #[test]
    fn spd_runs_deep_models_with_fusion() {
        let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.2;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 8, 24, 0.3, 21);
        let r = TrainSession::builder(cfg)
            .run(&|| deep_mlp(8, 10, 6, 3, 5), &data, 5, 4)
            .expect("local run");
        assert_eq!(r.losses.len(), 5);
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn distributed_ekfac_trains_and_syncs() {
        let r = run(Algorithm::EkfacSpd, 2, 8);
        assert!(r.losses.iter().all(|l| l.is_finite()));
        assert!(r.losses.last().unwrap() < &r.losses[0], "{:?}", r.losses);
    }

    #[test]
    fn distributed_ekfac_matches_single_process_ekfac() {
        use crate::ekfac::{EkfacConfig, EkfacOptimizer};
        use spdkfac_nn::loss::softmax_cross_entropy;

        let data = gaussian_blobs(3, 6, 24, 0.3, 83);
        let iters = 5;
        let batch = 6;
        let build = || mlp(&[6, 10, 3], 4);

        let mut cfg = DistributedConfig::new(1, Algorithm::EkfacSpd);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        let dist = TrainSession::builder(cfg)
            .run(&build, &data, iters, batch)
            .expect("local run");

        let mut net = build();
        let mut opt = EkfacOptimizer::new(
            &net,
            EkfacConfig {
                lr: 0.05,
                momentum: 0.0,
                damping: 0.1,
                ..EkfacConfig::default()
            },
        );
        for i in 0..iters {
            let start = (i * batch) % (data.len() - batch + 1);
            let (x, y) = data.batch(start, batch);
            let out = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&out, &y);
            net.backward(&grad);
            opt.step(&mut net).expect("ekfac step");
        }
        let d = max_diff(&dist.final_params, &net.flat_params());
        assert!(
            d < 1e-9,
            "distributed EKFAC diverged from single-process: {d}"
        );
    }

    #[test]
    fn wfbp_bucketing_does_not_change_numerics() {
        // Tiny fusion buffers produce many gradient buckets; results must
        // match the single-bucket configuration to fp-reorder noise.
        let data = gaussian_blobs(3, 6, 16, 0.3, 71);
        let build = || mlp(&[6, 12, 3], 3);
        let mut big = DistributedConfig::new(2, Algorithm::DKfac);
        big.kfac.damping = 0.1;
        big.kfac.momentum = 0.0;
        let mut small = big.clone();
        small.grad_fusion_elems = 8; // flush almost every layer
        let r_big = TrainSession::builder(big)
            .run(&build, &data, 5, 4)
            .expect("local run");
        let r_small = TrainSession::builder(small)
            .run(&build, &data, 5, 4)
            .expect("local run");
        assert!(
            max_diff(&r_big.final_params, &r_small.final_params) < 1e-9,
            "bucketing changed results"
        );
        // The small-bucket run issues more collectives.
        assert!(r_small.collective_ops > r_big.collective_ops);
    }

    #[test]
    fn mpd_uses_fewer_or_equal_ops_than_spd_broadcasts() {
        // Smoke check on the traffic counters: MPD broadcasts every tensor,
        // SPD's LBP keeps small tensors local, so SPD executes no more
        // collective ops per iteration than MPD.
        let m = run(Algorithm::MpdKfac, 2, 3);
        let s = run(Algorithm::SpdKfac, 2, 3);
        assert!(
            s.collective_ops <= m.collective_ops + 6, // SPD adds plan agreement + bucket ops
            "spd={} mpd={}",
            s.collective_ops,
            m.collective_ops
        );
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Runs SPD-KFAC under `wire` and returns the result, on a fixed
    /// data/model so runs under different policies are comparable.
    fn run_with_wire(wire: &str, iters: usize) -> RunResult {
        let mut cfg = DistributedConfig::new(2, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        cfg.wire = WirePolicy::parse(wire).expect("wire policy");
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        TrainSession::builder(cfg)
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run")
    }

    #[test]
    fn f16_wire_converges_within_bounded_loss_divergence() {
        // The tentpole numerical claim: compressing gradient + factor
        // all-reduces to f16 must not change the training trajectory beyond
        // a documented bound. Per-iteration loss divergence vs the f64
        // baseline stays under 2e-2 absolute (f16 has ~3 decimal digits;
        // losses here are O(1)), and the run still converges.
        let iters = 8;
        let exact = run_with_wire("f64", iters);
        let lossy = run_with_wire("grad=f16,factor=f16", iters);
        assert!(lossy.losses.last().unwrap() < &lossy.losses[0]);
        for (i, (a, b)) in exact.losses.iter().zip(&lossy.losses).enumerate() {
            assert!(
                (a - b).abs() < 2e-2,
                "iter {i}: f64 loss {a} vs f16 loss {b}"
            );
        }
        // Wire accounting: the f64 run moves 8 B/element; the lossy run
        // strictly fewer (control traffic stays f64, so not a flat 4x).
        assert_eq!(exact.traffic_wire_bytes, exact.traffic_elements * 8);
        assert!(lossy.traffic_wire_bytes < exact.traffic_wire_bytes);
    }

    #[test]
    fn topk_gradient_wire_still_converges() {
        // Residual-compensated top-k on gradients: sparsification error is
        // fed back, so training still converges (on a looser bound — top-k
        // changes the trajectory more than rounding does).
        let iters = 10;
        let lossy = run_with_wire("grad=topk:0.25", iters);
        assert!(lossy.losses.iter().all(|l| l.is_finite()));
        assert!(
            lossy.losses.last().unwrap() < &lossy.losses[0],
            "{:?}",
            lossy.losses
        );
    }

    #[test]
    fn recorder_captures_trainer_phases_and_metrics() {
        let world = 2;
        let iters = 4;
        let rec = Arc::new(Recorder::new(2 * world));
        let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.05;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let r = TrainSession::builder(cfg)
            .recorder(Arc::clone(&rec))
            .run(&|| mlp(&[6, 12, 3], 3), &data, iters, 4)
            .expect("local run");
        assert_eq!(r.losses.len(), iters);

        let spans = rec.spans();
        // Compute phases land on the rank tracks (0..world)…
        for ph in [
            Phase::FfBp,
            Phase::FactorComp,
            Phase::InverseComp,
            Phase::Update,
        ] {
            assert!(
                spans.iter().any(|s| s.phase == ph && s.track < world),
                "missing compute phase {ph}"
            );
        }
        // …and collectives on the comm tracks (world..2*world), tagged with
        // the phase current at submission time.
        for ph in [Phase::FactorComm, Phase::GradComm] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.phase == ph && (world..2 * world).contains(&s.track)),
                "missing comm phase {ph}"
            );
        }

        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counters["train/iterations"], iters as u64);
        assert!(snap.gauges.contains_key("placement/gpu0/load"));
        assert!(snap.gauges.contains_key("placement/gpu1/load"));
        assert!(snap.gauges["placement/nct"] + snap.gauges["placement/ct"] > 0.0);
        assert!(snap.gauges["fusion/a/messages"] >= 1.0);
        assert!(snap.gauges["fusion/g/messages"] >= 1.0);
        // Realized flush telemetry: every iteration flushes at least one
        // fused A and one fused G message, and the realized bytes match the
        // per-flush histogram count.
        assert!(snap.counters["fusion/a/flushes"] >= iters as u64);
        assert!(snap.counters["fusion/g/flushes"] >= iters as u64);
        assert!(snap.counters["fusion/a/realized_elems"] > 0);
        assert!(snap.counters["fusion/g/realized_elems"] > 0);
        assert_eq!(
            snap.histograms["fusion/realized/elems"].count,
            snap.counters["fusion/a/flushes"] + snap.counters["fusion/g/flushes"]
        );
        // Per-tensor inversion spans carry their dimension for calibration.
        assert!(spans
            .iter()
            .any(|s| s.phase == Phase::InverseComp && s.meta.size.is_some()));

        // The measured breakdown is the simulator's type and accounts for
        // the whole recorded interval.
        let b = spdkfac_obs::IterationBreakdown::from_recorder(&rec, world);
        assert!(b.total() > 0.0);
        assert!(b.ff_bp > 0.0);
    }

    #[test]
    fn mpd_broadcasts_are_tagged_inverse_comm() {
        // MPD-KFAC (SeqDist) makes every tensor a CT, so inverse-result
        // broadcasts must appear on the comm tracks as InverseComm.
        let world = 2;
        let rec = Arc::new(Recorder::new(2 * world));
        let mut cfg = DistributedConfig::new(world, Algorithm::MpdKfac);
        cfg.kfac.damping = 0.1;
        cfg.kfac.momentum = 0.0;
        let data = gaussian_blobs(3, 6, 16, 0.3, 17);
        let _ = TrainSession::builder(cfg)
            .recorder(Arc::clone(&rec))
            .run(&|| mlp(&[6, 12, 3], 3), &data, 2, 4)
            .expect("local run");
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.phase == Phase::InverseComm && s.track >= world));
    }
}
