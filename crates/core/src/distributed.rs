//! Multi-worker trainers over real in-process collectives: S-SGD, D-KFAC,
//! MPD-KFAC, SPD-KFAC and distributed EKFAC.
//!
//! The K-FAC variants execute the *same* mathematics (Eq. 13); they differ
//! only in **how Kronecker factors are communicated**, **where the per-tensor
//! operation (an inverse, or an eigendecomposition for EKFAC) runs**, and
//! **which preconditioner consumes it**. Each [`Algorithm`] is therefore a
//! [`Schedule`] value, and [`Algorithm::schedule`] is the one table that
//! maps an algorithm to its behaviour. The trainer below and the simulator
//! (`spdkfac_sim::schedule`) both read it:
//!
//! | Algorithm | factor communication ([`FactorComm`]) | placement ([`PlacementStrategy`]) | preconditioner ([`Preconditioner`]) |
//! |-----------|----------------------|-------------------|----------------|
//! | S-SGD     | `Bulk` (no factors to send) | `NonDist` (nothing to invert) | `None`: averaged gradients only |
//! | D-KFAC    | `Bulk`: one `A‖G` all-reduce after the last gradient bucket | `NonDist`: every GPU inverts everything | `Kfac` |
//! | MPD-KFAC  | `Bulk` | `SeqDist`: round-robin, results broadcast | `Kfac` |
//! | SPD-KFAC  | `Pipelined(Optimal)`: per-bucket all-reduces during forward/backward with dynamic tensor fusion (Eq. 15) | `Lbp`: Algorithm 1 with CT/NCT classification | `Kfac` |
//! | EKFAC-SPD | `Pipelined(Optimal)` | `Lbp` | `Ekfac`: eigenbases broadcast as `Q‖λ` |
//!
//! Consequently the parameter trajectories of the K-FAC variants agree to
//! floating-point reordering noise — asserted by the integration tests —
//! which is the paper's premise for comparing them on wall-clock time only
//! (§VI: *"our proposed algorithms are systemic optimizations without
//! affecting the numerical results"*).

use crate::calibrate::Calibrator;
use crate::ekfac::precondition_ekfac;
use crate::elastic::{ElasticPolicy, FactorCheckpoint, MembershipSpan, TrainCheckpoint};
use crate::factors::{local_factor_a, local_factor_g, FactorState};
use crate::fusion::{self, FactorPipeline, FusionController, FusionStrategy};
use crate::optimizer::KfacConfig;
use crate::perf::{AlphaBetaModel, ExpInverseModel};
use crate::placement::{self, LbpWeight, PlacementStrategy, TensorAssignment};
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

/// An in-flight fused factor all-reduce: the `(state, side)` factors it
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

/// How Kronecker factors travel between workers (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorComm {
    /// Every factor in one all-reduce — the `A` block in forward order,
    /// then the `G` block in backward order — issued after the last
    /// gradient bucket (Pauloski et al.'s baseline, arXiv 2007.00784).
    Bulk,
    /// Per-bucket all-reduces issued from the forward/backward hooks as the
    /// buckets of a fusion plan under this strategy fill.
    Pipelined(FusionStrategy),
}

/// The second-order preconditioner an algorithm applies, which fixes the
/// per-tensor operation the placement distributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preconditioner {
    /// First-order: no factors, no per-tensor operation.
    None,
    /// K-FAC: damped Cholesky inverses, broadcast as packed `d(d+1)/2`
    /// triangles.
    Kfac,
    /// EKFAC: eigendecompositions, broadcast as `Q‖λ` (`d² + d` values).
    Ekfac,
}

/// An algorithm as data: the three ways the variants differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// How the Kronecker factors are all-reduced.
    pub factor_comm: FactorComm,
    /// Where each per-tensor operation runs.
    pub placement: PlacementStrategy,
    /// What consumes the factors.
    pub preconditioner: Preconditioner,
}

impl Algorithm {
    /// The schedule table (rendered in the module docs): the only code that
    /// maps an algorithm to factor communication, placement and
    /// preconditioner.
    pub const fn schedule(self) -> Schedule {
        use FactorComm::{Bulk, Pipelined};
        use PlacementStrategy::{NonDist, SeqDist};
        const LBP: PlacementStrategy = PlacementStrategy::Lbp {
            weight: LbpWeight::DimSquared,
        };
        const OPTIMAL: FactorComm = Pipelined(FusionStrategy::Optimal);
        let (factor_comm, placement, preconditioner) = match self {
            Algorithm::SSgd => (Bulk, NonDist, Preconditioner::None),
            Algorithm::DKfac => (Bulk, NonDist, Preconditioner::Kfac),
            Algorithm::MpdKfac => (Bulk, SeqDist, Preconditioner::Kfac),
            Algorithm::SpdKfac => (OPTIMAL, LBP, Preconditioner::Kfac),
            Algorithm::EkfacSpd => (OPTIMAL, LBP, Preconditioner::Ekfac),
        };
        Schedule {
            factor_comm,
            placement,
            preconditioner,
        }
    }
}

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of worker ranks.
    pub world: usize,
    /// Training algorithm; its [`Schedule`] row decides factor
    /// communication, placement and preconditioner.
    pub algorithm: Algorithm,
    /// K-FAC hyper-parameters (ignored by [`Algorithm::SSgd`] except lr /
    /// momentum / weight decay).
    pub kfac: KfacConfig,
    /// The fusion strategy of the algorithm's [`Schedule`] row, as set by
    /// [`DistributedConfig::new`] (`Naive` for a bulk row). Informational
    /// only: the trainer reads the table, so changing this field changes
    /// nothing. It remains because the benchmark package reads it.
    pub fusion: FusionStrategy,
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
    /// samples come off the recorder, so without
    /// [`TrainSession::recorder`] a due barrier still synchronizes but
    /// re-plans from the baseline models — a fixed point.
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
            fusion: match algorithm.schedule().factor_comm {
                FactorComm::Pipelined(strategy) => strategy,
                FactorComm::Bulk => FusionStrategy::Naive,
            },
            // Arbitrary-but-plausible CPU-scale models; placement
            // correctness does not depend on the constants.
            comp_model: ExpInverseModel::new(5e-5, 2e-3),
            comm_model: AlphaBetaModel::new(2e-4, 2e-9),
            grad_fusion_elems: 16 * 1024 * 1024,
            replan: ReplanPolicy::Off,
            wire: WirePolicy::default(),
        }
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
///   in-process backend.
/// - **Endpoint** ([`TrainSession::endpoint`]): runs this process as one
///   rank of an already-connected group. Peer failures surface as `Err`
///   instead of a panic.
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

/// Which Kronecker factor of a layer: `A` (input side, captured in forward)
/// or `G` (output-gradient side, captured in backward). Also the index of
/// the pass that captures it.
#[derive(Debug, Clone, Copy)]
enum Side {
    A,
    G,
}

impl Side {
    /// Placement tensors interleave the layers' factors: `A_l` is tensor
    /// `2l`, `G_l` is tensor `2l + 1`.
    fn of_tensor(t: usize) -> Side {
        if t.is_multiple_of(2) {
            Side::A
        } else {
            Side::G
        }
    }
}

/// One iteration's Kronecker factors on their way to the all-reduce: the
/// factor pass of §IV-A, written once for `A` (offered from the forward
/// hooks) and `G` (from the backward hooks). Each factor is offered to its
/// pass's fusion controller, and a filled bucket leaves at once as one fused
/// message. A bulk schedule has no controllers: the flow holds every factor
/// until [`FactorFlow::finish`], which the trainer calls after the last
/// gradient bucket, and sends them as one `A‖G` message.
struct FactorFlow<'a> {
    comm: &'a WorkerComm,
    obs: &'a WorkerObs,
    /// Fusion controllers of the `A` and `G` passes; `None` under bulk.
    ctls: Option<[FusionController; 2]>,
    /// Factors offered but not yet sent, with their `(state, side)`.
    held: Vec<SymPacked>,
    members: Vec<(usize, Side)>,
    /// Per pass, each factor's ready time since the pass began: the
    /// measured pipelines the fusion plans are agreed on.
    ready: [Vec<f64>; 2],
    pass_start: Instant,
    pending: Vec<PendingFactors>,
}

impl<'a> FactorFlow<'a> {
    fn new(
        comm: &'a WorkerComm,
        obs: &'a WorkerObs,
        ctls: Option<[FusionController; 2]>,
        nlayers: usize,
    ) -> Self {
        FactorFlow {
            comm,
            obs,
            ctls,
            held: Vec::new(),
            members: Vec::new(),
            ready: [Vec::with_capacity(nlayers), Vec::with_capacity(nlayers)],
            pass_start: Instant::now(),
            pending: Vec::new(),
        }
    }

    /// Starts `side`'s pass: ready times are measured from here. A
    /// pipelined `A` pass must have sent every factor before `G` begins,
    /// so no message mixes the two passes.
    fn start_pass(&mut self, side: Side) {
        if let (Some(ctls), Side::G) = (&self.ctls, side) {
            assert!(
                ctls[0].is_drained() && self.held.is_empty(),
                "unflushed A-factor bucket"
            );
        }
        self.pass_start = Instant::now();
    }

    /// Computes state `si`'s `side` factor and offers it to the pass.
    fn offer(&mut self, side: Side, si: usize, factor: impl FnOnce() -> Matrix) {
        let pass = side as usize;
        let pos = self.ready[pass].len();
        self.ready[pass].push(self.pass_start.elapsed().as_secs_f64());
        let packed = {
            let _fc = self.obs.span(Phase::FactorComp);
            SymPacked::from_matrix(&factor())
        };
        self.held.push(packed);
        self.members.push((si, side));
        let filled = self
            .ctls
            .as_mut()
            .is_some_and(|ctls| ctls[pass].offer(pos).is_some());
        if filled {
            self.send(Some(match side {
                Side::A => "a",
                Side::G => "g",
            }));
        }
    }

    /// Sends the held factors as one fused all-reduce; a pipelined flush
    /// names its pass for the realized-flush metrics.
    fn send(&mut self, pass: Option<&str>) {
        let sizes: Vec<usize> = self.held.iter().map(SymPacked::len).collect();
        let concat: Vec<f64> = self.held.drain(..).flat_map(SymPacked::into_vec).collect();
        if let Some(pass) = pass.filter(|_| self.comm.rank() == 0) {
            self.obs.record_flush(pass, concat.len());
        }
        self.comm.set_phase(Phase::FactorComm);
        self.pending.push((
            std::mem::take(&mut self.members),
            sizes,
            self.comm.allreduce_avg_async(concat),
        ));
    }

    /// Sends whatever a bulk schedule held and hands over every in-flight
    /// factor all-reduce of the iteration.
    fn finish(&mut self) -> Vec<PendingFactors> {
        if let Some(ctls) = &self.ctls {
            assert!(ctls[1].is_drained(), "unflushed G-factor bucket");
        }
        if !self.held.is_empty() {
            self.send(None);
        }
        std::mem::take(&mut self.pending)
    }
}

impl Preconditioner {
    /// Elements one tensor's result occupies in its broadcast.
    fn wire_len(self, d: usize) -> usize {
        match self {
            Preconditioner::None => 0,
            Preconditioner::Kfac => d * (d + 1) / 2,
            Preconditioner::Ekfac => d * d + d,
        }
    }

    /// The per-tensor operation on one factor of `st`, flattened for its
    /// broadcast: the packed damped inverse (K-FAC) or `Q‖λ` (EKFAC).
    fn compute(self, st: &FactorState, side: Side, damping: f64) -> Result<Vec<f64>, String> {
        match self {
            Preconditioner::None => unreachable!("first-order schedules have no per-tensor work"),
            Preconditioner::Kfac => {
                let damped = match side {
                    Side::A => st.damped_a(damping),
                    Side::G => st.damped_g(damping),
                };
                let inv =
                    chol::spd_inverse(&damped).map_err(|e| format!("inversion failed: {e}"))?;
                Ok(SymPacked::from_matrix(&inv).into_vec())
            }
            Preconditioner::Ekfac => {
                let factor = match side {
                    Side::A => st.factor_a(),
                    Side::G => st.factor_g(),
                }
                .expect("no factor statistics");
                let e = sym_eig(factor).map_err(|e| format!("eigendecomposition failed: {e}"))?;
                let mut out = e.vectors.into_vec();
                out.extend_from_slice(&e.values);
                Ok(out)
            }
        }
    }

    /// Installs tensor `t`'s result (`d`-dimensional, as [`Self::compute`]
    /// laid it out) into the trainer state.
    fn install(
        self,
        t: usize,
        d: usize,
        mut data: Vec<f64>,
        states: &mut [FactorState],
        bases: &mut [Option<(Matrix, Vec<f64>)>],
    ) {
        let st = &mut states[t / 2];
        match (self, Side::of_tensor(t)) {
            (Preconditioner::None, _) => unreachable!("first-order schedules install nothing"),
            (Preconditioner::Kfac, Side::A) => {
                st.set_a_inv(SymPacked::from_vec(d, data).to_matrix())
            }
            (Preconditioner::Kfac, Side::G) => {
                st.set_g_inv(SymPacked::from_vec(d, data).to_matrix())
            }
            (Preconditioner::Ekfac, _) => {
                let values = data.split_off(d * d);
                bases[t] = Some((Matrix::from_vec(d, d, data), values));
            }
        }
    }
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
    let schedule = cfg.algorithm.schedule();
    let fusion_strategy = match schedule.factor_comm {
        FactorComm::Bulk => None,
        FactorComm::Pipelined(strategy) => Some(strategy),
    };
    let precond = schedule.preconditioner;
    let capture = precond != Preconditioner::None;

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
    let state_of = |li: usize| state_of_layer[li].expect("factor from a layer without K-FAC state");
    let dims = net.kfac_dims(); // (a_dim, g_dim) per state

    // Placement of the per-tensor operation over the 2L tensors (A_l, G_l
    // interleaved). The generation-0 plan goes into the epoch-versioned
    // store; re-plan barriers may swap it later (see `crate::runtime`).
    let inv_dims: Vec<usize> = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
    let inv_placement = placement::place(
        &inv_dims,
        world,
        &cfg.comp_model,
        &cfg.comm_model,
        schedule.placement,
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

        // ---------- Forward, with the A-factor pass -----------------------
        // Until the first iteration's ready times are agreed, nothing is
        // known to hide a message behind: each pipelined pass goes out as
        // one message (Naive), not one startup per factor that a short pass
        // would leave fully exposed.
        let ctls = fusion_strategy.map(|_| {
            let plans = store.current();
            [&plans.a_fusion, &plans.g_fusion].map(|plan| {
                FusionController::new(plan.clone().unwrap_or_else(|| {
                    fusion::plan(
                        &FactorPipeline::new(vec![0.0; nlayers], vec![0; nlayers]).expect("valid"),
                        &cfg.comm_model,
                        FusionStrategy::Naive,
                    )
                }))
            })
        });
        let mut flow = FactorFlow::new(comm, obs, ctls, nlayers);
        comm.set_phase(Phase::FactorComm);
        let forward_span = obs.span(Phase::FfBp);
        flow.start_pass(Side::A);
        let out = net.forward_each(&x, capture, |li, layer| {
            if let Some(a_rows) = layer.take_a_stat() {
                flow.offer(Side::A, state_of(li), || local_factor_a(&a_rows));
            }
        });
        drop(forward_span);

        // ---------- Loss ------------------------------------------------
        let (local_loss, grad) = softmax_cross_entropy(&out, &y);

        // ---------- Backward, with the G-factor pass and WFBP -------------
        // Gradients of each layer become ready as its backward runs; they
        // join a fusion buffer and are all-reduced asynchronously once
        // `grad_fusion_elems` is reached — the wait-free back-propagation of
        // §II-A.
        // In-flight gradient buckets: (segments = (layer, param, len), handle).
        type GradSegment = (usize, usize, usize);
        let mut grad_pending: Vec<(Vec<GradSegment>, PendingOp)> = Vec::new();
        let mut grad_buf: Vec<f64> = Vec::new();
        let mut grad_segments: Vec<GradSegment> = Vec::new();
        flow.start_pass(Side::G);
        let backward_span = obs.span(Phase::FfBp);
        net.backward_each(&grad, |li, layer| {
            if let Some((g_rows, n)) = layer.take_g_stat() {
                flow.offer(Side::G, state_of(li), || local_factor_g(&g_rows, n));
            }
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
        if !grad_buf.is_empty() {
            comm.set_phase(Phase::GradComm);
            grad_pending.push((
                std::mem::take(&mut grad_segments),
                comm.allreduce_avg_async(std::mem::take(&mut grad_buf)),
            ));
        }
        // A bulk schedule's A‖G message leaves here, after the last
        // gradient bucket.
        let factor_pending = flow.finish();

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
        for (members, sizes, handle) in factor_pending {
            let data = handle.wait()?.data;
            let mut off = 0usize;
            for ((si, side), sz) in members.into_iter().zip(sizes) {
                let packed = data[off..off + sz].to_vec();
                off += sz;
                let (a, g) = dims[si];
                match side {
                    Side::A => states[si].update_a(
                        SymPacked::from_vec(a, packed).to_matrix(),
                        cfg.kfac.stat_decay,
                    ),
                    Side::G => states[si].update_g(
                        SymPacked::from_vec(g, packed).to_matrix(),
                        cfg.kfac.stat_decay,
                    ),
                }
            }
        }

        // ---------- Per-tensor operation per placement ------------------
        // Each rank computes its assigned tensors (NCTs + own CTs), the
        // owners broadcast CT results (everyone issues in tensor order), and
        // every rank installs all 2L results.
        if capture && iter % cfg.kfac.inv_update_freq.max(1) == 0 {
            let placement = &store.current().placement;
            let mut results: Vec<Option<Vec<f64>>> = vec![None; 2 * nlayers];
            for t in placement.set_for_gpu(rank) {
                // One sized span per tensor: the calibrator reads
                // (dimension, duration) pairs off these.
                let _inv = obs.span(Phase::InverseComp).map(|g| g.sized(inv_dims[t]));
                let result = precond
                    .compute(&states[t / 2], Side::of_tensor(t), cfg.kfac.damping)
                    .unwrap_or_else(|e| panic!("rank {rank}: tensor {t}: {e}"));
                results[t] = Some(result);
            }
            comm.set_phase(Phase::InverseComm);
            let mut bcasts: Vec<(usize, PendingOp)> = Vec::new();
            for (t, assignment) in placement.assignments().iter().enumerate() {
                if let TensorAssignment::Gpu(owner) = *assignment {
                    let buf = results[t]
                        .take()
                        .unwrap_or_else(|| vec![0.0; precond.wire_len(inv_dims[t])]);
                    bcasts.push((t, comm.broadcast_async(buf, owner)));
                }
            }
            for (t, h) in bcasts {
                results[t] = Some(h.wait()?.data);
            }
            for (t, result) in results.into_iter().enumerate() {
                let data = result.expect("result neither computed nor received");
                precond.install(t, inv_dims[t], data, states, ekfac_bases);
            }
            if precond == Preconditioner::Ekfac {
                // Reseed the eigenbasis scales from the eigenvalue products
                // (the K-FAC spectrum), to be moment-corrected by the
                // per-step EMA below.
                for si in 0..nlayers {
                    let (_, va) = ekfac_bases[2 * si].as_ref().expect("A basis");
                    let (_, vg) = ekfac_bases[2 * si + 1].as_ref().expect("G basis");
                    ekfac_scales[si] = Some(Matrix::from_fn(vg.len(), va.len(), |i, j| {
                        (vg[i] * va[j]).max(0.0)
                    }));
                }
            }
        }

        // ---------- Update -------------------------------------------------
        let update_span = obs.labeled_span(Phase::Update, format!("iter{iter}"));
        if capture {
            let (mut directions, raw) = if precond == Preconditioner::Ekfac {
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

        // ---------- Agree on fusion plans after the first iteration --------
        // "First" is per segment: fusion plans are derived from measured
        // ready-times under the *current* world size, so each membership
        // epoch re-agrees from its own first iteration.
        if let Some(strategy) = fusion_strategy.filter(|_| iter == seg_start && nlayers > 0) {
            let [a_ready, g_ready] = &flow.ready;
            let mut times: Vec<f64> = a_ready.iter().chain(g_ready).copied().collect();
            allreduce_avg_checked(comm, &mut times)?;
            let (a_avg, g_avg) = times.split_at(nlayers);
            let a_sizes: Vec<usize> = dims.iter().map(|&(a, _)| a * (a + 1) / 2).collect();
            let g_sizes: Vec<usize> = dims.iter().rev().map(|&(_, g)| g * (g + 1) / 2).collect();
            let a_pipe = FactorPipeline::new(monotonize(a_avg), a_sizes).expect("A pipeline valid");
            let g_pipe = FactorPipeline::new(monotonize(g_avg), g_sizes).expect("G pipeline valid");
            let a = fusion::plan(&a_pipe, &cfg.comm_model, strategy);
            let g = fusion::plan(&g_pipe, &cfg.comm_model, strategy);
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
                schedule.placement,
                Some(&prev),
                a_pipeline.as_ref(),
                g_pipeline.as_ref(),
                // Only pipelined schedules have measured pipelines to plan.
                fusion_strategy.unwrap_or(FusionStrategy::Naive),
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
                let announced = comm.broadcast_async(len_buf, src).wait()?.data;
                let bound = TrainCheckpoint::max_packed_len(&state.net, iters);
                let len = handoff_len(announced.first().copied().unwrap_or(f64::NAN), bound)
                    .map_err(|e| CommError::Io(format!("epoch {}: {e}", ep.epoch)))?;
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

/// Checks the checkpoint length a state source announced before anything
/// is allocated for it: a finite, non-negative integer no larger than
/// `bound`, the longest checkpoint this model and run length can pack.
fn handoff_len(announced: f64, bound: usize) -> Result<usize, String> {
    // NaN fails every comparison; ±∞ and 1e300 fail the bound.
    if announced >= 0.0 && announced.fract() == 0.0 && announced <= bound as f64 {
        return Ok(announced as usize);
    }
    Err(format!(
        "state handoff announced {announced} values; this model packs at most {bound}"
    ))
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
    fn table_lbp_is_the_placement_default() {
        assert_eq!(
            Algorithm::SpdKfac.schedule().placement,
            PlacementStrategy::default()
        );
    }

    #[test]
    fn handoff_length_is_bounded_by_the_fullest_checkpoint() {
        let iters = 7;
        let mut cfg = DistributedConfig::new(2, Algorithm::EkfacSpd);
        cfg.kfac.momentum = 0.9;
        let build = || deep_mlp(5, 6, 2, 3, 9);
        let mut ws = WorkerState::fresh(&cfg, &build);
        // Populate every optional section: momentum, factors, inverses,
        // EKFAC bases and scales, and one loss per iteration.
        ws.sgd.step(&mut ws.net.parameters_mut());
        let dims = ws.net.kfac_dims();
        for (si, &(a, g)) in dims.iter().enumerate() {
            let st = &mut ws.states[si];
            st.update_a(Matrix::identity(a), 0.0);
            st.update_g(Matrix::identity(g), 0.0);
            st.set_a_inv(Matrix::identity(a));
            st.set_g_inv(Matrix::identity(g));
            ws.ekfac_bases[2 * si] = Some((Matrix::identity(a), vec![1.0; a]));
            ws.ekfac_bases[2 * si + 1] = Some((Matrix::identity(g), vec![1.0; g]));
            ws.ekfac_scales[si] = Some(Matrix::from_fn(g, a, |_, _| 1.0));
        }
        ws.losses = vec![0.5; iters];
        ws.next_iter = iters;
        let packed = ws.checkpoint().pack().len();
        let bound = TrainCheckpoint::max_packed_len(&ws.net, iters);
        assert_eq!(packed, bound, "the fullest checkpoint defines the bound");
        assert_eq!(handoff_len(packed as f64, bound), Ok(packed));
        assert_eq!(handoff_len(0.0, bound), Ok(0));
        for bad in [
            f64::NAN,
            -1.0,
            (bound + 1) as f64,
            1e300,
            f64::INFINITY,
            2.5,
        ] {
            assert!(handoff_len(bad, bound).is_err(), "{bad} accepted");
        }
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
