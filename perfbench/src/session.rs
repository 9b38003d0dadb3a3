//! One training session: a fresh 2-rank loopback TCP ring running the
//! SPD-KFAC `TrainSession`, with a parameter-free probe layer prepended to
//! each replica so iteration boundaries are visible from outside the
//! trainer.

use crate::workload::{Workload, WORLD};
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::{Backend, CommError, CommGroup, TcpConfig, WirePolicy, WorkerComm};
use spdkfac_core::distributed::{RunResult, TrainSession};
use spdkfac_nn::data::Dataset;
use spdkfac_nn::layers::ReLU;
use spdkfac_nn::{KfacCapture, Layer, Param, Sequential, Tensor4};
use spdkfac_obs::Recorder;
use std::sync::{Arc, Mutex};
use std::thread;

/// Identity layer that timestamps every forward call. It has no
/// parameters and no Kronecker factors, so the trainer treats it as inert.
struct Probe {
    clock: Arc<Recorder>,
    stamps: Arc<Mutex<Vec<f64>>>,
}

impl Layer for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn forward(&mut self, x: &Tensor4, _capture: bool) -> Tensor4 {
        self.stamps
            .lock()
            .expect("probe stamps poisoned")
            .push(self.clock.now());
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        grad_out.clone()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn take_capture(&mut self) -> Option<KfacCapture> {
        None
    }

    fn kfac_dims(&self) -> Option<(usize, usize)> {
        None
    }
}

/// `net` with a probe in front. `Sequential` does not give its layers
/// back, so each is swapped out for a placeholder that is dropped with the
/// emptied container.
fn with_probe(
    mut net: Sequential,
    clock: &Arc<Recorder>,
    stamps: &Arc<Mutex<Vec<f64>>>,
) -> Sequential {
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Probe {
        clock: Arc::clone(clock),
        stamps: Arc::clone(stamps),
    })];
    for slot in net.layers_mut() {
        layers.push(std::mem::replace(slot, Box::new(ReLU::new())));
    }
    Sequential::new(layers)
}

/// What one rank of a session produced.
#[derive(Debug)]
pub struct RankRun {
    pub result: RunResult,
    /// Probe time of each forward call, one per iteration.
    pub stamps: Vec<f64>,
    /// Time `TrainSession::run` returned.
    pub end: f64,
    /// Duration of this rank's `CommGroup::build`.
    pub group_form_s: f64,
}

/// One finished session. All times are seconds on `clock`.
#[derive(Debug)]
pub struct Session {
    /// Recorder the trainer wrote spans into (traced sessions), and the
    /// clock of every timestamp either way.
    pub clock: Arc<Recorder>,
    pub traced: bool,
    /// Time ring formation started.
    pub ring_start: f64,
    pub ranks: Vec<RankRun>,
}

impl Session {
    /// From ring formation to the start of rank 0's first iteration.
    pub fn setup_s(&self) -> f64 {
        self.ranks[0].stamps[0] - self.ring_start
    }
}

/// Joins rank `rank` to the 2-rank TCP ring whose rendezvous listens at
/// `addr`.
pub fn join_ring(addr: &str, rank: usize, wire: WirePolicy) -> Result<WorkerComm, CommError> {
    let mut tcp = TcpConfig::new(addr).with_rank(rank);
    tcp.host_rendezvous = false;
    Ok(CommGroup::builder()
        .world_size(WORLD)
        .wire_policy(wire)
        .backend(Backend::Tcp(tcp))
        .build()?
        .into_single())
}

/// Runs `iters` iterations of `w` on a freshly formed 2-rank TCP ring;
/// `traced` attaches a recorder to both ranks.
pub fn run(w: &Workload, data: &Dataset, iters: usize, traced: bool) -> Result<Session, String> {
    let clock = Arc::new(Recorder::new(if traced { 2 * WORLD } else { 0 }));
    let cfg = w.config();
    let ring_start = clock.now();
    let addr = RendezvousServer::spawn("127.0.0.1:0", WORLD)
        .map_err(|e| format!("rendezvous bind: {e}"))?
        .to_string();
    let ranks = thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let (addr, cfg, clock) = (&addr, &cfg, &clock);
                s.spawn(move || -> Result<RankRun, String> {
                    let t0 = clock.now();
                    let comm = join_ring(addr, rank, cfg.wire)
                        .map_err(|e| format!("rank {rank}: ring formation: {e}"))?;
                    let group_form_s = clock.now() - t0;
                    let stamps = Arc::new(Mutex::new(Vec::with_capacity(iters)));
                    let build = || with_probe((w.model)(), clock, &stamps);
                    let mut session = TrainSession::builder(cfg.clone()).endpoint(comm);
                    if traced {
                        session = session.recorder(Arc::clone(clock));
                    }
                    let result = session
                        .run(&build, data, iters, w.batch)
                        .map_err(|e| format!("rank {rank}: {e}"))?;
                    let end = clock.now();
                    let stamps =
                        std::mem::take(&mut *stamps.lock().expect("probe stamps poisoned"));
                    Ok(RankRun {
                        result,
                        stamps,
                        end,
                        group_form_s,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank panicked".to_string()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Session {
        clock,
        traced,
        ring_start,
        ranks,
    })
}

/// Trains a few iterations in process (local backend, f64 wire) with and
/// without the probe; `true` when the final parameters are bit-identical
/// and the probe saw every iteration of every rank.
pub fn probe_is_neutral(w: &Workload, data: &Dataset, iters: usize) -> bool {
    let mut cfg = w.config();
    cfg.wire = Default::default();
    let plain = TrainSession::builder(cfg.clone())
        .run(&w.model, data, iters, w.batch)
        .expect("local backend is infallible");
    let clock = Arc::new(Recorder::new(0));
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let probed = TrainSession::builder(cfg)
        .run(
            &|| with_probe((w.model)(), &clock, &stamps),
            data,
            iters,
            w.batch,
        )
        .expect("local backend is infallible");
    let seen = stamps.lock().expect("probe stamps poisoned").len();
    seen == iters * WORLD && bits(&plain.final_params) == bits(&probed.final_params)
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the bit patterns of `v`.
pub fn hash(v: &[f64]) -> u64 {
    v.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}
