//! Per-layer metrics of traced sessions: the trainer's own `Recorder`
//! phase spans and gauges, cut into steady iterations by the probe's
//! timestamps, plus the kernel timings of [`crate::micro`].

use crate::micro::{Metric, Micro};
use crate::session::{self, Session};
use crate::workload::{Stress, Workload, INVERSE_MODEL, WORLD};
use crate::{best_samples_per_s, boundaries, WARMUP_ITERS};
use spdkfac_obs::{Phase, Span};
use std::collections::{BTreeMap, BTreeSet};

/// How far the compute-track self times plus `compute_wait_s` may miss the
/// steady wall time, as a share of it.
const ACCOUNTING_TOLERANCE: f64 = 0.01;

/// Sums over the steady iterations of traced sessions.
#[derive(Default)]
struct Totals {
    iters: usize,
    wall: f64,
    /// Rank 0 compute track, by phase.
    compute: BTreeMap<Phase, f64>,
    /// Union of rank 0's compute spans.
    busy: f64,
    /// Rank 0 comm thread, by phase.
    comm: BTreeMap<Phase, f64>,
    inverse_per_rank: [f64; WORLD],
    /// (seconds, calls) of InverseComp spans by tensor dim, all ranks.
    inverse_by_dim: BTreeMap<usize, (f64, usize)>,
}

impl Totals {
    fn add(&mut self, s: &Session) {
        let b = boundaries(s);
        let (lo, hi) = (b[WARMUP_ITERS], b[b.len() - 1]);
        self.iters += b.len() - 1 - WARMUP_ITERS;
        self.wall += hi - lo;
        let spans: Vec<Span> = s
            .clock
            .spans()
            .into_iter()
            .filter(|sp| (lo..hi).contains(&((sp.start + sp.end) / 2.0)))
            .collect();
        let mut top = Vec::new();
        for sp in &spans {
            let d = sp.duration();
            if sp.track == 0 {
                *self.compute.entry(sp.phase).or_default() += d;
                if sp.phase != Phase::FactorComp {
                    top.push((sp.start.max(lo), sp.end.min(hi)));
                }
            } else if sp.track == WORLD {
                *self.comm.entry(sp.phase).or_default() += d;
            }
            if sp.track < WORLD && sp.phase == Phase::InverseComp {
                self.inverse_per_rank[sp.track] += d;
                if let Some(dim) = sp.meta.size {
                    let e = self.inverse_by_dim.entry(dim).or_default();
                    e.0 += d;
                    e.1 += 1;
                }
            }
        }
        self.busy += union(top);
    }

    fn per_iter(&self, v: f64) -> f64 {
        v / self.iters as f64
    }

    fn compute(&self, p: Phase) -> f64 {
        self.per_iter(self.compute.get(&p).copied().unwrap_or(0.0))
    }

    fn comm(&self, p: Phase) -> f64 {
        self.per_iter(self.comm.get(&p).copied().unwrap_or(0.0))
    }
}

/// Total length covered by `intervals`.
fn union(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

fn gauge(s: &Session, name: &str) -> f64 {
    s.clock
        .metrics()
        .snapshot()
        .gauges
        .get(name)
        .copied()
        .unwrap_or(f64::NAN)
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Per-layer metrics of a traced run: span figures from its traced
/// sessions, counts over all of them.
pub fn per_layer(w: &Workload, all: &[Session], micro: &Micro) -> Vec<Metric> {
    let (traced, untraced): (Vec<&Session>, Vec<&Session>) = all.iter().partition(|s| s.traced);
    let mut t = Totals::default();
    for s in &traced {
        t.add(s);
    }
    let ffbp_self = t.compute(Phase::FfBp) - t.compute(Phase::FactorComp);
    let factor_comp = t.compute(Phase::FactorComp);
    let inverse_comp = t.compute(Phase::InverseComp);
    let update = t.compute(Phase::Update);
    let wall = t.per_iter(t.wall);
    let wait = wall - t.per_iter(t.busy);
    let comm_busy = t.per_iter(t.comm.values().sum());
    let inv_max = t.inverse_per_rank.iter().copied().fold(0.0, f64::max);
    let inv_mean = t.inverse_per_rank.iter().sum::<f64>() / WORLD as f64;

    println!(
        "# rank 0 per steady iteration ({} iterations): wall {:.6} s = FF&BP {ffbp_self:.6} + \
         FactorComp {factor_comp:.6} + InverseComp {inverse_comp:.6} + Update {update:.6} + \
         wait {wait:.6}; comm thread busy {comm_busy:.6}",
        t.iters, wall
    );
    let accounted = ffbp_self + factor_comp + inverse_comp + update + wait;
    let miss = (accounted - wall).abs() / wall;
    println!(
        "# accounting: self times + compute_wait_s miss the wall time by {:.3}% (tolerance {}%): {}",
        100.0 * miss,
        100.0 * ACCOUNTING_TOLERANCE,
        if miss <= ACCOUNTING_TOLERANCE { "ok" } else { "FAILED" }
    );
    let (what, holds) = match w.stress {
        Stress::Inversion => (
            "InverseComp + Update > FF&BP + FactorComp",
            inverse_comp + update > ffbp_self + factor_comp,
        ),
        Stress::Compute => (
            "FF&BP + FactorComp > InverseComp + Update",
            ffbp_self + factor_comp > inverse_comp + update,
        ),
        Stress::Comm => (
            "comm-thread busy > FF&BP + FactorComp",
            comm_busy > ffbp_self + factor_comp,
        ),
    };
    println!("# stress: {what}: {}", if holds { "ok" } else { "FAILED" });

    // Per Kronecker factor: measured InverseComp per call against the
    // pinned model's prediction.
    let per_call = |(&d, &(secs, calls)): (&usize, &(f64, usize))| {
        let t = secs / calls as f64;
        (t, t / INVERSE_MODEL.time(d))
    };
    for entry in &t.inverse_by_dim {
        let (secs, residual) = per_call(entry);
        println!(
            "# factor d={}: InverseComp {secs:.6} s/call over {} calls, model {:.6} s, \
             residual {residual:.3}",
            entry.0,
            entry.1 .1,
            INVERSE_MODEL.time(*entry.0),
        );
    }
    println!(
        "# inverse model: pinned alpha {:e} beta {:e}; refit on this machine alpha {:e} beta {:e}",
        INVERSE_MODEL.alpha, INVERSE_MODEL.beta, micro.inverse_fit.alpha, micro.inverse_fit.beta
    );
    let spans = "InverseComp spans recorded";
    let (dmin, rmin) = per_call(t.inverse_by_dim.iter().next().expect(spans));
    let (dmax, rmax) = per_call(t.inverse_by_dim.iter().next_back().expect(spans));

    for s in &traced {
        println!(
            "# traced fusion plan: {} A messages, {} G messages per pass",
            gauge(s, "fusion/a/messages"),
            gauge(s, "fusion/g/messages")
        );
    }
    let per_session = |f: fn(&Session) -> f64| mean(traced.iter().map(|s| f(s)));
    let run_counts = |f: fn(&spdkfac_core::distributed::RunResult) -> u64| {
        mean(traced.iter().map(|s| {
            let r = &s.ranks[0].result;
            f(r) as f64 / r.losses.len() as f64
        }))
    };
    let distinct: BTreeSet<u64> = all
        .iter()
        .map(|s| session::hash(&s.ranks[0].result.final_params))
        .collect();
    let form: Vec<f64> = all.iter().map(|s| s.ranks[0].group_form_s).collect();
    let overhead = best_samples_per_s(w, &untraced) / best_samples_per_s(w, &traced);

    let mut m: Vec<Metric> = vec![
        ("nn.ffbp_s".into(), ffbp_self, "s"),
        ("core.factors.factor_comp_s".into(), factor_comp, "s"),
        (
            "core.inverse_comp_s.max_rank".into(),
            t.per_iter(inv_max),
            "s",
        ),
        (
            "core.placement.imbalance".into(),
            inv_max / inv_mean,
            "ratio",
        ),
        (
            "core.placement.ct_tensors".into(),
            per_session(|s| gauge(s, "placement/ct")),
            "count",
        ),
        ("core.precond.update_s".into(), update, "s"),
        ("core.inverse_comp_s.dmin".into(), dmin, "s"),
        ("core.inverse_comp_s.dmax".into(), dmax, "s"),
        ("core.inverse_residual.dmin".into(), rmin, "ratio"),
        ("core.inverse_residual.dmax".into(), rmax, "ratio"),
        (
            "collectives.grad_comm_s".into(),
            t.comm(Phase::GradComm),
            "s",
        ),
        (
            "collectives.factor_comm_s".into(),
            t.comm(Phase::FactorComm),
            "s",
        ),
        (
            "collectives.inverse_comm_s".into(),
            t.comm(Phase::InverseComm),
            "s",
        ),
        ("core.distributed.compute_wait_s".into(), wait, "s"),
        (
            "collectives.wire_bytes_per_iter".into(),
            run_counts(|r| r.traffic_wire_bytes),
            "bytes",
        ),
        (
            "collectives.logical_bytes_per_iter".into(),
            run_counts(|r| 8 * r.traffic_elements),
            "bytes",
        ),
        (
            "collectives.ops_per_iter".into(),
            run_counts(|r| r.collective_ops),
            "count",
        ),
        (
            "core.fusion.messages_per_iter".into(),
            per_session(|s| gauge(s, "fusion/a/messages") + gauge(s, "fusion/g/messages")),
            "count",
        ),
        (
            "core.distributed.distinct_final_params".into(),
            distinct.len() as f64,
            "count",
        ),
        (
            "collectives.tcp.group_form_s".into(),
            crate::stats::median(&form),
            "s",
        ),
        ("obs.trace_overhead".into(), overhead, "ratio"),
    ];
    m.extend(micro.metrics.iter().cloned());
    m
}
