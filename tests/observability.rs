//! Cross-crate integration: the unified instrumentation layer observing the
//! real trainers — measured breakdowns account for wall time, SPD-KFAC's
//! pipelining visibly hides factor communication relative to D-KFAC (by
//! timing, and by collective submission order), and
//! the exported Chrome trace is valid Perfetto-loadable JSON with one row
//! per rank plus one per phase category.

use spdkfac::core::calibrate::Calibrator;
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::ExpInverseModel;
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::{
    chrome_trace, validate_json, CollEdge, CriticalReport, IterationBreakdown, Phase, RankMap,
    Recorder, TrackLayout,
};
use std::sync::Arc;
use std::time::Instant;

fn run_with_recorder(
    world: usize,
    algorithm: Algorithm,
    iters: usize,
) -> (Arc<Recorder>, IterationBreakdown, f64) {
    let rec = Arc::new(Recorder::new(2 * world));
    let mut cfg = DistributedConfig::new(world, algorithm);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    let t = Instant::now();
    let _ = TrainSession::builder(cfg)
        .recorder(Arc::clone(&rec))
        .run(&|| deep_mlp(8, 24, 8, 3, 5), &data, iters, 4)
        .expect("local run");
    let wall = t.elapsed().as_secs_f64();
    let b = IterationBreakdown::from_recorder(&rec, world);
    (rec, b, wall)
}

#[test]
fn measured_breakdown_accounts_for_wall_time() {
    let (_, b, wall) = run_with_recorder(2, Algorithm::SpdKfac, 8);
    // The breakdown covers first-span-start..last-span-end, which sits
    // strictly inside the train() wall time (setup/teardown excluded) but
    // must account for the bulk of it.
    assert!(b.total() > 0.0);
    assert!(
        b.total() <= wall,
        "breakdown {:.6}s exceeds wall {:.6}s",
        b.total(),
        wall
    );
    assert!(
        b.total() > 0.2 * wall,
        "breakdown {:.6}s misses most of wall {:.6}s",
        b.total(),
        wall
    );
    // All major phases of an SPD-KFAC iteration were observed.
    assert!(b.ff_bp > 0.0, "no FF&BP time attributed");
    assert!(b.inverse_comp > 0.0, "no inversion time attributed");
}

#[test]
fn spd_hides_factor_comm_better_than_dkfac() {
    // The paper's headline mechanism: D-KFAC all-reduces every factor in
    // one bulk message after backward (fully exposed), SPD-KFAC pipelines
    // per-bucket all-reduces behind FF&BP — so the non-overlapped factor
    // communication share must be lower under SPD-KFAC on the same model.
    // One wall-clock sample per algorithm is at the mercy of the
    // scheduler, so the claim is made on the median of interleaved runs.
    let world = 4;
    let share = |algorithm| {
        let (_, b, _) = run_with_recorder(world, algorithm, 10);
        b.factor_comm / b.total()
    };
    let (mut d, mut s) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        d.push(share(Algorithm::DKfac));
        s.push(share(Algorithm::SpdKfac));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (d_share, s_share) = (median(&mut d), median(&mut s));
    assert!(
        s_share < d_share,
        "SPD median factor_comm share {s_share:.4} not below D-KFAC {d_share:.4} \
         (spd runs {s:.4?}, dkfac runs {d:.4?})"
    );
}

/// One rank's all-reduces per iteration, read off its comm track in
/// submission order as `(seq, phase)` pairs. The Update-phase all-reduces
/// (the loss, and after the first pipelined iteration the plan agreement)
/// close each iteration.
fn allreduces_per_iteration(rec: &Recorder, world: usize, rank: usize) -> Vec<Vec<(u64, Phase)>> {
    let mut ops: Vec<(u64, Phase)> = rec
        .spans()
        .iter()
        .filter(|s| s.track == world + rank && s.meta.edge == Some(CollEdge::Join))
        .filter_map(|s| s.meta.seq.map(|seq| (seq, s.phase)))
        .collect();
    ops.sort_unstable_by_key(|&(seq, _)| seq);
    let mut iters = Vec::new();
    let mut cur = Vec::new();
    for op in ops {
        if op.1 != Phase::Update {
            cur.push(op);
        } else if !cur.is_empty() {
            iters.push(std::mem::take(&mut cur));
        }
    }
    assert!(
        cur.is_empty(),
        "rank {rank}: collectives after the last loss"
    );
    iters
}

#[test]
fn factor_allreduces_follow_the_schedule() {
    // Timing-free companion of the headline test above: the submission
    // order of each rank's collectives shows the schedule directly.
    // SPD-KFAC's pipelined A message leaves during forward, before any
    // gradient all-reduce; D-KFAC and MPD-KFAC send exactly one bulk factor
    // all-reduce per iteration, after the last gradient bucket.
    let (world, iters) = (4, 4);
    for algorithm in [Algorithm::SpdKfac, Algorithm::DKfac, Algorithm::MpdKfac] {
        let (rec, _, _) = run_with_recorder(world, algorithm, iters);
        for rank in 0..world {
            let per_iter = allreduces_per_iteration(&rec, world, rank);
            assert_eq!(per_iter.len(), iters, "{algorithm:?} rank {rank}");
            for (i, ops) in per_iter.iter().enumerate() {
                let seqs = |phase| -> Vec<u64> {
                    ops.iter()
                        .filter(|op| op.1 == phase)
                        .map(|op| op.0)
                        .collect()
                };
                let (factor, grad) = (seqs(Phase::FactorComm), seqs(Phase::GradComm));
                let what = format!("{algorithm:?} rank {rank} iter {i}: {ops:?}");
                assert!(!factor.is_empty() && !grad.is_empty(), "{what}");
                if algorithm == Algorithm::SpdKfac {
                    assert!(factor[0] < grad[0], "{what}");
                } else {
                    assert_eq!(factor.len(), 1, "{what}");
                    assert!(factor[0] > grad[grad.len() - 1], "{what}");
                }
            }
        }
    }
}

#[test]
fn exported_trace_is_valid_perfetto_json_with_expected_rows() {
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 4);
    let layout = TrackLayout::trainer(world);
    let json = chrome_trace(&rec.spans(), &layout);
    validate_json(&json).expect("trace must be valid JSON");

    // One metadata row per rank compute stream, per rank comm thread, and
    // per phase category.
    for r in 0..world {
        assert!(
            json.contains(&format!("\"rank{r}\"")),
            "missing rank{r} row"
        );
        assert!(
            json.contains(&format!("\"rank{r} comm\"")),
            "missing rank{r} comm row"
        );
    }
    for p in Phase::ALL {
        assert!(
            json.contains(&format!("\"phase:{}\"", p.name())),
            "missing phase row {}",
            p.name()
        );
    }
    let meta = json.matches("\"ph\":\"M\"").count();
    assert_eq!(meta, 2 * world + Phase::ALL.len());
    assert!(
        json.matches("\"ph\":\"X\"").count() > 0,
        "no slices exported"
    );
}

#[test]
fn critical_path_attributes_iteration_wall_time() {
    // The acceptance bar of the causal analysis: on a real 4-rank SPD-KFAC
    // run the four attribution categories must sum to within 5% of the
    // measured iteration span on every rank (they are constructed as an
    // exact partition, so this holds with margin), and the critical path
    // itself must tile ≥95% of the window.
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 6);
    let spans = rec.spans();
    let report = CriticalReport::from_spans(&spans, RankMap::trainer(world));
    let wall = report.wall();
    assert!(wall > 0.0);
    assert_eq!(report.ranks.len(), world);
    for r in &report.ranks {
        let covered = r.total();
        assert!(
            (covered - wall).abs() <= 0.05 * wall,
            "rank {}: categories sum {:.6}s vs wall {:.6}s",
            r.rank,
            covered,
            wall
        );
        assert!(r.compute > 0.0, "rank {} attributed no compute", r.rank);
    }
    assert!(
        report.path_total() >= 0.95 * wall,
        "critical path covers {:.6}s of {:.6}s wall",
        report.path_total(),
        wall
    );
    // Collective groups were matched across ranks via span metadata.
    assert!(report.num_groups > 0, "no cross-rank collective groups");

    // The machine-readable and highlighted-trace exports stay valid, and
    // the trace lands at a stable path CI uploads as a workflow artifact.
    validate_json(&report.to_json()).expect("report JSON");
    let trace = report.highlighted_trace(&spans, &TrackLayout::trainer(world));
    validate_json(&trace).expect("highlighted trace JSON");
    assert!(trace.contains("critical path"), "missing highlighted track");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("observability_critical_trace.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create target dir");
    }
    std::fs::write(&out, &trace).expect("write trace artifact");
}

#[test]
fn same_critical_analysis_runs_on_simulator_traces() {
    // The analyzer must not care whether spans came from threads or from
    // the discrete-event simulator: metadata-free simulator spans with the
    // shared-network track convention go through the identical code path.
    use spdkfac::models::resnet50;
    use spdkfac::sim::{graph::to_obs_spans, simulate_iteration, Algo, SimConfig};
    let world = 4;
    let sim = simulate_iteration(&resnet50(), &SimConfig::paper_testbed(world), Algo::SpdKfac);
    let spans = to_obs_spans(&sim.spans);
    let max_track = spans.iter().map(|s| s.track).max().expect("sim spans");
    let report = CriticalReport::from_spans(&spans, RankMap::simulator(world, max_track + 1));
    let wall = report.wall();
    assert!(wall > 0.0);
    assert_eq!(report.ranks.len(), world);
    for r in &report.ranks {
        assert!(
            (r.total() - wall).abs() <= 0.05 * wall,
            "rank {}: categories sum {:.6}s vs wall {:.6}s",
            r.rank,
            r.total(),
            wall
        );
    }
    assert!(report.path_total() >= 0.95 * wall);
    validate_json(&report.to_json()).expect("sim report JSON");
}

#[test]
fn drift_detector_flags_miscalibrated_inverse_model_only() {
    // Calibration closes the loop from measured spans back to the planning
    // models. A trainer planned with a wildly mis-calibrated inversion
    // model must produce ≥1 NCT/CT flip in the counterfactual re-plan; a
    // well-calibrated baseline (the refit of the very same samples) must
    // produce none.
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 6);
    let cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    let dims: Vec<usize> = deep_mlp(8, 24, 8, 3, 5)
        .kfac_dims()
        .iter()
        .flat_map(|&(a, g)| [a, g])
        .collect();
    assert!(!dims.is_empty());

    // Two opposite mis-calibrations bracket the measured truth: one
    // baseline thinks inversion is ~1e9x cheaper than modelled (classifies
    // everything NCT), the other ~1e9x costlier (everything CT). The refit
    // classification is a concrete NCT/CT assignment, so at least one of
    // the two baselines must disagree on at least one tensor.
    let mut flips = 0usize;
    for scale in [1e-9, 1e9] {
        let mis = ExpInverseModel::new(cfg.comp_model.alpha * scale, cfg.comp_model.beta);
        let mut cal = Calibrator::new(mis, cfg.comm_model);
        assert!(cal.ingest_recorder(&rec) > 0, "no calibration samples");
        cal.refit();
        assert!(cal.models().inverse.is_some(), "inverse refit missing");
        flips += cal.check_drift(&dims, world, None).nct_flips();
    }
    assert!(flips >= 1, "mis-calibrated baselines produced no NCT flip");

    // Well-calibrated control: a calibrator whose baselines *are* the refit
    // of the same samples re-plans identically — zero flips.
    let mut seed = Calibrator::new(cfg.comp_model, cfg.comm_model);
    seed.ingest_recorder(&rec);
    let models = seed.refit();
    let comp = models.inverse.expect("inverse refit");
    let comm = models.broadcast.unwrap_or(cfg.comm_model);
    let mut well = Calibrator::new(comp, comm);
    well.ingest_recorder(&rec);
    well.refit();
    let report = well.check_drift(&dims, world, None);
    assert_eq!(
        report.nct_flips(),
        0,
        "well-calibrated run flagged flips: {:?}",
        report.flips
    );
    assert_eq!(report.baseline_nct_threshold, report.refit_nct_threshold);

    // Calibration health is exported through the shared metrics registry.
    well.publish_metrics(rec.metrics());
    let snap = rec.metrics().snapshot();
    assert!(snap.gauges.contains_key("calib/inverse/residual"));
    assert!(snap.gauges["calib/inverse/samples"] > 0.0);
    assert!(snap.histograms.contains_key("calib/inverse/drift"));
}
