//! `perfbench`: the SPD-KFAC trainer on a 2-rank loopback TCP ring,
//! measured end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide_mlp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats identical training sessions (fresh ring, fresh replicas,
//! same seed-generated data) until `--seconds` have passed, checks every
//! session's outputs, and prints report lines (`# ...`) followed by one
//! JSON object on the last line. See `perfbench/README.md`.

mod micro;
mod session;
mod stats;
mod trace;
mod workload;

use session::Session;
use stats::{median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, WORLD};

/// Iterations at the start of each session left out of steady-state
/// figures: iteration 0 runs the layer-wise bootstrap fusion plan and
/// agrees the measured one, iteration 1 is the first on the agreed plan.
pub const WARMUP_ITERS: usize = 2;

/// Iterations the loss figures average over. One iteration's loss is a
/// 32- or 64-sample estimate whose batch-to-batch noise would swamp a
/// regression.
const LOSS_WINDOW: usize = 10;

/// Sessions a run makes at the least, whatever `--seconds` says.
const MIN_SESSIONS: usize = 3;

/// One-iteration sessions an untraced run adds for `setup_s`, whose
/// single samples are bimodal (see README).
const SETUP_SAMPLES: usize = 15;

/// Iterations of the in-process check that the probe leaves training
/// bit-identical.
const PROBE_CHECK_ITERS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The last line's content.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sessions of one run plus the running attempted/failed tallies.
#[derive(Default)]
struct Runs {
    sessions: Vec<Session>,
    attempted: usize,
    failed: usize,
    /// Peak RSS once `MIN_SESSIONS` untraced sessions have passed: a fixed
    /// amount of work, so the figure does not grow with the number of
    /// sessions a faster build fits into `--seconds`.
    peak_rss_mb: Option<f64>,
}

impl Runs {
    /// Runs and checks one session; a failed check fails all its
    /// iterations.
    fn session(&mut self, w: &Workload, data: &spdkfac_nn::data::Dataset, traced: bool) {
        self.attempted += w.iters;
        match session::run(w, data, w.iters, traced) {
            Ok(s) => {
                let problems = check(w, &s);
                for p in &problems {
                    println!("# check failed: {p}");
                }
                if problems.is_empty() {
                    self.sessions.push(s);
                    if self.peak_rss_mb.is_none() && self.of(false).len() == MIN_SESSIONS {
                        self.peak_rss_mb = stats::peak_rss_mb();
                    }
                } else {
                    self.failed += w.iters;
                }
            }
            Err(e) => {
                println!("# session failed: {e}");
                self.failed += w.iters;
            }
        }
    }

    /// Set-up times of `SETUP_SAMPLES` one-iteration sessions.
    fn setup_samples(&mut self, w: &Workload, data: &spdkfac_nn::data::Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            self.attempted += 1;
            match session::run(w, data, 1, false) {
                Ok(s) => out.push(s.setup_s()),
                Err(e) => {
                    println!("# set-up session failed: {e}");
                    self.failed += 1;
                }
            }
        }
        out
    }

    fn of(&self, traced: bool) -> Vec<&Session> {
        self.sessions
            .iter()
            .filter(|s| s.traced == traced)
            .collect()
    }
}

/// Output checks of one session; returns what failed.
fn check(w: &Workload, s: &Session) -> Vec<String> {
    let mut problems = Vec::new();
    let r0 = &s.ranks[0];
    if s.ranks.iter().any(|r| r.stamps.len() != w.iters) {
        problems.push("the probe did not see every iteration".to_string());
    }
    if s.ranks
        .iter()
        .any(|r| session::bits(&r.result.final_params) != session::bits(&r0.result.final_params))
    {
        problems.push("final parameters differ between ranks".to_string());
    }
    let losses = &r0.result.losses;
    if losses.len() != w.iters || losses.iter().any(|l| !l.is_finite()) {
        problems.push("losses missing or not finite".to_string());
    }
    if target_iter(w, losses).is_none() {
        problems.push(format!(
            "the {LOSS_WINDOW}-iteration mean loss never fell below {}",
            w.loss_target
        ));
    }
    if w.wire_policy().is_lossless()
        && s.ranks
            .iter()
            .any(|r| r.result.traffic_wire_bytes != 8 * r.result.traffic_elements)
    {
        problems.push("f64 wire bytes differ from 8 x elements".to_string());
    }
    problems
}

/// Rank 0's iteration boundaries: each forward start, then the return.
fn boundaries(s: &Session) -> Vec<f64> {
    let r0 = &s.ranks[0];
    let mut b = r0.stamps.clone();
    b.push(r0.end);
    b
}

/// Rank 0's steady iteration durations.
fn steady_iters(s: &Session) -> Vec<f64> {
    boundaries(s)
        .windows(2)
        .skip(WARMUP_ITERS)
        .map(|p| p[1] - p[0])
        .collect()
}

/// Trailing mean of `losses` over [`LOSS_WINDOW`] iterations (fewer at
/// the start).
fn smoothed(losses: &[f64]) -> Vec<f64> {
    (0..losses.len())
        .map(|i| {
            let w = &losses[(i + 1).saturating_sub(LOSS_WINDOW)..=i];
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// First iteration whose smoothed loss is below the workload's target.
fn target_iter(w: &Workload, losses: &[f64]) -> Option<usize> {
    smoothed(losses).iter().position(|&l| l < w.loss_target)
}

/// World x batch x steady iterations / their wall time.
fn samples_per_s(w: &Workload, s: &Session) -> f64 {
    let iters = steady_iters(s);
    (WORLD * w.batch * iters.len()) as f64 / iters.iter().sum::<f64>()
}

/// The highest `samples_per_s` among `sessions` (see [`end_to_end`]).
pub fn best_samples_per_s(w: &Workload, sessions: &[&Session]) -> f64 {
    sessions
        .iter()
        .map(|s| samples_per_s(w, s))
        .fold(0.0, f64::max)
}

/// From rank 0's first iteration start to the end of the iteration whose
/// smoothed loss first fell below the target.
fn time_to_target(w: &Workload, s: &Session) -> f64 {
    let b = boundaries(s);
    let k =
        target_iter(w, &s.ranks[0].result.losses).expect("checked: the loss reaches the target");
    b[k + 1] - b[0]
}

/// The smoothed loss at the last iteration.
fn final_loss(s: &Session) -> f64 {
    *smoothed(&s.ranks[0].result.losses)
        .last()
        .expect("checked: losses")
}

/// End-to-end metrics over untraced sessions; `setup` holds extra set-up
/// samples.
fn end_to_end(
    w: &Workload,
    sessions: &[&Session],
    mut setup: Vec<f64>,
    peak_rss_mb: Option<f64>,
) -> Vec<(String, f64, &'static str)> {
    // Timings come from the run's best session. The reference host steals
    // CPU in bursts of seconds (the steal column of /proc/stat), and stolen
    // time only ever slows a session, so the fastest session is the one the
    // host disturbed least. Pooled figures moved by up to 0.24 of their
    // median from run to run under steal; the best session's move far less.
    let fastest =
        |f: &dyn Fn(&Session) -> f64| sessions.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
    let iters: usize = sessions.iter().map(|s| steady_iters(s).len()).sum();
    let final_loss: Vec<f64> = sessions.iter().map(|s| final_loss(s)).collect();
    setup.extend(sessions.iter().map(|s| s.setup_s()));
    println!(
        "# {} sessions x {} iterations; {} steady iterations (the first {WARMUP_ITERS} of each \
         session excluded); {} set-up samples",
        sessions.len(),
        w.iters,
        iters,
        setup.len()
    );
    // Reported but not a metric: its run-to-run spread reached 0.29 of its
    // median on the reference host, beyond any bound a gate can use.
    println!(
        "# iter_s.p90 {:.6} s (best session, {} steady iterations each)",
        fastest(&|s| quantile(&steady_iters(s), 0.9)),
        w.iters - WARMUP_ITERS
    );
    vec![
        (
            "samples_per_s".into(),
            best_samples_per_s(w, sessions),
            "1/s",
        ),
        (
            "iter_s.p50".into(),
            fastest(&|s| median(&steady_iters(s))),
            "s",
        ),
        (
            "time_to_target_s".into(),
            fastest(&|s| time_to_target(w, s)),
            "s",
        ),
        ("final_loss".into(), median(&final_loss), "loss"),
        ("setup_s".into(), median(&setup), "s"),
        ("peak_rss_mb".into(), peak_rss_mb.unwrap_or(f64::NAN), "MiB"),
    ]
}

/// One report line per session. Identical sessions that end on different
/// parameter hashes show that training is not repeatable.
fn report_sessions(w: &Workload, runs: &Runs) {
    for (i, s) in runs.sessions.iter().enumerate() {
        let r = &s.ranks[0].result;
        println!(
            "# session {i}{}: samples_per_s {:.1} iter_s.p50 {:.6} final_loss {:.6e} \
             (last iteration {:.6e}, target at iteration {}) params {:016x} collective_ops {} \
             setup_s {:.6}",
            if s.traced { " (traced)" } else { "" },
            samples_per_s(w, s),
            median(&steady_iters(s)),
            final_loss(s),
            r.losses.last().copied().unwrap_or(f64::NAN),
            target_iter(w, &r.losses).map_or(-1, |k| k as i64),
            session::hash(&r.final_params),
            r.collective_ops,
            s.setup_s(),
        );
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let data = (w.data)(args.seed);
    println!("# machine: {}", stats::machine_json(w.wire));
    let mut runs = Runs::default();
    runs.attempted += 2 * PROBE_CHECK_ITERS;
    if !session::probe_is_neutral(w, &data, PROBE_CHECK_ITERS) {
        println!("# check failed: the probe layer changed the final parameters");
        runs.failed += 2 * PROBE_CHECK_ITERS;
    }
    let micro = args.trace.then(|| micro::measure(w, &data));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Traced runs alternate untraced and traced sessions so the tracing
    // overhead is measured under the same conditions.
    let mut traced = false;
    loop {
        runs.session(w, &data, traced);
        let done = |t: bool| runs.of(t).len();
        let enough = done(false) >= MIN_SESSIONS && (!args.trace || done(true) >= MIN_SESSIONS);
        // A run whose sessions fail stops at the deadline, short.
        if Instant::now() >= deadline && (enough || runs.failed > 0) {
            break;
        }
        traced = args.trace && !traced;
    }
    report_sessions(w, &runs);
    if runs.of(false).is_empty() || (args.trace && runs.of(true).is_empty()) {
        return Err("no session passed its checks".into());
    }
    let metrics = match micro {
        Some(micro) => trace::per_layer(w, &runs.sessions, &micro),
        None => {
            let setup = runs.setup_samples(w, &data);
            end_to_end(w, &runs.of(false), setup, runs.peak_rss_mb)
        }
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    Ok(Outcome {
        attempted: runs.attempted,
        failed: runs.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    // Two rank threads on a 2-core machine: one kernel-pool lane each keeps
    // ranks x pool threads within the cores. Set before any kernel runs
    // (the pool reads it once). The loopback link is never paced.
    std::env::set_var("SPDKFAC_THREADS", "1");
    std::env::remove_var(spdkfac_collectives::PACE_ENV);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
