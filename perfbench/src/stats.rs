//! Order statistics and the machine record.

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Median of `reps` samples of `f`, which times its own work and returns
/// seconds; one unrecorded call first warms caches.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One JSON object describing the machine and the settings that move the
/// numbers: cores, CPU model, SIMD features the kernels detect, kernel-pool
/// size, wire policy and link pacing.
pub fn machine_json(wire: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, f16c) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("f16c"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, f16c) = (false, false);
    let pace = std::env::var(spdkfac_collectives::PACE_ENV).unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"avx2\": {avx2}, \"f16c\": {f16c}, \
         \"kernel_pool_threads\": {}, \"wire\": \"{wire}\", \"pace_gbps\": \"{pace}\"}}",
        spdkfac_obs::escape_json(&cpu),
        spdkfac_tensor::pool::threads(),
    )
}
