//! Order statistics, digests and process memory.

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, over consecutive windows of `window` values, of each
/// window's `q`-quantile.  A burst of host interference lifts the tail of
/// a window or two, not the median of all of them.  A trailing partial
/// window is dropped unless there is no complete one.
pub fn windowed_quantile(values: &[f64], window: usize, q: f64) -> f64 {
    if values.len() < window {
        return quantile(values, q);
    }
    let tails: Vec<f64> = values.chunks_exact(window).map(|w| quantile(w, q)).collect();
    median(&tails)
}

/// FNV-1a over the bit patterns of `values`.
pub fn digest(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}
