//! Run results, summary statistics and the one-line JSON result.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one part of a workload run (or the whole run) produced: its
/// metrics, how many checked operations it attempted, how many disagreed with
/// the model, and human-readable notes printed ahead of the JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Wall time of the program's part of set-up, summed over parts.
    pub setup_s: f64,
    /// `VmHWM` once the part's first round is over; the largest over parts.
    pub peak_rss_mb: f64,
    /// The spans of a traced run, per part, written out when the run ends.
    pub traces: Vec<(&'static str, Tracer)>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds the results of a later part of the same run.
    pub fn absorb(&mut self, part: Outcome) {
        self.metrics.extend(part.metrics);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.notes.extend(part.notes);
        self.setup_s += part.setup_s;
        self.peak_rss_mb = self.peak_rss_mb.max(part.peak_rss_mb);
        self.traces.extend(part.traces);
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Rounds are summarised by their quieter quartile: the lower quartile of
/// times and the upper quartile of rates. Interference from other tenants of
/// a shared host only ever slows a round down, so this quartile moves less
/// between runs than the median does.
pub const QUIET_LOW: f64 = 0.25;

/// The `q`-quantile of `values` by linear interpolation (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A `/proc/self/status` field in MiB (`VmHWM` = peak resident set, `VmRSS`
/// = current), or 0 where the file is unavailable.
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// nproc, CPU model and build profile: printed by every run so that figures
/// are only ever compared on the same hardware and build.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .map_or("unknown", str::trim);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} cpu=\"{cpu}\" profile={profile}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.push("setup_s", "s", 0.5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
