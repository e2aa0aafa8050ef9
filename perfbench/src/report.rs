//! Metric names, units, correctness bookkeeping and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. Each workload defines its own timed operation; see
/// README.md for the per-workload definitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("adc_ops_per_image", "ops"),
    ("adc_ops_ratio", "ratio"),
    ("fidelity", "ratio"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.forward_ms", "ms"),
    ("nn.glue_ms", "ms"),
    ("pim.engine_ms", "ms"),
    ("pim.mvm_calls", "count"),
    ("pim.windows", "count"),
    ("xbar.pack_ms", "ms"),
    ("xbar.kernel_ms", "ms"),
    ("pim.decode_ms", "ms"),
    ("xbar.dead_block_frac", "ratio"),
    ("xbar.live_plane_frac", "ratio"),
    ("adc.mean_ops_per_conversion", "ops"),
    ("exec.speedup", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.paced.engine_ms_per_batch_p50", "ms"),
    ("serve.burst.engine_ms_per_batch_p50", "ms"),
    ("serve.paced.mean_batch", "count"),
    ("serve.burst.mean_batch", "count"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.generator_late_ms_p90", "ms"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("quant.quantize_ms", "ms"),
    ("calib.collect_ms", "ms"),
    ("pim.program_ms", "ms"),
    ("calib.plan_network_ms", "ms"),
    ("calib.evaluate_plan_ms", "ms"),
    ("calib.nmax_steps", "count"),
    ("store.save_ms", "ms"),
    ("store.snapshot_kb", "KB"),
    ("store.decode_ms", "ms"),
    ("store.install_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Counts checked operations and keeps the first few failure reasons.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// The first failure reasons, for stderr.
    pub notes: Vec<String>,
}

impl Checker {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_counted(why());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.fail_counted(why);
    }

    fn fail_counted(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping over every operation.
    pub checks: Checker,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Named span sets (traced runs only).
    pub traces: Vec<(&'static str, crate::trace::Tracer)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The `metrics` object for `names`: end-to-end metrics must all be
    /// present; per-layer metrics a workload never measured read 0.
    ///
    /// # Errors
    ///
    /// Names a missing end-to-end metric or a non-finite value.
    pub fn metrics_json(
        &self,
        names: &[(&str, &str)],
        fill_missing: bool,
    ) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if fill_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        Ok(out)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    ///
    /// # Errors
    ///
    /// As [`Outcome::metrics_json`].
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics = if trace {
            self.metrics_json(PER_LAYER, true)?
        } else {
            self.metrics_json(END_TO_END, false)?
        };
        let c = &self.checks;
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            c.failed == 0 && c.attempted > 0,
            c.attempted,
            c.failed
        ))
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.checks.check(true, String::new);
        let line = o.result_line(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.checks.check(false, || "bad".into());
        assert!(o.result_line(false).unwrap().starts_with("{\"correct\": false"));
        o.metrics.remove("setup_s");
        assert!(o.result_line(false).is_err());
        assert!(o.result_line(true).unwrap().contains("\"calib.nmax_steps\": {\"value\": 0.0"));
    }
}
