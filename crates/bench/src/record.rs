//! The machine-readable result row every experiment emits; the
//! `grail-bench` driver prints it and appends it, as one JSON line, to
//! the run directory's record file.

use serde::Serialize;

/// One experiment result row, serialized to JSONL for EXPERIMENTS.md
/// tooling.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentRecord {
    /// Experiment id from DESIGN.md §3 (e.g. "FIG1").
    pub experiment: String,
    /// The swept configuration ("disks=66", "compressed", …).
    pub config: String,
    /// Elapsed simulated seconds.
    pub elapsed_secs: f64,
    /// Total energy in Joules.
    pub energy_j: f64,
    /// Work completed (experiment-defined units).
    pub work: f64,
    /// Energy efficiency (work per Joule).
    pub efficiency: f64,
    /// Free-form extras (component shares, knob values, …).
    pub extra: serde_json::Value,
}

impl ExperimentRecord {
    /// Build a record, deriving efficiency.
    pub fn new(
        experiment: &str,
        config: &str,
        elapsed_secs: f64,
        energy_j: f64,
        work: f64,
        extra: serde_json::Value,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.to_string(),
            config: config.to_string(),
            elapsed_secs,
            energy_j,
            work,
            efficiency: if energy_j > 0.0 { work / energy_j } else { 0.0 },
            extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_derives_efficiency() {
        let r = ExperimentRecord::new("T", "c", 2.0, 200.0, 100.0, serde_json::json!({}));
        assert!((r.efficiency - 0.5).abs() < 1e-12);
        let z = ExperimentRecord::new("T", "c", 2.0, 0.0, 100.0, serde_json::json!({}));
        assert_eq!(z.efficiency, 0.0);
    }
}
