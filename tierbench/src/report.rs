//! The one JSON line each benchmark process prints.

use std::collections::BTreeMap;

use serde::Value;

/// Metrics, correctness counts and context of one process run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (or figure replies) whose output was checked.
    pub attempted: u64,
    /// Checked outputs that were wrong, refused or missing.
    pub failed: u64,
    /// Tier-count or invariant violations, each a human-readable line.
    pub violations: Vec<String>,
    /// The traced run's span log, written out when the process ends.
    pub spans: Option<crate::measure::SpanLog>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    info: BTreeMap<String, Value>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a context value (seed, host parallelism, digests, …).
    pub fn info(&mut self, key: &str, value: Value) {
        self.info.insert(key.to_string(), value);
    }

    /// Records an invariant that must hold; a false one fails the run.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Whether every checked output was right and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The report as one JSON line.
    pub fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        let violations = self.violations.iter().cloned().map(Value::Str).collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
            ("violations".to_string(), Value::Array(violations)),
            (
                "info".to_string(),
                Value::Object(self.info.clone().into_iter().collect()),
            ),
        ]);
        crate::json(&line)
    }
}
