//! Metrics, their aggregation over iterations, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports with `--trace 0` (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("runs_per_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1` (the
/// `per_layer` list of `BENCHMARK.json`): only those every workload
/// measures. The rest — per-crate self times of the layers a workload
/// calls, the tracing overhead, workload-specific counters — are printed
/// and stored beside them.
pub const PER_LAYER: [(&str, &str); 9] = [
    ("runtime.step_ns", "ns"),
    ("runtime.step_traced_ns", "ns"),
    ("runtime.converged_with_ns", "ns"),
    ("runtime.compare_ns_per_kword", "ns"),
    ("runtime.snapshot_ns", "ns"),
    ("runtime.restore_ns", "ns"),
    ("fi.golden_s", "s"),
    ("fi.campaign_s", "s"),
    ("trace.coverage", "1"),
];

/// One measured value. Ratios carry their numerator and denominator.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `(numerator, denominator)` of a ratio.
    pub ratio: Option<(f64, f64)>,
}

impl Metric {
    /// A plain metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            ratio: None,
        }
    }

    /// `num / den`, or `None` when the denominator is zero (an empty base
    /// is reported as absent, never as 0).
    pub fn ratio(
        name: impl Into<String>,
        num: f64,
        den: f64,
        unit: &'static str,
    ) -> Option<Metric> {
        (den != 0.0).then(|| Metric {
            name: name.into(),
            value: num / den,
            unit,
            ratio: Some((num, den)),
        })
    }
}

/// `true` when `name` uses only letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `q`-quantile of `values`, `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Per-name medians of metrics gathered over several iterations (value,
/// numerator and denominator each take their own median).
pub fn medians(samples: &[Vec<Metric>]) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Vec<&Metric>> = BTreeMap::new();
    for m in samples.iter().flatten() {
        by_name.entry(&m.name).or_default().push(m);
    }
    by_name
        .into_iter()
        .map(|(name, ms)| {
            let pick = |f: &dyn Fn(&Metric) -> f64| {
                median(&ms.iter().map(|m| f(m)).collect::<Vec<_>>()).expect("non-empty group")
            };
            Metric {
                name: name.to_string(),
                value: pick(&|m| m.value),
                unit: ms[0].unit,
                ratio: ms[0].ratio.map(|_| {
                    (
                        pick(&|m| m.ratio.map_or(0.0, |r| r.0)),
                        pick(&|m| m.ratio.map_or(0.0, |r| r.1)),
                    )
                }),
            }
        })
        .collect()
}

/// What one benchmark invocation found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Runs (or daemon campaigns) attempted.
    pub attempted: u64,
    /// Of those, quarantined, crashed, hung, rejected, failed, or part of
    /// an iteration whose output check failed.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode, in its order.
    pub gated: Vec<Metric>,
    /// Every other metric the issue names for this workload.
    pub extra: Vec<Metric>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding the gated metrics.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric, gated and extra, as a JSON array (for the result
    /// file).
    pub fn all_metrics_json(&self) -> String {
        let items: Vec<String> = self
            .gated
            .iter()
            .chain(&self.extra)
            .map(|m| {
                let ratio = m.ratio.map_or(String::new(), |(n, d)| {
                    format!(
                        ", \"numerator\": {}, \"denominator\": {}",
                        json_number(n),
                        json_number(d)
                    )
                });
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"{ratio}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    /// Human-readable lines: every metric by name and unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in self.gated.iter().chain(&self.extra) {
            let ratio = m
                .ratio
                .map_or(String::new(), |(n, d)| format!("  ({n} / {d})"));
            out.push_str(&format!(
                "  {:<34} {:>16.6} {}{ratio}\n",
                m.name, m.value, m.unit
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  CHECK FAILED: {f}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn empty_ratio_base_is_absent() {
        assert!(Metric::ratio("x", 1.0, 0.0, "1").is_none());
        let m = Metric::ratio("x", 1.0, 4.0, "1").unwrap();
        assert_eq!((m.value, m.ratio), (0.25, Some((1.0, 4.0))));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            gated: vec![Metric::new("wall_s", 1.5, "s")],
            ..Outcome::default()
        };
        let v: serde::Value = serde_json::from_str(&o.json_line()).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
