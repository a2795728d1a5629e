//! Report assembly: writes every table, figure and check to an artifact
//! directory and composes a single text report.

use crate::checks::{render_checks, run_shape_checks, ShapeCheck};
use crate::figures;
use crate::study::StudyOutput;
use crate::tables;
use permea_fi::error::FiError;
use std::fmt::Write as _;
use std::path::Path;

/// The rendered study: every artifact as a `(filename, contents)` pair.
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact files.
    pub files: Vec<(String, String)>,
    /// The shape checks that were run.
    pub checks: Vec<ShapeCheck>,
}

impl Report {
    /// Renders all artifacts from a study output.
    pub fn from_study(out: &StudyOutput) -> Report {
        let checks = run_shape_checks(out);
        let mut files = vec![
            (
                "table1.txt".to_owned(),
                tables::render_table1(&out.topology, &out.matrix),
            ),
            (
                "table1_ci.txt".to_owned(),
                tables::render_table1_ci(&out.graph, &out.result),
            ),
            (
                "table2.txt".to_owned(),
                tables::render_table2(&out.topology, &out.measures),
            ),
            (
                "table3.txt".to_owned(),
                tables::render_table3(&out.topology, &out.measures),
            ),
            (
                "table4.txt".to_owned(),
                tables::render_table4(&out.topology, &out.toc2_paths, true),
            ),
            (
                "table4_all.txt".to_owned(),
                tables::render_table4(&out.topology, &out.toc2_paths, false),
            ),
            (
                "fig3_example_graph.dot".to_owned(),
                figures::fig3_example_graph_dot(),
            ),
            (
                "fig4_example_backtrack.txt".to_owned(),
                figures::fig4_example_backtrack(),
            ),
            (
                "fig5_example_trace.txt".to_owned(),
                figures::fig5_example_trace(),
            ),
            (
                "fig9_graph.dot".to_owned(),
                figures::fig9_graph_dot(&out.graph),
            ),
            (
                "fig10_backtrack_toc2.txt".to_owned(),
                figures::fig10_backtrack(&out.graph),
            ),
            (
                "fig10_backtrack_toc2.dot".to_owned(),
                figures::fig10_backtrack_dot(&out.graph),
            ),
            (
                "fig11_trace_adc.txt".to_owned(),
                figures::fig11_trace_adc(&out.graph),
            ),
            (
                "fig12_trace_pacnt.txt".to_owned(),
                figures::fig12_trace_pacnt(&out.graph),
            ),
            (
                "input_tracing.txt".to_owned(),
                tables::render_input_tracing(&out.graph),
            ),
            (
                "whatif.txt".to_owned(),
                tables::render_whatif(&out.topology, &out.matrix, 0.5),
            ),
            ("risk.txt".to_owned(), tables::render_risk(&out.graph)),
            (
                "edm_cover.txt".to_owned(),
                tables::render_edm_cover(&out.topology, &out.toc2_paths, 4),
            ),
        ];
        if !out.result.records.is_empty() {
            files.push((
                "latency.txt".to_owned(),
                permea_fi::latency::render_latencies(&permea_fi::latency::latency_summaries(
                    &out.result,
                )),
            ));
        }
        files.push(("outcomes.txt".to_owned(), render_outcomes(out)));
        files.push(("checks.txt".to_owned(), render_checks(&checks)));
        files.push(("placement.txt".to_owned(), render_placement(out)));
        files.push((
            "matrix.json".to_owned(),
            serde_json::to_string_pretty(&out.matrix).expect("matrix serialises"),
        ));
        Report { files, checks }
    }

    /// One concatenated text report.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (name, contents) in &self.files {
            if name.ends_with(".dot") || name.ends_with(".json") {
                continue;
            }
            let _ = writeln!(s, "==== {name} ====");
            s.push_str(contents);
            s.push('\n');
        }
        s
    }

    /// Writes every artifact into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// [`FiError::ArtifactWrite`] for the first write that fails — an
    /// environment failure (exit code 4).
    pub fn write_to(&self, dir: &Path) -> Result<(), FiError> {
        permea_fi::env::create_dir_all(dir)?;
        for (name, contents) in &self.files {
            permea_fi::env::atomic_write(dir.join(name), contents.as_bytes())?;
        }
        Ok(())
    }
}

/// Renders the campaign's run-outcome tally: how many injection runs
/// completed versus were quarantined (panicked / hung), with the worst
/// offenders when any run was quarantined.
pub fn render_outcomes(out: &StudyOutput) -> String {
    use permea_fi::outcome::RunOutcome;
    let t = &out.result.outcomes;
    let mut s = String::new();
    let _ = writeln!(s, "Run outcomes (sandboxed campaign execution)");
    let _ = writeln!(s, "  completed:   {:>8}", t.completed);
    let _ = writeln!(s, "  panicked:    {:>8}", t.panicked);
    let _ = writeln!(s, "  hung:        {:>8}", t.hung);
    let _ = writeln!(s, "  crashed:     {:>8}", t.crashed);
    let _ = writeln!(
        s,
        "  quarantined: {:>8}  ({:.2}% of {})",
        t.quarantined(),
        t.quarantined_fraction() * 100.0,
        t.total()
    );
    if t.quarantined() > 0 {
        let _ = writeln!(s, "-- quarantined runs --");
        for r in out
            .result
            .records
            .iter()
            .filter(|r| r.outcome.is_quarantined())
            .take(50)
        {
            let what = match &r.outcome {
                RunOutcome::Panicked { message } => format!("panicked: {message}"),
                RunOutcome::Hung { last_tick_ms } => {
                    format!("hung (clock stalled at {last_tick_ms} ms)")
                }
                RunOutcome::Crashed { signal, exit_code } => {
                    let cause = r
                        .outcome
                        .crash_cause()
                        .map(|c| format!(", cause: {}", c.label()))
                        .unwrap_or_default();
                    match (signal, exit_code) {
                        (Some(sig), _) => {
                            format!("crashed (worker killed by signal {sig}{cause})")
                        }
                        (None, Some(code)) => {
                            format!("crashed (worker exited with code {code}{cause})")
                        }
                        (None, None) => format!("crashed (worker died{cause})"),
                    }
                }
                RunOutcome::Completed => continue,
            };
            let _ = writeln!(
                s,
                "  {} <- {} {} @ {} ms case {}: {what}",
                r.module, r.input_signal, r.model, r.time_ms, r.case
            );
        }
    }
    s
}

/// Renders the EDM/ERM placement plan with rationales.
pub fn render_placement(out: &StudyOutput) -> String {
    use permea_core::placement::{Location, Rationale};
    let mut s = String::new();
    let name = |loc: Location| match loc {
        Location::Signal(sig) => format!("signal {}", out.topology.signal_name(sig)),
        Location::Module(m) => format!("module {}", out.topology.module_name(m)),
    };
    let why = |r: &Rationale| match r {
        Rationale::HighSignalExposure { value } => format!("high signal exposure ({value:.3})"),
        Rationale::HighModuleExposure { value } => format!("high module exposure ({value:.3})"),
        Rationale::HighPermeability { value } => format!("high permeability ({value:.3})"),
        Rationale::OnAllNonZeroPaths => "on every non-zero propagation path".to_owned(),
        Rationale::BarrierModule => "barrier against external errors (OB6)".to_owned(),
        _ => "other".to_owned(),
    };
    let _ = writeln!(s, "EDM/ERM placement recommendations (Section 5)");
    let _ = writeln!(s, "-- Error Detection Mechanisms --");
    for rec in &out.placement.edm {
        let reasons: Vec<String> = rec.rationales.iter().map(why).collect();
        let _ = writeln!(
            s,
            "  {:<22} score {:.3}  [{}]",
            name(rec.location),
            rec.score,
            reasons.join("; ")
        );
    }
    let _ = writeln!(s, "-- Error Recovery Mechanisms --");
    for rec in &out.placement.erm {
        let reasons: Vec<String> = rec.rationales.iter().map(why).collect();
        let _ = writeln!(
            s,
            "  {:<22} score {:.3}  [{}]",
            name(rec.location),
            rec.score,
            reasons.join("; ")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn report_renders_and_writes() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        let report = Report::from_study(&out);
        assert!(report.files.len() >= 15);
        let summary = report.summary();
        assert!(summary.contains("Table 1"));
        assert!(summary.contains("Shape checks"));
        assert!(summary.contains("Run outcomes"));
        let dir = std::env::temp_dir().join("permea_report_test");
        report.write_to(&dir).unwrap();
        assert!(dir.join("table1.txt").exists());
        assert!(dir.join("fig9_graph.dot").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
