//! Explorer page assembly: turns a [`StudyOutput`] (plus optional metrics
//! and event logs) into the self-contained `explorer.html`.
//!
//! The embedded raw `matrix.json` block is rendered with the *same*
//! serialisation as the report's `matrix.json` artifact, so the two are
//! byte-identical — external tooling can diff the page against the file.

use crate::study::StudyOutput;
use permea_explorer::{render_html, ExplorerData, HtmlOptions, TimelineData};

/// The containment factor of the embedded what-if fixture — the same
/// factor `whatif.txt` is rendered with, so the page's initial what-if
/// view and the text artifact agree.
pub const WHATIF_FACTOR: f64 = 0.5;

/// Builds the full explorer data model from a study output: topology,
/// arcs, backtrack paths, placement, the what-if fixture at
/// [`WHATIF_FACTOR`], and the campaign outcome section.
pub fn explorer_data(out: &StudyOutput, title: &str) -> ExplorerData {
    ExplorerData::new(title)
        .with_analysis(
            &out.topology,
            &out.matrix,
            &out.graph,
            &out.backtrack,
            &out.placement,
            WHATIF_FACTOR,
        )
        .with_campaign(&out.result)
}

/// Renders the complete explorer page.
///
/// `metrics` is the parsed `metrics.json` value (when metrics were
/// collected) and `event_logs` the raw `--events` JSONL contents to
/// stitch into the timeline (empty slice = no timeline section).
pub fn explorer_html(
    out: &StudyOutput,
    title: &str,
    metrics: Option<serde_json::Value>,
    event_logs: &[String],
) -> String {
    let matrix_json = serde_json::to_string_pretty(&out.matrix).expect("matrix serialises");
    render_page(
        explorer_data(out, title),
        metrics,
        event_logs,
        &[("matrix", &matrix_json)],
    )
}

/// Renders `data` as a page, with the timeline stitched from `event_logs`
/// (none when empty), the parsed `metrics` and the `raw` JSON blocks.
pub fn render_page(
    mut data: ExplorerData,
    metrics: Option<serde_json::Value>,
    event_logs: &[String],
    raw: &[(&str, &str)],
) -> String {
    if !event_logs.is_empty() {
        data = data.with_timeline(TimelineData::parse_logs(
            event_logs.iter().map(String::as_str),
        ));
    }
    if let Some(metrics) = metrics {
        data = data.with_metrics(metrics);
    }
    render_html(&data, raw, &HtmlOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn page_embeds_matrix_byte_identical_to_report_artifact() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        let html = explorer_html(&out, "smoke", None, &[]);
        let report = Report::from_study(&out);
        let artifact = report
            .files
            .iter()
            .find(|(name, _)| name == "matrix.json")
            .map(|(_, contents)| contents.as_str())
            .expect("report writes matrix.json");
        let embedded = html
            .split("<script id=\"permea-raw-matrix\" type=\"application/json\">")
            .nth(1)
            .expect("raw matrix block present")
            .split("</script>")
            .next()
            .expect("block closes");
        assert_eq!(embedded, artifact);
    }

    #[test]
    fn whatif_fixture_matches_core_recomputation() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        let data = explorer_data(&out, "smoke");
        let whatif = data.whatif.expect("what-if section embedded");
        assert_eq!(whatif.factor, WHATIF_FACTOR);
        let ranking = permea_core::whatif::rank_containment_candidates(
            &out.topology,
            &out.matrix,
            WHATIF_FACTOR,
        )
        .unwrap();
        let expected: Vec<(usize, f64)> = ranking.iter().map(|&(m, t)| (m.index(), t)).collect();
        assert_eq!(whatif.ranking, expected);
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        let a = Report::from_study(&out);
        let b = Report::from_study(&out);
        assert_eq!(a.files, b.files, "report artifacts must be byte-stable");
        let html_a = explorer_html(&out, "smoke", None, &[]);
        let html_b = explorer_html(&out, "smoke", None, &[]);
        assert_eq!(html_a, html_b, "explorer page must be byte-stable");
    }
}
