//! Text renderers for the paper's Tables 1–4.

use permea_core::graph::PermeabilityGraph;
use permea_core::matrix::PermeabilityMatrix;
use permea_core::measures::SystemMeasures;
use permea_core::paths::PathSet;
use permea_core::topology::SystemTopology;
use std::fmt::Write as _;

/// Table 1: estimated error permeability of every (input, output) pair.
pub fn render_table1(topology: &SystemTopology, matrix: &PermeabilityMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1. Estimated error permeability values of the input/output pairs"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<24} {:<14} {:>7}",
        "Module", "Input -> Output", "Name", "Value"
    );
    for (m, i, k, v) in matrix.iter() {
        let in_sig = topology.inputs_of(m)[i];
        let out_sig = topology.outputs_of(m)[k];
        let _ = writeln!(
            out,
            "{:<8} {:<24} {:<14} {:>7.3}",
            topology.module_name(m),
            format!(
                "{} -> {}",
                topology.signal_name(in_sig),
                topology.signal_name(out_sig)
            ),
            format!("P^{}_{{{},{}}}", topology.module_name(m), i + 1, k + 1),
            v
        );
    }
    out
}

/// Table 2: relative permeability and error exposure values per module.
pub fn render_table2(topology: &SystemTopology, measures: &SystemMeasures) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2. Estimated relative permeability and error exposure values of the modules"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Module", "P^M", "Pbar^M", "X^M", "Xbar^M"
    );
    for mm in measures.modules() {
        let _ = writeln!(
            out,
            "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            topology.module_name(mm.module),
            mm.relative_permeability,
            mm.non_weighted_relative_permeability,
            mm.exposure,
            mm.non_weighted_exposure
        );
    }
    out
}

/// Table 3: signal error exposures, highest first.
pub fn render_table3(topology: &SystemTopology, measures: &SystemMeasures) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3. Estimated signal error exposures");
    let _ = writeln!(out, "{:<14} {:>8}", "Signal", "X^S");
    for se in measures.ranked_by_signal_exposure() {
        let _ = writeln!(
            out,
            "{:<14} {:>8.3}",
            topology.signal_name(se.signal),
            se.exposure
        );
    }
    out
}

/// Table 4: propagation paths from the system output, ordered by weight.
/// `non_zero_only` reproduces the paper's 13-row table; with `false` all 22
/// paths are listed.
pub fn render_table4(topology: &SystemTopology, paths: &PathSet, non_zero_only: bool) -> String {
    let mut out = String::new();
    let shown = if non_zero_only {
        paths.non_zero()
    } else {
        paths.clone()
    };
    let shown = shown.sorted_by_weight();
    let _ = writeln!(
        out,
        "Table 4. Propagation paths from the system output ({} of {} paths{})",
        shown.len(),
        paths.len(),
        if non_zero_only { ", weight > 0" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<4} {:>9}  Path (output <- ... <- origin)",
        "#", "Weight"
    );
    for (idx, p) in shown.iter().enumerate() {
        let names: Vec<&str> = p.signals.iter().map(|&s| topology.signal_name(s)).collect();
        let _ = writeln!(
            out,
            "{:<4} {:>9.5}  {}",
            idx + 1,
            p.weight,
            names.join(" <- ")
        );
    }
    out
}

/// Renders all pair estimates with Wilson confidence intervals (an
/// extension of Table 1 showing the estimates are statistically stable).
pub fn render_table1_ci(
    graph: &PermeabilityGraph,
    result: &permea_fi::results::CampaignResult,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 (extended): permeability estimates with 95% Wilson intervals"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<24} {:>7} {:>9} {:>9} {:>7}",
        "Module", "Input -> Output", "P", "lower", "upper", "n"
    );
    let _ = graph; // names come from the result rows
    for e in permea_fi::estimate::estimates_with_ci(result) {
        let _ = writeln!(
            out,
            "{:<8} {:<24} {:>7.3} {:>9.3} {:>9.3} {:>7}",
            e.module,
            format!("{} -> {}", e.input_signal, e.output_signal),
            e.estimate,
            e.lower,
            e.upper,
            e.injections
        );
    }
    out
}

/// Input Error Tracing summary (Section 4.2 B): for each system input, the
/// ranked propagation pathways to system outputs.
pub fn render_input_tracing(graph: &PermeabilityGraph) -> String {
    use permea_core::trace::TraceForest;
    let topo = graph.topology();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Input Error Tracing: likeliest pathways per system input"
    );
    let forest = TraceForest::build(graph).expect("validated topology yields trace trees");
    for tree in forest.trees() {
        let root = tree.root_signal();
        let set = tree.clone().into_path_set().sorted_by_weight();
        let _ = writeln!(out, "{} ({} pathways):", topo.signal_name(root), set.len());
        for p in set.iter().take(5) {
            let names: Vec<&str> = p.signals.iter().map(|&s| topo.signal_name(s)).collect();
            let _ = writeln!(out, "  {:>9.5}  {}", p.weight, names.join(" -> "));
        }
    }
    out
}

/// What-if containment ranking (Section 5's wrapper discussion): how much
/// the summed end-to-end propagation drops when each module is wrapped with
/// the given containment factor.
pub fn render_whatif(
    topology: &SystemTopology,
    matrix: &PermeabilityMatrix,
    factor: f64,
) -> String {
    use permea_core::whatif::rank_containment_candidates;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "What-if containment ranking (permeabilities scaled by {factor})"
    );
    let _ = writeln!(out, "{:<8} {:>22}", "Module", "blocked propagation");
    match rank_containment_candidates(topology, matrix, factor) {
        Ok(ranked) => {
            for (m, blocked) in ranked {
                let _ = writeln!(out, "{:<8} {:>22.4}", topology.module_name(m), blocked);
            }
        }
        Err(e) => {
            let _ = writeln!(out, "(analysis failed: {e})");
        }
    }
    out
}

/// Greedy complementary EDM cover of the non-zero propagation paths (the
/// set-cover refinement of the paper's \[18\]-style subset selection).
pub fn render_edm_cover(topology: &SystemTopology, paths: &PathSet, k: usize) -> String {
    use permea_core::coverage::greedy_cover;
    let mut out = String::new();
    let _ = writeln!(out, "Greedy complementary EDM cover (up to {k} monitors)");
    let _ = writeln!(
        out,
        "{:<4} {:<14} {:>9} {:>10} {:>7}",
        "#", "Signal", "marginal", "cumulative", "paths"
    );
    for (idx, step) in greedy_cover(paths, None, k).iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<4} {:<14} {:>9.4} {:>9.1}% {:>7}",
            idx + 1,
            topology.signal_name(step.signal),
            step.marginal_weight,
            step.cumulative_fraction * 100.0,
            step.newly_covered_paths
        );
    }
    out
}

/// Occurrence-weighted risk table (the paper's `P'` adjustment) under a
/// uniform unit profile over system inputs.
pub fn render_risk(graph: &PermeabilityGraph) -> String {
    use permea_core::occurrence::{risk_analysis, OccurrenceProfile};
    let topo = graph.topology();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Occurrence-weighted risk (uniform unit rates on system inputs)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:>12} {:>8}",
        "Origin", "Output", "propagation", "risk"
    );
    let profile = OccurrenceProfile::uniform_inputs(topo, 1.0);
    match risk_analysis(graph, &profile) {
        Ok(rows) => {
            for r in rows {
                let _ = writeln!(
                    out,
                    "{:<8} {:<8} {:>12.4} {:>8.4}",
                    topo.signal_name(r.origin),
                    topo.signal_name(r.output),
                    r.propagation,
                    r.risk
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "(analysis failed: {e})");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use permea_core::backtrack::BacktrackTree;
    use permea_core::topology::TopologyBuilder;

    fn fixture() -> (SystemTopology, PermeabilityMatrix) {
        let mut b = TopologyBuilder::new("t");
        let x = b.external("x");
        let a = b.add_module("A");
        b.bind_input(a, x);
        let s = b.add_output(a, "s");
        let c = b.add_module("C");
        b.bind_input(c, s);
        let out = b.add_output(c, "out");
        b.mark_system_output(out);
        let t = b.build().unwrap();
        let mut pm = PermeabilityMatrix::zeroed(&t);
        pm.set(t.module_by_name("A").unwrap(), 0, 0, 0.5).unwrap();
        pm.set(t.module_by_name("C").unwrap(), 0, 0, 0.25).unwrap();
        (t, pm)
    }

    #[test]
    fn table1_lists_every_pair() {
        let (t, pm) = fixture();
        let s = render_table1(&t, &pm);
        assert!(s.contains("x -> s"));
        assert!(s.contains("s -> out"));
        assert!(s.contains("0.500"));
        assert!(s.contains("P^A_{1,1}"));
        assert_eq!(s.lines().count(), 2 + t.pair_count());
    }

    #[test]
    fn table2_lists_every_module() {
        let (t, pm) = fixture();
        let g = PermeabilityGraph::new(&t, &pm).unwrap();
        let m = SystemMeasures::compute(&g).unwrap();
        let s = render_table2(&t, &m);
        assert!(s.contains('A') && s.contains('C'));
        assert_eq!(s.lines().count(), 2 + t.module_count());
    }

    #[test]
    fn table3_is_sorted_descending() {
        let (t, pm) = fixture();
        let g = PermeabilityGraph::new(&t, &pm).unwrap();
        let m = SystemMeasures::compute(&g).unwrap();
        let s = render_table3(&t, &m);
        // X^s = 0.5 (A's arc), X^out = 0.25 (C's arc): `s` ranks first.
        let first_data_line = s.lines().nth(2).unwrap();
        assert!(
            first_data_line.starts_with('s'),
            "highest exposure first: {first_data_line}"
        );
    }

    #[test]
    fn table4_filters_and_orders() {
        let (t, pm) = fixture();
        let g = PermeabilityGraph::new(&t, &pm).unwrap();
        let out = t.signal_by_name("out").unwrap();
        let paths = BacktrackTree::build(&g, out).unwrap().into_path_set();
        let all = render_table4(&t, &paths, false);
        assert!(all.contains("out <- s <- x"));
        let nz = render_table4(&t, &paths, true);
        assert!(nz.contains("1 of 1"));
    }
}
