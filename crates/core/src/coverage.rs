//! Complementary EDM placement: covering propagation paths with few
//! detectors.
//!
//! The paper's related work (\[18\]) selects EDM subsets that minimise overlap
//! between detectors. This module brings that idea to the permeability
//! framework: a detector on signal `S` covers every propagation path that
//! visits `S`; choosing the next detector by *marginal* covered weight (a
//! greedy weighted set cover) yields small detector sets whose members
//! complement instead of duplicating each other — which plain
//! exposure-ranked placement cannot guarantee (the top two signals often sit
//! on the same paths).

use crate::ids::SignalId;
use crate::paths::PathSet;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One step of the greedy cover: the signal chosen and what it bought.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverStep {
    /// The chosen signal.
    pub signal: SignalId,
    /// Path weight newly covered by this choice.
    pub marginal_weight: f64,
    /// Cumulative fraction of total path weight covered so far.
    pub cumulative_fraction: f64,
    /// Number of paths newly covered.
    pub newly_covered_paths: usize,
}

/// Greedy weighted set cover of the path set by monitor signals.
///
/// Only non-zero paths participate; candidate signals are every signal
/// occurring on a path except roots (system outputs) and leaves that are
/// system boundaries — pass `candidates` to restrict further (e.g. exclude
/// hardware registers). Stops after `k` picks or full coverage.
///
/// # Examples
///
/// ```
/// use permea_core::prelude::*;
/// use permea_core::coverage::greedy_cover;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TopologyBuilder::new("t");
/// let x = b.external("x");
/// let a = b.add_module("A");
/// b.bind_input(a, x);
/// let s = b.add_output(a, "s");
/// let c = b.add_module("C");
/// b.bind_input(c, s);
/// let out = b.add_output(c, "out");
/// b.mark_system_output(out);
/// let topo = b.build()?;
/// let mut pm = PermeabilityMatrix::zeroed(&topo);
/// pm.set(a, 0, 0, 0.9)?;
/// pm.set(c, 0, 0, 0.5)?;
/// let g = PermeabilityGraph::new(&topo, &pm)?;
/// let paths = BacktrackTree::build(&g, out)?.into_path_set();
///
/// let cover = greedy_cover(&paths, None, 2);
/// assert_eq!(cover.len(), 1, "one signal covers the single path");
/// assert_eq!(cover[0].signal, s);
/// assert!((cover[0].cumulative_fraction - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn greedy_cover(paths: &PathSet, candidates: Option<&[SignalId]>, k: usize) -> Vec<CoverStep> {
    let live = paths.non_zero();
    let total: f64 = live.iter().map(|p| p.weight).sum();
    if total <= 0.0 || k == 0 {
        return Vec::new();
    }
    // Candidate signals: interior path signals (not the root, not the leaf
    // when the leaf is a boundary terminal).
    let allowed: Option<HashSet<SignalId>> = candidates.map(|c| c.iter().copied().collect());
    let mut candidate_set: HashSet<SignalId> = HashSet::new();
    for p in live.iter() {
        let interior = &p.signals[1..p.signals.len().saturating_sub(1)];
        for &s in interior {
            if allowed.as_ref().is_none_or(|a| a.contains(&s)) {
                candidate_set.insert(s);
            }
        }
    }

    let mut uncovered: Vec<bool> = vec![true; live.len()];
    let mut covered_weight = 0.0;
    let mut steps = Vec::new();
    for _ in 0..k {
        // Pick the candidate with the largest marginal covered weight.
        let mut best: Option<(SignalId, f64, usize)> = None;
        let mut ordered: Vec<SignalId> = candidate_set.iter().copied().collect();
        ordered.sort();
        for &cand in &ordered {
            let mut w = 0.0;
            let mut n = 0;
            for (idx, p) in live.iter().enumerate() {
                if uncovered[idx] && p.visits(cand) {
                    w += p.weight;
                    n += 1;
                }
            }
            let better = match best {
                None => w > 0.0,
                Some((_, bw, _)) => w > bw + 1e-15,
            };
            if better {
                best = Some((cand, w, n));
            }
        }
        let Some((signal, marginal_weight, newly_covered_paths)) = best else {
            break; // nothing left to cover
        };
        for (idx, p) in live.iter().enumerate() {
            if uncovered[idx] && p.visits(signal) {
                uncovered[idx] = false;
            }
        }
        candidate_set.remove(&signal);
        covered_weight += marginal_weight;
        steps.push(CoverStep {
            signal,
            marginal_weight,
            cumulative_fraction: covered_weight / total,
            newly_covered_paths,
        });
        if uncovered.iter().all(|&u| !u) {
            break;
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::BacktrackTree;
    use crate::graph::PermeabilityGraph;
    use crate::matrix::PermeabilityMatrix;
    use crate::topology::TopologyBuilder;

    /// Two parallel branches joined at the output:
    ///   e1 -> [A] -sa-> [D] -> out  (0.6 * 0.9 = 0.54)
    ///   e2 -> [B] -sb-> [D] -> out  (0.8 * 0.5 = 0.40)
    fn diamond() -> (crate::topology::SystemTopology, PathSet) {
        let mut b = TopologyBuilder::new("d");
        let e1 = b.external("e1");
        let e2 = b.external("e2");
        let a = b.add_module("A");
        b.bind_input(a, e1);
        let sa = b.add_output(a, "sa");
        let bm = b.add_module("B");
        b.bind_input(bm, e2);
        let sb = b.add_output(bm, "sb");
        let d = b.add_module("D");
        b.bind_input(d, sa);
        b.bind_input(d, sb);
        let out = b.add_output(d, "out");
        b.mark_system_output(out);
        let t = b.build().unwrap();
        let mut pm = PermeabilityMatrix::zeroed(&t);
        pm.set_named(&t, "A", "e1", "sa", 0.6).unwrap();
        pm.set_named(&t, "B", "e2", "sb", 0.8).unwrap();
        pm.set_named(&t, "D", "sa", "out", 0.9).unwrap();
        pm.set_named(&t, "D", "sb", "out", 0.5).unwrap();
        let g = PermeabilityGraph::new(&t, &pm).unwrap();
        let paths = BacktrackTree::build(&g, out).unwrap().into_path_set();
        (t, paths)
    }

    #[test]
    fn greedy_picks_complementary_signals() {
        let (t, paths) = diamond();
        let sa = t.signal_by_name("sa").unwrap();
        let sb = t.signal_by_name("sb").unwrap();
        let cover = greedy_cover(&paths, None, 3);
        // First pick: sa (0.54 > 0.40); second: sb (complements, not
        // another signal on the already-covered path).
        assert_eq!(cover.len(), 2);
        assert_eq!(cover[0].signal, sa);
        assert!((cover[0].marginal_weight - 0.54).abs() < 1e-12);
        assert_eq!(cover[1].signal, sb);
        assert!((cover[1].cumulative_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_limits_the_set() {
        let (_, paths) = diamond();
        let cover = greedy_cover(&paths, None, 1);
        assert_eq!(cover.len(), 1);
        assert!(cover[0].cumulative_fraction < 1.0);
    }

    #[test]
    fn candidate_restriction_is_honoured() {
        let (t, paths) = diamond();
        let sb = t.signal_by_name("sb").unwrap();
        let cover = greedy_cover(&paths, Some(&[sb]), 5);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].signal, sb);
        assert!((cover[0].marginal_weight - 0.40).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let (_, paths) = diamond();
        assert!(greedy_cover(&paths, None, 0).is_empty());
        assert!(greedy_cover(&PathSet::new(), None, 3).is_empty());
        // Candidates that appear on no path:
        let cover = greedy_cover(&paths, Some(&[]), 3);
        assert!(cover.is_empty());
    }

    #[test]
    fn marginal_weights_are_decreasing() {
        let (_, paths) = diamond();
        let cover = greedy_cover(&paths, None, 5);
        for w in cover.windows(2) {
            assert!(w[0].marginal_weight >= w[1].marginal_weight - 1e-12);
        }
    }
}
