//! The full experimental study: campaign → estimates → measures → trees →
//! paths → placement.

use permea_core::backtrack::BacktrackForest;
use permea_core::graph::PermeabilityGraph;
use permea_core::matrix::PermeabilityMatrix;
use permea_core::measures::SystemMeasures;
use permea_core::paths::PathSet;
use permea_core::placement::{PlacementAdvisor, PlacementPlan};
use permea_core::topology::SystemTopology;
use permea_core::trace::TraceForest;
use permea_fi::adaptive::AdaptivePlan;
use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::error::FiError;
use permea_fi::journal::{JournalHeader, RunJournal};
use permea_fi::results::CampaignResult;
use permea_fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea_obs::Obs;
use permea_target::registry::Registry;
use permea_target::target::Target;
use permea_target::workload::Workload;
use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicBool;

/// Configuration of the reproduction study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Mass grid size.
    pub masses: usize,
    /// Velocity grid size.
    pub velocities: usize,
    /// Injection instants in ms.
    pub times_ms: Vec<u64>,
    /// Bit positions to flip.
    pub bits: Vec<u8>,
    /// Comparison horizon in ms (`None` = full scenario, as in the paper).
    pub horizon_ms: Option<u64>,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Keep per-run records (needed for latency/uniformity analyses).
    pub keep_records: bool,
    /// Injection scope.
    pub scope: InjectionScope,
    /// Fork injection runs from golden snapshots and early-exit on
    /// reconvergence (bit-identical results; off only for differential
    /// timing).
    pub fast_forward: bool,
    /// Adaptive sampling plan: `None` runs the paper's dense grid, `Some`
    /// lets the sequential planner stop each target's stratum once its
    /// Wilson intervals are tight enough (see
    /// [`permea_fi::adaptive::AdaptivePlan`]).
    pub adaptive: Option<AdaptivePlan>,
}

impl StudyConfig {
    /// The paper's full configuration: 25 cases × 16 bits × 10 times per
    /// input signal (4 000 injections each; 52 000 runs over the 13 input
    /// ports), full-trace comparison.
    pub fn paper() -> Self {
        StudyConfig {
            masses: 5,
            velocities: 5,
            times_ms: (1..=10).map(|k| k * 500).collect(),
            bits: (0..16).collect(),
            horizon_ms: None,
            threads: 0,
            seed: 0x5EED,
            keep_records: true,
            scope: InjectionScope::Port,
            fast_forward: true,
            adaptive: None,
        }
    }

    /// A reduced configuration with the same structure (all 12 ports, all
    /// 16 bits) but a 3×3 workload grid, 5 instants and a 9 s horizon —
    /// minutes become seconds while preserving every qualitative result.
    pub fn quick() -> Self {
        StudyConfig {
            masses: 3,
            velocities: 3,
            times_ms: vec![500, 1500, 2500, 3500, 4500],
            bits: (0..16).collect(),
            horizon_ms: Some(9_000),
            threads: 0,
            seed: 0x5EED,
            keep_records: true,
            scope: InjectionScope::Port,
            fast_forward: true,
            adaptive: None,
        }
    }

    /// A tiny smoke configuration for unit tests.
    pub fn smoke() -> Self {
        StudyConfig {
            masses: 1,
            velocities: 1,
            times_ms: vec![700, 2100],
            bits: vec![0, 3, 9, 14],
            horizon_ms: Some(4_000),
            threads: 0,
            seed: 0x5EED,
            keep_records: true,
            scope: InjectionScope::Port,
            fast_forward: true,
            adaptive: None,
        }
    }

    /// The registered [`Target`] the study drives: the paper's arrestment
    /// system, resolved through [`Registry::builtin`] like any other
    /// target so the study exercises the same seam the scenario suite and
    /// the worker processes use.
    pub fn target() -> &'static dyn Target {
        Registry::builtin()
            .get("arrestment")
            .expect("arrestment is a built-in target")
    }

    /// The grid shape as the target's workload parameters.
    pub fn workload(&self) -> Workload {
        Workload::new()
            .with_int("masses", self.masses as i64)
            .with_int("velocities", self.velocities as i64)
    }

    /// The campaign configuration the study runs with: its threads, seed,
    /// horizon, records and fast-forward over the executor defaults.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            threads: self.threads,
            master_seed: self.seed,
            keep_records: self.keep_records,
            horizon_ms: self.horizon_ms,
            fast_forward: self.fast_forward,
            ..CampaignConfig::default()
        }
    }

    /// Expands the campaign spec: every input port of every module is a
    /// target (the 13 input ports across the 6 modules).
    pub fn spec(&self, topology: &SystemTopology) -> CampaignSpec {
        let mut targets = Vec::new();
        for m in topology.modules() {
            for &sig in topology.inputs_of(m) {
                targets.push(PortTarget::new(
                    topology.module_name(m),
                    topology.signal_name(sig),
                ));
            }
        }
        CampaignSpec {
            targets,
            models: self
                .bits
                .iter()
                .map(|&bit| permea_fi::model::ErrorModel::BitFlip { bit })
                .collect(),
            times_ms: self.times_ms.clone(),
            cases: self.masses * self.velocities,
            scope: self.scope,
            adaptive: self.adaptive.clone(),
        }
    }
}

/// Everything the study produces.
pub struct StudyOutput {
    /// The analysed topology.
    pub topology: SystemTopology,
    /// The expanded campaign spec.
    pub spec: CampaignSpec,
    /// Raw campaign counts and records.
    pub result: CampaignResult,
    /// The estimated permeability matrix (Table 1).
    pub matrix: PermeabilityMatrix,
    /// The permeability graph (Fig. 9).
    pub graph: PermeabilityGraph,
    /// All derived measures (Tables 2–3).
    pub measures: SystemMeasures,
    /// Backtrack trees per system output (Fig. 10).
    pub backtrack: BacktrackForest,
    /// Trace trees per system input (Figs. 11–12).
    pub trace: TraceForest,
    /// All TOC2 propagation paths, sorted by weight (Table 4).
    pub toc2_paths: PathSet,
    /// EDM/ERM placement plan (Section 5).
    pub placement: PlacementPlan,
}

/// The study runner.
#[derive(Debug, Clone)]
pub struct Study {
    config: StudyConfig,
    obs: Obs,
}

impl Study {
    /// Creates a study from a configuration, with telemetry disabled.
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            obs: Obs::disabled(),
        }
    }

    /// Attaches a telemetry handle; the campaign's counters, phase spans and
    /// progress events flow through it.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The journal header identifying this study's campaign — what a
    /// [`RunJournal`] must be opened against to journal or resume it.
    pub fn journal_header(&self) -> JournalHeader {
        let topology = StudyConfig::target().topology();
        let spec = self.config.spec(&topology);
        JournalHeader::new(&spec, self.config.seed, self.config.horizon_ms)
    }

    /// Runs the complete pipeline.
    ///
    /// # Errors
    ///
    /// Propagates campaign and analysis failures ([`FiError`] rendered into
    /// a boxed error for the analysis stages, which cannot fail for a valid
    /// topology).
    pub fn run(&self) -> Result<StudyOutput, FiError> {
        self.run_resumable(None, None)
    }

    /// Runs the pipeline with optional campaign durability and
    /// cancellation: finished injection runs are appended to `journal` (and
    /// journaled runs are not re-executed), and raising `cancel` stops the
    /// campaign with [`FiError::Interrupted`] after syncing the journal.
    /// The journal must have been opened against [`Study::journal_header`].
    ///
    /// # Errors
    ///
    /// As [`Study::run`], plus [`FiError::Interrupted`] and journal I/O
    /// failures.
    pub fn run_resumable(
        &self,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
    ) -> Result<StudyOutput, FiError> {
        self.run_resumable_budgeted(journal, cancel, None)
    }

    /// As [`Study::run_resumable`], but additionally bounded to at most
    /// `max_new_runs` freshly executed injection runs — journal replays
    /// are free. Budget exhaustion surfaces as [`FiError::Interrupted`],
    /// exactly like cancellation; re-invoking against the same journal
    /// continues where the slice stopped and the final artifacts are
    /// byte-identical to an unsliced run. This is the scheduling quantum
    /// the campaign daemon uses to fair-share one executor fleet across
    /// tenants.
    ///
    /// # Errors
    ///
    /// As [`Study::run_resumable`].
    pub fn run_resumable_budgeted(
        &self,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
        max_new_runs: Option<u64>,
    ) -> Result<StudyOutput, FiError> {
        let target = StudyConfig::target();
        let topology = target.topology();
        let spec = self.config.spec(&topology);
        let factory = target
            .factory(&self.config.workload())
            .unwrap_or_else(|e| panic!("study grid rejected by the target: {e}"));
        let campaign = Campaign::new(factory.as_ref(), self.config.campaign_config())
            .with_obs(self.obs.clone());
        let result = campaign.run_resumable_budgeted(&spec, journal, cancel, max_new_runs)?;
        StudyOutput::analyse(topology, spec, result)
    }
}

impl StudyOutput {
    /// Analyses a finished campaign of `spec` on `topology`: the matrix
    /// estimate, graph, measures, trees, TOC2 paths and placement plan.
    ///
    /// # Errors
    ///
    /// [`FiError`] when the result does not fit the topology.
    pub fn analyse(
        topology: SystemTopology,
        spec: CampaignSpec,
        result: CampaignResult,
    ) -> Result<StudyOutput, FiError> {
        let matrix = permea_fi::estimate::estimate_matrix(&topology, &result)?;
        let graph = PermeabilityGraph::new(&topology, &matrix)
            .expect("matrix was shaped from this topology");
        let measures = SystemMeasures::compute(&graph).expect("validated topology yields measures");
        let backtrack =
            BacktrackForest::build(&graph).expect("validated topology yields backtrack trees");
        let trace = TraceForest::build(&graph).expect("validated topology yields trace trees");
        // The arrestment target's single system output is TOC2; going
        // through the topology keeps this stage working for any target
        // with at least one declared output.
        let output = *topology
            .system_outputs()
            .first()
            .expect("target topology declares a system output");
        let toc2_paths = backtrack
            .tree_for(output)
            .expect("system outputs root backtrack trees")
            .clone()
            .into_path_set()
            .sorted_by_weight();
        let placement = PlacementAdvisor::new(&graph)
            .expect("validated topology yields placement")
            .plan();
        Ok(StudyOutput {
            topology,
            spec,
            result,
            matrix,
            graph,
            measures,
            backtrack,
            trace,
            toc2_paths,
            placement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permea_fi::shard::Shard;

    #[test]
    fn spec_targets_all_13_input_ports() {
        let topo = StudyConfig::target().topology();
        let spec = StudyConfig::paper().spec(&topo);
        // CLOCK 1 + DIST_S 3 + PRES_S 1 + CALC 5 + V_REG 2 + PREG 1
        assert_eq!(spec.targets.len(), 13);
    }

    #[test]
    fn paper_config_matches_section_7_3() {
        let topo = StudyConfig::target().topology();
        let spec = StudyConfig::paper().spec(&topo);
        assert_eq!(spec.injections_per_target(), 4_000);
        assert_eq!(spec.models.len(), 16);
        assert_eq!(spec.times_ms.len(), 10);
        assert_eq!(spec.cases, 25);
    }

    #[test]
    fn journaled_smoke_study_resumes_identically() {
        let study = Study::new(StudyConfig::smoke());
        let baseline = study.run().unwrap();

        let dir = std::env::temp_dir().join(format!("permea-study-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let header = study.journal_header();
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let journaled = study.run_resumable(Some(&mut j), None).unwrap();
        assert_eq!(journaled.result, baseline.result);
        drop(j);

        // Reopen the complete journal: the resumed study re-executes no
        // runs and reproduces the result bit for bit.
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered as u64, baseline.result.total_runs);
        let resumed = study.run_resumable(Some(&mut j), None).unwrap();
        assert_eq!(resumed.result, baseline.result);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_smoke_studies_merge_to_the_unsharded_journal() {
        // One thread everywhere: journal byte-identity needs ascending
        // append order on both sides.
        let config = StudyConfig {
            threads: 1,
            ..StudyConfig::smoke()
        };
        let study = Study::new(config.clone());
        let baseline = study.run().unwrap();
        let dir = std::env::temp_dir().join(format!("permea-study-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let header = study.journal_header();
        let target = StudyConfig::target();
        let spec = config.spec(&target.topology());
        let factory = target.factory(&config.workload()).unwrap();

        let full_path = dir.join("full.jsonl");
        let _ = std::fs::remove_file(&full_path);
        let (mut j, _) = RunJournal::open_or_create(&full_path, &header).unwrap();
        study.run_resumable(Some(&mut j), None).unwrap();
        j.sync().unwrap();
        drop(j);

        let mut shard_paths = Vec::new();
        for i in 0..2 {
            let sharded = CampaignConfig {
                shard: Some(Shard::new(i, 2).unwrap()),
                ..config.campaign_config()
            };
            let path = dir.join(format!("shard{i}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            Campaign::new(factory.as_ref(), sharded)
                .run_resumable(&spec, Some(&mut j), None)
                .unwrap();
            j.sync().unwrap();
            drop(j);
            shard_paths.push(path);
        }

        let merged = dir.join("merged.jsonl");
        let _ = std::fs::remove_file(&merged);
        permea_fi::journal::merge_journals(&merged, &shard_paths).unwrap();
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "merged shard journals must equal the unsharded journal byte for byte"
        );

        // Resuming from the merged journal re-executes nothing and yields
        // the baseline result.
        let (mut j, loaded) = RunJournal::open_or_create(&merged, &header).unwrap();
        assert_eq!(loaded.recovered as u64, baseline.result.total_runs);
        let resumed = study.run_resumable(Some(&mut j), None).unwrap();
        assert_eq!(resumed.result, baseline.result);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_with_obs_collects_campaign_metrics() {
        let obs = Obs::with_sinks(Vec::new());
        let study = Study::new(StudyConfig::smoke()).with_obs(obs.clone());
        let out = study.run().unwrap();
        let snap = obs.snapshot().unwrap();
        assert_eq!(
            snap.counter("campaign.runs_total"),
            Some(out.result.total_runs)
        );
        assert_eq!(
            snap.counter("campaign.golden_runs"),
            Some(out.result.golden_ticks.len() as u64)
        );
    }

    #[test]
    fn smoke_study_runs_end_to_end() {
        let out = Study::new(StudyConfig::smoke()).run().unwrap();
        assert_eq!(out.matrix.pair_count(), 25);
        assert_eq!(out.toc2_paths.len(), 22, "the paper's 22 propagation paths");
        assert_eq!(out.backtrack.trees().len(), 1);
        assert_eq!(out.trace.trees().len(), 4);
        assert!(!out.placement.edm.is_empty());
        assert!(!out.placement.erm.is_empty());
    }
}
