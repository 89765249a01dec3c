//! The end-to-end pipeline: model source → coverage filter → metagraph.
//!
//! Mirrors the paper's preprocessing chain (§2.1, §4.1): start from the
//! compiled model configuration, run it briefly to collect coverage
//! ("discard modules that are not yet executed by the second time step"),
//! drop unexecuted modules/subprograms, then compile the surviving source
//! into the variable digraph.
//!
//! Each file is parsed exactly once per pipeline (the `phase.parse`
//! span): the calibration program, the coverage filter and the metagraph
//! all read the same `Arc<SourceFile>` ASTs, and the filter copies only
//! the files it strips. A session keeps that parse and compiles its
//! variants against it.

use crate::error::RcaError;
use rca_fortran::SourceFile;
use rca_ident::{ModuleId, SymbolTable};
use rca_metagraph::{build_metagraph_seeded, filter_sources, FilterStats, MetaGraph};
use rca_model::{Component, ModelSource};
use rca_sim::{compile_variant, parse_model, run_program, Program, RunConfig, RunCoverage};
use std::collections::HashMap;
use std::sync::Arc;

/// A built pipeline: metagraph plus bookkeeping for one model variant,
/// built from one parse of its source.
#[derive(Debug)]
pub struct RcaPipeline {
    /// The compiled variable digraph with metadata (id-keyed over the
    /// session's workspace-wide symbol table).
    pub metagraph: MetaGraph,
    /// Coverage observed during the calibration run (empty when coverage
    /// is skipped).
    pub coverage: RunCoverage,
    /// Module/subprogram reduction statistics (paper: ~30% of modules and
    /// ~60% of subprograms removed).
    pub filter_stats: FilterStats,
    /// Module → component map from the generator.
    pub components: HashMap<String, Component>,
    /// `cam_mask[ModuleId]` — dense CAM-membership mask, so slice-scope
    /// checks on the refinement hot path are array reads, not string
    /// compares.
    cam_mask: Vec<bool>,
    /// The coverage-filtered ASTs the metagraph was compiled from —
    /// retained so the static analysis plane ([`rca_analysis`]) can
    /// compile the *same* source universe and agree with the metagraph
    /// node-for-node.
    filtered: Vec<Arc<SourceFile>>,
}

/// Steps of the coverage calibration run (the paper examines coverage by
/// the second time step).
const COVERAGE_STEPS: u32 = 2;

/// Options for pipeline construction.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Skip the coverage run and graph all source (for comparisons of
    /// hybrid vs. purely static slicing).
    pub skip_coverage: bool,
}

impl RcaPipeline {
    /// Builds the pipeline for `model` with default options.
    pub fn build(model: &ModelSource) -> Result<RcaPipeline, RcaError> {
        Self::build_with(model, &PipelineOptions::default())
    }

    /// Builds with explicit options: parses the model once and, unless
    /// coverage is skipped, compiles the calibration program from that
    /// parse (callers holding a compiled program should use
    /// [`RcaPipeline::build_with_program`] instead).
    pub fn build_with(
        model: &ModelSource,
        opts: &PipelineOptions,
    ) -> Result<RcaPipeline, RcaError> {
        let files = Self::parse(model)?;
        let program = if opts.skip_coverage {
            None
        } else {
            Some(compile_variant(model, Some((model, &files, None)))?)
        };
        Self::build_parsed(model, &files, program.as_ref(), opts)
    }

    /// Builds with a pre-compiled program for the calibration run.
    pub fn build_with_program(
        model: &ModelSource,
        program: &Arc<Program>,
        opts: &PipelineOptions,
    ) -> Result<RcaPipeline, RcaError> {
        let files = Self::parse(model)?;
        Self::build_parsed(model, &files, Some(program), opts)
    }

    /// Parses every file of `model` (the `phase.parse` span): the one
    /// parse of the base model a pipeline or session builds from.
    pub(crate) fn parse(model: &ModelSource) -> Result<Vec<Arc<SourceFile>>, RcaError> {
        let _span = rca_obs::span("phase.parse");
        Ok(parse_model(model, None)?)
    }

    /// Builds from `files`, the [`RcaPipeline::parse`] of `model` — the
    /// session path, which shares the parse and one program across the
    /// pipeline, the control ensemble, every variant's compile, and
    /// every runtime oracle.
    pub(crate) fn build_parsed(
        model: &ModelSource,
        files: &[Arc<SourceFile>],
        program: Option<&Arc<Program>>,
        opts: &PipelineOptions,
    ) -> Result<RcaPipeline, RcaError> {
        let (coverage, filtered, filter_stats) = if opts.skip_coverage {
            // Nothing is filtered, so report the real counts on both
            // sides — callers compare these against coverage-filtered
            // builds, and fabricated zeros would make the comparison lie.
            let modules: usize = files.iter().map(|f| f.modules.len()).sum();
            let subprograms: usize = files
                .iter()
                .flat_map(|f| &f.modules)
                .map(|m| m.subprograms.len())
                .sum();
            let stats = FilterStats {
                modules_before: modules,
                modules_after: modules,
                subprograms_before: subprograms,
                subprograms_after: subprograms,
            };
            (RunCoverage::from_pairs([]), files.to_vec(), stats)
        } else {
            let _span = rca_obs::span("phase.coverage");
            let cfg = RunConfig {
                steps: COVERAGE_STEPS,
                ..Default::default()
            };
            let out = run_program(program.expect("calibration needs a program"), &cfg, 0.0)?;
            let (filtered, stats) = filter_sources(files, &out.coverage);
            (out.coverage, filtered, stats)
        };
        // One identity plane per session: seed the graph's symbol table
        // from the compiled program's interner so program ids and graph
        // ids share one space; a coverage-skipping build starts fresh.
        let seed = match program {
            Some(p) => (**p.symbols()).clone(),
            None => SymbolTable::new(),
        };
        let metagraph = {
            let _span = rca_obs::span("phase.metagraph");
            build_metagraph_seeded(&filtered, seed)
        };
        let components = model.component_map();
        let syms = metagraph.symbols();
        let mut cam_mask = vec![false; syms.module_count()];
        for (i, slot) in cam_mask.iter_mut().enumerate() {
            *slot = matches!(
                components.get(syms.module(ModuleId(i as u32))),
                Some(Component::Cam)
            );
        }
        Ok(RcaPipeline {
            metagraph,
            coverage,
            filter_stats,
            components,
            cam_mask,
            filtered,
        })
    }

    /// The coverage-filtered ASTs the metagraph was built from (the
    /// source universe the static analysis plane must compile to agree
    /// with the graph). Every file coverage left whole is the parse's own
    /// `Arc`, shared with the session's base model.
    pub fn filtered_sources(&self) -> &[Arc<SourceFile>] {
        &self.filtered
    }

    /// Whether a module belongs to CAM (the paper restricts experiment
    /// subgraphs to CAM modules, §6).
    pub fn is_cam(&self, module: &str) -> bool {
        matches!(self.components.get(module), Some(Component::Cam))
    }

    /// Dense id-keyed CAM check (the slice-scope hot path).
    pub fn is_cam_id(&self, module: ModuleId) -> bool {
        self.cam_mask.get(module.index()).copied().unwrap_or(false)
    }

    /// Maps affected output-file names to internal canonical names via the
    /// I/O registry (paper §5.1 / Table 2).
    pub fn outputs_to_internal(&self, outputs: &[String]) -> Vec<String> {
        self.metagraph.outputs_to_internal(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_model::{generate, ModelConfig};

    #[test]
    fn pipeline_builds_graph() {
        let model = generate(&ModelConfig::test());
        let p = RcaPipeline::build(&model).expect("pipeline");
        assert!(
            p.metagraph.node_count() > 300,
            "{}",
            p.metagraph.node_count()
        );
        assert!(p.metagraph.edge_count() > p.metagraph.node_count() / 2);
        // Table-2 style I/O mapping present.
        let internal = p.outputs_to_internal(&["flds".into(), "taux".into()]);
        assert_eq!(internal, vec!["flwds".to_string(), "wsx".to_string()]);
        assert!(p.is_cam("micro_mg"));
        assert!(!p.is_cam("lnd_main"));
    }

    #[test]
    fn coverage_filter_reduces_nothing_at_test_scale() {
        // Every generated subprogram executes each step, so the filter
        // keeps everything — the reduction machinery is exercised by the
        // dead-code test below.
        let model = generate(&ModelConfig::test());
        let p = RcaPipeline::build(&model).unwrap();
        assert_eq!(p.filter_stats.modules_before, p.filter_stats.modules_after);
    }

    #[test]
    fn dead_subprograms_filtered() {
        // Inject an uncalled subroutine into a module and verify it is
        // dropped from the graph.
        let mut model = generate(&ModelConfig::test());
        let f = model
            .files
            .iter_mut()
            .find(|f| f.name == "microp_aero.F90")
            .unwrap();
        f.source = f.source.replace(
            "contains",
            "contains\n  subroutine never_called(x)\n    real(r8), intent(inout) :: x\n    x = x * deadvar_unique\n  end subroutine never_called\n",
        );
        let p = RcaPipeline::build(&model).unwrap();
        assert_eq!(
            p.filter_stats.subprograms_before,
            p.filter_stats.subprograms_after + 1
        );
        assert!(p
            .metagraph
            .nodes_with_canonical("deadvar_unique")
            .is_empty());
    }

    #[test]
    fn skip_coverage_keeps_everything() {
        let mut model = generate(&ModelConfig::test());
        let f = model
            .files
            .iter_mut()
            .find(|f| f.name == "microp_aero.F90")
            .unwrap();
        f.source = f.source.replace(
            "contains",
            "contains\n  subroutine never_called(x)\n    real(r8), intent(inout) :: x\n    x = x * deadvar_unique\n  end subroutine never_called\n",
        );
        let p = RcaPipeline::build_with(
            &model,
            &PipelineOptions {
                skip_coverage: true,
            },
        )
        .unwrap();
        assert!(!p
            .metagraph
            .nodes_with_canonical("deadvar_unique")
            .is_empty());
    }

    #[test]
    fn skip_coverage_reports_real_subprogram_counts() {
        let model = generate(&ModelConfig::test());
        let filtered = RcaPipeline::build(&model).unwrap();
        let skipped = RcaPipeline::build_with(
            &model,
            &PipelineOptions {
                skip_coverage: true,
            },
        )
        .unwrap();
        // Nothing filtered: before == after, and both are the true count.
        assert!(skipped.filter_stats.subprograms_before > 0);
        assert_eq!(
            skipped.filter_stats.subprograms_before,
            skipped.filter_stats.subprograms_after
        );
        // The unfiltered universe must match what the coverage build saw
        // before it filtered.
        assert_eq!(
            skipped.filter_stats.subprograms_before,
            filtered.filter_stats.subprograms_before
        );
        assert_eq!(
            skipped.filter_stats.modules_before,
            filtered.filter_stats.modules_before
        );
    }
}
