//! KGen-style kernel comparison.
//!
//! §6.4: "we employ KGen to identify a small number of variables affected
//! by AVX2 and FMA ... We extract the Morrison-Gettelman microphysics
//! kernel ... and compare the normalized Root Mean Squared (RMS) values
//! computed by the kernel with AVX2 disabled to the normalized RMS values
//! with AVX2 enabled. KGen flags 42 variables as exhibiting normalized RMS
//! value differences exceeding 10⁻¹²."
//!
//! Instead of literal source extraction, the kernel module's complete
//! variable set (module arrays + subprogram locals) is instrumented and
//! the whole model is executed under both configurations with identical
//! initial conditions — equivalent observations, obtained without
//! generating standalone kernel drivers.

use crate::interp::{Interpreter, RunConfig, RuntimeError, SampleSpec};
use crate::program::Program;
use crate::runner::{compile_model, run_program};

use rca_model::ModelSource;

/// Result of a kernel comparison between two configurations.
#[derive(Debug, Clone)]
pub struct KernelComparison {
    /// All compared variables with their normalized RMS difference,
    /// descending.
    pub all: Vec<(String, f64)>,
    /// Variables exceeding the threshold (paper: 42 at 10⁻¹²), descending.
    pub flagged: Vec<(String, f64)>,
    /// Threshold used.
    pub threshold: f64,
}

/// Builds instrumentation specs covering every variable of
/// `kernel_module`.
pub fn kernel_sample_specs(
    model: &ModelSource,
    kernel_module: &str,
) -> Result<Vec<SampleSpec>, RuntimeError> {
    let program = compile_model(model)?;
    Ok(kernel_sample_specs_program(&program, kernel_module))
}

/// Builds instrumentation specs from an already-compiled program (no
/// parse, no load).
pub fn kernel_sample_specs_program(program: &Program, kernel_module: &str) -> Vec<SampleSpec> {
    let mut specs = Vec::new();
    let kmod: std::sync::Arc<str> = std::sync::Arc::from(kernel_module);
    for name in program.module_var_names(kernel_module) {
        specs.push(SampleSpec {
            module: kmod.clone(),
            subprogram: None,
            name: name.as_str().into(),
        });
    }
    // Locals of every subprogram in the kernel module.
    for (module, sub) in program.coverage_universe(kernel_module) {
        let locals = program.local_names(&module, &sub);
        let module: std::sync::Arc<str> = module.as_str().into();
        let sub: std::sync::Arc<str> = sub.as_str().into();
        for local in locals {
            specs.push(SampleSpec {
                module: module.clone(),
                subprogram: Some(sub.clone()),
                name: local.as_str().into(),
            });
        }
    }
    specs
}

/// Runs the model under `base` and `variant` configurations (identical
/// zero perturbation) and compares every kernel variable by normalized
/// RMS, flagging those above `threshold`.
pub fn compare_kernel(
    model: &ModelSource,
    base: &RunConfig,
    variant: &RunConfig,
    kernel_module: &str,
    threshold: f64,
) -> Result<KernelComparison, RuntimeError> {
    // One parse+compile serves spec construction and both runs.
    let program = compile_model(model)?;
    let specs = kernel_sample_specs_program(&program, kernel_module);
    let sample_step = base.steps.saturating_sub(1);
    let mut base_cfg = base.clone();
    base_cfg.sample_step = Some(sample_step);
    base_cfg.samples = specs.clone();
    let mut var_cfg = variant.clone();
    var_cfg.sample_step = Some(sample_step);
    var_cfg.samples = specs;

    let a = run_program(&program, &base_cfg, 0.0)?;
    let b = run_program(&program, &var_cfg, 0.0)?;

    // Captures are positional over the shared spec list: pair the two
    // runs' buffers directly, no key hashing.
    let mut all = Vec::new();
    for (spec, (av, bv)) in base_cfg
        .samples
        .iter()
        .zip(a.samples.iter().zip(&b.samples))
    {
        let (Some(av), Some(bv)) = (av, bv) else {
            continue;
        };
        if av.len() != bv.len() {
            continue;
        }
        let nrms = rca_stats::normalized_rms_diff(av, bv);
        all.push((spec.key(), nrms));
    }
    all.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then_with(|| x.0.cmp(&y.0)));
    let flagged = all
        .iter()
        .filter(|&&(_, v)| v > threshold)
        .cloned()
        .collect();
    Ok(KernelComparison {
        all,
        flagged,
        threshold,
    })
}

impl Interpreter {
    /// All (module, subprogram) pairs defined in `module` — used to build
    /// kernel instrumentation without executing first.
    pub fn coverage_universe(&self, module: &str) -> Vec<(String, String)> {
        self.proc_names_of_module(module)
            .into_iter()
            .map(|s| (module.to_string(), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Avx2Policy;
    use rca_model::{generate, ModelConfig};

    #[test]
    fn kernel_specs_cover_mg_variables() {
        let model = generate(&ModelConfig::test());
        let specs = kernel_sample_specs(&model, "micro_mg").unwrap();
        let names: Vec<&str> = specs.iter().map(|s| &*s.name).collect();
        for expected in ["tlat", "qvlat", "nctend", "qsout2", "dum", "ratio"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }

    #[test]
    fn fma_comparison_flags_kernel_variables() {
        let model = generate(&ModelConfig::test());
        let base = RunConfig {
            steps: 3,
            ..Default::default()
        };
        let variant = RunConfig {
            steps: 3,
            avx2: Avx2Policy::AllModules,
            ..Default::default()
        };
        let cmp = compare_kernel(&model, &base, &variant, "micro_mg", 1e-16).unwrap();
        assert!(!cmp.all.is_empty());
        assert!(
            !cmp.flagged.is_empty(),
            "FMA must flag some MG variables: {:?}",
            &cmp.all[..cmp.all.len().min(5)]
        );
        // Descending order.
        for w in cmp.all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn identical_configs_flag_nothing() {
        let model = generate(&ModelConfig::test());
        let cfg = RunConfig {
            steps: 2,
            ..Default::default()
        };
        let cmp = compare_kernel(&model, &cfg, &cfg, "micro_mg", 1e-15).unwrap();
        assert!(cmp.flagged.is_empty(), "{:?}", cmp.flagged);
    }
}
