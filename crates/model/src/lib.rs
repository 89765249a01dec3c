//! # rca-model — the synthetic CESM-like climate model
//!
//! The paper's subject is CESM: 1.5M lines of Fortran across ~820 compiled
//! modules. That code base is not available (and far beyond laptop scale),
//! so this crate **generates** a climate model with the same structural
//! skeleton — in real Fortran source text, consumed by `rca-fortran` and
//! executed by `rca-sim`:
//!
//! - hand-written **anchor modules** ([`anchors`]) mirror every piece of
//!   CESM the paper names: `microp_aero` (WSUBBUG), `wv_saturation`
//!   (GOFFGRATCH), the Morrison–Gettelman kernel `micro_mg` with the
//!   paper's variable cast (`dum`, `ratio`, `nctend`, …), PRNG-driven
//!   cloud-cover modules (RAND-MT), the dynamics core (DYN3BUG,
//!   RANDOMBUG), surface exchange, and a land component;
//! - procedurally generated **filler modules** ([`fillers`]) wire up by
//!   preferential attachment to give the graph its scale-free shape;
//! - [`experiment`] injects the paper's six experiments, four as source
//!   patches and two as run-configuration changes;
//! - the generated model is deterministic in `ModelConfig::seed`.

pub mod anchors;
pub mod config;
pub mod experiment;
pub mod fillers;
pub mod sites;

pub use anchors::ModelFile;
pub use config::{Component, ModelConfig};
pub use experiment::{BugSite, Experiment};
pub use sites::{patch_sites, LiteralSpan, PatchSite};

use std::collections::HashMap;

/// 64-bit FNV-1a accumulator, the workspace's one content hash: model
/// sources ([`ModelSource::content_hash`]), fault plans and campaign run
/// digests all feed it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    /// The FNV-1a offset basis.
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in `bytes`, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// Mixes in `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything mixed in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A fully generated model: source files plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ModelSource {
    /// All source files (anchors, fillers, driver).
    pub files: Vec<ModelFile>,
    /// The configuration used.
    pub config: ModelConfig,
}

/// Generates the synthetic model for `config`.
pub fn generate(config: &ModelConfig) -> ModelSource {
    let mut files = anchors::anchor_files(config);
    let (fillers, run_calls) = fillers::filler_files(config);
    let driver = fillers::driver_file(config, &fillers, &run_calls);
    files.extend(fillers);
    files.push(driver);
    ModelSource {
        files,
        config: config.clone(),
    }
}

impl ModelSource {
    /// Applies an experiment's source patches, returning the modified
    /// model. Panics if a patch no longer matches (the bug site must
    /// exist exactly once — it is ground truth).
    pub fn apply(&self, experiment: Experiment) -> ModelSource {
        let mut out = self.clone();
        for (file, from, to) in experiment.source_patches() {
            let f = out
                .files
                .iter_mut()
                .find(|f| f.name == file)
                .unwrap_or_else(|| panic!("patch target {file} missing"));
            assert!(
                f.source.contains(from),
                "bug site not found in {file}: {from}"
            );
            f.source = f.source.replacen(from, to, 1);
        }
        out
    }

    /// Parses every file, returning ASTs and accumulated diagnostics.
    pub fn parse(&self) -> (Vec<rca_fortran::SourceFile>, Vec<rca_fortran::ParseError>) {
        let mut asts = Vec::with_capacity(self.files.len());
        let mut errs = Vec::new();
        for f in &self.files {
            let (ast, mut e) = rca_fortran::parse_source(&f.name, &f.source);
            asts.push(ast);
            errs.append(&mut e);
        }
        (asts, errs)
    }

    /// Lines of code per module (nonblank, noncomment), for Table 1's
    /// "50 largest modules" policy.
    pub fn loc_per_module(&self) -> Vec<(String, usize)> {
        self.files
            .iter()
            .map(|f| {
                let loc = f
                    .source
                    .lines()
                    .filter(|l| {
                        let t = l.trim();
                        !t.is_empty() && !t.starts_with('!')
                    })
                    .count();
                (f.name.trim_end_matches(".F90").to_string(), loc)
            })
            .collect()
    }

    /// Component of each module, for CAM-only restriction (§6) and Fig. 15.
    pub fn component_map(&self) -> HashMap<String, Component> {
        self.files
            .iter()
            .map(|f| (f.name.trim_end_matches(".F90").to_string(), f.component))
            .collect()
    }

    /// Total lines of generated Fortran.
    pub fn total_loc(&self) -> usize {
        self.loc_per_module().iter().map(|(_, l)| l).sum()
    }

    /// FNV-1a content hash over every file name and source text.
    ///
    /// Two models hash equal iff their generated Fortran is identical, so
    /// this is the cache key for compiled-program caches: experiment
    /// variants that differ only in run configuration (RAND-MT, AVX2)
    /// share one hash, while any source patch produces a new one.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for f in &self.files {
            h.write(f.name.as_bytes());
            h.write(&[0]);
            h.write(f.source.as_bytes());
            h.write(&[0xFF]);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_model_parses_without_errors() {
        let model = generate(&ModelConfig::test());
        let (asts, errs) = model.parse();
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(asts.len(), model.files.len());
        // The paper's FC5 setup: anchors + fillers + driver.
        assert!(model.files.len() > 15 + ModelConfig::test().total_fillers());
    }

    #[test]
    fn experiments_apply_cleanly() {
        let model = generate(&ModelConfig::test());
        for e in Experiment::ALL {
            let patched = model.apply(e);
            let (_, errs) = patched.parse();
            assert!(errs.is_empty(), "{e:?}: {errs:?}");
        }
    }

    #[test]
    fn wsubbug_changes_exactly_one_line() {
        let model = generate(&ModelConfig::test());
        let bugged = model.apply(Experiment::WsubBug);
        let orig = &model
            .files
            .iter()
            .find(|f| f.name == "microp_aero.F90")
            .unwrap()
            .source;
        let new = &bugged
            .files
            .iter()
            .find(|f| f.name == "microp_aero.F90")
            .unwrap()
            .source;
        let diffs: Vec<_> = orig
            .lines()
            .zip(new.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].1.contains("2.00_r8"));
    }

    #[test]
    fn loc_accounting() {
        let model = generate(&ModelConfig::test());
        let locs = model.loc_per_module();
        assert_eq!(locs.len(), model.files.len());
        assert!(model.total_loc() > 500);
        let largest = locs.iter().map(|(_, l)| *l).max().unwrap();
        assert!(largest > 30);
    }

    #[test]
    fn component_map_covers_all() {
        let model = generate(&ModelConfig::test());
        let map = model.component_map();
        assert_eq!(map["micro_mg"], Component::Cam);
        assert_eq!(map["lnd_main"], Component::Land);
        assert_eq!(map["cam_driver"], Component::Coupler);
    }

    #[test]
    fn content_hash_tracks_source_changes() {
        let model = generate(&ModelConfig::test());
        assert_eq!(model.content_hash(), model.content_hash());
        assert_eq!(
            model.content_hash(),
            generate(&ModelConfig::test()).content_hash(),
            "deterministic generation must hash identically"
        );
        let patched = model.apply(Experiment::WsubBug);
        assert_ne!(model.content_hash(), patched.content_hash());
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&ModelConfig::test());
        let b = generate(&ModelConfig::test());
        for (x, y) in a.files.iter().zip(&b.files) {
            assert_eq!(x.source, y.source, "{}", x.name);
        }
    }
}
