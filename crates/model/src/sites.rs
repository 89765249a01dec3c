//! Patch-site enumeration for fault-injection campaigns.
//!
//! The paper evaluates root-cause analysis on six hand-injected defects;
//! a campaign needs *arbitrary* injection sites with known ground truth.
//! This module scans the generated Fortran text and enumerates every
//! assignment statement a mutation engine can perturb, together with the
//! bookkeeping a scorer needs: the owning module/subprogram, the assigned
//! variable's canonical name (the ground-truth [`crate::BugSite`]), and
//! which mutation operators apply — nonzero float literals (constant
//! perturbation), spaced `*`/`-` operators (operator swap), `max(`/`min(`
//! intrinsics (comparison flip), and `a*b + c` shapes (FMA-contraction
//! sensitivity for per-module AVX2 toggles).
//!
//! The scan is purely textual, which is exactly right for coordinates:
//! the model generator emits one statement per line with spaced binary
//! operators, so byte offsets into a line are stable patch coordinates,
//! and a patched model re-parses through the full `rca-fortran` front end
//! (campaigns assert this; malformed mutations would surface as parse
//! errors). It is wrong for facts about the program: Fortran text cannot
//! tell a function call from an array reference (paper §4.2), so the scan
//! decides nothing about reachability or observability. Campaigns filter
//! the sites on the compiled IR (`rca_campaign::campaign_sites`).

use crate::ModelSource;

/// One float literal inside an assignment's right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiteralSpan {
    /// Byte offset of the literal's first character in the line.
    pub start: usize,
    /// Byte offset one past the `_r8` kind suffix.
    pub end: usize,
    /// Parsed value (always finite and nonzero).
    pub value: f64,
}

/// A mutable assignment statement in the generated model.
#[derive(Debug, Clone)]
pub struct PatchSite {
    /// Source file (e.g. `"microp_aero.F90"`).
    pub file: String,
    /// Module containing the assignment.
    pub module: String,
    /// Subprogram containing the assignment.
    pub subprogram: String,
    /// 0-based line index into the file's source.
    pub line: usize,
    /// Canonical name of the assigned variable (`state%omega(i)` →
    /// `omega`), the ground-truth key for [`crate::BugSite`].
    pub target: String,
    /// The original line text.
    pub text: String,
    /// Nonzero float literals with `_r8` kind suffix in the RHS.
    pub literals: Vec<LiteralSpan>,
    /// Byte offsets of swappable ` * ` operators in the RHS.
    pub mul_ops: Vec<usize>,
    /// Byte offsets of swappable binary ` - ` operators in the RHS.
    pub minus_ops: Vec<usize>,
    /// Byte offsets of swappable binary ` + ` operators in the RHS
    /// (additive sign-flip targets).
    pub plus_ops: Vec<usize>,
    /// Byte offsets of `max(` / `min(` intrinsics in the RHS (`true` for
    /// `max`).
    pub minmax_ops: Vec<(usize, bool)>,
    /// Whether the RHS carries an FMA-contractible shape (`a*b + c`):
    /// the statement's value changes under per-module AVX2/FMA toggles.
    pub fma_shape: bool,
}

/// Enumerates every mutable assignment site in the model's subroutines,
/// in file order.
///
/// Skipped statements: declarations, `do`/`end`/`call`/`use` lines, and
/// assignments outside a subroutine. Every site of every subroutine is
/// returned, reachable or not: callers filter on the compiled program —
/// by reachability from the host entry points (a mutation in a
/// subroutine the entry points never call is provably dead), by component
/// (CAM-only campaigns) and by metagraph presence and observability
/// (coverage filtering can drop a module entirely; injecting there would
/// be unscorable).
pub fn patch_sites(model: &ModelSource) -> Vec<PatchSite> {
    let mut sites = Vec::new();
    for f in &model.files {
        let mut module = String::new();
        let mut subprogram: Option<String> = None;
        for (idx, raw) in f.source.lines().enumerate() {
            let t = raw.trim();
            if let Some(rest) = t.strip_prefix("module ") {
                module = rest.trim().to_string();
                continue;
            }
            if t.starts_with("end subroutine") || t.starts_with("end function") {
                subprogram = None;
                continue;
            }
            if let Some(rest) = t.strip_prefix("subroutine ") {
                subprogram = Some(rest.split('(').next().unwrap_or(rest).trim().to_string());
                continue;
            }
            let Some(sub) = &subprogram else { continue };
            if !is_assignment(t) {
                continue;
            }
            let Some(eq) = raw.find(" = ") else { continue };
            let Some(target) = canonical_target(&raw[..eq]) else {
                continue;
            };
            let rhs_start = eq + 3;
            let literals = scan_literals(raw, rhs_start);
            let mul_ops = scan_op(raw, rhs_start, " * ");
            let minus_ops = scan_op(raw, rhs_start, " - ");
            let mut minmax_ops: Vec<(usize, bool)> = scan_op(raw, rhs_start, "max(")
                .into_iter()
                .map(|p| (p, true))
                .chain(
                    scan_op(raw, rhs_start, "min(")
                        .into_iter()
                        .map(|p| (p, false)),
                )
                .collect();
            minmax_ops.sort_unstable();
            // FMA contraction fuses the left product of an add: `a*b + c`.
            let plus_ops = scan_op(raw, rhs_start, " + ");
            let fma_shape = mul_ops.iter().any(|&m| plus_ops.iter().any(|&p| p > m));
            sites.push(PatchSite {
                file: f.name.clone(),
                module: module.clone(),
                subprogram: sub.clone(),
                line: idx,
                target,
                text: raw.to_string(),
                literals,
                mul_ops,
                minus_ops,
                plus_ops,
                minmax_ops,
                fma_shape,
            });
        }
    }
    sites
}

/// Whether a trimmed line is a mutable assignment statement.
fn is_assignment(t: &str) -> bool {
    if !t.contains(" = ") {
        return false;
    }
    if t.contains("::") || t.contains("=>") {
        return false; // declarations and renamed imports
    }
    const SKIP: [&str; 10] = [
        "!",
        "do ",
        "end",
        "call ",
        "use ",
        "if",
        "else",
        "module",
        "subroutine",
        "function",
    ];
    !SKIP.iter().any(|p| t.starts_with(p))
}

/// Canonical variable name of an assignment's left-hand side:
/// `state%omega(i)` → `omega`, `wsub(i)` → `wsub`, `dum` → `dum`.
fn canonical_target(lhs: &str) -> Option<String> {
    let lhs = lhs.trim();
    let base = lhs.split('(').next()?.trim();
    let name = base.rsplit('%').next()?.trim();
    let ok = !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
    ok.then(|| name.to_string())
}

/// Byte offsets of `needle` occurrences at or after `from`.
fn scan_op(line: &str, from: usize, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = from;
    while let Some(i) = line[pos..].find(needle) {
        out.push(pos + i);
        pos += i + needle.len();
    }
    out
}

/// Finds nonzero float literals of the form `0.25_r8` / `8.1328e-3_r8`
/// at or after `from`. The span covers mantissa through kind suffix, so a
/// mutation can replace it wholesale.
fn scan_literals(line: &str, from: usize) -> Vec<LiteralSpan> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = from;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // A literal must not continue an identifier (`pa001_a`).
        if i > 0 {
            let prev = bytes[i - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                continue;
            }
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'.' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
        if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
            let mut j = i + 1;
            if j < bytes.len() && matches!(bytes[j], b'+' | b'-') {
                j += 1;
            }
            if j < bytes.len() && bytes[j].is_ascii_digit() {
                i = j;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
        }
        if line[i..].starts_with("_r8") {
            let end = i + 3;
            if let Ok(value) = line[start..i].parse::<f64>() {
                if value != 0.0 && value.is_finite() {
                    out.push(LiteralSpan { start, end, value });
                }
            }
            i = end;
        }
    }
    out
}

impl ModelSource {
    /// Returns a copy of the model with one line of one file replaced —
    /// the primitive under seeded mutation campaigns. Panics if the file
    /// or line does not exist (patch coordinates come from
    /// [`patch_sites`] over the same model, so a miss is a caller bug).
    pub fn with_patched_line(&self, file: &str, line: usize, new_line: &str) -> ModelSource {
        let mut out = self.clone();
        let f = out
            .files
            .iter_mut()
            .find(|f| f.name == file)
            .unwrap_or_else(|| panic!("patch target {file} missing"));
        let mut lines: Vec<&str> = f.source.lines().collect();
        assert!(line < lines.len(), "{file} has no line {line}");
        lines[line] = new_line;
        let mut source = lines.join("\n");
        if f.source.ends_with('\n') {
            source.push('\n');
        }
        f.source = source;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, ModelConfig};

    #[test]
    fn enumerates_known_anchor_sites() {
        let model = generate(&ModelConfig::test());
        let sites = patch_sites(&model);
        assert!(sites.len() > 100, "only {} sites", sites.len());
        // The WSUBBUG line is a site with a literal, a mul, and a max.
        let wsub = sites
            .iter()
            .find(|s| s.module == "microp_aero" && s.target == "wsub")
            .expect("wsub site");
        assert_eq!(wsub.subprogram, "microp_aero_run");
        assert!(wsub.text.contains("0.20_r8"));
        assert!(!wsub.literals.is_empty());
        assert!(!wsub.mul_ops.is_empty());
        assert!(wsub.minmax_ops.iter().any(|&(_, is_max)| is_max));
    }

    #[test]
    fn derived_type_targets_are_canonical() {
        let model = generate(&ModelConfig::test());
        let sites = patch_sites(&model);
        let omega = sites
            .iter()
            .find(|s| s.module == "dyn_update" && s.target == "omega")
            .expect("state%omega assignment");
        assert!(omega.text.contains("state%omega"));
    }

    #[test]
    fn literal_spans_parse_and_slice_back() {
        let model = generate(&ModelConfig::test());
        for s in patch_sites(&model) {
            for lit in &s.literals {
                let span = &s.text[lit.start..lit.end];
                assert!(span.ends_with("_r8"), "{span} in {}", s.text);
                let value: f64 = span.trim_end_matches("_r8").parse().expect("parses");
                assert_eq!(value, lit.value);
                assert!(value != 0.0);
            }
        }
    }

    #[test]
    fn operators_are_inside_rhs_and_spaced() {
        let model = generate(&ModelConfig::test());
        for s in patch_sites(&model) {
            let eq = s.text.find(" = ").unwrap();
            for &p in s.mul_ops.iter().chain(&s.minus_ops) {
                assert!(p >= eq + 3, "operator in LHS: {}", s.text);
            }
            for &p in &s.mul_ops {
                assert_eq!(&s.text[p..p + 3], " * ");
            }
            for &p in &s.minus_ops {
                assert_eq!(&s.text[p..p + 3], " - ");
            }
        }
    }

    #[test]
    fn exponent_minus_is_never_a_swap_site() {
        let model = generate(&ModelConfig::test());
        for s in patch_sites(&model) {
            for &p in &s.minus_ops {
                // A spaced binary minus can never sit inside `1.0e-6_r8`.
                assert!(!s.text[..p].ends_with('e') && !s.text[..p].ends_with('E'));
            }
        }
    }

    #[test]
    fn plus_ops_are_spaced_rhs_operators() {
        let model = generate(&ModelConfig::test());
        let sites = patch_sites(&model);
        assert!(
            sites.iter().any(|s| !s.plus_ops.is_empty()),
            "the model must expose additive sign-flip targets"
        );
        for s in &sites {
            let eq = s.text.find(" = ").unwrap();
            for &p in &s.plus_ops {
                assert!(p >= eq + 3, "operator in LHS: {}", s.text);
                assert_eq!(&s.text[p..p + 3], " + ");
                // A spaced binary plus can never sit inside `1.0e+6_r8`.
                assert!(!s.text[..p].ends_with('e') && !s.text[..p].ends_with('E'));
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let model = generate(&ModelConfig::test());
        let a = patch_sites(&model);
        let b = patch_sites(&model);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.line, y.line);
        }
    }

    #[test]
    fn patched_line_changes_exactly_one_line_and_reparses() {
        let model = generate(&ModelConfig::test());
        let sites = patch_sites(&model);
        let wsub = sites
            .iter()
            .find(|s| s.module == "microp_aero" && s.target == "wsub")
            .unwrap();
        let new_line = wsub.text.replace("0.20_r8", "2.00_r8");
        let patched = model.with_patched_line(&wsub.file, wsub.line, &new_line);
        let (_, errs) = patched.parse();
        assert!(errs.is_empty(), "{errs:?}");
        let orig = &model
            .files
            .iter()
            .find(|f| f.name == wsub.file)
            .unwrap()
            .source;
        let new = &patched
            .files
            .iter()
            .find(|f| f.name == wsub.file)
            .unwrap()
            .source;
        let diffs = orig
            .lines()
            .zip(new.lines())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        assert_eq!(orig.lines().count(), new.lines().count());
    }

    #[test]
    fn fma_shapes_exist_in_core_modules() {
        let model = generate(&ModelConfig::test());
        let sites = patch_sites(&model);
        let fma_modules: Vec<&str> = sites
            .iter()
            .filter(|s| s.fma_shape)
            .map(|s| s.module.as_str())
            .collect();
        assert!(
            fma_modules.contains(&"micro_mg"),
            "the MG kernel must carry FMA shapes; got {fma_modules:?}"
        );
    }
}
