//! Table 2 — output variables selected per experiment and their internal
//! counterparts.
//!
//! Paper rows: WSUBBUG→wsub; RANDOMBUG→omega; GOFFGRATCH→aqsnow, freqs,
//! cldhgh, precsl, ansnow, cldmed, cloud, cldlow, ccn3, cldtot; DYN3BUG→
//! vv, omega, z3, uu, omegat; RAND-MT→flds, taux, snowhlnd, flns, qrl;
//! AVX2→taux, trefht, snowhlnd, ps, u10, shflx.

use rca_bench::{bench_model, bench_session, header};
use rca_core::Scenario;
use rca_model::Experiment;

fn main() {
    header(
        "Table 2: CAM output variables selected per experiment",
        "selection should overlap the paper's per-experiment output sets",
    );
    let model = bench_model();
    let session = bench_session(&model, true);

    println!(
        "{:<11} {:<7} {:<34} {:<30}",
        "Experiment", "verdict", "selected outputs (ours)", "internal variables"
    );
    println!("{}", "-".repeat(110));
    for experiment in [
        Experiment::WsubBug,
        Experiment::RandomBug,
        Experiment::GoffGratch,
        Experiment::Dyn3Bug,
        Experiment::RandMt,
        Experiment::Avx2,
    ] {
        let scenario = Scenario::paper(&model, session.setup(), experiment);
        let stats = session.statistics_scenario(&scenario).expect("statistics");
        let n = experiment.table2_outputs().len().clamp(1, 10);
        let selected = stats.data.affected_outputs(n);
        let internal = session.pipeline().outputs_to_internal(&selected);
        let paper = experiment.table2_outputs();
        let overlap = selected
            .iter()
            .filter(|s| paper.contains(&s.as_str()))
            .count();
        println!(
            "{:<11} {:<7} {:<34} {:<30}",
            experiment.name(),
            stats.data.verdict.to_string(),
            selected.join(","),
            internal.join(",")
        );
        println!(
            "{:<11} {:<7} paper: {} (overlap {}/{})",
            "",
            "",
            paper.join(","),
            overlap,
            paper.len()
        );
    }
}
