//! `rca-trace-check` as a process: it accepts what a `Collector` renders
//! and rejects the traces a span-time fold cannot account for.

use rca_obs::{event, span, with_sink, Collector};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Writes `jsonl` to a per-test temp file and runs the checker on it.
fn check(tag: &str, jsonl: &str, extra: &[&str]) -> i32 {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "rca-trace-check-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, jsonl).expect("write trace");
    let status = Command::new(env!("CARGO_BIN_EXE_rca-trace-check"))
        .arg(&path)
        .args(extra)
        .output()
        .expect("run rca-trace-check")
        .status;
    let _ = std::fs::remove_file(&path);
    status.code().expect("exit code")
}

/// A small nested trace rendered exactly as `--trace-out` writes it.
fn collector_trace() -> String {
    let collector = Arc::new(Collector::new());
    with_sink(collector.clone(), || {
        let _outer = span("phase.refine");
        {
            let _inner = span("refine.oracle");
            event("refine.iter", &[("iter", 0u64.into())]);
        }
        let _sibling = span("refine.reinduce");
    });
    let mut out = Vec::new();
    collector.write_jsonl(&mut out).expect("render trace");
    String::from_utf8(out).expect("utf8 trace")
}

#[test]
fn accepts_a_collector_rendered_trace() {
    let trace = collector_trace();
    assert_eq!(trace.lines().count(), 7);
    let phases = ["--require-phases", "phase.refine,refine.oracle,refine.iter"];
    assert_eq!(check("valid", &trace, &phases), 0);
}

#[test]
fn rejects_an_unclosed_span() {
    let trace = concat!(
        r#"{"type":"span_start","id":1,"parent":null,"name":"diagnose","fields":{},"ts":0}"#,
        "\n",
    );
    assert_eq!(check("unclosed", trace, &[]), 1);
}

#[test]
fn rejects_children_that_outlast_their_parent() {
    // Each child fits inside the parent; together they do not.
    let trace = [
        r#"{"type":"span_start","id":1,"parent":null,"name":"phase.refine","fields":{},"ts":0}"#,
        r#"{"type":"span_start","id":2,"parent":1,"name":"refine.oracle","fields":{},"ts":1}"#,
        r#"{"type":"span_end","id":2,"name":"refine.oracle","ts":61,"dur":60}"#,
        r#"{"type":"span_start","id":3,"parent":1,"name":"refine.reinduce","fields":{},"ts":62}"#,
        r#"{"type":"span_end","id":3,"name":"refine.reinduce","ts":122,"dur":60}"#,
        r#"{"type":"span_end","id":1,"name":"phase.refine","ts":123,"dur":100}"#,
    ]
    .join("\n");
    assert_eq!(check("outlast", &trace, &[]), 1);
    // The same tree with a parent long enough passes.
    let fixed = trace.replace(r#""ts":123,"dur":100"#, r#""ts":123,"dur":123"#);
    assert_eq!(check("fits", &fixed, &[]), 0);
}

#[test]
fn rejects_a_missing_required_phase() {
    let trace = collector_trace();
    let phases = ["--require-phases", "phase.refine,refine.communities"];
    assert_eq!(check("missing", &trace, &phases), 1);
}
