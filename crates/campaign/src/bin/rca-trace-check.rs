//! `rca-trace-check` — validate a JSONL trace produced by `--trace-out`.
//!
//! ```text
//! rca-trace-check PATH [--require-phases name,name,...]
//! ```
//!
//! Checks every line against the trace schema (see `rca_obs::sink`):
//!
//! - each line is a JSON object with a `type` of `span_start`,
//!   `span_end`, or `event`, a string `name`, and a numeric `ts`;
//! - `span_start` carries a `u64` `id`, a `parent` (null or span id),
//!   and a `fields` object;
//! - `span_end` carries the matching `id` plus a u64 `dur`;
//! - `event` carries `parent` and `fields`;
//! - every opened span is closed exactly once, under the same name,
//!   and parents refer to spans opened earlier in the stream;
//! - a span's direct children together last no longer than the span
//!   itself, so the self time a profile folds from the trace (duration
//!   minus direct children) is never negative.
//!
//! `--require-phases` additionally asserts that each named span or
//! event occurs at least once — the CI trace-smoke gate uses this to
//! prove the trace covers every pipeline phase. Exit code 0 on a valid
//! trace, 1 otherwise.

use std::collections::HashMap;
use std::process::ExitCode;

/// A span opened and not yet closed.
struct OpenSpan {
    name: String,
    parent: Option<u64>,
    /// Summed `dur` of the direct children closed so far.
    children: u64,
}

fn usage() -> ! {
    eprintln!("usage: rca-trace-check PATH [--require-phases name,name,...]");
    std::process::exit(2);
}

/// Validates one parsed line; returns the opened/closed span id action.
fn check_record(
    v: &serde_json::Value,
    lineno: usize,
    open: &mut HashMap<u64, OpenSpan>,
    names: &mut HashMap<String, usize>,
    errors: &mut Vec<String>,
) {
    let mut fail = |msg: String| errors.push(format!("line {lineno}: {msg}"));
    if v.as_object().is_none() {
        fail("not a JSON object".to_string());
        return;
    }
    let Some(ty) = v["type"].as_str() else {
        fail("missing string `type`".to_string());
        return;
    };
    let Some(name) = v["name"].as_str() else {
        fail("missing string `name`".to_string());
        return;
    };
    *names.entry(name.to_string()).or_insert(0) += 1;
    if v["ts"].as_f64().is_none() {
        fail("missing numeric `ts`".to_string());
    }
    let parent_ok = |v: &serde_json::Value, open: &HashMap<u64, OpenSpan>| match v {
        serde_json::Value::Null => true,
        other => other.as_u64().is_some_and(|id| open.contains_key(&id)),
    };
    match ty {
        "span_start" => {
            if v["fields"].as_object().is_none() {
                fail("span_start missing `fields` object".to_string());
            }
            if !parent_ok(&v["parent"], open) {
                fail("span_start `parent` is not null or an open span id".to_string());
            }
            match v["id"].as_u64() {
                None => fail("span_start missing u64 `id`".to_string()),
                Some(id) => {
                    let span = OpenSpan {
                        name: name.to_string(),
                        parent: v["parent"].as_u64(),
                        children: 0,
                    };
                    if open.insert(id, span).is_some() {
                        fail(format!("span id {id} opened twice"));
                    }
                }
            }
        }
        "span_end" => {
            let dur = v["dur"].as_u64();
            if dur.is_none() {
                fail("span_end missing u64 `dur`".to_string());
            }
            match v["id"].as_u64() {
                None => fail("span_end missing u64 `id`".to_string()),
                Some(id) => match open.remove(&id) {
                    None => fail(format!("span id {id} closed without a matching start")),
                    Some(opened) if opened.name != name => {
                        fail(format!(
                            "span id {id} opened as `{}`, closed as `{name}`",
                            opened.name
                        ));
                    }
                    Some(opened) => {
                        let dur = dur.unwrap_or(0);
                        if opened.children > dur {
                            fail(format!(
                                "span id {id} (`{name}`) lasts {dur} ns, but its direct \
                                 children last {} ns",
                                opened.children
                            ));
                        }
                        if let Some(parent) = opened.parent.and_then(|p| open.get_mut(&p)) {
                            parent.children += dur;
                        }
                    }
                },
            }
        }
        "event" => {
            if v["fields"].as_object().is_none() {
                fail("event missing `fields` object".to_string());
            }
            if !parent_ok(&v["parent"], open) {
                fail("event `parent` is not null or an open span id".to_string());
            }
        }
        other => fail(format!("unknown record type `{other}`")),
    }
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-phases" => {
                let list = it.next().unwrap_or_else(|| usage());
                required.extend(list.split(',').map(|s| s.trim().to_string()));
            }
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut errors: Vec<String> = Vec::new();
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records += 1;
        match serde_json::from_str(line) {
            Err(e) => errors.push(format!("line {}: invalid JSON: {e}", i + 1)),
            Ok(v) => check_record(&v, i + 1, &mut open, &mut names, &mut errors),
        }
    }
    for (id, span) in &open {
        errors.push(format!("span id {id} (`{}`) never closed", span.name));
    }
    for want in &required {
        if !names.contains_key(want) {
            errors.push(format!("required phase `{want}` absent from trace"));
        }
    }
    if errors.is_empty() {
        println!(
            "{path}: {records} records, {} distinct names, schema OK",
            names.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("rca-trace-check: {e}");
        }
        eprintln!("rca-trace-check: {path}: {} error(s)", errors.len());
        ExitCode::FAILURE
    }
}
