//! Resumable campaigns: the append-only JSONL checkpoint.
//!
//! A campaign is a pure function of `(model, options, seed)` and the
//! session settings, so any prefix of its per-scenario results is
//! reusable as long as all of those are provably the same. This module
//! makes that concrete:
//!
//! - [`run_digest`] fingerprints the generation parameters, the planned
//!   scenario names, the model source and every session setting that can
//!   change a result (FNV-1a), so a checkpoint written under one plan or
//!   setting can never silently feed another;
//! - [`Checkpoint`] appends one self-describing JSONL line per finished
//!   scenario — `{"v":1,"seed":…,"digest":…,"index":…,"result":{…}}` —
//!   flushed per record so a killed process loses at most the line it
//!   was writing;
//! - [`load_checkpoint`] replays a checkpoint file, keeping only lines
//!   whose `(seed, digest)` key matches the current run and silently
//!   dropping a torn final line (the crash case it exists for).
//!
//! The `result` payload is the scorecard's own deterministic JSON export
//! ([`ScenarioResult`]'s `Serialize`), parsed back field-for-field; the
//! non-deterministic field excluded from that export (wall time) is
//! restored as zero, which is exactly what the
//! scorecard JSON artifact ignores — a resumed campaign's merged
//! scorecard is byte-identical to an uninterrupted run's.

use crate::mutate::{CampaignOptions, CampaignScenario};
use crate::runner::RunnerOptions;
use crate::scorecard::{AbsorbedError, ScenarioResult};
use rca_core::StopReason;
use rca_model::{Fnv, ModelSource};
use rca_stats::Verdict;
use serde::{Json, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Checkpoint schema version; lines with any other `v` are ignored.
const VERSION: u64 = 1;

/// Fingerprints a campaign run: every generation knob, the planned
/// scenario identities, the model source ([`ModelSource::content_hash`])
/// and the runner settings that can change a result (`setup`, `oracle`,
/// `wall_budget`). Two runs share a digest iff their results are
/// interchangeable, which is the precondition for reusing each other's
/// checkpointed results; `checkpoint` and `stop_after` stay out because
/// they never change a result. The settings enter through their `Debug`
/// rendering, which prints every field, so a field added to
/// `ExperimentSetup` joins the key by itself.
pub fn run_digest(
    model: &ModelSource,
    runner: &RunnerOptions,
    opts: &CampaignOptions,
    plan: &[CampaignScenario],
) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(opts.scenarios as u64);
    h.write_u64(opts.seed);
    h.write_u64(opts.clean_every as u64);
    h.write_u64(u64::from(opts.include_paper));
    h.write_u64(u64::from(opts.sign_flip));
    h.write_u64(opts.runtime_faults);
    for cs in plan {
        h.write(cs.scenario.name.as_bytes());
        h.write(cs.class.slug().as_bytes());
        h.write(cs.detail.as_bytes());
        h.write_u64(cs.scenario.config.faults.digest());
    }
    h.write_u64(model.content_hash());
    let settings = format!(
        "{:?}|{:?}|{:?}",
        runner.setup, runner.oracle, runner.wall_budget
    );
    h.write(settings.as_bytes());
    h.finish()
}

/// An open checkpoint appender. One line per finished scenario; writes
/// are serialized through a mutex and flushed per record, so parallel
/// scenario workers can stream results safely and a kill loses at most
/// one torn line.
#[derive(Debug)]
pub struct Checkpoint {
    file: Mutex<File>,
    seed: u64,
    digest: u64,
}

impl Checkpoint {
    /// Opens (creating if needed) the checkpoint at `path` for
    /// appending, keying every subsequent record with `(seed, digest)`.
    pub fn open(path: &Path, seed: u64, digest: u64) -> std::io::Result<Checkpoint> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Checkpoint {
            file: Mutex::new(file),
            seed,
            digest,
        })
    }

    /// Appends one finished scenario. The whole line is formatted first
    /// and written with a single call, so concurrent records never
    /// interleave bytes.
    pub fn record(&self, index: usize, result: &ScenarioResult) -> std::io::Result<()> {
        let line = Json::obj([
            ("v", VERSION.to_json()),
            // Hex strings, not JSON numbers: the full u64 range survives
            // (the parser stores numbers as f64, exact only to 2^53).
            ("seed", format!("{:016x}", self.seed).to_json()),
            ("digest", format!("{:016x}", self.digest).to_json()),
            ("index", index.to_json()),
            ("result", result.to_json()),
        ]);
        let mut text = serde_json::to_string(&line).expect("serialization is infallible");
        text.push('\n');
        let mut file = self.file.lock().expect("checkpoint mutex poisoned");
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Loads the completed results recorded at `path` for the plan keyed by
/// `(seed, digest)`. Missing file means a fresh campaign (empty map);
/// lines from other plans, older schema versions, or a torn final write
/// are skipped, never an error — a checkpoint is a cache, and anything
/// unusable in it simply re-runs.
pub fn load_checkpoint(
    path: &Path,
    seed: u64,
    digest: u64,
) -> std::io::Result<HashMap<usize, ScenarioResult>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let seed_key = format!("{seed:016x}");
    let digest_key = format!("{digest:016x}");
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            continue; // torn final line from a killed run
        };
        if v["v"].as_u64() != Some(VERSION)
            || v["seed"].as_str() != Some(seed_key.as_str())
            || v["digest"].as_str() != Some(digest_key.as_str())
        {
            continue;
        }
        let (Some(index), Some(result)) = (v["index"].as_u64(), parse_result(&v["result"])) else {
            continue;
        };
        // Last write wins: a record appended after a retry supersedes
        // the earlier one for the same index.
        out.insert(index as usize, result);
    }
    Ok(out)
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().map(|n| n as usize)
}

/// Parses one scorecard result payload back into a [`ScenarioResult`].
/// Inverse of the scorecard's `Serialize` impl — the round-trip test
/// pins the two together. `None` on any shape mismatch (the caller
/// skips the record).
fn parse_result(v: &Value) -> Option<ScenarioResult> {
    let verdict = match &v["verdict"] {
        Value::Null => None,
        Value::String(s) if s == "pass" => Some(Verdict::Pass),
        Value::String(s) if s == "fail" => Some(Verdict::Fail),
        _ => return None,
    };
    let stop = match &v["stop"] {
        Value::Null => None,
        Value::String(s) => Some(stop_from_slug(s)?),
        _ => return None,
    };
    let injected_module = match &v["injected_module"] {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        _ => return None,
    };
    let error = match &v["error"] {
        Value::Null => None,
        e @ Value::Object(_) => Some(AbsorbedError {
            kind: e["kind"].as_str()?.to_string(),
            retryable: as_bool(&e["retryable"])?,
            message: e["message"].as_str()?.to_string(),
        }),
        _ => return None,
    };
    Some(ScenarioResult {
        name: v["name"].as_str()?.to_string(),
        kind: v["kind"].as_str()?.to_string(),
        injected_module,
        detail: v["detail"].as_str()?.to_string(),
        expect_fail: as_bool(&v["expect_fail"])?,
        verdict,
        located: as_bool(&v["located"])?,
        module_in_final: as_bool(&v["module_in_final"])?,
        slice_nodes: as_usize(&v["slice_nodes"])?,
        final_suspects: as_usize(&v["final_suspects"])?,
        iterations: as_usize(&v["iterations"])?,
        stop,
        // Conditional key: absent means healthy.
        degraded: as_bool(&v["degraded"]).unwrap_or(false),
        error,
        // Timing is telemetry, deliberately excluded from the
        // deterministic export — restored as zero.
        wall_ms: 0.0,
    })
}

/// Inverse of `StopReason`'s JSON slug serialization.
fn stop_from_slug(s: &str) -> Option<StopReason> {
    Some(match s {
        "bug_instrumented" => StopReason::BugInstrumented,
        "small_enough" => StopReason::SmallEnough,
        "stalled" => StopReason::Stalled,
        "disconnected" => StopReason::Disconnected,
        "max_iterations" => StopReason::MaxIterations,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            kind: "const".to_string(),
            injected_module: Some("micro_mg".to_string()),
            detail: "x -> 10x".to_string(),
            expect_fail: true,
            verdict: Some(Verdict::Fail),
            located: true,
            module_in_final: true,
            slice_nodes: 120,
            final_suspects: 14,
            iterations: 4,
            stop: Some(StopReason::BugInstrumented),
            degraded: true,
            error: None,
            wall_ms: 9.5,
        }
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rca-ckpt-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trips_every_deterministic_field() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path, 0xCAFE, 0xD1CE).expect("open");
        let mut errored = sample("001-err");
        errored.verdict = None;
        errored.stop = None;
        errored.degraded = false;
        errored.error = Some(AbsorbedError {
            kind: "runtime".to_string(),
            retryable: true,
            message: "injected member-abort fault at step 2".to_string(),
        });
        ckpt.record(0, &sample("000-const")).expect("record");
        ckpt.record(1, &errored).expect("record");
        let loaded = load_checkpoint(&path, 0xCAFE, 0xD1CE).expect("load");
        assert_eq!(loaded.len(), 2);
        let r = &loaded[&0];
        let s = sample("000-const");
        assert_eq!(r.name, s.name);
        assert_eq!(r.verdict, s.verdict);
        assert_eq!(r.stop, s.stop);
        assert_eq!(r.injected_module, s.injected_module);
        assert!(r.degraded);
        // Telemetry fields are not round-tripped — they are excluded
        // from the deterministic export by design.
        assert_eq!(r.wall_ms, 0.0);
        let e = &loaded[&1];
        assert_eq!(e.error, errored.error);
        assert_eq!(e.verdict, None);
        // Serialization round-trip is exact on the deterministic JSON.
        assert_eq!(
            serde_json::to_string(r),
            serde_json::to_string(&sample("000-const"))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_keys_and_torn_lines_are_skipped() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path, 1, 2).expect("open");
        ckpt.record(5, &sample("005-const")).expect("record");
        // A torn final line (killed mid-write) and junk must not poison
        // the load.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"v\":1,\"seed\":\"00000000000").unwrap();
        }
        let loaded = load_checkpoint(&path, 1, 2).expect("load");
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains_key(&5));
        // Same file, different plan key: nothing usable.
        assert!(load_checkpoint(&path, 1, 3).expect("load").is_empty());
        assert!(load_checkpoint(&path, 9, 2).expect("load").is_empty());
        // Missing file: fresh campaign.
        let _ = std::fs::remove_file(&path);
        assert!(load_checkpoint(&path, 1, 2).expect("load").is_empty());
    }
}
