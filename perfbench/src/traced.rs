//! The traced run: per-layer metrics from benchmark-owned spans.
//!
//! Everything runs on one thread (`RAYON_NUM_THREADS=1`) with an
//! `rca_obs::Collector` installed process-wide, so tracing-gated counters
//! such as `vm.instructions` count every ensemble member. The run has
//! three parts:
//!
//! 1. An untraced reference pass over the evidence prefix: this program's
//!    own `--trace 0 --seconds 0`, on one thread, in a child process.
//! 2. A traced pass over the same requests on a fresh session, driving
//!    each one through the stage sequence `diagnose_scenario` runs
//!    (program → statistics → slice → refine), with a span named
//!    `bench.<layer>` around each call into a layer's public function.
//!    Its evidence must equal the reference pass's byte for byte.
//! 3. Graph-layer replay probes on each refined request's starting
//!    graph, outside the request timings.
//!
//! A layer's self time is its spans' duration minus the time covered by
//! its child `bench.*` spans (library spans in between are looked
//! through). `trace.unattributed_s` is the traced wall time that no
//! top-level `bench.*` span covers.

use crate::workload::{digest, ratio, Depth, Outcome, Spec};
use crate::Report;
use rca_campaign::CampaignScenario;
use rca_core::{reinduce, Oracle, PipelineOptions, RcaError, RcaPipeline, RcaSession, Slice};
use rca_graph::{
    edge_betweenness, eigenvector_centrality, girvan_newman, Direction, NodeId, PowerIterOptions,
};
use rca_metagraph::MetaGraph;
use rca_obs::{span, Collector, TraceRecord};
use rca_sim::RuntimeError;
use rca_stats::Verdict;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Work counts the benchmark observes at its own call sites.
#[derive(Debug, Default)]
struct Counts {
    program_calls: usize,
    program_misses: usize,
    metagraph_nodes: usize,
    metagraph_edges: usize,
    slice_nodes: usize,
    slice_edges: usize,
    iterations: usize,
    queries: u64,
    candidates: u64,
    splits: usize,
    removed_edges: usize,
}

/// Forwards to the session's oracle, timing each query in a span.
struct TimedOracle<'a> {
    inner: &'a mut dyn Oracle,
    queries: u64,
    candidates: u64,
}

impl Oracle for TimedOracle<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        let _span = span("bench.oracle");
        self.queries += 1;
        self.candidates += nodes.len() as u64;
        self.inner.differs(mg, nodes)
    }

    fn take_errors(&mut self) -> Vec<RuntimeError> {
        self.inner.take_errors()
    }
}

pub fn run(spec: &Spec, seed: u64, smoke: bool) -> Result<Report, RcaError> {
    let mut report = Report::default();

    // 1. Untraced reference: this program's own `--trace 0` over the
    // evidence prefix, on one thread, in a fresh process (so that neither
    // pass inherits the other's heap).
    let reference = reference(spec, seed, smoke);
    if let Err(e) = &reference {
        report.failed += 1;
        report.notes.push(format!("error: untraced reference: {e}"));
    }

    // Read by the rayon stand-in at every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let model = rca_model::generate(&spec.model);
    let shared = Arc::new(model.clone());

    // 2. Traced set-up and requests.
    rca_obs::reset_metrics();
    let collector = Arc::new(Collector::new());
    rca_obs::install_global(collector.clone());
    let wall = Instant::now();
    let mut counts = Counts::default();
    let (session, plan) = traced_set_up(spec, &model, &shared, seed, &mut counts)?;
    let t = Instant::now();
    let mut starts = Vec::new();
    let mut traced = Vec::with_capacity(spec.evidence);
    for cs in &plan[..spec.evidence] {
        let outcome = traced_request(&session, cs, spec.depth, &mut counts, &mut starts);
        traced.push(evidence_of(outcome, &mut report));
    }
    let traced_s = t.elapsed().as_secs_f64();
    let compiled = session.compiled_programs();

    // 3. Replay probes.
    for (name, start) in &starts {
        probe(name, start, &mut counts, &mut report);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let snapshot = rca_obs::metrics_snapshot();
    rca_obs::clear_global();
    let layers = Layers::from_records(&collector.records());
    drop(collector);

    let traced_digest = format!("{:016x}", digest(traced.iter().map(String::as_str)));
    let (untraced_digest, untraced_s) = reference.unwrap_or_default();
    report.attempted = 2 * spec.evidence;
    report.correct = report.failed == 0 && untraced_digest == traced_digest;
    report.notes.push(format!(
        "digest {} seed={seed} requests={} fnv1a={untraced_digest} traced={traced_digest}",
        spec.name, spec.evidence
    ));

    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let span_s = |name: &str| layers.inclusive(name);
    let c = &counts;
    let hits = (c.program_calls - c.program_misses) as f64;
    let metrics = [
        ("session.build_s", span_s("bench.session"), "s"),
        ("compile.busy_s", span_s("bench.compile"), "s"),
        ("compile.programs", compiled as f64, "count"),
        (
            "compile.hit_ratio",
            ratio(hits, c.program_calls as f64),
            "fraction",
        ),
        ("pipeline.busy_s", span_s("bench.pipeline"), "s"),
        (
            "pipeline.metagraph_nodes",
            c.metagraph_nodes as f64,
            "count",
        ),
        (
            "pipeline.metagraph_edges",
            c.metagraph_edges as f64,
            "count",
        ),
        ("ensemble.control_s", span_s("bench.ensemble"), "s"),
        ("ensemble.members", counter("ensemble.members"), "count"),
        ("executor.runs", counter("executor.runs"), "count"),
        ("vm.instructions", counter("vm.instructions"), "count"),
        ("statistics.busy_s", span_s("bench.statistics"), "s"),
        ("slice.busy_s", span_s("bench.slice"), "s"),
        ("slice.nodes", c.slice_nodes as f64, "count"),
        ("slice.edges", c.slice_edges as f64, "count"),
        ("refine.busy_s", span_s("bench.refine"), "s"),
        ("refine.iterations", c.iterations as f64, "count"),
        ("refine.graph_s", layers.own("bench.refine"), "s"),
        ("oracle.busy_s", span_s("bench.oracle"), "s"),
        ("oracle.queries", c.queries as f64, "count"),
        ("oracle.candidates", c.candidates as f64, "count"),
        (
            "oracle.memo_ratio",
            ratio(counter("oracle.memo_answers"), c.candidates as f64),
            "fraction",
        ),
        (
            "oracle.specialized_ratio",
            ratio(counter("oracle.specialized_queries"), c.queries as f64),
            "fraction",
        ),
        ("community.split_s", span_s("bench.community"), "s"),
        ("community.splits", c.splits as f64, "count"),
        ("community.removed_edges", c.removed_edges as f64, "count"),
        ("betweenness.pass_s", span_s("bench.betweenness"), "s"),
        ("centrality.busy_s", span_s("bench.centrality"), "s"),
        ("plan.busy_s", span_s("bench.plan"), "s"),
        ("trace.wall_s", wall_s, "s"),
        ("trace.unattributed_s", wall_s - layers.top_level, "s"),
        (
            "trace.overhead_frac",
            traced_s / untraced_s - 1.0,
            "fraction",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    Ok(report)
}

/// Runs `--trace 0 --seconds 0` of this workload in a child process on
/// one thread and returns its evidence digest and the summed wall time
/// of its evidence requests.
fn reference(spec: &Spec, seed: u64, smoke: bool) -> Result<(String, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = seed.to_string();
    let mut args = vec![
        "--workload",
        spec.name,
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    if smoke {
        args.push("--smoke");
    }
    let out = std::process::Command::new(exe)
        .args(args)
        .env("RAYON_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("exit {}: {stdout}", out.status));
    }
    let field = |key: &str| {
        stdout
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .map(str::to_string)
            .ok_or(format!("no {key} in: {stdout}"))
    };
    let digest = field("fnv1a=")?;
    let seconds = field("seconds=")?
        .parse::<f64>()
        .map_err(|e| e.to_string())?;
    Ok((digest, seconds))
}

/// The request's evidence, or its error (counted as failed).
fn evidence_of(outcome: Result<Outcome, RcaError>, report: &mut Report) -> String {
    match outcome {
        Ok(o) => o.evidence,
        Err(e) => {
            report.failed += 1;
            report.notes.push(format!("error: {e}"));
            format!("error: {e}")
        }
    }
}

/// `Spec::set_up` with a span around each layer call. The session builder
/// compiles the base program and builds the pipeline internally, where
/// the benchmark cannot split them, so both are first replayed through
/// their own public calls (`compile`, `pipeline`) and the builder's own
/// time is reported as `session.build_s`.
fn traced_set_up<'m>(
    spec: &Spec,
    model: &'m rca_model::ModelSource,
    shared: &Arc<rca_model::ModelSource>,
    seed: u64,
    counts: &mut Counts,
) -> Result<(RcaSession<'m>, Vec<CampaignScenario>), RcaError> {
    let program = {
        let _span = span("bench.compile");
        rca_sim::compile_model(model)?
    };
    let pipeline = {
        let _span = span("bench.pipeline");
        RcaPipeline::build_with_program(model, &program, &PipelineOptions::default())?
    };
    counts.metagraph_nodes = pipeline.metagraph.node_count();
    counts.metagraph_edges = pipeline.metagraph.edge_count();
    drop((program, pipeline));
    let session = {
        let _span = span("bench.session");
        spec.builder(model).build()?
    };
    {
        let _span = span("bench.ensemble");
        session.ensemble()?;
    }
    let plan = {
        let _span = span("bench.plan");
        spec.plan(shared, &session, seed)
    };
    if spec.repeats {
        let _span = span("bench.compile");
        for cs in &plan {
            session.program_for(&cs.scenario.model)?;
        }
    }
    Ok((session, plan))
}

/// One request through the stages `diagnose_scenario` runs, a span around
/// each. The starting graph of each refined request is kept for the
/// probes.
fn traced_request(
    session: &RcaSession<'_>,
    cs: &CampaignScenario,
    depth: Depth,
    counts: &mut Counts,
    starts: &mut Vec<(String, Slice)>,
) -> Result<Outcome, RcaError> {
    {
        let _span = span("bench.compile");
        let before = session.compiled_programs();
        session.program_for(&cs.scenario.model)?;
        counts.program_calls += 1;
        counts.program_misses += session.compiled_programs() - before;
    }
    let stats = {
        let _span = span("bench.statistics");
        session.statistics_scenario(&cs.scenario)?
    };
    if depth == Depth::Verdict || stats.verdict() == Verdict::Pass {
        return Ok(Outcome::from_statistics(&stats));
    }
    let sliced = {
        let _span = span("bench.slice");
        stats.slice()?
    };
    counts.slice_nodes += sliced.slice.graph.node_count();
    counts.slice_edges += sliced.slice.graph.edge_count();
    let start = {
        let _span = span("bench.probe_input");
        reinduce(session.metagraph(), &sliced.slice, &sliced.slice.mapping)
    };
    starts.push((cs.scenario.name.clone(), start));
    let mut inner = session.scenario_oracle(&cs.scenario);
    let mut oracle = TimedOracle {
        inner: inner.as_mut(),
        queries: 0,
        candidates: 0,
    };
    let refined = {
        let _span = span("bench.refine");
        sliced.refine_with(&mut oracle)
    };
    counts.queries += oracle.queries;
    counts.candidates += oracle.candidates;
    counts.iterations += refined.report.iterations.len();
    Ok(Outcome::from_diagnosis(&refined.into_diagnosis()))
}

/// Replays the graph layers on one refined request's starting graph: one
/// Girvan–Newman split, one full edge-betweenness pass on the undirected
/// view (the pass each split starts with), and eigenvector in-centrality
/// on every community the split leaves (as refinement ranks them).
fn probe(name: &str, start: &Slice, counts: &mut Counts, report: &mut Report) {
    let g = &start.graph;
    let t = Instant::now();
    let split = {
        let _span = span("bench.community");
        girvan_newman(g, 1)
    };
    let split_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    {
        let _span = span("bench.betweenness");
        black_box(edge_betweenness(&g.to_undirected()));
    }
    let pass_ms = t.elapsed().as_secs_f64() * 1e3;
    {
        let _span = span("bench.centrality");
        let min = rca_core::RefineOptions::default().min_community;
        for group in split.partition.groups() {
            if group.len() >= min {
                let (cg, _) = g.induced_subgraph(&group);
                black_box(eigenvector_centrality(
                    &cg,
                    Direction::In,
                    PowerIterOptions::default(),
                ));
            }
        }
    }
    counts.splits += 1;
    counts.removed_edges += split.removed_edges.len();
    report.notes.push(format!(
        "probe {name} nodes={} edges={} removed_edges={} split_ms={split_ms:.3} betweenness_pass_ms={pass_ms:.3}",
        g.node_count(),
        g.edge_count(),
        split.removed_edges.len()
    ));
}

/// Inclusive and own (self) seconds per `bench.*` span name.
#[derive(Debug, Default)]
struct Layers {
    inclusive: BTreeMap<&'static str, f64>,
    own: BTreeMap<&'static str, f64>,
    /// Seconds covered by `bench.*` spans with no `bench.*` ancestor.
    top_level: f64,
}

impl Layers {
    fn from_records(records: &[TraceRecord]) -> Layers {
        // id -> (name, parent, seconds)
        let mut spans: HashMap<u64, (&'static str, Option<u64>, f64)> = HashMap::new();
        for r in records {
            match r {
                TraceRecord::SpanStart {
                    id, parent, name, ..
                } => {
                    spans.insert(*id, (name, *parent, 0.0));
                }
                TraceRecord::SpanEnd { id, dur, .. } => {
                    if let Some(s) = spans.get_mut(id) {
                        s.2 = *dur as f64 * 1e-9;
                    }
                }
                TraceRecord::Event { .. } => {}
            }
        }
        let is_bench = |name: &str| name.starts_with("bench.");
        let mut layers = Layers::default();
        let mut children: HashMap<u64, f64> = HashMap::new();
        for &(name, parent, secs) in spans.values() {
            if !is_bench(name) {
                continue;
            }
            *layers.inclusive.entry(name).or_default() += secs;
            // Nearest `bench.*` ancestor, looking through library spans.
            let mut up = parent;
            while let Some(p) = up {
                match spans.get(&p) {
                    Some(&(pname, _, _)) if is_bench(pname) => break,
                    Some(&(_, grand, _)) => up = grand,
                    None => up = None,
                }
            }
            match up {
                Some(ancestor) => *children.entry(ancestor).or_default() += secs,
                None => layers.top_level += secs,
            }
        }
        for (&id, &(name, _, secs)) in &spans {
            if is_bench(name) {
                *layers.own.entry(name).or_default() +=
                    secs - children.get(&id).copied().unwrap_or(0.0);
            }
        }
        layers
    }

    fn inclusive(&self, name: &str) -> f64 {
        self.inclusive.get(name).copied().unwrap_or(0.0)
    }

    fn own(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0.0)
    }
}
