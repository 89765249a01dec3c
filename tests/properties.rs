//! Property-based tests (proptest) on cross-crate invariants.

use climate_rca::prelude::*;
use graph::{
    bfs_multi, communities, eigenvector_centrality, girvan_newman, preferential_attachment,
    quotient_graph, shortest_path_slice, weakly_connected_components, DiGraph, Direction, NodeId,
    PowerIterOptions,
};
use proptest::prelude::*;

/// Arbitrary digraph from an edge list over `n` nodes.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..40,
        proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    )
        .prop_map(|(n, edges)| {
            let mut g = DiGraph::new();
            g.add_nodes(n);
            for (u, v) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                g.add_edge(NodeId(u), NodeId(v));
            }
            g
        })
}

/// `g`'s undirected edges, with each edge `{u, v}` whose bit in `split`
/// is set (cycling through `split`) replaced by a path `u - x - v` through
/// a new node `x`. Self-loops stay as they are.
fn subdivided(g: &DiGraph, split: &[bool]) -> DiGraph {
    let und = g.to_undirected();
    let mut out = DiGraph::new();
    out.add_nodes(g.node_count());
    let edges = und.edges().filter(|(u, v)| u <= v);
    for ((u, v), &bit) in edges.zip(split.iter().cycle()) {
        if bit && u != v {
            let x = out.add_node();
            out.add_edge(u, x);
            out.add_edge(x, v);
        } else {
            out.add_edge(u, v);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backward slice is closed under predecessors: every predecessor
    /// of a slice node is in the slice.
    #[test]
    fn slice_closed_under_predecessors(g in arb_graph(), t in 0u32..40) {
        let t = NodeId(t % g.node_count() as u32);
        let slice = shortest_path_slice(&g, &[t]);
        let inset: std::collections::HashSet<_> = slice.iter().copied().collect();
        for &n in &slice {
            for &p in g.predecessors(n) {
                prop_assert!(inset.contains(&NodeId(p)),
                    "predecessor {p} of sliced node {n} missing");
            }
        }
        prop_assert!(inset.contains(&t));
    }

    /// BFS distances satisfy the triangle property along edges.
    #[test]
    fn bfs_distances_lipschitz(g in arb_graph(), s in 0u32..40) {
        let s = NodeId(s % g.node_count() as u32);
        let r = bfs_multi(&g, &[s], Direction::Out);
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (r.distance(u), r.distance(v)) {
                prop_assert!(dv <= du + 1, "edge {u}->{v}: {du} -> {dv}");
            }
        }
    }

    /// Girvan–Newman only splits: community count never decreases, and
    /// every community is connected in the undirected view.
    #[test]
    fn girvan_newman_refines_components(g in arb_graph()) {
        let before = weakly_connected_components(&g).count;
        let result = girvan_newman(&g, 1);
        prop_assert!(result.partition.count >= before);
        // Labels cover every node.
        prop_assert_eq!(result.partition.labels.len(), g.node_count());
        // Removed edges are distinct canonical pairs of `g`.
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in &result.removed_edges {
            prop_assert!(u < v, "({u},{v}) is not canonical");
            prop_assert!(g.has_edge(NodeId(u), NodeId(v)) || g.has_edge(NodeId(v), NodeId(u)));
            prop_assert!(seen.insert((u, v)), "({u},{v}) removed twice");
        }
        // Each community is one connected piece of `g` minus the removed
        // edges.
        let mut rest = g.to_undirected();
        for &(u, v) in &result.removed_edges {
            rest.remove_edge(NodeId(u), NodeId(v));
            rest.remove_edge(NodeId(v), NodeId(u));
        }
        for group in result.partition.groups() {
            let (sub, _) = rest.induced_subgraph(&group);
            prop_assert_eq!(weakly_connected_components(&sub).count, 1);
        }
    }

    /// Girvan–Newman removes the same edges in the same order, and ends
    /// with the same partition, as the sequential reference.
    #[test]
    fn girvan_newman_matches_the_reference(g in arb_graph(), levels in 1usize..=3) {
        let got = girvan_newman(&g, levels);
        let (want, _) = graph::reference::girvan_newman(&g, levels);
        prop_assert_eq!(got.removed_edges, want.removed_edges);
        prop_assert_eq!(got.partition, want.partition);
    }

    /// The same holds with a random subset of the edges subdivided, which
    /// gives the blocks degree-2 nodes that fold into their neighbours'
    /// Brandes passes, next to ones that do not.
    #[test]
    fn girvan_newman_on_subdivided_graphs_matches_the_reference(
        g in arb_graph(),
        split in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let g = subdivided(&g, &split);
        for levels in 1..=3 {
            let got = girvan_newman(&g, levels);
            let (want, _) = graph::reference::girvan_newman(&g, levels);
            prop_assert_eq!(got.removed_edges, want.removed_edges, "level {}", levels);
            prop_assert_eq!(got.partition, want.partition, "level {}", levels);
        }
    }

    /// Eigenvector centrality is non-negative and normalized.
    #[test]
    fn eigenvector_centrality_normalized(g in arb_graph()) {
        let c = eigenvector_centrality(&g, Direction::In, PowerIterOptions::default());
        prop_assert_eq!(c.len(), g.node_count());
        for &v in &c {
            prop_assert!(v >= -1e-12, "negative centrality {v}");
        }
        let norm: f64 = c.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
    }

    /// Quotient graphs never gain nodes or intra-class edges.
    #[test]
    fn quotient_shrinks(g in arb_graph(), k in 1usize..6) {
        let n = g.node_count();
        let labels: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
        let q = quotient_graph(&g, &labels, k);
        prop_assert_eq!(q.graph.node_count(), k);
        prop_assert!(q.graph.edge_count() <= g.edge_count());
        let members: usize = q.members.iter().map(Vec::len).sum();
        prop_assert_eq!(members, n);
    }

    /// Induced subgraphs preserve exactly the internal edges.
    #[test]
    fn induced_subgraph_edge_exactness(g in arb_graph(), keep_bits in proptest::collection::vec(any::<bool>(), 40)) {
        let keep: Vec<NodeId> = g
            .nodes()
            .filter(|n| keep_bits.get(n.index()).copied().unwrap_or(false))
            .collect();
        let (sub, mapping) = g.induced_subgraph(&keep);
        // Every subgraph edge maps to a parent edge.
        for (u, v) in sub.edges() {
            prop_assert!(g.has_edge(mapping[u.index()], mapping[v.index()]));
        }
        // Every parent edge between kept nodes appears.
        let expected = g
            .edges()
            .filter(|(u, v)| keep.contains(u) && keep.contains(v))
            .count();
        prop_assert_eq!(sub.edge_count(), expected);
    }

    /// Communities partition a preferential-attachment graph without
    /// losing large-community nodes.
    #[test]
    fn communities_cover_filtered_nodes(seed in 0u64..1000) {
        let g = preferential_attachment(60, 2, seed);
        let comms = communities(&g, 1, 3);
        let total: usize = comms.iter().map(Vec::len).sum();
        prop_assert!(total <= g.node_count());
        for c in &comms {
            prop_assert!(c.len() >= 3);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lexer-parser round trip accepts every assignment the statement
    /// generator can produce.
    #[test]
    fn parser_accepts_generated_assignments(
        a in "[a-z][a-z0-9_]{0,8}",
        b in "[a-z][a-z0-9_]{0,8}",
        c in 0.001f64..1000.0,
        op in prop::sample::select(vec!["+", "-", "*", "/"]),
    ) {
        let src = format!(
            "module m\ncontains\nsubroutine s({a}, {b})\n  real :: {a}, {b}\n  {a} = {b} {op} {c:.6}\nend subroutine s\nend module m\n"
        );
        let (file, errs) = fortran::parse_source("p.F90", &src);
        prop_assert!(errs.is_empty(), "{errs:?}");
        prop_assert_eq!(file.modules.len(), 1);
    }

    /// Interpreter determinism: same model + same config => bitwise equal
    /// history, regardless of sampling instrumentation.
    #[test]
    fn interpreter_deterministic_under_instrumentation(seed in 0u32..50) {
        let model = model::generate(&model::ModelConfig::test());
        let mut cfg = sim::RunConfig { steps: 2, ..Default::default() };
        cfg.prng_seed = seed;
        let a = sim::run_model(&model, &cfg, 0.0).unwrap();
        cfg.sample_step = Some(1);
        cfg.samples = vec![sim::SampleSpec {
            module: "micro_mg".into(),
            subprogram: None,
            name: "tlat".into(),
        }];
        let b = sim::run_model(&model, &cfg, 0.0).unwrap();
        for (name, series) in a.history_iter() {
            prop_assert_eq!(
                series.as_slice(),
                b.series(name.as_ref()).unwrap(),
                "{} altered by instrumentation",
                name
            );
        }
    }

    /// Store materialization round-trips: for arbitrary perturbation
    /// seeds, member counts, and step counts, every member of a columnar
    /// `EnsembleRuns` store materializes bit-identically to a standalone
    /// compiled run, and the store's indexed reads (written lengths,
    /// per-step values) agree with the standalone series.
    #[test]
    fn store_materialization_round_trips(
        seed in 0u64..1000,
        members in 1usize..4,
        steps in 2u32..5,
    ) {
        use std::sync::OnceLock;
        static PROGRAM: OnceLock<std::sync::Arc<sim::Program>> = OnceLock::new();
        let program = PROGRAM.get_or_init(|| {
            let model = model::generate(&model::ModelConfig::test());
            sim::compile_model(&model).expect("compile")
        });
        let cfg = sim::RunConfig { steps, ..Default::default() };
        let perts = sim::perturbations(members, 1e-13, seed | 1);
        let store = sim::EnsembleRuns::run(program, &cfg, &perts).expect("store");
        prop_assert_eq!(store.members(), members);
        for (i, &p) in perts.iter().enumerate() {
            let direct = sim::run_program(program, &cfg, p).expect("run");
            let materialized = store.materialize(i);
            prop_assert_eq!(&materialized.output_names, &direct.output_names);
            prop_assert_eq!(materialized.history.len(), direct.history.len());
            for (o, series) in direct.history.iter().enumerate() {
                prop_assert_eq!(store.written_of(i)[o] as usize, series.len());
                let via_store: Vec<u64> = (0..series.len())
                    .map(|s| store.value(i, o, s).expect("written").to_bits())
                    .collect();
                let direct_bits: Vec<u64> = series.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&via_store, &direct_bits);
                let mat_bits: Vec<u64> =
                    materialized.history[o].iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&mat_bits, &direct_bits);
            }
            prop_assert_eq!(&materialized.samples, &direct.samples);
            prop_assert_eq!(&materialized.coverage, &direct.coverage);
        }
    }

    /// The workspace-wide symbol table round-trips every name in every
    /// namespace: intern → resolve → intern is the identity, ids are
    /// dense, and re-interning never mints a fresh id.
    #[test]
    fn symbol_table_interning_round_trips(
        names in proptest::collection::vec("[a-z][a-z0-9_]{0,12}", 1..40),
    ) {
        let mut t = metagraph::SymbolTable::new();
        let vars: Vec<_> = names.iter().map(|n| t.intern_var(n)).collect();
        let mods: Vec<_> = names.iter().map(|n| t.intern_module(n)).collect();
        let outs: Vec<_> = names.iter().map(|n| t.intern_output(n)).collect();
        for (((n, &v), &m), &o) in names.iter().zip(&vars).zip(&mods).zip(&outs) {
            // resolve
            prop_assert_eq!(t.var(v), n.as_str());
            prop_assert_eq!(t.module(m), n.as_str());
            prop_assert_eq!(t.output(o), n.as_str());
            // intern → resolve → intern identity
            prop_assert_eq!(t.intern_var(n), v);
            prop_assert_eq!(t.intern_module(n), m);
            prop_assert_eq!(t.intern_output(n), o);
            // lookup agrees with intern
            prop_assert_eq!(t.var_id(n), Some(v));
            prop_assert_eq!(t.module_id(n), Some(m));
            prop_assert_eq!(t.output_id(n), Some(o));
        }
        // Ids are dense: the id space is exactly the distinct-name count.
        let distinct = names
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        prop_assert_eq!(t.var_count(), distinct);
        prop_assert_eq!(t.module_count(), distinct);
        prop_assert_eq!(t.output_count(), distinct);
        prop_assert!(vars.iter().all(|v| v.index() < distinct));
    }
}
