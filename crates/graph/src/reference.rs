//! Sequential reference Girvan–Newman: the original hash-map Brandes and
//! whole-component recomputation, kept only so tests and benchmarks can
//! hold [`crate::girvan_newman`] to it. Not part of the public API.
//!
//! Every score is summed over sources in ascending node order, so these
//! are the bits the parallel hash-map implementation produced on one
//! thread.

use crate::community::{GnResult, GnWork};
use crate::components::weakly_connected_components;
use crate::digraph::{DiGraph, NodeId};
use std::collections::{HashMap, VecDeque};

/// Edge betweenness from the sources `members`, taken in the given order,
/// keyed by directed `(from, to)` pairs.
pub fn edge_betweenness_from(graph: &DiGraph, members: &[u32]) -> HashMap<(u32, u32), f64> {
    let n = graph.node_count();
    let mut dist = vec![-1i32; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut out: HashMap<(u32, u32), f64> = HashMap::new();
    for &s in members {
        dist.fill(-1);
        sigma.fill(0.0);
        delta.fill(0.0);
        for p in &mut preds {
            p.clear();
        }
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let du = dist[u as usize];
            for &v in graph.successors(NodeId(u)) {
                if v == u {
                    continue;
                }
                if dist[v as usize] < 0 {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                    preds[v as usize].push(u);
                }
            }
        }
        for &w in order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
            for &v in &preds[w as usize] {
                let c = sigma[v as usize] * coeff;
                delta[v as usize] += c;
                *out.entry((v, w)).or_insert(0.0) += c;
            }
        }
    }
    out
}

/// Girvan–Newman as originally implemented: after every removal, rerun
/// Brandes over each component that lost the edge and recompute the
/// weakly connected components of the whole graph. `GnWork::sources`
/// counts the Brandes sources; `exact_steps` stays 0.
pub fn girvan_newman(graph: &DiGraph, levels: usize) -> (GnResult, GnWork) {
    let mut work = graph.to_undirected();
    let mut stats = GnWork::default();
    let mut removed = Vec::new();
    let mut partition = weakly_connected_components(&work);
    let all: Vec<u32> = (0..work.node_count() as u32).collect();
    stats.sources += all.len() as u64;
    let mut cache = edge_betweenness_from(&work, &all);

    for _ in 0..levels {
        let target = partition.count + 1;
        loop {
            if work.edge_count() == 0 {
                let result = GnResult {
                    partition,
                    removed_edges: removed,
                };
                return (result, stats);
            }
            // Highest score, ties by the smallest directed key.
            let (&(u, v), _) = cache
                .iter()
                .filter(|(_, &s)| s.is_finite())
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then_with(|| b.0.cmp(a.0)))
                .expect("non-empty edge set");
            work.remove_edge(NodeId(u), NodeId(v));
            work.remove_edge(NodeId(v), NodeId(u));
            removed.push((u.min(v), u.max(v)));

            let next = weakly_connected_components(&work);
            let lu = next.label(NodeId(u));
            let lv = next.label(NodeId(v));
            cache.retain(|&(a, b), _| {
                let la = next.label(NodeId(a));
                let lb = next.label(NodeId(b));
                !(la == lu || la == lv || lb == lu || lb == lv)
            });
            let members: Vec<u32> = work
                .nodes()
                .filter(|&n| next.label(n) == lu || next.label(n) == lv)
                .map(|n| n.0)
                .collect();
            stats.sources += members.len() as u64;
            cache.extend(edge_betweenness_from(&work, &members));
            cache.retain(|&(a, b), _| work.has_edge(NodeId(a), NodeId(b)));
            if next.count >= target {
                partition = next;
                break;
            }
        }
    }
    let result = GnResult {
        partition,
        removed_edges: removed,
    };
    (result, stats)
}
