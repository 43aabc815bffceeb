//! Seedable random generators for temporal graphs and patterns.
//!
//! Used by unit tests, property tests, and the micro-benchmarks. The generators always
//! produce T-connected graphs/patterns so that they lie inside TGMiner's search space.

use crate::graph::{GraphBuilder, TemporalGraph};
use crate::label::Label;
use crate::pattern::TemporalPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`random_t_connected_graph`].
#[derive(Debug, Clone, Copy)]
pub struct RandomGraphSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (must be at least 1 when `nodes >= 2`).
    pub edges: usize,
    /// Node labels are drawn uniformly from `0..label_alphabet`.
    pub label_alphabet: u32,
}

impl Default for RandomGraphSpec {
    fn default() -> Self {
        Self {
            nodes: 20,
            edges: 40,
            label_alphabet: 8,
        }
    }
}

/// Generates a random T-connected temporal graph.
///
/// The first edge connects nodes 0 and 1; every later edge keeps at least one endpoint
/// inside the already-connected part, so every prefix of the edge sequence is connected.
pub fn random_t_connected_graph(seed: u64, spec: RandomGraphSpec) -> TemporalGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = spec.nodes.max(2);
    let edges = spec.edges.max(1);
    let alphabet = spec.label_alphabet.max(1);

    let mut builder = GraphBuilder::with_capacity(nodes, edges);
    for _ in 0..nodes {
        builder.add_node(Label(rng.gen_range(0..alphabet)));
    }
    let mut touched: Vec<usize> = vec![0, 1];
    let mut in_touched = vec![false; nodes];
    in_touched[0] = true;
    in_touched[1] = true;
    builder.add_edge(0, 1, 1).expect("valid first edge");

    for i in 1..edges {
        let ts = (i + 1) as u64;
        let anchor = touched[rng.gen_range(0..touched.len())];
        let other = rng.gen_range(0..nodes);
        let (src, dst) = if rng.gen_bool(0.5) {
            (anchor, other)
        } else {
            (other, anchor)
        };
        builder.add_edge(src, dst, ts).expect("valid edge");
        for node in [src, dst] {
            if !in_touched[node] {
                in_touched[node] = true;
                touched.push(node);
            }
        }
    }
    builder.build()
}

/// Generates a random T-connected temporal pattern with up to `max_edges` edges by
/// applying random consecutive growth steps (forward / backward / inward).
pub fn random_pattern(seed: u64, max_edges: usize, label_alphabet: u32) -> TemporalPattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = label_alphabet.max(1);
    let pattern = TemporalPattern::single_edge(
        Label(rng.gen_range(0..alphabet)),
        Label(rng.gen_range(0..alphabet)),
    );
    grow(pattern, max_edges.max(1), &mut rng, alphabet)
}

/// Generates a random pattern together with a host pattern that is guaranteed to contain
/// it (the host is grown from the pattern by extra random steps). Useful for testing the
/// positive direction of temporal subgraph tests.
pub fn random_pattern_pair(
    seed: u64,
    base_edges: usize,
    extra_edges: usize,
    label_alphabet: u32,
) -> (TemporalPattern, TemporalPattern) {
    let base = random_pattern(seed, base_edges, label_alphabet);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let edges = base.edge_count() + extra_edges;
    let host = grow(base.clone(), edges, &mut rng, label_alphabet.max(1));
    (base, host)
}

/// Grows `pattern` by random consecutive steps, one edge each, until it has `edges`
/// edges. Each step draws its kind, then its node and label operands.
fn grow(
    mut pattern: TemporalPattern,
    edges: usize,
    rng: &mut StdRng,
    alphabet: u32,
) -> TemporalPattern {
    while pattern.edge_count() < edges {
        let n = pattern.node_count();
        pattern = match rng.gen_range(0..3) {
            0 => pattern
                .grow_forward(rng.gen_range(0..n), Label(rng.gen_range(0..alphabet)))
                .expect("valid forward growth"),
            1 => pattern
                .grow_backward(Label(rng.gen_range(0..alphabet)), rng.gen_range(0..n))
                .expect("valid backward growth"),
            _ => pattern
                .grow_inward(rng.gen_range(0..n), rng.gen_range(0..n))
                .expect("valid inward growth"),
        };
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqtest::is_temporal_subgraph;
    use crate::tconnect::{is_pattern_t_connected, is_t_connected};

    #[test]
    fn random_graphs_are_t_connected_and_sized() {
        for seed in 0..20 {
            let spec = RandomGraphSpec {
                nodes: 15,
                edges: 30,
                label_alphabet: 5,
            };
            let g = random_t_connected_graph(seed, spec);
            assert!(
                is_t_connected(&g),
                "seed {seed} produced a non T-connected graph"
            );
            assert_eq!(g.edge_count(), 30);
            assert_eq!(g.node_count(), 15);
        }
    }

    #[test]
    fn random_patterns_are_canonical_and_t_connected() {
        for seed in 0..20 {
            let p = random_pattern(seed, 10, 6);
            assert!(
                p.is_canonical(),
                "seed {seed} produced a non-canonical pattern"
            );
            assert!(is_pattern_t_connected(&p));
            assert_eq!(p.edge_count(), 10);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_pattern(42, 8, 4);
        let b = random_pattern(42, 8, 4);
        assert_eq!(a, b);
        let g1 = random_t_connected_graph(7, RandomGraphSpec::default());
        let g2 = random_t_connected_graph(7, RandomGraphSpec::default());
        assert_eq!(g1, g2);
    }

    #[test]
    fn pattern_pair_base_embeds_in_host() {
        for seed in 0..20 {
            let (base, host) = random_pattern_pair(seed, 4, 4, 5);
            assert!(
                is_temporal_subgraph(&base, &host),
                "seed {seed}: base should embed in its own extension"
            );
        }
    }
}
