//! Compiling mined patterns into executable behavior queries.
//!
//! This module owns the *compiled* form of a behavior query — the bridge between the
//! mining side (`tgminer` emits [`TemporalPattern`]s, `Ntemp` emits [`StaticPattern`]s,
//! `NodeSet` emits keyword sets) and the execution side (the offline [`crate::search`]
//! functions and the streaming detector in the `stream` crate, which re-exports these
//! types). Keeping the compiled form here means the miner→compiler contract is checked
//! where the queries are produced: [`compile`] never emits a trivially-empty query, so
//! anything it returns registers cleanly downstream.

use crate::matcher::KeywordTracker;
use crate::search::{search_nodeset, search_static, search_temporal, Interval};
use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, TemporalGraph};

/// A behavior query in the form the execution engines run: one of the three query types
/// the offline search and the streaming detector support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledQuery {
    /// A temporal graph pattern (TGMiner): edge order must be respected.
    Temporal(TemporalPattern),
    /// A non-temporal pattern (`Ntemp`): same structure, order ignored.
    Static(StaticPattern),
    /// A keyword label set (`NodeSet`): any co-occurrence within the window.
    NodeSet(NodeSetQuery),
}

/// The seed condition of a compiled query: which arriving events start new work for it.
/// This is the single source of truth for both the streaming registration indexes
/// (`stream::registry`) and the shard-assignment cost model (`stream::LabelPairStats`),
/// so routing and load estimation cannot drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedKey {
    /// A temporal pattern seeds a run on its first edge's `(source, destination)`
    /// label pair.
    TemporalPair(Label, Label),
    /// A static (`Ntemp`) pattern anchors on its first edge's `(source, destination)`
    /// label pair.
    StaticPair(Label, Label),
    /// A keyword query opens a window on any event touching one of these labels
    /// (distinct, sorted).
    NodeSetLabels(Vec<Label>),
}

impl CompiledQuery {
    /// Whether the query can never match anything (no edges / no labels). Such queries
    /// are rejected at registration with `stream::RegisterError::EmptyQuery`.
    pub fn is_trivially_empty(&self) -> bool {
        self.seed_key().is_none()
    }

    /// The query's seed condition, or `None` when it is trivially empty.
    pub fn seed_key(&self) -> Option<SeedKey> {
        match self {
            CompiledQuery::Temporal(pattern) => {
                let first = pattern.edges().first()?;
                Some(SeedKey::TemporalPair(
                    pattern.label(first.src),
                    pattern.label(first.dst),
                ))
            }
            CompiledQuery::Static(pattern) => {
                let &(p_src, p_dst) = pattern.edges.first()?;
                Some(SeedKey::StaticPair(
                    pattern.labels[p_src],
                    pattern.labels[p_dst],
                ))
            }
            CompiledQuery::NodeSet(set) => {
                if set.labels.is_empty() {
                    return None;
                }
                let mut distinct = set.labels.clone();
                distinct.sort_unstable();
                distinct.dedup();
                Some(SeedKey::NodeSetLabels(distinct))
            }
        }
    }

    /// The label pairs that can *advance* an in-flight match of a temporal query: the
    /// `(source, destination)` labels of every pattern edge after the first (distinct,
    /// sorted). An event carrying any other pair leaves every run of the query
    /// untouched, so the streaming registry indexes runs by these the way it indexes
    /// seeds by [`SeedKey`]. Empty for the other query types: keyword windows advance on
    /// their seed labels, and static anchors are resolved, not advanced.
    pub fn advance_pairs(&self) -> Vec<(Label, Label)> {
        let CompiledQuery::Temporal(pattern) = self else {
            return Vec::new();
        };
        let mut pairs: Vec<(Label, Label)> = pattern
            .edges()
            .iter()
            .skip(1)
            .map(|edge| (pattern.label(edge.src), pattern.label(edge.dst)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The recency state a keyword query's windows share in the streaming registry
    /// (see [`KeywordTracker`]); empty for the other query types, which have none.
    pub fn keyword_tracker(&self) -> KeywordTracker {
        match self {
            CompiledQuery::NodeSet(set) => KeywordTracker::new(set),
            _ => KeywordTracker::default(),
        }
    }

    /// Runs the query offline over a materialised graph — the batch twin of streaming
    /// detection, dispatching to the matching [`crate::search`] function.
    pub fn search(&self, graph: &TemporalGraph, window: u64) -> Vec<Interval> {
        match self {
            CompiledQuery::Temporal(pattern) => search_temporal(graph, pattern, window),
            CompiledQuery::Static(pattern) => search_static(graph, pattern, window),
            CompiledQuery::NodeSet(set) => search_nodeset(graph, set, window),
        }
    }
}

impl From<TemporalPattern> for CompiledQuery {
    fn from(pattern: TemporalPattern) -> Self {
        CompiledQuery::Temporal(pattern)
    }
}

impl From<StaticPattern> for CompiledQuery {
    fn from(pattern: StaticPattern) -> Self {
        CompiledQuery::Static(pattern)
    }
}

impl From<NodeSetQuery> for CompiledQuery {
    fn from(set: NodeSetQuery) -> Self {
        CompiledQuery::NodeSet(set)
    }
}

/// Compiles selected temporal patterns — [`crate::formulate_temporal`]'s, or
/// [`crate::BehaviorQueries::temporal`] — into executable queries, order kept.
///
/// This is the miner→compiler contract: every mined pattern has at least one edge, so
/// every query returned here has a seed key and registers on a streaming detector
/// without error (given a positive window). The filter is belt-and-braces — it
/// guarantees the invariant even if a future miner emits a degenerate pattern.
pub fn compile(patterns: &[TemporalPattern]) -> Vec<CompiledQuery> {
    patterns
        .iter()
        .cloned()
        .map(CompiledQuery::from)
        .filter(|query| !query.is_trivially_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn chain_graph(order: &[(usize, usize)]) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(l(i as u32));
        }
        for (ts, &(src, dst)) in order.iter().enumerate() {
            b.add_edge(src, dst, ts as u64 + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn seed_keys_identify_the_first_edge() {
        let pattern = TemporalPattern::single_edge(l(3), l(4));
        assert_eq!(
            CompiledQuery::from(pattern).seed_key(),
            Some(SeedKey::TemporalPair(l(3), l(4)))
        );
        let set = NodeSetQuery {
            labels: vec![l(2), l(1), l(2)],
        };
        assert_eq!(
            CompiledQuery::from(set).seed_key(),
            Some(SeedKey::NodeSetLabels(vec![l(1), l(2)])),
            "member labels are deduplicated and sorted"
        );
        assert!(CompiledQuery::NodeSet(NodeSetQuery { labels: vec![] }).is_trivially_empty());
        // Advance pairs: every edge after the first, distinct and sorted.
        let chain = TemporalPattern::single_edge(l(3), l(4))
            .grow_forward(1, l(2))
            .unwrap()
            .grow_backward(l(3), 1)
            .unwrap()
            .grow_forward(1, l(2))
            .unwrap();
        assert_eq!(
            CompiledQuery::from(chain).advance_pairs(),
            vec![(l(3), l(4)), (l(4), l(2))]
        );
        assert!(
            CompiledQuery::from(TemporalPattern::single_edge(l(3), l(4)))
                .advance_pairs()
                .is_empty()
        );
        assert!(CompiledQuery::Static(StaticPattern {
            labels: vec![],
            edges: vec![],
        })
        .is_trivially_empty());
    }

    #[test]
    fn compile_keeps_every_pattern_in_order() {
        let patterns = [
            TemporalPattern::single_edge(l(0), l(1))
                .grow_forward(1, l(2))
                .unwrap(),
            TemporalPattern::single_edge(l(0), l(1)),
        ];
        let compiled = compile(&patterns);
        assert_eq!(compiled.len(), 2);
        for (query, pattern) in compiled.iter().zip(&patterns) {
            assert!(!query.is_trivially_empty(), "mined queries always seed");
            assert_eq!(query, &CompiledQuery::Temporal(pattern.clone()));
        }
        assert!(compile(&[]).is_empty());
    }

    #[test]
    fn search_dispatches_per_query_type() {
        let graph = chain_graph(&[(0, 1), (1, 2)]);
        let temporal = CompiledQuery::from(
            TemporalPattern::single_edge(l(0), l(1))
                .grow_forward(1, l(2))
                .unwrap(),
        );
        assert_eq!(temporal.search(&graph, 5), vec![(1, 2)]);
        let nodeset = CompiledQuery::from(NodeSetQuery {
            labels: vec![l(0), l(2)],
        });
        assert_eq!(nodeset.search(&graph, 5).len(), 1);
    }
}
