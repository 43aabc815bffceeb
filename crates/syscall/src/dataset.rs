//! Training datasets: behavior traces, background activity, and synthetic scaling
//! (Section 6.1, Appendix L and N).
//!
//! The paper collects 100 syscall logs per behavior from a closed environment plus
//! 10,000 background logs from a week of idle server activity. [`TrainingData::generate`]
//! produces the synthetic equivalent: per-behavior positive graph sets and a shared
//! background (negative) graph set, all as [`tgraph::TemporalGraph`]s over one label
//! interner. Utilities cover the paper's data-scaling experiments: fractional
//! subsampling (Figures 12 and 15), and SYN-k replication (Figure 16 / Appendix N).

use crate::behaviors::{Behavior, SHARED_NOISE_FILES};
use crate::entity::{Entity, EntityKind};
use crate::event::SyscallType;
use crate::log::{GraphWriter, SyscallLog, Timestamps};
use crate::stream::{graph_of_events, LabeledTrace, TraceLabel};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tgraph::{GraphError, Label, LabelInterner, TemporalGraph};

/// Configuration of the synthetic training data generator.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Number of traces generated per behavior (paper: 100).
    pub graphs_per_behavior: usize,
    /// Number of background graphs (paper: 10,000).
    pub background_graphs: usize,
    /// Size scale applied to every trace relative to Table 1 (1.0 = paper sizes).
    pub scale: f64,
    /// Probability that a background graph embeds a decoy fragment of a confusable
    /// behavior (per behavior).
    pub decoy_rate: f64,
    /// RNG seed; generation is fully deterministic given the configuration.
    pub seed: u64,
}

impl DatasetConfig {
    /// The paper-scale configuration (slow: ~8M training edges).
    pub fn paper() -> Self {
        Self {
            graphs_per_behavior: 100,
            background_graphs: 10_000,
            scale: 1.0,
            decoy_rate: 0.08,
            seed: 2015,
        }
    }

    /// A reduced configuration that reproduces the experiment *shapes* in seconds.
    pub fn small() -> Self {
        Self {
            graphs_per_behavior: 20,
            background_graphs: 100,
            scale: 0.25,
            decoy_rate: 0.08,
            seed: 2015,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            graphs_per_behavior: 6,
            background_graphs: 20,
            scale: 0.15,
            decoy_rate: 0.15,
            seed: 7,
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// The positive graph set of one behavior.
#[derive(Debug, Clone)]
pub struct BehaviorDataset {
    /// Which behavior the traces belong to.
    pub behavior: Behavior,
    /// One temporal graph per independent execution of the behavior.
    pub graphs: Vec<TemporalGraph>,
}

/// Per-behavior statistics as reported in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorStats {
    /// Behavior name (or "background").
    pub name: String,
    /// Average number of nodes per graph.
    pub avg_nodes: f64,
    /// Average number of edges per graph.
    pub avg_edges: f64,
    /// Total number of distinct labels across the set.
    pub total_labels: usize,
    /// Number of graphs.
    pub graphs: usize,
}

/// A training dataset: one positive graph set per behavior class plus the background
/// graphs — generated ([`TrainingData::generate`]: all 12 behaviors) or rebuilt from
/// labeled traces ([`TrainingData::from_traces`]: the classes the traces name).
#[derive(Debug, Clone)]
pub struct TrainingData {
    /// Label interner shared by every graph in the dataset.
    pub interner: LabelInterner,
    /// Positive graph sets, one per behavior: in [`Behavior::all`] order when
    /// generated, in first-appearance order when built from traces.
    pub behaviors: Vec<BehaviorDataset>,
    /// Background (negative) graphs.
    pub background: Vec<TemporalGraph>,
}

impl TrainingData {
    /// Generates the full synthetic training dataset.
    pub fn generate(config: &DatasetConfig) -> Self {
        let mut interner = LabelInterner::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut writer = GraphWriter::new(&mut interner);
        let mut graph_of = |log: SyscallLog| {
            writer.append(&log, Timestamps::Logged);
            writer.take_graph()
        };

        let behaviors = Behavior::all()
            .into_iter()
            .map(|behavior| {
                let graphs = (0..config.graphs_per_behavior)
                    .map(|_| graph_of(behavior.generate_instance(&mut rng, config.scale)))
                    .collect();
                BehaviorDataset { behavior, graphs }
            })
            .collect();

        let background = (0..config.background_graphs)
            .map(|_| graph_of(generate_background_log(&mut rng, config)))
            .collect();

        Self {
            interner,
            behaviors,
            background,
        }
    }

    /// Rebuilds a training set from labeled traces — the form a deployment receives
    /// its examples in — each trace's graph through [`graph_of_events`]. Classes are
    /// kept in first-appearance order, traces in their given order within a class.
    /// `interner` names the traces' labels (it is what [`TrainingData::blacklist`]
    /// looks shared-noise labels up in): the original's for a replayed dataset, an
    /// empty one for a corpus of bare label ids.
    ///
    /// All or nothing: the first inconsistent trace (a relabelled node, a timestamp
    /// below its predecessor) is the error and no training set is built.
    pub fn from_traces(
        traces: &[LabeledTrace],
        interner: LabelInterner,
    ) -> Result<Self, GraphError> {
        let mut behaviors: Vec<BehaviorDataset> = Vec::new();
        let mut background = Vec::new();
        for trace in traces {
            let graph = graph_of_events(&trace.events)?;
            match trace.label {
                TraceLabel::Background => background.push(graph),
                TraceLabel::Behavior(behavior) => {
                    match behaviors.iter_mut().find(|d| d.behavior == behavior) {
                        Some(dataset) => dataset.graphs.push(graph),
                        None => behaviors.push(BehaviorDataset {
                            behavior,
                            graphs: vec![graph],
                        }),
                    }
                }
            }
        }
        Ok(Self {
            interner,
            behaviors,
            background,
        })
    }

    /// The positive graph set of `behavior`; empty for a class the dataset lacks.
    pub fn positives(&self, behavior: Behavior) -> &[TemporalGraph] {
        self.behaviors
            .iter()
            .find(|d| d.behavior == behavior)
            .map_or(&[], |d| &d.graphs)
    }

    /// The negative (background) graph set.
    pub fn negatives(&self) -> &[TemporalGraph] {
        &self.background
    }

    /// Total number of nodes and edges across the whole dataset.
    pub fn totals(&self) -> (usize, usize) {
        let mut nodes = 0;
        let mut edges = 0;
        for graph in self.all_graphs() {
            nodes += graph.node_count();
            edges += graph.edge_count();
        }
        (nodes, edges)
    }

    /// Iterates over every graph in the dataset (behaviors then background).
    pub fn all_graphs(&self) -> impl Iterator<Item = &TemporalGraph> {
        self.behaviors
            .iter()
            .flat_map(|d| d.graphs.iter())
            .chain(self.background.iter())
    }

    /// Labels that carry no security-relevant information (shared libraries, /proc,
    /// caches): the blacklist used by the interest ranking of Appendix M.
    pub fn blacklist(&self) -> Vec<Label> {
        SHARED_NOISE_FILES
            .iter()
            .filter_map(|f| self.interner.get(&format!("file:{f}")))
            .collect()
    }

    /// The Table 1 statistics: one row per behavior plus the background row.
    pub fn stats(&self) -> Vec<BehaviorStats> {
        let mut rows: Vec<BehaviorStats> = self
            .behaviors
            .iter()
            .map(|d| set_stats(d.behavior.name(), &d.graphs))
            .collect();
        rows.push(set_stats("background", &self.background));
        rows
    }

    /// Returns a dataset using only the first `fraction` of each graph set
    /// (the "amount of used training data" axis of Figures 12 and 15).
    pub fn subsample(&self, fraction: f64) -> TrainingData {
        let fraction = fraction.clamp(0.0, 1.0);
        let take = |graphs: &Vec<TemporalGraph>| -> Vec<TemporalGraph> {
            let n = ((graphs.len() as f64 * fraction).round() as usize)
                .max(1)
                .min(graphs.len());
            graphs[..n].to_vec()
        };
        TrainingData {
            interner: self.interner.clone(),
            behaviors: self
                .behaviors
                .iter()
                .map(|d| BehaviorDataset {
                    behavior: d.behavior,
                    graphs: take(&d.graphs),
                })
                .collect(),
            background: take(&self.background),
        }
    }

    /// Replicates every graph `k` times: the SYN-k datasets of Appendix N (Figure 16).
    pub fn replicate(&self, k: usize) -> TrainingData {
        let k = k.max(1);
        let copy = |graphs: &Vec<TemporalGraph>| -> Vec<TemporalGraph> {
            let mut out = Vec::with_capacity(graphs.len() * k);
            for _ in 0..k {
                out.extend(graphs.iter().cloned());
            }
            out
        };
        TrainingData {
            interner: self.interner.clone(),
            behaviors: self
                .behaviors
                .iter()
                .map(|d| BehaviorDataset {
                    behavior: d.behavior,
                    graphs: copy(&d.graphs),
                })
                .collect(),
            background: copy(&self.background),
        }
    }
}

fn set_stats(name: &str, graphs: &[TemporalGraph]) -> BehaviorStats {
    let n = graphs.len().max(1) as f64;
    let nodes: usize = graphs.iter().map(|g| g.node_count()).sum();
    let edges: usize = graphs.iter().map(|g| g.edge_count()).sum();
    let mut labels: Vec<Label> = graphs.iter().flat_map(|g| g.distinct_labels()).collect();
    labels.sort_unstable();
    labels.dedup();
    BehaviorStats {
        name: name.to_owned(),
        avg_nodes: nodes as f64 / n,
        avg_edges: edges as f64 / n,
        total_labels: labels.len(),
        graphs: graphs.len(),
    }
}

/// Generates one background log: generic server activity (cron jobs, log rotation,
/// monitoring agents touching shared files) plus, with probability `decoy_rate` per
/// confusable behavior, that behavior's decoy fragment.
pub(crate) fn generate_background_log(rng: &mut StdRng, config: &DatasetConfig) -> SyscallLog {
    let mut log = SyscallLog::new();
    draw_background(rng, config, |event| {
        let (subject, object, syscall) = event.render();
        log.record_next(subject, object, syscall);
        true
    });
    log
}

/// Draws one background window and hands its events to `emit` in log order,
/// unrendered, for as long as `emit` returns `true`. The draws — which decoys the
/// window holds, then every noise event — are the same RNG calls in the same order
/// whatever `emit` keeps: once it has had enough, each remaining noise draw is
/// stepped over as its [`NOISE_DRAW_WORDS`] bare RNG values, so a caller that takes
/// only a prefix leaves the generator where a full render would.
pub(crate) fn draw_background(
    rng: &mut StdRng,
    config: &DatasetConfig,
    mut emit: impl FnMut(BackgroundEvent) -> bool,
) {
    let profile_edges = 749.0; // background average edges in Table 1
    let target_edges = ((profile_edges * config.scale).round() as usize).max(20);

    // Decide which decoys this background window contains.
    let mut decoys: Vec<Vec<(Entity, Entity, SyscallType)>> = Vec::new();
    for behavior in Behavior::all() {
        if rng.gen_bool(config.decoy_rate) {
            if let Some(fragment) = behavior.decoy_fragment(rng) {
                decoys.push(fragment);
            }
        }
    }
    let decoy_edges: usize = decoys.iter().map(Vec::len).sum();
    let noise_budget = target_edges.saturating_sub(decoy_edges);

    // Spread decoy fragments across the window, filling the gaps with generic noise.
    let segments = decoys.len() + 1;
    let mut remaining_noise = noise_budget;
    let mut open = true;
    for (i, fragment) in decoys.into_iter().enumerate() {
        let gap = remaining_noise / (segments - i);
        draw_noise(rng, gap, &mut open, &mut emit);
        remaining_noise -= gap;
        for event in fragment {
            open = open && emit(BackgroundEvent::Decoy(event));
        }
    }
    draw_noise(rng, remaining_noise, &mut open, &mut emit);
}

/// Draws `count` noise events into `emit` while it is `open`, then steps the RNG over
/// the rest.
fn draw_noise(
    rng: &mut StdRng,
    count: usize,
    open: &mut bool,
    emit: &mut impl FnMut(BackgroundEvent) -> bool,
) {
    let mut drawn = 0;
    while *open && drawn < count {
        *open = emit(BackgroundEvent::Noise(NoiseDraw::draw(rng)));
        drawn += 1;
    }
    for _ in 0..(count - drawn) * NOISE_DRAW_WORDS {
        rng.next_u64();
    }
}

/// One event of a background window as drawn: a decoy fragment's event, or generic
/// noise not yet rendered into entities.
#[derive(Debug)]
pub(crate) enum BackgroundEvent {
    /// Generic server activity.
    Noise(NoiseDraw),
    /// An event of a confusable behavior's decoy fragment.
    Decoy((Entity, Entity, SyscallType)),
}

impl BackgroundEvent {
    /// The event as `(subject, object, syscall)`.
    pub(crate) fn render(self) -> (Entity, Entity, SyscallType) {
        match self {
            BackgroundEvent::Noise(draw) => draw.render(),
            BackgroundEvent::Decoy(event) => event,
        }
    }
}

/// The background's processes.
pub(crate) const DAEMONS: [&str; 8] = [
    "cron",
    "rsyslogd",
    "systemd",
    "snapd",
    "dbus-daemon",
    "irqbalance",
    "atd",
    "collectd",
];

/// The RNG values one [`NoiseDraw::draw`] takes, whichever event it draws: what a
/// background window that is not rendered to its end steps over per event.
const NOISE_DRAW_WORDS: usize = 3;

/// One generic background noise event as drawn: indices into the noise vocabularies,
/// no strings. Drawing one takes [`NOISE_DRAW_WORDS`] RNG values, rendering it none.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NoiseDraw {
    /// `DAEMONS[daemon]` reads `SHARED_NOISE_FILES[file]`.
    Shared { daemon: usize, file: usize },
    /// `DAEMONS[daemon]` writes its working file `/var/spool/bg-{idx}`.
    Spool { daemon: usize, idx: u32 },
    /// `DAEMONS[daemon]` writes `/var/log/syslog.{idx}`.
    Syslog { daemon: usize, idx: u32 },
    /// `DAEMONS[daemon]` forks `DAEMONS[child]`.
    Fork { daemon: usize, child: usize },
}

impl NoiseDraw {
    fn draw(rng: &mut StdRng) -> Self {
        let daemon = rng.gen_range(0..DAEMONS.len());
        let roll: f64 = rng.gen();
        if roll < 0.5 {
            let file = rng.gen_range(0..SHARED_NOISE_FILES.len());
            NoiseDraw::Shared { daemon, file }
        } else if roll < 0.8 {
            // Background label variety: per-daemon working files.
            let idx = rng.gen_range(0..1_000u32);
            NoiseDraw::Spool { daemon, idx }
        } else if roll < 0.9 {
            let idx = rng.gen_range(0..200u32);
            NoiseDraw::Syslog { daemon, idx }
        } else {
            let child = rng.gen_range(0..DAEMONS.len());
            NoiseDraw::Fork { daemon, child }
        }
    }

    fn render(self) -> (Entity, Entity, SyscallType) {
        let daemon = |i: usize| Entity::process(DAEMONS[i]);
        let numbered = |head, idx| Entity::indexed(EntityKind::File, head, idx, "");
        match self {
            NoiseDraw::Shared { daemon: d, file } => (
                daemon(d),
                Entity::file(SHARED_NOISE_FILES[file]),
                SyscallType::Read,
            ),
            NoiseDraw::Spool { daemon: d, idx } => (
                daemon(d),
                numbered("/var/spool/bg-", idx),
                SyscallType::Write,
            ),
            NoiseDraw::Syslog { daemon: d, idx } => (
                daemon(d),
                numbered("/var/log/syslog.", idx),
                SyscallType::Write,
            ),
            NoiseDraw::Fork { daemon: d, child } => (daemon(d), daemon(child), SyscallType::Fork),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TrainingData::generate(&DatasetConfig::tiny());
        let b = TrainingData::generate(&DatasetConfig::tiny());
        assert_eq!(
            a.positives(Behavior::GzipDecompress),
            b.positives(Behavior::GzipDecompress)
        );
        assert_eq!(a.negatives().len(), b.negatives().len());
        assert_eq!(a.negatives()[0], b.negatives()[0]);
    }

    #[test]
    fn every_noise_draw_takes_noise_draw_words_values() {
        // The premise of stepping over the undrawn tail of a background window.
        let mut hit = [false; 4];
        for seed in 0u64.. {
            if hit.iter().all(|&h| h) {
                break;
            }
            assert!(seed < 1_000, "branches drawn by seed {seed}: {hit:?}");
            let mut rng = StdRng::seed_from_u64(seed);
            let draw = NoiseDraw::draw(&mut rng);
            hit[match draw {
                NoiseDraw::Shared { .. } => 0,
                NoiseDraw::Spool { .. } => 1,
                NoiseDraw::Syslog { .. } => 2,
                NoiseDraw::Fork { .. } => 3,
            }] = true;
            let mut counted = StdRng::seed_from_u64(seed);
            for _ in 0..NOISE_DRAW_WORDS {
                counted.next_u64();
            }
            assert_eq!(rng, counted, "seed {seed}: {draw:?}");
        }
    }

    #[test]
    fn dataset_has_all_behaviors_and_background() {
        let config = DatasetConfig::tiny();
        let data = TrainingData::generate(&config);
        assert_eq!(data.behaviors.len(), 12);
        for dataset in &data.behaviors {
            assert_eq!(dataset.graphs.len(), config.graphs_per_behavior);
        }
        assert_eq!(data.negatives().len(), config.background_graphs);
        let (nodes, edges) = data.totals();
        assert!(nodes > 0 && edges > 0);
    }

    fn trace(label: TraceLabel, events: &[(u64, usize, usize, u32, u32)]) -> LabeledTrace {
        LabeledTrace {
            label,
            events: events
                .iter()
                .map(|&(ts, src, dst, sl, dl)| tgraph::StreamEvent {
                    ts,
                    src,
                    dst,
                    src_label: Label(sl),
                    dst_label: Label(dl),
                })
                .collect(),
        }
    }

    #[test]
    fn from_traces_groups_classes_in_first_appearance_order() {
        use Behavior::{GzipDecompress, SshdLogin};
        // sshd-login comes first although `Behavior::all` lists it after gzip.
        let traces = [
            trace(TraceLabel::Behavior(SshdLogin), &[(1, 7, 9, 0, 1)]),
            trace(TraceLabel::Background, &[(5, 0, 0, 3, 3)]),
            trace(TraceLabel::Behavior(GzipDecompress), &[(1, 2, 3, 4, 5)]),
            trace(TraceLabel::Behavior(SshdLogin), &[(2, 1, 1, 6, 6)]),
        ];
        let data = TrainingData::from_traces(&traces, LabelInterner::new()).unwrap();
        let classes: Vec<Behavior> = data.behaviors.iter().map(|d| d.behavior).collect();
        assert_eq!(classes, vec![SshdLogin, GzipDecompress]);
        assert_eq!(data.positives(SshdLogin).len(), 2);
        assert_eq!(data.positives(SshdLogin)[1].label(0), Label(6));
        assert_eq!(data.positives(GzipDecompress).len(), 1);
        assert_eq!(data.negatives().len(), 1);
        // A class the traces never named has no positives — and asking is not a panic.
        assert!(data.positives(Behavior::ScpDownload).is_empty());
        assert!(
            data.blacklist().is_empty(),
            "an empty interner names no label"
        );
    }

    #[test]
    fn a_rejected_corpus_builds_nothing() {
        let good = trace(TraceLabel::Background, &[(1, 0, 1, 0, 1)]);
        // Node 4 re-announced with a different label, after two good traces.
        let relabelled = trace(TraceLabel::Background, &[(1, 4, 5, 0, 1), (2, 4, 5, 9, 1)]);
        assert!(matches!(
            TrainingData::from_traces(
                &[good.clone(), good.clone(), relabelled],
                LabelInterner::new()
            ),
            Err(GraphError::LabelConflict { node: 4, .. })
        ));
        let stale = trace(
            TraceLabel::Behavior(Behavior::GzipDecompress),
            &[(3, 0, 1, 0, 1), (2, 1, 0, 1, 0)],
        );
        assert!(matches!(
            TrainingData::from_traces(&[good, stale], LabelInterner::new()),
            Err(GraphError::NonMonotonicTimestamp { .. })
        ));
        let empty = TrainingData::from_traces(&[], LabelInterner::new()).unwrap();
        assert!(empty.behaviors.is_empty() && empty.background.is_empty());
    }

    #[test]
    fn a_replayed_dataset_is_the_original_graph_for_graph() {
        let original = TrainingData::generate(&DatasetConfig::tiny());
        let traces = crate::stream::labeled_traces(&original);
        let replayed = TrainingData::from_traces(&traces, original.interner.clone()).unwrap();
        assert_eq!(replayed.behaviors.len(), 12);
        for (a, b) in replayed.behaviors.iter().zip(&original.behaviors) {
            assert_eq!(a.behavior, b.behavior);
            assert_eq!(a.graphs, b.graphs);
        }
        assert_eq!(replayed.background, original.background);
        assert_eq!(replayed.blacklist(), original.blacklist());
    }

    #[test]
    fn stats_reflect_table1_size_ordering() {
        let data = TrainingData::generate(&DatasetConfig::tiny());
        let stats = data.stats();
        assert_eq!(stats.len(), 13);
        let edges_of = |name: &str| {
            stats
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.avg_edges)
                .unwrap_or(0.0)
        };
        // The relative ordering of trace sizes must match Table 1.
        assert!(edges_of("bzip2-decompress") < edges_of("scp-download"));
        assert!(edges_of("scp-download") < edges_of("sshd-login"));
        assert!(edges_of("sshd-login") < edges_of("apt-get-install"));
    }

    #[test]
    fn subsample_reduces_graph_counts() {
        let data = TrainingData::generate(&DatasetConfig::tiny());
        let half = data.subsample(0.5);
        assert_eq!(half.positives(Behavior::GzipDecompress).len(), 3);
        assert_eq!(half.negatives().len(), 10);
        let tiny_fraction = data.subsample(0.0001);
        assert_eq!(tiny_fraction.positives(Behavior::GzipDecompress).len(), 1);
    }

    #[test]
    fn replicate_multiplies_graph_counts() {
        let data = TrainingData::generate(&DatasetConfig::tiny());
        let syn4 = data.replicate(4);
        assert_eq!(
            syn4.positives(Behavior::GzipDecompress).len(),
            4 * data.positives(Behavior::GzipDecompress).len()
        );
        assert_eq!(syn4.negatives().len(), 4 * data.negatives().len());
    }

    #[test]
    fn blacklist_contains_shared_noise_labels() {
        let data = TrainingData::generate(&DatasetConfig::tiny());
        let blacklist = data.blacklist();
        assert!(!blacklist.is_empty());
        let name = data.interner.name(blacklist[0]).unwrap();
        assert!(name.starts_with("file:/"));
    }

    #[test]
    fn background_graphs_sometimes_contain_decoys() {
        // With a high decoy rate, at least one background graph must contain the
        // sshd-login decoy labels (e.g. /etc/shadow reads by background activity).
        let config = DatasetConfig {
            decoy_rate: 0.9,
            ..DatasetConfig::tiny()
        };
        let data = TrainingData::generate(&config);
        let shadow = data.interner.get("file:/etc/shadow");
        assert!(shadow.is_some());
        let shadow = shadow.unwrap();
        let hit = data
            .negatives()
            .iter()
            .any(|g| g.distinct_labels().contains(&shadow));
        assert!(hit, "no background graph contains the sshd decoy");
    }
}
