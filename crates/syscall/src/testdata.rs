//! Test data: a large monitoring graph with embedded ground-truth behavior instances
//! (Section 6.1, Appendix L).
//!
//! The paper's test data is a 7-day syscall log from an ordinary desktop in which one of
//! the 12 target behaviors is executed every minute, with the execution interval recorded
//! as ground truth (10,000 instances, millions of edges). [`TestData::generate`] builds
//! the synthetic equivalent: a single long temporal graph that interleaves background
//! noise, decoy fragments of the confusable behaviors, and behavior instances whose
//! `[start, end]` timestamp intervals are recorded for precision/recall evaluation.
//!
//! Node identity is scoped per activity (each behavior execution or decoy gets fresh
//! nodes, as separate process instances do), while node *labels* are shared with the
//! training data through the same label interner, so patterns mined on training data can
//! be matched directly against the test graph.

use crate::behaviors::{Behavior, Confusability};
use crate::dataset::{draw_background, DatasetConfig};
use crate::entity::Entity;
use crate::event::SyscallType;
use crate::log::{GraphWriter, SyscallLog, Timestamps};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tgraph::{LabelInterner, TemporalGraph};

/// Configuration of the test data generator.
#[derive(Debug, Clone, Copy)]
pub struct TestDataConfig {
    /// Total number of behavior instances embedded in the stream (paper: 10,000).
    pub instances: usize,
    /// Size scale applied to each instance (matches the training scale).
    pub scale: f64,
    /// Average number of background noise events between consecutive activities.
    pub noise_between: usize,
    /// Probability that a decoy fragment is emitted between two activities
    /// (per confusable behavior).
    pub decoy_rate: f64,
    /// Probability that an embedded instance drops one random signature event
    /// (models imperfect real-world executions; bounds recall below 100%).
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TestDataConfig {
    /// Paper-scale test data (10,000 instances, millions of edges).
    pub fn paper() -> Self {
        Self {
            instances: 10_000,
            scale: 1.0,
            noise_between: 600,
            decoy_rate: 0.05,
            dropout: 0.08,
            seed: 777,
        }
    }

    /// Reduced test data that evaluates in seconds.
    pub fn small() -> Self {
        Self {
            instances: 240,
            scale: 0.25,
            noise_between: 60,
            decoy_rate: 0.05,
            dropout: 0.08,
            seed: 777,
        }
    }

    /// Tiny test data for unit tests.
    pub fn tiny() -> Self {
        Self {
            instances: 36,
            scale: 0.15,
            noise_between: 20,
            decoy_rate: 0.1,
            dropout: 0.1,
            seed: 13,
        }
    }

    /// Derives a test configuration consistent with a training configuration.
    pub fn matching(training: &DatasetConfig, instances: usize) -> Self {
        Self {
            instances,
            scale: training.scale,
            noise_between: (240.0 * training.scale).round() as usize,
            decoy_rate: 0.05,
            dropout: 0.08,
            seed: training.seed ^ 0xBEEF,
        }
    }
}

impl Default for TestDataConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// A ground-truth behavior execution interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehaviorInstance {
    /// Which behavior was executed.
    pub behavior: Behavior,
    /// Timestamp of its first event.
    pub start_ts: u64,
    /// Timestamp of its last event.
    pub end_ts: u64,
}

/// The generated test data: one large temporal graph plus ground truth.
#[derive(Debug, Clone)]
pub struct TestData {
    /// The monitoring graph (equivalent to the 7-day syscall log).
    pub graph: TemporalGraph,
    /// Label interner extended from the training interner.
    pub interner: LabelInterner,
    /// Ground-truth behavior instances, in time order.
    pub instances: Vec<BehaviorInstance>,
    /// The longest observed behavior duration (in timestamp units); behavior queries are
    /// matched within windows of this length.
    pub max_duration: u64,
}

impl TestData {
    /// Generates test data, extending `interner` (clone the training interner so label
    /// ids line up with the mined patterns).
    pub fn generate(config: &TestDataConfig, mut interner: LabelInterner) -> TestData {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // One clock for the whole stream: every log's edges follow the previous log's.
        let mut writer = GraphWriter::new(&mut interner);
        let mut instances = Vec::with_capacity(config.instances);
        let behaviors = Behavior::all();
        let confusable: Vec<Behavior> = behaviors
            .into_iter()
            .filter(|b| b.profile().confusability != Confusability::Distinct)
            .collect();
        // Background noise between activities, rendered into one reused log.
        let mut noise = SyscallLog::new();

        for i in 0..config.instances {
            background_segment(&mut rng, config.noise_between, &mut noise);
            writer.append(&noise, Timestamps::Next);

            // Occasionally a decoy fragment of a confusable behavior.
            if !confusable.is_empty() && rng.gen_bool(config.decoy_rate * confusable.len() as f64) {
                let behavior = confusable[rng.gen_range(0..confusable.len())];
                if let Some(fragment) = behavior.decoy_fragment(&mut rng) {
                    let mut decoy_log = SyscallLog::new();
                    for (s, o, c) in fragment {
                        decoy_log.record_next(s, o, c);
                    }
                    writer.append(&decoy_log, Timestamps::Next);
                }
            }

            // The behavior instance itself (round-robin so every behavior appears).
            let behavior = behaviors[i % behaviors.len()];
            let mut log = behavior.generate_instance(&mut rng, config.scale);
            if rng.gen_bool(config.dropout) {
                drop_one_signature_event(&mut rng, behavior, &mut log);
            }
            let start_ts = writer.last_ts() + 1;
            writer.append(&log, Timestamps::Next);
            instances.push(BehaviorInstance {
                behavior,
                start_ts,
                end_ts: writer.last_ts(),
            });
        }
        // Trailing background noise.
        background_segment(&mut rng, config.noise_between, &mut noise);
        writer.append(&noise, Timestamps::Next);
        let graph = writer.take_graph();

        let max_duration = instances
            .iter()
            .map(|i| i.end_ts - i.start_ts + 1)
            .max()
            .unwrap_or(1);
        TestData {
            graph,
            interner,
            instances,
            max_duration,
        }
    }

    /// The ground-truth intervals of one behavior.
    pub fn intervals_of(&self, behavior: Behavior) -> Vec<(u64, u64)> {
        self.instances
            .iter()
            .filter(|i| i.behavior == behavior)
            .map(|i| (i.start_ts, i.end_ts))
            .collect()
    }
}

/// The training background window the test stream's noise is cut from: its event mix,
/// with the decoys off (the test-data generator inserts decoys itself, so it controls
/// their positions). At scale 1.0 a window is 749 events.
fn noise_window() -> DatasetConfig {
    DatasetConfig {
        decoy_rate: 0.0,
        scale: 1.0,
        ..DatasetConfig::tiny()
    }
}

/// Background noise of length `keep`, written over `noise`: the first `keep` events of
/// one background window, then `idle → /proc/loadavg` reads where the window is
/// shorter than `keep`.
///
/// The whole window is drawn whatever `keep` is — the decoy rolls and every noise
/// event — so the RNG leaves here where rendering the window in full would leave it.
/// Only what is kept is decoded and rendered: the rest of the window is stepped over
/// (`tests/generator_alloc.rs` holds the cost).
fn background_segment(rng: &mut StdRng, keep: usize, noise: &mut SyscallLog) {
    noise.clear();
    draw_background(rng, &noise_window(), |event| {
        if noise.len() < keep {
            let (subject, object, syscall) = event.render();
            noise.record_next(subject, object, syscall);
        }
        noise.len() < keep
    });
    while noise.len() < keep {
        noise.record_next(
            Entity::process("idle"),
            Entity::file("/proc/loadavg"),
            SyscallType::Read,
        );
    }
}

/// Removes one random signature event from an instance log (recall dropout).
fn drop_one_signature_event(rng: &mut StdRng, behavior: Behavior, log: &mut SyscallLog) {
    let signature = behavior.signature();
    let (subject, object, syscall) = signature.choose(rng).expect("signatures are non-empty");
    log.remove_first(|event| {
        event.subject == *subject && event.object == *object && event.syscall == *syscall
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let a = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let b = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.instances, b.instances);
        assert!(a.instances.windows(2).all(|w| w[0].end_ts < w[1].start_ts));
    }

    #[test]
    fn every_behavior_gets_instances() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        for behavior in Behavior::all() {
            assert!(
                !data.intervals_of(behavior).is_empty(),
                "{} has no test instances",
                behavior.name()
            );
        }
        assert_eq!(data.instances.len(), TestDataConfig::tiny().instances);
    }

    #[test]
    fn instance_intervals_lie_inside_the_graph_timespan() {
        let data = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
        let (first, last) = data.graph.timespan().unwrap();
        for instance in &data.instances {
            assert!(instance.start_ts >= first);
            assert!(instance.end_ts <= last);
            assert!(instance.start_ts <= instance.end_ts);
        }
        assert!(data.max_duration >= 1);
    }

    #[test]
    fn labels_are_shared_with_a_training_interner() {
        let training = crate::dataset::TrainingData::generate(&DatasetConfig::tiny());
        let sshd_label = training
            .interner
            .get("proc:sshd")
            .expect("training contains sshd");
        let data = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        assert_eq!(data.interner.get("proc:sshd"), Some(sshd_label));
        // The test graph actually contains that label.
        assert!(data.graph.labels().contains(&sshd_label));
    }

    #[test]
    fn the_confusable_behaviors_are_those_with_a_decoy() {
        for behavior in Behavior::all() {
            let decoy = behavior.decoy_fragment(&mut StdRng::seed_from_u64(0));
            assert_eq!(
                behavior.profile().confusability != Confusability::Distinct,
                decoy.is_some(),
                "{}",
                behavior.name()
            );
        }
    }

    /// `drop_one_signature_event` compares entities by their parts, as `Entity`'s
    /// equality does. That is comparing label strings only if no text has two
    /// spellings: no literal name is a rendering of a template, and no two distinct
    /// `(kind, name)` values render one label.
    #[test]
    fn name_identity_is_text_identity() {
        use crate::behaviors::SHARED_NOISE_FILES;
        use crate::dataset::{generate_background_log, DAEMONS};
        use std::collections::{BTreeSet, HashMap};

        // Every literal, listed; every template as the generators instantiate it.
        let mut entities = vec![Entity::process("idle"), Entity::file("/proc/loadavg")];
        entities.extend(DAEMONS.map(Entity::process));
        entities.extend(SHARED_NOISE_FILES.map(Entity::file));
        let mut rng = StdRng::seed_from_u64(41);
        for behavior in Behavior::all() {
            entities.push(behavior.main_process());
            let decoys = (0..32).filter_map(|_| behavior.decoy_fragment(&mut rng));
            for (subject, object, _) in behavior.signature().into_iter().chain(decoys.flatten()) {
                entities.extend([subject, object]);
            }
            for _ in 0..4 {
                let log = behavior.generate_instance(&mut rng, 1.0);
                entities.extend(log.events().iter().flat_map(|e| [e.subject, e.object]));
            }
        }
        let background = DatasetConfig {
            decoy_rate: 0.5,
            ..DatasetConfig::tiny()
        };
        for _ in 0..8 {
            let log = generate_background_log(&mut rng, &background);
            entities.extend(log.events().iter().flat_map(|e| [e.subject, e.object]));
        }
        let (templated, literals): (Vec<Entity>, Vec<Entity>) =
            entities.into_iter().partition(|e| e.name.index.is_some());
        let literals: BTreeSet<Entity> = literals.into_iter().collect();
        let templates: BTreeSet<_> = templated
            .iter()
            .map(|e| (e.kind, e.name.head, e.name.tail))
            .collect();
        // `/opt/{behavior}/data-{i}` and `/tmp/{behavior}-{i}.tmp` for each behavior, then
        // spool, syslog, agent and cron job.
        assert_eq!(templates.len(), 2 * 12 + 4, "{templates:?}");

        for literal in &literals {
            for &(kind, head, tail) in &templates {
                let index = literal.name.head.strip_prefix(head);
                let index = index.and_then(|rest| rest.strip_suffix(tail));
                let rendered =
                    index.and_then(|i| i.parse::<u32>().ok().filter(|n| n.to_string() == i));
                assert!(
                    literal.kind != kind || rendered.is_none(),
                    "{literal} renders {kind:?} {head}{{index}}{tail}"
                );
            }
        }
        let renderings = templates.iter().flat_map(|&(kind, head, tail)| {
            (0..1_000).map(move |i| Entity::indexed(kind, head, i, tail))
        });
        let mut by_label = HashMap::new();
        for entity in literals.iter().copied().chain(renderings) {
            if let Some(other) = by_label.insert(entity.label_string(), entity) {
                assert_eq!(other, entity, "two names render {entity}");
            }
        }
    }

    #[test]
    fn a_segment_draws_its_whole_window_but_keeps_only_its_prefix() {
        use rand::RngCore;
        // One buffer for every case, as `generate` reuses it.
        let mut noise = SyscallLog::new();
        for seed in [3, 2015] {
            for keep in [0, 1, 60, 748, 749, 750, 1_000] {
                // What a segment was: the whole window rendered, a prefix kept, padded.
                let mut full_rng = StdRng::seed_from_u64(seed);
                let window =
                    crate::dataset::generate_background_log(&mut full_rng, &noise_window());
                assert_eq!(window.len(), 749);
                let mut expected = SyscallLog::new();
                for event in window.events().iter().take(keep) {
                    expected.record(event.clone());
                }
                while expected.len() < keep {
                    expected.record_next(
                        Entity::process("idle"),
                        Entity::file("/proc/loadavg"),
                        SyscallType::Read,
                    );
                }

                let mut rng = StdRng::seed_from_u64(seed);
                background_segment(&mut rng, keep, &mut noise);
                assert_eq!(noise, expected, "seed {seed}, keep {keep}");
                // The whole window is drawn: the twelve decoy rolls and three values per
                // noise event, kept or not, as a full render takes them. (That only the
                // kept prefix is rendered, `tests/generator_alloc.rs` holds.)
                assert_eq!(rng, full_rng, "seed {seed}, keep {keep}");
                let mut counted = StdRng::seed_from_u64(seed);
                for _ in 0..12 + 3 * 749 {
                    counted.next_u64();
                }
                assert_eq!(rng, counted, "seed {seed}, keep {keep}");
            }
        }
    }
}
