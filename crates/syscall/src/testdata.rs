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

use crate::behaviors::Behavior;
use crate::dataset::DatasetConfig;
use crate::entity::Entity;
use crate::event::SyscallType;
use crate::log::{StableMap, SyscallLog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tgraph::{GraphBuilder, LabelInterner, TemporalGraph};

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
        let mut builder = GraphBuilder::new();
        let mut ts = 0u64;
        let mut instances = Vec::with_capacity(config.instances);
        let behaviors = Behavior::all();
        let confusable: Vec<Behavior> = behaviors
            .iter()
            .copied()
            .filter(|b| b.decoy_fragment(&mut StdRng::seed_from_u64(0)).is_some())
            .collect();

        for i in 0..config.instances {
            // Background noise between activities.
            let noise = background_segment(&mut rng, config.noise_between);
            emit_log(&mut builder, &mut interner, &noise, &mut ts);

            // Occasionally a decoy fragment of a confusable behavior.
            if !confusable.is_empty() && rng.gen_bool(config.decoy_rate * confusable.len() as f64) {
                let behavior = confusable[rng.gen_range(0..confusable.len())];
                if let Some(fragment) = behavior.decoy_fragment(&mut rng) {
                    let mut decoy_log = SyscallLog::new();
                    for (s, o, c) in fragment {
                        decoy_log.record_next(s, o, c);
                    }
                    emit_log(&mut builder, &mut interner, &decoy_log, &mut ts);
                }
            }

            // The behavior instance itself (round-robin so every behavior appears).
            let behavior = behaviors[i % behaviors.len()];
            let mut log = behavior.generate_instance(&mut rng, config.scale);
            if rng.gen_bool(config.dropout) {
                log = drop_one_signature_event(&mut rng, behavior, log);
            }
            let start_ts = ts + 1;
            emit_log(&mut builder, &mut interner, &log, &mut ts);
            instances.push(BehaviorInstance {
                behavior,
                start_ts,
                end_ts: ts,
            });
        }
        // Trailing background noise.
        let noise = background_segment(&mut rng, config.noise_between);
        emit_log(&mut builder, &mut interner, &noise, &mut ts);

        let max_duration = instances
            .iter()
            .map(|i| i.end_ts - i.start_ts + 1)
            .max()
            .unwrap_or(1);
        TestData {
            graph: builder.build(),
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

/// Appends a syscall log to the big graph with fresh nodes (per-activity scoping),
/// advancing the global timestamp counter.
fn emit_log(
    builder: &mut GraphBuilder,
    interner: &mut LabelInterner,
    log: &SyscallLog,
    ts: &mut u64,
) {
    let mut scope: StableMap<String, usize> = StableMap::default();
    for event in log.events() {
        let (src_entity, dst_entity) = event.edge_endpoints();
        let src_label = src_entity.label_string();
        let dst_label = dst_entity.label_string();
        let src = *scope
            .entry(src_label.clone())
            .or_insert_with(|| builder.add_node(interner.intern(&src_label)));
        let dst = *scope
            .entry(dst_label.clone())
            .or_insert_with(|| builder.add_node(interner.intern(&dst_label)));
        *ts += 1;
        builder
            .add_edge(src, dst, *ts)
            .expect("timestamps strictly increase");
    }
}

/// Generic background noise of the requested length.
fn background_segment(rng: &mut StdRng, target: usize) -> SyscallLog {
    let config = DatasetConfig {
        decoy_rate: 0.0,
        scale: 1.0,
        ..DatasetConfig::tiny()
    };
    let mut log = SyscallLog::new();
    // Reuse the training background event mix, but with the decoys disabled (decoys are
    // inserted explicitly by the test-data generator so their positions are controlled).
    let full = crate::dataset::generate_background_log(rng, &config);
    for event in full.events().iter().take(target) {
        log.record(event.clone());
    }
    while log.len() < target {
        log.record_next(
            Entity::process("idle"),
            Entity::file("/proc/loadavg"),
            SyscallType::Read,
        );
    }
    log
}

/// Removes one random signature event from an instance log (recall dropout).
fn drop_one_signature_event(rng: &mut StdRng, behavior: Behavior, log: SyscallLog) -> SyscallLog {
    let signature = behavior.signature();
    let victim = signature
        .choose(rng)
        .expect("signatures are non-empty")
        .clone();
    let mut out = SyscallLog::new();
    let mut dropped = false;
    for event in log.events() {
        if !dropped
            && event.subject == victim.0
            && event.object == victim.1
            && event.syscall == victim.2
        {
            dropped = true;
            continue;
        }
        out.record(event.clone());
    }
    out
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
}
