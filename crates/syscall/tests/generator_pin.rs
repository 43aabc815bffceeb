//! What "same bytes" means for the generators: an FNV-1a over everything
//! [`TrainingData::generate`] and [`TestData::generate`] return — every graph's labels
//! and edges, the interner's names in id order, the ground-truth instances and
//! `max_duration` — equals a constant computed on the parent of the commit that made
//! the test stream draw its background noise in full but render only what it keeps.
//!
//! The RNG stream is the format: a generator change that keeps the draws and their
//! order keeps these constants. One that moves them is a new dataset, and every
//! measured number before it is incomparable with every one after.
//!
//! The `#[ignore]`d cases are the benchmark's own input (628 k+ events) and Table 2's
//! `paper` inputs (9.7 M test events, pinned on the parent of the commit that made
//! entity names `Copy` and stepped over the undrawn noise); CI runs them in release
//! with `--include-ignored`.

use syscall::{DatasetConfig, TestData, TestDataConfig, TrainingData};
use tgraph::{LabelInterner, TemporalGraph};

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn graph(&mut self, graph: &TemporalGraph) {
        self.word(graph.node_count() as u64);
        for label in graph.labels() {
            self.word(u64::from(label.id()));
        }
        self.word(graph.edge_count() as u64);
        for edge in graph.edges() {
            self.word(edge.ts);
            self.word(edge.src as u64);
            self.word(edge.dst as u64);
        }
    }

    fn interner(&mut self, interner: &LabelInterner) {
        self.word(interner.len() as u64);
        for (_, name) in interner.iter() {
            self.word(name.len() as u64);
            self.bytes(name.as_bytes());
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn training_print(training: &TrainingData) -> u64 {
    let mut h = Fnv::default();
    for dataset in &training.behaviors {
        h.bytes(dataset.behavior.name().as_bytes());
        h.word(dataset.graphs.len() as u64);
        for graph in &dataset.graphs {
            h.graph(graph);
        }
    }
    h.word(training.background.len() as u64);
    for graph in &training.background {
        h.graph(graph);
    }
    h.interner(&training.interner);
    h.finish()
}

fn test_print(test: &TestData) -> u64 {
    let mut h = Fnv::default();
    h.graph(&test.graph);
    h.interner(&test.interner);
    h.word(test.instances.len() as u64);
    for instance in &test.instances {
        h.bytes(instance.behavior.name().as_bytes());
        h.word(instance.start_ts);
        h.word(instance.end_ts);
    }
    h.word(test.max_duration);
    h.finish()
}

/// The test stream of `config` over `training`'s labels, checked against its pin.
fn check_test(training: &TrainingData, config: TestDataConfig, events: usize, pinned: u64) {
    let test = TestData::generate(&config, training.interner.clone());
    let print = test_print(&test);
    assert_eq!(
        (test.graph.edge_count(), print),
        (events, pinned),
        "{config:?}: {} events, print {print:#018x}",
        test.graph.edge_count()
    );
}

#[test]
fn tiny_inputs_are_the_pinned_bytes() {
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let print = training_print(&training);
    assert_eq!(print, 0xb186_9b5d_6fe7_5182, "training print {print:#018x}");
    check_test(
        &training,
        TestDataConfig::tiny(),
        3_135,
        0x9b3c_9795_e3e1_4a56,
    );
    // No training labels at all: every label of the stream is interned by it.
    let test = TestData::generate(&TestDataConfig::tiny(), LabelInterner::new());
    let print = test_print(&test);
    assert_eq!(
        print, 0x8662_692d_1a7a_6cfb,
        "print over an empty interner {print:#018x}"
    );
}

#[test]
fn small_inputs_are_the_pinned_bytes() {
    let training = TrainingData::generate(&DatasetConfig::small());
    let print = training_print(&training);
    assert_eq!(print, 0x3d36_1d4f_185f_49a2, "training print {print:#018x}");
    check_test(
        &training,
        TestDataConfig::small(),
        37_887,
        0x2390_df34_355e_389f,
    );
}

#[test]
fn noise_longer_than_a_background_window_pads_with_idle_reads() {
    // A tiny-config background window is 749 events; 1,000 between activities
    // reaches the `idle → /proc/loadavg` padding after every window.
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let config = TestDataConfig {
        instances: 12,
        noise_between: 1_000,
        ..TestDataConfig::tiny()
    };
    check_test(&training, config, 13_759, 0x7cd9_1cc9_51b1_9490);
}

#[test]
#[ignore = "the benchmark's input: 628 k+ events, run in release"]
fn the_benchmark_input_is_the_pinned_bytes() {
    let training = TrainingData::generate(&DatasetConfig::small());
    let config = TestDataConfig {
        instances: 4_000,
        seed: 2015 ^ 0xBEEF,
        ..TestDataConfig::small()
    };
    check_test(&training, config, 629_080, 0x40d6_3729_966a_8795);
}

#[test]
#[ignore = "Table 2's `paper` inputs: 9.7 M test events, run in release"]
fn paper_inputs_are_the_pinned_bytes() {
    let training = TrainingData::generate(&DatasetConfig::paper());
    let print = training_print(&training);
    assert_eq!(print, 0xfd98_2514_30c0_35a6, "training print {print:#018x}");
    check_test(
        &training,
        TestDataConfig::paper(),
        9_676_411,
        0x7ea9_0ea8_8d2e_375e,
    );
}
