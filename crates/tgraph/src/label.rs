//! Node labels and label interning.
//!
//! System entities in syscall logs carry string names ("sshd", "/etc/passwd",
//! "socket:github.com:443"). Mining compares labels billions of times, so labels
//! are interned into dense `u32` ids once and compared as integers thereafter.

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;

/// A `HashMap` with fixed hash keys, for maps whose entries own heap memory.
///
/// Dropping such a map frees its entries in table order. Under std's per-process
/// random keys that order — and with it the allocator's free lists and the placement
/// of everything allocated afterwards — differs from one run of the same program to
/// the next, which showed as peak memory landing 3–20 % apart between identical runs.
/// With fixed keys the order is a function of the input. Same hash function, same
/// cost; the keys are labels of generated or mined data, none of it on the engine's
/// ingest path.
pub(crate) type StableMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// An interned node label.
///
/// Two labels are equal iff they were interned from the same string in the same
/// [`LabelInterner`]. The wrapped id is dense (0, 1, 2, ...) which lets label-indexed
/// tables be plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    /// Returns the dense integer id of this label.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// Returns the label id as a `usize`, convenient for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Bidirectional mapping between label strings and dense [`Label`] ids.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    by_name: StableMap<String, Label>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its label. Repeated calls with the same string
    /// return the same label.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.by_name.get(name) {
            return label;
        }
        let label = Label(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), label);
        label
    }

    /// Looks up a label by name without interning.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Returns the string that `label` was interned from, if it belongs to this interner.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.names.get(label.index()).map(String::as_str)
    }

    /// Returns the string for `label`, or a placeholder for foreign labels.
    pub fn name_or_placeholder(&self, label: Label) -> String {
        self.name(label)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("{label}"))
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(label, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("sshd");
        let b = interner.intern("sshd");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let c = interner.intern("c");
        assert_eq!((a.id(), b.id(), c.id()), (0, 1, 2));
    }

    #[test]
    fn name_round_trips() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("/etc/passwd");
        assert_eq!(interner.name(a), Some("/etc/passwd"));
        assert_eq!(interner.get("/etc/passwd"), Some(a));
        assert_eq!(interner.get("missing"), None);
    }

    #[test]
    fn foreign_label_gets_placeholder() {
        let interner = LabelInterner::new();
        assert_eq!(interner.name_or_placeholder(Label(7)), "L7");
    }

    #[test]
    fn iter_lists_all_labels_in_order() {
        let mut interner = LabelInterner::new();
        interner.intern("x");
        interner.intern("y");
        let collected: Vec<_> = interner
            .iter()
            .map(|(l, n)| (l.id(), n.to_owned()))
            .collect();
        assert_eq!(collected, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }
}
