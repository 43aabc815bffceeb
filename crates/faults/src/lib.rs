//! # faults — deterministic fault injection
//!
//! A seeded registry of named **failpoints** that fire on deterministic schedules
//! and return typed injected errors. The durability layer (`durable`) and the
//! streaming engines (`stream`) each accept an optional [`FaultPlan`]; armed
//! failpoints let tests and chaos harnesses drive the system through every failure
//! mode — fsync errors, torn rotations, dying shard workers, poison tenants —
//! without touching the filesystem or the scheduler.
//!
//! ## Inertness contract
//!
//! The plan follows the same rule as the `obs` crate's instrumentation: a layer
//! holding no plan pays exactly one `Option` branch on its hot path, and an armed
//! plan whose schedules never fire must not change behavior at all. Firing is a
//! pure function of `(seed, point name, hit index)` — two runs with the same plan
//! and the same call sequence inject the same faults at the same places, which is
//! what makes chaos runs replayable (`tests/chaos_parity.rs`).
//!
//! ## Failpoint names
//!
//! The well-known points threaded through the system (callers may arm any name;
//! unknown names simply never fire):
//!
//! | point            | checked in                                      |
//! |------------------|-------------------------------------------------|
//! | `wal.append`     | `durable`: before framing a record to the segment |
//! | `wal.fsync`      | `durable`: before each policy-driven `fsync`      |
//! | `wal.rotate`     | `durable`: before opening the next segment        |
//! | `snapshot.write` | `durable`: before writing a snapshot file         |
//! | `shard.worker`   | `stream`: before a sharded batch fans out         |
//! | `tenant.batch`   | `stream`: before a tenant pool demuxes a batch    |
//!
//! ## Example
//!
//! ```
//! use faults::{FaultPlan, FaultSchedule};
//!
//! let plan = FaultPlan::new(42);
//! plan.arm("wal.fsync", FaultSchedule::EveryNth(3));
//! assert!(plan.fires("wal.fsync").is_none()); // hit 1
//! assert!(plan.fires("wal.fsync").is_none()); // hit 2
//! let fault = plan.fires("wal.fsync").expect("hit 3 fires"); // hit 3
//! assert_eq!(fault.point, "wal.fsync");
//! assert!(plan.fires("unarmed.point").is_none());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// When an armed failpoint fires, counted in *hits* (calls to [`FaultPlan::fires`]
/// for that point, 1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSchedule {
    /// Fire on every `n`-th hit (hits `n`, `2n`, `3n`, …). `EveryNth(1)` fires on
    /// every hit — a permanently failing component.
    EveryNth(u64),
    /// Fire exactly once, on hit `k` (1-based), then never again.
    OneShotAt(u64),
    /// Fire each hit independently with probability `p`, derived deterministically
    /// from the plan seed, the point name, and the hit index — the same plan replays
    /// the same faults.
    Probability(f64),
}

/// The typed error an armed failpoint returns when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint that fired.
    pub point: String,
    /// Which firing this is for the point (1-based count of fires, not hits).
    pub occurrence: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault at {} (occurrence {})",
            self.point, self.occurrence
        )
    }
}

impl std::error::Error for InjectedFault {}

impl InjectedFault {
    /// This fault as an `std::io::Error` (the shape WAL I/O paths propagate).
    /// Recoverable via [`InjectedFault::from_io`].
    pub fn into_io_error(self) -> std::io::Error {
        std::io::Error::other(self)
    }

    /// The [`InjectedFault`] inside an I/O error, if that is what it wraps.
    pub fn from_io(error: &std::io::Error) -> Option<&InjectedFault> {
        error
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<InjectedFault>())
    }
}

#[derive(Debug)]
struct PointState {
    schedule: FaultSchedule,
    hits: u64,
    fired: u64,
}

#[derive(Debug, Default)]
struct PlanInner {
    seed: u64,
    points: Mutex<BTreeMap<String, PointState>>,
}

/// A seeded registry of armed failpoints. Cheap to clone (shared state), safe to
/// consult from shard worker threads.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// An empty plan. `seed` only matters for [`FaultSchedule::Probability`] points.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Arc::new(PlanInner {
                seed,
                points: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Arms (or re-arms, resetting its counters) a failpoint.
    pub fn arm(&self, point: &str, schedule: FaultSchedule) {
        if let FaultSchedule::Probability(p) = schedule {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        }
        self.lock().insert(
            point.to_string(),
            PointState {
                schedule,
                hits: 0,
                fired: 0,
            },
        );
    }

    /// Disarms a failpoint; it never fires again until re-armed.
    pub fn disarm(&self, point: &str) {
        self.lock().remove(point);
    }

    /// Consults the failpoint: counts one hit and returns the typed fault if the
    /// schedule says this hit fires. Unarmed points never fire and keep no state.
    pub fn fires(&self, point: &str) -> Option<InjectedFault> {
        let mut points = self.lock();
        let state = points.get_mut(point)?;
        state.hits += 1;
        let fire = match state.schedule {
            FaultSchedule::EveryNth(n) => n > 0 && state.hits.is_multiple_of(n),
            FaultSchedule::OneShotAt(k) => state.hits == k,
            FaultSchedule::Probability(p) => {
                let roll = splitmix64(
                    self.inner
                        .seed
                        .wrapping_add(fnv1a(point))
                        .wrapping_add(state.hits),
                );
                // Top 53 bits give a uniform float in [0, 1).
                ((roll >> 11) as f64) / ((1u64 << 53) as f64) < p
            }
        };
        if !fire {
            return None;
        }
        state.fired += 1;
        Some(InjectedFault {
            point: point.to_string(),
            occurrence: state.fired,
        })
    }

    /// Times the point has been consulted.
    pub fn hits(&self, point: &str) -> u64 {
        self.lock().get(point).map_or(0, |s| s.hits)
    }

    /// Times the point has fired.
    pub fn fired(&self, point: &str) -> u64 {
        self.lock().get(point).map_or(0, |s| s.fired)
    }

    /// Total fires across all points.
    pub fn total_fired(&self) -> u64 {
        self.lock().values().map(|s| s.fired).sum()
    }

    /// The armed point names, sorted.
    pub fn armed_points(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, PointState>> {
        self.inner
            .points
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The splitmix64 finalizer (public-domain constants) — the same mixer the tenant
/// router uses, so probability rolls are strong even for sequential hit indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the point name: folds the name into the probability stream so two
/// points armed at the same probability fire independently.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nth_fires_on_exact_multiples() {
        let plan = FaultPlan::new(0);
        plan.arm("wal.append", FaultSchedule::EveryNth(3));
        let fired: Vec<bool> = (0..9).map(|_| plan.fires("wal.append").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.hits("wal.append"), 9);
        assert_eq!(plan.fired("wal.append"), 3);
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let plan = FaultPlan::new(0);
        plan.arm("wal.rotate", FaultSchedule::OneShotAt(2));
        assert!(plan.fires("wal.rotate").is_none());
        let fault = plan.fires("wal.rotate").expect("hit 2 fires");
        assert_eq!(fault.occurrence, 1);
        for _ in 0..10 {
            assert!(plan.fires("wal.rotate").is_none());
        }
    }

    #[test]
    fn probability_is_deterministic_per_seed_and_point() {
        let outcome = |seed: u64, point: &str| -> Vec<bool> {
            let plan = FaultPlan::new(seed);
            plan.arm(point, FaultSchedule::Probability(0.5));
            (0..64).map(|_| plan.fires(point).is_some()).collect()
        };
        assert_eq!(outcome(7, "wal.fsync"), outcome(7, "wal.fsync"));
        assert_ne!(
            outcome(7, "wal.fsync"),
            outcome(8, "wal.fsync"),
            "different seeds give different fault streams"
        );
        assert_ne!(
            outcome(7, "wal.fsync"),
            outcome(7, "wal.append"),
            "different points fire independently under one seed"
        );
        let fired = outcome(7, "wal.fsync").iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 over 64 hits: {fired}");
    }

    #[test]
    fn probability_extremes_never_and_always_fire() {
        let plan = FaultPlan::new(1);
        plan.arm("never", FaultSchedule::Probability(0.0));
        plan.arm("always", FaultSchedule::Probability(1.0));
        for _ in 0..32 {
            assert!(plan.fires("never").is_none());
            assert!(plan.fires("always").is_some());
        }
    }

    #[test]
    fn unarmed_points_never_fire_and_disarm_works() {
        let plan = FaultPlan::new(0);
        assert!(plan.fires("anything").is_none());
        assert_eq!(plan.hits("anything"), 0);
        plan.arm("x", FaultSchedule::EveryNth(1));
        assert!(plan.fires("x").is_some());
        plan.disarm("x");
        assert!(plan.fires("x").is_none());
    }

    #[test]
    fn injected_faults_round_trip_through_io_errors() {
        let fault = InjectedFault {
            point: "wal.fsync".into(),
            occurrence: 3,
        };
        let io = fault.clone().into_io_error();
        assert_eq!(InjectedFault::from_io(&io), Some(&fault));
        let real = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        assert!(InjectedFault::from_io(&real).is_none());
        assert!(io.to_string().contains("wal.fsync"));
    }

    #[test]
    fn clones_share_state_across_threads() {
        let plan = FaultPlan::new(0);
        plan.arm("shard.worker", FaultSchedule::EveryNth(1));
        let clone = plan.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                assert!(clone.fires("shard.worker").is_some());
            });
        });
        assert_eq!(plan.fired("shard.worker"), 1);
        assert_eq!(plan.total_fired(), 1);
    }
}
