//! Whole-session benchmark for RAVE-RS.
//!
//! Each workload drives a RAVE session through the public `rave-core`
//! API from one driver thread: set-up (world, scene, WAL, standby,
//! bootstraps, first placement), then a fixed number of *epochs* of
//! driver steps (the scored window). A run replays that seeded session
//! until its time is up. In host time the driver is a closed loop (the
//! next step starts when the previous returns); in virtual time it is an
//! open loop (edit batches fall due on a fixed schedule and latency
//! counts from the due time). Virtual-clock figures and counts depend
//! only on the seed; host-clock figures cover every session of the run.

pub mod churn;
pub mod clock;
pub mod common;
pub mod metrics;
pub mod run;
pub mod storm;
pub mod stream;
pub mod trace;

pub use common::Size;

use common::Ops;
use std::collections::BTreeMap;
use trace::Tracer;

/// Virtual-clock figures and counts of a session's scored window, by
/// metric name. Bit-identical for one seed.
pub type Observed = BTreeMap<String, f64>;

/// A benchmark workload: one RAVE session shape.
pub trait Session: Sized {
    /// Driver steps per epoch (an epoch is the unit `wall_s` times).
    const STEPS_PER_EPOCH: usize;

    /// Epochs in one session: the scored window.
    fn scored_epochs(size: Size) -> usize;

    /// Build the session; everything before the first timed step.
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Self;

    /// One driver step.
    fn step(&mut self, tr: &mut Tracer);

    /// Virtual-clock metrics and counts so far.
    fn observe(&mut self) -> Observed;

    /// Quiesce, run the end-of-run output checks, remove scratch
    /// directories. Returns every operation attempted and failed.
    fn close(self) -> Ops;
}
