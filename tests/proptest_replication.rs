//! Property tests on WAL log shipping: a primary whose log rotates at
//! *arbitrary* points is shipped frame by frame to a standby, with the
//! link failing at an *arbitrary* step — and the standby's durable state
//! is always an exact prefix of the primary's committed trail. Resuming
//! the link afterwards converges to full equality, losing nothing.

use proptest::prelude::*;
use rave::scene::{AuditEntry, NodeKind, SceneTree, SceneUpdate, StampedUpdate};
use rave::store::ship::{ShipAck, ShipFrame, Shipper, StandbyLog};
use rave::store::wal::Wal;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rave-prop-ship-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Append `n` AddNode updates to a fresh WAL under `dir` with the given
/// segment cap (small caps force rotation at arbitrary entry boundaries).
/// Returns the committed trail for prefix comparison.
fn build_primary(dir: &Path, n: u64, seg_bytes: u64) -> Vec<AuditEntry> {
    let mut tree = SceneTree::new();
    let (mut wal, _) = Wal::open(dir, seg_bytes, false).unwrap();
    let mut trail = Vec::new();
    for seq in 1..=n {
        let id = tree.allocate_id();
        let update = SceneUpdate::AddNode {
            id,
            parent: tree.root(),
            name: format!("n{seq}"),
            kind: NodeKind::Group,
        };
        update.apply(&mut tree).unwrap();
        let e = AuditEntry {
            at_secs: seq as f64 * 0.5,
            stamped: StampedUpdate { seq, origin: "prop".into(), update },
        };
        wal.append(&e).unwrap();
        trail.push(e);
    }
    wal.sync().unwrap();
    trail
}

/// Assert the standby directory recovers to EXACTLY the primary trail's
/// prefix of length `rec.last_seq` — never garbage, never a gap.
fn assert_exact_prefix(sdir: &Path, trail: &[AuditEntry]) -> u64 {
    let rec = rave::store::recover(sdir).unwrap();
    assert!(rec.last_seq <= trail.len() as u64, "standby never ahead of the primary");
    assert_eq!(rec.entries.len() as u64, rec.last_seq, "contiguous from seq 1");
    for (got, want) in rec.entries.iter().zip(trail) {
        assert_eq!(got, want, "shipped entry differs from committed entry");
    }
    let mut prefix = SceneTree::new();
    for e in &trail[..rec.last_seq as usize] {
        e.stamped.update.apply(&mut prefix).unwrap();
    }
    assert_eq!(rec.tree, prefix, "recovered tree is the prefix state");
    rec.last_seq
}

/// Drive the ship protocol one frame at a time until the plan is empty,
/// stopping early after `stop_after` frames (None = run to completion).
/// Returns the number of frames applied.
fn ship_until(
    shipper: &Shipper,
    standby: &mut StandbyLog,
    max_lag: u64,
    stop_after: Option<usize>,
) -> usize {
    let mut ack = ShipAck { last_seq: standby.last_seq(), resend: None };
    let mut steps = 0usize;
    loop {
        if let Some(limit) = stop_after {
            if steps >= limit {
                return steps;
            }
        }
        let frames = shipper.plan(ack.last_seq, ack.resend, max_lag, 1).unwrap();
        let Some(frame) = frames.into_iter().next() else { return steps };
        ack = standby.apply(&frame).unwrap().ack;
        steps += 1;
        assert!(steps < 10_000, "ship loop must converge");
    }
}

proptest! {
    /// Rotate the WAL at arbitrary points (tiny random segment caps),
    /// kill the link at an arbitrary ship step: the standby's durable
    /// state is an exact committed prefix. Re-establishing the link
    /// (fresh `StandbyLog::open` over the same directory, lag bound 0)
    /// then converges to the full trail — zero committed updates lost.
    #[test]
    fn failure_at_any_step_leaves_an_exact_prefix_and_resume_converges(
        n in 1u64..40,
        seg_bytes in 96u64..1024,
        max_lag in 0u64..6,
        fail_step in 0usize..60,
        case in any::<u64>(),
    ) {
        let pdir = tmp_dir("fail-p", case);
        let sdir = tmp_dir("fail-s", case);
        let trail = build_primary(&pdir, n, seg_bytes);
        let shipper = Shipper::new(&pdir);

        // Phase 1: ship until the injected failure (or until drained).
        let mut standby = StandbyLog::open(&sdir).unwrap();
        ship_until(&shipper, &mut standby, max_lag, Some(fail_step));
        let at_failure = standby.last_seq();
        drop(standby);
        let durable = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(durable, at_failure, "cursor matches what recovery sees");

        // Phase 2: the standby restarts and the link resumes from its
        // durable cursor; with no lag allowance it drains completely.
        let mut standby = StandbyLog::open(&sdir).unwrap();
        prop_assert_eq!(standby.last_seq(), at_failure, "resume from the durable prefix");
        ship_until(&shipper, &mut standby, 0, None);
        prop_assert_eq!(standby.last_seq(), n, "resume converges to the full trail");
        let full = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(full, n, "zero committed updates lost");

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }

    /// Corrupt one arbitrary byte of one arbitrary sealed frame on the
    /// wire: the standby declines it, asks for that segment again, and
    /// the re-shipped intact copy converges to full equality.
    #[test]
    fn torn_sealed_frame_is_declined_and_reshipped(
        n in 8u64..30,
        flip_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let pdir = tmp_dir("torn-p", case);
        let sdir = tmp_dir("torn-s", case);
        // 128-byte cap: several sealed segments for any n in range.
        let trail = build_primary(&pdir, n, 128);
        let shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();

        let mut ack = ShipAck { last_seq: 0, resend: None };
        let mut corrupted = false;
        let mut steps = 0usize;
        loop {
            let frames = shipper.plan(ack.last_seq, ack.resend, 0, 1).unwrap();
            let Some(mut frame) = frames.into_iter().next() else { break };
            if !corrupted {
                if let ShipFrame::Sealed { index, ref mut bytes } = frame {
                    let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
                    bytes[at] ^= 0xff;
                    let apply = standby.apply(&frame).unwrap();
                    prop_assert_eq!(apply.ack.resend, Some(index), "torn frame re-requested");
                    prop_assert_eq!(apply.ack.last_seq, ack.last_seq, "cursor does not move");
                    prop_assert!(apply.entries.is_empty(), "nothing applied from a torn frame");
                    ack = apply.ack;
                    corrupted = true;
                    continue;
                }
            }
            ack = standby.apply(&frame).unwrap().ack;
            steps += 1;
            prop_assert!(steps < 10_000, "ship loop must converge");
        }
        prop_assert!(corrupted, "a sealed frame was shipped and corrupted");
        prop_assert_eq!(standby.last_seq(), n);
        let full = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(full, n);

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}
