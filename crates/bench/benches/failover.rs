//! Data-service failover head to head, through the scheduler's own
//! `SchedEvent::DataFailure` handling: warm promotion of a log-shipped
//! standby (`rave_core::replica`) versus cold recovery from the durable
//! store when no standby exists (`bootstrap::recover_data_service`, which
//! rebuilds the session from snapshot + WAL and re-bootstraps every
//! subscriber), across scene sizes and lag settings. Both paths run in
//! the same simulated testbed, so "recovery time" is virtual time from
//! the failure until the last subscriber is served again: every byte of
//! replication and every control round trip is charged through the
//! network model. Emits `BENCH_failover.json` at the repo root. Set
//! `FAILOVER_QUICK=1` for a tiny CI smoke run (smaller sessions, same
//! JSON shape, same asserts).

use rave_core::replica::{establish_standby, run_log_shipping};
use rave_core::sched::rebalance::process_events;
use rave_core::sched::SchedEvent;
use rave_core::world::{publish_update, RaveWorld};
use rave_core::{DataServiceId, RaveConfig, RaveSim};
use rave_scene::{InterestSet, NodeKind, SceneUpdate};
use rave_sim::{SimTime, Simulation};
use rave_store::StoreConfig;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rave-bench-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn add(sim: &mut RaveSim, ds: DataServiceId, seq_hint: u64) {
    let id = sim.world.data_mut(ds).scene.allocate_id();
    publish_update(
        sim,
        ds,
        "bench",
        SceneUpdate::AddNode {
            id,
            parent: rave_scene::NodeId(0),
            name: format!("n{seq_hint}"),
            kind: NodeKind::Group,
        },
    )
    .unwrap();
}

struct ConfigResult {
    updates: u64,
    max_lag: u64,
    warm_secs: f64,
    cold_secs: f64,
    warm_replayed: u64,
    cold_replayed: u64,
    lost_updates: u64,
}

/// Warm path: standby kept in lockstep by log shipping; failure is a
/// `SchedEvent::DataFailure` and recovery is the promotion.
fn run_warm(updates: u64, max_lag: u64) -> (f64, u64, u64) {
    let cfg = RaveConfig { ship_max_lag: max_lag, ..Default::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 42));
    let primary = sim.world.spawn_data_service("adrenochrome", "sess");
    let standby = sim.world.spawn_data_service("tower", "sess-standby");
    let rs = sim.world.spawn_render_service("laptop");
    sim.world.data_mut(primary).subscribe_live(rs, InterestSet::everything());
    let pdir = tmp_dir(&format!("warm-p-{updates}-{max_lag}"));
    let sdir = tmp_dir(&format!("warm-s-{updates}-{max_lag}"));
    // Small segments force rotations (sealed-segment shipping); a huge
    // checkpoint interval keeps the whole WAL shippable.
    let store_cfg =
        StoreConfig { segment_max_bytes: 4096, checkpoint_every: u64::MAX / 2, sync_writes: false };
    sim.world.data_mut(primary).attach_store(&pdir, store_cfg).unwrap();
    establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();
    let horizon = sim.now() + SimTime::from_secs(600.0);
    run_log_shipping(&mut sim, primary, horizon);
    for i in 0..updates {
        add(&mut sim, primary, i);
    }
    sim.run();

    let t0 = sim.now();
    let outcome =
        process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
    assert_eq!(outcome.promotions.len(), 1, "warm world must promote");
    let report = outcome.promotions[0].clone();
    assert!(report.warm, "a linked standby promotes warm");
    assert_eq!(report.promoted, standby);
    if max_lag == 0 {
        assert_eq!(
            report.lost_updates, 0,
            "zero committed updates lost at lag 0 ({updates} updates)"
        );
    }
    sim.run();
    // The promoted service owns the session: the subscriber still
    // receives updates and sequence numbers continue.
    let before = sim.world.data(standby).audit.last_seq();
    add(&mut sim, standby, before + 1);
    sim.run();
    assert_eq!(sim.world.data(standby).audit.last_seq(), before + 1);

    let recovery = (report.completed_at - t0).as_secs();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
    (recovery, report.replayed_bytes, report.lost_updates)
}

/// Cold path: the primary logs to a durable store but has no standby,
/// so the scheduler rebuilds the session from the store on another host
/// and re-bootstraps the subscriber. Returns the recovery time and the
/// snapshot bytes the re-bootstrap ships.
fn run_cold(updates: u64) -> (f64, u64) {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 42));
    let primary = sim.world.spawn_data_service("adrenochrome", "sess");
    let rs = sim.world.spawn_render_service("laptop");
    sim.world.data_mut(primary).subscribe_live(rs, InterestSet::everything());
    let dir = tmp_dir(&format!("cold-{updates}"));
    let store_cfg =
        StoreConfig { checkpoint_every: sim.world.config.checkpoint_every, ..Default::default() };
    sim.world.data_mut(primary).attach_store(&dir, store_cfg).unwrap();
    for i in 0..updates {
        add(&mut sim, primary, i);
    }
    sim.run();

    let t0 = sim.now();
    let outcome =
        process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
    assert_eq!(outcome.promotions.len(), 1, "a store-backed primary recovers cold");
    let report = outcome.promotions[0].clone();
    assert!(!report.warm, "no standby: the recovery is cold");
    assert_eq!(report.lost_updates, 0, "the store holds every committed update");
    assert_eq!(report.subscribers_moved, 1);
    sim.run();
    let recovered = report.promoted;
    assert_eq!(sim.world.data(recovered).audit.last_seq(), updates, "store holds the whole trail");
    assert_eq!(sim.world.render(rs).scene, sim.world.data(recovered).scene, "re-bootstrapped");

    let recovery = (report.completed_at - t0).as_secs();
    let _ = std::fs::remove_dir_all(&dir);
    (recovery, report.replayed_bytes)
}

fn main() {
    let quick = std::env::var("FAILOVER_QUICK").is_ok_and(|v| v == "1");
    let configs: Vec<(u64, u64)> = if quick {
        vec![(200, 0), (600, 16)]
    } else {
        vec![(500, 0), (2000, 0), (2000, 16), (2000, 64), (8000, 0)]
    };

    let mut results: Vec<ConfigResult> = Vec::new();
    for &(updates, max_lag) in &configs {
        let (warm_secs, warm_replayed, lost) = run_warm(updates, max_lag);
        let (cold_secs, cold_replayed) = run_cold(updates);
        println!(
            "updates={updates} lag={max_lag}: warm {:.3} ms vs cold {:.3} ms \
             ({} vs {} bytes replayed, {lost} lost)",
            warm_secs * 1e3,
            cold_secs * 1e3,
            warm_replayed,
            cold_replayed,
        );
        results.push(ConfigResult {
            updates,
            max_lag,
            warm_secs,
            cold_secs,
            warm_replayed,
            cold_replayed,
            lost_updates: lost,
        });
    }

    let min_speedup =
        results.iter().map(|r| r.cold_secs / r.warm_secs).fold(f64::INFINITY, f64::min);

    let lines: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{ \"updates\": {}, \"max_lag\": {}, \
                 \"recovery_time\": {{ \"warm_secs\": {:.6}, \"cold_secs\": {:.6} }}, \
                 \"replayed_bytes\": {{ \"warm\": {}, \"cold\": {} }}, \
                 \"lost_updates\": {}, \"speedup\": {:.1} }}",
                r.updates,
                r.max_lag,
                r.warm_secs,
                r.cold_secs,
                r.warm_replayed,
                r.cold_replayed,
                r.lost_updates,
                r.cold_secs / r.warm_secs,
            )
        })
        .collect();

    let out = format!(
        "{{\n  \"bench\": \"failover\",\n  \"quick\": {quick},\n  \"configs\": [\n    {}\n  ],\n  \
         \"warm_vs_cold_speedup\": {min_speedup:.1}\n}}\n",
        lines.join(",\n    "),
    );
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_failover.json");
    std::fs::write(&dest, &out).unwrap();
    println!("{out}");
    println!("wrote {}", dest.display());

    for r in &results {
        assert!(
            r.warm_secs < r.cold_secs,
            "warm promotion ({:.4}s) must beat cold recovery ({:.4}s) \
             at {} updates, lag {}",
            r.warm_secs,
            r.cold_secs,
            r.updates,
            r.max_lag,
        );
        assert!(
            r.warm_replayed < r.cold_replayed,
            "warm promotion ships less than the cold re-bootstraps"
        );
        if r.max_lag == 0 {
            assert_eq!(r.lost_updates, 0, "lag 0 loses nothing");
        }
        assert!(
            r.lost_updates <= r.max_lag,
            "loss bounded by the configured lag ({} > {})",
            r.lost_updates,
            r.max_lag
        );
    }
}
