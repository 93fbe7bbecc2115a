//! What the three workloads share: the timed calls into each layer, the
//! books those calls keep, the output checks, and the session's scratch
//! directories.

use crate::trace::Tracer;
use crate::Observed;
use rave_core::bootstrap::connect_render_service;
use rave_core::data_service::FanoutTotals;
use rave_core::migration::check_and_replan_incremental;
use rave_core::replica::{establish_standby, ship_tick};
use rave_core::trace::TraceKind;
use rave_core::world::{publish_batch, RaveSim};
use rave_core::{DataServiceId, RenderServiceId};
use rave_net::{LinkSpec, Network};
use rave_scene::{InterestSet, NodeKind, SceneTree, SceneUpdate};
use rave_sim::{SimRng, SimTime};
use rave_store::{Store, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workload size: `Full` is what the benchmark runs; `Small` keeps the
/// same shape at a fraction of the cost for the determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Attempted operations and the ones that failed (publishes, frames,
/// replans, output checks). A failure keeps a one-line reason.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Counters the driver keeps around its own calls. Everything here is a
/// function of the seed: no host time enters.
#[derive(Debug, Default)]
pub struct Books {
    pub updates: u64,
    /// The worst delay of a publish behind its due time.
    pub max_late_ms: f64,
    /// Virtual ms from a batch's due time to its apply on the last
    /// interested replica, one sample per batch.
    pub edit_apply_ms: Vec<f64>,
    pub replans: u64,
    pub deferred: u64,
    pub full_replays: u64,
    pub replayed_units: u64,
    pub moved_units: u64,
    pub refusals: u64,
    /// Bytes charged for migrations and first placements
    /// (`max(data_bytes, 256)` per unit, as `rave-core` charges them).
    pub migration_bytes: u64,
    pub snapshot_bytes: u64,
    /// Virtual ms from set-up start until the last set-up replica is live.
    pub ready_ms: f64,
    pub failover_gap_ms: Vec<f64>,
    pub lost_updates: u64,
    /// Counters of data services and replica links that have died: the
    /// world forgets them, the books do not.
    pub retired_fanout: FanoutTotals,
    pub retired_ship_frames: u64,
    pub retired_ship_bytes: u64,
    /// Standbys re-established from a copy of the primary's store, and
    /// the bytes copied.
    pub reseeds: u64,
    pub reseed_bytes: u64,
    pub last_seq: u64,
}

/// Scratch space for WAL and standby directories, inside the working
/// directory, removed when the session closes.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    pub next: u32,
}

impl Scratch {
    pub fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Several sessions may be alive at once (set-up repeats, tests).
        static SESSIONS: AtomicU32 = AtomicU32::new(0);
        let n = SESSIONS.fetch_add(1, Ordering::Relaxed);
        let root = Path::new(".sessbench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    pub fn dir(&mut self, name: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{name}-{}", self.next))
    }

    /// Remove everything; returns whether the directory is really gone.
    pub fn remove(&self) -> bool {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds once no other session is using it.
            let _ = std::fs::remove_dir(parent);
        }
        !self.root.exists()
    }
}

/// A switched machine room: `segments` 100 Mbit LANs of `hosts` hosts
/// each (`host{s}x{h}`), fully bridged.
pub fn machine_room(segments: usize, hosts: usize) -> Network {
    let mut net = Network::new();
    net.set_default_inter_link(LinkSpec::ethernet_100mb());
    for s in 0..segments {
        let seg = format!("seg{s}");
        net.add_segment(&seg, LinkSpec::ethernet_100mb());
        for h in 0..hosts {
            net.add_host(&format!("host{s}x{h}"), &seg);
        }
    }
    net
}

/// Give `primary` a durable store seeded with its current scene (a base
/// checkpoint, so recovery never needs updates from before the store
/// existed) and a warm standby on `standby_host` whose replica starts
/// from the same base. Returns the standby.
pub fn attach_wal_and_standby(
    sim: &mut RaveSim,
    primary: DataServiceId,
    standby_host: &str,
    scratch: &mut Scratch,
) -> DataServiceId {
    let cfg = StoreConfig {
        checkpoint_every: sim.world.config.checkpoint_every,
        ..StoreConfig::default()
    };
    let pdir = scratch.dir("primary");
    let sdir = scratch.dir("standby");
    let base = sim.world.data(primary).scene.clone();
    for dir in [&pdir, &sdir] {
        let mut store = Store::open(dir, cfg).expect("open scratch store");
        store.checkpoint(&base, sim.now().as_secs()).expect("write base checkpoint");
    }
    sim.world.data_mut(primary).attach_store(&pdir, cfg).expect("attach primary store");
    let name = format!("{}-standby", sim.world.data(primary).name);
    let standby = sim.world.spawn_data_service(standby_host, &name);
    sim.world.data_mut(standby).scene = base;
    let seq = sim.world.data(primary).audit.last_seq();
    sim.world.data_mut(standby).observe_seq(seq);
    establish_standby(sim, primary, standby, &pdir, &sdir).expect("establish standby");
    standby
}

/// `Simulation::run`: drain the event queue.
pub fn drain(sim: &mut RaveSim, tr: &mut Tracer) {
    let before = sim.executed();
    tr.span("sim.dispatch", || sim.run());
    tr.count("sim.events", sim.executed() - before);
}

/// `Simulation::run_until`.
pub fn run_until(sim: &mut RaveSim, until: SimTime, tr: &mut Tracer) {
    let before = sim.executed();
    tr.span("sim.dispatch", || sim.run_until(until));
    tr.count("sim.events", sim.executed() - before);
}

/// `Simulation::step`: run one event; false when the queue is empty.
pub fn step_one(sim: &mut RaveSim, tr: &mut Tracer) -> bool {
    let ran = tr.span("sim.dispatch", || sim.step());
    tr.count("sim.events", ran as u64);
    ran
}

/// Publish one batch through `publish_batch`, at `due` or as soon after
/// as the driver gets there. Checks that sequence numbers continue
/// without a gap from the previous batch (also across a failover).
pub fn publish(
    sim: &mut RaveSim,
    ds: DataServiceId,
    due: SimTime,
    updates: Vec<(String, SceneUpdate)>,
    tr: &mut Tracer,
    books: &mut Books,
    ops: &mut Ops,
) -> Vec<u64> {
    let late = (sim.now().as_secs() - due.as_secs()) * 1e3;
    books.max_late_ms = books.max_late_ms.max(late);
    let n = updates.len() as u64;
    let result = tr.span("core.publish", || publish_batch(sim, ds, updates));
    ops.record(result.is_ok(), || format!("publish failed: {:?}", result.as_ref().err()));
    let seqs = result.unwrap_or_default();
    books.updates += seqs.len() as u64;
    tr.count("core.updates", seqs.len() as u64);
    let contiguous = seqs.len() as u64 == n
        && seqs.iter().enumerate().all(|(i, &s)| s == books.last_seq + 1 + i as u64);
    ops.record(contiguous || books.last_seq == 0, || {
        format!("sequence gap: after {} got {:?}", books.last_seq, seqs.first())
    });
    if let Some(&last) = seqs.last() {
        books.last_seq = last;
    }
    seqs
}

/// Publish a batch at `due` and drain the queue: with nothing else in
/// flight, the last event run is the batch's apply on its last
/// interested replica, so `now - due` is the batch's edit-apply latency.
pub fn publish_and_apply(
    sim: &mut RaveSim,
    ds: DataServiceId,
    due: SimTime,
    updates: Vec<(String, SceneUpdate)>,
    tr: &mut Tracer,
    books: &mut Books,
    ops: &mut Ops,
) {
    run_until(sim, due, tr);
    ops.record(sim.pending() == 0, || format!("{} events in flight at publish", sim.pending()));
    let before = sim.executed();
    publish(sim, ds, due, updates, tr, books, ops);
    drain(sim, tr);
    if sim.executed() > before {
        books.edit_apply_ms.push((sim.now().as_secs() - due.as_secs()) * 1e3);
    }
}

/// One replication round through `replica::ship_tick`. When the
/// primary has compacted away history the standby still needs (a
/// checkpoint landed after a segment sealed but before it shipped),
/// `ship_tick` asks for the standby to be re-established from a
/// snapshot; the driver does that (booked in `Books::reseeds`) and ships
/// again. Any other error is a failed operation.
pub fn ship(
    sim: &mut RaveSim,
    primary: DataServiceId,
    tr: &mut Tracer,
    books: &mut Books,
    ops: &mut Ops,
    scratch: &mut Scratch,
) {
    let mut result = tr.span("store.ship", || ship_tick(sim, primary));
    if matches!(&result, Err(e) if e.to_string().contains("re-establish")) {
        books.reseeds += 1;
        let host = sim.world.replicas.get(&primary).map(|l| sim.world.data(l.standby).host.clone());
        let host = host.expect("a ship error implies a link");
        let reseeded =
            tr.span("store.reseed", || reseed_standby(sim, primary, &host, scratch, books));
        ops.record(reseeded.is_ok(), || {
            format!("re-seeding the standby failed: {:?}", reseeded.err())
        });
        result = tr.span("store.ship", || ship_tick(sim, primary));
    }
    ops.record(result.is_ok(), || format!("ship_tick failed: {:?}", result.err()));
}

/// Stand up a fresh standby for `primary` on `host` from a copy of the
/// primary's store directory (its latest snapshot plus the retained WAL),
/// replacing the current standby if there is one.
pub fn reseed_standby(
    sim: &mut RaveSim,
    primary: DataServiceId,
    host: &str,
    scratch: &mut Scratch,
    books: &mut Books,
) -> std::io::Result<DataServiceId> {
    if let Some(link) = sim.world.replicas.remove(&primary) {
        books.retired_ship_frames += link.shipped_frames;
        books.retired_ship_bytes += link.shipped_bytes;
        if let Some(old) = sim.world.data_services.remove(&link.standby) {
            sim.world.registry.unpublish("RAVE", &old.host, &old.name);
        }
    }
    sim.world.data_mut(primary).sync_persistence()?;
    let pdir = sim.world.data(primary).store_dir.clone().expect("primary has a store");
    let sdir = scratch.dir("standby");
    std::fs::create_dir_all(&sdir)?;
    for entry in std::fs::read_dir(&pdir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), sdir.join(entry.file_name()))?;
        }
    }
    books.reseed_bytes += dir_bytes(&sdir);
    let name = format!("{}-standby-{}", sim.world.data(primary).name, scratch.next);
    let standby = sim.world.spawn_data_service(host, &name);
    establish_standby(sim, primary, standby, &pdir, &sdir)?;
    Ok(standby)
}

/// One `check_and_replan_incremental` pass, booked, with the plan's cost
/// conservation checked afterwards.
pub fn replan(
    sim: &mut RaveSim,
    ds: DataServiceId,
    tr: &mut Tracer,
    books: &mut Books,
    ops: &mut Ops,
) {
    let out = tr.span("sched.replan", || check_and_replan_incremental(sim, ds));
    books.replans += 1;
    if out.deferred {
        books.deferred += 1;
    }
    if out.migration.refused {
        books.refusals += 1;
    }
    ops.record(!out.migration.refused, || format!("replan refused on {ds}"));
    if let Some(diff) = &out.diff {
        books.full_replays += diff.full_replay as u64;
        books.replayed_units += diff.replayed as u64;
        books.moved_units += diff.moved.len() as u64;
        let scene = &sim.world.data(ds).scene;
        books.migration_bytes += diff
            .moved
            .iter()
            .map(|&(n, _, _)| scene.node(n).map_or(0, |n| n.own_cost().data_bytes).max(256))
            .sum::<u64>();
    }
    check_plan_conserves_cost(sim, ds, ops);
}

/// The scene's distributable cost: what the planner must place.
fn distributable_polygons(scene: &SceneTree) -> u64 {
    scene
        .iter_nodes()
        .filter(|n| !matches!(n.kind(), NodeKind::Avatar(_) | NodeKind::Camera(_)))
        .map(|n| n.own_cost().polygons)
        .sum()
}

/// Output check: the persistent plan places exactly the scene's
/// distributable polygons, each unit once.
pub fn check_plan_conserves_cost(sim: &RaveSim, ds: DataServiceId, ops: &mut Ops) {
    let Some(plan) = sim.world.sched.plans.get(&ds) else { return };
    let placed: u64 = plan.assignments().iter().map(|(_, _, c)| c.polygons).sum();
    let demand = distributable_polygons(&sim.world.data(ds).scene);
    ops.record(placed == demand, || format!("plan places {placed} of {demand} polygons"));
}

/// Output check: every full-replica subscriber equals the master scene,
/// and every narrow one holds its interest closure node for node.
pub fn check_replicas(sim: &RaveSim, ds: DataServiceId, ops: &mut Ops) {
    let data = sim.world.data(ds);
    let master = &data.scene;
    for (&rs_id, sub) in &data.subscribers {
        let replica = &sim.world.render(rs_id).scene;
        let ok = if sub.interest.is_everything() {
            replica.len() == master.len()
                && master
                    .iter_nodes()
                    .all(|n| replica.node(n.id()).map(|r| r.to_node()) == Some(n.to_node()))
        } else {
            sub.interest.roots().filter(|&r| master.contains(r)).all(|root| {
                master.descendants_iter(root).all(|n| {
                    let id = n.id();
                    let (m, r) = (master.node(id), replica.node(id));
                    match (m, r) {
                        (Some(m), Some(r)) => {
                            m.name() == r.name()
                                && m.transform() == r.transform()
                                && m.kind() == r.kind()
                                && m.children().eq(r.children())
                        }
                        _ => false,
                    }
                })
            })
        };
        ops.record(ok, || format!("replica {rs_id} diverged from {ds}"));
    }
}

/// Output check: the standby's applied log is an exact prefix of the
/// primary's audit trail, aligned by sequence number (a re-seeded
/// standby starts at the snapshot it was seeded from).
pub fn check_standby_prefix(sim: &RaveSim, primary: DataServiceId, ops: &mut Ops) {
    let Some(link) = sim.world.replicas.get(&primary) else { return };
    let p = sim.world.data(primary).audit.entries();
    let s = sim.world.data(link.standby).audit.entries();
    let aligned = match (p.first(), s.first()) {
        (_, None) => true,
        (Some(p0), Some(s0)) if s0.stamped.seq >= p0.stamped.seq => {
            let at = (s0.stamped.seq - p0.stamped.seq) as usize;
            p.len() >= at + s.len() && p[at..at + s.len()] == *s
        }
        _ => false,
    };
    ops.record(aligned, || format!("standby {} log is not a prefix of {primary}'s", link.standby));
}

/// Book what dies with a failed data service before the world drops it.
pub fn retire_data_service(sim: &RaveSim, ds: DataServiceId, books: &mut Books) {
    let f = sim.world.data(ds).fanout;
    let r = &mut books.retired_fanout;
    r.transmissions += f.transmissions;
    r.wire_bytes += f.wire_bytes;
    r.unicast_wire_bytes += f.unicast_wire_bytes;
    r.skipped_receivers += f.skipped_receivers;
    if let Some(link) = sim.world.replicas.get(&ds) {
        books.retired_ship_frames += link.shipped_frames;
        books.retired_ship_bytes += link.shipped_bytes;
    }
}

/// Cumulative counters of the whole world (live plus retired), read at
/// the end of set-up and at the end of the scored window; the session's
/// figures are the difference.
pub fn world_totals(sim: &RaveSim, books: &Books) -> BTreeMap<&'static str, f64> {
    let mut f = books.retired_fanout;
    for ds in sim.world.data_services.values() {
        f.transmissions += ds.fanout.transmissions;
        f.wire_bytes += ds.fanout.wire_bytes;
        f.unicast_wire_bytes += ds.fanout.unicast_wire_bytes;
        f.skipped_receivers += ds.fanout.skipped_receivers;
    }
    let mut ship_frames = books.retired_ship_frames;
    let mut ship_bytes = books.retired_ship_bytes;
    for link in sim.world.replicas.values() {
        ship_frames += link.shipped_frames;
        ship_bytes += link.shipped_bytes;
    }
    let (mut frame_bytes, mut frames) = (0u64, 0u64);
    for c in sim.world.thin_clients.values() {
        frame_bytes += c.stats.encoded_bytes;
        frames += c.stats.frames;
    }
    let mut t = BTreeMap::new();
    t.insert("net.multicast_bytes", f.wire_bytes as f64);
    t.insert("net.unicast_bytes", f.unicast_wire_bytes as f64);
    t.insert("net.transmissions", f.transmissions as f64);
    t.insert("net.skipped_receivers", f.skipped_receivers as f64);
    t.insert("store.ship_frames", ship_frames as f64);
    t.insert("store.ship_bytes", ship_bytes as f64);
    t.insert("store.checkpoints", sim.world.trace.count(TraceKind::Checkpoint) as f64);
    t.insert("sim.events", sim.executed() as f64);
    t.insert("frames.bytes", frame_bytes as f64);
    t.insert("frames.displayed", frames as f64);
    t.insert("core.updates", books.updates as f64);
    t.insert("sched.replans", books.replans as f64);
    t.insert("sched.deferred", books.deferred as f64);
    t.insert("sched.full_replays", books.full_replays as f64);
    t.insert("sched.replayed_units", books.replayed_units as f64);
    t.insert("sched.moved_units", books.moved_units as f64);
    t.insert("sched.refusals", books.refusals as f64);
    t.insert("sched.migration_bytes", books.migration_bytes as f64);
    t.insert("bootstrap.snapshot_bytes", books.snapshot_bytes as f64);
    t.insert("store.reseeds", books.reseeds as f64);
    t.insert("store.reseed_bytes", books.reseed_bytes as f64);
    t
}

/// Bytes a directory tree occupies.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Connect a render service through `bootstrap::connect_render_service`;
/// returns when its replica goes live (virtual).
pub fn join(
    sim: &mut RaveSim,
    rs: RenderServiceId,
    ds: DataServiceId,
    interest: InterestSet,
    tr: &mut Tracer,
    books: &mut Books,
) -> SimTime {
    let t = tr.span("bootstrap.join", || connect_render_service(sim, rs, ds, interest));
    books.snapshot_bytes += t.snapshot_bytes;
    t.ready_at
}

/// Interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The figures every workload reports, over the session so far: the
/// difference between the world's counters now and at the end of set-up.
pub fn observe(
    sim: &RaveSim,
    ds: DataServiceId,
    books: &Books,
    base: &BTreeMap<&'static str, f64>,
    start: SimTime,
) -> Observed {
    let now = world_totals(sim, books);
    let d = |k: &str| now[k] - base[k];
    let mb = 1e-6;
    let mut o = Observed::new();
    let mut put = |k: &str, v: f64| {
        o.insert(k.to_string(), v);
    };
    put("edit_apply_ms_p50", quantile(&books.edit_apply_ms, 0.50));
    put("edit_apply_ms_p95", quantile(&books.edit_apply_ms, 0.95));
    put("publish_late_ms", books.max_late_ms);
    let wire = d("net.multicast_bytes")
        + d("frames.bytes")
        + d("store.ship_bytes")
        + d("sched.migration_bytes")
        + d("bootstrap.snapshot_bytes")
        + d("store.reseed_bytes");
    put("wire_mb", wire * mb);
    put("sim.events", d("sim.events"));
    put("core.updates", d("core.updates"));
    put("store.checkpoints", d("store.checkpoints"));
    let wal = sim.world.data(ds).store_dir.as_deref().map_or(0, dir_bytes);
    put("store.wal_mb", wal as f64 * mb);
    put("store.ship_frames", d("store.ship_frames"));
    put("store.ship_mb", d("store.ship_bytes") * mb);
    put("store.reseeds", d("store.reseeds"));
    put("scene.nodes", sim.world.data(ds).scene.len() as f64);
    let replica_nodes: usize = sim.world.render_services.values().map(|rs| rs.scene.len()).sum();
    put("scene.replica_nodes", replica_nodes as f64);
    put("net.multicast_mb", d("net.multicast_bytes") * mb);
    put("net.unicast_mb", d("net.unicast_bytes") * mb);
    let unicast = d("net.unicast_bytes");
    put("net.wire_ratio", if unicast > 0.0 { d("net.multicast_bytes") / unicast } else { 1.0 });
    put("net.transmissions", d("net.transmissions"));
    put("net.skipped_receivers", d("net.skipped_receivers"));
    for k in [
        "sched.replans",
        "sched.deferred",
        "sched.full_replays",
        "sched.replayed_units",
        "sched.moved_units",
        "sched.refusals",
    ] {
        put(k, d(k));
    }
    put("bootstrap.snapshot_mb", books.snapshot_bytes as f64 * mb);
    put("bootstrap.ready_ms", books.ready_ms);
    put("failover_gap_ms", quantile(&books.failover_gap_ms, 0.5));
    put("lost_updates", books.lost_updates as f64);
    frame_figures(sim, start, &mut o);
    o
}

/// Frame-path and codec figures over every thin client (zeros when the
/// workload streams no frames).
fn frame_figures(sim: &RaveSim, start: SimTime, o: &mut Observed) {
    let span = sim.now() - start;
    let clients: Vec<_> = sim.world.thin_clients.values().collect();
    let n = clients.len().max(1) as f64;
    let sum = |f: &dyn Fn(&rave_core::thin_client::FrameStats) -> f64| -> f64 {
        clients.iter().fold(0.0, |acc, c| acc + f(&c.stats))
    };
    let mut put = |k: &str, v: f64| {
        o.insert(k.to_string(), v);
    };
    put("frames.displayed", sum(&|s| s.frames as f64));
    put("frames.render_util", sum(&|s| s.render_utilization(span)) / n);
    put("frames.wire_util", sum(&|s| s.wire_utilization(span)) / n);
    put("frames.client_util", sum(&|s| s.client_utilization(span)) / n);
    put("frames.stalled", sum(&|s| s.stalled_frames as f64));
    put("frames.bound_render", sum(&|s| s.bound_by.render as f64));
    put("frames.bound_wire", sum(&|s| s.bound_by.wire as f64));
    put("frames.bound_client", sum(&|s| s.bound_by.client as f64));
    let logical = sum(&|s| s.logical_bytes as f64);
    put(
        "compress.ratio",
        if logical > 0.0 { sum(&|s| s.encoded_bytes as f64) / logical } else { 1.0 },
    );
    let (mut strips, mut skipped, mut switches) = (0u64, 0u64, 0u64);
    for c in &clients {
        if let Some(st) = c.render_service.and_then(|rs| sim.world.frame_cache.stats(rs, c.id)) {
            strips += st.strips_total;
            skipped += st.strips_skipped;
            switches += st.codec_switches;
        }
    }
    put(
        "compress.strips_skipped_ratio",
        if strips > 0 { skipped as f64 / strips as f64 } else { 0.0 },
    );
    put("compress.codec_switches", switches as f64);
}

/// User names of seeded length (a per-session base of 8-11 letters plus
/// up to two): update sizes, and so wire times, vary a little with the
/// seed.
pub fn user_names(rng: &mut SimRng, n: usize) -> Vec<String> {
    let base = 8 + rng.below(4) as usize;
    (0..n).map(|i| user_name(rng, base, i)).collect()
}

fn user_name(rng: &mut SimRng, base: usize, i: usize) -> String {
    let len = base + rng.below(3) as usize;
    let tail: String = (0..len).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
    format!("{tail}{i}")
}
