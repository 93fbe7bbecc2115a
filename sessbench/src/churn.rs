//! `structure_churn`: the data-service layers of `collab_storm`, used for
//! writes.
//!
//! A ~1.2k-mesh scene placed over 16 render services by the incremental
//! scheduler (sized small: first placement grows quadratically today).
//! Each 500 ms batch is a burst of 16 adds and 16 removes (four of each
//! pair form a reparent: remove, then re-add under another group),
//! published as one batch, shipped to a lag-0 standby, and followed by
//! `check_and_replan_incremental`. Midway through the scored window one
//! render service fails (a late joiner replaces it) and then the data
//! service fails over to its warm standby; a new standby is brought up
//! behind the promoted primary so later epochs keep shipping.

use crate::common::{self, Books, Ops, Scratch, Size};
use crate::trace::Tracer;
use crate::{Observed, Session};
use rave_core::migration::{handle_data_service_failure, handle_service_failure};
use rave_core::world::{RaveSim, RaveWorld};
use rave_core::{DataServiceId, RaveConfig};
use rave_math::Vec3;
use rave_scene::{InterestSet, MeshData, NodeId, NodeKind, SceneUpdate};
use rave_sim::{SimRng, SimTime, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;

const BATCH: f64 = 0.500;
const SEGMENTS: usize = 16;
const GROUPS: usize = 24;
const ADDS: usize = 12;
const REPARENTS: usize = 4;

struct Shape {
    meshes: usize,
    services: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape { meshes: 1200, services: 16 },
        Size::Small => Shape { meshes: 150, services: 4 },
    }
}

fn mesh(tris: u64) -> NodeKind {
    NodeKind::Mesh(Arc::new(MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }))
}

pub struct Churn {
    sim: RaveSim,
    ds: DataServiceId,
    rng: SimRng,
    groups: Vec<NodeId>,
    meshes: Vec<NodeId>,
    /// Batch index (within the scored window) of the render failure; the
    /// data-service failover follows one batch later.
    fail_at: u64,
    joiners: usize,
    start: SimTime,
    batch: u64,
    books: Books,
    ops: Ops,
    scratch: Scratch,
    base: BTreeMap<&'static str, f64>,
}

impl Session for Churn {
    const STEPS_PER_EPOCH: usize = 8;

    fn scored_epochs(size: Size) -> usize {
        match size {
            Size::Full => 6,
            Size::Small => 2,
        }
    }

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let sh = shape(size);
        let mut rng = SimRng::new(seed);
        let mut net = common::machine_room(SEGMENTS, 2);
        net.add_host("hub", "seg0");
        net.add_host("hub-standby", "seg1");
        // Lag 0: the standby holds every committed update. A 60 fps
        // target sizes each service's budget so the scene spreads wide.
        let config = RaveConfig { ship_max_lag: 0, target_fps: 60.0, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::new(net, config, seed));
        let ds = sim.world.spawn_data_service("hub", "churn");
        let (groups, meshes) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            let groups: Vec<NodeId> = (0..GROUPS)
                .map(|g| scene.add_node(root, format!("g{g}"), NodeKind::Group).expect("add"))
                .collect();
            let meshes: Vec<NodeId> = (0..sh.meshes)
                .map(|i| {
                    let parent = groups[rng.below(GROUPS as u64) as usize];
                    let tris = 200 + rng.below(1200);
                    scene.add_node(parent, format!("m{i}"), mesh(tris)).expect("add")
                })
                .collect();
            (groups, meshes)
        };
        let mut scratch = Scratch::new("churn");
        common::attach_wal_and_standby(&mut sim, ds, "hub-standby", &mut scratch);

        let mut books = Books::default();
        let setup_start = sim.now();
        let mut ready = setup_start;
        for i in 0..sh.services {
            let rs = sim.world.spawn_render_service(&format!("host{i}x0"));
            let interest = InterestSet::subtrees([]);
            ready = ready.max(common::join(&mut sim, rs, ds, interest, tr, &mut books));
        }
        common::drain(&mut sim, tr);
        books.ready_ms = (ready - setup_start).as_millis();
        let mut ops = Ops::default();
        common::replan(&mut sim, ds, tr, &mut books, &mut ops);
        common::drain(&mut sim, tr);
        books.last_seq = sim.world.data(ds).audit.last_seq();
        let base = common::world_totals(&sim, &books);
        let start = SimTime::from_secs(sim.now().as_secs().ceil() + 1.0);
        let fail_at = (Self::STEPS_PER_EPOCH * Self::scored_epochs(size) / 2) as u64;
        Churn {
            sim,
            ds,
            rng,
            groups,
            meshes,
            fail_at,
            joiners: 0,
            start,
            batch: 0,
            books,
            ops,
            scratch,
            base,
        }
    }

    fn step(&mut self, tr: &mut Tracer) {
        let due = self.start + SimTime::from_secs(BATCH * self.batch as f64);
        common::run_until(&mut self.sim, due, tr);
        if self.batch == self.fail_at {
            self.fail_render_service(tr);
        } else if self.batch == self.fail_at + 1 {
            self.fail_over(tr);
        }
        let updates = self.burst();
        let (sim, ds) = (&mut self.sim, self.ds);
        common::publish_and_apply(sim, ds, due, updates, tr, &mut self.books, &mut self.ops);
        common::ship(sim, ds, tr, &mut self.books, &mut self.ops, &mut self.scratch);
        common::drain(sim, tr);
        common::replan(sim, ds, tr, &mut self.books, &mut self.ops);
        common::drain(sim, tr);
        self.batch += 1;
    }

    fn observe(&mut self) -> Observed {
        common::observe(&self.sim, self.ds, &self.books, &self.base, self.start)
    }

    fn close(mut self) -> Ops {
        self.sim.run();
        common::check_replicas(&self.sim, self.ds, &mut self.ops);
        common::check_standby_prefix(&self.sim, self.ds, &mut self.ops);
        drop(self.sim);
        let removed = self.scratch.remove();
        self.ops.record(removed, || "churn scratch directories left behind".into());
        self.ops
    }
}

impl Churn {
    /// 12 adds, 12 removes and 4 reparents (remove + re-add elsewhere).
    fn burst(&mut self) -> Vec<(String, SceneUpdate)> {
        let origin = "editor".to_string();
        let mut updates = Vec::with_capacity(2 * (ADDS + REPARENTS));
        let scene = &mut self.sim.world.data_mut(self.ds).scene;
        for i in 0..ADDS + REPARENTS {
            let victim = self.meshes.swap_remove(self.rng.below(self.meshes.len() as u64) as usize);
            updates.push((origin.clone(), SceneUpdate::RemoveNode { id: victim }));
            let kind = if i < REPARENTS {
                // Reparent: the same mesh under another group.
                scene.node(victim).map(|n| n.kind().clone()).unwrap_or_else(|| mesh(200))
            } else {
                mesh(200 + self.rng.below(1200))
            };
            let id = scene.allocate_id();
            let parent = self.groups[self.rng.below(self.groups.len() as u64) as usize];
            let name = format!("m{}", id.0);
            updates.push((origin.clone(), SceneUpdate::AddNode { id, parent, name, kind }));
            self.meshes.push(id);
        }
        updates
    }

    /// A render service dies (`handle_service_failure`); a late joiner
    /// takes its place.
    fn fail_render_service(&mut self, tr: &mut Tracer) {
        let subs = self.sim.world.data(self.ds).subscriber_ids();
        let victim = subs[self.rng.below(subs.len() as u64) as usize];
        let (sim, ds) = (&mut self.sim, self.ds);
        tr.span("sched.failure", || handle_service_failure(sim, ds, victim));
        common::drain(sim, tr);
        self.joiners += 1;
        let rs = sim.world.spawn_render_service(&format!("host{}x1", self.joiners % SEGMENTS));
        common::join(sim, rs, ds, InterestSet::subtrees([]), tr, &mut self.books);
        common::drain(sim, tr);
    }

    /// The data service dies (`handle_data_service_failure`): its standby
    /// is promoted, and a fresh standby starts behind the new primary.
    fn fail_over(&mut self, tr: &mut Tracer) {
        let (sim, dead) = (&mut self.sim, self.ds);
        common::retire_data_service(sim, dead, &mut self.books);
        let dead_host = sim.world.data(dead).host.clone();
        let failed_at = sim.now();
        let out = tr.span("sched.failure", || handle_data_service_failure(sim, dead));
        let Some(report) = out.promotions.first() else {
            self.ops.record(false, || format!("{dead} failed with no promotion"));
            return;
        };
        self.ops.record(report.warm, || format!("{dead} failover was not warm"));
        self.books.failover_gap_ms.push((report.completed_at - failed_at).as_millis());
        self.books.lost_updates += report.lost_updates;
        self.ops.record(report.lost_updates == 0, || {
            format!("{} updates lost at lag 0", report.lost_updates)
        });
        self.ds = report.promoted;
        common::drain(sim, tr);

        // The dead primary's host, restarted, becomes the new standby.
        let primary = self.ds;
        let scratch = &mut self.scratch;
        let books = &mut self.books;
        let linked = tr.span("store.reseed", || {
            common::reseed_standby(sim, primary, &dead_host, scratch, books)
        });
        self.ops.record(linked.is_ok(), || format!("new standby failed: {:?}", linked.err()));
    }
}
