//! `collab_storm`: read-mostly collaboration at scale.
//!
//! A 16-segment machine room, ~1k render-service subscribers (1% full
//! replicas, the rest one or two branch subtrees) on a ~10k-node scene,
//! a WAL at the default checkpoint cadence and a warm standby shipped
//! every tick. Each 50 ms tick publishes 32 avatar camera moves and 32
//! `SetTransform` drags as one batch, then ships the log and runs a
//! scheduler pass that defers (nothing structural changes). No frames.
//! Publish, `rave-sim` dispatch and log shipping do nearly all the work.

use crate::common::{self, Books, Ops, Scratch, Size};
use crate::trace::Tracer;
use crate::{Observed, Session};
use rave_core::collaboration::{join_session, Participant};
use rave_core::world::{RaveSim, RaveWorld};
use rave_core::{DataServiceId, RaveConfig};
use rave_math::{Quat, Vec3};
use rave_scene::{CameraParams, InterestSet, NodeId, NodeKind, SceneUpdate, Transform};
use rave_sim::{SimRng, SimTime, Simulation};
use std::collections::BTreeMap;

const SEGMENTS: usize = 16;
const HOSTS_PER_SEGMENT: usize = 4;
const TICK: f64 = 0.050;

struct Shape {
    branches: usize,
    leaves_per_branch: usize,
    subscribers: usize,
    moves: usize,
    drags: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => {
            Shape { branches: 250, leaves_per_branch: 40, subscribers: 1000, moves: 32, drags: 32 }
        }
        Size::Small => {
            Shape { branches: 20, leaves_per_branch: 10, subscribers: 60, moves: 4, drags: 4 }
        }
    }
}

pub struct Storm {
    sim: RaveSim,
    ds: DataServiceId,
    rng: SimRng,
    participants: Vec<(Participant, String)>,
    leaves: Vec<NodeId>,
    drags: usize,
    start: SimTime,
    tick: u64,
    books: Books,
    ops: Ops,
    scratch: Scratch,
    base: BTreeMap<&'static str, f64>,
}

impl Session for Storm {
    const STEPS_PER_EPOCH: usize = 4;

    fn scored_epochs(size: Size) -> usize {
        match size {
            Size::Full => 12,
            Size::Small => 3,
        }
    }

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let sh = shape(size);
        let mut rng = SimRng::new(seed);
        let mut net = common::machine_room(SEGMENTS, HOSTS_PER_SEGMENT);
        net.add_host("hub", "seg0");
        net.add_host("hub-standby", "seg1");
        // One presence tick would otherwise allocate a trace row per
        // (update, subscriber) pair.
        let config = RaveConfig { update_delivery_trace: false, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::new(net, config, seed));
        let ds = sim.world.spawn_data_service("hub", "storm");

        let mut branches = Vec::with_capacity(sh.branches);
        let mut leaves = Vec::with_capacity(sh.branches * sh.leaves_per_branch);
        {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            for b in 0..sh.branches {
                let branch = scene.add_node(root, format!("b{b}"), NodeKind::Group).expect("add");
                branches.push(branch);
                for l in 0..sh.leaves_per_branch {
                    let leaf = scene.add_node(branch, format!("b{b}l{l}"), NodeKind::Group);
                    leaves.push(leaf.expect("add"));
                }
            }
        }
        let mut scratch = Scratch::new("storm");
        common::attach_wal_and_standby(&mut sim, ds, "hub-standby", &mut scratch);

        let mut participants = Vec::with_capacity(sh.moves);
        for label in common::user_names(&mut rng, sh.moves) {
            let p = join_session(&mut sim, ds, &label, Vec3::X, CameraParams::default())
                .expect("join session");
            participants.push((p, label));
        }
        let mut books = Books::default();
        let setup_start = sim.now();
        common::drain(&mut sim, tr);

        let mut ready = setup_start;
        for i in 0..sh.subscribers {
            let host =
                format!("host{}x{}", (i / HOSTS_PER_SEGMENT) % SEGMENTS, i % HOSTS_PER_SEGMENT);
            let rs = sim.world.spawn_render_service(&host);
            let interest = if i % 100 == 0 {
                InterestSet::everything()
            } else if rng.chance(0.33) {
                let a = branches[rng.below(branches.len() as u64) as usize];
                let b = branches[rng.below(branches.len() as u64) as usize];
                InterestSet::subtrees([a, b])
            } else {
                InterestSet::subtrees([branches[rng.below(branches.len() as u64) as usize]])
            };
            ready = ready.max(common::join(&mut sim, rs, ds, interest, tr, &mut books));
        }
        common::drain(&mut sim, tr);
        books.ready_ms = (ready - setup_start).as_millis();
        let mut ops = Ops::default();
        common::ship(&mut sim, ds, tr, &mut books, &mut ops, &mut scratch);
        common::drain(&mut sim, tr);
        common::replan(&mut sim, ds, tr, &mut books, &mut ops);
        common::drain(&mut sim, tr);
        books.last_seq = sim.world.data(ds).audit.last_seq();

        let base = common::world_totals(&sim, &books);
        let start = SimTime::from_secs((sim.now().as_secs() / TICK).ceil() * TICK + TICK);
        Storm {
            sim,
            ds,
            rng,
            participants,
            leaves,
            drags: sh.drags,
            start,
            tick: 0,
            books,
            ops,
            scratch,
            base,
        }
    }

    fn step(&mut self, tr: &mut Tracer) {
        let due = self.start + SimTime::from_secs(TICK * self.tick as f64);
        let mut updates = Vec::with_capacity(self.participants.len() * 2);
        for (p, label) in &self.participants {
            let r = &mut self.rng;
            let position = Vec3::new(
                r.range_f64(-50.0, 50.0) as f32,
                r.range_f64(0.0, 10.0) as f32,
                r.range_f64(-50.0, 50.0) as f32,
            );
            let camera = CameraParams { position, ..CameraParams::default() };
            updates.push((label.clone(), SceneUpdate::CameraMoved { id: p.avatar, camera }));
        }
        for i in 0..self.drags {
            let leaf = self.leaves[self.rng.below(self.leaves.len() as u64) as usize];
            let t = Transform {
                translation: Vec3::new(self.rng.next_f32(), self.rng.next_f32(), 0.0),
                rotation: Quat::from_axis_angle(Vec3::Y, self.rng.next_f32()),
                scale: Vec3::ONE,
            };
            let label = self.participants[i % self.participants.len()].1.clone();
            updates.push((label, SceneUpdate::SetTransform { id: leaf, transform: t }));
        }
        let (sim, ds) = (&mut self.sim, self.ds);
        common::publish_and_apply(sim, ds, due, updates, tr, &mut self.books, &mut self.ops);
        common::ship(sim, ds, tr, &mut self.books, &mut self.ops, &mut self.scratch);
        common::drain(sim, tr);
        common::replan(sim, ds, tr, &mut self.books, &mut self.ops);
        self.tick += 1;
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
        self.ops.record(removed, || "storm scratch directories left behind".into());
        self.ops
    }
}
