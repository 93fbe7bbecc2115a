//! `testbed_stream`: the paper's Table 2 setting, four thin clients.
//!
//! On the testbed network, two Zaurus PDAs share the 802.11b segment and
//! two LAN hosts sit on the Ethernet; each has its own render service
//! holding a ~50k-polygon Galleon, with real rasterization and the
//! adaptive codec. Every client's camera orbits except one PDA's, kept
//! still so the strip-skip path runs; a collaborator drags the model on
//! a fixed virtual schedule. The driver re-issues each client's next
//! frame itself (`stream_frames(c, 1)` at the previous frame's display),
//! so raster, encode and decode fall inside a call it times. A step is a
//! fixed 250 ms virtual slice.

use crate::common::{self, Books, Ops, Scratch, Size};
use crate::trace::Tracer;
use crate::{Observed, Session};
use rave_core::config::CompressionMode;
use rave_core::thin_client::{connect, stream_frames};
use rave_core::trace::TraceKind;
use rave_core::world::{RaveSim, RaveWorld};
use rave_core::{ClientId, DataServiceId, RaveConfig, RenderServiceId};
use rave_math::{Vec3, Viewport};
use rave_models::{build_with_budget, PaperModel};
use rave_render::machine::PdaProfile;
use rave_scene::{CameraParams, InterestSet, NodeId, NodeKind, SceneUpdate, Transform};
use rave_sim::{SimRng, SimTime, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;

const SLICE: f64 = 0.250;
/// The collaborator's drag period.
const DRAG_EVERY: f64 = 0.400;

/// A thin client on a LAN workstation: the PDA model's import path with
/// workstation costs.
fn lan_profile() -> PdaProfile {
    PdaProfile {
        name: "lan-host",
        display: (1280, 1024),
        cast_per_byte: 0.2e-9,
        blit_per_pixel: 0.01e-6,
        frame_overhead: 0.004,
        ..PdaProfile::zaurus()
    }
}

struct ClientSpec {
    host: &'static str,
    render_host: &'static str,
    pda: bool,
    orbit: bool,
}

fn clients(size: Size) -> &'static [ClientSpec] {
    const FULL: &[ClientSpec] = &[
        ClientSpec { host: "zaurus", render_host: "laptop", pda: true, orbit: true },
        ClientSpec { host: "zaurus2", render_host: "tower", pda: true, orbit: false },
        ClientSpec { host: "desktop", render_host: "onyx", pda: false, orbit: true },
        ClientSpec { host: "adrenochrome", render_host: "v880z", pda: false, orbit: true },
    ];
    match size {
        Size::Full => FULL,
        Size::Small => &FULL[1..3],
    }
}

struct Client {
    id: ClientId,
    rs: RenderServiceId,
    pda: bool,
    orbit: bool,
    angle: f32,
    issued: u64,
    displayed: u64,
    last_display: SimTime,
}

pub struct Stream {
    sim: RaveSim,
    ds: DataServiceId,
    model: NodeId,
    rng: SimRng,
    clients: Vec<Client>,
    collaborator: String,
    start: SimTime,
    slice: u64,
    drags: u64,
    /// Drag seq → (due, latest apply so far, replicas still to apply).
    in_flight: BTreeMap<u64, (SimTime, SimTime, usize)>,
    trace_cursor: usize,
    books: Books,
    ops: Ops,
    scratch: Scratch,
    base: BTreeMap<&'static str, f64>,
}

fn orbit_camera(angle: f32) -> CameraParams {
    let eye = Vec3::new(7.0 * angle.cos(), 2.5, 7.0 * angle.sin());
    CameraParams::look_at(eye, Vec3::new(0.0, 1.0, 0.0), Vec3::Y)
}

impl Session for Stream {
    const STEPS_PER_EPOCH: usize = 4;

    fn scored_epochs(size: Size) -> usize {
        match size {
            Size::Full => 6,
            Size::Small => 2,
        }
    }

    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let mut rng = SimRng::new(seed);
        let config = RaveConfig {
            produce_images: true,
            frame_compression: CompressionMode::Adaptive,
            ..RaveConfig::default()
        };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(config, seed));
        sim.world.network.add_host("zaurus2", "wlan");
        let ds = sim.world.spawn_data_service("adrenochrome", "galleon");
        // One model for every seed: the mesh generator's vertex count
        // jumps with the polygon budget, and with it the raster cost.
        let polys = match size {
            Size::Full => 50_000,
            Size::Small => 5_000,
        };
        let model = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            let mesh = build_with_budget(PaperModel::Galleon, polys);
            scene.add_node(root, "galleon", NodeKind::Mesh(Arc::new(mesh))).expect("add model")
        };
        let mut scratch = Scratch::new("stream");
        common::attach_wal_and_standby(&mut sim, ds, "tower", &mut scratch);

        let mut books = Books::default();
        let setup_start = sim.now();
        let mut ready = setup_start;
        let mut list = Vec::new();
        for spec in clients(size) {
            let rs = sim.world.spawn_render_service(spec.render_host);
            ready = ready.max(common::join(
                &mut sim,
                rs,
                ds,
                InterestSet::everything(),
                tr,
                &mut books,
            ));
            let id = sim.world.spawn_thin_client(spec.host);
            {
                let c = sim.world.client_mut(id);
                if spec.pda {
                    c.viewport = Viewport::new(200, 200);
                } else {
                    c.viewport = Viewport::new(400, 300);
                    c.pda = lan_profile();
                }
            }
            let angle = rng.next_f32() * std::f32::consts::TAU;
            sim.world.client_mut(id).camera = orbit_camera(angle);
            list.push(Client {
                id,
                rs,
                pda: spec.pda,
                orbit: spec.orbit,
                angle,
                issued: 0,
                displayed: 0,
                last_display: SimTime::ZERO,
            });
        }
        common::drain(&mut sim, tr);
        books.ready_ms = (ready - setup_start).as_millis();
        for c in &list {
            connect(&mut sim, c.id, c.rs);
        }
        let mut ops = Ops::default();
        common::ship(&mut sim, ds, tr, &mut books, &mut ops, &mut scratch);
        common::drain(&mut sim, tr);
        common::replan(&mut sim, ds, tr, &mut books, &mut ops);
        common::drain(&mut sim, tr);
        books.last_seq = sim.world.data(ds).audit.last_seq();
        let base = common::world_totals(&sim, &books);
        let trace_cursor = sim.world.trace.events().len();
        let collaborator = common::user_names(&mut rng, 1).remove(0);
        let start = SimTime::from_secs(sim.now().as_secs().ceil() + 1.0);
        sim.run_until(start);
        let mut s = Stream {
            sim,
            ds,
            model,
            rng,
            clients: list,
            collaborator,
            start,
            slice: 0,
            drags: 0,
            in_flight: BTreeMap::new(),
            trace_cursor,
            books,
            ops,
            scratch,
            base,
        };
        for i in 0..s.clients.len() {
            s.issue(i, tr);
        }
        s
    }

    fn step(&mut self, tr: &mut Tracer) {
        let end = self.start + SimTime::from_secs(SLICE * (self.slice + 1) as f64);
        // Marker events pin the driver's own deadlines onto the queue, so
        // stepping one event at a time never runs past them.
        self.sim.schedule_at(end, |_| {});
        let next_drag = |s: &Self| s.start + SimTime::from_secs(DRAG_EVERY * (s.drags + 1) as f64);
        if next_drag(self) <= end {
            self.sim.schedule_at(next_drag(self), |_| {});
        }
        while self.sim.now() < end {
            if !common::step_one(&mut self.sim, tr) {
                break;
            }
            if self.sim.now() >= next_drag(self) {
                self.drag(tr);
            }
            self.collect_deliveries();
            for i in 0..self.clients.len() {
                self.on_display(i, tr);
            }
        }
        common::ship(&mut self.sim, self.ds, tr, &mut self.books, &mut self.ops, &mut self.scratch);
        self.slice += 1;
    }

    fn observe(&mut self) -> Observed {
        let mut o = common::observe(&self.sim, self.ds, &self.books, &self.base, self.start);
        let mut latency = Vec::new();
        let (mut pda, mut lan) = (Vec::new(), Vec::new());
        for c in &self.clients {
            let stats = &self.sim.world.client(c.id).stats;
            let mut h = stats.total_latency.clone();
            for q in [0.5, 0.95] {
                latency.push((q, h.quantile(q) * 1e3));
            }
            if c.pda {
                pda.push(stats.fps());
            } else {
                lan.push(stats.fps());
            }
        }
        // Pool the per-client percentiles: the median client's.
        for (q, name) in [(0.5, "frame_ms_p50"), (0.95, "frame_ms_p95")] {
            let v: Vec<f64> = latency.iter().filter(|(p, _)| *p == q).map(|(_, ms)| *ms).collect();
            o.insert(name.into(), common::quantile(&v, 0.5));
        }
        let mean =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        o.insert("fps_pda".into(), mean(&pda));
        o.insert("fps_lan".into(), mean(&lan));
        o
    }

    fn close(mut self) -> Ops {
        // Let every issued frame display; issue no more.
        self.sim.run();
        self.collect_deliveries();
        for c in &self.clients {
            let shown = self.sim.world.client(c.id).stats.frames;
            self.ops.record(shown == c.issued, || {
                format!("client {}: {} of {} frames displayed", c.id, shown, c.issued)
            });
        }
        self.ops.record(self.in_flight.is_empty(), || {
            format!("{} drags never applied everywhere", self.in_flight.len())
        });
        common::check_replicas(&self.sim, self.ds, &mut self.ops);
        common::check_standby_prefix(&self.sim, self.ds, &mut self.ops);
        drop(self.sim);
        let removed = self.scratch.remove();
        self.ops.record(removed, || "stream scratch directories left behind".into());
        self.ops
    }
}

impl Stream {
    /// Issue client `i`'s next frame through `stream_frames(c, 1)`.
    fn issue(&mut self, i: usize, tr: &mut Tracer) {
        let c = &mut self.clients[i];
        if c.orbit {
            c.angle += 0.15;
            let cam = orbit_camera(c.angle);
            if let Some(session) = self.sim.world.render_mut(c.rs).sessions.get_mut(&c.id) {
                session.camera = cam;
            }
        }
        c.issued += 1;
        let (sim, id) = (&mut self.sim, c.id);
        tr.span("frames.issue", || stream_frames(sim, id, 1));
    }

    /// After an event: if client `i`'s frame displayed, check it arrived
    /// in order and issue the next one.
    fn on_display(&mut self, i: usize, tr: &mut Tracer) {
        let c = &self.clients[i];
        let stats = &self.sim.world.client(c.id).stats;
        if stats.frames == c.displayed {
            return;
        }
        let at = stats.last_display.unwrap_or(SimTime::ZERO);
        let in_order = stats.frames == c.displayed + 1 && at > c.last_display;
        let (id, frames) = (c.id, stats.frames);
        self.ops.record(in_order, || format!("client {id}: frame {frames} out of order"));
        let c = &mut self.clients[i];
        c.displayed = frames;
        c.last_display = at;
        self.issue(i, tr);
    }

    /// The collaborator's drag: publish, then a scheduler pass (which
    /// defers: a transform changes no cost).
    fn drag(&mut self, tr: &mut Tracer) {
        let due = self.start + SimTime::from_secs(DRAG_EVERY * (self.drags + 1) as f64);
        self.drags += 1;
        let t = Transform::from_translation(Vec3::new(
            self.rng.range_f64(-0.5, 0.5) as f32,
            0.0,
            self.rng.range_f64(-0.5, 0.5) as f32,
        ));
        let update = SceneUpdate::SetTransform { id: self.model, transform: t };
        let updates = vec![(self.collaborator.clone(), update)];
        let (sim, ds) = (&mut self.sim, self.ds);
        let seqs = common::publish(sim, ds, due, updates, tr, &mut self.books, &mut self.ops);
        let replicas = sim.world.data(ds).subscribers.len();
        for seq in seqs {
            self.in_flight.insert(seq, (due, due, replicas));
        }
        common::replan(sim, ds, tr, &mut self.books, &mut self.ops);
    }

    /// Book drag applies from the delivery trace: a drag's latency is its
    /// due time to its apply on the last replica.
    fn collect_deliveries(&mut self) {
        let events = self.sim.world.trace.events();
        for e in &events[self.trace_cursor..] {
            if e.kind != TraceKind::UpdateDelivered {
                continue;
            }
            let seq = e
                .detail
                .strip_prefix("seq=")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok());
            let Some(seq) = seq else { continue };
            if let Some(entry) = self.in_flight.get_mut(&seq) {
                entry.1 = entry.1.max(e.at);
                entry.2 -= 1;
                if entry.2 == 0 {
                    let (due, last, _) = self.in_flight.remove(&seq).expect("present");
                    self.books.edit_apply_ms.push((last - due).as_millis());
                }
            }
        }
        self.trace_cursor = events.len();
    }
}
