//! Parity pin for the publish path's fan-out: `publish_batch` resolves
//! each matched subscriber's delivery endpoint once per batch and applies
//! the FIFO high-water mark once per subscriber. The oracle below
//! reproduces the per-(update, receiver) semantics it replaced — route
//! one update at a time, look each receiver's segment up with
//! `Network::segment_of`, charge each new segment one transmission, time
//! each arrival with `Network::transfer_time` and fold the mark through
//! every arrival — over random multi-segment topologies with receivers on
//! the data service's own host (loopback), receivers on hosts the
//! topology does not know (skipped), and several batches published while
//! earlier deliveries are still on the wire. Per-subscriber delivery
//! times, delivered seq order, `FanoutTotals` and the order in which
//! delivery events execute must all match.
//!
//! Plus a regression: a delivery still in flight to a render service that
//! fails before it lands is dropped, not panicked on.

use proptest::prelude::*;
use rave::core::data_service::{DataService, FanoutTotals};
use rave::core::migration::handle_service_failure;
use rave::core::trace::TraceKind;
use rave::core::world::{publish_batch, publish_update, RaveSim, RaveWorld};
use rave::core::{RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::net::{LinkSpec, Network};
use rave::scene::{InterestSet, MeshData, NodeId, NodeKind, SceneUpdate, Transform};
use rave::sim::{SimRng, SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const DS_HOST: &str = "hub";
const GHOST_HOST: &str = "ghost";

fn random_link(rng: &mut SimRng) -> LinkSpec {
    match rng.below(3) {
        0 => LinkSpec::ethernet_100mb(),
        1 => LinkSpec::ethernet_1gb(),
        _ => LinkSpec::wireless_11mb(rng.range_f64(0.2, 1.0)),
    }
}

/// 2-5 segments with random intra links, a random subset of segment
/// pairs linked explicitly (the rest take a random default), the data
/// service's host and 2-8 more hosts spread over them.
fn random_network(rng: &mut SimRng) -> (Network, Vec<String>) {
    let mut net = Network::new();
    let segments = 2 + rng.below(4) as usize;
    for s in 0..segments {
        net.add_segment(&format!("seg{s}"), random_link(rng));
    }
    for a in 0..segments {
        for b in a + 1..segments {
            if rng.chance(0.5) {
                net.link_segments(&format!("seg{b}"), &format!("seg{a}"), random_link(rng));
            }
        }
    }
    net.set_default_inter_link(random_link(rng));
    net.add_host(DS_HOST, &format!("seg{}", rng.below(segments as u64)));
    let hosts: Vec<String> = (0..2 + rng.below(7)).map(|h| format!("h{h}")).collect();
    for h in &hosts {
        net.add_host(h, &format!("seg{}", rng.below(segments as u64)));
    }
    (net, hosts)
}

fn mesh(triangles: usize) -> NodeKind {
    NodeKind::Mesh(Arc::new(MeshData {
        positions: vec![Vec3::ZERO; 3],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; triangles],
        texture_bytes: 0,
    }))
}

/// A random update: mostly small transform drags, some large mesh
/// replacements (seconds on a weak wireless link) and some structural
/// adds, each from an origin whose name length varies the wire size.
fn random_update(
    rng: &mut SimRng,
    ds: &mut DataService,
    leaves: &[NodeId],
) -> (String, SceneUpdate) {
    let origin = "u".repeat(1 + rng.below(12) as usize);
    let leaf = leaves[rng.below(leaves.len() as u64) as usize];
    let update = match rng.below(6) {
        0 | 1 => SceneUpdate::ReplaceKind { id: leaf, kind: mesh(rng.below(60_000) as usize) },
        2 => SceneUpdate::AddNode {
            id: ds.scene.allocate_id(),
            parent: leaf,
            name: "added".into(),
            kind: NodeKind::Group,
        },
        _ => SceneUpdate::SetTransform {
            id: leaf,
            transform: Transform::from_translation(Vec3::new(rng.next_f32(), 0.0, 0.0)),
        },
    };
    (origin, update)
}

/// The per-(update, receiver) model of one batch's fan-out.
#[derive(Default)]
struct Oracle {
    high_water: BTreeMap<RenderServiceId, SimTime>,
    totals: FanoutTotals,
    /// Every delivery event, in scheduling order: (time, subscriber, seqs).
    events: Vec<(SimTime, RenderServiceId, Vec<u64>)>,
}

impl Oracle {
    fn publish(
        &mut self,
        ds: &mut DataService,
        net: &Network,
        hosts: &BTreeMap<RenderServiceId, String>,
        now: SimTime,
        updates: &[(String, SceneUpdate)],
    ) {
        let mut committed = Vec::new();
        for (origin, update) in updates {
            let stamped = ds.stamp(origin, update.clone());
            if ds.commit(now.as_secs(), &stamped).is_err() {
                break;
            }
            committed.push(Arc::new(stamped));
        }
        let mut per_sub: BTreeMap<RenderServiceId, (SimTime, Vec<u64>)> = BTreeMap::new();
        for stamped in &committed {
            let targets = ds.route(stamped);
            if targets.is_empty() {
                continue;
            }
            let size = stamped.wire_size();
            let mut segments = BTreeSet::new();
            let (mut transmissions, mut unicast, mut skipped) = (0u64, 0u64, 0u64);
            for rs in targets {
                let host = hosts[&rs].as_str();
                if host != ds.host.as_str() {
                    let Some(segment) = net.segment_of(host) else {
                        skipped += 1;
                        continue;
                    };
                    unicast += 1;
                    if segments.insert(segment) {
                        transmissions += 1;
                    }
                }
                let wire = now + net.transfer_time(&ds.host, host, size);
                let hw = self.high_water.entry(rs).or_insert(SimTime::ZERO);
                *hw = (*hw).max(wire);
                let entry = per_sub.entry(rs).or_insert((SimTime::ZERO, Vec::new()));
                entry.0 = entry.0.max(*hw);
                entry.1.push(stamped.seq);
            }
            self.totals.updates_routed += 1;
            self.totals.transmissions += transmissions;
            self.totals.unicast_transmissions += unicast;
            self.totals.wire_bytes += transmissions * size;
            self.totals.unicast_wire_bytes += unicast * size;
            self.totals.skipped_receivers += skipped;
        }
        self.events.extend(per_sub.into_iter().map(|(rs, (at, seqs))| (at, rs, seqs)));
    }

    /// The (time, subscriber, seq) deliveries in execution order: events
    /// run by time, ties in scheduling order.
    fn executed(&self) -> Vec<(SimTime, RenderServiceId, u64)> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].0);
        order
            .into_iter()
            .flat_map(|i| {
                let (at, rs, seqs) = &self.events[i];
                seqs.iter().map(move |&seq| (*at, *rs, seq))
            })
            .collect()
    }
}

/// The deliveries the simulation executed, from its delivery trace.
fn observed(sim: &RaveSim) -> Vec<(SimTime, RenderServiceId, u64)> {
    sim.world
        .trace
        .of_kind(TraceKind::UpdateDelivered)
        .map(|e| {
            let (seq, rest) = e.detail.strip_prefix("seq=").unwrap().split_once(" -> rs").unwrap();
            let rs = rest.split_once(' ').unwrap().0;
            (e.at, RenderServiceId(rs.parse().unwrap()), seq.parse().unwrap())
        })
        .collect()
}

fn check_session(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let (net, hosts) = random_network(&mut rng);
    let mut sim = Simulation::new(RaveWorld::new(net.clone(), RaveConfig::default(), seed));
    let ds = sim.world.spawn_data_service(DS_HOST, "parity");
    let mut leaves = Vec::new();
    let mut branches = Vec::new();
    {
        let scene = &mut sim.world.data_mut(ds).scene;
        let root = scene.root();
        for b in 0..4 {
            let branch = scene.add_node(root, format!("b{b}"), NodeKind::Group).unwrap();
            branches.push(branch);
            for l in 0..3 {
                leaves.push(scene.add_node(branch, format!("l{l}"), mesh(10)).unwrap());
            }
        }
    }
    // Subscribers on remote hosts, on the data service's own host and on
    // a host the topology does not know; interests full or one branch.
    let mut rs_hosts = BTreeMap::new();
    let subscribers = 3 + rng.below(10);
    for i in 0..subscribers {
        let host = match i {
            0 => DS_HOST.to_string(),
            1 => GHOST_HOST.to_string(),
            _ => hosts[rng.below(hosts.len() as u64) as usize].clone(),
        };
        let rs = sim.world.spawn_render_service(&host);
        let interest = if rng.chance(0.3) {
            InterestSet::everything()
        } else {
            InterestSet::subtrees([branches[rng.below(branches.len() as u64) as usize]])
        };
        sim.world.data_mut(ds).subscribe_live(rs, interest);
        rs_hosts.insert(rs, host);
    }
    let mut model_ds = sim.world.data(ds).clone();
    let mut oracle = Oracle::default();
    // Several batches, each published a few milliseconds after the last:
    // a large mesh on a slow link is still in flight when the next lands.
    for _ in 0..2 + rng.below(4) {
        let count = 1 + rng.below(8);
        let updates: Vec<(String, SceneUpdate)> =
            (0..count).map(|_| random_update(&mut rng, &mut model_ds, &leaves)).collect();
        oracle.publish(&mut model_ds, &net, &rs_hosts, sim.now(), &updates);
        publish_batch(&mut sim, ds, updates).unwrap();
        let gap = SimTime::from_millis(rng.range_f64(0.0, 50.0));
        sim.run_until(sim.now() + gap);
    }
    sim.run();
    prop_assert_eq!(sim.world.data(ds).fanout, oracle.totals);
    prop_assert_eq!(sim.executed(), oracle.events.len() as u64, "one apply event per subscriber");
    prop_assert_eq!(observed(&sim), oracle.executed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resolved_fanout_matches_the_per_pair_oracle(seed in any::<u64>()) {
        check_session(seed)?;
    }
}

#[test]
fn delivery_in_flight_to_a_failed_service_is_dropped() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
    let ds = sim.world.spawn_data_service("adrenochrome", "sess");
    let doomed = sim.world.spawn_render_service("tower");
    let survivor = sim.world.spawn_render_service("desktop");
    for rs in [doomed, survivor] {
        sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
    }
    let id = sim.world.data_mut(ds).scene.allocate_id();
    let add =
        SceneUpdate::AddNode { id, parent: NodeId(0), name: "late".into(), kind: NodeKind::Group };
    publish_update(&mut sim, ds, "user", add).unwrap();
    // The service fails while its copy of the update is on the wire.
    handle_service_failure(&mut sim, ds, doomed);
    sim.run();
    assert!(!sim.world.render_services.contains_key(&doomed));
    assert!(sim.world.render(survivor).scene.contains(id), "the survivor still gets it");
    let delivered: Vec<_> =
        sim.world.trace.of_kind(TraceKind::UpdateDelivered).map(|e| e.detail.clone()).collect();
    assert_eq!(delivered, vec![format!("seq=1 -> {survivor} applied=true")]);
}
