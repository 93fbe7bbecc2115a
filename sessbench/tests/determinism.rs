//! The benchmark's own guarantees: virtual-clock figures and counts are a
//! function of the seed alone (not of the run, nor of the rayon thread
//! count), driver-issued frames match the library's own chained stream,
//! and a seed the benchmark was not tuned on passes every output check.
//! Workloads run at `Size::Small`: the same shape, a fraction of the cost.

use rave_core::config::CompressionMode;
use rave_core::thin_client::{connect, stream_frames};
use rave_core::world::{RaveSim, RaveWorld};
use rave_core::{ClientId, RaveConfig};
use rave_models::{build_with_budget, PaperModel};
use rave_scene::NodeKind;
use rave_sim::Simulation;
use sessbench::churn::Churn;
use sessbench::metrics::LAYER_SPANS;
use sessbench::run::{run, scored};
use sessbench::storm::Storm;
use sessbench::stream::Stream;
use sessbench::{Observed, Session, Size};
use std::sync::Arc;

fn bits(o: &Observed) -> Vec<(String, u64)> {
    o.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
}

fn checked<S: Session>(seed: u64) -> Observed {
    let (observed, ops) = scored::<S>(seed, Size::Small);
    assert_eq!(ops.failed, 0, "seed {seed}: {:?}", ops.notes);
    assert!(ops.attempted > 0);
    observed
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

fn same_seed_twice<S: Session>() {
    assert_eq!(bits(&checked::<S>(11)), bits(&checked::<S>(11)));
}

fn one_vs_two_threads<S: Session>() {
    let one = in_pool(1, || checked::<S>(12));
    let two = in_pool(2, || checked::<S>(12));
    assert_eq!(bits(&one), bits(&two));
}

#[test]
fn storm_is_deterministic() {
    same_seed_twice::<Storm>();
    one_vs_two_threads::<Storm>();
}

#[test]
fn stream_is_deterministic() {
    same_seed_twice::<Stream>();
    one_vs_two_threads::<Stream>();
}

#[test]
fn churn_is_deterministic() {
    same_seed_twice::<Churn>();
    one_vs_two_threads::<Churn>();
}

#[test]
fn seeds_change_the_inputs() {
    assert_ne!(bits(&checked::<Churn>(21)), bits(&checked::<Churn>(22)));
}

/// A PDA watching a still Galleon, serial (depth 1).
fn pda_session() -> (RaveSim, ClientId) {
    let config = RaveConfig {
        produce_images: true,
        frame_compression: CompressionMode::Adaptive,
        ..RaveConfig::default()
    };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 5));
    let rs = sim.world.spawn_render_service("laptop");
    {
        let scene = &mut sim.world.render_mut(rs).scene;
        let root = scene.root();
        let mesh = build_with_budget(PaperModel::Galleon, 5_000);
        scene.add_node(root, "galleon", NodeKind::Mesh(Arc::new(mesh))).expect("add");
    }
    let cl = sim.world.spawn_thin_client("zaurus");
    connect(&mut sim, cl, rs);
    (sim, cl)
}

#[test]
fn driver_issued_frames_match_one_chained_stream() {
    const FRAMES: u64 = 6;
    let (mut chained, a) = pda_session();
    stream_frames(&mut chained, a, FRAMES);
    chained.run();

    let (mut driven, b) = pda_session();
    for n in 1..=FRAMES {
        stream_frames(&mut driven, b, 1);
        driven.run_while(|w| w.client(b).stats.frames < n);
    }
    driven.run();

    let (sa, sb) = (&chained.world.client(a).stats, &driven.world.client(b).stats);
    assert_eq!(sa.frames, FRAMES);
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
}

#[test]
fn held_out_seed_passes_every_check_and_the_split_adds_up() {
    for (name, result) in [
        ("collab_storm", run::<Storm>(90_001, Size::Small, 0.0, true)),
        ("testbed_stream", run::<Stream>(90_001, Size::Small, 0.0, true)),
        ("structure_churn", run::<Churn>(90_001, Size::Small, 0.0, true)),
    ] {
        assert_eq!(result.ops.failed, 0, "{name}: {:?}", result.ops.notes);
        let v = &result.values;
        let spans: f64 = LAYER_SPANS.iter().map(|(_, metric)| v[*metric]).sum();
        let wall = v["driver.wall_ms"];
        assert!(wall > 0.0, "{name}: no traced epoch");
        assert!((spans + v["driver.other_ms"] - wall).abs() < 1e-6 * wall, "{name}: split");
        assert!(v["driver.other_ms"] >= 0.0, "{name}: spans overlap");
        assert!(!result.tracer.spans().is_empty());
    }
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let run_seconds: u32 = committed
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("run_seconds");
    assert_eq!(committed, sessbench::metrics::manifest(run_seconds));
}
