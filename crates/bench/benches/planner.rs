//! Criterion benches for the distribution planner and migration
//! selection: the control-plane hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rave_core::capacity::{CapacityReport, Headroom};
use rave_core::distribution::{plan_distribution, plan_incremental};
use rave_core::migration::select_nodes_to_shed;
use rave_core::sched::PlanState;
use rave_core::RenderServiceId;
use rave_math::Vec3;
use rave_scene::{MeshData, NodeCost, NodeKind, SceneTree};
use std::sync::Arc;

fn strip_mesh(tris: u32) -> MeshData {
    let mut positions = Vec::with_capacity((tris as usize + 1) * 2);
    let mut triangles = Vec::with_capacity(tris as usize);
    for i in 0..=tris {
        positions.push(Vec3::new(i as f32, 0.0, 0.0));
        positions.push(Vec3::new(i as f32, 1.0, 0.0));
    }
    for i in 0..tris {
        let b = i * 2;
        triangles.push([b, b + 2, b + 3]);
    }
    MeshData::new(positions, triangles)
}

fn scene_with(meshes: usize, tris_each: u32) -> SceneTree {
    let mut scene = SceneTree::new();
    let root = scene.root();
    for i in 0..meshes {
        scene
            .add_node(root, format!("m{i}"), NodeKind::Mesh(Arc::new(strip_mesh(tris_each))))
            .unwrap();
    }
    scene
}

fn report(id: u64, polys: u64) -> CapacityReport {
    CapacityReport {
        service: RenderServiceId(id),
        host: format!("h{id}"),
        polys_per_sec: 1e7,
        poly_headroom: polys,
        texture_headroom: 1 << 40,
        volume_hw: false,
        assigned: NodeCost::ZERO,
        rolling_fps: None,
    }
}

fn bench_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_distribution");
    for (meshes, services) in [(10usize, 3u64), (50, 8), (200, 16)] {
        let reports: Vec<_> = (1..=services).map(|i| report(i, 60_000)).collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{meshes}nodes_{services}svcs")),
            &meshes,
            |b, &meshes| {
                b.iter_batched(
                    || scene_with(meshes, 1_000),
                    |mut scene| {
                        std::hint::black_box(plan_distribution(&mut scene, &reports).unwrap())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

fn bench_planner_with_splits(c: &mut Criterion) {
    // One oversized mesh forces recursive splitting.
    let reports: Vec<_> = (1..=6).map(|i| report(i, 10_000)).collect();
    c.bench_function("plan_distribution_splitting_50k_node", |b| {
        b.iter_batched(
            || scene_with(1, 50_000),
            |mut scene| std::hint::black_box(plan_distribution(&mut scene, &reports).unwrap()),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_replan_per_event(c: &mut Criterion) {
    // Steady-state event handling over a 2k-node scene: each event adds
    // one small mesh and removes it again next iteration. The full
    // planner repacks the whole scene per event; the incremental engine
    // folds the dirt into its persistent `PlanState` and replays only
    // the affected queue suffix.
    let services = 8u64;
    let reports: Vec<_> = (1..=services).map(|i| report(i, 50_000_000)).collect();
    let caps: Vec<(RenderServiceId, Headroom)> = (1..=services)
        .map(|i| (RenderServiceId(i), Headroom { polygons: 50_000_000, texture_bytes: 1 << 40 }))
        .collect();

    let mut g = c.benchmark_group("replan_per_event");
    g.bench_function("full_2k_nodes", |b| {
        let mut scene = scene_with(2_000, 1_000);
        let root = scene.root();
        let mut step = 0u64;
        b.iter(|| {
            step += 1;
            let id = scene
                .add_node(root, format!("e{step}"), NodeKind::Mesh(Arc::new(strip_mesh(64))))
                .unwrap();
            let plan = std::hint::black_box(plan_distribution(&mut scene, &reports).unwrap());
            scene.remove(id).unwrap();
            plan
        });
    });
    g.bench_function("incremental_2k_nodes", |b| {
        let mut scene = scene_with(2_000, 1_000);
        let root = scene.root();
        let mut state = PlanState::new();
        plan_incremental(&mut scene, &caps, &mut state).unwrap().unwrap();
        let mut step = 0u64;
        b.iter(|| {
            step += 1;
            let id = scene
                .add_node(root, format!("e{step}"), NodeKind::Mesh(Arc::new(strip_mesh(64))))
                .unwrap();
            let diff = std::hint::black_box(
                plan_incremental(&mut scene, &caps, &mut state).unwrap().unwrap(),
            );
            scene.remove(id).unwrap();
            diff
        });
    });
    g.finish();
}

fn bench_shed_selection(c: &mut Criterion) {
    let scene = scene_with(100, 2_000);
    let root = scene.root();
    let roots: Vec<_> = scene.node(root).unwrap().children().collect();
    c.bench_function("select_nodes_to_shed_100", |b| {
        b.iter(|| std::hint::black_box(select_nodes_to_shed(&scene, &roots, 50_000)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_planner, bench_planner_with_splits, bench_replan_per_event, bench_shed_selection
}
criterion_main!(benches);
