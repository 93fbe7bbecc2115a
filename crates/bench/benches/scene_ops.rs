//! Scene-storage scaling guardrail: the arena tree (hot/cold split, flat
//! pre-order cache, dense cost aggregates) versus a verbatim copy of the
//! pre-arena `BTreeMap<NodeId, Node>` tree, over 10k/100k/1M-node scenes.
//! Three hot paths are timed, best-of-N rounds each:
//!
//! - **traversal**: full pre-order walk touching only hot data (kind tag
//!   + translation) — the planner/interest/render walk;
//! - **costing**: a cost-changing edit (a probe mesh toggled between two
//!   triangle counts) followed by subtree costs for every top-level group
//!   plus the total — the planner's cost refresh (both trees rebuild
//!   their invalidated cache inside the timed region);
//! - **lookup**: random id→node resolution — O(1) slot index vs B-tree
//!   descent.
//!
//! Emits `BENCH_scene.json` at the repo root with per-config speedups;
//! the asserts at the bottom hold the arena to the ISSUE's ≥5x floor for
//! traversal and costing at 100k nodes, and a 1M-node traversal budget.
//! Set `SCENE_QUICK=1` for a CI smoke run (fewer rounds, 1M config
//! retained, same JSON shape, same asserts).

use rave_math::Vec3;
use rave_scene::{KindTag, MeshData, Node, NodeCost, NodeId, NodeKind, SceneTree, Transform};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const NODE_COUNTS: [usize; 3] = [10_000, 100_000, 1_000_000];

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

// ---- legacy baseline -----------------------------------------------------
//
// A verbatim copy of the pre-arena `SceneTree` storage and the operations
// under test: `BTreeMap<NodeId, Node>` (the `Node` record still exists as
// the serde interchange struct, with the same `children`/`parent` fields
// the old tree stored), the stack-based `descendants_iter`, and the
// mutex-guarded `HashMap` cost index rebuilt bottom-up after every
// `node_mut`/structural invalidation.

struct LegacyTree {
    nodes: BTreeMap<NodeId, Node>,
    root: NodeId,
    next_id: u64,
    cost_index: std::sync::Mutex<LegacyCostState>,
}

#[derive(Default)]
struct LegacyCostState {
    valid: bool,
    subtree: HashMap<NodeId, NodeCost>,
}

impl LegacyTree {
    fn new() -> Self {
        let root = NodeId(0);
        let mut nodes = BTreeMap::new();
        nodes.insert(root, Node::new(root, "root", NodeKind::Group));
        Self { nodes, root, next_id: 1, cost_index: Default::default() }
    }

    fn add_node(&mut self, parent: NodeId, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let mut node = Node::new(id, name, kind);
        node.parent = Some(parent);
        self.nodes.insert(id, node);
        self.nodes.get_mut(&parent).expect("parent exists").children.push(id);
        self.cost_index.get_mut().unwrap().valid = false;
        id
    }

    fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.cost_index.get_mut().unwrap().valid = false;
        self.nodes.get_mut(&id)
    }

    fn descendants_iter(&self, start: NodeId) -> LegacyDescendants<'_> {
        LegacyDescendants { tree: self, stack: vec![start] }
    }

    fn subtree_cost(&self, id: NodeId) -> NodeCost {
        let mut state = self.cost_index.lock().unwrap();
        if !state.valid {
            state.subtree.clear();
            state.subtree.reserve(self.nodes.len());
            let order: Vec<NodeId> = self.descendants_iter(self.root).map(|n| n.id).collect();
            for &nid in order.iter().rev() {
                let node = &self.nodes[&nid];
                let mut agg = node.kind.cost();
                for c in &node.children {
                    if let Some(child) = state.subtree.get(c) {
                        agg += *child;
                    }
                }
                state.subtree.insert(nid, agg);
            }
            state.valid = true;
        }
        state.subtree.get(&id).copied().unwrap_or(NodeCost::ZERO)
    }
}

struct LegacyDescendants<'a> {
    tree: &'a LegacyTree,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for LegacyDescendants<'a> {
    type Item = &'a Node;

    fn next(&mut self) -> Option<&'a Node> {
        while let Some(id) = self.stack.pop() {
            if let Some(node) = self.tree.nodes.get(&id) {
                self.stack.extend(node.children.iter().rev().copied());
                return Some(node);
            }
        }
        None
    }
}

// ---- scene construction --------------------------------------------------

fn small_mesh(tris: u32) -> MeshData {
    MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }
}

/// The shared build recipe: top-level groups under the root, leaf nodes
/// round-robined beneath them, every third leaf a mesh (payloads
/// `Arc`-shared from a small pool so a 1M-node scene fits in memory).
/// Deterministic, so both trees get identical ids and per-group cost
/// queries compare like for like.
struct Recipe {
    groups: usize,
    total: usize,
    meshes: Vec<Arc<MeshData>>,
    transforms: Vec<Transform>,
}

impl Recipe {
    fn for_nodes(n: usize) -> Self {
        let mut rng = Lcg(0xa7e0a ^ n as u64);
        let meshes: Vec<Arc<MeshData>> =
            (0..8).map(|_| Arc::new(small_mesh(rng.in_range(10, 200) as u32))).collect();
        let transforms: Vec<Transform> = (0..64)
            .map(|_| {
                Transform::from_translation(Vec3::new(
                    rng.in_range(0, 100) as f32,
                    rng.in_range(0, 100) as f32,
                    rng.in_range(0, 100) as f32,
                ))
            })
            .collect();
        Self { groups: (n / 1000).clamp(8, 1024), total: n, meshes, transforms }
    }

    fn kind(&self, i: usize) -> NodeKind {
        if i.is_multiple_of(3) {
            NodeKind::Mesh(Arc::clone(&self.meshes[i % self.meshes.len()]))
        } else {
            NodeKind::Group
        }
    }

    fn build_arena(&self) -> (SceneTree, Vec<NodeId>) {
        let mut t = SceneTree::with_capacity(self.total + self.groups + 1);
        let root = t.root();
        let groups: Vec<NodeId> = (0..self.groups)
            .map(|g| t.add_node(root, format!("g{g}"), NodeKind::Group).unwrap())
            .collect();
        for i in 0..self.total {
            let parent = groups[i % groups.len()];
            let id = t.add_node(parent, format!("n{i}"), self.kind(i)).unwrap();
            t.set_transform(id, self.transforms[i % self.transforms.len()]);
        }
        (t, groups)
    }

    fn build_legacy(&self) -> (LegacyTree, Vec<NodeId>) {
        let mut t = LegacyTree::new();
        let root = t.root;
        let groups: Vec<NodeId> =
            (0..self.groups).map(|g| t.add_node(root, format!("g{g}"), NodeKind::Group)).collect();
        for i in 0..self.total {
            let parent = groups[i % groups.len()];
            let id = t.add_node(parent, format!("n{i}"), self.kind(i));
            t.node_mut(id).unwrap().transform = self.transforms[i % self.transforms.len()];
        }
        (t, groups)
    }
}

// ---- measured operations -------------------------------------------------

/// Full-tree pre-order walk over hot data: count meshes and fold the
/// translations. Both sides compute the identical value (asserted), so
/// neither can cheat by skipping nodes.
fn walk_arena(t: &SceneTree) -> (u64, f32) {
    let mut meshes = 0u64;
    let mut acc = 0.0f32;
    for n in t.descendants_iter(t.root()) {
        if n.kind_tag() == KindTag::Mesh {
            meshes += 1;
        }
        acc += n.transform().translation.x;
    }
    (meshes, acc)
}

fn walk_legacy(t: &LegacyTree) -> (u64, f32) {
    let mut meshes = 0u64;
    let mut acc = 0.0f32;
    for n in t.descendants_iter(t.root) {
        if matches!(n.kind, NodeKind::Mesh(_)) {
            meshes += 1;
        }
        acc += n.transform.translation.x;
    }
    (meshes, acc)
}

/// The mesh `probe` is toggled to: the other of `toggle`'s two meshes
/// (different triangle counts), so every edit changes the probe's cost.
fn toggled<'a>(current: &NodeKind, toggle: &'a [NodeKind; 2]) -> &'a NodeKind {
    &toggle[usize::from(current.cost() != toggle[1].cost())]
}

/// The planner's cost refresh: one cost-changing edit (invalidating the
/// cost cache), then subtree costs for every top-level group plus the
/// total.
fn cost_arena(t: &mut SceneTree, groups: &[NodeId], probe: NodeId, toggle: &[NodeKind; 2]) -> u64 {
    let mut node = t.node_mut(probe).unwrap();
    let next = toggled(node.kind(), toggle).clone();
    node.set_kind(next);
    drop(node);
    assert!(!t.cost_cache_is_warm(), "the timed edit must invalidate the cost cache");
    let mut polys = 0u64;
    for &g in groups {
        polys += t.subtree_cost(g).polygons;
    }
    polys + t.total_cost().polygons
}

fn cost_legacy(
    t: &mut LegacyTree,
    groups: &[NodeId],
    probe: NodeId,
    toggle: &[NodeKind; 2],
) -> u64 {
    let node = t.node_mut(probe).unwrap();
    node.kind = toggled(&node.kind, toggle).clone();
    let mut polys = 0u64;
    for &g in groups {
        polys += t.subtree_cost(g).polygons;
    }
    polys + t.subtree_cost(t.root).polygons
}

/// Random id lookups (seeded identically for both trees).
fn lookup_arena(t: &SceneTree, n: usize) -> u64 {
    let mut rng = Lcg(0x100c0);
    let mut hits = 0u64;
    for _ in 0..100_000 {
        let id = NodeId(rng.in_range(1, n as u64));
        if let Some(node) = t.node(id) {
            hits += node.child_count() as u64 + 1;
        }
    }
    hits
}

fn lookup_legacy(t: &LegacyTree, n: usize) -> u64 {
    let mut rng = Lcg(0x100c0);
    let mut hits = 0u64;
    for _ in 0..100_000 {
        let id = NodeId(rng.in_range(1, n as u64));
        if let Some(node) = t.node(id) {
            hits += node.children.len() as u64 + 1;
        }
    }
    hits
}

struct ConfigTiming {
    nodes: usize,
    traversal_old: f64,
    traversal_new: f64,
    costing_old: f64,
    costing_new: f64,
    lookup_old: f64,
    lookup_new: f64,
}

fn best_of<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let quick = std::env::var("SCENE_QUICK").is_ok_and(|v| v == "1");
    let rounds = if quick { 3 } else { 7 };

    let mut results: Vec<ConfigTiming> = Vec::new();
    for &nodes in &NODE_COUNTS {
        let recipe = Recipe::for_nodes(nodes);
        let (mut arena, groups_a) = recipe.build_arena();
        let (mut legacy, groups_l) = recipe.build_legacy();
        assert_eq!(groups_a, groups_l, "identical build recipe, identical ids");
        assert_eq!(arena.len(), legacy.nodes.len());

        // Both storages must agree on every measured result before any
        // timing is trusted.
        assert_eq!(walk_arena(&arena).0, walk_legacy(&legacy).0);
        // The first leaf under the first group is a mesh; both trees
        // toggle it in lockstep.
        let probe = arena.node(groups_a[0]).unwrap().children().next().unwrap();
        assert_eq!(arena.node(probe).unwrap().kind_tag(), KindTag::Mesh);
        let toggle = [7, 11].map(|tris| NodeKind::Mesh(Arc::new(small_mesh(tris))));
        assert_eq!(
            cost_arena(&mut arena, &groups_a, probe, &toggle),
            cost_legacy(&mut legacy, &groups_l, probe, &toggle)
        );
        assert_eq!(lookup_arena(&arena, nodes), lookup_legacy(&legacy, nodes));

        let traversal_new = best_of(rounds, || walk_arena(&arena));
        let traversal_old = best_of(rounds, || walk_legacy(&legacy));
        let costing_new = best_of(rounds, || cost_arena(&mut arena, &groups_a, probe, &toggle));
        let costing_old = best_of(rounds, || cost_legacy(&mut legacy, &groups_l, probe, &toggle));
        let lookup_new = best_of(rounds, || lookup_arena(&arena, nodes));
        let lookup_old = best_of(rounds, || lookup_legacy(&legacy, nodes));

        results.push(ConfigTiming {
            nodes,
            traversal_old,
            traversal_new,
            costing_old,
            costing_new,
            lookup_old,
            lookup_new,
        });
    }

    let at = |n: usize| results.iter().find(|c| c.nodes == n).expect("config present");
    let traversal_speedup_100k = at(100_000).traversal_old / at(100_000).traversal_new;
    let costing_speedup_100k = at(100_000).costing_old / at(100_000).costing_new;
    let traversal_1m_ms = at(1_000_000).traversal_new * 1e3;

    let configs: Vec<String> = results
        .iter()
        .map(|c| {
            format!(
                "{{ \"nodes\": {}, \"traversal_old_ms\": {:.3}, \"traversal_ms\": {:.3}, \
                 \"traversal_speedup\": {:.1}, \"costing_old_ms\": {:.3}, \"costing_ms\": {:.3}, \
                 \"costing_speedup\": {:.1}, \"lookup_old_ms\": {:.3}, \"lookup_ms\": {:.3}, \
                 \"lookup_speedup\": {:.1} }}",
                c.nodes,
                c.traversal_old * 1e3,
                c.traversal_new * 1e3,
                c.traversal_old / c.traversal_new,
                c.costing_old * 1e3,
                c.costing_new * 1e3,
                c.costing_old / c.costing_new,
                c.lookup_old * 1e3,
                c.lookup_new * 1e3,
                c.lookup_old / c.lookup_new,
            )
        })
        .collect();

    let out = format!(
        "{{\n  \"bench\": \"scene\",\n  \"quick\": {quick},\n  \"configs\": [\n    {}\n  ],\n  \
         \"traversal_speedup_100k\": {traversal_speedup_100k:.1},\n  \
         \"costing_speedup_100k\": {costing_speedup_100k:.1},\n  \
         \"traversal_1m_ms\": {traversal_1m_ms:.3}\n}}\n",
        configs.join(",\n    "),
    );
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scene.json");
    std::fs::write(&dest, &out).unwrap();
    println!("{out}");
    println!("wrote {}", dest.display());

    assert!(
        traversal_speedup_100k >= 5.0,
        "arena full-tree traversal must be ≥5x the BTreeMap walk at 100k nodes \
         (got {traversal_speedup_100k:.1}x)"
    );
    assert!(
        costing_speedup_100k >= 5.0,
        "arena subtree costing must be ≥5x the BTreeMap cost index at 100k nodes \
         (got {costing_speedup_100k:.1}x)"
    );
    assert!(
        traversal_1m_ms < 100.0,
        "a full 1M-node traversal must stay under 100 ms (got {traversal_1m_ms:.1} ms)"
    );
}
