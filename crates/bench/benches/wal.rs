//! Durable-log formats head to head: the rave-store binary WAL versus
//! the JSON-lines audit trail, on a 10k-update session — append (write
//! the whole session to disk) and replay (read it back and rebuild the
//! scene). Emits `BENCH_wal.json` at the repo root with the measured
//! times, alongside the usual criterion lines.

use criterion::Criterion;
use rave_scene::{AuditEntry, AuditTrail, NodeKind, SceneTree, SceneUpdate, StampedUpdate};
use rave_store::wal::Wal;
use std::path::{Path, PathBuf};
use std::time::Instant;

const UPDATES: u64 = 10_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rave-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A session of `n` updates: node adds followed by transform churn, the
/// shape a collaborative editing session actually has.
fn session(n: u64) -> (SceneTree, Vec<AuditEntry>) {
    let mut tree = SceneTree::new();
    let mut entries = Vec::with_capacity(n as usize);
    let mut nodes = Vec::new();
    for seq in 1..=n {
        let update = if seq <= n / 4 || nodes.is_empty() {
            let id = tree.allocate_id();
            nodes.push(id);
            SceneUpdate::AddNode {
                id,
                parent: tree.root(),
                name: format!("n{seq}"),
                kind: NodeKind::Group,
            }
        } else {
            let id = nodes[(seq as usize * 7919) % nodes.len()];
            SceneUpdate::SetTransform {
                id,
                transform: rave_scene::Transform::from_translation(rave_math::Vec3::new(
                    seq as f32, 0.0, 0.0,
                )),
            }
        };
        update.apply(&mut tree).unwrap();
        entries.push(AuditEntry {
            at_secs: seq as f64 * 0.1,
            stamped: StampedUpdate { seq, origin: "bench".into(), update },
        });
    }
    (tree, entries)
}

fn wal_write(dir: &Path, entries: &[AuditEntry]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let (mut wal, _) = Wal::open(dir, 8 << 20, false).unwrap();
    for e in entries {
        wal.append(e).unwrap();
    }
    wal.sync().unwrap();
}

fn wal_replay(dir: &Path) -> SceneTree {
    let rec = rave_store::recover(dir).unwrap();
    assert_eq!(rec.last_seq, UPDATES);
    rec.tree
}

fn jsonl_write(path: &Path, trail: &AuditTrail) {
    let f = std::fs::File::create(path).unwrap();
    trail.save(std::io::BufWriter::new(f)).unwrap();
}

fn jsonl_replay(path: &Path) -> SceneTree {
    let f = std::fs::File::open(path).unwrap();
    let trail = AuditTrail::load(std::io::BufReader::new(f)).unwrap();
    trail.replay_all().unwrap()
}

/// Best-of-`n` wall time of `f`, in seconds.
fn time_best<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).unwrap().map(|d| d.unwrap().metadata().unwrap().len()).sum()
}

fn main() {
    let (live, entries) = session(UPDATES);
    let mut trail = AuditTrail::new();
    for e in &entries {
        trail.record(e.at_secs, e.stamped.clone()).unwrap();
    }
    let wal_dir = tmp_dir("wal");
    let jsonl_path = tmp_dir("jsonl").join("session.jsonl");

    // Criterion lines for the usual `cargo bench` readout.
    let mut c = Criterion::default().sample_size(10);
    c.bench_function("wal_append_10k", |b| b.iter(|| wal_write(&wal_dir, &entries)));
    c.bench_function("jsonl_save_10k", |b| b.iter(|| jsonl_write(&jsonl_path, &trail)));
    wal_write(&wal_dir, &entries);
    jsonl_write(&jsonl_path, &trail);
    c.bench_function("wal_replay_10k", |b| b.iter(|| wal_replay(&wal_dir)));
    c.bench_function("jsonl_replay_10k", |b| b.iter(|| jsonl_replay(&jsonl_path)));

    // Headline numbers for BENCH_wal.json: best-of-5, both paths ending
    // in an identical reconstructed scene.
    let wal_append = time_best(5, || wal_write(&wal_dir, &entries));
    let jsonl_save = time_best(5, || jsonl_write(&jsonl_path, &trail));
    let wal_rep = time_best(5, || wal_replay(&wal_dir));
    let jsonl_rep = time_best(5, || jsonl_replay(&jsonl_path));
    assert_eq!(wal_replay(&wal_dir), live);
    assert_eq!(jsonl_replay(&jsonl_path).len(), live.len());
    let wal_bytes = dir_bytes(&wal_dir);
    let jsonl_bytes = std::fs::metadata(&jsonl_path).unwrap().len();

    let out = format!(
        "{{\n  \"bench\": \"wal\",\n  \"updates\": {UPDATES},\n  \"wal\": {{ \"append_secs\": {wal_append:.6}, \"replay_secs\": {wal_rep:.6}, \"bytes\": {wal_bytes} }},\n  \"jsonl\": {{ \"save_secs\": {jsonl_save:.6}, \"replay_secs\": {jsonl_rep:.6}, \"bytes\": {jsonl_bytes} }},\n  \"replay_speedup\": {:.2},\n  \"size_ratio\": {:.2}\n}}\n",
        jsonl_rep / wal_rep,
        jsonl_bytes as f64 / wal_bytes as f64,
    );
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wal.json");
    std::fs::write(&dest, &out).unwrap();
    println!("{out}");
    println!("wrote {}", dest.display());
    assert!(
        wal_rep < jsonl_rep,
        "binary WAL replay ({wal_rep:.4}s) should beat JSON-lines ({jsonl_rep:.4}s)"
    );

    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(jsonl_path.parent().unwrap());
}
