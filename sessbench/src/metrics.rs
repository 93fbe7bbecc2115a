//! The benchmark's metric table: name, unit, clock, the workloads that
//! report it, and whether the driver gates on it. One table feeds the
//! printed report, the metadata line and `BENCHMARK.json`.

/// Which clock a figure is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time spent running the simulator.
    Wall,
    /// Simulated paper-testbed time, what a RAVE user would see.
    Virtual,
    /// A count or ratio of counts.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

pub const STORM: u8 = 1;
pub const STREAM: u8 = 2;
pub const CHURN: u8 = 4;
pub const ALL: u8 = STORM | STREAM | CHURN;

/// Name, bit, and why the workload exists (one line, for
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, u8, &str); 3] = [
    (
        "collab_storm",
        STORM,
        "1k subscribers, 10k-node scene, 64 presence updates a tick: publish, WAL, routing, \
         multicast, sim dispatch and log shipping; no frames, sched defers",
    ),
    (
        "testbed_stream",
        STREAM,
        "paper Table 2 testbed: 2 PDAs and 2 LAN clients stream a 50k-polygon Galleon; \
         raster, codecs and the frame pipeline; data path nearly idle",
    ),
    (
        "structure_churn",
        CHURN,
        "add/remove/reparent bursts on a 1.2k-mesh scene over 16 services, replan each batch, \
         one render failure and a warm failover: sched, bootstrap, promotion",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Workloads (bit set) on which the figure means something.
    pub workloads: u8,
    /// Printed on the last output line and listed in `BENCHMARK.json`.
    pub listed: bool,
    /// Lower is better (false: higher is better).
    pub lower: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, clock: Clock, workloads: u8) -> Metric {
    Metric { name, unit, clock, workloads, listed: true, lower: true, bound: 0.0 }
}

/// A per-layer figure where higher is better.
const fn hi(name: &'static str, unit: &'static str, clock: Clock, workloads: u8) -> Metric {
    Metric { name, unit, clock, workloads, listed: true, lower: false, bound: 0.0 }
}

/// A gated end-to-end metric (lower is better) with its bound.
const fn gated(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> Metric {
    Metric { name, unit, clock, workloads: ALL, listed: true, lower: true, bound }
}

/// Reported in the table but not on the result line: either not
/// defined on every workload, or (for host times of a layer one
/// workload never calls) identically zero there.
const fn extra(name: &'static str, unit: &'static str, clock: Clock, workloads: u8) -> Metric {
    Metric { name, unit, clock, workloads, listed: false, lower: true, bound: 0.0 }
}

use Clock::{Count, Virtual, Wall};

pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Wall, 0.25),
    gated("wall_s", "s", Wall, 0.25),
    gated("step_ms_p50", "ms", Wall, 0.25),
    gated("step_ms_p95", "ms", Wall, 0.25),
    gated("peak_rss_mb", "MB", Wall, 0.25),
    gated("edit_apply_ms_p50", "ms", Virtual, 0.05),
    gated("edit_apply_ms_p95", "ms", Virtual, 0.05),
    gated("wire_mb", "MB", Virtual, 0.1),
    extra("frame_ms_p50", "ms", Virtual, STREAM),
    extra("frame_ms_p95", "ms", Virtual, STREAM),
    extra("fps_pda", "1/s", Virtual, STREAM),
    extra("fps_lan", "1/s", Virtual, STREAM),
    extra("failover_gap_ms", "ms", Virtual, CHURN),
    extra("lost_updates", "count", Count, CHURN),
    extra("failed_ratio", "ratio", Count, ALL),
    extra("publish_late_ms", "ms", Virtual, ALL),
];

pub const PER_LAYER: &[Metric] = &[
    m("sim.events", "count", Count, ALL),
    m("sim.dispatch_ms", "ms", Wall, ALL),
    m("sim.ns_per_event", "ns", Wall, ALL),
    m("core.updates", "count", Count, ALL),
    m("core.publish_ms", "ms", Wall, ALL),
    m("core.publish_us_per_update", "us", Wall, ALL),
    m("store.checkpoints", "count", Count, ALL),
    m("store.wal_mb", "MB", Count, ALL),
    m("store.ship_ms", "ms", Wall, ALL),
    m("store.ship_frames", "count", Count, ALL),
    m("store.ship_mb", "MB", Count, ALL),
    m("store.reseeds", "count", Count, ALL),
    m("scene.nodes", "count", Count, ALL),
    m("scene.replica_nodes", "count", Count, ALL),
    m("net.multicast_mb", "MB", Count, ALL),
    m("net.unicast_mb", "MB", Count, ALL),
    m("net.wire_ratio", "ratio", Count, ALL),
    m("net.transmissions", "count", Count, ALL),
    m("net.skipped_receivers", "count", Count, ALL),
    m("sched.replan_ms", "ms", Wall, ALL),
    m("sched.replans", "count", Count, ALL),
    hi("sched.deferred", "count", Count, ALL),
    m("sched.full_replays", "count", Count, ALL),
    m("sched.replayed_units", "count", Count, ALL),
    m("sched.moved_units", "count", Count, ALL),
    m("sched.refusals", "count", Count, ALL),
    extra("sched.failure_ms", "ms", Wall, CHURN),
    m("sched.failure_pct", "%", Wall, CHURN),
    m("bootstrap.join_ms", "ms", Wall, ALL),
    m("bootstrap.snapshot_mb", "MB", Count, ALL),
    // Table only: on testbed_stream every seed bootstraps the same model,
    // so this virtual time never changes between runs there.
    extra("bootstrap.ready_ms", "ms", Virtual, ALL),
    extra("frames.issue_ms", "ms", Wall, STREAM),
    m("frames.issue_pct", "%", Wall, STREAM),
    hi("frames.displayed", "count", Count, STREAM),
    hi("frames.render_util", "ratio", Virtual, STREAM),
    hi("frames.wire_util", "ratio", Virtual, STREAM),
    hi("frames.client_util", "ratio", Virtual, STREAM),
    m("frames.stalled", "count", Count, STREAM),
    m("frames.bound_render", "count", Count, STREAM),
    m("frames.bound_wire", "count", Count, STREAM),
    m("frames.bound_client", "count", Count, STREAM),
    m("compress.ratio", "ratio", Count, STREAM),
    hi("compress.strips_skipped_ratio", "ratio", Count, STREAM),
    m("compress.codec_switches", "count", Count, STREAM),
    m("driver.wall_ms", "ms", Wall, ALL),
    m("driver.other_ms", "ms", Wall, ALL),
    m("trace.overhead_ms", "ms", Wall, ALL),
];

/// The driver's layer spans, in the order the split is printed.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("sim.dispatch", "sim.dispatch_ms"),
    ("core.publish", "core.publish_ms"),
    ("store.ship", "store.ship_ms"),
    ("store.reseed", "store.reseed_ms"),
    ("sched.replan", "sched.replan_ms"),
    ("sched.failure", "sched.failure_ms"),
    ("bootstrap.join", "bootstrap.session_join_ms"),
    ("frames.issue", "frames.issue_ms"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, _, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let list = |table: &[Metric], bounded: bool| -> String {
        let rows: Vec<String> = table
            .iter()
            .filter(|m| m.listed)
            .map(|m| {
                let better = if m.lower { "lower" } else { "higher" };
                let bound =
                    if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                    m.name, m.unit
                )
            })
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"sessbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"sessbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END, true),
        list(PER_LAYER, false),
    )
}
