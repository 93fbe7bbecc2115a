//! The run loop: repeated set-ups, then timed epochs until the run's
//! host-time budget is spent, then the result table and line.

use crate::clock::cpu_ns;
use crate::common::{quantile, Ops, Size};
use crate::metrics::{self, LAYER_SPANS};
use crate::trace::Tracer;
use crate::{Observed, Session};
use std::time::{Duration, Instant};

/// Set-ups a run times at least: when fewer sessions fit in the run,
/// extra set-ups (closed straight away) make up the count, so `setup_s`
/// is always a median of several.
const MIN_SETUPS: usize = 5;

/// Everything a run measured.
pub struct RunResult {
    pub values: Observed,
    pub ops: Ops,
    pub tracer: Tracer,
    pub sessions: usize,
    pub epochs: usize,
    pub steps: usize,
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One set-up and exactly the scored window, untimed: the virtual-clock
/// figures and counts, plus every operation attempted and failed.
pub fn scored<S: Session>(seed: u64, size: Size) -> (Observed, Ops) {
    let mut tracer = Tracer::new(false);
    let mut s = S::setup(seed, size, &mut tracer);
    for _ in 0..S::scored_epochs(size) * S::STEPS_PER_EPOCH {
        s.step(&mut tracer);
    }
    let observed = s.observe();
    (observed, s.close())
}

/// Run one workload: whole sessions (set-up plus the scored window), one
/// after another, until `seconds` of elapsed time have passed. Every
/// session replays the same seeded inputs, so each contributes host-time
/// samples of identical composition however fast the host is; the
/// virtual figures are read from the first. With `traced`, even sessions
/// record spans and odd ones do not, so the same run yields the per-layer
/// split and the tracing overhead between like epochs.
pub fn run<S: Session>(seed: u64, size: Size, seconds: f64, traced: bool) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(false);
    let mut setup_secs = Vec::new();
    let mut step_ms = Vec::new();
    let mut traced_epoch_ms = Vec::new();
    let mut plain_epoch_ms = Vec::new();
    let mut observed = None;
    while observed.is_none() || Instant::now() < deadline {
        let on = traced && setup_secs.len() % 2 == 0;
        tracer.set_enabled(on);
        let t0 = cpu_ns();
        tracer.begin("setup");
        let mut s = S::setup(seed, size, &mut tracer);
        tracer.end();
        setup_secs.push((cpu_ns() - t0) as f64 * 1e-9);
        for _ in 0..S::scored_epochs(size) {
            let t0 = cpu_ns();
            tracer.begin("epoch");
            for _ in 0..S::STEPS_PER_EPOCH {
                let ts = cpu_ns();
                tracer.begin("step");
                s.step(&mut tracer);
                tracer.end();
                step_ms.push((cpu_ns() - ts) as f64 * 1e-6);
            }
            tracer.end();
            let ms = (cpu_ns() - t0) as f64 * 1e-6;
            if on {
                traced_epoch_ms.push(ms);
            } else {
                plain_epoch_ms.push(ms);
            }
        }
        tracer.set_enabled(false);
        if observed.is_none() {
            let mut o = s.observe();
            // After a fixed amount of work, so the figure does not grow
            // with however many sessions the host managed in the run.
            o.insert("peak_rss_mb".into(), peak_rss_mb());
            observed = Some(o);
        }
        ops.absorb(s.close());
    }
    let sessions = setup_secs.len();
    let traced_sessions = sessions.div_ceil(2) as f64;
    let setup_join_ms =
        tracer.total_ns_under("bootstrap.join", "setup") as f64 * 1e-6 / traced_sessions;
    while setup_secs.len() < MIN_SETUPS {
        let t0 = cpu_ns();
        let s = S::setup(seed, size, &mut tracer);
        setup_secs.push((cpu_ns() - t0) as f64 * 1e-9);
        ops.absorb(s.close());
    }

    let mut v = observed.expect("scored window completed");
    let all_epochs: Vec<f64> = traced_epoch_ms.iter().chain(&plain_epoch_ms).copied().collect();
    v.insert("setup_s".into(), median(&setup_secs));
    v.insert("wall_s".into(), median(&all_epochs) * 1e-3);
    v.insert("step_ms_p50".into(), quantile(&step_ms, 0.50));
    v.insert("step_ms_p95".into(), quantile(&step_ms, 0.95));
    v.insert(
        "failed_ratio".into(),
        if ops.attempted == 0 { 0.0 } else { ops.failed as f64 / ops.attempted as f64 },
    );
    v.insert("bootstrap.join_ms".into(), setup_join_ms);
    if traced {
        layer_split(&tracer, &traced_epoch_ms, &plain_epoch_ms, &mut v);
    }
    let epochs = traced_epoch_ms.len() + plain_epoch_ms.len();
    RunResult { values: v, ops, tracer, sessions, epochs, steps: step_ms.len() }
}

/// Per-layer host time per traced epoch, the remainder the driver spent
/// outside every layer call, and the tracing overhead.
fn layer_split(tr: &Tracer, traced: &[f64], plain: &[f64], v: &mut Observed) {
    let n = traced.len().max(1) as f64;
    let wall_ms: f64 = traced.iter().sum::<f64>() / n;
    let mut covered = 0.0;
    for &(span, metric) in LAYER_SPANS {
        let ms = tr.total_ns_under(span, "epoch") as f64 * 1e-6 / n;
        covered += ms;
        v.insert(metric.into(), ms);
    }
    v.insert("driver.wall_ms".into(), wall_ms);
    v.insert("driver.other_ms".into(), wall_ms - covered);
    let pct = |ms: f64| if wall_ms > 0.0 { 100.0 * ms / wall_ms } else { 0.0 };
    v.insert("sched.failure_pct".into(), pct(v["sched.failure_ms"]));
    v.insert("frames.issue_pct".into(), pct(v["frames.issue_ms"]));
    // Rates use the traced epochs' own event and update counts.
    let events = tr.in_epochs_count("sim.events");
    let updates = tr.in_epochs_count("core.updates");
    v.insert(
        "sim.ns_per_event".into(),
        if events > 0 {
            tr.total_ns_under("sim.dispatch", "epoch") as f64 / events as f64
        } else {
            0.0
        },
    );
    v.insert(
        "core.publish_us_per_update".into(),
        if updates > 0 {
            tr.total_ns_under("core.publish", "epoch") as f64 * 1e-3 / updates as f64
        } else {
            0.0
        },
    );
    let overhead = if plain.is_empty() { 0.0 } else { median(traced) - median(plain) };
    v.insert("trace.overhead_ms".into(), overhead);
}

/// The process's high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print the human-readable table (every metric the workload defines,
/// with unit and clock), the metadata line, and last the result line.
pub fn report(workload: &str, bit: u8, seed: u64, seconds: f64, traced: bool, r: &RunResult) {
    let table = if traced { metrics::PER_LAYER } else { metrics::END_TO_END };
    println!("# workload {workload}  seed {seed}  trace {}", traced as u8);
    println!("# {:<32} {:>16} {:<6} clock", "metric", "value", "unit");
    for m in table.iter().filter(|m| m.workloads & bit != 0 || m.listed) {
        let v = r.values.get(m.name).copied().unwrap_or(0.0);
        println!("# {:<32} {:>16.4} {:<6} {}", m.name, v, m.unit, m.clock.name());
    }
    if traced {
        for &(span, metric) in LAYER_SPANS {
            if metrics::find(metric).is_none() {
                let v = r.values.get(metric).copied().unwrap_or(0.0);
                println!("# {metric:<32} {v:>16.4} ms     wall (span {span})");
            }
        }
    }
    for note in &r.ops.notes {
        println!("# FAILED: {note}");
    }
    let described: Vec<String> = table
        .iter()
        .map(|m| {
            let on: Vec<String> = metrics::WORKLOADS
                .iter()
                .filter(|(_, b, _)| m.workloads & b != 0)
                .map(|(n, _, _)| format!("\"{n}\""))
                .collect();
            format!(
                "\"{}\":{{\"clock\":\"{}\",\"unit\":\"{}\",\"listed\":{},\"workloads\":[{}]}}",
                m.name,
                m.clock.name(),
                m.unit,
                m.listed,
                on.join(",")
            )
        })
        .collect();
    println!(
        "# meta {{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{},\"sessions\":{},\"epochs\":{},\"steps\":{},\
         \"nproc\":{},\"available_parallelism\":{},\"rayon_threads\":{},\
         \"profile\":\"{}\",\"metrics\":{{{}}}}}",
        traced as u8,
        r.sessions,
        r.epochs,
        r.steps,
        online_cpus(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        described.join(","),
    );
    let listed: Vec<String> = table
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            let v = r.values.get(m.name).copied().unwrap_or(0.0);
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_num(v), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.ops.failed == 0,
        r.ops.attempted.max(1),
        r.ops.failed,
        listed.join(",")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// CPUs the machine has online (what `nproc --all` reports).
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
        .max(1)
}
