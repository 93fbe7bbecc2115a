//! Tunable system parameters.

/// How render services ship frames to thin clients and tile owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionMode {
    /// Uncompressed 24 bpp — the paper's measured baseline (Table 2).
    #[default]
    Raw,
    /// Adaptive codec selection + dirty-strip reuse through
    /// `rave_compress::stream` (the §6 future-work item, built out).
    Adaptive,
}

/// Global RAVE configuration: the values some caller actually varies.
/// The §3.2.7 thresholds and the other tuning values no caller changes
/// are constants next to their one consumer (e.g.
/// [`crate::sched::rebalance::OVERLOAD_FPS`]).
#[derive(Debug, Clone)]
pub struct RaveConfig {
    /// Target interactive rate used when interrogating capacity
    /// ("available polygons per second ... and still maintain its current
    /// interactive frame rate").
    pub target_fps: f64,
    /// Whether render services actually rasterize pixels (figure
    /// generation) or only charge the cost model (timing runs with
    /// multi-million-polygon scenes).
    pub produce_images: bool,
    /// Updates between durable snapshot checkpoints when a session store
    /// is attached (§3.1.1's "intermittently streamed to disk" cadence).
    pub checkpoint_every: u64,
    /// Frame transport for thin-client streams and helper tile returns.
    pub frame_compression: CompressionMode,
    /// Maximum frames in flight (requested but not yet displayed) on a
    /// thin-client stream. Depth 1 is the paper's strictly serial cycle
    /// (request → render → transfer → display, one at a time) and
    /// reproduces the Table-2 timings bit-identically; depth ≥ 2 overlaps
    /// the render of frame N+1 with the encode/transmit of frame N and
    /// the decode/import of frame N−1, hiding every latency except the
    /// bottleneck stage's.
    pub pipeline_depth: usize,
    /// Replication lag bound, in committed updates: the newest entries of
    /// the primary's *unsealed* segment may stay unshipped up to this
    /// count (0 = ship every entry immediately). Sealed segments always
    /// ship whole.
    pub ship_max_lag: u64,
    /// Record a `TraceKind::UpdateDelivered` event per applied update per
    /// replica. On by default (tests and experiment logs read them);
    /// scale runs with 10k subscribers turn it off — one presence update
    /// would otherwise allocate 10k trace strings.
    pub update_delivery_trace: bool,
    /// Maximum live `(render service, client)` frame-stream channels held
    /// in the world's `FrameCache`; past it the least-recently-used
    /// stream is evicted (it restarts from a keyframe on its next frame)
    /// and a `TraceKind::FrameCacheEvict` event is recorded. 0 =
    /// unbounded, the pre-10k-session behaviour.
    pub frame_cache_budget: usize,
}

impl Default for RaveConfig {
    fn default() -> Self {
        Self {
            target_fps: 15.0,
            produce_images: false,
            checkpoint_every: 256,
            frame_compression: CompressionMode::Raw,
            pipeline_depth: 1,
            ship_max_lag: 64,
            update_delivery_trace: true,
            frame_cache_budget: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{DIRECT_PER_BYTE, INTROSPECT_PER_BYTE};
    use crate::frame_stream::{CODEC_EWMA_ALPHA, FRAME_STRIP_BYTES};
    use crate::render_service::FILL_FACTOR;
    use crate::replica::{SHIP_ACK_WINDOW, SHIP_INTERVAL};
    use crate::sched::rebalance::{DRIFT_RATIO, OVERLOAD_FPS, UNDERLOAD_FPS};
    use rave_sim::SimTime;

    #[test]
    fn thresholds_ordered() {
        const { assert!(OVERLOAD_FPS < UNDERLOAD_FPS) };
        const { assert!(FILL_FACTOR > 0.0 && FILL_FACTOR <= 1.0) };
        const { assert!(INTROSPECT_PER_BYTE > DIRECT_PER_BYTE * 10.0) };
    }

    #[test]
    fn default_frame_transport_is_the_paper_baseline() {
        let c = RaveConfig::default();
        assert_eq!(c.frame_compression, CompressionMode::Raw);
        const { assert!(CODEC_EWMA_ALPHA > 0.0 && CODEC_EWMA_ALPHA <= 1.0) };
        const { assert!(FRAME_STRIP_BYTES > 0) };
        assert_eq!(c.pipeline_depth, 1, "serial frame cycle keeps Table-2 calibration");
    }

    #[test]
    fn drift_ratio_is_a_fraction() {
        const { assert!(DRIFT_RATIO > 0.0 && DRIFT_RATIO < 1.0) };
    }

    #[test]
    fn default_collab_knobs_sane() {
        let c = RaveConfig::default();
        assert!(c.update_delivery_trace, "delivery audit on by default");
        assert_eq!(c.frame_cache_budget, 0, "frame cache unbounded unless opted in");
    }

    #[test]
    fn default_ship_knobs_sane() {
        let c = RaveConfig::default();
        assert!(SHIP_INTERVAL > SimTime::ZERO);
        const { assert!(SHIP_ACK_WINDOW >= 1, "at least one frame in flight") };
        assert!(c.ship_max_lag < c.checkpoint_every, "lag bound inside a checkpoint window");
    }
}
