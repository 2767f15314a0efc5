//! Iteration timelines — the reproduction of Figure 2's Nsight trace.
//!
//! The paper illustrates comm/compute overlap with a profiler screenshot:
//! backward kernels on one CUDA stream, bucket all-reduces on another,
//! only the last bucket's communication exposed. [`trace_iteration`]
//! returns that two-stream timeline, and [`render_ascii`] draws it as a
//! Gantt chart. The timeline is the simulator's own schedule:
//! [`crate::sim::simulate_iteration`] folds these very events, so the
//! event end times agree with its breakdown by construction.

use crate::sim::{SimConfig, SyncComm, SyncPlan};
use crate::wire::Collective;
use gcs_models::buckets::{bucket_ready_fractions, partition};

/// Which execution stream an event runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The GPU compute stream (backward pass, encode/decode kernels).
    Compute,
    /// The communication stream (NCCL collectives).
    Comm,
}

/// One span on a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Stream the span occupies.
    pub stream: Stream,
    /// Human-readable label (e.g. `"bucket 2 all-reduce"`).
    pub label: String,
    /// Start time, seconds from iteration start.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
}

impl TraceEvent {
    fn new(stream: Stream, label: impl Into<String>, start_s: f64, end_s: f64) -> Self {
        TraceEvent {
            stream,
            label: label.into(),
            start_s,
            end_s,
        }
    }

    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The two-stream schedule of one iteration: the events and the terms
/// [`crate::sim::simulate_iteration`] folds them with.
pub(crate) struct Schedule {
    /// The iteration's sync plan (`None`: one worker).
    pub(crate) sync: Option<SyncPlan>,
    /// Every span, compute first, comm spans in launch order.
    pub(crate) events: Vec<TraceEvent>,
    /// Each comm span's duration, in event order.
    pub(crate) comm_s: Vec<f64>,
}

impl Schedule {
    fn compute(&mut self, label: &str, start_s: f64, end_s: f64) {
        self.events
            .push(TraceEvent::new(Stream::Compute, label, start_s, end_s));
    }

    /// Appends a comm span of `dur` from `start_s`; returns its end.
    fn comm(&mut self, label: String, start_s: f64, dur: f64) -> f64 {
        self.events
            .push(TraceEvent::new(Stream::Comm, label, start_s, start_s + dur));
        self.comm_s.push(dur);
        start_s + dur
    }
}

/// Lays out the iteration for `cfg` on the compute and comm streams.
pub(crate) fn schedule(cfg: &SimConfig) -> Schedule {
    let t_comp = cfg.backward_s();
    let sync = cfg.sync_plan();
    let mut s = Schedule {
        sync: None,
        events: Vec::new(),
        comm_s: Vec::new(),
    };
    let Some(plan) = &sync else {
        s.compute("backward", 0.0, t_comp);
        return s;
    };
    match &plan.comm {
        SyncComm::Bucketed { byte_scale } => {
            s.compute(
                if plan.t_encdec_s > 0.0 {
                    "backward + fp16 cast (γ overlap slowdown)"
                } else {
                    "backward (γ overlap slowdown)"
                },
                0.0,
                plan.compute_s,
            );
            let buckets = partition(&cfg.model, cfg.bucket_bytes);
            let ready = bucket_ready_fractions(&cfg.model, &buckets);
            let mut comm_free = 0.0f64;
            for (i, (bucket, frac)) in buckets.iter().zip(&ready).enumerate() {
                // Labelled with the bytes the span prices (FP16: half).
                let bytes = (bucket.bytes as f64 * byte_scale) as usize;
                comm_free = s.comm(
                    format!("bucket {i} all-reduce ({:.1} MB)", bytes as f64 / 1e6),
                    (plan.compute_s * frac).max(comm_free),
                    cfg.comm_time(bytes, Collective::AllReduce),
                );
            }
        }
        SyncComm::Sequential(wire) => {
            if cfg.overlap_compression {
                // Contended: both kernels share the stream for the window.
                s.compute("backward", 0.0, plan.compute_s);
                s.compute("encode/decode", 0.0, plan.compute_s);
            } else {
                s.compute("backward", 0.0, t_comp);
                s.compute("encode/decode", t_comp, plan.compute_s);
            }
            let mut t = plan.compute_s;
            for (i, round) in wire.rounds.iter().enumerate() {
                let kind = match round.collective {
                    Collective::AllReduce => "all-reduce",
                    Collective::AllGather => "all-gather",
                };
                t = s.comm(
                    format!("round {i} {kind} ({:.1} MB)", round.bytes as f64 / 1e6),
                    t,
                    cfg.comm_time(round.bytes, round.collective),
                );
            }
        }
    }
    s.sync = sync;
    s
}

/// Produces the two-stream timeline of one iteration for `cfg`: the
/// events [`crate::sim::simulate_iteration`] folds into its breakdown.
pub fn trace_iteration(cfg: &SimConfig) -> Vec<TraceEvent> {
    schedule(cfg).events
}

/// What happened in a robustness-relevant run event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEventKind {
    /// A rank reached its scheduled death and stopped participating.
    RankDead {
        /// The rank that died.
        rank: usize,
    },
    /// The survivors shrank the ring from `from` to `to` live members.
    RingShrink {
        /// Live member count before the shrink.
        from: usize,
        /// Live member count after the shrink.
        to: usize,
    },
}

/// One entry in a training run's robustness event log: a dead rank or a
/// ring reconfiguration, stamped with the step it took effect at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEvent {
    /// Training step the event took effect at.
    pub step: usize,
    /// What happened.
    pub kind: RunEventKind,
}

impl std::fmt::Display for RunEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RunEventKind::RankDead { rank } => {
                write!(f, "step {}: rank {rank} died", self.step)
            }
            RunEventKind::RingShrink { from, to } => {
                write!(f, "step {}: ring shrank {from} -> {to} workers", self.step)
            }
        }
    }
}

/// Renders a trace as a two-row ASCII Gantt chart of `width` columns.
///
/// # Panics
///
/// Panics if `width < 10`.
pub fn render_ascii(events: &[TraceEvent], width: usize) -> String {
    assert!(width >= 10, "chart needs at least 10 columns");
    let end = events.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
    if end <= 0.0 {
        return String::new();
    }
    let col = |t: f64| ((t / end) * (width as f64 - 1.0)).round() as usize;
    let mut rows = [vec![' '; width], vec![' '; width]];
    for e in events {
        let row = match e.stream {
            Stream::Compute => 0,
            Stream::Comm => 1,
        };
        let (a, b) = (col(e.start_s), col(e.end_s).max(col(e.start_s)));
        let fill = if row == 0 { '█' } else { '▒' };
        for c in &mut rows[row][a..=b.min(width - 1)] {
            *c = fill;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "compute |{}|\ncomm    |{}|\n         0 ms{}{:>8.1} ms\n",
        rows[0].iter().collect::<String>(),
        rows[1].iter().collect::<String>(),
        " ".repeat(width.saturating_sub(16)),
        end * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_iteration;
    use gcs_compress::registry::MethodConfig;
    use gcs_models::presets;

    #[test]
    fn trace_end_matches_simulator_total() {
        for method in [
            MethodConfig::SyncSgd,
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::SignSgd,
        ] {
            let cfg = SimConfig::new(presets::resnet50(), 16).method(method.clone());
            let trace = trace_iteration(&cfg);
            let trace_end = trace.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
            let sim_total = simulate_iteration(&cfg).total_s;
            assert!(
                (trace_end - sim_total).abs() < 1e-9,
                "{method:?}: trace {trace_end} vs sim {sim_total}"
            );
        }
    }

    #[test]
    fn syncsgd_comm_overlaps_compute() {
        // Figure 2's visual: bucket all-reduces start well before the
        // backward pass ends.
        let cfg = SimConfig::new(presets::resnet50(), 16);
        let trace = trace_iteration(&cfg);
        let backward_end = trace
            .iter()
            .find(|e| e.stream == Stream::Compute)
            .expect("compute span")
            .end_s;
        let first_comm = trace
            .iter()
            .filter(|e| e.stream == Stream::Comm)
            .map(|e| e.start_s)
            .fold(f64::MAX, f64::min);
        assert!(
            first_comm < 0.2 * backward_end,
            "first bucket must start early: {first_comm} vs backward end {backward_end}"
        );
    }

    #[test]
    fn compressed_trace_is_sequential() {
        let cfg =
            SimConfig::new(presets::resnet50(), 16).method(MethodConfig::PowerSgd { rank: 4 });
        let trace = trace_iteration(&cfg);
        // encode starts when backward ends; comm starts when encode ends.
        let backward = &trace[0];
        let encode = &trace[1];
        assert!((encode.start_s - backward.end_s).abs() < 1e-12);
        let comm_start = trace
            .iter()
            .filter(|e| e.stream == Stream::Comm)
            .map(|e| e.start_s)
            .fold(f64::MAX, f64::min);
        assert!((comm_start - encode.end_s).abs() < 1e-12);
    }

    #[test]
    fn single_worker_trace_is_backward_only() {
        let cfg = SimConfig::new(presets::resnet50(), 1);
        let trace = trace_iteration(&cfg);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].stream, Stream::Compute);
    }

    #[test]
    fn ascii_render_has_two_streams_and_fills() {
        let cfg = SimConfig::new(presets::resnet50(), 16);
        let chart = render_ascii(&trace_iteration(&cfg), 60);
        assert!(chart.contains("compute |"));
        assert!(chart.contains("comm    |"));
        assert!(chart.contains('█'));
        assert!(chart.contains('▒'));
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn tiny_chart_panics() {
        let _ = render_ascii(&[], 3);
    }

    #[test]
    fn run_events_render_human_readable() {
        let dead = RunEvent {
            step: 5,
            kind: RunEventKind::RankDead { rank: 3 },
        };
        let shrink = RunEvent {
            step: 5,
            kind: RunEventKind::RingShrink { from: 8, to: 7 },
        };
        assert_eq!(dead.to_string(), "step 5: rank 3 died");
        assert_eq!(shrink.to_string(), "step 5: ring shrank 8 -> 7 workers");
    }
}
