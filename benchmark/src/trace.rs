//! In-memory spans around the calls into each layer. One [`Recorder`]
//! per rank thread; nothing is written until the run has ended.

use std::time::Instant;

use serde_json::{json, Value};

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One timed call: what, when, inside which span, in which step.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or `u32::MAX`.
    pub parent: u32,
    /// Training step the span belongs to (the identifier spans of one
    /// step share).
    pub step: u32,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Which collective a rank entered, with the bytes it contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    AllReduce(usize),
    AllGather(usize),
}

/// Per-step readings of `PipelinedEngine`'s own probes, which are the
/// only view into an engine whose schedule runs on its comm thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineProbe {
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub exposed_wait_ms: f64,
    pub comm_busy_ms: f64,
}

/// Span and count sink of one rank.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
    /// Every collective entered, in call order.
    pub collectives: Vec<Collective>,
    /// One entry per step on the pipelined workload, none elsewhere.
    pub probes: Vec<PipelineProbe>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            collectives: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: usize) {
        self.step = u32::try_from(step).unwrap_or(u32::MAX);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` gets the recorder back
    /// so it can open child spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            step: self.step,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// [`scope`](Self::scope) for a call that opens no child spans.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.scope(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, rank: usize) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent = (s.parent != NO_PARENT).then_some(s.parent);
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": parent,
                    "step": s.step
                })
            })
            .collect();
        json!({ "rank": rank, "spans": spans })
    }
}

/// Self time of every span in ms: its duration minus the part its child
/// spans cover. Children of one span never overlap (one thread, strictly
/// nested scopes), so their durations simply subtract.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_ms).collect();
    for span in spans {
        if let Some(parent) = own.get_mut(span.parent as usize) {
            *parent -= span.duration_ms();
        }
    }
    own
}

/// For each step in `first..first + steps`, the total duration in ms of
/// the spans whose name is in `names`.
pub fn per_step_ms(spans: &[Span], names: &[&str], first: usize, steps: usize) -> Vec<f64> {
    let mut totals = vec![0.0; steps];
    for span in spans.iter().filter(|s| names.contains(&s.name)) {
        if let Some(slot) = (span.step as usize)
            .checked_sub(first)
            .and_then(|i| totals.get_mut(i))
        {
            *slot += span.duration_ms();
        }
    }
    totals
}

/// Share (in %) of the `root`-named spans' time that no leaf span
/// accounts for: the self time of every span that has children, over the
/// total duration of the roots.
pub fn residual_pct(spans: &[Span], root: &str) -> f64 {
    let own = self_times_ms(spans);
    let mut has_child = vec![false; spans.len()];
    for span in spans {
        if let Some(flag) = has_child.get_mut(span.parent as usize) {
            *flag = true;
        }
    }
    // Only spans under a root count; loss evaluation sits outside steps.
    let under_root = |mut i: usize| loop {
        if spans[i].name == root {
            return true;
        }
        match spans.get(spans[i].parent as usize) {
            Some(_) => i = spans[i].parent as usize,
            None => return false,
        }
    };
    let total: f64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::duration_ms)
        .sum();
    let unattributed: f64 = (0..spans.len())
        .filter(|&i| has_child[i] && under_root(i))
        .map(|i| own[i])
        .sum();
    if total > 0.0 {
        100.0 * unattributed / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, step: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            step,
        }
    }

    /// step[0..10ms] { grad[0..4], exchange[4..9] { encode[4..5], reduce[5..8] } }
    fn one_step() -> Vec<Span> {
        vec![
            span("step", 0, 10_000_000, NO_PARENT, 0),
            span("train.grad", 0, 4_000_000, 0, 0),
            span("ddp.exchange", 4_000_000, 9_000_000, 0, 0),
            span("compress.encode", 4_000_000, 5_000_000, 2, 0),
            span("cluster.all_reduce", 5_000_000, 8_000_000, 2, 0),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = self_times_ms(&one_step());
        assert_eq!(own, vec![1.0, 4.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn residual_is_the_unattributed_share_of_the_step() {
        // 1 ms of step + 1 ms of exchange are covered by no leaf: 20 %.
        assert!((residual_pct(&one_step(), "step") - 20.0).abs() < 1e-9);
        assert_eq!(residual_pct(&[], "step"), 0.0);
    }

    #[test]
    fn residual_ignores_spans_outside_the_root() {
        let mut spans = one_step();
        // A loss evaluation with a child, outside any step.
        spans.push(span(
            "train.loss_eval",
            10_000_000,
            30_000_000,
            NO_PARENT,
            0,
        ));
        spans.push(span("inner", 10_000_000, 11_000_000, 5, 0));
        assert!((residual_pct(&spans, "step") - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_step_totals_group_by_step_and_name() {
        let mut spans = one_step();
        spans.push(span(
            "compress.encode",
            20_000_000,
            22_000_000,
            NO_PARENT,
            1,
        ));
        spans.push(span(
            "compress.encode",
            23_000_000,
            23_500_000,
            NO_PARENT,
            1,
        ));
        spans.push(span(
            "compress.encode",
            30_000_000,
            39_000_000,
            NO_PARENT,
            7,
        ));
        let got = per_step_ms(&spans, &["compress.encode"], 0, 2);
        assert_eq!(got, vec![1.0, 2.5]);
        // A window that starts later drops earlier steps.
        assert_eq!(per_step_ms(&spans, &["compress.encode"], 1, 1), vec![2.5]);
        assert_eq!(
            per_step_ms(&spans, &["train.grad", "cluster.all_reduce"], 0, 1),
            vec![7.0]
        );
    }

    #[test]
    fn recorder_nests_scopes_and_stamps_steps() {
        let mut rec = Recorder::new();
        rec.set_step(3);
        let out = rec.scope("step", |rec| {
            rec.leaf("train.grad", || 1) + rec.scope("ddp.exchange", |rec| rec.leaf("x", || 2))
        });
        assert_eq!(out, 3);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["step", "train.grad", "ddp.exchange", "x"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 0, 2]);
        assert!(spans.iter().all(|s| s.step == 3 && s.end_ns >= s.start_ns));
        // A parent closes after its last child.
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }
}
