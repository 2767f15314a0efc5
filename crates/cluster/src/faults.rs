//! Deterministic, seed-driven fault injection for the cluster data plane.
//!
//! The paper's central claim is that synchronous training runs at the pace
//! of its *slowest* participant — but a perfectly reliable, perfectly
//! uniform [`SimCluster`](crate::SimCluster) cannot exhibit a slow or
//! failed participant at all. A [`FaultPlan`] fixes that: it describes,
//! ahead of time and keyed by a single seed, which frames are delayed,
//! dropped, or reordered on each directed link, and which ranks die at
//! which training iteration.
//!
//! # Determinism
//!
//! Every directed link `src → dst` owns an independent [`SplitMix64`]
//! stream seeded from `(plan.seed, src, dst)`, and consumes a fixed number
//! of draws per frame regardless of which faults are enabled. The fate of
//! the *n*-th frame on a link is therefore a pure function of the seed —
//! independent of thread scheduling, wall-clock time, or what other links
//! are doing. The [`FaultLog`] orders events by `(src, dst, seq)`, so two
//! runs with the same plan and the same per-worker program produce the
//! same event sequence even though worker threads interleave arbitrarily.
//!
//! # One injector
//!
//! Both backends send every frame through one sender-side injector, so a
//! plan drops, delays and reorders the same frames, and logs the same
//! events, on [`SimCluster`](crate::SimCluster) and on
//! [`TcpCluster`](crate::TcpCluster). An injected delay is rounded up to
//! whole microseconds on both, the unit the TCP header carries.
//!
//! # Dead ranks
//!
//! Rank death is *scheduled*, not emergent: the plan says "rank `r` dies
//! at iteration `N`", every worker knows the plan, and so every survivor
//! can compute the live membership for any iteration locally via
//! [`FaultPlan::live_members`] — no runtime consensus protocol needed.
//! The transport backstop (send/recv to a rank marked dead returns
//! [`ClusterError::PeerGone`](crate::ClusterError::PeerGone)) exists to
//! turn protocol bugs into errors instead of hangs.

use crate::Result;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How `recv` behaves inside collectives when a frame is late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvPolicy {
    /// Deadline for each receive attempt. `None` blocks forever (the
    /// pre-fault-plane behavior).
    pub timeout: Option<Duration>,
    /// Extra attempts after the first timeout. A timed-out frame is not
    /// lost — it stays queued and is receivable by the retry.
    pub retries: u32,
    /// Added to the deadline on every retry (linear backoff), so a retry
    /// waits longer than the attempt it follows.
    pub backoff: Duration,
}

impl RecvPolicy {
    /// Block forever (no timeout, no retries).
    pub fn blocking() -> Self {
        RecvPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Time out each attempt after `timeout`, retrying `retries` times
    /// with `backoff` added per retry.
    pub fn with_timeout(timeout: Duration, retries: u32, backoff: Duration) -> Self {
        RecvPolicy {
            timeout: Some(timeout),
            retries,
            backoff,
        }
    }
}

impl Default for RecvPolicy {
    fn default() -> Self {
        Self::blocking()
    }
}

/// A scheduled rank death: `rank` completes iterations `0..at_iter` and
/// never participates in iteration `at_iter` or later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadRank {
    /// The rank that dies.
    pub rank: usize,
    /// First iteration the rank is dead for.
    pub at_iter: usize,
}

/// A complete, deterministic description of the faults to inject.
///
/// Built with [`FaultPlan::new`] plus builder-style setters. The default
/// plan injects nothing; each knob is independent.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all per-link streams derive from it.
    pub seed: u64,
    /// Per-frame extra delivery delay, drawn uniformly from
    /// `[0, delay_jitter)`. Zero disables.
    pub delay_jitter: Duration,
    /// Per-frame probability of the frame being silently lost.
    pub drop_prob: f64,
    /// Per-frame probability of the frame being held back and swapped
    /// with the next frame on the same link (a no-op when no later frame
    /// follows before the sender's next receive — you cannot reorder a
    /// lone packet).
    pub reorder_prob: f64,
    /// Scheduled rank deaths.
    pub dead: Vec<DeadRank>,
    /// Receive deadline policy collectives run under.
    pub recv: RecvPolicy,
}

impl FaultPlan {
    /// A plan that injects nothing, keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_jitter: Duration::ZERO,
            drop_prob: 0.0,
            reorder_prob: 0.0,
            dead: Vec::new(),
            recv: RecvPolicy::blocking(),
        }
    }

    /// Sets the per-frame delay jitter bound.
    pub fn delay_jitter(mut self, jitter: Duration) -> Self {
        self.delay_jitter = jitter;
        self
    }

    /// Sets the per-frame drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the per-frame reorder probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn reorder_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "reorder probability must be in [0, 1]"
        );
        self.reorder_prob = p;
        self
    }

    /// Schedules `rank` to die at iteration `at_iter`.
    pub fn kill(mut self, rank: usize, at_iter: usize) -> Self {
        self.dead.push(DeadRank { rank, at_iter });
        self
    }

    /// Sets the receive deadline policy.
    pub fn recv_policy(mut self, policy: RecvPolicy) -> Self {
        self.recv = policy;
        self
    }

    /// Whether any fault at all is configured.
    pub fn is_benign(&self) -> bool {
        self.delay_jitter.is_zero()
            && self.drop_prob == 0.0
            && self.reorder_prob == 0.0
            && self.dead.is_empty()
    }

    /// Whether `rank` is dead at (i.e. does not participate in) `iter`.
    pub fn dead_at(&self, rank: usize, iter: usize) -> bool {
        self.dead
            .iter()
            .any(|d| d.rank == rank && d.at_iter <= iter)
    }

    /// The sorted live membership for iteration `iter` in a `world`-rank
    /// cluster. Every worker computes this identically from the shared
    /// plan, which is what lets survivors shrink the ring without any
    /// runtime agreement protocol.
    pub fn live_members(&self, world: usize, iter: usize) -> Vec<usize> {
        (0..world).filter(|&r| !self.dead_at(r, iter)).collect()
    }

    /// Earliest iteration at which membership changes, after `iter`
    /// (exclusive). `None` if membership is stable from `iter` on.
    pub fn next_death_after(&self, iter: usize) -> Option<usize> {
        self.dead
            .iter()
            .map(|d| d.at_iter)
            .filter(|&n| n > iter)
            .min()
    }
}

/// What was injected, where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame's delivery was delayed by `extra` beyond the (emulated)
    /// network time.
    Delay {
        /// Extra delay injected on top of the link's base delivery time,
        /// in whole microseconds.
        extra: Duration,
    },
    /// The frame was silently lost.
    Drop,
    /// The frame was held back to swap with the next frame on the link.
    Reorder,
    /// A rank died on schedule.
    RankDead {
        /// First iteration the rank was dead for.
        at_iter: usize,
    },
}

/// One injected fault. `seq` is the frame's per-link sequence number
/// (`RankDead` events use the death iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Sending rank (for `RankDead`, the dead rank).
    pub src: usize,
    /// Receiving rank (for `RankDead`, the dead rank).
    pub dst: usize,
    /// Per-link frame sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// Shared, append-only record of injected faults.
///
/// Workers append concurrently; [`FaultLog::events`] returns the events
/// sorted by `(src, dst, seq)`, which makes the sequence deterministic
/// (per-link streams are seed-pure, and the sort erases thread
/// interleaving).
#[derive(Debug, Default)]
pub struct FaultLog {
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&self, event: FaultEvent) {
        // A poisoned mutex only means another worker panicked mid-push;
        // the Vec inside is still valid, keep logging.
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// All recorded events, sorted by `(src, dst, seq)`.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut out = self
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        out.sort_by_key(|e| (e.src, e.dst, e.seq));
        out
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// SplitMix64 — the classic 64-bit mixing PRNG (Steele et al.). Chosen
/// because it is tiny, dependency-free (this crate deliberately has no
/// `rand` dependency), and statistically fine for fault rolls.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The decided fate of one frame on one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FrameFate {
    /// Per-link sequence number of the frame this fate applies to.
    pub seq: u64,
    /// Silently lose the frame.
    pub drop: bool,
    /// Hold the frame back to swap with the link's next frame.
    pub reorder: bool,
    /// Extra delivery delay.
    pub extra: Duration,
}

/// Per-directed-link fault stream: an independent RNG plus a frame
/// counter. Owned by the sending side of the link.
#[derive(Debug)]
pub(crate) struct LinkFaults {
    rng: SplitMix64,
    seq: u64,
}

impl LinkFaults {
    /// Stream for the directed link `src → dst` under `seed`.
    pub(crate) fn new(seed: u64, src: usize, dst: usize) -> Self {
        // Decorrelate links by running the (seed, src, dst) triple through
        // the mixer itself: seed the stream with a mixed fingerprint.
        let mut fingerprint =
            SplitMix64::new(seed ^ ((src as u64) << 32) ^ (dst as u64).wrapping_mul(0x9E3779B1));
        LinkFaults {
            rng: SplitMix64::new(fingerprint.next_u64()),
            seq: 0,
        }
    }

    /// Decides the next frame's fate. Always consumes exactly three draws
    /// so the stream position depends only on the frame count, not on
    /// which faults are enabled.
    pub(crate) fn next_fate(&mut self, plan: &FaultPlan) -> FrameFate {
        let seq = self.seq;
        self.seq += 1;
        let drop_roll = self.rng.next_f64();
        let reorder_roll = self.rng.next_f64();
        let delay_roll = self.rng.next_f64();
        FrameFate {
            seq,
            drop: drop_roll < plan.drop_prob,
            reorder: reorder_roll < plan.reorder_prob,
            extra: if plan.delay_jitter.is_zero() {
                Duration::ZERO
            } else {
                plan.delay_jitter.mul_f64(delay_roll)
            },
        }
    }
}

/// Sender-side fault injection for one worker under a [`FaultPlan`].
/// Both backends drive their links through it, so a plan drops, delays,
/// reorders and logs the same frames on each. `H` is what the backend
/// puts on a link: a packet with its emulated delivery time in the
/// simulator, a frame with its header delay over TCP.
#[derive(Debug)]
pub(crate) struct Injector<H> {
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) log: Arc<FaultLog>,
    rank: usize,
    /// Per-outgoing-link fault streams.
    links: Vec<RefCell<LinkFaults>>,
    /// Reorder stash: what was held back to swap with the link's next
    /// frame. Flushed (in link order) before the worker blocks in a
    /// receive, so a held frame can never deadlock a lock-step collective.
    held: Vec<RefCell<Option<H>>>,
}

impl<H> Injector<H> {
    /// Fault streams for every link out of `rank` in a `world`-rank cluster.
    pub(crate) fn new(plan: Arc<FaultPlan>, log: Arc<FaultLog>, rank: usize, world: usize) -> Self {
        Injector {
            links: (0..world)
                .map(|dst| RefCell::new(LinkFaults::new(plan.seed, rank, dst)))
                .collect(),
            held: (0..world).map(|_| RefCell::new(None)).collect(),
            plan,
            log,
            rank,
        }
    }

    fn record(&self, dst: usize, seq: u64, kind: FaultKind) {
        self.log.record(FaultEvent {
            src: self.rank,
            dst,
            seq,
            kind,
        });
    }

    /// Sends one frame to `peer` as the link's next fate decides: drops
    /// it, or `wrap`s it with its injected delay — rounded up to whole
    /// µs, which is what the TCP header carries and what the log records
    /// — and either holds it back for a swap or `put`s it on the link,
    /// followed by the frame held before it.
    pub(crate) fn send(
        &self,
        peer: usize,
        wrap: impl FnOnce(Duration) -> H,
        put: impl Fn(usize, H) -> Result<()>,
    ) -> Result<()> {
        let fate = self.links[peer].borrow_mut().next_fate(&self.plan);
        if fate.drop {
            self.record(peer, fate.seq, FaultKind::Drop);
            return Ok(());
        }
        let extra = Duration::from_micros(fate.extra.as_nanos().div_ceil(1_000) as u64);
        if !extra.is_zero() {
            self.record(peer, fate.seq, FaultKind::Delay { extra });
        }
        let item = wrap(extra);
        let previously_held = self.held[peer].borrow_mut().take();
        if fate.reorder && previously_held.is_none() {
            // Hold this frame back; the link's next send (or this worker's
            // next receive, whichever comes first) releases it.
            *self.held[peer].borrow_mut() = Some(item);
            self.record(peer, fate.seq, FaultKind::Reorder);
            return Ok(());
        }
        // The fresh frame goes first, then any held one: the swap.
        put(peer, item)?;
        if let Some(held) = previously_held {
            put(peer, held)?;
        }
        Ok(())
    }

    /// Releases every held frame, in link order. A gone peer just loses
    /// its frame: the flush is best-effort by design.
    pub(crate) fn flush(&self, put: impl Fn(usize, H) -> Result<()>) {
        for (peer, slot) in self.held.iter().enumerate() {
            if let Some(item) = slot.borrow_mut().take() {
                let _ = put(peer, item);
            }
        }
    }

    /// Logs this worker's scheduled death at `at_iter`.
    pub(crate) fn record_death(&self, at_iter: usize) {
        self.record(self.rank, at_iter as u64, FaultKind::RankDead { at_iter });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
        // Known first output of splitmix64(0) from the reference
        // implementation.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let u = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn link_streams_are_independent_and_reproducible() {
        let plan = FaultPlan::new(99)
            .drop_prob(0.3)
            .reorder_prob(0.2)
            .delay_jitter(Duration::from_micros(500));
        let fates = |src: usize, dst: usize| -> Vec<FrameFate> {
            let mut link = LinkFaults::new(plan.seed, src, dst);
            (0..32).map(|_| link.next_fate(&plan)).collect()
        };
        assert_eq!(fates(0, 1), fates(0, 1), "same link must replay");
        assert_ne!(fates(0, 1), fates(1, 0), "directions must decorrelate");
        assert_ne!(fates(0, 1), fates(0, 2), "destinations must decorrelate");
    }

    #[test]
    fn stream_position_is_independent_of_enabled_faults() {
        // The delay sequence must not shift when drops are toggled on:
        // every frame consumes the same number of draws.
        let delays = |drop_prob: f64| -> Vec<Duration> {
            let plan = FaultPlan::new(5)
                .drop_prob(drop_prob)
                .delay_jitter(Duration::from_micros(100));
            let mut link = LinkFaults::new(plan.seed, 2, 3);
            (0..16).map(|_| link.next_fate(&plan).extra).collect()
        };
        assert_eq!(delays(0.0), delays(0.9));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(123).drop_prob(0.25);
        let mut link = LinkFaults::new(plan.seed, 0, 1);
        let drops = (0..4000).filter(|_| link.next_fate(&plan).drop).count();
        let rate = drops as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn live_members_shrink_on_schedule() {
        let plan = FaultPlan::new(0).kill(3, 10).kill(5, 20);
        assert_eq!(plan.live_members(8, 0), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.live_members(8, 9), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.live_members(8, 10), vec![0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(plan.live_members(8, 25), vec![0, 1, 2, 4, 6, 7]);
        assert!(plan.dead_at(3, 10));
        assert!(!plan.dead_at(3, 9));
        assert_eq!(plan.next_death_after(0), Some(10));
        assert_eq!(plan.next_death_after(10), Some(20));
        assert_eq!(plan.next_death_after(20), None);
    }

    #[test]
    fn benign_plan_detection() {
        assert!(FaultPlan::new(7).is_benign());
        assert!(!FaultPlan::new(7).drop_prob(0.1).is_benign());
        assert!(!FaultPlan::new(7).kill(0, 1).is_benign());
        // A recv policy alone is benign: it changes how workers wait, not
        // what the network does.
        assert!(FaultPlan::new(7)
            .recv_policy(RecvPolicy::with_timeout(
                Duration::from_millis(10),
                2,
                Duration::from_millis(5)
            ))
            .is_benign());
    }

    #[test]
    fn fault_log_sorts_by_link_then_seq() {
        let log = FaultLog::new();
        let ev = |src, dst, seq| FaultEvent {
            src,
            dst,
            seq,
            kind: FaultKind::Drop,
        };
        log.record(ev(1, 0, 1));
        log.record(ev(0, 1, 5));
        log.record(ev(0, 1, 2));
        log.record(ev(1, 0, 0));
        let evs = log.events();
        let keys: Vec<(usize, usize, u64)> = evs.iter().map(|e| (e.src, e.dst, e.seq)).collect();
        assert_eq!(keys, vec![(0, 1, 2), (0, 1, 5), (1, 0, 0), (1, 0, 1)]);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn out_of_range_drop_prob_rejected() {
        let _ = FaultPlan::new(0).drop_prob(1.5);
    }
}
