//! Point-to-point transport between workers.
//!
//! The [`Transport`] trait is the primitive surface every backend
//! provides: rank/world identity, `send`/`recv`/`recv_deadline` over
//! [`Frame`]s (plus `send_slice` for borrowed bytes), liveness
//! (`is_alive`/`mark_dead`), traffic counters, and the optional fault
//! plane. A [`WorkerHandle`] wraps a boxed backend and
//! carries everything built *on top* of those primitives — the
//! collectives in [`crate::collectives`], the live member list they ring
//! over (shrunk by survivors through `set_members`), `recv_robust` retry
//! policies — so the same collective code runs unchanged over the
//! in-process simulator ([`SimCluster`]) and the real multi-process TCP
//! mesh ([`TcpCluster`](crate::tcp::TcpCluster)).
//!
//! A [`SimCluster`] wires up a full mesh of unbounded channels between `p`
//! ranks. Each worker thread owns a [`WorkerHandle`] giving it `send` /
//! `recv` to any peer plus the collectives (exposed as methods). Traffic
//! is counted per worker so tests and benches can assert on bytes actually
//! moved. Under a [`FaultPlan`] each worker sends through the sender-side
//! injector in [`crate::faults`], the one the TCP backend uses too.
//!
//! Messages travel as [`Frame`]s — reference-counted byte buffers. Cloning
//! a frame bumps a refcount instead of copying the payload, so collectives
//! that fan the same bytes out to many peers (all-gather forwarding,
//! broadcast) move each byte through memory once. A receiver that ends up
//! holding the only reference can reclaim the allocation with
//! [`Frame::into_vec`] and reuse it for its next send, which is what makes
//! the ring all-reduce allocation-free in steady state.
//!
//! # Network emulation
//!
//! A cluster built with [`SimCluster::new_with_netem`] paces frame
//! delivery through the α–β model the paper's cost formulas use: a frame
//! of `b` bytes sent at time `t` over a link whose previous transmission
//! ends at `t_free` becomes visible to the receiver at
//! `max(t, t_free) + b/BW + α`. Senders never block (an asynchronous NIC
//! with buffering); receivers sleep until the delivery deadline. This
//! turns communication into *wall-clock time that does not consume CPU*,
//! which is exactly what a pipelined engine can hide behind compute — and
//! what a sequential engine cannot. Emulation is a property of the
//! simulator; the TCP backend's wire is real and needs none.

use crate::faults::{FaultEvent, FaultLog, FaultPlan, Injector, RecvPolicy};
use crate::{ClusterError, Result};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message on the wire: immutable, reference-counted bytes.
///
/// `Clone` is a refcount bump. Build one from an owned `Vec<u8>` with
/// [`Frame::from_vec`] (no copy) or from borrowed bytes with
/// [`Frame::copy_from_slice`] (one copy). Dereferences to `[u8]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Arc<Vec<u8>>);

impl Frame {
    /// Wraps an owned buffer without copying.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Frame(Arc::new(bytes))
    }

    /// Copies borrowed bytes into a new frame.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Frame(Arc::new(bytes.to_vec()))
    }

    /// An empty frame.
    pub fn empty() -> Self {
        Frame(Arc::new(Vec::new()))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Recovers the underlying buffer — without copying when this is the
    /// only reference (the common case for ring traffic, where every frame
    /// has exactly one receiver).
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| arc.as_ref().clone())
    }

    /// Number of strong references to the payload (for tests asserting
    /// zero-copy behavior).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Self {
        Frame::from_vec(bytes)
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Self {
        Frame::copy_from_slice(bytes)
    }
}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

/// α–β link emulation parameters: per-hop latency plus serialization at a
/// finite bandwidth. Matches the cost model's
/// `T = α + b/BW` per point-to-point transfer, with back-to-back sends on
/// one link serialized (each directed link transmits one frame at a time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetEmu {
    /// Per-hop propagation latency (the cost model's α).
    pub latency: Duration,
    /// Link bandwidth in bytes per second (the cost model's BW).
    pub bytes_per_sec: f64,
}

impl NetEmu {
    /// Creates an emulated link from latency and bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(latency: Duration, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be positive and finite"
        );
        NetEmu {
            latency,
            bytes_per_sec,
        }
    }

    /// Convenience constructor in the units the paper uses: latency in
    /// microseconds, bandwidth in Gbit/s.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive and finite.
    pub fn from_gbps(latency_us: f64, gbps: f64) -> Self {
        Self::new(Duration::from_secs_f64(latency_us * 1e-6), gbps * 1e9 / 8.0)
    }

    /// Serialization time of `bytes` on this link.
    fn tx_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// What actually travels to a receiver: the frame plus its (emulated or
/// fault-injected) delivery deadline — `None` for immediate delivery.
#[derive(Debug)]
pub(crate) struct Packet {
    pub(crate) frame: Frame,
    pub(crate) deliver_at: Option<Instant>,
}

/// Per-worker traffic counters, shared with the cluster for post-run
/// inspection. Every backend counts *payload* bytes only, so per-rank
/// totals are comparable across backends and against the schedule IR
/// (the TCP header overhead is bookkeeping, not schedule traffic).
/// Counters are SeqCst: they sit off the hot path, and the workspace
/// lint rejects `Ordering::Relaxed` outside tests.
#[derive(Debug, Default)]
pub struct TrafficCounter {
    bytes_sent: AtomicU64,
    messages_sent: AtomicU64,
}

impl TrafficCounter {
    /// Total bytes this worker sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::SeqCst)
    }

    /// Total messages this worker sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::SeqCst)
    }

    pub(crate) fn record(&self, bytes: usize) {
        self.bytes_sent.fetch_add(bytes as u64, Ordering::SeqCst);
        self.messages_sent.fetch_add(1, Ordering::SeqCst);
    }
}

/// Validates a peer rank against the world size.
pub(crate) fn check_peer(peer: usize, world: usize) -> Result<()> {
    if peer >= world {
        return Err(ClusterError::InvalidArgument(format!(
            "peer {peer} out of range for world {world}"
        )));
    }
    Ok(())
}

/// Per-peer inbound queues plus the pending-slot machinery behind
/// `recv_deadline`'s exactly-once timeout semantics. Shared by every
/// backend: the simulator feeds the queues directly from sender threads,
/// the TCP backend from per-socket reader threads — so the deadline and
/// retry behavior collectives observe is identical by construction.
#[derive(Debug)]
pub(crate) struct Mailbox {
    /// `receivers[j]` yields frames sent *by* rank `j`.
    receivers: Vec<Receiver<Packet>>,
    /// `pending[j]`: a packet from rank `j` whose delivery deadline
    /// exceeded a `recv_deadline` — it surfaced as a timeout but stays
    /// receivable by a retry.
    pending: Vec<RefCell<Option<Packet>>>,
}

impl Mailbox {
    pub(crate) fn new(receivers: Vec<Receiver<Packet>>) -> Self {
        let pending = (0..receivers.len()).map(|_| RefCell::new(None)).collect();
        Mailbox { receivers, pending }
    }

    /// Sleeps until `packet`'s delivery deadline, then surfaces the frame.
    fn deliver(packet: Packet) -> Frame {
        if let Some(deliver_at) = packet.deliver_at {
            let now = Instant::now();
            if deliver_at > now {
                std::thread::sleep(deliver_at - now);
            }
        }
        packet.frame
    }

    /// Blocking receive from `peer`. `alive` is the caller's current view
    /// of the peer; `hangup` maps a closed queue to the backend's error.
    pub(crate) fn recv(
        &self,
        peer: usize,
        alive: bool,
        hangup: impl Fn() -> ClusterError,
    ) -> Result<Frame> {
        if let Some(packet) = self.pending[peer].borrow_mut().take() {
            return Ok(Self::deliver(packet));
        }
        if !alive {
            // Drain anything the peer managed to send before dying, but
            // never block on a dead rank.
            return match self.receivers[peer].try_recv() {
                Ok(packet) => Ok(Self::deliver(packet)),
                Err(_) => Err(ClusterError::PeerGone { peer }),
            };
        }
        let packet = self.receivers[peer].recv().map_err(|_| hangup())?;
        Ok(Self::deliver(packet))
    }

    /// Receive from `peer` with a deadline. A frame whose delivery
    /// deadline lies beyond the timeout is **not** discarded: it is
    /// stashed in the pending slot and returned by the next receive, so a
    /// timeout is surfaced exactly once per late frame.
    pub(crate) fn recv_deadline(
        &self,
        peer: usize,
        timeout: Duration,
        alive: bool,
        hangup: impl Fn() -> ClusterError,
    ) -> Result<Frame> {
        let deadline = Instant::now() + timeout;
        {
            let mut slot = self.pending[peer].borrow_mut();
            if let Some(packet) = slot.take() {
                if packet.deliver_at.is_some_and(|d| d > deadline) {
                    *slot = Some(packet);
                    return Err(ClusterError::Timeout { peer });
                }
                drop(slot);
                return Ok(Self::deliver(packet));
            }
        }
        if !alive {
            return match self.receivers[peer].try_recv() {
                Ok(packet) => Ok(Self::deliver(packet)),
                Err(_) => Err(ClusterError::PeerGone { peer }),
            };
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        match self.receivers[peer].recv_timeout(remaining) {
            Ok(packet) => {
                if packet.deliver_at.is_some_and(|d| d > deadline) {
                    *self.pending[peer].borrow_mut() = Some(packet);
                    return Err(ClusterError::Timeout { peer });
                }
                Ok(Self::deliver(packet))
            }
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout { peer }),
            Err(RecvTimeoutError::Disconnected) => Err(hangup()),
        }
    }
}

/// The primitive transport surface a backend provides. Everything above
/// this line — collectives, member lists, `recv_robust`, the comm engine,
/// the pipelined/adaptive engines — is built on a
/// [`WorkerHandle`] and therefore runs unchanged over any implementation.
///
/// Implementations may assume `peer < world()`: [`WorkerHandle`] validates
/// peers before delegating. `Send` (but not `Sync`) is required so a
/// handle can move onto a comm thread; a handle is owned by exactly one
/// thread at a time.
pub trait Transport: Send + std::fmt::Debug {
    /// Short backend name for diagnostics and bench row identity
    /// (`"sim"`, `"tcp"`).
    fn backend(&self) -> &'static str;

    /// This worker's rank in `0..world()`.
    fn rank(&self) -> usize;

    /// Number of workers in the cluster.
    fn world(&self) -> usize;

    /// This worker's traffic counters (payload bytes and message counts).
    fn traffic(&self) -> &TrafficCounter;

    /// Sends a frame to `peer`. Under a [`FaultPlan`] the frame may be
    /// silently dropped, delayed, or held back to swap with the link's
    /// next frame — decided by the link's deterministic fault stream.
    fn send(&self, peer: usize, frame: Frame) -> Result<()>;

    /// Sends borrowed bytes to `peer` as one frame. Identical on the wire,
    /// in the traffic counters and under a [`FaultPlan`] to
    /// `send(peer, Frame::copy_from_slice(bytes))`, which is what this
    /// default does; a backend that can write borrowed bytes straight to
    /// its wire overrides it to skip the copy.
    fn send_slice(&self, peer: usize, bytes: &[u8]) -> Result<()> {
        self.send(peer, Frame::copy_from_slice(bytes))
    }

    /// Receives the next frame sent by `peer` (blocking).
    fn recv(&self, peer: usize) -> Result<Frame>;

    /// Receives the next frame sent by `peer`, giving up after `timeout`.
    /// A late frame is stashed, not lost: the timeout surfaces exactly
    /// once and the frame remains receivable on retry.
    fn recv_deadline(&self, peer: usize, timeout: Duration) -> Result<Frame>;

    /// Whether `peer` is still participating, as far as this worker
    /// knows. `peer == rank()` reports this worker's own state.
    fn is_alive(&self, peer: usize) -> bool;

    /// Declares this worker dead as of iteration `at_iter` and makes the
    /// death visible to peers (shared bitmap in the simulator, a control
    /// frame on the TCP wire).
    fn mark_dead(&self, at_iter: usize);

    /// The fault plan this worker runs under, if one was installed.
    fn fault_plan(&self) -> Option<&FaultPlan>;

    /// The shared fault log, if fault injection is enabled.
    fn fault_log(&self) -> Option<Arc<FaultLog>>;
}

/// A worker's endpoint into the cluster: rank, world size, point-to-point
/// messaging and traffic accounting over a boxed [`Transport`] backend.
/// Collective operations are implemented in [`crate::collectives`] and
/// exposed as inherent methods, so they work identically over every
/// backend.
///
/// The handle also owns the live member list the ring collectives run
/// over: `0..world` from construction, shrunk by survivors of a rank
/// death through [`WorkerHandle::set_members`].
#[derive(Debug)]
pub struct WorkerHandle {
    inner: Box<dyn Transport>,
    /// The ranks on the ring, strictly ascending, containing this rank.
    members: Vec<usize>,
    /// This rank's position in `members`.
    pos: usize,
}

impl WorkerHandle {
    /// Wraps a backend. Used by cluster constructors; callers normally
    /// obtain handles from [`SimCluster`] or
    /// [`TcpCluster`](crate::tcp::TcpCluster).
    pub fn from_transport(inner: Box<dyn Transport>) -> Self {
        let members = (0..inner.world()).collect();
        let pos = inner.rank();
        WorkerHandle {
            inner,
            members,
            pos,
        }
    }

    /// Unwraps the backend, dropping the member list — so a wrapper
    /// transport can be put around it and installed with
    /// [`WorkerHandle::from_transport`].
    pub fn into_transport(self) -> Box<dyn Transport> {
        self.inner
    }

    /// The ranks the ring collectives run over, ascending: `0..world`
    /// unless [`WorkerHandle::set_members`] shrank the ring.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Replaces the live member list — the shrunk ring survivors run on
    /// after a rank death. `members` must be the same strictly ascending
    /// list on every participating rank and must contain this rank; ranks
    /// not on it are simply not on the ring. Ring collectives
    /// (`all_reduce_sum`, `all_gather_bytes`, `barrier`) and the means
    /// built on them then cover the members only; the rank-addressed
    /// `broadcast` refuses to run on a shrunk handle.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] for an empty, unsorted,
    /// duplicated or out-of-range list, or one without this rank; the
    /// handle keeps its previous members.
    pub fn set_members(&mut self, members: &[usize]) -> Result<()> {
        if members.is_empty() {
            return Err(ClusterError::InvalidArgument(
                "member list must not be empty".into(),
            ));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(ClusterError::InvalidArgument(
                "member list must be strictly ascending".into(),
            ));
        }
        if let Some(&last) = members.last() {
            check_peer(last, self.world())?;
        }
        let Ok(pos) = members.binary_search(&self.rank()) else {
            return Err(ClusterError::InvalidArgument(format!(
                "rank {} is not in the member list",
                self.rank()
            )));
        };
        self.members = members.to_vec();
        self.pos = pos;
        Ok(())
    }

    /// This rank on the member ring: `(m, pos, next, prev)` — the member
    /// count, this rank's position, and the ranks of its ring neighbours.
    /// At full membership `pos == rank` and `m == world`.
    pub(crate) fn ring(&self) -> (usize, usize, usize, usize) {
        let m = self.members.len();
        let pos = self.pos;
        (
            m,
            pos,
            self.members[(pos + 1) % m],
            self.members[(pos + m - 1) % m],
        )
    }

    /// Short backend name (`"sim"`, `"tcp"`).
    pub fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    /// This worker's rank in `0..world()`.
    pub fn rank(&self) -> usize {
        self.inner.rank()
    }

    /// Number of workers in the cluster.
    pub fn world(&self) -> usize {
        self.inner.world()
    }

    /// This worker's traffic counters.
    pub fn traffic(&self) -> &TrafficCounter {
        self.inner.traffic()
    }

    /// Sends a frame to `peer`. Accepts anything convertible into a
    /// [`Frame`]; passing a `Frame` forwards by refcount bump, passing a
    /// `Vec<u8>` wraps it without copying.
    ///
    /// Under a [`FaultPlan`] the frame may be silently dropped, delayed,
    /// or held back to swap with the link's next frame — all decided by
    /// the link's deterministic fault stream.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] for an out-of-range peer,
    /// [`ClusterError::PeerGone`] if the peer was declared dead, and
    /// [`ClusterError::Disconnected`] if the peer hung up.
    pub fn send(&self, peer: usize, bytes: impl Into<Frame>) -> Result<()> {
        check_peer(peer, self.world())?;
        self.inner.send(peer, bytes.into())
    }

    /// Sends borrowed bytes to `peer` as one frame — the same frame, fault
    /// fate and traffic record as [`WorkerHandle::send`] of a copy. Over
    /// TCP without a [`FaultPlan`] the bytes go from `bytes` to the socket
    /// with no copy; every other case copies them into a [`Frame`].
    ///
    /// # Errors
    ///
    /// As [`WorkerHandle::send`].
    pub fn send_slice(&self, peer: usize, bytes: &[u8]) -> Result<()> {
        check_peer(peer, self.world())?;
        self.inner.send_slice(peer, bytes)
    }

    /// Receives the next frame sent by `peer` (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] for an out-of-range peer,
    /// [`ClusterError::PeerGone`] if the peer was declared dead (or, on
    /// TCP, vanished) and has nothing queued, and
    /// [`ClusterError::Disconnected`] if the peer hung up.
    pub fn recv(&self, peer: usize) -> Result<Frame> {
        check_peer(peer, self.world())?;
        self.inner.recv(peer)
    }

    /// Receives the next frame sent by `peer`, giving up after `timeout`.
    ///
    /// A frame whose (emulated or fault-injected) delivery deadline lies
    /// beyond the timeout is **not** discarded: it is stashed and returned
    /// by the next receive from `peer`, so a timeout is surfaced exactly
    /// once per late frame and the frame remains receivable on retry.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Timeout`] when no frame is deliverable in time,
    /// plus everything [`WorkerHandle::recv`] returns.
    pub fn recv_deadline(&self, peer: usize, timeout: Duration) -> Result<Frame> {
        check_peer(peer, self.world())?;
        self.inner.recv_deadline(peer, timeout)
    }

    /// The receive collectives use: blocking by default, or
    /// deadline-plus-retry under the cluster's [`RecvPolicy`]. Each retry
    /// extends the deadline by the policy's backoff; after the last retry
    /// the timeout propagates to the caller instead of hanging the
    /// collective forever.
    ///
    /// # Errors
    ///
    /// Everything [`WorkerHandle::recv_deadline`] returns; the final
    /// attempt's [`ClusterError::Timeout`] when all retries elapse.
    pub fn recv_robust(&self, peer: usize) -> Result<Frame> {
        let policy = self
            .inner
            .fault_plan()
            .map_or_else(RecvPolicy::blocking, |plan| plan.recv);
        let Some(mut timeout) = policy.timeout else {
            return self.recv(peer);
        };
        check_peer(peer, self.world())?;
        let mut attempt = 0;
        loop {
            match self.inner.recv_deadline(peer, timeout) {
                Err(ClusterError::Timeout { .. }) if attempt < policy.retries => {
                    attempt += 1;
                    timeout += policy.backoff;
                }
                other => return other,
            }
        }
    }

    /// Whether `peer` is still participating. Always `true` in a
    /// simulator without a fault plan. `peer == self.rank()` reports this
    /// worker's own state.
    pub fn is_alive(&self, peer: usize) -> bool {
        self.inner.is_alive(peer)
    }

    /// Declares this worker dead as of iteration `at_iter`: peers'
    /// sends/recvs start returning [`ClusterError::PeerGone`] once the
    /// death is visible to them, and the event is recorded. The worker
    /// should stop participating in collectives immediately after.
    pub fn mark_dead(&self, at_iter: usize) {
        self.inner.mark_dead(at_iter);
    }

    /// The cluster's fault plan, if one was installed.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    /// The shared fault log, if fault injection is enabled.
    pub fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.inner.fault_log()
    }

    /// Rank of the next member on the ring.
    pub fn ring_next(&self) -> usize {
        self.ring().2
    }

    /// Rank of the previous member on the ring.
    pub fn ring_prev(&self) -> usize {
        self.ring().3
    }
}

/// The in-process backend: a full mesh of unbounded channels, with
/// optional α–β link emulation and deterministic fault injection.
#[derive(Debug)]
struct SimWorker {
    rank: usize,
    world: usize,
    /// `senders[j]` sends to rank `j` (index `rank` is a loop-back).
    senders: Vec<Sender<Packet>>,
    mailbox: Mailbox,
    traffic: Arc<TrafficCounter>,
    /// Link emulation, if enabled for this cluster.
    netem: Option<NetEmu>,
    /// `link_free[j]`: when the directed link to rank `j` finishes its
    /// current transmission (only meaningful with `netem`).
    link_free: Vec<Cell<Instant>>,
    /// Fault injection plus the shared alive bitmap (`alive[r]`: whether
    /// rank `r` is still participating, cleared by `mark_dead`), if this
    /// cluster runs under a [`FaultPlan`].
    faults: Option<(Injector<Packet>, Arc<Vec<AtomicBool>>)>,
}

impl SimWorker {
    fn put(&self, peer: usize, packet: Packet) -> Result<()> {
        self.senders[peer]
            .send(packet)
            .map_err(|_| ClusterError::Disconnected { peer })
    }

    /// Releases every reorder-held frame. Called before any receive so a
    /// held frame cannot deadlock a lock-step collective: once the sender
    /// starts waiting, everything it owes is on the wire.
    fn flush_held(&self) {
        if let Some((faults, _)) = &self.faults {
            faults.flush(|peer, packet| self.put(peer, packet));
        }
    }

    /// Maps a closed-channel receive error: a peer that was declared dead
    /// is [`ClusterError::PeerGone`]; anything else hung up unexpectedly.
    fn hangup_error(&self, peer: usize) -> ClusterError {
        if self.is_alive(peer) {
            ClusterError::Disconnected { peer }
        } else {
            ClusterError::PeerGone { peer }
        }
    }
}

impl Transport for SimWorker {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    fn send(&self, peer: usize, frame: Frame) -> Result<()> {
        if !self.is_alive(peer) {
            return Err(ClusterError::PeerGone { peer });
        }
        self.traffic.record(frame.len());
        let deliver_at = self.netem.map(|emu| {
            let now = Instant::now();
            let start = self.link_free[peer].get().max(now);
            let done = start + emu.tx_time(frame.len());
            self.link_free[peer].set(done);
            done + emu.latency
        });
        let Some((faults, _)) = &self.faults else {
            return self.put(peer, Packet { frame, deliver_at });
        };
        let delayed = |extra: Duration| {
            let deliver_at = if extra.is_zero() {
                deliver_at
            } else {
                Some(deliver_at.unwrap_or_else(Instant::now) + extra)
            };
            Packet { frame, deliver_at }
        };
        faults.send(peer, delayed, |peer, packet| self.put(peer, packet))
    }

    fn recv(&self, peer: usize) -> Result<Frame> {
        self.flush_held();
        self.mailbox
            .recv(peer, self.is_alive(peer), || self.hangup_error(peer))
    }

    fn recv_deadline(&self, peer: usize, timeout: Duration) -> Result<Frame> {
        self.flush_held();
        self.mailbox
            .recv_deadline(peer, timeout, self.is_alive(peer), || {
                self.hangup_error(peer)
            })
    }

    fn is_alive(&self, peer: usize) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|(_, alive)| alive[peer].load(Ordering::SeqCst))
    }

    fn mark_dead(&self, at_iter: usize) {
        if let Some((faults, alive)) = &self.faults {
            self.flush_held();
            alive[self.rank].store(false, Ordering::SeqCst);
            faults.record_death(at_iter);
        }
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|(faults, _)| faults.plan.as_ref())
    }

    fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.faults
            .as_ref()
            .map(|(faults, _)| Arc::clone(&faults.log))
    }
}

impl Drop for SimWorker {
    /// Reorder may *delay* a frame, never lose it: a worker exiting with a
    /// held frame still owes it to the wire.
    fn drop(&mut self) {
        self.flush_held();
    }
}

/// Builder/owner of the in-process channel mesh.
#[derive(Debug)]
pub struct SimCluster {
    handles: Vec<WorkerHandle>,
    traffic: Vec<Arc<TrafficCounter>>,
    fault_log: Option<Arc<FaultLog>>,
}

impl SimCluster {
    /// Creates a cluster of `world` workers and returns it with the worker
    /// handles still inside (take them with [`SimCluster::into_handles`]).
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize) -> Self {
        Self::new_with_netem(world, None)
    }

    /// Like [`SimCluster::new`], but with optional link emulation: every
    /// directed link between workers gets `netem`'s latency and bandwidth,
    /// and receivers block until a frame's emulated delivery time.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new_with_netem(world: usize, netem: Option<NetEmu>) -> Self {
        Self::new_with_faults(world, netem, None)
    }

    /// The full constructor: optional link emulation plus an optional
    /// deterministic [`FaultPlan`]. With a plan installed, every worker
    /// gets per-link fault streams derived from the plan's seed, the
    /// shared alive bitmap, and the shared [`FaultLog`] (retrieve it with
    /// [`SimCluster::fault_log`] before moving the handles to threads).
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new_with_faults(world: usize, netem: Option<NetEmu>, plan: Option<FaultPlan>) -> Self {
        assert!(world > 0, "cluster needs at least one worker");
        // mesh[dst][src]: the channel carrying frames from src to dst. Each
        // worker owns its receiver row and clones its column of senders.
        let (mesh, receivers): (Vec<Vec<_>>, Vec<Vec<_>>) = (0..world)
            .map(|_| (0..world).map(|_| channel()).unzip())
            .unzip();
        let traffic: Vec<Arc<TrafficCounter>> = (0..world)
            .map(|_| Arc::new(TrafficCounter::default()))
            .collect();
        let fault_shared = plan.map(|p| {
            (
                Arc::new(p),
                Arc::new(FaultLog::new()),
                Arc::new(
                    (0..world)
                        .map(|_| AtomicBool::new(true))
                        .collect::<Vec<_>>(),
                ),
            )
        });
        let epoch = Instant::now();
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receivers)| {
                WorkerHandle::from_transport(Box::new(SimWorker {
                    rank,
                    world,
                    senders: mesh.iter().map(|to_dst| to_dst[rank].clone()).collect(),
                    mailbox: Mailbox::new(receivers),
                    traffic: Arc::clone(&traffic[rank]),
                    netem,
                    link_free: (0..world).map(|_| Cell::new(epoch)).collect(),
                    faults: fault_shared.as_ref().map(|(plan, log, alive)| {
                        let injector =
                            Injector::new(Arc::clone(plan), Arc::clone(log), rank, world);
                        (injector, Arc::clone(alive))
                    }),
                }))
            })
            .collect();
        SimCluster {
            handles,
            traffic,
            fault_log: fault_shared.map(|(_, log, _)| log),
        }
    }

    /// Takes the worker handles (one per rank, in rank order).
    pub fn into_handles(self) -> Vec<WorkerHandle> {
        self.handles
    }

    /// Traffic counters by rank (remain valid after handles are moved to
    /// threads).
    pub fn traffic(&self) -> &[Arc<TrafficCounter>] {
        &self.traffic
    }

    /// The shared fault log (present when built with a [`FaultPlan`];
    /// remains valid after handles are moved to threads).
    pub fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.fault_log.clone()
    }

    /// Convenience: spawns `world` scoped threads, runs `f(handle)` on
    /// each, and returns the results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if any worker thread panics.
    pub fn run<F, R>(world: usize, f: F) -> Vec<R>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        SimCluster::new(world).run_workers(f)
    }

    /// [`SimCluster::run`] over an emulated network: frame delivery is
    /// paced by `netem`'s latency and bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if any worker thread panics.
    pub fn run_with_netem<F, R>(world: usize, netem: NetEmu, f: F) -> Vec<R>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        SimCluster::new_with_netem(world, Some(netem)).run_workers(f)
    }

    /// [`SimCluster::run`] under a [`FaultPlan`] (no link emulation).
    /// Returns each worker's result plus the sorted fault-event sequence.
    ///
    /// # Panics
    ///
    /// Panics if any worker thread panics.
    pub fn run_with_faults<F, R>(world: usize, plan: FaultPlan, f: F) -> (Vec<R>, Vec<FaultEvent>)
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        let cluster = SimCluster::new_with_faults(world, None, Some(plan));
        let log = cluster.fault_log();
        let outs = cluster.run_workers(f);
        (outs, log.map(|log| log.events()).unwrap_or_default())
    }

    /// Like [`SimCluster::run`], but on *this* cluster — clone the
    /// [`SimCluster::traffic`] counters first if you want to inspect
    /// per-worker traffic afterwards.
    ///
    /// # Panics
    ///
    /// Panics if any worker thread panics.
    pub fn run_workers<F, R>(self, f: F) -> Vec<R>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        run_scoped(self.handles, f)
    }
}

/// Runs `f` on one scoped thread per item and returns the results in item
/// (rank) order. A worker's panic is re-raised on the caller's thread
/// instead of inventing a second panic site.
pub(crate) fn run_scoped<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let joins: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || f(item)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let outs = SimCluster::run(2, |w| {
            if w.rank() == 0 {
                w.send(1, vec![1, 2, 3]).unwrap();
                w.recv(1).unwrap().into_vec()
            } else {
                let got = w.recv(0).unwrap();
                w.send(0, got.clone()).unwrap();
                got.into_vec()
            }
        });
        assert_eq!(outs, vec![vec![1, 2, 3], vec![1, 2, 3]]);
    }

    #[test]
    fn forwarding_a_frame_does_not_copy_bytes() {
        let outs = SimCluster::run(3, |w| match w.rank() {
            0 => {
                w.send(1, vec![42u8; 64]).unwrap();
                true
            }
            1 => {
                let got = w.recv(0).unwrap();
                // Forward the same frame twice: both sends share the
                // original allocation.
                w.send(2, got.clone()).unwrap();
                w.send(2, got.clone()).unwrap();
                // Rank 2 holds both forwarded frames until released, so
                // the count cannot race with it dropping them.
                w.recv(2).unwrap();
                let shared = got.ref_count() >= 3;
                w.send(2, Vec::new()).unwrap();
                shared
            }
            _ => {
                let a = w.recv(1).unwrap();
                let b = w.recv(1).unwrap();
                w.send(1, Vec::new()).unwrap();
                w.recv(1).unwrap();
                a == b && a.as_slice() == [42u8; 64]
            }
        });
        assert_eq!(outs, vec![true, true, true]);
    }

    #[test]
    fn into_vec_reclaims_unique_buffers_in_place() {
        let frame = Frame::from_vec(vec![7u8; 16]);
        let ptr = frame.as_slice().as_ptr();
        let reclaimed = frame.into_vec();
        assert_eq!(reclaimed.as_ptr(), ptr, "unique frame must not copy");

        let shared = Frame::from_vec(vec![7u8; 16]);
        let _other = shared.clone();
        let copied = shared.into_vec();
        assert_eq!(copied, vec![7u8; 16], "shared frame falls back to a copy");
    }

    #[test]
    fn ring_neighbors_wrap() {
        let cluster = SimCluster::new(3);
        let mut hs = cluster.into_handles();
        assert_eq!(hs[0].ring_prev(), 2);
        assert_eq!(hs[2].ring_next(), 0);
        // On a shrunk ring the neighbours are the adjacent members.
        hs[2].set_members(&[0, 2]).unwrap();
        assert_eq!(hs[2].members(), [0, 2]);
        assert_eq!((hs[2].ring_prev(), hs[2].ring_next()), (0, 0));
    }

    #[test]
    fn sim_backend_reports_its_name() {
        let cluster = SimCluster::new(1);
        assert_eq!(cluster.into_handles()[0].backend(), "sim");
    }

    #[test]
    fn out_of_range_peer_rejected() {
        let cluster = SimCluster::new(1);
        let h = &cluster.into_handles()[0];
        assert!(h.send(5, vec![]).is_err());
        assert!(h.recv(5).is_err());
        assert!(h.recv_deadline(5, Duration::from_millis(1)).is_err());
    }

    #[test]
    fn traffic_is_counted() {
        let cluster = SimCluster::new(2);
        let traffic = cluster.traffic().to_vec();
        let hs = cluster.into_handles();
        hs[0].send(1, vec![0u8; 100]).unwrap();
        hs[0].send(1, vec![0u8; 50]).unwrap();
        assert_eq!(traffic[0].bytes_sent(), 150);
        assert_eq!(traffic[0].messages_sent(), 2);
        assert_eq!(traffic[1].bytes_sent(), 0);
    }

    #[test]
    fn messages_from_different_peers_do_not_interleave() {
        let outs = SimCluster::run(3, |w| {
            if w.rank() == 2 {
                // Receive explicitly per-peer; ordering across peers is
                // controlled by us, not arrival order.
                let a = w.recv(0).unwrap().into_vec();
                let b = w.recv(1).unwrap().into_vec();
                (a, b)
            } else {
                w.send(2, vec![w.rank() as u8; 4]).unwrap();
                (vec![], vec![])
            }
        });
        assert_eq!(outs[2].0, vec![0u8; 4]);
        assert_eq!(outs[2].1, vec![1u8; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_world_panics() {
        let _ = SimCluster::new(0);
    }

    #[test]
    fn peer_hangup_surfaces_as_disconnected_not_deadlock() {
        // Worker 1 exits immediately, dropping its endpoints; worker 0's
        // recv must fail fast with Disconnected instead of blocking.
        let outs = SimCluster::run(2, |w| {
            if w.rank() == 0 {
                match w.recv(1) {
                    Err(crate::ClusterError::Disconnected { peer }) => peer == 1,
                    _ => false,
                }
            } else {
                true // exit without sending anything
            }
        });
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn netem_delays_delivery_by_latency_and_bandwidth() {
        // 1 MiB at 100 MiB/s plus 5 ms latency: the receiver must not see
        // the frame before ~15 ms after the send.
        let emu = NetEmu::new(Duration::from_millis(5), 100.0 * 1024.0 * 1024.0);
        let outs = SimCluster::run_with_netem(2, emu, |w| {
            if w.rank() == 0 {
                w.send(1, vec![0u8; 1024 * 1024]).unwrap();
                Duration::ZERO
            } else {
                let t0 = Instant::now();
                let _ = w.recv(0).unwrap();
                t0.elapsed()
            }
        });
        // Bandwidth term 10 ms + latency 5 ms; allow generous slack below.
        assert!(
            outs[1] >= Duration::from_millis(12),
            "delivery arrived too early: {:?}",
            outs[1]
        );
    }

    #[test]
    fn netem_serializes_back_to_back_sends_on_one_link() {
        // Two 1 MiB frames on a 100 MiB/s link: the second delivery lands
        // two serialization times (~20 ms) after the first send, even
        // though both sends return instantly. Timed from one instant
        // before either send, so a late wake-up can only lengthen the
        // interval (the gap between the two wake-ups, which a late first
        // wake-up shrinks, would flake) and the bound needs no slack.
        let emu = NetEmu::new(Duration::ZERO, 100.0 * 1024.0 * 1024.0);
        let paced = 2 * emu.tx_time(1024 * 1024);
        let t0 = Instant::now();
        let outs = SimCluster::run_with_netem(2, emu, |w| {
            if w.rank() == 0 {
                w.send(1, vec![0u8; 1024 * 1024]).unwrap();
                w.send(1, vec![0u8; 1024 * 1024]).unwrap();
            } else {
                let _ = w.recv(0).unwrap();
                let _ = w.recv(0).unwrap();
            }
            t0.elapsed()
        });
        assert!(
            outs[1] >= paced,
            "second frame not paced behind the first: {:?} < {paced:?}",
            outs[1]
        );
    }

    #[test]
    fn netem_from_gbps_converts_units() {
        let emu = NetEmu::from_gbps(15.0, 10.0);
        assert_eq!(emu.latency, Duration::from_micros(15));
        assert!((emu.bytes_per_sec - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn send_to_hung_up_peer_fails_cleanly() {
        let outs = SimCluster::run(2, |w| {
            if w.rank() == 0 {
                // Give worker 1 time to exit and drop its receivers.
                std::thread::sleep(std::time::Duration::from_millis(30));
                w.send(1, vec![1, 2, 3]).is_err()
            } else {
                true
            }
        });
        assert_eq!(outs, vec![true, true]);
    }
}
