//! Real multi-process TCP transport over `std::net`.
//!
//! [`TcpCluster::connect`] joins a full mesh of loopback/LAN sockets: rank
//! `i` listens on `addrs[i]`, dials every lower rank (identifying itself
//! with a [`FrameKind::Hello`] frame), and accepts every higher rank. One
//! reader thread per peer socket decodes [`wire`] frames into the same
//! per-peer [`Mailbox`] queues the simulator uses, so `recv` /
//! `recv_deadline` semantics — including the exactly-once timeout and the
//! pending-slot retry — are shared code, not a reimplementation.
//!
//! The collectives move exact bytes and their arithmetic lives above the
//! [`Transport`] trait, so results over TCP are bit-identical to
//! [`SimCluster`](crate::SimCluster) — the simulator stays the
//! deterministic verification backend and this backend provides the real
//! wire (see the `transport_bitexact` suite in `gcs-ddp`).
//!
//! # Fault injection
//!
//! The same deterministic [`FaultPlan`] streams drive this backend,
//! decided sender-side per directed link: a dropped frame is simply never
//! written, a delayed frame carries its extra delay in the header's
//! `delay_us` field (applied receiver-side, so the socket itself is never
//! throttled), and a reordered frame is held back to swap with the link's
//! next frame — flushed before the worker blocks in a receive, exactly
//! like the simulator. `mark_dead` announces the death to every peer with
//! a [`FrameKind::Dead`] control frame.
//!
//! # Liveness
//!
//! Unlike the simulator's shared alive bitmap, liveness here is local
//! knowledge: a peer is dead once its Dead frame arrives or its socket
//! closes (EOF/reset). A remote close cannot be distinguished from a
//! crash, so *any* peer disconnect maps to [`ClusterError::PeerGone`]
//! once queued frames are drained — the expected condition robust
//! consumers degrade around. (The simulator can tell a planned death from
//! a surprise hangup and reports the latter as `Disconnected`; a real
//! wire has no such oracle.)

use crate::faults::{FaultEvent, FaultKind, FaultLog, FaultPlan, LinkFaults};
use crate::transport::{
    check_peer, Frame, Mailbox, Packet, TrafficCounter, Transport, WorkerHandle,
};
use crate::wire::{self, FrameKind, WireHeader};
use crate::{ClusterError, Result};
use std::cell::RefCell;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Options for building a TCP mesh.
#[derive(Debug, Clone, Default)]
pub struct TcpOptions {
    /// Deterministic fault plan, applied sender-side per directed link.
    pub plan: Option<FaultPlan>,
    /// Total budget for forming the full mesh (dial retries plus
    /// accepts). Workers of one run start at slightly different times;
    /// dials retry until the lower rank's listener is up or this budget
    /// is spent. `None` uses [`TcpOptions::DEFAULT_CONNECT_TIMEOUT`].
    pub connect_timeout: Option<Duration>,
}

impl TcpOptions {
    /// Default mesh-formation budget: generous enough for process spawn
    /// skew on a loaded CI box, small enough that a missing peer fails
    /// the run instead of hanging it.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

    /// Options that run `plan` over the default connection budget.
    pub fn with_plan(plan: FaultPlan) -> Self {
        TcpOptions {
            plan: Some(plan),
            connect_timeout: None,
        }
    }

    fn timeout(&self) -> Duration {
        self.connect_timeout
            .unwrap_or(Self::DEFAULT_CONNECT_TIMEOUT)
    }
}

/// Sender-side fault state (mirrors the simulator's per-link streams).
#[derive(Debug)]
struct TcpFaults {
    plan: Arc<FaultPlan>,
    log: Arc<FaultLog>,
    /// Per-outgoing-link fault streams.
    links: Vec<RefCell<LinkFaults>>,
    /// Reorder stash: a frame (plus its injected delay) held back to swap
    /// with the link's next frame. Flushed before this worker blocks in a
    /// receive, so a held frame can never deadlock a lock-step
    /// collective.
    held: Vec<RefCell<Option<(Frame, Duration)>>>,
}

/// One rank's endpoint into the TCP mesh.
#[derive(Debug)]
struct TcpWorker {
    rank: usize,
    world: usize,
    /// Write half of each mesh socket (`None` at `rank`; self-sends use
    /// `loopback`). Reader threads own `try_clone`d read halves.
    streams: Vec<Option<TcpStream>>,
    /// Self-send queue, for parity with the simulator's loop-back link.
    loopback: Sender<Packet>,
    mailbox: Mailbox,
    /// Locally-known liveness, shared with the reader threads: a Dead
    /// frame or a socket close from peer `j` clears `alive[j]`.
    alive: Arc<Vec<AtomicBool>>,
    traffic: Arc<TrafficCounter>,
    faults: Option<TcpFaults>,
    readers: Vec<JoinHandle<()>>,
}

impl TcpWorker {
    /// Writes one data frame, carrying `delay` in the header.
    fn write_data(&self, peer: usize, payload: &[u8], delay: Duration) -> Result<()> {
        let header = WireHeader::new(FrameKind::Data, self.rank, peer, 0, delay, payload.len())?;
        let Some(stream) = self.streams[peer].as_ref() else {
            return Err(ClusterError::Protocol(format!(
                "no mesh socket for peer {peer}"
            )));
        };
        wire::write_frame(&mut &*stream, &header, payload).map_err(|err| match err {
            // A failed write means the connection is gone; report the
            // peer loss, not the raw socket error.
            ClusterError::Io(_) => {
                self.alive[peer].store(false, Ordering::SeqCst);
                ClusterError::PeerGone { peer }
            }
            other => other,
        })
    }

    /// Releases every reorder-held frame (in link order); same contract
    /// as the simulator's flush.
    fn flush_held(&self) {
        if let Some(ctx) = &self.faults {
            for peer in 0..self.world {
                if let Some((frame, delay)) = ctx.held[peer].borrow_mut().take() {
                    // A gone peer just loses the frame; the flush is
                    // best-effort by design.
                    let _ = self.write_data(peer, &frame, delay);
                }
            }
        }
    }
}

impl Transport for TcpWorker {
    fn backend(&self) -> &'static str {
        "tcp"
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
        // Payload bytes only, recorded before the fault roll — identical
        // accounting to the simulator, so per-rank counters match across
        // backends frame for frame.
        self.traffic.record(frame.len());
        if peer == self.rank {
            return self
                .loopback
                .send(Packet {
                    frame,
                    deliver_at: None,
                })
                .map_err(|_| ClusterError::Disconnected { peer });
        }
        let Some(ctx) = &self.faults else {
            return self.write_data(peer, &frame, Duration::ZERO);
        };
        let fate = ctx.links[peer].borrow_mut().next_fate(&ctx.plan);
        if fate.drop {
            ctx.log.record(FaultEvent {
                src: self.rank,
                dst: peer,
                seq: fate.seq,
                kind: FaultKind::Drop,
            });
            return Ok(());
        }
        let mut delay = Duration::ZERO;
        if !fate.extra.is_zero() {
            // Quantize to the header's microsecond field, rounding up so
            // the injected delay stays visible; the log records what the
            // wire actually carries.
            delay = Duration::from_micros(fate.extra.as_nanos().div_ceil(1_000) as u64);
            ctx.log.record(FaultEvent {
                src: self.rank,
                dst: peer,
                seq: fate.seq,
                kind: FaultKind::Delay { extra: delay },
            });
        }
        let previously_held = ctx.held[peer].borrow_mut().take();
        if fate.reorder && previously_held.is_none() {
            // Hold this frame back; the link's next send (or this
            // worker's next receive, whichever comes first) releases it.
            *ctx.held[peer].borrow_mut() = Some((frame, delay));
            ctx.log.record(FaultEvent {
                src: self.rank,
                dst: peer,
                seq: fate.seq,
                kind: FaultKind::Reorder,
            });
            return Ok(());
        }
        // Write the fresh frame first, then any held one: the swap.
        self.write_data(peer, &frame, delay)?;
        if let Some((held_frame, held_delay)) = previously_held {
            self.write_data(peer, &held_frame, held_delay)?;
        }
        Ok(())
    }

    /// Writes the borrowed bytes to the socket with the same header,
    /// `writev` and traffic record as `send`. A self-send (the loop-back
    /// queue carries frames) and any send under a fault plan (the reorder
    /// stash must own what it holds) copy into a frame and take `send`.
    fn send_slice(&self, peer: usize, bytes: &[u8]) -> Result<()> {
        if peer == self.rank || self.faults.is_some() {
            return self.send(peer, Frame::copy_from_slice(bytes));
        }
        if !self.is_alive(peer) {
            return Err(ClusterError::PeerGone { peer });
        }
        self.traffic.record(bytes.len());
        self.write_data(peer, bytes, Duration::ZERO)
    }

    fn recv(&self, peer: usize) -> Result<Frame> {
        self.flush_held();
        self.mailbox
            .recv(peer, self.is_alive(peer), || ClusterError::PeerGone {
                peer,
            })
    }

    fn recv_deadline(&self, peer: usize, timeout: Duration) -> Result<Frame> {
        self.flush_held();
        self.mailbox
            .recv_deadline(peer, timeout, self.is_alive(peer), || {
                ClusterError::PeerGone { peer }
            })
    }

    fn is_alive(&self, peer: usize) -> bool {
        self.alive[peer].load(Ordering::SeqCst)
    }

    fn mark_dead(&self, at_iter: usize) {
        self.flush_held();
        for peer in (0..self.world).filter(|&p| p != self.rank) {
            let Some(stream) = self.streams[peer].as_ref() else {
                continue;
            };
            // Best effort: a peer we cannot reach anymore learns of the
            // death from the socket close instead.
            if let Ok(header) =
                WireHeader::new(FrameKind::Dead, self.rank, peer, 0, Duration::ZERO, 0)
            {
                let _ = wire::write_frame(&mut &*stream, &header, &[]);
            }
        }
        self.alive[self.rank].store(false, Ordering::SeqCst);
        if let Some(ctx) = &self.faults {
            ctx.log.record(FaultEvent {
                src: self.rank,
                dst: self.rank,
                seq: at_iter as u64,
                kind: FaultKind::RankDead { at_iter },
            });
        }
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|ctx| ctx.plan.as_ref())
    }

    fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.faults.as_ref().map(|ctx| Arc::clone(&ctx.log))
    }
}

impl Drop for TcpWorker {
    fn drop(&mut self) {
        // Reorder may *delay* a frame, never lose it: a worker exiting
        // with a held frame still owes it to the wire.
        self.flush_held();
        // Shut the sockets down (FIN after any queued bytes) so peers see
        // EOF and our reader threads unblock, then join the readers.
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// Decodes frames from one peer socket into the mailbox queue. Exits on
/// EOF, reset, or a framing violation — clearing the peer's alive bit
/// *before* dropping the queue sender, so the owning worker's
/// closed-queue receive maps to `PeerGone` rather than `Disconnected`.
fn reader_loop(
    mut stream: TcpStream,
    peer: usize,
    tx: Sender<Packet>,
    alive: Arc<Vec<AtomicBool>>,
) {
    while let Ok((header, payload)) = wire::read_frame(&mut stream) {
        if header.src as usize != peer {
            // A mesh socket speaks for exactly one rank; a mismatch means
            // corruption or forgery, and the link is not trustworthy.
            break;
        }
        match header.kind {
            FrameKind::Data | FrameKind::Control => {
                let deliver_at = (header.delay_us > 0)
                    .then(|| Instant::now() + Duration::from_micros(u64::from(header.delay_us)));
                let packet = Packet {
                    frame: Frame::from_vec(payload),
                    deliver_at,
                };
                if tx.send(packet).is_err() {
                    break;
                }
            }
            FrameKind::Dead => {
                alive[peer].store(false, Ordering::SeqCst);
            }
            // Hello is handshake-only; post-handshake it is a violation.
            FrameKind::Hello => break,
        }
    }
    alive[peer].store(false, Ordering::SeqCst);
    // `tx` drops here, after the alive bit is visible.
}

/// First nap of the mesh accept loop's backoff after an empty poll.
const ACCEPT_NAP_MIN: Duration = Duration::from_micros(50);
/// Cap of the accept loop's doubling nap.
const ACCEPT_NAP_MAX: Duration = Duration::from_millis(5);

/// Dials `addr`, retrying until `deadline` (the peer's listener may not
/// be up yet when this process starts).
fn dial(addr: &str, deadline: Instant) -> Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(err) => {
                if Instant::now() >= deadline {
                    return Err(ClusterError::Io(format!("dialing {addr} timed out: {err}")));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Aggregate results of an in-process [`TcpCluster::run_with`] call.
#[derive(Debug)]
pub struct TcpRun<R> {
    /// Worker results in rank order.
    pub outputs: Vec<R>,
    /// Per-rank traffic counters.
    pub traffic: Vec<Arc<TrafficCounter>>,
    /// Sorted fault events (empty without a plan).
    pub events: Vec<FaultEvent>,
}

/// The multi-process TCP backend. For a real run each OS process calls
/// [`TcpCluster::connect`] with the shared address list; the in-process
/// `run*` helpers mirror [`SimCluster`](crate::SimCluster)'s for tests
/// and benches — same collectives, real sockets.
#[derive(Debug)]
pub struct TcpCluster;

impl TcpCluster {
    /// Joins the mesh as `rank`, where `addrs[i]` is rank `i`'s listen
    /// address. Binds `addrs[rank]`, dials every lower rank, accepts
    /// every higher rank, and returns once all `world − 1` links are up.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidArgument`] for an empty address list or an
    /// out-of-range rank, [`ClusterError::Io`] on bind/dial/accept
    /// failures or a spent connection budget, [`ClusterError::Wire`] on a
    /// malformed handshake.
    pub fn connect(rank: usize, addrs: &[String], opts: TcpOptions) -> Result<WorkerHandle> {
        if addrs.is_empty() {
            return Err(ClusterError::InvalidArgument(
                "cluster needs at least one worker address".into(),
            ));
        }
        check_peer(rank, addrs.len())?;
        let listener = TcpListener::bind(&addrs[rank][..])
            .map_err(|err| ClusterError::Io(format!("binding {}: {err}", addrs[rank])))?;
        let faults = opts
            .plan
            .clone()
            .map(|plan| (Arc::new(plan), Arc::new(FaultLog::new())));
        Self::build(
            rank,
            listener,
            addrs,
            &opts,
            faults,
            Arc::new(TrafficCounter::default()),
        )
    }

    /// [`TcpCluster::connect`] with a pre-bound listener — for callers
    /// that bind port 0 first and distribute the resolved addresses (the
    /// orchestrated CLI workers do exactly this).
    ///
    /// # Errors
    ///
    /// As [`TcpCluster::connect`].
    pub fn connect_with_listener(
        rank: usize,
        listener: TcpListener,
        addrs: &[String],
        opts: TcpOptions,
    ) -> Result<WorkerHandle> {
        if addrs.is_empty() {
            return Err(ClusterError::InvalidArgument(
                "cluster needs at least one worker address".into(),
            ));
        }
        check_peer(rank, addrs.len())?;
        let faults = opts
            .plan
            .clone()
            .map(|plan| (Arc::new(plan), Arc::new(FaultLog::new())));
        Self::build(
            rank,
            listener,
            addrs,
            &opts,
            faults,
            Arc::new(TrafficCounter::default()),
        )
    }

    /// Forms this rank's full mesh and wraps it in a [`WorkerHandle`].
    fn build(
        rank: usize,
        listener: TcpListener,
        addrs: &[String],
        opts: &TcpOptions,
        faults: Option<(Arc<FaultPlan>, Arc<FaultLog>)>,
        traffic: Arc<TrafficCounter>,
    ) -> Result<WorkerHandle> {
        let world = addrs.len();
        let deadline = Instant::now() + opts.timeout();
        let io = |what: &str, err: std::io::Error| ClusterError::Io(format!("{what}: {err}"));

        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        // Dial every lower rank, identifying ourselves with a hello.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let stream = dial(&addrs[peer], deadline)?;
            stream.set_nodelay(true).map_err(|e| io("set_nodelay", e))?;
            let hello = WireHeader::new(FrameKind::Hello, rank, peer, 0, Duration::ZERO, 0)?;
            wire::write_frame(&mut &stream, &hello, &[])?;
            *slot = Some(stream);
        }
        // Accept every higher rank; the hello frame identifies the dialer
        // (arrival order is scheduling noise, the handshake is truth).
        // std's listener has no accept deadline, so poll it: the nap after
        // an empty poll starts at 50 µs and doubles up to 5 ms, so a peer
        // that is already dialing is picked up within microseconds while
        // a slow one costs a few hundred wake-ups a second at most.
        listener
            .set_nonblocking(true)
            .map_err(|e| io("listener nonblocking", e))?;
        let mut accepted = 0;
        let mut nap = ACCEPT_NAP_MIN;
        while accepted < world - 1 - rank {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| io("socket blocking", e))?;
                    stream.set_nodelay(true).map_err(|e| io("set_nodelay", e))?;
                    let budget = deadline.saturating_duration_since(Instant::now());
                    stream
                        .set_read_timeout(Some(budget.max(Duration::from_millis(1))))
                        .map_err(|e| io("handshake timeout", e))?;
                    let (hello, _) = wire::read_frame(&mut &stream)?;
                    if hello.kind != FrameKind::Hello {
                        return Err(ClusterError::Wire(format!(
                            "expected hello, got {:?}",
                            hello.kind
                        )));
                    }
                    let src = hello.src as usize;
                    if src <= rank || src >= world {
                        return Err(ClusterError::Wire(format!(
                            "hello from rank {src} on rank {rank}'s listener (world {world})"
                        )));
                    }
                    if streams[src].is_some() {
                        return Err(ClusterError::Wire(format!(
                            "duplicate hello from rank {src}"
                        )));
                    }
                    stream
                        .set_read_timeout(None)
                        .map_err(|e| io("clear timeout", e))?;
                    streams[src] = Some(stream);
                    accepted += 1;
                    nap = ACCEPT_NAP_MIN;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(ClusterError::Io(format!(
                            "rank {rank}: mesh formation timed out with {accepted} of {} peers accepted",
                            world - 1 - rank
                        )));
                    }
                    std::thread::sleep(nap);
                    nap = (nap * 2).min(ACCEPT_NAP_MAX);
                }
                Err(err) => return Err(io("accept", err)),
            }
        }

        // Wire the mailbox: one queue per peer, fed by that peer's reader
        // thread; the self slot is the loop-back channel.
        let alive: Arc<Vec<AtomicBool>> =
            Arc::new((0..world).map(|_| AtomicBool::new(true)).collect());
        let (loopback, self_rx) = channel();
        let mut self_rx = Some(self_rx);
        let mut receivers: Vec<Receiver<Packet>> = Vec::with_capacity(world);
        let mut readers = Vec::with_capacity(world.saturating_sub(1));
        for (peer, slot) in streams.iter().enumerate() {
            if peer == rank {
                match self_rx.take() {
                    Some(rx) => receivers.push(rx),
                    None => {
                        return Err(ClusterError::Protocol(
                            "self mailbox slot claimed twice".into(),
                        ))
                    }
                }
                continue;
            }
            let Some(stream) = slot.as_ref() else {
                return Err(ClusterError::Protocol(format!(
                    "mesh link to rank {peer} missing after handshake"
                )));
            };
            let read_half = stream.try_clone().map_err(|e| io("clone socket", e))?;
            let (tx, rx) = channel();
            receivers.push(rx);
            let alive_for_reader = Arc::clone(&alive);
            let reader = std::thread::Builder::new()
                .name(format!("gcs-tcp-{rank}-from-{peer}"))
                .spawn(move || reader_loop(read_half, peer, tx, alive_for_reader))
                .map_err(|e| io("spawn reader", e))?;
            readers.push(reader);
        }

        Ok(WorkerHandle::from_transport(Box::new(TcpWorker {
            rank,
            world,
            streams,
            loopback,
            mailbox: Mailbox::new(receivers),
            alive,
            traffic,
            faults: faults.map(|(plan, log)| TcpFaults {
                links: (0..world)
                    .map(|dst| RefCell::new(LinkFaults::new(plan.seed, rank, dst)))
                    .collect(),
                held: (0..world).map(|_| RefCell::new(None)).collect(),
                plan,
                log,
            }),
            readers,
        })))
    }

    /// Convenience mirror of [`SimCluster::run`](crate::SimCluster::run)
    /// over real sockets: binds `world` loopback listeners, forms the
    /// mesh on `world` scoped threads, runs `f(handle)` on each, and
    /// returns the results in rank order.
    ///
    /// # Errors
    ///
    /// Any mesh-formation error from [`TcpCluster::connect`].
    ///
    /// # Panics
    ///
    /// Panics if any worker closure panics.
    pub fn run<F, R>(world: usize, f: F) -> Result<Vec<R>>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        Ok(Self::run_with(world, TcpOptions::default(), f)?.outputs)
    }

    /// [`TcpCluster::run`] under a [`FaultPlan`]. Returns each worker's
    /// result plus the sorted fault-event sequence.
    ///
    /// # Errors
    ///
    /// Any mesh-formation error from [`TcpCluster::connect`].
    ///
    /// # Panics
    ///
    /// Panics if any worker closure panics.
    pub fn run_with_faults<F, R>(
        world: usize,
        plan: FaultPlan,
        f: F,
    ) -> Result<(Vec<R>, Vec<FaultEvent>)>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        let run = Self::run_with(world, TcpOptions::with_plan(plan), f)?;
        Ok((run.outputs, run.events))
    }

    /// The full in-process runner: binds `world` listeners on
    /// `127.0.0.1:0`, shares one fault log and pre-created traffic
    /// counters across the ranks, and returns outputs, per-rank traffic,
    /// and the sorted fault events.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidArgument`] for `world == 0`; any
    /// mesh-formation error from [`TcpCluster::connect`].
    ///
    /// # Panics
    ///
    /// Panics if any worker closure panics.
    pub fn run_with<F, R>(world: usize, opts: TcpOptions, f: F) -> Result<TcpRun<R>>
    where
        F: Fn(WorkerHandle) -> R + Sync,
        R: Send,
    {
        if world == 0 {
            return Err(ClusterError::InvalidArgument(
                "cluster needs at least one worker".into(),
            ));
        }
        let mut listeners = Vec::with_capacity(world);
        let mut addrs = Vec::with_capacity(world);
        for _ in 0..world {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|err| ClusterError::Io(format!("binding 127.0.0.1:0: {err}")))?;
            let addr = listener
                .local_addr()
                .map_err(|err| ClusterError::Io(format!("resolving bound port: {err}")))?;
            addrs.push(addr.to_string());
            listeners.push(listener);
        }
        let shared = opts
            .plan
            .as_ref()
            .map(|plan| (Arc::new(plan.clone()), Arc::new(FaultLog::new())));
        let traffic: Vec<Arc<TrafficCounter>> = (0..world)
            .map(|_| Arc::new(TrafficCounter::default()))
            .collect();
        let addrs_ref = &addrs;
        let opts_ref = &opts;
        let f = &f;
        let outputs = std::thread::scope(|s| {
            let joins: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let faults = shared.clone();
                    let counter = Arc::clone(&traffic[rank]);
                    s.spawn(move || -> Result<R> {
                        let handle =
                            Self::build(rank, listener, addrs_ref, opts_ref, faults, counter)?;
                        Ok(f(handle))
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| match j.join() {
                    Ok(r) => r,
                    // Re-raise the worker's own panic on the caller's
                    // thread instead of inventing a second panic site.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Result<Vec<R>>>()
        })?;
        let events = shared.map(|(_, log)| log.events()).unwrap_or_default();
        Ok(TcpRun {
            outputs,
            traffic,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecvPolicy;

    #[test]
    fn tcp_point_to_point_roundtrip() {
        let outs = TcpCluster::run(2, |w| {
            if w.rank() == 0 {
                w.send(1, vec![1, 2, 3]).unwrap();
                w.recv(1).unwrap().into_vec()
            } else {
                let got = w.recv(0).unwrap();
                w.send(0, got.clone()).unwrap();
                got.into_vec()
            }
        })
        .unwrap();
        assert_eq!(outs, vec![vec![1, 2, 3], vec![1, 2, 3]]);
    }

    #[test]
    fn tcp_backend_reports_its_name() {
        let outs = TcpCluster::run(1, |w| w.backend()).unwrap();
        assert_eq!(outs, vec!["tcp"]);
    }

    #[test]
    fn tcp_self_send_loops_back() {
        let outs = TcpCluster::run(1, |w| {
            w.send(0, vec![9u8; 5]).unwrap();
            w.recv(0).unwrap().into_vec()
        })
        .unwrap();
        assert_eq!(outs, vec![vec![9u8; 5]]);
    }

    #[test]
    fn tcp_traffic_counts_payload_bytes_only() {
        let run = TcpCluster::run_with(2, TcpOptions::default(), |w| {
            if w.rank() == 0 {
                w.send(1, vec![0u8; 100]).unwrap();
                w.send(1, vec![0u8; 50]).unwrap();
            } else {
                let _ = w.recv(0).unwrap();
                let _ = w.recv(0).unwrap();
            }
        })
        .unwrap();
        // Headers are bookkeeping, not schedule traffic: the counters
        // must match the simulator byte for byte.
        assert_eq!(run.traffic[0].bytes_sent(), 150);
        assert_eq!(run.traffic[0].messages_sent(), 2);
        assert_eq!(run.traffic[1].bytes_sent(), 0);
    }

    #[test]
    fn tcp_messages_from_different_peers_do_not_interleave() {
        let outs = TcpCluster::run(3, |w| {
            if w.rank() == 2 {
                let a = w.recv(0).unwrap().into_vec();
                let b = w.recv(1).unwrap().into_vec();
                (a, b)
            } else {
                w.send(2, vec![w.rank() as u8; 4]).unwrap();
                (vec![], vec![])
            }
        })
        .unwrap();
        assert_eq!(outs[2].0, vec![0u8; 4]);
        assert_eq!(outs[2].1, vec![1u8; 4]);
    }

    #[test]
    fn tcp_peer_disconnect_maps_to_peer_gone() {
        // Worker 1 exits immediately; its sockets close, rank 0's reader
        // sees EOF, and the blocked recv surfaces PeerGone (on a real
        // wire an exit is indistinguishable from a crash).
        let outs = TcpCluster::run(2, |w| {
            if w.rank() == 0 {
                matches!(w.recv(1), Err(ClusterError::PeerGone { peer: 1 }))
            } else {
                true // exit without sending anything
            }
        })
        .unwrap();
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn tcp_mark_dead_propagates_to_peers() {
        let outs = TcpCluster::run(2, |w| {
            if w.rank() == 0 {
                w.mark_dead(3);
                true
            } else {
                // Either the Dead frame flips the alive bit before the
                // recv starts, or the subsequent socket close unblocks
                // it; both must surface PeerGone, never a hang.
                matches!(w.recv(0), Err(ClusterError::PeerGone { peer: 0 }))
            }
        })
        .unwrap();
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn tcp_send_to_dead_peer_is_rejected_locally() {
        let outs = TcpCluster::run(2, |w| {
            if w.rank() == 0 {
                // Wait until rank 1's death announcement is visible.
                let deadline = Instant::now() + Duration::from_secs(5);
                while w.is_alive(1) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                matches!(
                    w.send(1, vec![1u8]),
                    Err(ClusterError::PeerGone { peer: 1 })
                )
            } else {
                w.mark_dead(0);
                true
            }
        })
        .unwrap();
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn tcp_recv_deadline_times_out_without_traffic() {
        let outs = TcpCluster::run(2, |w| {
            if w.rank() == 0 {
                let err = w.recv_deadline(1, Duration::from_millis(20));
                let timed_out = matches!(err, Err(ClusterError::Timeout { peer: 1 }));
                // Unblock rank 1's barrier recv below.
                w.send(1, vec![1]).unwrap();
                timed_out
            } else {
                let _ = w.recv(0).unwrap();
                true
            }
        })
        .unwrap();
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn tcp_drop_plan_drops_and_logs() {
        // Certain drop: the frame never reaches the wire, and recv_robust
        // exhausts its retries with a Timeout.
        let plan = FaultPlan::new(7)
            .drop_prob(1.0)
            .recv_policy(RecvPolicy::with_timeout(
                Duration::from_millis(10),
                1,
                Duration::from_millis(5),
            ));
        let (outs, events) = TcpCluster::run_with_faults(2, plan, |w| {
            if w.rank() == 0 {
                w.send(1, vec![42u8; 8]).unwrap();
                // Outlive rank 1's retry window (10ms + one 15ms retry)
                // so its failure is the plan's Timeout, not a hangup.
                std::thread::sleep(Duration::from_millis(500));
                true
            } else {
                matches!(w.recv_robust(0), Err(ClusterError::Timeout { peer: 0 }))
            }
        })
        .unwrap();
        assert_eq!(outs, vec![true, true]);
        assert!(
            events
                .iter()
                .any(|e| e.src == 0 && e.dst == 1 && matches!(e.kind, FaultKind::Drop)),
            "drop must be logged: {events:?}"
        );
    }

    #[test]
    fn tcp_delay_plan_delays_delivery() {
        let plan = FaultPlan::new(11).delay_jitter(Duration::from_millis(40));
        let (outs, events) = TcpCluster::run_with_faults(2, plan, |w| {
            if w.rank() == 0 {
                w.send(1, vec![5u8; 16]).unwrap();
                Duration::ZERO
            } else {
                let t0 = Instant::now();
                let got = w.recv(0).unwrap();
                assert_eq!(got.as_slice(), &[5u8; 16]);
                t0.elapsed()
            }
        })
        .unwrap();
        let delayed: Vec<_> = events
            .iter()
            .filter(|e| e.src == 0 && e.dst == 1)
            .filter_map(|e| match e.kind {
                FaultKind::Delay { extra } => Some(extra),
                _ => None,
            })
            .collect();
        assert!(!delayed.is_empty(), "jitter plan must log delays");
        // The receiver observed at least the logged injected delay.
        assert!(
            outs[1] >= delayed[0],
            "delivery ({:?}) arrived before the injected delay ({:?})",
            outs[1],
            delayed[0]
        );
    }

    #[test]
    fn tcp_zero_world_is_invalid() {
        let err = TcpCluster::run(0, |_| ());
        assert!(matches!(err, Err(ClusterError::InvalidArgument(_))));
        let err = TcpCluster::connect(0, &[], TcpOptions::default());
        assert!(matches!(err, Err(ClusterError::InvalidArgument(_))));
    }

    #[test]
    fn tcp_mesh_formation_times_out_typed_when_a_peer_never_dials() {
        // Rank 0 of a world of 2 waits to accept rank 1, which never
        // dials: the accept loop must give up at the connection budget
        // with its typed error, not hang.
        let addrs = ["127.0.0.1:0".to_string(), "127.0.0.1:9".to_string()];
        let opts = TcpOptions {
            connect_timeout: Some(Duration::from_millis(200)),
            ..TcpOptions::default()
        };
        let t0 = Instant::now();
        let err = TcpCluster::connect(0, &addrs, opts);
        let elapsed = t0.elapsed();
        assert!(
            matches!(&err, Err(ClusterError::Io(msg)) if msg.contains("mesh formation timed out")),
            "{err:?}"
        );
        assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn tcp_out_of_range_rank_is_invalid() {
        let err = TcpCluster::connect(5, &["127.0.0.1:0".to_string()], TcpOptions::default());
        assert!(matches!(err, Err(ClusterError::InvalidArgument(_))));
    }

    #[test]
    fn tcp_collectives_run_over_the_mesh() {
        // The collectives are implemented against WorkerHandle, so they
        // must work unchanged over the TCP backend.
        let outs = TcpCluster::run(3, |w| {
            let mut buf = vec![(w.rank() + 1) as f32; 8];
            w.all_reduce_sum(&mut buf).unwrap();
            buf
        })
        .unwrap();
        for out in outs {
            assert_eq!(out, vec![6.0f32; 8]);
        }
    }
}
