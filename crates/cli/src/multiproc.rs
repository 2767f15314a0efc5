//! Multi-process training over the real TCP transport.
//!
//! Two CLI modes turn the in-process `TcpCluster` into actual OS
//! processes on loopback:
//!
//! - `gradcomp worker` — one rank. Either *static* (`--rank N
//!   --peers a,b,c`: every process is given the full address list and
//!   its own rank up front) or *orchestrated* (`--orchestrator ADDR`:
//!   the worker registers, is assigned a rank and the peer list, runs,
//!   and reports a result digest back).
//! - `gradcomp orchestrator` — the control plane. Binds a control
//!   socket, assigns ranks in arrival order, broadcasts the assignment,
//!   collects per-rank digests, and verifies them against the digest an
//!   in-process [`SimCluster`] run of the *same* workload produces —
//!   the multi-process acceptance gate: TCP must be bit-identical to
//!   the deterministic reference.
//!
//! The control plane rides the same length-prefixed wire format as the
//! data plane ([`gcs_cluster::wire`]), with `FrameKind::Control` frames
//! whose `method` field is the message id and whose payload is UTF-8
//! text.

use crate::{flag_map, CliError, Result};
use gcs_cluster::wire::{self, FrameKind, WireHeader};
use gcs_cluster::{SimCluster, TcpCluster, TcpOptions, WorkerHandle};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{Arms, ExchangeConfig, Exchanger, Lane, Plan};
use gcs_tensor::Tensor;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Control-plane message ids (the `method` field of a Control frame).
const MSG_REGISTER: u16 = 1;
const MSG_ASSIGN: u16 = 2;
const MSG_RESULT: u16 = 3;

/// How long control-plane reads may block before the run is abandoned.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

/// Default workload parameters (mirrored by the bitexact test suites).
const DEFAULT_METHOD: &str = "topk:0.2";
const DEFAULT_STEPS: usize = 3;

/// The fixed per-step gradient workload: same shapes and seeding as the
/// `transport_bitexact` suite, advanced per step so the exchange carries
/// fresh data every iteration.
fn make_grads(rank: usize, step: usize) -> Vec<Tensor> {
    [vec![6usize, 10], vec![33], vec![4, 4, 3, 3]]
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 42 + (step * 977 + rank * 131 + l) as u64))
        .collect()
}

/// Runs `steps` exchanges of the whole model as one bucket and folds every
/// output bit into an FNV-1a 64 digest — rank-local, so the orchestrator
/// can compare each worker against the sim reference independently.
fn run_steps(w: WorkerHandle, method: &MethodConfig, steps: usize) -> Result<u64> {
    let rank = w.rank();
    let cfg = ExchangeConfig {
        plan: Plan::Buckets {
            bytes: usize::MAX,
            matricize: false,
        },
        lane: Lane::Inline,
        arms: Arms::One(method.clone()),
    };
    let mut exchanger =
        Exchanger::new(w, cfg).map_err(|e| CliError(format!("building method: {e}")))?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for step in 0..steps {
        let grads = make_grads(rank, step);
        let outs = exchanger
            .exchange(&grads)
            .map_err(|e| CliError(format!("step {step} exchange: {e}")))?;
        for t in &outs {
            for v in t.data() {
                for b in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    Ok(hash)
}

/// The expected per-rank digests, computed on the deterministic
/// in-process backend.
fn sim_digests(world: usize, method: &MethodConfig, steps: usize) -> Result<Vec<u64>> {
    SimCluster::run(world, |w| run_steps(w, method, steps))
        .into_iter()
        .collect()
}

/// Sends one control frame (`msg` id + UTF-8 `text`).
fn send_control(stream: &mut TcpStream, msg: u16, text: &str) -> Result<()> {
    let header = WireHeader::new(FrameKind::Control, 0, 0, msg, Duration::ZERO, text.len())
        .map_err(|e| CliError(format!("control frame: {e}")))?;
    wire::write_frame(stream, &header, text.as_bytes())
        .map_err(|e| CliError(format!("control send: {e}")))
}

/// Receives one control frame, checking the message id.
fn recv_control(stream: &mut TcpStream, expect: u16) -> Result<String> {
    let (header, payload) =
        wire::read_frame(stream).map_err(|e| CliError(format!("control recv: {e}")))?;
    if header.kind != FrameKind::Control || header.method != expect {
        return Err(CliError(format!(
            "unexpected control frame: kind {:?} msg {} (wanted {expect})",
            header.kind, header.method
        )));
    }
    String::from_utf8(payload).map_err(|e| CliError(format!("control payload not UTF-8: {e}")))
}

fn set_control_timeouts(stream: &TcpStream) -> Result<()> {
    stream
        .set_read_timeout(Some(CONTROL_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CONTROL_TIMEOUT)))
        .map_err(|e| CliError(format!("control socket timeout: {e}")))
}

/// `gradcomp worker --rank N --peers a,b,c [--method M] [--steps S]`, or
/// `gradcomp worker --orchestrator ADDR`.
pub(crate) fn cmd_worker(rest: &[String]) -> Result<String> {
    let map = flag_map(rest)?;
    if let Some(orch) = map.get("orchestrator") {
        return worker_orchestrated(orch);
    }
    let rank: usize = map
        .get("rank")
        .ok_or_else(|| CliError("worker needs --rank (or --orchestrator)".into()))?
        .parse()
        .map_err(|e| CliError(format!("bad --rank: {e}")))?;
    let peers: Vec<String> = map
        .get("peers")
        .ok_or_else(|| CliError("worker needs --peers host:port,host:port,...".into()))?
        .split(',')
        .map(|s| s.trim().to_owned())
        .collect();
    let method = MethodConfig::parse(map.get("method").map_or(DEFAULT_METHOD, String::as_str))
        .map_err(|e| CliError(e.to_string()))?;
    let steps: usize = map.get("steps").map_or(Ok(DEFAULT_STEPS), |v| {
        v.parse().map_err(|e| CliError(format!("bad --steps: {e}")))
    })?;
    let handle = TcpCluster::connect(rank, &peers, TcpOptions::default())
        .map_err(|e| CliError(format!("forming mesh as rank {rank}: {e}")))?;
    let digest = run_steps(handle, &method, steps)?;
    Ok(format!(
        "worker rank {rank}/{} done: {steps} steps, digest {digest:016x}\n",
        peers.len()
    ))
}

/// Orchestrated worker: register → be assigned a rank → run → report.
fn worker_orchestrated(orch_addr: &str) -> Result<String> {
    // Bind the data-plane listener first so the registration can carry
    // a concrete address.
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CliError(format!("binding data listener: {e}")))?;
    let data_addr = listener
        .local_addr()
        .map_err(|e| CliError(format!("resolving data listener: {e}")))?
        .to_string();

    let mut control = TcpStream::connect(orch_addr)
        .map_err(|e| CliError(format!("connecting to orchestrator {orch_addr}: {e}")))?;
    set_control_timeouts(&control)?;
    send_control(&mut control, MSG_REGISTER, &data_addr)?;

    // ASSIGN: "<rank>;<method>;<steps>;<addr0>,<addr1>,..."
    let assign = recv_control(&mut control, MSG_ASSIGN)?;
    let parts: Vec<&str> = assign.split(';').collect();
    let [rank_s, method_s, steps_s, addrs_s] = parts.as_slice() else {
        return Err(CliError(format!("malformed assignment '{assign}'")));
    };
    let rank: usize = rank_s
        .parse()
        .map_err(|e| CliError(format!("bad assigned rank: {e}")))?;
    let method =
        MethodConfig::parse(method_s).map_err(|e| CliError(format!("assigned method: {e}")))?;
    let steps: usize = steps_s
        .parse()
        .map_err(|e| CliError(format!("bad assigned steps: {e}")))?;
    let addrs: Vec<String> = addrs_s.split(',').map(str::to_owned).collect();

    let handle = TcpCluster::connect_with_listener(rank, listener, &addrs, TcpOptions::default())
        .map_err(|e| CliError(format!("forming mesh as rank {rank}: {e}")))?;
    let digest = run_steps(handle, &method, steps)?;
    send_control(&mut control, MSG_RESULT, &format!("{rank};{digest:016x}"))?;
    Ok(format!(
        "worker rank {rank}/{} done: {steps} steps, digest {digest:016x}\n",
        addrs.len()
    ))
}

/// `gradcomp orchestrator --world N [--method M] [--steps S] [--port P]
/// [--addr-file F]`.
pub(crate) fn cmd_orchestrator(rest: &[String]) -> Result<String> {
    let map = flag_map(rest)?;
    let world: usize = map.get("world").map_or(Ok(2), |v| {
        v.parse().map_err(|e| CliError(format!("bad --world: {e}")))
    })?;
    if world == 0 {
        return Err(CliError("--world must be at least 1".into()));
    }
    let method = MethodConfig::parse(map.get("method").map_or(DEFAULT_METHOD, String::as_str))
        .map_err(|e| CliError(e.to_string()))?;
    let steps: usize = map.get("steps").map_or(Ok(DEFAULT_STEPS), |v| {
        v.parse().map_err(|e| CliError(format!("bad --steps: {e}")))
    })?;
    let port = map.get("port").map_or("0", String::as_str);
    let listener = TcpListener::bind(format!("127.0.0.1:{port}"))
        .map_err(|e| CliError(format!("binding control socket: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| CliError(format!("resolving control socket: {e}")))?;
    if let Some(path) = map.get("addr-file") {
        // Write via a temp file + rename so pollers never read a partial
        // address.
        let tmp = format!("{path}.tmp");
        std::fs::File::create(&tmp)
            .and_then(|mut f| {
                writeln!(f, "{bound}")?;
                f.flush()
            })
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| CliError(format!("writing --addr-file {path}: {e}")))?;
    }
    orchestrate(listener, world, &method, steps)
}

/// Accepts `world` registrations, assigns ranks in arrival order, and
/// verifies every reported digest against the in-process sim reference.
fn orchestrate(
    listener: TcpListener,
    world: usize,
    method: &MethodConfig,
    steps: usize,
) -> Result<String> {
    let mut out = format!(
        "orchestrator: world {world}, method {method:?}, {steps} steps, control {}\n",
        listener
            .local_addr()
            .map_err(|e| CliError(format!("control addr: {e}")))?
    );

    let mut controls: Vec<TcpStream> = Vec::with_capacity(world);
    let mut data_addrs: Vec<String> = Vec::with_capacity(world);
    for rank in 0..world {
        let (mut stream, from) = listener
            .accept()
            .map_err(|e| CliError(format!("accepting worker: {e}")))?;
        set_control_timeouts(&stream)?;
        let addr = recv_control(&mut stream, MSG_REGISTER)?;
        out.push_str(&format!("  rank {rank} <- {from} (data {addr})\n"));
        controls.push(stream);
        data_addrs.push(addr);
    }

    let method_str = format!("{method}");
    let assign_tail = data_addrs.join(",");
    for (rank, stream) in controls.iter_mut().enumerate() {
        send_control(
            stream,
            MSG_ASSIGN,
            &format!("{rank};{method_str};{steps};{assign_tail}"),
        )?;
    }

    let expected = sim_digests(world, method, steps)?;
    let mut ok = true;
    for (rank, stream) in controls.iter_mut().enumerate() {
        let result = recv_control(stream, MSG_RESULT)?;
        let (got_rank, got_digest) = result
            .split_once(';')
            .ok_or_else(|| CliError(format!("malformed result '{result}'")))?;
        if got_rank != rank.to_string() {
            return Err(CliError(format!(
                "result from rank {got_rank} arrived on rank {rank}'s control link"
            )));
        }
        let want = format!("{:016x}", expected[rank]);
        let verdict = if got_digest == want { "ok" } else { "MISMATCH" };
        ok &= got_digest == want;
        out.push_str(&format!(
            "  rank {rank}: tcp digest {got_digest}, sim digest {want} -> {verdict}\n"
        ));
    }
    if !ok {
        return Err(CliError(
            "multi-process run deviated from the SimCluster reference".into(),
        ));
    }
    out.push_str(&format!(
        "verified: {world} TCP workers bit-identical to the sim reference\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MethodConfig` must round-trip through its Display form, since
    /// the assignment wire carries it as text.
    #[test]
    fn method_config_roundtrips_through_display() {
        for spec in ["topk:0.2", "syncsgd", "powersgd:2", "qsgd:15"] {
            let m = MethodConfig::parse(spec).unwrap();
            assert_eq!(MethodConfig::parse(&format!("{m}")).unwrap(), m);
        }
    }

    #[test]
    fn static_workers_agree_with_sim_reference() {
        // Two static-mode workers (full peer list up front) in threads;
        // the digests they print must match the in-process reference.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap().to_string();
        let a1 = l1.local_addr().unwrap().to_string();
        drop(l0);
        drop(l1);
        let peers = format!("{a0},{a1}");
        let args = |rank: usize| -> Vec<String> {
            [
                "--rank",
                &rank.to_string(),
                "--peers",
                &peers,
                "--method",
                "topk:0.2",
                "--steps",
                "2",
            ]
            .iter()
            .map(ToString::to_string)
            .collect()
        };
        let outs: Vec<String> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..2)
                .map(|rank| s.spawn(move || cmd_worker(&args(rank)).unwrap()))
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let method = MethodConfig::parse("topk:0.2").unwrap();
        let expected = sim_digests(2, &method, 2).unwrap();
        for (rank, out) in outs.iter().enumerate() {
            assert!(
                out.contains(&format!("digest {:016x}", expected[rank])),
                "rank {rank} output {out:?} vs expected {:016x}",
                expected[rank]
            );
        }
    }

    #[test]
    fn orchestrated_run_verifies_against_sim() {
        // Full control-plane round trip in one process: an orchestrator
        // thread plus `world` orchestrated-worker threads.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let method = MethodConfig::parse("qsgd:15").unwrap();
        let (orch, workers) = std::thread::scope(|s| {
            let orch = s.spawn(move || orchestrate(listener, 3, &method, 2).unwrap());
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let addr = addr.clone();
                    s.spawn(move || worker_orchestrated(&addr).unwrap())
                })
                .collect();
            (
                orch.join().unwrap(),
                workers
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        });
        assert!(
            orch.contains("verified: 3 TCP workers bit-identical"),
            "orchestrator output: {orch}"
        );
        for (i, w) in workers.iter().enumerate() {
            assert!(w.contains("done: 2 steps"), "worker {i}: {w}");
        }
    }

    #[test]
    fn worker_without_rank_or_orchestrator_is_a_usage_error() {
        let err = cmd_worker(&[]).unwrap_err();
        assert!(err.0.contains("--rank"), "got {err:?}");
    }
}
