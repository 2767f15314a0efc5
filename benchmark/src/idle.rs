//! Idle guard: one lowest-priority spinning child per CPU while a run is
//! measured, so that a rank blocked in `recv` does not let its vCPU halt
//! and then pay the hypervisor's wake-up on the next frame. Measured on
//! the reference box (three alternations, 10 s runs): `step_ms` of
//! `train-smallmsg-tcp` 0.860/0.841/0.856 with the guard against
//! 0.918/1.122/0.913 without, `topk-overlap-netem` 9.72/9.67/9.76
//! against 10.62/9.94/9.85; the other two workloads did not move.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Argument that turns this executable into one spinning child.
pub const CHILD_FLAG: &str = "--idle-guard";

/// A child outlives no benchmark run; the contract gives a run 180 s.
const CHILD_LIFETIME: Duration = Duration::from_secs(180);

/// Launchers that put the child below every normal thread, best first.
const LAUNCHERS: [(&str, &[&str]); 2] = [("chrt", &["-i", "0"]), ("nice", &["-n", "19"])];

/// Body of a spinning child: burns its time slice until the benchmark
/// that started it is gone (killed or not) or the lifetime is up.
pub fn spin_until_orphaned() {
    let parent = std::os::unix::process::parent_id();
    let started = Instant::now();
    while std::os::unix::process::parent_id() == parent && started.elapsed() < CHILD_LIFETIME {
        for _ in 0..1_000_000 {
            std::hint::spin_loop();
        }
    }
}

/// The running children; dropping it kills and reaps them.
pub struct IdleGuard {
    children: Vec<Child>,
    /// `chrt`, `nice`, or `off` when neither launcher worked.
    pub mode: &'static str,
}

impl IdleGuard {
    pub fn start() -> IdleGuard {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let off = IdleGuard {
            children: Vec::new(),
            mode: "off",
        };
        let Ok(exe) = std::env::current_exe() else {
            return off;
        };
        for (launcher, args) in LAUNCHERS {
            let mut guard = IdleGuard {
                children: Vec::new(),
                mode: launcher,
            };
            for _ in 0..cpus {
                let child = Command::new(launcher)
                    .args(args)
                    .arg(&exe)
                    .arg(CHILD_FLAG)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn();
                match child {
                    Ok(child) => guard.children.push(child),
                    Err(_) => break,
                }
            }
            // A launcher that is present but not permitted exits at once.
            std::thread::sleep(Duration::from_millis(50));
            let all_spinning = guard.children.len() == cpus
                && guard
                    .children
                    .iter_mut()
                    .all(|c| matches!(c.try_wait(), Ok(None)));
            if all_spinning {
                return guard;
            }
        }
        off
    }
}

impl Drop for IdleGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Errors mean the child is already gone, which is the goal.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
