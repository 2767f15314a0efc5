//! The analyzer's one state-space search.
//!
//! Every exhaustive check is a [`Machine`]: the interleaving cross-check
//! of the schedule pass (Pass 1) and the protocol machines (Pass 3).
//! [`explore`] visits every reachable state breadth-first and reports
//! what it sees as typed [`Finding`]s: invariant violations,
//! non-accepting terminal states, and a blown state budget. A machine
//! may also name [`SourceAnchor`]s in the code it abstracts;
//! [`check_anchors`] reports `model-drift` when one is gone.

use crate::lint;
use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::path::Path;

/// A typed finding from an explored model.
#[derive(Clone, Debug)]
pub struct Finding {
    pub model: String,
    /// `invariant-violation`, `deadlock`, `state-explosion`, or
    /// `model-drift`.
    pub kind: String,
    pub detail: String,
}

/// An identifier token that must still appear in a real source file; the
/// model-drift tripwire for abstracted checking.
#[derive(Clone, Debug)]
pub struct SourceAnchor {
    pub file: &'static str,
    pub ident: &'static str,
}

impl SourceAnchor {
    pub const fn new(file: &'static str, ident: &'static str) -> Self {
        SourceAnchor { file, ident }
    }
}

/// An explicit-state model.
pub trait Machine {
    type State: Clone + Eq + Hash + Debug;
    fn name(&self) -> String;
    fn init(&self) -> Self::State;
    /// All successor states (one per enabled event).
    fn successors(&self, s: &Self::State) -> Vec<Self::State>;
    /// One description per safety violation in `s`.
    fn invariant(&self, s: &Self::State) -> Vec<String>;
    /// Whether a state with no successors is an acceptable terminal.
    fn accepting(&self, s: &Self::State) -> bool;
    /// Kind and detail of the finding for a non-accepting terminal state.
    fn stuck(&self, s: &Self::State) -> (&'static str, String) {
        ("deadlock", format!("non-accepting terminal state: {s:?}"))
    }
    /// Identifiers that must still appear in the source this models.
    fn anchors(&self) -> &[SourceAnchor] {
        &[]
    }
}

/// Per-machine exploration outcome.
#[derive(Clone, Debug)]
pub struct MachineResult {
    pub machine: String,
    pub states: usize,
    pub findings: Vec<Finding>,
}

/// Upper bound on reachable states per machine; every model here is far
/// below it, so hitting it means an abstraction regressed.
const MAX_STATES: usize = 1 << 20;
/// Cap on invariant findings per machine, so a badly broken mutant does
/// not flood the report.
const MAX_FINDINGS: usize = 4;

/// Breadth-first exploration of every reachable state of `m`. Identical
/// invariant findings from different states are reported once, and only
/// the first non-accepting terminal state is reported.
pub fn explore<M: Machine>(m: &M) -> MachineResult {
    let name = m.name();
    let finding = |kind: &str, detail: String| Finding {
        model: name.clone(),
        kind: kind.into(),
        detail,
    };
    let mut findings = Vec::new();
    let mut reported: HashSet<String> = HashSet::new();
    let mut seen: HashSet<M::State> = HashSet::new();
    let mut queue: VecDeque<M::State> = VecDeque::new();
    let init = m.init();
    seen.insert(init.clone());
    queue.push_back(init);
    let mut stuck_reported = false;

    while let Some(s) = queue.pop_front() {
        if seen.len() > MAX_STATES {
            findings.push(finding(
                "state-explosion",
                format!("exceeded {MAX_STATES} states"),
            ));
            break;
        }
        for detail in m.invariant(&s) {
            if findings.len() < MAX_FINDINGS && reported.insert(detail.clone()) {
                findings.push(finding("invariant-violation", detail));
            }
        }
        let succ = m.successors(&s);
        if succ.is_empty() && !m.accepting(&s) && !stuck_reported {
            stuck_reported = true;
            let (kind, detail) = m.stuck(&s);
            findings.push(finding(kind, detail));
        }
        for n in succ {
            if seen.insert(n.clone()) {
                queue.push_back(n);
            }
        }
    }
    MachineResult {
        machine: name,
        states: seen.len(),
        findings,
    }
}

/// A `model-drift` finding for each anchor of `m` whose identifier no
/// longer appears in its file under `root`.
pub fn check_anchors<M: Machine>(root: &Path, m: &M) -> Vec<Finding> {
    m.anchors()
        .iter()
        .filter(|a| {
            std::fs::read_to_string(root.join(a.file))
                .map_or(true, |src| lint::ident_count(&src, a.ident) == 0)
        })
        .map(|a| Finding {
            model: m.name(),
            kind: "model-drift".into(),
            detail: format!(
                "anchor `{}` no longer found in {} — the abstraction may be stale; update the model",
                a.ident, a.file
            ),
        })
        .collect()
}

/// Outcome of a pass that explores a list of machines.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// Machine names, in exploration order.
    pub machines: Vec<String>,
    pub states_explored: usize,
    pub findings: Vec<Finding>,
}

impl PassReport {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Explore `m` and, given a source `root`, check its anchors there.
    pub fn check<M: Machine>(&mut self, m: &M, root: Option<&Path>) {
        let r = explore(m);
        self.machines.push(r.machine);
        self.states_explored += r.states;
        self.findings.extend(r.findings);
        if let Some(root) = root {
            self.findings.extend(check_anchors(root, m));
        }
    }
}
