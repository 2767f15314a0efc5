//! Adaptive compression controller: an online Equation-1 cost model that
//! picks the compression scheme per bucket.
//!
//! The paper's headline observation is that no fixed scheme wins
//! everywhere: syncSGD is optimal on fast interconnects, aggressive
//! compression on slow ones, and the crossover moves with bucket size and
//! worker count. This module closes the loop: a [`Controller`] holds a set
//! of candidate schemes (*arms*, [`MethodConfig`] recipes), estimates each
//! arm's per-bucket iteration cost with the α–β model of Equation 1, and
//! re-tunes the assignment at step boundaries under a hysteresis policy so
//! the data plane converges instead of thrashing.
//!
//! # Cost estimate
//!
//! For bucket `b` on arm `a` the estimated step share is
//!
//! ```text
//! T(b, a) = T_encdec(b, a) + Σ_rounds T_coll(bytes_r, p)
//! ```
//!
//! where `T_coll` is Equation 1 for ring all-reducible schemes
//! (`α(p−1) + 2·bytes·(p−1)/(p·BW)`) and the all-gather formula
//! (`α(p−1) + bytes·(p−1)/BW_eff`) otherwise, both priced by the cluster
//! crate's [`NetworkModel`] — the repo's one α–β model. Every round moves
//! a whole number of bytes, so the estimate is exactly the cost layer's.
//!
//! # Modelled vs measured inputs
//!
//! [`DecisionInputs::Modelled`] evaluates the estimate from static
//! encode/decode priors and the configured link — fully deterministic, so
//! decision traces are bit-identical across runs (what the benchmark
//! gates). [`DecisionInputs::Measured`] replaces the priors with per-arm
//! EWMAs of observed encode/decode time and inverts Equation 1 on observed
//! exchange time to estimate the *effective* bandwidth — this is what
//! steers the controller toward higher compression when the fault plane
//! delays links.
//!
//! # Cross-rank consistency
//!
//! Every rank must run the same scheme for the same bucket or the
//! collective exchange deadlocks on mismatched payload kinds. The engine
//! therefore computes decisions on rank 0 only ([`Controller::end_step`]),
//! serializes them with [`encode_decisions`], broadcasts, and followers
//! replay them via [`Controller::apply`].

use crate::registry::MethodConfig;
use crate::{CompressError, Result};
use gcs_cluster::cost::NetworkModel;
use gcs_tensor::Shape;

/// Weight of a new observation in the encode/decode and bandwidth EWMAs.
const EWMA_WEIGHT: f64 = 0.3;

/// Which collective a payload round rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Summable payload: ring all-reduce (Equation 1).
    Ring,
    /// Non-summable payload: serialized all-gather.
    Gather,
}

/// One modelled communication round of an (arm, bucket) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RoundCost {
    bytes: usize,
    kind: CollectiveKind,
}

/// What the controller optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize estimated iteration time: every bucket takes the arm with
    /// the smallest Equation-1 estimate (ties break toward the
    /// lowest-index — least aggressive — arm).
    FastestIteration,
    /// Stay under a per-step communication budget while compressing as
    /// little as possible: each bucket gets a share of the budget
    /// proportional to its element count and takes the *lowest-index* arm
    /// whose estimate fits that share (arms are conventionally ordered
    /// least → most aggressive). Falls back to the fastest arm when none
    /// fits.
    Budget {
        /// Target seconds per step for the whole exchange.
        per_step_s: f64,
    },
}

/// Where the controller's cost estimates come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionInputs {
    /// Static encode/decode priors + configured link model. Fully
    /// deterministic: decision traces are bit-identical across runs.
    Modelled,
    /// EWMA of observed encode/decode seconds per (bucket, arm), plus an
    /// effective-bandwidth estimate inverted from observed exchange time
    /// via Equation 1. Warm-up steps round-robin the arms so every EWMA
    /// is seeded before steady-state decisions begin.
    Measured,
}

/// Configuration of the adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Candidate schemes. Index 0 is the initial assignment for every
    /// bucket; order least → most aggressive so [`Objective::Budget`]
    /// prefers lighter compression.
    pub arms: Vec<MethodConfig>,
    /// What to optimize.
    pub objective: Objective,
    /// Modelled or measured estimates.
    pub inputs: DecisionInputs,
    /// The α–β link model used for modelled estimates (and as the
    /// bandwidth prior before any measurement).
    pub link: NetworkModel,
    /// Relative improvement required before switching away from the
    /// current arm (e.g. `0.15` = the challenger must be ≥15 % faster).
    pub hysteresis: f64,
    /// Minimum steps on an arm before it may be switched again.
    pub dwell_steps: usize,
    /// Measured-input warm-up: steps `1..=warmup_steps` round-robin the
    /// arms (`arm = (step + bucket) mod |arms|`) to seed every EWMA.
    pub warmup_steps: usize,
    /// Static encode+decode prior in nanoseconds per element, one per arm
    /// (filled from [`default_encdec_prior_ns`] by
    /// [`AdaptiveConfig::new`]).
    pub priors_ns_per_elem: Vec<f64>,
}

/// Static encode+decode cost prior for `method`, in nanoseconds per
/// gradient element on one core. Calibrated once against this repo's
/// kernel benchmarks (Table 2 reproduces the same ordering: Top-K's
/// selection dominates, PowerSGD scales with rank, casts are cheap) and
/// then *frozen* so modelled decision traces stay bit-identical across
/// machines. [`DecisionInputs::Measured`] replaces these with live EWMAs.
pub fn default_encdec_prior_ns(method: &MethodConfig) -> f64 {
    match method {
        MethodConfig::SyncSgd => 0.25,
        MethodConfig::Fp16 => 2.0,
        MethodConfig::PowerSgd { rank } => 4.0 * (*rank as f64).max(1.0),
        MethodConfig::TopK { .. } => 25.0,
        MethodConfig::SignSgd => 1.5,
        MethodConfig::EfSignSgd => 2.5,
        MethodConfig::Qsgd { .. } => 6.0,
        MethodConfig::TernGrad => 4.0,
        MethodConfig::RandomK { .. } => 5.0,
        MethodConfig::Atomo { rank } => 40.0 * (*rank as f64).max(1.0),
        MethodConfig::OneBit => 3.0,
        MethodConfig::Sketch { .. } => 10.0,
        MethodConfig::Dgc { .. } => 30.0,
        MethodConfig::Variance { .. } => 12.0,
        MethodConfig::Natural => 4.0,
    }
}

impl AdaptiveConfig {
    /// Creates a config with the given arms and defaults: fastest-iteration
    /// objective, modelled inputs, the paper's 10 Gbps datacenter link,
    /// 15 % hysteresis, 2-step dwell, and one warm-up round per arm.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] when `arms` is empty.
    pub fn new(arms: Vec<MethodConfig>) -> Result<Self> {
        if arms.is_empty() {
            return Err(CompressError::InvalidConfig(
                "adaptive controller needs at least one arm".into(),
            ));
        }
        let priors = arms.iter().map(default_encdec_prior_ns).collect();
        let warmup = arms.len();
        Ok(AdaptiveConfig {
            arms,
            objective: Objective::FastestIteration,
            inputs: DecisionInputs::Modelled,
            link: NetworkModel::datacenter_10gbps(),
            hysteresis: 0.15,
            dwell_steps: 2,
            warmup_steps: warmup,
            priors_ns_per_elem: priors,
        })
    }

    /// Sets the objective.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the estimate inputs.
    #[must_use]
    pub fn inputs(mut self, inputs: DecisionInputs) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the link model.
    #[must_use]
    pub fn link(mut self, link: NetworkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the hysteresis threshold.
    #[must_use]
    pub fn hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis;
        self
    }

    /// Sets the dwell requirement.
    #[must_use]
    pub fn dwell_steps(mut self, dwell: usize) -> Self {
        self.dwell_steps = dwell;
        self
    }

    /// Sets the measured-input warm-up length.
    #[must_use]
    pub fn warmup_steps(mut self, warmup: usize) -> Self {
        self.warmup_steps = warmup;
        self
    }
}

/// One scheme switch, as computed on rank 0 and replayed on followers.
/// The full ordered decision list is the controller's *trace* — recording
/// it and re-running under [`Controller::scripted`] reproduces the exact
/// arm assignment sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The step this decision takes effect for (the exchange *after* it
    /// was made; initial-assignment decisions carry step 0).
    pub step: u32,
    /// Bucket index.
    pub bucket: u32,
    /// Previous arm index.
    pub from: u32,
    /// New arm index.
    pub to: u32,
    /// Estimated per-step seconds of the previous arm at decision time.
    pub est_from_s: f64,
    /// Estimated per-step seconds of the new arm at decision time.
    pub est_to_s: f64,
    /// Whether this was a warm-up probe rather than a policy switch.
    pub probe: bool,
}

/// Bytes per serialized [`Decision`] on the broadcast wire.
const DECISION_WIRE_BYTES: usize = 4 * 4 + 8 * 2 + 1;

/// Serializes decisions for the rank-0 → followers broadcast.
///
/// # Errors
///
/// Returns [`CompressError::Wire`] if the decision count overflows the
/// `u32` wire count field (narrowing must fail loudly, never truncate).
pub fn encode_decisions(decisions: &[Decision]) -> Result<Vec<u8>> {
    let count = u32::try_from(decisions.len()).map_err(|_| {
        CompressError::Wire(format!(
            "{} decisions exceed the u32 wire count field",
            decisions.len()
        ))
    })?;
    let mut out = Vec::with_capacity(4 + decisions.len() * DECISION_WIRE_BYTES);
    out.extend_from_slice(&count.to_le_bytes());
    for d in decisions {
        out.extend_from_slice(&d.step.to_le_bytes());
        out.extend_from_slice(&d.bucket.to_le_bytes());
        out.extend_from_slice(&d.from.to_le_bytes());
        out.extend_from_slice(&d.to.to_le_bytes());
        out.extend_from_slice(&d.est_from_s.to_bits().to_le_bytes());
        out.extend_from_slice(&d.est_to_s.to_bits().to_le_bytes());
        out.push(u8::from(d.probe));
    }
    Ok(out)
}

/// Deserializes a decision list produced by [`encode_decisions`].
///
/// # Errors
///
/// Returns [`CompressError::Protocol`] on a truncated or malformed buffer.
pub fn decode_decisions(bytes: &[u8]) -> Result<Vec<Decision>> {
    let malformed = || CompressError::Protocol("malformed decision broadcast".into());
    let head: [u8; 4] = bytes
        .get(..4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(malformed)?;
    let count = u32::from_le_bytes(head) as usize;
    let body = &bytes[4..];
    if body.len() != count * DECISION_WIRE_BYTES {
        return Err(malformed());
    }
    let mut out = Vec::with_capacity(count);
    for chunk in body.chunks_exact(DECISION_WIRE_BYTES) {
        let u32_at = |i: usize| -> Result<u32> {
            chunk
                .get(i..i + 4)
                .and_then(|s| s.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or_else(malformed)
        };
        let f64_at = |i: usize| -> Result<f64> {
            chunk
                .get(i..i + 8)
                .and_then(|s| s.try_into().ok())
                .map(|b| f64::from_bits(u64::from_le_bytes(b)))
                .ok_or_else(malformed)
        };
        out.push(Decision {
            step: u32_at(0)?,
            bucket: u32_at(4)?,
            from: u32_at(8)?,
            to: u32_at(12)?,
            est_from_s: f64_at(16)?,
            est_to_s: f64_at(24)?,
            probe: chunk.get(32).copied().ok_or_else(malformed)? != 0,
        });
    }
    Ok(out)
}

/// One instrumented bucket exchange, fed back via [`Controller::observe`].
/// Byte/round counts let the controller invert Equation 1 for an effective
/// bandwidth; when a bucket's rounds mix ring and gather traffic the
/// inversion is skipped (no single-collective formula applies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Bucket index.
    pub bucket: usize,
    /// Arm the bucket ran on.
    pub arm: usize,
    /// Seconds spent encoding (all rounds).
    pub encode_s: f64,
    /// Seconds spent in the collective exchange (all rounds).
    pub comm_s: f64,
    /// Seconds spent decoding/absorbing.
    pub decode_s: f64,
    /// Total bytes moved over ring all-reduce rounds.
    pub ring_bytes: u64,
    /// Number of ring rounds.
    pub ring_rounds: u32,
    /// Total per-worker bytes contributed to all-gather rounds.
    pub gather_bytes: u64,
    /// Number of gather rounds.
    pub gather_rounds: u32,
}

/// Per-bucket controller state.
#[derive(Debug, Clone)]
struct BucketState {
    arm: usize,
    steps_on_arm: usize,
    /// EWMA of observed encode+decode seconds, one slot per arm.
    encdec_ewma: Vec<Option<f64>>,
}

/// The adaptive compression controller (see the module docs).
#[derive(Debug)]
pub struct Controller {
    cfg: AdaptiveConfig,
    world: usize,
    elems: Vec<usize>,
    total_elems: usize,
    /// `rounds[arm][bucket]` — the modelled communication rounds.
    rounds: Vec<Vec<Vec<RoundCost>>>,
    buckets: Vec<BucketState>,
    /// EWMA of the effective link bandwidth inverted from observations.
    bw_estimate: Option<f64>,
    step: u32,
    trace: Vec<Decision>,
    script: Option<Vec<Decision>>,
}

impl Controller {
    /// Creates a controller for `bucket_shapes` (the matricized shapes of
    /// the engine's `BucketPlan`) across a `world`-worker ring. Every
    /// bucket starts on arm 0.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] when `bucket_shapes` is
    /// empty, `world` is zero, or an arm fails to build.
    pub fn new(cfg: AdaptiveConfig, bucket_shapes: &[Shape], world: usize) -> Result<Self> {
        if bucket_shapes.is_empty() {
            return Err(CompressError::InvalidConfig(
                "adaptive controller needs at least one bucket".into(),
            ));
        }
        if world == 0 {
            return Err(CompressError::InvalidConfig(
                "adaptive controller needs at least one worker".into(),
            ));
        }
        if cfg.priors_ns_per_elem.len() != cfg.arms.len() {
            return Err(CompressError::InvalidConfig(format!(
                "{} priors for {} arms",
                cfg.priors_ns_per_elem.len(),
                cfg.arms.len()
            )));
        }
        let mut rounds = Vec::with_capacity(cfg.arms.len());
        for method in &cfg.arms {
            let compressor = method.build()?;
            let props = compressor.properties();
            let mut per_bucket = Vec::with_capacity(bucket_shapes.len());
            for shape in bucket_shapes {
                per_bucket.push(model_rounds(method, compressor.as_ref(), &props, shape));
            }
            rounds.push(per_bucket);
        }
        let elems: Vec<usize> = bucket_shapes.iter().map(Shape::numel).collect();
        let total_elems = elems.iter().sum::<usize>().max(1);
        let buckets = bucket_shapes
            .iter()
            .map(|_| BucketState {
                arm: 0,
                steps_on_arm: 0,
                encdec_ewma: vec![None; cfg.arms.len()],
            })
            .collect();
        Ok(Controller {
            cfg,
            world,
            elems,
            total_elems,
            rounds,
            buckets,
            bw_estimate: None,
            step: 0,
            trace: Vec::new(),
            script: None,
        })
    }

    /// Creates a controller that replays a recorded decision trace instead
    /// of running the policy: [`tune_initial`](Controller::tune_initial)
    /// applies the script's step-0 entries, and each
    /// [`end_step`](Controller::end_step) applies the entries stamped with
    /// the new step. Replaying a live run's [`trace`](Controller::trace)
    /// reproduces its arm assignments exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`Controller::new`] errors, or
    /// [`CompressError::Protocol`] when a script entry references an arm
    /// or bucket out of range.
    pub fn scripted(
        cfg: AdaptiveConfig,
        bucket_shapes: &[Shape],
        world: usize,
        script: Vec<Decision>,
    ) -> Result<Self> {
        let mut c = Self::new(cfg, bucket_shapes, world)?;
        for d in &script {
            if d.bucket as usize >= c.buckets.len() || d.to as usize >= c.cfg.arms.len() {
                return Err(CompressError::Protocol(format!(
                    "scripted decision out of range: bucket {} arm {}",
                    d.bucket, d.to
                )));
            }
        }
        c.script = Some(script);
        Ok(c)
    }

    /// Number of buckets under control.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of candidate arms.
    pub fn num_arms(&self) -> usize {
        self.cfg.arms.len()
    }

    /// The candidate schemes.
    pub fn arms(&self) -> &[MethodConfig] {
        &self.cfg.arms
    }

    /// Current arm index of `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn arm_of(&self, bucket: usize) -> usize {
        self.buckets[bucket].arm
    }

    /// Current scheme of `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn method_of(&self, bucket: usize) -> &MethodConfig {
        &self.cfg.arms[self.buckets[bucket].arm]
    }

    /// Every decision made (or applied) so far, in order.
    pub fn trace(&self) -> &[Decision] {
        &self.trace
    }

    /// The EWMA effective-bandwidth estimate (bytes/s), if any
    /// observation has been inverted yet.
    pub fn bandwidth_estimate(&self) -> Option<f64> {
        self.bw_estimate
    }

    /// The link model decisions currently use: the configured link, with
    /// its bandwidth replaced by the measured estimate under
    /// [`DecisionInputs::Measured`].
    fn decision_link(&self) -> NetworkModel {
        match (self.cfg.inputs, self.bw_estimate) {
            (DecisionInputs::Measured, Some(bw)) => NetworkModel {
                bandwidth: bw,
                ..self.cfg.link
            },
            _ => self.cfg.link,
        }
    }

    /// Estimated per-step seconds for `bucket` on `arm` (encode + decode
    /// + Equation-1 communication).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` or `arm` is out of range.
    pub fn estimate(&self, bucket: usize, arm: usize) -> f64 {
        let prior = self.cfg.priors_ns_per_elem[arm] * 1e-9 * self.elems[bucket] as f64;
        let encdec = match self.cfg.inputs {
            DecisionInputs::Modelled => prior,
            DecisionInputs::Measured => self.buckets[bucket].encdec_ewma[arm].unwrap_or(prior),
        };
        let link = self.decision_link();
        let mut comm = 0.0;
        for r in &self.rounds[arm][bucket] {
            comm += match r.kind {
                CollectiveKind::Ring => link.ring_all_reduce(r.bytes, self.world),
                CollectiveKind::Gather => link.all_gather(r.bytes, self.world),
            };
        }
        encdec + comm
    }

    /// Estimated seconds for one full exchange under the current arm
    /// assignment.
    pub fn step_estimate(&self) -> f64 {
        (0..self.buckets.len())
            .map(|b| self.estimate(b, self.buckets[b].arm))
            .sum()
    }

    /// Feeds one instrumented bucket exchange back into the controller.
    /// Out-of-range indices are ignored (a follower replaying foreign
    /// decisions may momentarily disagree with local instrumentation).
    pub fn observe(&mut self, obs: Observation) {
        if obs.arm >= self.cfg.arms.len() {
            return;
        }
        let world = self.world;
        let Some(state) = self.buckets.get_mut(obs.bucket) else {
            return;
        };
        let encdec = obs.encode_s + obs.decode_s;
        let slot = &mut state.encdec_ewma[obs.arm];
        *slot = Some(match *slot {
            Some(prev) => (1.0 - EWMA_WEIGHT) * prev + EWMA_WEIGHT * encdec,
            None => encdec,
        });
        if let Some(bw) = invert_bandwidth(&self.cfg.link, world, &obs) {
            self.bw_estimate = Some(match self.bw_estimate {
                Some(prev) => (1.0 - EWMA_WEIGHT) * prev + EWMA_WEIGHT * bw,
                None => bw,
            });
        }
    }

    /// Computes the initial per-bucket assignment before the first
    /// exchange (step 0). Under modelled inputs this applies the policy
    /// immediately — there is nothing to measure, so waiting a step would
    /// only pay one exchange on a known-suboptimal arm. Under measured
    /// inputs the warm-up probing owns the early steps and this is a
    /// no-op. Scripted controllers apply the script's step-0 entries.
    ///
    /// Rank 0 calls this; the returned decisions must be broadcast and
    /// [`apply`](Controller::apply)-ed on followers.
    pub fn tune_initial(&mut self) -> Vec<Decision> {
        if self.script.is_some() {
            return self.apply_script(0);
        }
        if self.cfg.inputs == DecisionInputs::Measured {
            return Vec::new();
        }
        let mut decisions = Vec::new();
        for b in 0..self.buckets.len() {
            let cur = self.buckets[b].arm;
            let target = self.policy_target(b);
            if target != cur {
                decisions.push(self.switch(0, b, target, false));
            }
        }
        decisions
    }

    /// Ends a step: advances the step counter and computes the switches
    /// that take effect for the *next* exchange. Rank 0 calls this after
    /// every exchange; the returned decisions must be broadcast (even
    /// when empty, so every rank's collective schedule stays aligned) and
    /// [`apply`](Controller::apply)-ed on followers.
    pub fn end_step(&mut self) -> Vec<Decision> {
        self.step += 1;
        let next = self.step;
        if self.script.is_some() {
            return self.apply_script(next);
        }
        let mut decisions = Vec::new();
        for b in 0..self.buckets.len() {
            let cur = self.buckets[b].arm;
            // Measured warm-up: deterministic round-robin probing so every
            // (bucket, arm) EWMA is seeded before steady state.
            if self.cfg.inputs == DecisionInputs::Measured
                && (next as usize) <= self.cfg.warmup_steps
            {
                let target = (next as usize + b) % self.cfg.arms.len();
                if target != cur {
                    decisions.push(self.switch(next, b, target, true));
                } else {
                    self.buckets[b].steps_on_arm += 1;
                }
                continue;
            }
            let target = self.policy_target(b);
            if target != cur
                && self.buckets[b].steps_on_arm >= self.cfg.dwell_steps
                && self.switch_justified(b, cur, target)
            {
                decisions.push(self.switch(next, b, target, false));
            } else {
                self.buckets[b].steps_on_arm += 1;
            }
        }
        decisions
    }

    /// Applies decisions computed on another rank (the follower half of
    /// the broadcast protocol). Also records them in the local trace, so
    /// follower traces match rank 0's.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::Protocol`] when a decision references a
    /// bucket or arm out of range.
    pub fn apply(&mut self, decisions: &[Decision]) -> Result<()> {
        self.step += 1;
        for b in 0..self.buckets.len() {
            self.buckets[b].steps_on_arm += 1;
        }
        for d in decisions {
            let bucket = d.bucket as usize;
            let to = d.to as usize;
            if bucket >= self.buckets.len() || to >= self.cfg.arms.len() {
                return Err(CompressError::Protocol(format!(
                    "broadcast decision out of range: bucket {} arm {}",
                    d.bucket, d.to
                )));
            }
            self.buckets[bucket].arm = to;
            self.buckets[bucket].steps_on_arm = 0;
            self.trace.push(d.clone());
        }
        Ok(())
    }

    /// Applies the follower protocol for the initial assignment (no step
    /// advance — pairs with [`tune_initial`](Controller::tune_initial)).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::Protocol`] on out-of-range decisions.
    pub fn apply_initial(&mut self, decisions: &[Decision]) -> Result<()> {
        for d in decisions {
            let bucket = d.bucket as usize;
            let to = d.to as usize;
            if bucket >= self.buckets.len() || to >= self.cfg.arms.len() {
                return Err(CompressError::Protocol(format!(
                    "broadcast decision out of range: bucket {} arm {}",
                    d.bucket, d.to
                )));
            }
            self.buckets[bucket].arm = to;
            self.buckets[bucket].steps_on_arm = 0;
            self.trace.push(d.clone());
        }
        Ok(())
    }

    /// The arm the objective would assign `bucket` right now, ignoring
    /// hysteresis and dwell.
    fn policy_target(&self, bucket: usize) -> usize {
        let fastest = (0..self.cfg.arms.len())
            .min_by(|&a, &b| {
                self.estimate(bucket, a)
                    .total_cmp(&self.estimate(bucket, b))
            })
            .unwrap_or(0);
        match self.cfg.objective {
            Objective::FastestIteration => fastest,
            Objective::Budget { per_step_s } => {
                let share = per_step_s * self.elems[bucket] as f64 / self.total_elems as f64;
                (0..self.cfg.arms.len())
                    .find(|&a| self.estimate(bucket, a) <= share)
                    .unwrap_or(fastest)
            }
        }
    }

    /// Hysteresis gate: is moving `bucket` from `cur` to `target` worth
    /// it *now*?
    fn switch_justified(&self, bucket: usize, cur: usize, target: usize) -> bool {
        let est_cur = self.estimate(bucket, cur);
        let est_target = self.estimate(bucket, target);
        match self.cfg.objective {
            Objective::FastestIteration => est_target < (1.0 - self.cfg.hysteresis) * est_cur,
            Objective::Budget { per_step_s } => {
                let share = per_step_s * self.elems[bucket] as f64 / self.total_elems as f64;
                // Tighten whenever the current arm blows the share; relax
                // only when the lighter arm fits with hysteresis margin.
                est_cur > share || est_target <= (1.0 - self.cfg.hysteresis) * share
            }
        }
    }

    fn switch(&mut self, step: u32, bucket: usize, to: usize, probe: bool) -> Decision {
        let from = self.buckets[bucket].arm;
        // `bucket` indexes self.buckets and `from`/`to` index the arm
        // ladder — both collections are bounded far below u32::MAX by
        // construction, so these narrowings cannot truncate.
        let d = Decision {
            step,
            bucket: bucket as u32,
            from: from as u32,
            to: to as u32,
            est_from_s: self.estimate(bucket, from),
            est_to_s: self.estimate(bucket, to),
            probe,
        };
        self.buckets[bucket].arm = to;
        self.buckets[bucket].steps_on_arm = 0;
        self.trace.push(d.clone());
        d
    }

    fn apply_script(&mut self, step: u32) -> Vec<Decision> {
        let Some(script) = &self.script else {
            return Vec::new();
        };
        let due: Vec<Decision> = script.iter().filter(|d| d.step == step).cloned().collect();
        for b in 0..self.buckets.len() {
            self.buckets[b].steps_on_arm += 1;
        }
        for d in &due {
            self.buckets[d.bucket as usize].arm = d.to as usize;
            self.buckets[d.bucket as usize].steps_on_arm = 0;
            self.trace.push(d.clone());
        }
        due
    }
}

/// Models the communication rounds of `method` on a bucket of `shape`.
fn model_rounds(
    method: &MethodConfig,
    compressor: &dyn crate::Compressor,
    props: &crate::Properties,
    shape: &Shape,
) -> Vec<RoundCost> {
    if !props.all_reducible {
        // Non-summable payloads are serialized and all-gathered whole.
        return vec![RoundCost {
            bytes: compressor.compressed_bytes(shape),
            kind: CollectiveKind::Gather,
        }];
    }
    match method {
        // PowerSGD rings P then Q, paying the latency term twice
        // (Properties::rounds == 2).
        MethodConfig::PowerSgd { rank } => {
            let (m, n) = shape.matricized();
            let r = (*rank).min(m).min(n).max(1);
            vec![
                RoundCost {
                    bytes: m * r * 4,
                    kind: CollectiveKind::Ring,
                },
                RoundCost {
                    bytes: n * r * 4,
                    kind: CollectiveKind::Ring,
                },
            ]
        }
        // The data plane's mean-summable path decodes Half payloads to
        // f32 *before* the ring (Payload::add_assign needs f32), so FP16
        // buys encode-side quantization but zero wire bytes there — the
        // model must charge the full f32 image or the controller would
        // believe in a 2x win that the plane never delivers.
        MethodConfig::Fp16 => vec![RoundCost {
            bytes: shape.numel() * 4,
            kind: CollectiveKind::Ring,
        }],
        // Generic all-reducible scheme: analytic bytes, split evenly
        // across its rounds (every such scheme in the registry has one).
        _ => {
            let rounds = props.rounds.max(1);
            let round = RoundCost {
                bytes: compressor.compressed_bytes(shape) / rounds,
                kind: CollectiveKind::Ring,
            };
            vec![round; rounds]
        }
    }
}

/// Inverts Equation 1 (or the all-gather formula) on an observed exchange
/// to recover the effective link bandwidth. Returns `None` when the
/// observation mixes collective classes, moved no bytes, or the timing is
/// swamped by the latency term.
fn invert_bandwidth(link: &NetworkModel, world: usize, obs: &Observation) -> Option<f64> {
    if world <= 1 {
        return None;
    }
    let pf = world as f64;
    let hops = pf - 1.0;
    match (obs.ring_rounds, obs.gather_rounds) {
        (r, 0) if r > 0 && obs.ring_bytes > 0 => {
            let t_bw = obs.comm_s - f64::from(r) * link.alpha * hops;
            if t_bw <= 1e-9 {
                return None;
            }
            Some(2.0 * obs.ring_bytes as f64 * hops / (pf * t_bw))
        }
        (0, g) if g > 0 && obs.gather_bytes > 0 => {
            let t_bw = obs.comm_s - f64::from(g) * link.alpha * hops;
            if t_bw <= 1e-9 {
                return None;
            }
            let bw_eff = obs.gather_bytes as f64 * hops / t_bw;
            Some(bw_eff * (1.0 + link.incast * pf.ln()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
        ]
    }

    fn shapes() -> Vec<Shape> {
        vec![Shape::new(vec![256, 256]), Shape::new(vec![128, 512])]
    }

    fn link_gbps(gbps: f64) -> NetworkModel {
        NetworkModel::from_gbps(15e-6, gbps)
    }

    #[test]
    fn fast_network_prefers_syncsgd() {
        let cfg = AdaptiveConfig::new(arms()).unwrap().link(link_gbps(10.0));
        let mut c = Controller::new(cfg, &shapes(), 4).unwrap();
        let initial = c.tune_initial();
        assert!(initial.is_empty(), "syncSGD is already arm 0: {initial:?}");
        for b in 0..c.num_buckets() {
            assert_eq!(c.arm_of(b), 0);
            let est0 = c.estimate(b, 0);
            assert!(
                est0 < c.estimate(b, 1),
                "syncSGD must beat PowerSGD at 10 Gbps"
            );
            assert!(
                est0 < c.estimate(b, 2),
                "syncSGD must beat Top-K at 10 Gbps"
            );
        }
    }

    #[test]
    fn slow_network_switches_to_powersgd_at_init() {
        let cfg = AdaptiveConfig::new(arms()).unwrap().link(link_gbps(0.05));
        let mut c = Controller::new(cfg, &shapes(), 4).unwrap();
        let initial = c.tune_initial();
        assert_eq!(initial.len(), 2, "both buckets re-assigned");
        for d in &initial {
            assert_eq!(d.step, 0);
            assert_eq!(d.from, 0);
            assert_eq!(d.to, 1, "PowerSGD rank 4 wins at 50 Mbps");
            assert!(d.est_to_s < d.est_from_s);
            assert!(!d.probe);
        }
        assert_eq!(c.trace().len(), 2);
        // Steady state: no further switches, and the trace is stable.
        for _ in 0..5 {
            assert!(c.end_step().is_empty());
        }
        assert_eq!(c.trace().len(), 2);
    }

    #[test]
    fn modelled_traces_are_bit_identical_across_runs() {
        let build = || {
            let cfg = AdaptiveConfig::new(arms()).unwrap().link(link_gbps(0.5));
            let mut c = Controller::new(cfg, &shapes(), 4).unwrap();
            let mut all = c.tune_initial();
            for _ in 0..10 {
                all.extend(c.end_step());
            }
            (all, c.step_estimate())
        };
        let (a, ea) = build();
        let (b, eb) = build();
        assert_eq!(a, b);
        assert_eq!(ea.to_bits(), eb.to_bits());
    }

    #[test]
    fn hysteresis_blocks_marginal_improvement() {
        // Measured inputs with no warmup/dwell so only the hysteresis
        // margin gates the switch. World size 1 zeroes the comm term, so
        // the estimates are exactly the encode/decode EWMAs.
        let cfg = AdaptiveConfig::new(vec![MethodConfig::SyncSgd, MethodConfig::Fp16])
            .unwrap()
            .inputs(DecisionInputs::Measured)
            .warmup_steps(0)
            .dwell_steps(0)
            .hysteresis(0.15);
        let shapes = vec![Shape::new(vec![1024])];
        let mut c = Controller::new(cfg, &shapes, 1).unwrap();
        let est0 = c.estimate(0, 0);
        let observe = |c: &mut Controller, arm: usize, encdec: f64| {
            c.observe(Observation {
                bucket: 0,
                arm,
                encode_s: encdec,
                decode_s: 0.0,
                comm_s: 0.0,
                ring_bytes: 0,
                ring_rounds: 0,
                gather_bytes: 0,
                gather_rounds: 0,
            });
        };
        // Arm 1 observed only 5% faster: within the 15% band, no switch.
        observe(&mut c, 1, 0.95 * est0);
        assert!(c.end_step().is_empty(), "5% is inside the 15% band");
        // Arm 1 observed at ~zero cost: EWMA drops well below the band.
        observe(&mut c, 1, 0.0);
        let decisions = c.end_step();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, 1);
        assert!(decisions[0].est_to_s < (1.0 - 0.15) * decisions[0].est_from_s);
    }

    #[test]
    fn dwell_defers_switch_until_enough_steps_on_arm() {
        let cfg = AdaptiveConfig::new(vec![MethodConfig::SyncSgd, MethodConfig::Fp16])
            .unwrap()
            .inputs(DecisionInputs::Measured)
            .warmup_steps(0)
            .dwell_steps(3)
            .hysteresis(0.1)
            .link(link_gbps(10.0));
        let shapes = vec![Shape::new(vec![1024])];
        let mut c = Controller::new(cfg, &shapes, 2).unwrap();
        // Arm 0 observed catastrophically slow from the start.
        c.observe(Observation {
            bucket: 0,
            arm: 0,
            encode_s: 1.0,
            decode_s: 0.0,
            comm_s: 0.0,
            ring_bytes: 0,
            ring_rounds: 0,
            gather_bytes: 0,
            gather_rounds: 0,
        });
        assert!(c.end_step().is_empty(), "dwell 3: step 1 blocked");
        assert!(c.end_step().is_empty(), "dwell 3: step 2 blocked");
        assert!(c.end_step().is_empty(), "dwell 3: step 3 blocked");
        assert_eq!(c.end_step().len(), 1, "dwell satisfied on step 4");
    }

    #[test]
    fn warmup_probes_round_robin_deterministically() {
        let build = || {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .inputs(DecisionInputs::Measured)
                .warmup_steps(3)
                .link(link_gbps(1.0));
            let mut c = Controller::new(cfg, &shapes(), 4).unwrap();
            let mut all = c.tune_initial();
            for _ in 0..3 {
                all.extend(c.end_step());
            }
            all
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.iter().all(|d| d.probe), "warmup decisions are probes");
        // Bucket 0 probes arm (step + 0) % 3 at steps 1..=3.
        let bucket0: Vec<u32> = a.iter().filter(|d| d.bucket == 0).map(|d| d.to).collect();
        assert_eq!(bucket0, vec![1, 2, 0]);
    }

    #[test]
    fn budget_objective_takes_lightest_arm_that_fits() {
        // One bucket; generous budget: syncSGD fits, stays (lowest index).
        let shapes = vec![Shape::new(vec![256, 256])];
        let mk = |per_step_s: f64| {
            AdaptiveConfig::new(arms())
                .unwrap()
                .objective(Objective::Budget { per_step_s })
                .link(link_gbps(0.5))
        };
        let mut generous = Controller::new(mk(1.0), &shapes, 4).unwrap();
        assert!(generous.tune_initial().is_empty());
        assert_eq!(generous.arm_of(0), 0);
        // Tight budget: syncSGD blows it, PowerSGD fits.
        let mut tight = Controller::new(mk(1e-3), &shapes, 4).unwrap();
        let d = tight.tune_initial();
        assert_eq!(d.len(), 1);
        assert_eq!(tight.arm_of(0), 1);
        // Impossible budget: falls back to the fastest arm overall.
        let mut impossible = Controller::new(mk(1e-12), &shapes, 4).unwrap();
        let _ = impossible.tune_initial();
        let fastest = (0..3)
            .min_by(|&a, &b| {
                impossible
                    .estimate(0, a)
                    .total_cmp(&impossible.estimate(0, b))
            })
            .unwrap();
        assert_eq!(impossible.arm_of(0), fastest);
    }

    #[test]
    fn decision_wire_round_trips_and_rejects_truncation() {
        let ds = vec![
            Decision {
                step: 3,
                bucket: 1,
                from: 0,
                to: 2,
                est_from_s: 0.125,
                est_to_s: 0.0625,
                probe: false,
            },
            Decision {
                step: 4,
                bucket: 0,
                from: 2,
                to: 1,
                est_from_s: 1e-9,
                est_to_s: f64::MIN_POSITIVE,
                probe: true,
            },
        ];
        let wire = encode_decisions(&ds).unwrap();
        assert_eq!(decode_decisions(&wire).unwrap(), ds);
        assert_eq!(
            decode_decisions(&encode_decisions(&[]).unwrap()).unwrap(),
            vec![]
        );
        assert!(decode_decisions(&wire[..wire.len() - 1]).is_err());
        assert!(decode_decisions(&[1, 2]).is_err());
    }

    #[test]
    fn scripted_replay_reproduces_live_assignments() {
        let mk_cfg = || AdaptiveConfig::new(arms()).unwrap().link(link_gbps(0.05));
        let mut live = Controller::new(mk_cfg(), &shapes(), 4).unwrap();
        let mut live_assignments = Vec::new();
        let _ = live.tune_initial();
        live_assignments.push((live.arm_of(0), live.arm_of(1)));
        for _ in 0..4 {
            let _ = live.end_step();
            live_assignments.push((live.arm_of(0), live.arm_of(1)));
        }
        let script = live.trace().to_vec();

        let mut replay = Controller::scripted(mk_cfg(), &shapes(), 4, script).unwrap();
        let mut replay_assignments = Vec::new();
        let _ = replay.tune_initial();
        replay_assignments.push((replay.arm_of(0), replay.arm_of(1)));
        for _ in 0..4 {
            let _ = replay.end_step();
            replay_assignments.push((replay.arm_of(0), replay.arm_of(1)));
        }
        assert_eq!(live_assignments, replay_assignments);
        assert_eq!(live.trace(), replay.trace());
    }

    #[test]
    fn scripted_rejects_out_of_range_entries() {
        let cfg = AdaptiveConfig::new(arms()).unwrap();
        let bad = Decision {
            step: 0,
            bucket: 99,
            from: 0,
            to: 1,
            est_from_s: 0.0,
            est_to_s: 0.0,
            probe: false,
        };
        assert!(Controller::scripted(cfg, &shapes(), 4, vec![bad]).is_err());
    }

    #[test]
    fn follower_apply_tracks_leader_state() {
        let mk_cfg = || AdaptiveConfig::new(arms()).unwrap().link(link_gbps(0.05));
        let mut leader = Controller::new(mk_cfg(), &shapes(), 4).unwrap();
        let mut follower = Controller::new(mk_cfg(), &shapes(), 4).unwrap();
        let init = leader.tune_initial();
        follower
            .apply_initial(&decode_decisions(&encode_decisions(&init).unwrap()).unwrap())
            .unwrap();
        for _ in 0..3 {
            let ds = leader.end_step();
            follower
                .apply(&decode_decisions(&encode_decisions(&ds).unwrap()).unwrap())
                .unwrap();
        }
        for b in 0..leader.num_buckets() {
            assert_eq!(leader.arm_of(b), follower.arm_of(b));
        }
        assert_eq!(leader.trace(), follower.trace());
        // A decision for a nonexistent bucket is a protocol error.
        let bogus = Decision {
            step: 9,
            bucket: 42,
            from: 0,
            to: 0,
            est_from_s: 0.0,
            est_to_s: 0.0,
            probe: false,
        };
        assert!(follower.apply(&[bogus]).is_err());
    }

    #[test]
    fn bandwidth_inversion_recovers_configured_link() {
        let link = link_gbps(1.0);
        let cfg = AdaptiveConfig::new(arms())
            .unwrap()
            .inputs(DecisionInputs::Measured)
            .link(link);
        let mut c = Controller::new(cfg, &shapes(), 4).unwrap();
        // Synthesize a ring observation whose time is exactly Equation 1.
        let bytes = 1_000_000u64;
        let t = link.ring_all_reduce(bytes as usize, 4);
        c.observe(Observation {
            bucket: 0,
            arm: 0,
            encode_s: 0.0,
            decode_s: 0.0,
            comm_s: t,
            ring_bytes: bytes,
            ring_rounds: 1,
            gather_bytes: 0,
            gather_rounds: 0,
        });
        let bw = c.bandwidth_estimate().unwrap();
        assert!(
            (bw - link.bandwidth).abs() / link.bandwidth < 1e-9,
            "inverted {bw}, configured {}",
            link.bandwidth
        );
        // And a gather observation on a second controller.
        let mut cg = Controller::new(
            AdaptiveConfig::new(arms())
                .unwrap()
                .inputs(DecisionInputs::Measured)
                .link(link),
            &shapes(),
            4,
        )
        .unwrap();
        let tg = link.all_gather(bytes as usize, 4);
        cg.observe(Observation {
            bucket: 0,
            arm: 2,
            encode_s: 0.0,
            decode_s: 0.0,
            comm_s: tg,
            ring_bytes: 0,
            ring_rounds: 0,
            gather_bytes: bytes,
            gather_rounds: 1,
        });
        let bwg = cg.bandwidth_estimate().unwrap();
        assert!((bwg - link.bandwidth).abs() / link.bandwidth < 1e-9);
        // Mixed-class observations are skipped.
        let before = cg.bandwidth_estimate();
        cg.observe(Observation {
            bucket: 0,
            arm: 0,
            encode_s: 0.0,
            decode_s: 0.0,
            comm_s: 1.0,
            ring_bytes: 10,
            ring_rounds: 1,
            gather_bytes: 10,
            gather_rounds: 1,
        });
        assert_eq!(cg.bandwidth_estimate(), before);
    }

    #[test]
    fn fp16_is_charged_full_f32_wire_bytes() {
        // The mean-summable path rings the f32 image of Half payloads, so
        // the model must not credit FP16 with a wire win.
        let cfg = AdaptiveConfig::new(vec![MethodConfig::SyncSgd, MethodConfig::Fp16])
            .unwrap()
            .link(link_gbps(0.05));
        let c = Controller::new(cfg, &[Shape::new(vec![4096])], 4).unwrap();
        // Same comm cost; FP16 only adds encode overhead.
        assert!(c.estimate(0, 1) > c.estimate(0, 0));
    }

    #[test]
    fn powersgd_pays_the_latency_term_twice() {
        // On a latency-dominated link (tiny bucket, high alpha) PowerSGD's
        // two rounds must cost ~2x the one-round alpha term.
        let link = NetworkModel::new(1e-3, 1e12);
        let cfg = AdaptiveConfig::new(arms()).unwrap().link(link);
        let c = Controller::new(cfg, &[Shape::new(vec![8, 8])], 4).unwrap();
        let one_round_alpha = link.ring_all_reduce(0, 4);
        let ps = c.estimate(0, 1);
        assert!(
            ps > 1.9 * one_round_alpha && ps < 2.5 * one_round_alpha,
            "PowerSGD alpha cost {ps} vs single-round {one_round_alpha}"
        );
    }

    #[test]
    fn config_validation() {
        assert!(AdaptiveConfig::new(vec![]).is_err());
        let cfg = AdaptiveConfig::new(arms()).unwrap();
        assert!(Controller::new(cfg.clone(), &[], 4).is_err());
        assert!(Controller::new(cfg, &shapes(), 0).is_err());
    }
}
