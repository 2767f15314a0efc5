//! Pass 4 — deterministic structured wire fuzz.
//!
//! A seed-deterministic SplitMix64 generator (no new dependencies) drives
//! structured mutations against the two parsers that consume bytes from
//! the network:
//!
//! * `gcs_cluster::wire` — random and bit-flipped 20-byte headers, plus
//!   `read_frame` over truncated/mutated streams;
//! * `gcs_compress::Payload::from_bytes` — a corpus built by encoding a
//!   real gradient with **all 15 registry methods**, then truncated,
//!   extended, stomped and bit-flipped;
//! * `gcs_compress::Payload::from_bytes_many` — back-to-back
//!   concatenations of several methods' payloads (what the inline lane's
//!   fused gather carries), intact, truncated, with trailing bytes, or
//!   parsed as the wrong count.
//!
//! The contract under test: every mutation yields a typed
//! [`ClusterError::Wire`]/[`ClusterError::Io`] or
//! [`CompressError::Wire`]/[`CompressError::Protocol`] error (or parses
//! cleanly) — **never a panic, never an untyped error**. Each violation
//! is a [`FuzzFinding`]; per-target corpus statistics land in
//! `results/analyze_report.json` so coverage drift is reviewable.
//!
//! `run_fuzz_negative` adds a deliberately buggy parser with an unchecked
//! index — the seeded negative behind `gradcomp analyze --inject
//! parser-panic` proving the pass actually detects untyped panics.

use gcs_cluster::wire::{read_frame, FrameKind, WireHeader, HEADER_LEN};
use gcs_cluster::ClusterError;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor, Payload};
use gcs_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: tiny, seed-deterministic, and good enough for structured
/// mutation; vendored inline so the pass adds no dependency.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One contract violation found by the fuzzer.
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    pub target: String,
    /// Iteration index within the target (reproducible from the seed).
    pub case: usize,
    pub detail: String,
}

/// Per-target corpus statistics.
#[derive(Clone, Debug)]
pub struct FuzzTargetStats {
    pub target: String,
    pub cases: usize,
    /// Inputs the parser accepted.
    pub accepted: usize,
    /// Inputs rejected with the expected typed error.
    pub rejected: usize,
}

/// Report for the whole pass.
#[derive(Clone, Debug, Default)]
pub struct FuzzPassReport {
    pub seed: u64,
    /// Registry methods contributing valid payloads to the corpus.
    pub corpus_methods: usize,
    pub stats: Vec<FuzzTargetStats>,
    pub findings: Vec<FuzzFinding>,
}

impl FuzzPassReport {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Cap findings per target so one systematic bug doesn't flood the report.
const MAX_FINDINGS_PER_TARGET: usize = 5;

/// All 15 registry methods, mirroring the protocol property suite.
fn corpus_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::TopK { ratio: 0.3 },
        MethodConfig::SignSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TernGrad,
        MethodConfig::RandomK { ratio: 0.3 },
        MethodConfig::Atomo { rank: 2 },
        MethodConfig::OneBit,
        MethodConfig::Sketch { block: 3 },
        MethodConfig::Dgc { ratio: 0.2 },
        MethodConfig::Variance { kappa: 1.0 },
        MethodConfig::Natural,
    ]
}

enum Outcome {
    Accepted,
    Rejected,
    Violation(String),
}

/// Run `f`, translating a panic into a violation and classifying the
/// error through `classify` (`None` = expected typed rejection).
fn probe<R>(f: impl FnOnce() -> Result<R, String> + std::panic::UnwindSafe) -> Outcome {
    match catch_unwind(f) {
        Ok(Ok(_)) => Outcome::Accepted,
        Ok(Err(detail)) if detail.is_empty() => Outcome::Rejected,
        Ok(Err(detail)) => Outcome::Violation(detail),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Outcome::Violation(format!("PANIC instead of typed error: {msg}"))
        }
    }
}

/// Classify a cluster-side parse result: Ok or a typed `Wire`/`Io` error
/// are within contract, anything else is a violation string.
fn classify_cluster<R>(r: gcs_cluster::Result<R>) -> Result<R, String> {
    match r {
        Ok(v) => Ok(v),
        Err(ClusterError::Wire(_)) | Err(ClusterError::Io(_)) => Err(String::new()),
        Err(other) => Err(format!(
            "untyped error variant for malformed input: {other:?}"
        )),
    }
}

/// Classify a compress-side parse result: Ok or a typed
/// `Wire`/`Protocol` error are within contract.
fn classify_compress<R>(r: gcs_compress::Result<R>) -> Result<R, String> {
    match r {
        Ok(v) => Ok(v),
        Err(CompressError::Wire(_)) | Err(CompressError::Protocol(_)) => Err(String::new()),
        Err(other) => Err(format!(
            "untyped error variant for malformed input: {other:?}"
        )),
    }
}

struct TargetRunner {
    stats: FuzzTargetStats,
    findings: Vec<FuzzFinding>,
}

impl TargetRunner {
    fn new(target: &str) -> Self {
        TargetRunner {
            stats: FuzzTargetStats {
                target: target.into(),
                cases: 0,
                accepted: 0,
                rejected: 0,
            },
            findings: Vec::new(),
        }
    }

    fn record(&mut self, case: usize, outcome: Outcome) {
        self.stats.cases += 1;
        match outcome {
            Outcome::Accepted => self.stats.accepted += 1,
            Outcome::Rejected => self.stats.rejected += 1,
            Outcome::Violation(detail) => {
                if self.findings.len() < MAX_FINDINGS_PER_TARGET {
                    self.findings.push(FuzzFinding {
                        target: self.stats.target.clone(),
                        case,
                        detail,
                    });
                }
            }
        }
    }

    fn finish(self, report: &mut FuzzPassReport) {
        report.stats.push(self.stats);
        report.findings.extend(self.findings);
    }
}

fn valid_header_bytes(rng: &mut SplitMix64) -> [u8; HEADER_LEN] {
    let kinds = [
        FrameKind::Data,
        FrameKind::Hello,
        FrameKind::Dead,
        FrameKind::Control,
    ];
    let hdr = WireHeader::new(
        kinds[rng.below(4)],
        rng.below(16),
        rng.below(16),
        rng.below(16) as u16,
        std::time::Duration::from_micros(rng.below(1000) as u64),
        rng.below(256),
    )
    .expect("small header fields always encode");
    hdr.encode()
}

fn fuzz_header_random(rng: &mut SplitMix64, iters: usize, report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("wire-header-random");
    for case in 0..iters {
        let mut raw = [0u8; HEADER_LEN];
        for b in raw.iter_mut() {
            *b = rng.byte();
        }
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                classify_cluster(WireHeader::decode(&raw))
            })),
        );
    }
    t.finish(report);
}

fn fuzz_header_mutated(rng: &mut SplitMix64, iters: usize, report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("wire-header-mutated");
    for case in 0..iters {
        let mut raw = valid_header_bytes(rng);
        for _ in 0..1 + rng.below(3) {
            raw[rng.below(HEADER_LEN)] = rng.byte();
        }
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                classify_cluster(WireHeader::decode(&raw))
            })),
        );
    }
    t.finish(report);
}

fn fuzz_frame_stream(rng: &mut SplitMix64, iters: usize, report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("wire-frame-stream");
    for case in 0..iters {
        let mut raw = valid_header_bytes(rng);
        // Mutate the non-length fields freely, then pin the length field
        // to a small value so a "valid but huge" header can't drive a
        // gigabyte allocation inside the fuzz loop (oversize length
        // fields are pinned separately by the decode targets and the
        // wire edge-frame tests).
        for _ in 0..rng.below(4) {
            raw[rng.below(16)] = rng.byte();
        }
        let claimed = rng.below(64) as u32;
        raw[16..20].copy_from_slice(&claimed.to_le_bytes());
        // Supply anywhere from zero to more-than-claimed payload bytes.
        let supplied = rng.below(96);
        let mut stream = raw.to_vec();
        for _ in 0..supplied {
            stream.push(rng.byte());
        }
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                classify_cluster(read_frame(&mut stream.as_slice()))
            })),
        );
    }
    t.finish(report);
}

/// Encode one small gradient with every registry method; these bytes are
/// the structured seed corpus for the payload targets.
fn build_corpus() -> Vec<(String, Vec<u8>)> {
    let methods = corpus_methods();
    let mut corpus = Vec::new();
    for (i, m) in methods.iter().enumerate() {
        let grad = Tensor::randn([8, 8], 0xC0FFEE + i as u64);
        let mut comp = m.build().expect("registry method builds");
        let payload = comp
            .encode(0, &grad)
            .expect("encode succeeds on a real gradient");
        corpus.push((format!("{m:?}"), payload.to_bytes()));
    }
    corpus
}

fn fuzz_payload_corpus(corpus: &[(String, Vec<u8>)], report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("payload-corpus-roundtrip");
    for (case, (method, bytes)) in corpus.iter().enumerate() {
        let outcome = probe(AssertUnwindSafe(|| {
            Payload::from_bytes(bytes).map_err(|e| format!("valid {method} payload rejected: {e}"))
        }));
        t.record(case, outcome);
    }
    t.finish(report);
}

fn fuzz_payload_mutated(
    rng: &mut SplitMix64,
    corpus: &[(String, Vec<u8>)],
    iters: usize,
    report: &mut FuzzPassReport,
) {
    let mut t = TargetRunner::new("payload-mutated");
    for case in 0..iters {
        let (_, base) = &corpus[rng.below(corpus.len())];
        let mut bytes = base.clone();
        match rng.below(4) {
            // Truncate at a seeded point.
            0 => bytes.truncate(rng.below(bytes.len() + 1)),
            // Extend with junk (trailing bytes must be rejected).
            1 => {
                for _ in 0..1 + rng.below(16) {
                    bytes.push(rng.byte());
                }
            }
            // Flip a few bytes anywhere (tag, lengths, data).
            2 => {
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            // Stomp a 4-byte window with 0xFF: turns internal length
            // fields into huge values the checked reader must refuse.
            _ => {
                if bytes.len() >= 4 {
                    let at = rng.below(bytes.len() - 3);
                    bytes[at..at + 4].copy_from_slice(&[0xFF; 4]);
                }
            }
        }
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                classify_compress(Payload::from_bytes(&bytes))
            })),
        );
    }
    t.finish(report);
}

fn fuzz_payload_random(rng: &mut SplitMix64, iters: usize, report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("payload-random");
    for case in 0..iters {
        let len = rng.below(96);
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push(rng.byte());
        }
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                classify_compress(Payload::from_bytes(&bytes))
            })),
        );
    }
    t.finish(report);
}

/// Concatenations of one to four corpus payloads parsed with
/// `Payload::from_bytes_many`. An intact one must parse back to exactly
/// its payloads; a truncated one, one with trailing junk, or one parsed
/// as one payload too few or too many must fail typed — accepting it is a
/// violation too.
fn fuzz_payload_many(
    rng: &mut SplitMix64,
    corpus: &[(String, Vec<u8>)],
    iters: usize,
    report: &mut FuzzPassReport,
) {
    let mut t = TargetRunner::new("payload-many");
    for case in 0..iters {
        let k = 1 + rng.below(4);
        let mut bytes = Vec::new();
        for _ in 0..k {
            bytes.extend_from_slice(&corpus[rng.below(corpus.len())].1);
        }
        let intact = bytes.clone();
        let mut n = k;
        match rng.below(4) {
            0 => {}
            1 => bytes.truncate(rng.below(bytes.len())),
            2 => {
                for _ in 0..1 + rng.below(16) {
                    bytes.push(rng.byte());
                }
            }
            _ => n = if rng.below(2) == 0 { k - 1 } else { k + 1 },
        }
        let well_formed = n == k && bytes == intact;
        t.record(
            case,
            probe(AssertUnwindSafe(|| {
                let parsed = classify_compress(Payload::from_bytes_many(&bytes, n))?;
                let mut rewritten = Vec::new();
                for p in &parsed {
                    p.write_bytes(&mut rewritten);
                }
                match (well_formed, rewritten == bytes) {
                    (true, true) => Ok(()),
                    (true, false) => Err("concatenation did not parse back to its bytes".into()),
                    (false, _) => Err(format!("malformed concatenation of {k} accepted as {n}")),
                }
            })),
        );
    }
    t.finish(report);
}

/// Deliberately buggy "parser" with an unchecked index: the seeded
/// negative proving the pass detects untyped panics.
fn buggy_probe_parse(bytes: &[u8]) -> Result<u8, String> {
    if bytes.is_empty() {
        return Err(String::new());
    }
    // Unchecked index: panics whenever bytes[0] points past the end.
    Ok(bytes[bytes[0] as usize])
}

fn fuzz_buggy_parser(rng: &mut SplitMix64, iters: usize, report: &mut FuzzPassReport) {
    let mut t = TargetRunner::new("seeded-buggy-parser");
    for case in 0..iters.max(64) {
        let len = 1 + rng.below(8);
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push(rng.byte());
        }
        t.record(case, probe(AssertUnwindSafe(|| buggy_probe_parse(&bytes))));
    }
    t.finish(report);
}

/// Runs `body` with panic output silenced: the fuzzer *expects* to drive
/// parsers toward panics and converts them into findings, so the default
/// stderr backtrace spam would drown the report.
fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = body();
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev);
    out
}

fn run_targets(seed: u64, iters: usize, negative: bool) -> FuzzPassReport {
    let mut report = FuzzPassReport {
        seed,
        ..FuzzPassReport::default()
    };
    let mut rng = SplitMix64::new(seed);
    with_quiet_panics(|| {
        let corpus = build_corpus();
        report.corpus_methods = corpus.len();
        fuzz_header_random(&mut rng, iters, &mut report);
        fuzz_header_mutated(&mut rng, iters, &mut report);
        fuzz_frame_stream(&mut rng, iters, &mut report);
        fuzz_payload_corpus(&corpus, &mut report);
        fuzz_payload_mutated(&mut rng, &corpus, iters, &mut report);
        fuzz_payload_random(&mut rng, iters, &mut report);
        fuzz_payload_many(&mut rng, &corpus, iters, &mut report);
        if negative {
            fuzz_buggy_parser(&mut rng, iters.min(256), &mut report);
        }
    });
    report
}

/// Pass 4 entry point: fuzz the real parsers at a fixed seed/budget.
pub fn run_fuzz_pass(seed: u64, iters: usize) -> FuzzPassReport {
    run_targets(seed, iters, false)
}

/// The seeded negative: identical to [`run_fuzz_pass`] plus the buggy
/// unchecked-index parser, which must produce panic findings.
pub fn run_fuzz_negative(seed: u64, iters: usize) -> FuzzPassReport {
    run_targets(seed, iters, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5EED_CAFE;

    #[test]
    fn real_parsers_survive_the_fuzz_clean() {
        let report = run_fuzz_pass(SEED, 600);
        assert!(
            report.ok(),
            "parsers must never panic or mistype: {:#?}",
            report.findings
        );
        assert_eq!(report.corpus_methods, 15);
        // Every target ran and actually rejected things (i.e. the
        // mutations are reaching the validation paths).
        assert_eq!(report.stats.len(), 7);
        for s in &report.stats {
            assert!(s.cases > 0, "{} ran no cases", s.target);
        }
        let many = report
            .stats
            .iter()
            .find(|s| s.target == "payload-many")
            .expect("multi-payload target present");
        assert!(many.accepted > 0 && many.rejected > 0, "{many:?}");
        let rejected: usize = report.stats.iter().map(|s| s.rejected).sum();
        assert!(
            rejected > 500,
            "mutations barely rejected anything: {:?}",
            report.stats
        );
    }

    #[test]
    fn fuzz_is_seed_deterministic() {
        let a = run_fuzz_pass(SEED, 200);
        let b = run_fuzz_pass(SEED, 200);
        for (x, y) in a.stats.iter().zip(&b.stats) {
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.rejected, y.rejected);
        }
    }

    #[test]
    fn different_seeds_explore_different_corpora() {
        let a = run_fuzz_pass(1, 400);
        let b = run_fuzz_pass(2, 400);
        assert!(
            a.stats
                .iter()
                .zip(&b.stats)
                .any(|(x, y)| x.accepted != y.accepted),
            "two seeds produced identical statistics across all targets"
        );
    }

    #[test]
    fn buggy_parser_negative_is_caught() {
        let report = run_fuzz_negative(SEED, 200);
        assert!(!report.ok());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.target == "seeded-buggy-parser" && f.detail.contains("PANIC")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn valid_corpus_parses_for_all_15_methods() {
        let report = run_fuzz_pass(SEED, 16);
        let corpus = report
            .stats
            .iter()
            .find(|s| s.target == "payload-corpus-roundtrip")
            .expect("corpus target present");
        assert_eq!(corpus.cases, 15);
        assert_eq!(corpus.accepted, 15);
    }
}
