//! Structured run telemetry for the ColumnSGD reproduction.
//!
//! The paper's central claims are *accounting* claims: per-iteration time
//! decomposes into compute vs. communication, and ColumnSGD wins because it
//! ships `B × width` statistics instead of gradients or models (PAPER.md
//! §V). Before this crate those numbers were scattered — the engine
//! hand-rolled phase timers, the [`Router`] metered bytes privately,
//! recovery events lived on `TrainOutcome`, and the bench reports re-derived
//! everything. This crate is the single queryable record of what happened
//! in a run:
//!
//! * [`Recorder`] — a cheap cloneable handle threaded through every layer.
//!   The default [`Recorder::disabled`] is a no-op (one `Option` check per
//!   call site), so the hot path stays at PR-2 speed; the superstep bench
//!   enforces < 2% overhead with telemetry off.
//! * Typed events — [`SuperstepSpan`] (per-phase simulated + measured
//!   time with per-worker breakdown), [`CommRecord`] (every metered
//!   message: kind, endpoints, wire bytes, modeled latency, chaos fault),
//!   [`KernelRecord`] (compute-kernel shape per iteration), and
//!   [`FaultRecord`] (detection-based recovery and terminal errors,
//!   unifying `RecoveryEvent` / `TrainError`).
//! * [`Summary`] — in-process queries: the paper-style compute/comm
//!   [`Breakdown`], bytes by message kind, straggler max-vs-mean compute,
//!   fault counts by detection method, and a power-of-two message-size
//!   [`Histogram`].
//! * JSONL export — [`Recorder::to_jsonl`] / [`Recorder::write_jsonl`]
//!   emit one self-describing JSON object per line, each stamped with the
//!   [`RunStamp`] id so `repro_results/` artifacts identify their own
//!   config hash, seeds, and pool width. [`parse_jsonl`] reads a trace
//!   back for offline summarization and schema validation.
//!
//! Every byte a traced run records must reconcile *exactly* with the
//! router's traffic meter — the engines assert this at the end of training,
//! so a trace that diverges from the metered bytes is a hard failure
//! instead of silent drift.
//!
//! [`Router`]: ../columnsgd_cluster/router/struct.Router.html

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod metrics;
pub mod monitor;
pub mod profile;

pub use metrics::MetricsRegistry;
pub use monitor::{
    DiagnosticEvent, DiagnosticKind, Diagnostics, Monitor, MonitorConfig, SuperstepObs,
};
pub use profile::{ProfRecord, ProfScope};

use std::fmt;
use std::sync::{Arc, Mutex};

use serde_json::{json, Value};

/// Trace schema version emitted in the run-meta line; bump on any
/// backwards-incompatible change to the JSONL layout.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Vocabulary types
// ---------------------------------------------------------------------------

/// A superstep phase, in BSP order. `Sample` is reported for visibility but
/// is a *subset* of `Compute` (workers draw the batch inside the timed
/// statistics task), so [`Breakdown::total`] excludes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Mini-batch index generation + CSR batch assembly on each worker.
    Sample,
    /// `computeStatistics`: the forward pass over the local column block.
    Compute,
    /// Workers → master statistics shipping (modeled network time).
    Gather,
    /// `updateModel`: applying aggregated statistics to the local block.
    Update,
    /// Master → workers aggregated-statistics broadcast (modeled time).
    Broadcast,
    /// Per-iteration scheduling overhead plus any recovery charge.
    Overhead,
}

impl Phase {
    /// All phases, in BSP order.
    pub const ALL: [Phase; 6] = [
        Phase::Sample,
        Phase::Compute,
        Phase::Gather,
        Phase::Update,
        Phase::Broadcast,
        Phase::Overhead,
    ];

    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Compute => "compute",
            Phase::Gather => "gather",
            Phase::Update => "update",
            Phase::Broadcast => "broadcast",
            Phase::Overhead => "overhead",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// True for phases whose simulated time is derived from real timers
    /// (and therefore varies run to run); modeled phases (gather,
    /// broadcast) are priced purely from metered bytes and deterministic.
    pub fn is_timer_derived(&self) -> bool {
        !matches!(self, Phase::Gather | Phase::Broadcast)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cluster endpoint, independent of the cluster crate's `NodeId` so this
/// crate sits below the runtime in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// The master / driver.
    Master,
    /// Worker `i` (data + model column block `i`).
    Worker(u32),
    /// Parameter server `i` (RowSGD baselines only).
    Server(u32),
}

impl NodeRef {
    /// Stable label used in the JSONL schema: `master`, `w3`, `s1`.
    pub fn label(&self) -> String {
        match self {
            NodeRef::Master => "master".to_string(),
            NodeRef::Worker(i) => format!("w{i}"),
            NodeRef::Server(i) => format!("s{i}"),
        }
    }

    /// Inverse of [`NodeRef::label`].
    pub fn parse(s: &str) -> Option<NodeRef> {
        if s == "master" {
            return Some(NodeRef::Master);
        }
        let (tag, rest) = s.split_at(1);
        let idx: u32 = rest.parse().ok()?;
        match tag {
            "w" => Some(NodeRef::Worker(idx)),
            "s" => Some(NodeRef::Server(idx)),
            _ => None,
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which logical network a message travelled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Chaos-eligible data plane (`Router::send`).
    Data,
    /// Reliable control plane (`Router::send_reliable`) — never faulted.
    Control,
    /// Metered-only virtual links (RowSGD's logical parameter-server
    /// topology; bytes are priced but no physical channel exists).
    Virtual,
}

impl Plane {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            Plane::Data => "data",
            Plane::Control => "control",
            Plane::Virtual => "virtual",
        }
    }

    /// Inverse of [`Plane::as_str`].
    pub fn parse(s: &str) -> Option<Plane> {
        match s {
            "data" => Some(Plane::Data),
            "control" => Some(Plane::Control),
            "virtual" => Some(Plane::Virtual),
            _ => None,
        }
    }
}

/// A chaos-injected wire fault observed on a data-plane send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommFault {
    /// Message metered but never delivered.
    Dropped,
    /// Message metered and delivered twice.
    Duplicated,
    /// Message held and released by the next send on the link.
    Delayed,
}

impl CommFault {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            CommFault::Dropped => "dropped",
            CommFault::Duplicated => "duplicated",
            CommFault::Delayed => "delayed",
        }
    }

    /// Inverse of [`CommFault::as_str`].
    pub fn parse(s: &str) -> Option<CommFault> {
        match s {
            "dropped" => Some(CommFault::Dropped),
            "duplicated" => Some(CommFault::Duplicated),
            "delayed" => Some(CommFault::Delayed),
            _ => None,
        }
    }
}

/// Identity stamp for a run: enough to make a trace (or a
/// `repro_results/*.json` artifact) self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStamp {
    /// FNV-1a hash of the engine config's debug representation.
    pub config_hash: u64,
    /// The sampling / init seed.
    pub seed: u64,
    /// Chaos-injection seed, when a `ChaosSpec` was armed.
    pub chaos_seed: Option<u64>,
    /// Kernel pool width (`threads_per_worker`).
    pub pool_width: u64,
    /// Number of workers K.
    pub workers: u64,
}

impl RunStamp {
    /// A compact run id: FNV-1a over every stamp field.
    pub fn run_id(&self) -> u64 {
        let mut h = fnv::OFFSET;
        for word in [
            self.config_hash,
            self.seed,
            self.chaos_seed.map_or(u64::MAX, |s| s ^ 1),
            self.pool_width,
            self.workers,
        ] {
            h = fnv::mix(h, word);
        }
        h
    }

    /// The run id as the 16-hex-digit string used in every JSONL line.
    pub fn run_id_hex(&self) -> String {
        format!("{:016x}", self.run_id())
    }
}

/// FNV-1a hashing, shared with config fingerprinting in the core crate.
pub mod fnv {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds one byte into the running hash.
    pub fn byte(h: u64, b: u8) -> u64 {
        (h ^ b as u64).wrapping_mul(PRIME)
    }

    /// Folds a 64-bit word (little-endian bytes) into the running hash.
    pub fn mix(h: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(h, |h, &b| byte(h, b))
    }

    /// FNV-1a over a byte slice, from the standard offset basis.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(OFFSET, |h, &b| byte(h, b))
    }
}

/// The latency + bandwidth pricing a run's modeled times were computed
/// with; recorded so a trace can be re-priced offline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkPricing {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl LinkPricing {
    /// Time for one message of `bytes`, or one serialized run of them: the
    /// latency plus the bytes at link bandwidth (f64, so sums cannot wrap).
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth_bytes_per_s
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One phase of one superstep: its simulated (cost-model) duration, the
/// measured host wall-clock spent producing it, and — for compute-like
/// phases — the per-worker breakdown the straggler statistics come from.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepSpan {
    /// Iteration (superstep) index.
    pub iteration: u64,
    /// Which phase of the superstep.
    pub phase: Phase,
    /// Simulated seconds charged to the BSP clock for this phase.
    pub sim_s: f64,
    /// Measured host wall-clock seconds (0 for purely modeled phases).
    pub measured_s: f64,
    /// Per-worker seconds, indexed by worker, when the phase has one.
    pub per_worker: Vec<f64>,
}

/// One metered message. Emitted by the router for every send — including
/// chaos-dropped and duplicated messages, which the meter also counts — so
/// summing `wire_bytes` over a trace reproduces the traffic totals exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRecord {
    /// Message kind (`WireCodec::kind`), e.g. `StatsReply`.
    pub kind: String,
    /// Sending endpoint.
    pub src: NodeRef,
    /// Receiving endpoint.
    pub dst: NodeRef,
    /// Metered size: payload wire size plus envelope.
    pub wire_bytes: u64,
    /// Modeled link time for this message under the run's [`LinkPricing`].
    pub modeled_s: f64,
    /// Which plane carried it.
    pub plane: Plane,
    /// Chaos fault applied to this send, if any.
    pub fault: Option<CommFault>,
}

/// Compute-kernel shape for one iteration (one record per superstep).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Iteration (superstep) index.
    pub iteration: u64,
    /// Model kind, e.g. `lr`, `svm`, `mlr`, `fm`.
    pub model: String,
    /// Global mini-batch size B.
    pub batch_size: u64,
    /// Kernel pool width (threads per worker).
    pub pool_width: u64,
    /// Work proxy: statistics slots produced this iteration (B × width
    /// per worker, summed over counted workers).
    pub flops_proxy: u64,
    /// The worker that ran the kernel, or `None` for the master's
    /// cluster-wide aggregate record.
    pub worker: Option<u64>,
}

/// A detected fault and its recovery (or a terminal training error),
/// unifying the core crate's `RecoveryEvent` and `TrainError`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Iteration the fault was detected in.
    pub iteration: u64,
    /// The worker involved.
    pub worker: u64,
    /// Fault kind label (`task failure`, `worker failure`, …).
    pub fault: String,
    /// Detection path label (`error reply`, `deadline timeout`, …).
    pub detection: String,
    /// Measured host seconds from issue to detection.
    pub detection_latency_s: f64,
    /// Simulated seconds charged to the clock for recovery.
    pub recovery_cost_s: f64,
    /// Recovery attempt number for this worker (1-based).
    pub attempt: u64,
    /// True when the fault terminated training (`TrainError`).
    pub fatal: bool,
}

/// Any telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A [`SuperstepSpan`].
    Superstep(SuperstepSpan),
    /// A [`CommRecord`].
    Comm(CommRecord),
    /// A [`KernelRecord`].
    Kernel(KernelRecord),
    /// A [`FaultRecord`].
    Fault(FaultRecord),
    /// A [`ProfRecord`] (continuous-profiling self-cost line; only
    /// present when the run opted into profiling, so pre-profiling
    /// traces stay schema-valid unchanged).
    Prof(ProfRecord),
}

impl Event {
    /// Stable `type` tag used in the JSONL schema.
    pub fn type_str(&self) -> &'static str {
        match self {
            Event::Superstep(_) => "superstep",
            Event::Comm(_) => "comm",
            Event::Kernel(_) => "kernel",
            Event::Fault(_) => "fault",
            Event::Prof(_) => "prof",
        }
    }

    /// Renders the event as one JSONL object stamped with the run id.
    pub fn to_value(&self, run_hex: &str) -> Value {
        match self {
            Event::Superstep(s) => json!({
                "type": "superstep",
                "run": run_hex,
                "iter": s.iteration,
                "phase": s.phase.as_str(),
                "sim_s": s.sim_s,
                "measured_s": s.measured_s,
                "per_worker": s.per_worker,
            }),
            Event::Comm(c) => json!({
                "type": "comm",
                "run": run_hex,
                "kind": c.kind,
                "src": c.src.label(),
                "dst": c.dst.label(),
                "bytes": c.wire_bytes,
                "modeled_s": c.modeled_s,
                "plane": c.plane.as_str(),
                "fault": c.fault.map(|f| f.as_str().to_string()),
            }),
            Event::Kernel(k) => json!({
                "type": "kernel",
                "run": run_hex,
                "iter": k.iteration,
                "model": k.model,
                "batch_size": k.batch_size,
                "pool_width": k.pool_width,
                "flops_proxy": k.flops_proxy,
                "worker": k.worker,
            }),
            Event::Fault(f) => json!({
                "type": "fault",
                "run": run_hex,
                "iter": f.iteration,
                "worker": f.worker,
                "fault": f.fault,
                "detection": f.detection,
                "detection_latency_s": f.detection_latency_s,
                "recovery_cost_s": f.recovery_cost_s,
                "attempt": f.attempt,
                "fatal": f.fatal,
            }),
            Event::Prof(p) => json!({
                "type": "prof",
                "run": run_hex,
                "worker": p.worker,
                "stack": p.stack,
                "calls": p.calls,
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "alloc_bytes": p.alloc_bytes,
                "alloc_count": p.alloc_count,
            }),
        }
    }

    /// Parses one JSONL object (as emitted by [`Event::to_value`]) back
    /// into an event. Returns `None` for unknown or malformed shapes —
    /// including the `type: "run"` meta line, which is not an event.
    pub fn from_value(v: &Value) -> Option<Event> {
        let field_u64 = |k: &str| v.get(k).and_then(Value::as_u64);
        let field_f64 = |k: &str| v.get(k).and_then(Value::as_f64);
        let field_str = |k: &str| v.get(k).and_then(Value::as_str);
        match field_str("type")? {
            "superstep" => Some(Event::Superstep(SuperstepSpan {
                iteration: field_u64("iter")?,
                phase: Phase::parse(field_str("phase")?)?,
                sim_s: field_f64("sim_s")?,
                measured_s: field_f64("measured_s")?,
                per_worker: v
                    .get("per_worker")?
                    .as_array()?
                    .iter()
                    .map(Value::as_f64)
                    .collect::<Option<Vec<f64>>>()?,
            })),
            "comm" => Some(Event::Comm(CommRecord {
                kind: field_str("kind")?.to_string(),
                src: NodeRef::parse(field_str("src")?)?,
                dst: NodeRef::parse(field_str("dst")?)?,
                wire_bytes: field_u64("bytes")?,
                modeled_s: field_f64("modeled_s")?,
                plane: Plane::parse(field_str("plane")?)?,
                fault: match v.get("fault") {
                    None => None,
                    Some(Value::Null) => None,
                    Some(f) => Some(CommFault::parse(f.as_str()?)?),
                },
            })),
            "kernel" => Some(Event::Kernel(KernelRecord {
                iteration: field_u64("iter")?,
                model: field_str("model")?.to_string(),
                batch_size: field_u64("batch_size")?,
                pool_width: field_u64("pool_width")?,
                flops_proxy: field_u64("flops_proxy")?,
                // Tolerate pre-distributed-telemetry traces with no
                // worker field (same shape as an explicit null).
                worker: match v.get("worker") {
                    None => None,
                    Some(Value::Null) => None,
                    Some(w) => Some(w.as_u64()?),
                },
            })),
            "fault" => Some(Event::Fault(FaultRecord {
                iteration: field_u64("iter")?,
                worker: field_u64("worker")?,
                fault: field_str("fault")?.to_string(),
                detection: field_str("detection")?.to_string(),
                detection_latency_s: field_f64("detection_latency_s")?,
                recovery_cost_s: field_f64("recovery_cost_s")?,
                attempt: field_u64("attempt")?,
                fatal: v.get("fatal")?.as_bool()?,
            })),
            "prof" => Some(Event::Prof(ProfRecord {
                worker: match v.get("worker") {
                    None => None,
                    Some(Value::Null) => None,
                    Some(w) => Some(w.as_u64()?),
                },
                stack: field_str("stack")?.to_string(),
                calls: field_u64("calls")?,
                wall_s: field_f64("wall_s")?,
                cpu_s: field_f64("cpu_s")?,
                alloc_bytes: field_u64("alloc_bytes")?,
                alloc_count: field_u64("alloc_count")?,
            })),
            _ => None,
        }
    }

    /// The event rendered for the determinism test: measured wall-clock
    /// fields (and timer-derived simulated times) are dropped so two
    /// same-seed runs produce identical canonical lines.
    fn to_canonical_value(&self, run_hex: &str) -> Value {
        match self {
            Event::Superstep(s) => {
                let mut obj = vec![
                    ("type".to_string(), json!("superstep")),
                    ("run".to_string(), json!(run_hex)),
                    ("iter".to_string(), json!(s.iteration)),
                    ("phase".to_string(), json!(s.phase.as_str())),
                ];
                if !s.phase.is_timer_derived() {
                    obj.push(("sim_s".to_string(), json!(s.sim_s)));
                }
                Value::Object(obj)
            }
            Event::Fault(f) => json!({
                "type": "fault",
                "run": run_hex,
                "iter": f.iteration,
                "worker": f.worker,
                "fault": f.fault,
                "detection": f.detection,
                "attempt": f.attempt,
                "fatal": f.fatal,
            }),
            // Wall/CPU/allocation columns are measurements; only the
            // stack shape and its deterministic call count survive.
            Event::Prof(p) => json!({
                "type": "prof",
                "run": run_hex,
                "worker": p.worker,
                "stack": p.stack,
                "calls": p.calls,
            }),
            // Comm and kernel records are fully deterministic.
            other => other.to_value(run_hex),
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Incremental JSONL sink for live tailing: the already-open trace file
/// plus a cursor over how many events have been appended to it.
struct LiveSink {
    file: std::fs::File,
    cursor: usize,
}

/// Cluster backend identity, recorded as extra run-meta fields (never in
/// the [`RunStamp`], whose id must stay backend-agnostic so cross-backend
/// canonical traces compare equal).
#[derive(Debug, Clone, PartialEq)]
struct BackendInfo {
    name: String,
    worker_processes: u64,
}

struct Inner {
    stamp: Mutex<RunStamp>,
    pricing: Mutex<Option<LinkPricing>>,
    events: Mutex<Vec<Event>>,
    backend: Mutex<Option<BackendInfo>>,
    /// Estimated worker-clock offsets vs. the master's monotonic origin,
    /// in seconds, as `(worker, offset_s)` pairs (TCP backend only).
    clock_offsets: Mutex<Vec<(u64, f64)>>,
    live: Mutex<Option<LiveSink>>,
}

/// The telemetry ingestion handle. Cloning shares the underlying buffer;
/// [`Recorder::disabled`] (the default) makes every method a no-op behind a
/// single `Option` check, which the superstep bench holds to < 2% overhead.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder with an empty event buffer.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                stamp: Mutex::new(RunStamp::default()),
                pricing: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                backend: Mutex::new(None),
                clock_offsets: Mutex::new(Vec::new()),
                live: Mutex::new(None),
            })),
        }
    }

    /// The no-op recorder: records nothing, costs one branch per call.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// True when events are actually being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the run identity stamp; does not clear previously recorded
    /// events (load-time comm records belong to the same run).
    pub fn begin(&self, stamp: RunStamp) {
        if let Some(inner) = &self.inner {
            *inner.stamp.lock().unwrap() = stamp;
        }
    }

    /// The current run stamp.
    pub fn stamp(&self) -> RunStamp {
        match &self.inner {
            Some(inner) => *inner.stamp.lock().unwrap(),
            None => RunStamp::default(),
        }
    }

    /// Records the link pricing modeled times were computed with.
    pub fn set_pricing(&self, pricing: LinkPricing) {
        if let Some(inner) = &self.inner {
            *inner.pricing.lock().unwrap() = Some(pricing);
        }
    }

    /// The recorded link pricing, if any.
    pub fn pricing(&self) -> Option<LinkPricing> {
        self.inner
            .as_ref()
            .and_then(|inner| *inner.pricing.lock().unwrap())
    }

    /// Drops all comm records. Called alongside the traffic meter's
    /// `reset()` so the trace and the meter cover the same window.
    pub fn clear_comm(&self) {
        if let Some(inner) = &self.inner {
            inner
                .events
                .lock()
                .unwrap()
                .retain(|e| !matches!(e, Event::Comm(_)));
        }
    }

    /// Records one metered message.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn comm(
        &self,
        kind: &str,
        src: NodeRef,
        dst: NodeRef,
        wire_bytes: u64,
        modeled_s: f64,
        plane: Plane,
        fault: Option<CommFault>,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Comm(CommRecord {
            kind: kind.to_string(),
            src,
            dst,
            wire_bytes,
            modeled_s,
            plane,
            fault,
        }));
    }

    /// Records one superstep phase span.
    #[inline]
    pub fn superstep(&self, span: SuperstepSpan) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Superstep(span));
    }

    /// Records one kernel-shape record.
    #[inline]
    pub fn kernel(&self, rec: KernelRecord) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Kernel(rec));
    }

    /// Records one fault / recovery record.
    #[inline]
    pub fn fault(&self, rec: FaultRecord) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Fault(rec));
    }

    /// Merges a batch of events shipped from another process into this
    /// recorder's stream (the master-side ingestion point for worker
    /// telemetry frames).
    pub fn ingest(&self, events: Vec<Event>) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().extend(events);
    }

    /// Records one profiling line.
    #[inline]
    pub fn prof(&self, rec: ProfRecord) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Prof(rec));
    }

    /// Drains the process-global profiler ([`profile::drain`]) into this
    /// recorder, stamping every record with `worker` (`None` on the
    /// master, `Some(id)` in a TCP worker process). A no-op when the
    /// recorder is disabled or the profiler recorded nothing — cheap to
    /// call unconditionally at flush points.
    pub fn prof_drain(&self, worker: Option<u64>) {
        let Some(inner) = &self.inner else { return };
        let records = profile::drain();
        if records.is_empty() {
            return;
        }
        let mut events = inner.events.lock().unwrap();
        events.extend(records.into_iter().map(|mut r| {
            r.worker = worker;
            Event::Prof(r)
        }));
    }

    /// Records which cluster backend produced this trace. Backend identity
    /// is run *metadata*, not run *identity*: it is emitted as extra meta
    /// fields by [`Recorder::to_jsonl`] but deliberately kept out of the
    /// [`RunStamp`] so inproc and tcp runs of the same config share a run
    /// id and their canonical traces compare equal.
    pub fn set_backend(&self, name: &str, worker_processes: u64) {
        if let Some(inner) = &self.inner {
            *inner.backend.lock().unwrap() = Some(BackendInfo {
                name: name.to_string(),
                worker_processes,
            });
        }
    }

    /// The recorded backend identity, if any: `(name, worker_processes)`.
    pub fn backend(&self) -> Option<(String, u64)> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .backend
                .lock()
                .unwrap()
                .as_ref()
                .map(|b| (b.name.clone(), b.worker_processes))
        })
    }

    /// Records worker `w`'s estimated clock offset (seconds) against the
    /// master's monotonic timeline, as measured during the hello
    /// handshake. Re-estimates (respawns) overwrite the previous value.
    pub fn set_clock_offset(&self, worker: u64, offset_s: f64) {
        let Some(inner) = &self.inner else { return };
        let mut offsets = inner.clock_offsets.lock().unwrap();
        match offsets.iter_mut().find(|(w, _)| *w == worker) {
            Some((_, o)) => *o = offset_s,
            None => {
                offsets.push((worker, offset_s));
                offsets.sort_by_key(|&(w, _)| w);
            }
        }
    }

    /// The recorded `(worker, offset_s)` clock-alignment estimates.
    pub fn clock_offsets(&self) -> Vec<(u64, f64)> {
        match &self.inner {
            Some(inner) => inner.clock_offsets.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of every event recorded so far, in ingestion order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.events.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Computes the in-process [`Summary`] over everything recorded.
    pub fn summary(&self) -> Summary {
        Summary::from_events(&self.events(), self.stamp())
    }

    /// The paper-style phase [`Breakdown`] — shorthand for
    /// `summary().breakdown`.
    pub fn breakdown(&self) -> Breakdown {
        self.summary().breakdown
    }

    /// The `type: "run"` meta line as a JSON value. Backend identity and
    /// clock-offset estimates ride along as *extra* keys (readers
    /// tolerate their absence, so pre-distributed-telemetry traces still
    /// parse).
    pub fn meta_value(&self) -> Value {
        let stamp = self.stamp();
        let mut meta = json!({
            "type": "run",
            "run": stamp.run_id_hex(),
            "schema": SCHEMA_VERSION,
            "config_hash": format!("{:016x}", stamp.config_hash),
            "seed": stamp.seed,
            "chaos_seed": stamp.chaos_seed,
            "pool_width": stamp.pool_width,
            "workers": stamp.workers,
        });
        if let Value::Object(entries) = &mut meta {
            if let Some((name, procs)) = self.backend() {
                entries.push(("backend".to_string(), json!(name)));
                entries.push(("worker_processes".to_string(), json!(procs)));
            }
            let offsets = self.clock_offsets();
            if !offsets.is_empty() {
                entries.push((
                    "clock_offsets_s".to_string(),
                    Value::Object(
                        offsets
                            .into_iter()
                            .map(|(w, o)| (format!("w{w}"), json!(o)))
                            .collect(),
                    ),
                ));
            }
        }
        meta
    }

    /// Renders the full trace as JSONL: a `type: "run"` meta line followed
    /// by one line per event, each stamped with the run id.
    pub fn to_jsonl(&self) -> String {
        let hex = self.stamp().run_id_hex();
        let mut out = String::new();
        out.push_str(&serde_json::to_string(&self.meta_value()).unwrap_or_default());
        out.push('\n');
        for event in self.events() {
            let line = serde_json::to_string(&event.to_value(&hex));
            out.push_str(&line.unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Opens `path` as a live-tail sink: the current meta line is written
    /// immediately and subsequent [`Recorder::flush_live`] calls append
    /// newly recorded events, so `inspect follow` can watch the run. The
    /// caller should still [`Recorder::write_jsonl`] at the end of the
    /// run to rewrite the file with final metadata (late clock-offset
    /// estimates land in the meta line only on that rewrite).
    pub fn attach_trace_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        use std::io::Write as _;
        let mut file = std::fs::File::create(path)?;
        writeln!(
            file,
            "{}",
            serde_json::to_string(&self.meta_value()).unwrap_or_default()
        )?;
        file.flush()?;
        *inner.live.lock().unwrap() = Some(LiveSink { file, cursor: 0 });
        Ok(())
    }

    /// Appends events recorded since the last flush to the live-tail sink
    /// (a no-op without [`Recorder::attach_trace_out`]). Called by the
    /// engines at superstep boundaries.
    pub fn flush_live(&self) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut live = inner.live.lock().unwrap();
        let Some(sink) = live.as_mut() else {
            return Ok(());
        };
        let hex = self.stamp().run_id_hex();
        // Serialize under the events lock, write after releasing it:
        // recording threads must never block behind disk I/O.
        let (chunk, new_cursor) = {
            let events = inner.events.lock().unwrap();
            if sink.cursor >= events.len() {
                return Ok(());
            }
            let mut chunk = String::new();
            for event in &events[sink.cursor..] {
                chunk.push_str(&serde_json::to_string(&event.to_value(&hex)).unwrap_or_default());
                chunk.push('\n');
            }
            (chunk, events.len())
        };
        use std::io::Write as _;
        // lint: allow(blocking-under-lock) `live` owns the sink file and IS its serialization point; only flush_live callers contend on it
        sink.file.write_all(chunk.as_bytes())?;
        // lint: allow(blocking-under-lock) see write_all above: same sink, same serialization argument
        sink.file.flush()?;
        sink.cursor = new_cursor;
        Ok(())
    }

    /// Writes [`Recorder::to_jsonl`] to `path`, creating parent
    /// directories as needed.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// Canonical event lines for determinism checks: measured-time fields
    /// are stripped (see `Event::to_canonical_value`) and lines sorted,
    /// so two same-seed runs compare equal even though worker threads
    /// interleave differently.
    pub fn canonical_lines(&self) -> Vec<String> {
        let hex = self.stamp().run_id_hex();
        let mut lines: Vec<String> = self
            .events()
            .iter()
            .map(|e| serde_json::to_string(&e.to_canonical_value(&hex)).unwrap_or_default())
            .collect();
        lines.sort();
        lines
    }
}

/// Parses a JSONL trace back into its run-meta line and events; fails with
/// a description on the first malformed line. The meta line must come
/// first and declare a supported schema version.
pub fn parse_jsonl(trace: &str) -> Result<(Value, Vec<Event>), String> {
    let mut lines = trace.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or("empty trace")?;
    let meta = serde_json::from_str(meta_line).map_err(|e| format!("meta line: {e}"))?;
    if meta.get("type").and_then(Value::as_str) != Some("run") {
        return Err("first line must be the `type: \"run\"` meta line".to_string());
    }
    match meta.get("schema").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        other => return Err(format!("unsupported schema version {other:?}")),
    }
    let run_hex = meta
        .get("run")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let mut events = Vec::new();
    for (idx, line) in lines.enumerate() {
        let value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 2))?;
        if value.get("run").and_then(Value::as_str) != Some(run_hex.as_str()) {
            return Err(format!("line {}: run stamp mismatch", idx + 2));
        }
        let event = Event::from_value(&value)
            .ok_or_else(|| format!("line {}: unknown event shape", idx + 2))?;
        events.push(event);
    }
    Ok((meta, events))
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// The paper-style per-run time breakdown, summed over iterations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Batch sampling/assembly seconds (informational: a subset of
    /// `compute_s`, excluded from [`Breakdown::total`]).
    pub sample_s: f64,
    /// Statistics-computation phase seconds (barrier max per iteration).
    pub compute_s: f64,
    /// Workers → master gather seconds (modeled).
    pub gather_s: f64,
    /// Master → workers broadcast seconds (modeled).
    pub broadcast_s: f64,
    /// Model-update phase seconds.
    pub update_s: f64,
    /// Scheduling overhead + recovery charges.
    pub overhead_s: f64,
}

impl Breakdown {
    /// Total simulated seconds: compute + gather + broadcast + update +
    /// overhead (sample is inside compute and not re-added).
    pub fn total(&self) -> f64 {
        self.compute_s + self.gather_s + self.broadcast_s + self.update_s + self.overhead_s
    }

    /// Communication share: gather + broadcast.
    pub fn comm_s(&self) -> f64 {
        self.gather_s + self.broadcast_s
    }
}

/// Per-message-kind traffic totals.
#[derive(Debug, Clone, PartialEq)]
pub struct KindTotal {
    /// Message kind (`WireCodec::kind`).
    pub kind: String,
    /// Total metered bytes of this kind.
    pub bytes: u64,
    /// Number of metered messages of this kind.
    pub messages: u64,
}

/// Straggler statistics from compute-span per-worker breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StragglerStats {
    /// Mean over iterations of the mean per-worker compute seconds.
    pub mean_s: f64,
    /// Mean over iterations of the *max* per-worker compute seconds —
    /// the BSP barrier pays this one.
    pub mean_max_s: f64,
}

impl StragglerStats {
    /// Barrier penalty factor: mean-of-max over mean-of-mean (1.0 = no
    /// straggling).
    pub fn imbalance(&self) -> f64 {
        if self.mean_s > 0.0 {
            self.mean_max_s / self.mean_s
        } else {
            1.0
        }
    }
}

/// A power-of-two histogram of metered message sizes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Non-empty buckets as `(lo, hi, count)` byte ranges.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let lo = if idx == 0 { 0 } else { 1u64 << (idx - 1) };
                // idx 64 holds values in [2^63, u64::MAX]; `1u64 << 64`
                // would overflow, so saturate the top bucket's bound.
                let hi = if idx >= 64 {
                    u64::MAX
                } else {
                    (1u64 << idx) - 1
                };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Aggregated view over a run's events — the query API the bench reports
/// consume instead of keeping their own books.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// The run identity stamp.
    pub run: RunStamp,
    /// Superstep count observed (max iteration + 1 across span events).
    pub iterations: u64,
    /// The paper-style phase time breakdown.
    pub breakdown: Breakdown,
    /// Total metered bytes across all comm records (drops and duplicate
    /// deliveries included, matching the router's meter).
    pub comm_bytes: u64,
    /// Total metered messages.
    pub comm_messages: u64,
    /// Traffic by message kind, sorted by descending bytes.
    pub by_kind: Vec<KindTotal>,
    /// Message-size distribution (power-of-two buckets).
    pub size_hist: Histogram,
    /// Straggler statistics from compute-phase per-worker times.
    pub straggler: StragglerStats,
    /// Total fault records (fatal ones included).
    pub faults: u64,
    /// Fault counts by detection label, sorted by descending count.
    pub faults_by_detection: Vec<(String, u64)>,
    /// Highest recovery attempt number seen for any worker.
    pub max_attempt: u64,
    /// Chaos drop / duplicate / delay counts over comm records.
    pub comm_faults: u64,
}

impl Summary {
    /// Builds a summary from a flat event list (e.g. a parsed trace).
    pub fn from_events(events: &[Event], run: RunStamp) -> Summary {
        let mut s = Summary {
            run,
            ..Summary::default()
        };
        let mut kinds: Vec<KindTotal> = Vec::new();
        let mut detections: Vec<(String, u64)> = Vec::new();
        let mut compute_iters = 0u64;
        for event in events {
            match event {
                Event::Superstep(span) => {
                    s.iterations = s.iterations.max(span.iteration + 1);
                    match span.phase {
                        Phase::Sample => s.breakdown.sample_s += span.sim_s,
                        Phase::Compute => {
                            s.breakdown.compute_s += span.sim_s;
                            if !span.per_worker.is_empty() {
                                compute_iters += 1;
                                let max = span.per_worker.iter().cloned().fold(0.0, f64::max);
                                let mean = span.per_worker.iter().sum::<f64>()
                                    / span.per_worker.len() as f64;
                                s.straggler.mean_max_s += max;
                                s.straggler.mean_s += mean;
                            }
                        }
                        Phase::Gather => s.breakdown.gather_s += span.sim_s,
                        Phase::Update => s.breakdown.update_s += span.sim_s,
                        Phase::Broadcast => s.breakdown.broadcast_s += span.sim_s,
                        Phase::Overhead => s.breakdown.overhead_s += span.sim_s,
                    }
                }
                Event::Comm(c) => {
                    s.comm_bytes += c.wire_bytes;
                    s.comm_messages += 1;
                    s.size_hist.record(c.wire_bytes);
                    if c.fault.is_some() {
                        s.comm_faults += 1;
                    }
                    match kinds.iter_mut().find(|k| k.kind == c.kind) {
                        Some(k) => {
                            k.bytes += c.wire_bytes;
                            k.messages += 1;
                        }
                        None => kinds.push(KindTotal {
                            kind: c.kind.clone(),
                            bytes: c.wire_bytes,
                            messages: 1,
                        }),
                    }
                }
                Event::Kernel(k) => {
                    s.iterations = s.iterations.max(k.iteration + 1);
                }
                Event::Fault(f) => {
                    s.faults += 1;
                    s.max_attempt = s.max_attempt.max(f.attempt);
                    match detections.iter_mut().find(|(d, _)| *d == f.detection) {
                        Some((_, n)) => *n += 1,
                        None => detections.push((f.detection.clone(), 1)),
                    }
                }
                // Profiling lines are orthogonal to the phase/traffic
                // accounting the summary reports.
                Event::Prof(_) => {}
            }
        }
        if compute_iters > 0 {
            s.straggler.mean_max_s /= compute_iters as f64;
            s.straggler.mean_s /= compute_iters as f64;
        }
        kinds.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.kind.cmp(&b.kind)));
        detections.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        s.by_kind = kinds;
        s.faults_by_detection = detections;
        s
    }

    /// Fault records filtered out of an event list (convenience for
    /// chaos-experiment reports).
    pub fn fault_records(events: &[Event]) -> Vec<FaultRecord> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Fault(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Superstep(SuperstepSpan {
                iteration: 0,
                phase: Phase::Compute,
                sim_s: 0.4,
                measured_s: 0.1,
                per_worker: vec![0.2, 0.4],
            }),
            Event::Superstep(SuperstepSpan {
                iteration: 0,
                phase: Phase::Gather,
                sim_s: 0.3,
                measured_s: 0.0,
                per_worker: vec![],
            }),
            Event::Comm(CommRecord {
                kind: "StatsReply".to_string(),
                src: NodeRef::Worker(1),
                dst: NodeRef::Master,
                wire_bytes: 128,
                modeled_s: 0.001,
                plane: Plane::Data,
                fault: Some(CommFault::Duplicated),
            }),
            Event::Kernel(KernelRecord {
                iteration: 0,
                model: "lr".to_string(),
                batch_size: 100,
                pool_width: 2,
                flops_proxy: 200,
                worker: Some(1),
            }),
            Event::Fault(FaultRecord {
                iteration: 3,
                worker: 1,
                fault: "worker failure".to_string(),
                detection: "deadline timeout".to_string(),
                detection_latency_s: 0.05,
                recovery_cost_s: 1.25,
                attempt: 2,
                fatal: false,
            }),
            Event::Prof(ProfRecord {
                worker: Some(1),
                stack: "worker_stats;batch_sample".to_string(),
                calls: 8,
                wall_s: 0.015,
                cpu_s: 0.012,
                alloc_bytes: 4096,
                alloc_count: 32,
            }),
        ]
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.comm(
            "x",
            NodeRef::Master,
            NodeRef::Worker(0),
            64,
            0.0,
            Plane::Data,
            None,
        );
        r.superstep(SuperstepSpan {
            iteration: 0,
            phase: Phase::Compute,
            sim_s: 1.0,
            measured_s: 1.0,
            per_worker: vec![],
        });
        assert!(r.events().is_empty());
        assert_eq!(r.summary().comm_messages, 0);
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let r = Recorder::new();
        r.begin(RunStamp {
            config_hash: 0xdead_beef,
            seed: 13,
            chaos_seed: Some(7),
            pool_width: 2,
            workers: 4,
        });
        for e in sample_events() {
            match e {
                Event::Superstep(s) => r.superstep(s),
                Event::Comm(c) => r.comm(
                    &c.kind,
                    c.src,
                    c.dst,
                    c.wire_bytes,
                    c.modeled_s,
                    c.plane,
                    c.fault,
                ),
                Event::Kernel(k) => r.kernel(k),
                Event::Fault(f) => r.fault(f),
                Event::Prof(p) => r.prof(p),
            }
        }
        let trace = r.to_jsonl();
        let (meta, events) = parse_jsonl(&trace).expect("trace parses");
        assert_eq!(
            meta.get("run").and_then(Value::as_str),
            Some(r.stamp().run_id_hex().as_str())
        );
        assert_eq!(meta.get("seed").and_then(Value::as_u64), Some(13));
        assert_eq!(events, sample_events());
    }

    #[test]
    fn summary_aggregates_phases_traffic_and_faults() {
        let s = Summary::from_events(&sample_events(), RunStamp::default());
        // Spans and kernels advance the iteration count; faults do not.
        assert_eq!(s.iterations, 1);
        assert!((s.breakdown.compute_s - 0.4).abs() < 1e-12);
        assert!((s.breakdown.gather_s - 0.3).abs() < 1e-12);
        assert!((s.breakdown.total() - 0.7).abs() < 1e-12);
        assert_eq!(s.comm_bytes, 128);
        assert_eq!(s.comm_messages, 1);
        assert_eq!(s.comm_faults, 1);
        assert_eq!(s.by_kind.len(), 1);
        assert_eq!(s.by_kind[0].kind, "StatsReply");
        assert_eq!(s.faults, 1);
        assert_eq!(s.max_attempt, 2);
        assert_eq!(
            s.faults_by_detection,
            vec![("deadline timeout".to_string(), 1)]
        );
        assert!((s.straggler.mean_max_s - 0.4).abs() < 1e-12);
        assert!((s.straggler.mean_s - 0.3).abs() < 1e-12);
        assert!((s.straggler.imbalance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_lines_strip_measured_time_and_sort() {
        let make = |measured: f64, compute_sim: f64| {
            let r = Recorder::new();
            r.begin(RunStamp {
                seed: 1,
                ..RunStamp::default()
            });
            // Ingest in different orders with different measured times.
            let mut evs = sample_events();
            if measured > 0.2 {
                evs.reverse();
            }
            for e in evs {
                match e {
                    Event::Superstep(mut s) => {
                        s.measured_s = measured;
                        if s.phase.is_timer_derived() {
                            s.sim_s = compute_sim;
                        }
                        s.per_worker = vec![measured; 2];
                        r.superstep(s)
                    }
                    Event::Comm(c) => r.comm(
                        &c.kind,
                        c.src,
                        c.dst,
                        c.wire_bytes,
                        c.modeled_s,
                        c.plane,
                        c.fault,
                    ),
                    Event::Kernel(k) => r.kernel(k),
                    Event::Fault(mut f) => {
                        f.detection_latency_s = measured;
                        f.recovery_cost_s = 0.0;
                        r.fault(f)
                    }
                    Event::Prof(mut p) => {
                        // Measurement columns must not affect canonical
                        // identity.
                        p.wall_s = measured;
                        p.cpu_s = measured / 2.0;
                        p.alloc_bytes = (measured * 1e6) as u64;
                        r.prof(p)
                    }
                }
            }
            r.canonical_lines()
        };
        assert_eq!(make(0.1, 0.5), make(0.9, 0.7));
    }

    #[test]
    fn run_id_depends_on_every_stamp_field() {
        let base = RunStamp {
            config_hash: 1,
            seed: 2,
            chaos_seed: None,
            pool_width: 3,
            workers: 4,
        };
        let mut ids = vec![base.run_id()];
        ids.push(
            RunStamp {
                config_hash: 9,
                ..base
            }
            .run_id(),
        );
        ids.push(RunStamp { seed: 9, ..base }.run_id());
        ids.push(
            RunStamp {
                chaos_seed: Some(0),
                ..base
            }
            .run_id(),
        );
        ids.push(
            RunStamp {
                pool_width: 9,
                ..base
            }
            .run_id(),
        );
        ids.push(RunStamp { workers: 9, ..base }.run_id());
        #[expect(clippy::disallowed_types, reason = "counts ids, never iterates")]
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "each field must perturb the id");
        assert_eq!(base.run_id(), base.run_id(), "id is stable");
        assert_eq!(base.run_id_hex().len(), 16);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(
            h.buckets(),
            vec![(0, 0, 1), (1, 1, 2), (2, 3, 2), (4, 7, 1), (1024, 2047, 1)]
        );
    }

    #[test]
    fn histogram_edge_cases() {
        // Empty histogram: no buckets, zero count.
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert!(h.buckets().is_empty());

        // Single sample.
        let mut h = Histogram::default();
        h.record(5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.buckets(), vec![(4, 7, 1)]);

        // All-equal samples collapse into one bucket.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.buckets(), vec![(64, 127, 10)]);

        // Saturating values: u64::MAX lands in the top bucket whose upper
        // bound saturates instead of overflowing `1 << 64`.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets(), vec![(1u64 << 63, u64::MAX, 2)]);
    }

    #[test]
    fn imbalance_edge_cases() {
        // Empty / zero-mean stats: defined as 1.0 (no straggling).
        assert_eq!(StragglerStats::default().imbalance(), 1.0);
        assert_eq!(
            StragglerStats {
                mean_s: 0.0,
                mean_max_s: 5.0
            }
            .imbalance(),
            1.0
        );
        // Perfectly balanced workers: exactly 1.0.
        assert_eq!(
            StragglerStats {
                mean_s: 0.25,
                mean_max_s: 0.25
            }
            .imbalance(),
            1.0
        );
        // One straggler doubling the barrier.
        assert!(
            (StragglerStats {
                mean_s: 0.5,
                mean_max_s: 1.0
            }
            .imbalance()
                - 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn ingest_merges_and_meta_carries_backend_identity() {
        let r = Recorder::new();
        r.begin(RunStamp {
            seed: 5,
            ..RunStamp::default()
        });
        r.set_backend("tcp", 4);
        r.set_clock_offset(1, 2.5e-6);
        r.set_clock_offset(0, -1.0e-6);
        r.set_clock_offset(1, 3.0e-6); // re-estimate overwrites
        r.ingest(sample_events());
        assert_eq!(r.events(), sample_events());
        assert_eq!(r.backend(), Some(("tcp".to_string(), 4)));
        assert_eq!(r.clock_offsets(), vec![(0, -1.0e-6), (1, 3.0e-6)]);
        let meta = r.meta_value();
        assert_eq!(meta.get("backend").and_then(Value::as_str), Some("tcp"));
        assert_eq!(
            meta.get("worker_processes").and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(
            meta.get("clock_offsets_s")
                .and_then(|o| o.get("w1"))
                .and_then(Value::as_f64),
            Some(3.0e-6)
        );
        // The extra meta keys still parse (readers tolerate unknowns).
        let (meta, events) = parse_jsonl(&r.to_jsonl()).expect("trace parses");
        assert_eq!(meta.get("backend").and_then(Value::as_str), Some("tcp"));
        assert_eq!(events, sample_events());
        // Backend identity must never perturb the run id.
        let plain = Recorder::new();
        plain.begin(RunStamp {
            seed: 5,
            ..RunStamp::default()
        });
        assert_eq!(plain.stamp().run_id(), r.stamp().run_id());
    }

    #[test]
    fn kernel_records_without_worker_field_still_parse() {
        // A pre-distributed-telemetry trace: kernel lines lack "worker".
        let trace = "{\"type\":\"run\",\"run\":\"x\",\"schema\":1}\n\
             {\"type\":\"kernel\",\"run\":\"x\",\"iter\":0,\"model\":\"lr\",\
             \"batch_size\":10,\"pool_width\":1,\"flops_proxy\":10}\n";
        let (_, events) = parse_jsonl(trace).expect("legacy kernel parses");
        assert_eq!(
            events,
            vec![Event::Kernel(KernelRecord {
                iteration: 0,
                model: "lr".to_string(),
                batch_size: 10,
                pool_width: 1,
                flops_proxy: 10,
                worker: None,
            })]
        );
    }

    #[test]
    fn live_tail_appends_incrementally() {
        let dir = std::env::temp_dir().join(format!("colsgd-live-tail-{}", std::process::id()));
        let path = dir.join("live.jsonl");
        let r = Recorder::new();
        r.begin(RunStamp {
            seed: 9,
            ..RunStamp::default()
        });
        r.attach_trace_out(&path).expect("attach");
        let evs = sample_events();
        r.superstep(match &evs[0] {
            Event::Superstep(s) => s.clone(),
            _ => unreachable!(),
        });
        r.flush_live().expect("flush 1");
        let after_one = std::fs::read_to_string(&path).expect("read");
        assert_eq!(after_one.lines().count(), 2, "meta + 1 event");
        let (_, parsed) = parse_jsonl(&after_one).expect("partial trace parses");
        assert_eq!(parsed.len(), 1);
        r.kernel(match &evs[3] {
            Event::Kernel(k) => k.clone(),
            _ => unreachable!(),
        });
        r.flush_live().expect("flush 2");
        r.flush_live().expect("idempotent flush");
        let after_two = std::fs::read_to_string(&path).expect("read");
        assert_eq!(after_two.lines().count(), 3, "meta + 2 events");
        // The full-rewrite export matches the incrementally built file.
        r.write_jsonl(&path).expect("final rewrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), r.to_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_jsonl_rejects_malformed_traces() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"type\":\"comm\"}\n").is_err());
        assert!(parse_jsonl("{\"type\":\"run\",\"run\":\"x\",\"schema\":99}\n").is_err());
        let good_meta = "{\"type\":\"run\",\"run\":\"x\",\"schema\":1}";
        assert!(parse_jsonl(good_meta).is_ok());
        let bad_event = format!("{good_meta}\n{{\"type\":\"mystery\",\"run\":\"x\"}}\n");
        assert!(parse_jsonl(&bad_event).is_err());
        let wrong_run = format!("{good_meta}\n{{\"type\":\"kernel\",\"run\":\"y\"}}\n");
        assert!(parse_jsonl(&wrong_run).is_err());
    }
}
