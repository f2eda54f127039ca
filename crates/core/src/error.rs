//! Typed training errors and the recovery-event log.
//!
//! The training path never panics on a fault: everything a run can
//! observe — a task reporting an exception, a missing reply detected by
//! the master's receive deadline, a worker panic converted by the node
//! runtime — is classified into a [`RecoveryEvent`] (when recovered) or a
//! [`TrainError`] (when recovery is impossible or exhausted). The event
//! log rides on `TrainOutcome`, so experiments like `repro fig13` report
//! recovery behaviour from *observed* detections rather than from the
//! injection script.

use columnsgd_cluster::{CodecError, NetError};

/// What failed, as classified by the master after detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A task attempt failed (exception or lost reply); the worker and its
    /// state survive, the task is re-issued.
    TaskFailure,
    /// The worker itself is gone (panic or dead mailbox); its partitions
    /// are lost and must be reloaded, §X.
    WorkerFailure,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::TaskFailure => write!(f, "task failure"),
            FaultKind::WorkerFailure => write!(f, "worker failure"),
        }
    }
}

/// How the master *detected* the fault — the reactive part of reactive
/// fault tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectionMethod {
    /// The worker replied with an explicit task-failure report.
    ErrorReply,
    /// The iteration deadline expired with the reply missing; the worker
    /// was probed to classify the failure.
    Timeout,
    /// The node runtime converted a worker panic into a failure message.
    PanicReport,
    /// A send to the worker failed because its mailbox is gone.
    SendFailure,
}

impl std::fmt::Display for DetectionMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectionMethod::ErrorReply => write!(f, "error reply"),
            DetectionMethod::Timeout => write!(f, "deadline timeout"),
            DetectionMethod::PanicReport => write!(f, "panic report"),
            DetectionMethod::SendFailure => write!(f, "send failure"),
        }
    }
}

/// One detected-and-recovered fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration during which the fault was detected.
    pub iteration: u64,
    /// The worker involved.
    pub worker: usize,
    /// Classification after detection.
    pub fault: FaultKind,
    /// How the master noticed.
    pub detection: DetectionMethod,
    /// Wall-clock seconds from issuing the iteration's tasks to detecting
    /// this fault (real time; the receive deadline bounds it).
    pub detection_latency_s: f64,
    /// Simulated seconds charged to the clock for recovery (reload
    /// streaming for worker failures, deadline waits for timeouts).
    pub recovery_cost_s: f64,
    /// Which attempt failed (0 = the original task).
    pub attempt: u64,
}

impl RecoveryEvent {
    /// This event in telemetry's unified fault vocabulary (a recovered,
    /// non-fatal [`columnsgd_cluster::telemetry::FaultRecord`]).
    pub fn to_fault_record(&self) -> columnsgd_cluster::telemetry::FaultRecord {
        columnsgd_cluster::telemetry::FaultRecord {
            iteration: self.iteration,
            worker: self.worker as u64,
            fault: self.fault.to_string(),
            detection: self.detection.to_string(),
            detection_latency_s: self.detection_latency_s,
            recovery_cost_s: self.recovery_cost_s,
            attempt: self.attempt,
            fatal: false,
        }
    }
}

/// A training run failed in a way recovery could not mask.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The failure plan is inconsistent with the cluster (bad worker ids,
    /// invalid chaos probabilities).
    InvalidPlan(String),
    /// A task kept failing past `max_task_retries`.
    RetriesExhausted {
        /// Iteration that could not complete.
        iteration: u64,
        /// The worker whose task kept failing.
        worker: usize,
        /// Attempts made (original + retries).
        attempts: u64,
    },
    /// A worker could not be brought back (respawn or reload failed).
    WorkerLost {
        /// The unrecoverable worker.
        worker: usize,
        /// Iteration at which recovery gave up.
        iteration: u64,
        /// What went wrong.
        detail: String,
    },
    /// The messaging layer failed in a way that is not a worker fault
    /// (e.g. the master's own mailbox disconnected).
    Network {
        /// Iteration during which the error surfaced.
        iteration: u64,
        /// The underlying transport error.
        source: NetError,
    },
    /// Loading never completed within the deadline.
    LoadFailed(String),
    /// An online diagnostic monitor requested an early stop: the batch
    /// loss left the real line or ran away past the divergence threshold.
    Diverged {
        /// Iteration at which the monitor tripped.
        iteration: u64,
        /// The monitor's stop reason (detector and values).
        reason: String,
    },
    /// A runtime invariant was violated (a reply the protocol guarantees
    /// is missing, a partition table entry absent). These were panics
    /// before the panic-hygiene pass; surfacing them as typed errors keeps
    /// fault detection working even when the bug is ours.
    Internal(String),
}

impl TrainError {
    /// Stable class label for telemetry and reports.
    pub fn class(&self) -> &'static str {
        match self {
            TrainError::InvalidPlan(_) => "invalid plan",
            TrainError::RetriesExhausted { .. } => "retries exhausted",
            TrainError::WorkerLost { .. } => "worker lost",
            TrainError::Network { .. } => "network failure",
            TrainError::LoadFailed(_) => "load failed",
            TrainError::Diverged { .. } => "diverged",
            TrainError::Internal(_) => "internal invariant",
        }
    }

    /// The iteration the run died in, when the error carries one.
    pub fn iteration(&self) -> Option<u64> {
        match self {
            TrainError::RetriesExhausted { iteration, .. }
            | TrainError::WorkerLost { iteration, .. }
            | TrainError::Network { iteration, .. }
            | TrainError::Diverged { iteration, .. } => Some(*iteration),
            _ => None,
        }
    }

    /// The worker involved, when the error names one.
    pub fn worker(&self) -> Option<usize> {
        match self {
            TrainError::RetriesExhausted { worker, .. } | TrainError::WorkerLost { worker, .. } => {
                Some(*worker)
            }
            _ => None,
        }
    }

    /// Distinct process exit code for each error class, used by the train
    /// CLIs so scripts can branch on *why* a run died without parsing
    /// stderr. Codes start at 10 to stay clear of the conventional 0
    /// (success), 1 (generic failure), and 2 (usage error).
    pub fn exit_code(&self) -> i32 {
        match self {
            TrainError::InvalidPlan(_) => 10,
            TrainError::RetriesExhausted { .. } => 11,
            TrainError::WorkerLost { .. } => 12,
            TrainError::Network { .. } => 13,
            TrainError::LoadFailed(_) => 14,
            TrainError::Diverged { .. } => 15,
            TrainError::Internal(_) => 16,
        }
    }

    /// One actionable line for the operator, printed by the train CLIs
    /// alongside the error itself.
    pub fn advice(&self) -> &'static str {
        match self {
            TrainError::InvalidPlan(_) => {
                "check the failure/chaos plan against --workers (worker ids and probabilities)"
            }
            TrainError::RetriesExhausted { .. } => {
                "raise --deadline-ms or the retry budget, or reduce injected fault rates"
            }
            TrainError::WorkerLost { .. } => {
                "a worker could not be respawned or reloaded; inspect the trace for the fatal fault record"
            }
            TrainError::Network { .. } => {
                "the master's own transport failed; this is a harness bug, not a worker fault — file it"
            }
            TrainError::LoadFailed(_) => {
                "verify the dataset parses and the block stream completed (see stderr above)"
            }
            TrainError::Diverged { .. } => {
                "lower --eta or the batch size; the online monitor halted a runaway loss"
            }
            TrainError::Internal(_) => {
                "a protocol invariant broke; re-run with --trace-out and file the trace"
            }
        }
    }

    /// This terminal error in telemetry's unified fault vocabulary
    /// (`fatal: true`; a worker of 0 means "not worker-specific").
    pub fn to_fault_record(&self) -> columnsgd_cluster::telemetry::FaultRecord {
        let attempt = match self {
            TrainError::RetriesExhausted { attempts, .. } => *attempts,
            _ => 0,
        };
        columnsgd_cluster::telemetry::FaultRecord {
            iteration: self.iteration().unwrap_or(0),
            worker: self.worker().unwrap_or(0) as u64,
            fault: self.class().to_string(),
            detection: self.to_string(),
            detection_latency_s: 0.0,
            recovery_cost_s: 0.0,
            attempt,
            fatal: true,
        }
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidPlan(msg) => write!(f, "invalid failure plan: {msg}"),
            TrainError::RetriesExhausted {
                iteration,
                worker,
                attempts,
            } => write!(
                f,
                "worker {worker} failed {attempts} attempts at iteration {iteration}; \
                 retry budget exhausted"
            ),
            TrainError::WorkerLost {
                worker,
                iteration,
                detail,
            } => write!(
                f,
                "worker {worker} unrecoverable at iteration {iteration}: {detail}"
            ),
            TrainError::Network { iteration, source } => {
                write!(f, "network failure at iteration {iteration}: {source}")
            }
            TrainError::LoadFailed(msg) => write!(f, "data loading failed: {msg}"),
            TrainError::Diverged { iteration, reason } => {
                write!(f, "training halted at iteration {iteration}: {reason}")
            }
            TrainError::Internal(msg) => {
                write!(f, "internal invariant violated: {msg}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Pricing counts a message the master holds; one that cannot be encoded
/// was refused by the router already, so this is a broken invariant.
impl From<CodecError> for TrainError {
    fn from(e: CodecError) -> Self {
        TrainError::Internal(format!("unencodable message: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_helpfully() {
        let e = TrainError::RetriesExhausted {
            iteration: 7,
            worker: 2,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("worker 2"));
        assert!(msg.contains("iteration 7"));

        let e = TrainError::Network {
            iteration: 3,
            source: NetError::Timeout,
        };
        assert!(e.to_string().contains("iteration 3"));
    }

    #[test]
    fn exit_codes_are_distinct_and_reserved_range() {
        let errors = vec![
            TrainError::InvalidPlan("x".into()),
            TrainError::RetriesExhausted {
                iteration: 1,
                worker: 0,
                attempts: 4,
            },
            TrainError::WorkerLost {
                worker: 0,
                iteration: 1,
                detail: "x".into(),
            },
            TrainError::Network {
                iteration: 1,
                source: NetError::Timeout,
            },
            TrainError::LoadFailed("x".into()),
            TrainError::Diverged {
                iteration: 1,
                reason: "x".into(),
            },
            TrainError::Internal("x".into()),
        ];
        let mut codes: Vec<i32> = errors.iter().map(|e| e.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes must be distinct");
        for e in &errors {
            let c = e.exit_code();
            assert!(
                (10..=16).contains(&c),
                "{}: code {c} outside the reserved 10..=16 range",
                e.class()
            );
            assert!(!e.advice().is_empty(), "{} needs advice", e.class());
        }
    }

    #[test]
    fn recovery_event_is_copy_and_comparable() {
        let ev = RecoveryEvent {
            iteration: 5,
            worker: 1,
            fault: FaultKind::WorkerFailure,
            detection: DetectionMethod::PanicReport,
            detection_latency_s: 0.001,
            recovery_cost_s: 23.0,
            attempt: 0,
        };
        let copy = ev;
        assert_eq!(ev, copy);
        assert_eq!(format!("{}", ev.fault), "worker failure");
        assert_eq!(format!("{}", ev.detection), "panic report");
    }
}
