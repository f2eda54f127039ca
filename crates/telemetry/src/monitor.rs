//! Online run diagnostics: streaming detectors evaluated every superstep.
//!
//! The offline half of the diagnostics subsystem ([`crate::analyze`])
//! answers questions about a *finished* trace; this module answers them
//! while the run is still in flight. Engines feed a [`Monitor`] one
//! [`SuperstepObs`] per iteration and the monitor evaluates streaming
//! detectors:
//!
//! * **Straggler alarm** — a worker whose phase time exceeds
//!   `straggler_k × median` over a sliding window (and an absolute floor
//!   that keeps micro-second timer noise from tripping it),
//! * **Loss guard** — NaN/∞ batch loss is surfaced immediately; a finite
//!   loss climbing past `divergence_factor × best-so-far` raises a
//!   divergence alarm. Either can request an early stop, which the
//!   ColumnSGD engine converts into a typed `TrainError`,
//! * **Comm-imbalance gauge** — per-superstep sent-byte deltas per worker,
//!   alarming when `max > comm_k × mean`,
//! * **Partition-skew gauge** — cumulative compute share per worker,
//!   flagging persistently hot partitions once per worker.
//!
//! Detector *decisions* depend only on simulated/injected quantities for
//! seeded runs (the floors exist precisely so real-timer jitter cannot flip
//! them), so two same-seed runs emit the same [`DiagnosticEvent`] stream —
//! compare with [`DiagnosticEvent::canonical`].
//!
//! Like [`crate::Recorder`], the default [`Monitor::disabled`] is a no-op
//! behind a single `Option` check.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use serde_json::{json, Value};

/// Thresholds and windows for the streaming detectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Straggler alarm: worker phase time > `straggler_k × median` over
    /// the sliding window.
    pub straggler_k: f64,
    /// Sliding-window length (supersteps) for the straggler median.
    pub straggler_window: usize,
    /// Absolute floor (seconds) a phase time must also exceed to alarm —
    /// keeps micro-benchmark-scale timer noise from tripping the detector.
    pub straggler_min_s: f64,
    /// Divergence alarm: finite loss > `divergence_factor × best-so-far`.
    pub divergence_factor: f64,
    /// Supersteps to observe before divergence checks arm (the first few
    /// batch losses of a cold model jump around legitimately).
    pub divergence_warmup: u64,
    /// Comm-imbalance alarm: per-superstep sent-byte delta
    /// `max > comm_k × mean`.
    pub comm_k: f64,
    /// Partition-skew flag: cumulative compute share > `skew_k × (1/K)`.
    pub skew_k: f64,
    /// Supersteps to observe before the skew gauge arms.
    pub skew_warmup: u64,
    /// Request an early stop on NaN/∞ loss.
    pub halt_on_nan: bool,
    /// Request an early stop on a divergence alarm.
    pub halt_on_divergence: bool,
    /// Snapshot period: a metrics snapshot is taken every `snapshot_every`
    /// supersteps (and written live when a metrics sink is attached).
    pub snapshot_every: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            straggler_k: 3.0,
            straggler_window: 8,
            straggler_min_s: 1e-3,
            divergence_factor: 3.0,
            divergence_warmup: 3,
            comm_k: 2.0,
            skew_k: 1.5,
            skew_warmup: 4,
            halt_on_nan: true,
            halt_on_divergence: false,
            snapshot_every: 1,
        }
    }
}

/// What a streaming detector observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// A worker's phase time exceeded `straggler_k × median`.
    StragglerAlarm,
    /// The batch loss climbed past `divergence_factor × best-so-far`.
    LossDivergence,
    /// The batch loss left the real line (NaN or ±∞).
    NanLoss,
    /// One worker's sent bytes dominated the superstep.
    CommImbalance,
    /// A worker's cumulative compute share marks its partition as hot.
    PartitionSkew,
}

impl DiagnosticKind {
    /// Stable lowercase name used in metrics snapshots and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagnosticKind::StragglerAlarm => "straggler",
            DiagnosticKind::LossDivergence => "divergence",
            DiagnosticKind::NanLoss => "nan_loss",
            DiagnosticKind::CommImbalance => "comm_imbalance",
            DiagnosticKind::PartitionSkew => "partition_skew",
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticEvent {
    /// Superstep at which the detector fired.
    pub iteration: u64,
    /// Which detector.
    pub kind: DiagnosticKind,
    /// The worker involved, when the detector names one.
    pub worker: Option<u64>,
    /// The observed value (ratio, loss, …; detector-specific).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Human-readable description.
    pub detail: String,
}

impl DiagnosticEvent {
    /// The deterministic identity of the event — iteration, kind, worker —
    /// with measured magnitudes dropped, so two same-seed runs compare
    /// equal even though their wall-clock ratios differ.
    pub fn canonical(&self) -> String {
        format!(
            "{}:{}:{}",
            self.iteration,
            self.kind,
            self.worker.map_or("-".to_string(), |w| w.to_string())
        )
    }

    /// Renders the event as a JSON object (metrics-snapshot vocabulary).
    pub fn to_value(&self) -> Value {
        json!({
            "iter": self.iteration,
            "kind": self.kind.as_str(),
            "worker": self.worker,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        })
    }
}

/// One superstep's observations, fed by the engine after the iteration's
/// barrier resolves. Per-worker slices may be empty when the engine does
/// not track that quantity (the monitor skips the detector).
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperstepObs<'a> {
    /// Iteration (superstep) index.
    pub iteration: u64,
    /// Per-worker compute-phase seconds (post straggler injection).
    pub compute: &'a [f64],
    /// Per-worker *cumulative* sent bytes (the monitor differences
    /// consecutive supersteps itself).
    pub sent_bytes: &'a [u64],
    /// This superstep's batch loss.
    pub loss: f64,
    /// Simulated seconds elapsed at the end of this superstep.
    pub sim_elapsed_s: f64,
}

/// Compact end-of-run diagnostics: every event plus per-kind counts —
/// the `TrainOutcome` section both engines attach.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// Every detector firing, in superstep order.
    pub events: Vec<DiagnosticEvent>,
    /// Straggler alarms raised.
    pub straggler_alarms: u64,
    /// Divergence alarms raised.
    pub divergence_alarms: u64,
    /// NaN/∞-loss alarms raised.
    pub nan_alarms: u64,
    /// Comm-imbalance alarms raised.
    pub comm_alarms: u64,
    /// Partition-skew flags raised.
    pub skew_alarms: u64,
    /// Why the monitor requested an early stop, if it did.
    pub halted: Option<String>,
}

impl Diagnostics {
    /// Total detector firings.
    pub fn total(&self) -> u64 {
        self.straggler_alarms
            + self.divergence_alarms
            + self.nan_alarms
            + self.comm_alarms
            + self.skew_alarms
    }
}

struct MonState {
    window: VecDeque<Vec<f64>>,
    cum_compute: Vec<f64>,
    last_sent: Vec<u64>,
    best_loss: f64,
    observed: u64,
    skew_flagged: Vec<bool>,
    events: Vec<DiagnosticEvent>,
    snapshots: Vec<Value>,
    stop: Option<String>,
    sink: Option<File>,
}

struct MonInner {
    cfg: MonitorConfig,
    state: Mutex<MonState>,
}

/// The online diagnostics handle. Cloning shares the underlying state;
/// [`Monitor::disabled`] (the default) makes every method a no-op behind a
/// single `Option` check.
#[derive(Clone, Default)]
pub struct Monitor {
    inner: Option<Arc<MonInner>>,
}

impl Monitor {
    /// An enabled monitor with the given detector configuration.
    pub fn new(cfg: MonitorConfig) -> Monitor {
        Monitor {
            inner: Some(Arc::new(MonInner {
                cfg,
                state: Mutex::new(MonState {
                    window: VecDeque::new(),
                    cum_compute: Vec::new(),
                    last_sent: Vec::new(),
                    best_loss: f64::INFINITY,
                    observed: 0,
                    skew_flagged: Vec::new(),
                    events: Vec::new(),
                    snapshots: Vec::new(),
                    stop: None,
                    sink: None,
                }),
            })),
        }
    }

    /// The no-op monitor: observes nothing, costs one branch per call.
    pub fn disabled() -> Monitor {
        Monitor { inner: None }
    }

    /// True when detectors are actually being evaluated.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The detector configuration (default when disabled).
    pub fn config(&self) -> MonitorConfig {
        match &self.inner {
            Some(inner) => inner.cfg.clone(),
            None => MonitorConfig::default(),
        }
    }

    /// Attaches a live metrics sink: every snapshot is appended to `path`
    /// as one JSON line and flushed immediately, so the file tails a run
    /// in flight. Parent directories are created as needed.
    pub fn attach_metrics_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        inner.state.lock().unwrap().sink = Some(file);
        Ok(())
    }

    /// Feeds one superstep's observations through every armed detector.
    /// Call once per iteration, after the barrier resolves.
    pub fn observe_superstep(&self, obs: SuperstepObs<'_>) {
        let Some(inner) = &self.inner else { return };
        let cfg = &inner.cfg;
        let mut st = inner.state.lock().unwrap();
        let st = &mut *st;
        st.observed += 1;

        // --- straggler alarm + partition-skew gauge -------------------
        if !obs.compute.is_empty() {
            st.window.push_back(obs.compute.to_vec());
            while st.window.len() > cfg.straggler_window.max(1) {
                st.window.pop_front();
            }
            let mut all: Vec<f64> = st.window.iter().flatten().copied().collect();
            all.sort_by(|a, b| a.partial_cmp(b).expect("finite phase times"));
            let median = all[all.len() / 2];
            for (w, &t) in obs.compute.iter().enumerate() {
                if t > cfg.straggler_k * median && t > cfg.straggler_min_s {
                    let ratio = if median > 0.0 {
                        t / median
                    } else {
                        f64::INFINITY
                    };
                    st.events.push(DiagnosticEvent {
                        iteration: obs.iteration,
                        kind: DiagnosticKind::StragglerAlarm,
                        worker: Some(w as u64),
                        value: ratio,
                        threshold: cfg.straggler_k,
                        detail: format!(
                            "worker {w} compute {t:.4}s is {ratio:.1}x the \
                             {}-superstep median {median:.4}s",
                            st.window.len()
                        ),
                    });
                }
            }

            if st.cum_compute.len() < obs.compute.len() {
                st.cum_compute.resize(obs.compute.len(), 0.0);
                st.skew_flagged.resize(obs.compute.len(), false);
            }
            let mut total = 0.0;
            for (acc, &t) in st.cum_compute.iter_mut().zip(obs.compute) {
                *acc += t;
                total += *acc;
            }
            if st.observed > cfg.skew_warmup && total > 0.0 {
                let fair = 1.0 / obs.compute.len() as f64;
                for w in 0..obs.compute.len() {
                    let share = st.cum_compute[w] / total;
                    if share > cfg.skew_k * fair && !st.skew_flagged[w] {
                        st.skew_flagged[w] = true;
                        st.events.push(DiagnosticEvent {
                            iteration: obs.iteration,
                            kind: DiagnosticKind::PartitionSkew,
                            worker: Some(w as u64),
                            value: share,
                            threshold: cfg.skew_k * fair,
                            detail: format!(
                                "worker {w} holds {:.0}% of cumulative compute \
                                 (fair share {:.0}%) — hot partition",
                                100.0 * share,
                                100.0 * fair
                            ),
                        });
                    }
                }
            }
        }

        // --- comm-imbalance gauge -------------------------------------
        let mut comm_imbalance = 1.0f64;
        if !obs.sent_bytes.is_empty() {
            if st.last_sent.len() < obs.sent_bytes.len() {
                st.last_sent.resize(obs.sent_bytes.len(), 0);
            }
            let deltas: Vec<u64> = obs
                .sent_bytes
                .iter()
                .zip(st.last_sent.iter())
                .map(|(&now, &before)| now.saturating_sub(before))
                .collect();
            st.last_sent.copy_from_slice(obs.sent_bytes);
            let sum: u64 = deltas.iter().sum();
            if sum > 0 {
                let mean = sum as f64 / deltas.len() as f64;
                let (hot, &max) = deltas
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &b)| b)
                    .expect("nonempty deltas");
                comm_imbalance = max as f64 / mean;
                if comm_imbalance > cfg.comm_k {
                    st.events.push(DiagnosticEvent {
                        iteration: obs.iteration,
                        kind: DiagnosticKind::CommImbalance,
                        worker: Some(hot as u64),
                        value: comm_imbalance,
                        threshold: cfg.comm_k,
                        detail: format!(
                            "worker {hot} sent {max} B this superstep, \
                             {comm_imbalance:.1}x the mean {mean:.0} B"
                        ),
                    });
                }
            }
        }

        // --- loss guard ------------------------------------------------
        if !obs.loss.is_finite() {
            st.events.push(DiagnosticEvent {
                iteration: obs.iteration,
                kind: DiagnosticKind::NanLoss,
                worker: None,
                value: obs.loss,
                threshold: 0.0,
                detail: format!("batch loss left the real line ({}) ", obs.loss),
            });
            if cfg.halt_on_nan && st.stop.is_none() {
                st.stop = Some(format!(
                    "non-finite batch loss ({}) at iteration {}",
                    obs.loss, obs.iteration
                ));
            }
        } else {
            if obs.iteration >= cfg.divergence_warmup
                && st.best_loss.is_finite()
                && st.best_loss > 0.0
                && obs.loss > cfg.divergence_factor * st.best_loss
            {
                st.events.push(DiagnosticEvent {
                    iteration: obs.iteration,
                    kind: DiagnosticKind::LossDivergence,
                    worker: None,
                    value: obs.loss,
                    threshold: cfg.divergence_factor * st.best_loss,
                    detail: format!(
                        "batch loss {:.6} exceeds {:.1}x the best-so-far {:.6}",
                        obs.loss, cfg.divergence_factor, st.best_loss
                    ),
                });
                if cfg.halt_on_divergence && st.stop.is_none() {
                    st.stop = Some(format!(
                        "diverging batch loss ({:.6} > {:.1}x best {:.6}) at iteration {}",
                        obs.loss, cfg.divergence_factor, st.best_loss, obs.iteration
                    ));
                }
            }
            st.best_loss = st.best_loss.min(obs.loss);
        }

        // --- periodic metrics snapshot --------------------------------
        if obs.iteration.is_multiple_of(cfg.snapshot_every.max(1)) {
            let snap = json!({
                "type": "metrics",
                "iter": obs.iteration,
                "sim_elapsed_s": obs.sim_elapsed_s,
                "loss": if obs.loss.is_finite() { json!(obs.loss) } else { json!(obs.loss.to_string()) },
                "best_loss": if st.best_loss.is_finite() { json!(st.best_loss) } else { Value::Null },
                "compute_per_worker": obs.compute,
                "comm_imbalance": comm_imbalance,
                "alarms_total": st.events.len(),
            });
            if let Some(sink) = st.sink.as_mut() {
                // Live sink: best-effort, never fail the training loop.
                let _ = writeln!(sink, "{snap}");
                // lint: allow(blocking-under-lock) the sink File lives inside `state` and only the master's observe call writes it; no cross-thread contention exists
                let _ = sink.flush();
            }
            st.snapshots.push(snap);
        }
    }

    /// Why the monitor wants the run stopped, if it does.
    pub fn should_stop(&self) -> Option<String> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.state.lock().unwrap().stop.clone())
    }

    /// Every detector firing so far, in superstep order.
    pub fn events(&self) -> Vec<DiagnosticEvent> {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().events.clone(),
            None => Vec::new(),
        }
    }

    /// The deterministic identity of the event stream (see
    /// [`DiagnosticEvent::canonical`]).
    pub fn canonical_events(&self) -> Vec<String> {
        self.events()
            .iter()
            .map(DiagnosticEvent::canonical)
            .collect()
    }

    /// Metric snapshots taken so far.
    pub fn snapshots(&self) -> Vec<Value> {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().snapshots.clone(),
            None => Vec::new(),
        }
    }

    /// The compact end-of-run [`Diagnostics`] section.
    pub fn report(&self) -> Diagnostics {
        let Some(inner) = &self.inner else {
            return Diagnostics::default();
        };
        let st = inner.state.lock().unwrap();
        let mut d = Diagnostics {
            events: st.events.clone(),
            halted: st.stop.clone(),
            ..Diagnostics::default()
        };
        for e in &st.events {
            match e.kind {
                DiagnosticKind::StragglerAlarm => d.straggler_alarms += 1,
                DiagnosticKind::LossDivergence => d.divergence_alarms += 1,
                DiagnosticKind::NanLoss => d.nan_alarms += 1,
                DiagnosticKind::CommImbalance => d.comm_alarms += 1,
                DiagnosticKind::PartitionSkew => d.skew_alarms += 1,
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(iteration: u64, compute: &'a [f64], sent: &'a [u64], loss: f64) -> SuperstepObs<'a> {
        SuperstepObs {
            iteration,
            compute,
            sent_bytes: sent,
            loss,
            sim_elapsed_s: iteration as f64,
        }
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let m = Monitor::disabled();
        assert!(!m.is_enabled());
        m.observe_superstep(obs(0, &[1.0, 9.0], &[1, 100], f64::NAN));
        assert!(m.events().is_empty());
        assert!(m.should_stop().is_none());
        assert_eq!(m.report(), Diagnostics::default());
    }

    #[test]
    fn straggler_alarm_trips_above_k_times_median() {
        let m = Monitor::new(MonitorConfig {
            straggler_k: 3.0,
            straggler_min_s: 0.0,
            skew_warmup: 100, // isolate the straggler detector
            ..MonitorConfig::default()
        });
        // Warm the window with balanced supersteps.
        for t in 0..4 {
            m.observe_superstep(obs(t, &[0.1, 0.1, 0.1, 0.1], &[], 1.0));
        }
        assert!(m.events().is_empty());
        // Worker 2 takes 5x the median: alarm.
        m.observe_superstep(obs(4, &[0.1, 0.1, 0.5, 0.1], &[], 1.0));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, DiagnosticKind::StragglerAlarm);
        assert_eq!(evs[0].worker, Some(2));
        assert_eq!(evs[0].iteration, 4);
        assert!(evs[0].value > 3.0);
        assert_eq!(evs[0].canonical(), "4:straggler:2");
    }

    #[test]
    fn straggler_floor_suppresses_micro_noise() {
        let m = Monitor::new(MonitorConfig {
            straggler_k: 3.0,
            straggler_min_s: 1e-3,
            skew_warmup: 100, // isolate the straggler detector
            ..MonitorConfig::default()
        });
        // A 10x spike that is still below the absolute floor: no alarm.
        for t in 0..4 {
            m.observe_superstep(obs(t, &[2e-6, 2e-6, 2e-6, 2e-6], &[], 1.0));
        }
        m.observe_superstep(obs(4, &[2e-6, 2e-5, 2e-6, 2e-6], &[], 1.0));
        assert!(m.events().is_empty());
    }

    #[test]
    fn nan_loss_is_surfaced_and_requests_stop() {
        let m = Monitor::new(MonitorConfig::default());
        m.observe_superstep(obs(0, &[], &[], 0.7));
        assert!(m.should_stop().is_none());
        m.observe_superstep(obs(1, &[], &[], f64::NAN));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, DiagnosticKind::NanLoss);
        let stop = m.should_stop().expect("halt requested");
        assert!(stop.contains("iteration 1"), "unhelpful reason: {stop}");
        let d = m.report();
        assert_eq!(d.nan_alarms, 1);
        assert_eq!(d.halted, Some(stop));
    }

    #[test]
    fn divergence_alarm_after_warmup() {
        let m = Monitor::new(MonitorConfig {
            divergence_factor: 2.0,
            divergence_warmup: 2,
            halt_on_divergence: true,
            ..MonitorConfig::default()
        });
        // Pre-warmup jumps are ignored.
        m.observe_superstep(obs(0, &[], &[], 1.0));
        m.observe_superstep(obs(1, &[], &[], 5.0));
        assert!(m.events().is_empty());
        m.observe_superstep(obs(2, &[], &[], 0.5));
        // 0.5 is the best; 1.2 > 2 × 0.5 diverges.
        m.observe_superstep(obs(3, &[], &[], 1.2));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, DiagnosticKind::LossDivergence);
        assert!(m.should_stop().is_some());
    }

    #[test]
    fn comm_imbalance_uses_per_superstep_deltas() {
        let m = Monitor::new(MonitorConfig {
            comm_k: 2.0,
            ..MonitorConfig::default()
        });
        // Cumulative bytes: balanced first superstep.
        m.observe_superstep(obs(0, &[], &[100, 100, 100, 100], 1.0));
        assert!(m.events().is_empty());
        // Second superstep: worker 3's *delta* (600 B) dwarfs the others'
        // (10 B each) even though its cumulative total is comparable.
        m.observe_superstep(obs(1, &[], &[110, 110, 110, 700], 1.0));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, DiagnosticKind::CommImbalance);
        assert_eq!(evs[0].worker, Some(3));
    }

    #[test]
    fn partition_skew_flags_once_per_worker() {
        let m = Monitor::new(MonitorConfig {
            skew_k: 1.5,
            skew_warmup: 2,
            straggler_k: 100.0, // keep the straggler detector quiet
            ..MonitorConfig::default()
        });
        for t in 0..8 {
            m.observe_superstep(obs(t, &[0.4, 0.1, 0.1, 0.1], &[], 1.0));
        }
        let skew: Vec<_> = m
            .events()
            .into_iter()
            .filter(|e| e.kind == DiagnosticKind::PartitionSkew)
            .collect();
        assert_eq!(skew.len(), 1, "skew must flag once, not every superstep");
        assert_eq!(skew[0].worker, Some(0));
    }

    #[test]
    fn snapshots_respect_period_and_sink_writes_jsonl() {
        let m = Monitor::new(MonitorConfig {
            snapshot_every: 2,
            ..MonitorConfig::default()
        });
        let dir = std::env::temp_dir().join("columnsgd-monitor-test");
        let path = dir.join("metrics.jsonl");
        m.attach_metrics_out(&path).expect("sink");
        for t in 0..6 {
            m.observe_superstep(obs(t, &[0.1, 0.1], &[10, 10], 1.0));
        }
        assert_eq!(m.snapshots().len(), 3, "iterations 0, 2, 4");
        let written = std::fs::read_to_string(&path).expect("sink file");
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_inputs_give_identical_canonical_streams() {
        let run = || {
            let m = Monitor::new(MonitorConfig {
                straggler_min_s: 0.0,
                ..MonitorConfig::default()
            });
            for t in 0..10 {
                let spike = if t % 3 == 0 { 1.0 } else { 0.1 };
                m.observe_superstep(obs(t, &[0.1, spike, 0.1], &[], 1.0 / (t + 1) as f64));
            }
            m.canonical_events()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }
}
