//! The master runtime every paradigm runs on: what a BSP master does
//! without knowing its message type, written once for ColumnSGD's
//! `MasterCore` and the RowSGD baselines — the worker host, the mailbox,
//! the slot barrier, the superstep tail (spans → kernel record → clock →
//! curve → metrics → live tail → monitor), the end-of-train trace↔meter
//! check, fatal-fault recording, and stop-on-drop. An engine supplies its
//! message type, its launcher and its step bodies; what differs between
//! engines arrives as arguments, never as a branch.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::telemetry::{KernelRecord, MetricsRegistry, Phase, SuperstepSpan};
use columnsgd_cluster::{
    ChaosSpec, ClusterConfig, Endpoint, Envelope, Host, Launcher, Monitor, NetError, NodeId,
    Recorder, SimClock, SuperstepObs, TrafficStats, WireCodec,
};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::ModelSpec;

use crate::error::TrainError;

/// One finished superstep's measurements, handed to
/// [`Runtime::finish_superstep`]. Per-slot slices are indexed by worker
/// slot, and `compute_times` has one entry per slot.
pub struct Superstep<'a> {
    /// Iteration number.
    pub t: u64,
    /// Telemetry-only: the sampling/assembly slice of each compute time.
    pub sample_times: &'a [f64],
    /// Per-slot statistics (or gradient) compute seconds.
    pub compute_times: &'a [f64],
    /// What the monitor's straggler detector sees per slot.
    pub observed: &'a [f64],
    /// Effective compute-phase seconds (the slowest lane that counts).
    pub stat_phase: f64,
    /// `(modeled seconds from metered bytes, measured barrier wall)`.
    pub gather: (f64, f64),
    /// `(modeled seconds, measured barrier wall)`.
    pub bcast: (f64, f64),
    /// Per-slot update seconds.
    pub update_times: &'a [f64],
    /// Effective update-phase seconds.
    pub upd_phase: f64,
    /// The per-superstep scheduling constant of the system being modeled.
    pub overhead_s: f64,
    /// Simulated seconds of detection waits and recovery this iteration.
    pub charge: f64,
    /// Batch loss.
    pub loss: f64,
    /// Kernel record: the model trained.
    pub model: ModelSpec,
    /// Kernel record: the global batch size.
    pub batch_size: usize,
    /// Kernel record: kernel threads per worker.
    pub pool_width: usize,
    /// Kernel record: replies folded into the aggregate (flops proxy).
    pub counted: usize,
}

/// A slot barrier that ended before every slot answered.
#[derive(Debug)]
pub struct Stalled {
    /// Slots that did answer.
    pub got: usize,
    /// Why the wait ended (the deadline, or a dead mailbox).
    pub source: NetError,
}

/// The message-generic half of a master: mailbox, worker host, meter and
/// observation sinks.
pub struct Runtime<M: WireCodec + Clone + Send + 'static> {
    /// The master's endpoint.
    pub master: Endpoint<M>,
    /// Where the worker slots run (threads or processes).
    pub(crate) host: Host<M>,
    /// Messages received while waiting for something more specific;
    /// drained before the mailbox.
    pub(crate) pending: VecDeque<Envelope<M>>,
    /// The router's byte meter.
    pub traffic: TrafficStats,
    /// The telemetry trace.
    pub recorder: Recorder,
    /// The online diagnostics monitor (disabled unless attached).
    pub monitor: Monitor,
    /// Prometheus-style exposition registry (off unless attached). Fed once
    /// per superstep from already-collected observations, so the data plane
    /// pays nothing for it.
    metrics: Option<MetricsRegistry>,
    /// Cumulative (bytes, messages) already exported to the metrics
    /// counters; `TrafficStats::total` is cumulative and counters only
    /// accept deltas.
    metrics_last_traffic: (u64, u64),
    /// The message that ends a worker's loop, sent when the runtime drops.
    shutdown: M,
}

impl<M: WireCodec + Clone + Send + 'static> Runtime<M> {
    /// Brings the cluster up on the backend `cluster` selects — a master
    /// endpoint plus `slots` worker slots, the first `initial` of them
    /// started by `launcher` and connected within `connect_wait`.
    /// `shutdown` is the message that ends a worker's loop.
    ///
    /// # Errors
    /// [`TrainError::LoadFailed`] when the TCP backend cannot find, spawn
    /// or connect its worker processes; what was spawned is killed and the
    /// hub closed.
    #[allow(clippy::too_many_arguments)] // internal assembly step
    pub fn bring_up(
        slots: usize,
        initial: usize,
        cluster: &ClusterConfig,
        chaos: Option<ChaosSpec>,
        recorder: Recorder,
        launcher: impl Launcher<M> + 'static,
        connect_wait: Duration,
        shutdown: M,
    ) -> Result<Self, TrainError> {
        let traffic = TrafficStats::new();
        let (master, mut host) = Host::bring_up(
            slots,
            cluster,
            traffic.clone(),
            chaos,
            recorder.clone(),
            launcher,
        )
        .map_err(TrainError::LoadFailed)?;
        host.start_all(0..initial, connect_wait)
            .map_err(TrainError::LoadFailed)?;
        Ok(Self {
            master,
            host,
            pending: VecDeque::new(),
            traffic,
            recorder,
            monitor: Monitor::disabled(),
            metrics: None,
            metrics_last_traffic: (0, 0),
            shutdown,
        })
    }

    /// Pops a buffered message, or waits on the mailbox until the
    /// *absolute* deadline.
    ///
    /// The deadline is an [`Instant`], not a per-call budget: callers set
    /// it once when they start (or make progress on) a barrier and pass
    /// the same value back on every retry. A per-call `Duration` would
    /// restart the full detection window on every received message, so a
    /// trickle of stray traffic (chaos duplicates, late replies from
    /// earlier iterations) could postpone fault detection indefinitely.
    pub(crate) fn recv_next(&mut self, deadline: Instant) -> Result<Envelope<M>, NetError> {
        if let Some(env) = self.pending.pop_front() {
            return Ok(env);
        }
        #[expect(clippy::disallowed_methods, reason = "mailbox deadline")]
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Timeout);
        }
        self.master.recv_timeout(left)
    }

    /// Waits up to `wait` for the first message `wanted` accepts and
    /// returns it, buffering everything else (in-flight training traffic)
    /// for the caller's main loop. `Ok(None)` on timeout.
    ///
    /// # Errors
    /// [`TrainError::Network`] (attributed to iteration `t`) when the
    /// master's own mailbox fails.
    pub(crate) fn await_reply(
        &mut self,
        t: u64,
        wait: Duration,
        wanted: impl Fn(&M) -> bool,
    ) -> Result<Option<Envelope<M>>, TrainError> {
        #[expect(clippy::disallowed_methods, reason = "mailbox deadline")]
        let deadline = Instant::now() + wait;
        loop {
            #[expect(clippy::disallowed_methods, reason = "mailbox deadline")]
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            match self.master.recv_timeout(left) {
                Ok(env) if wanted(&env.payload) => return Ok(Some(env)),
                Ok(env) => self.pending.push_back(env),
                Err(NetError::Timeout) => return Ok(None),
                Err(source) => {
                    return Err(TrainError::Network {
                        iteration: t,
                        source,
                    })
                }
            }
        }
    }

    /// The slot barrier: collects one answer for each of `n` slots and
    /// returns them in slot order. `answer` maps a message to `(slot,
    /// value)`, or to `None` when it answers nothing here.
    ///
    /// The deadline is absolute and only progress — a first answer from a
    /// slot — refreshes it by `wait`. A duplicate from an answered slot is
    /// counted once; a stray (`None`, or a slot out of range) is logged
    /// and dropped, naming `phase`. Neither moves the deadline.
    ///
    /// Answers are kept per slot rather than in arrival order, so a fold
    /// over them is independent of thread or socket scheduling.
    ///
    /// # Errors
    /// [`Stalled`] when the deadline passes (or the mailbox dies) first;
    /// the caller turns it into the [`TrainError`] its phase warrants.
    pub fn await_slots<T>(
        &mut self,
        n: usize,
        wait: Duration,
        phase: &str,
        mut answer: impl FnMut(M) -> Option<(usize, T)>,
    ) -> Result<Vec<T>, Stalled> {
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut got = 0;
        #[expect(clippy::disallowed_methods, reason = "slot-barrier deadline")]
        let mut deadline = Instant::now() + wait;
        while got < n {
            let env = self
                .recv_next(deadline)
                .map_err(|source| Stalled { got, source })?;
            let kind = env.payload.kind();
            let answered = answer(env.payload).and_then(|(i, v)| Some((slots.get_mut(i)?, v)));
            match answered {
                Some((open, value)) if open.is_none() => {
                    *open = Some(value);
                    got += 1;
                    #[expect(clippy::disallowed_methods, reason = "slot-barrier deadline")]
                    let now = Instant::now();
                    deadline = now + wait;
                }
                Some(_) => {} // a duplicate: this slot already counted
                None => eprintln!("master: dropping unexpected {kind} during {phase}"),
            }
        }
        Ok(slots.into_iter().flatten().collect())
    }

    /// The tail every superstep ends with, in this order: trace spans and
    /// the kernel record, the simulated clock, the convergence curve, the
    /// metrics export, the live trace tail, and the online monitor.
    /// Returns the monitor's stop reason, if its loss guard tripped.
    pub fn finish_superstep(
        &mut self,
        s: &Superstep<'_>,
        clock: &mut SimClock,
        curve: &mut Curve,
    ) -> Option<String> {
        if self.recorder.is_enabled() {
            self.emit_superstep(s);
        }
        if s.charge > 0.0 {
            clock.charge(s.charge);
        }
        clock.record(IterationTime {
            compute_s: s.stat_phase + s.upd_phase,
            comm_s: s.gather.0 + s.bcast.0,
            overhead_s: s.overhead_s,
        });
        curve.push(s.t, clock.elapsed_s(), s.loss);
        self.export_metrics(s.loss, clock.elapsed_s(), s.compute_times, s.stat_phase);
        // Live tail: append this superstep's merged events to the attached
        // trace file (no-op unless a sink is attached). A full disk must
        // not kill training.
        let _ = self.recorder.flush_live();

        if !self.monitor.is_enabled() {
            return None;
        }
        // The straggler detector sees the post-injection compute times
        // (what the barrier actually paid); the comm gauge sees cumulative
        // sent bytes and differences them itself.
        let sent: Vec<u64> = self
            .traffic
            .per_worker_sent(s.compute_times.len())
            .iter()
            .map(|s| s.bytes)
            .collect();
        self.monitor.observe_superstep(SuperstepObs {
            iteration: s.t,
            compute: s.observed,
            sent_bytes: &sent,
            loss: s.loss,
            sim_elapsed_s: clock.elapsed_s(),
        });
        self.monitor.should_stop()
    }

    /// Emits the six per-iteration [`SuperstepSpan`]s plus the
    /// [`KernelRecord`] for the statistics kernel. Sample is an
    /// informational *subset* of compute (same timer); gather/broadcast
    /// carry both the modeled time (from metered bytes) and the measured
    /// wall-clock the master actually spent on the barrier — the
    /// `transport_xval` experiment compares the two across backends;
    /// overhead folds in the scheduling constant plus this iteration's
    /// recovery charge, so the six spans sum to exactly the clock's delta
    /// for the iteration.
    fn emit_superstep(&self, s: &Superstep<'_>) {
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        let spans = [
            (Phase::Sample, max(s.sample_times), 0.0, s.sample_times),
            (Phase::Compute, s.stat_phase, 0.0, s.compute_times),
            (Phase::Gather, s.gather.0, s.gather.1, &[] as &[f64]),
            (Phase::Broadcast, s.bcast.0, s.bcast.1, &[]),
            (Phase::Update, s.upd_phase, 0.0, s.update_times),
            (Phase::Overhead, s.overhead_s + s.charge, 0.0, &[]),
        ];
        for (phase, sim_s, wall_s, per_worker) in spans {
            self.recorder.superstep(SuperstepSpan {
                iteration: s.t,
                phase,
                sim_s,
                measured_s: if phase.is_timer_derived() {
                    sim_s
                } else {
                    wall_s
                },
                per_worker: per_worker.to_vec(),
            });
        }
        self.recorder.kernel(KernelRecord {
            iteration: s.t,
            model: s.model.label().to_string(),
            batch_size: s.batch_size as u64,
            pool_width: s.pool_width as u64,
            flops_proxy: s.model.flops_proxy(s.batch_size, s.counted),
            worker: None,
        });
    }

    /// Attaches a [`MetricsRegistry`]: registers the metric families and,
    /// from then on, exports one sample set per superstep from
    /// observations the engine already collects — the data plane is never
    /// metered twice.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        metrics.register_counter("columnsgd_supersteps_total", "Completed supersteps.");
        metrics.register_gauge("columnsgd_loss", "Batch loss at the latest superstep.");
        metrics.register_gauge(
            "columnsgd_sim_elapsed_seconds",
            "Simulated seconds elapsed on the cost-model clock.",
        );
        metrics.register_gauge(
            "columnsgd_worker_compute_seconds",
            "Latest statistics-phase compute seconds, per worker.",
        );
        metrics.register_gauge(
            "columnsgd_monitor_alarms_total",
            "Diagnostics alarms raised so far (0 unless a monitor is attached).",
        );
        metrics.register_counter(
            "columnsgd_comm_bytes_total",
            "Bytes metered by the router across all deliveries.",
        );
        metrics.register_counter(
            "columnsgd_comm_messages_total",
            "Messages metered by the router across all deliveries.",
        );
        metrics.register_histogram(
            "columnsgd_superstep_compute_seconds",
            "Effective statistics-phase (barrier) seconds per superstep.",
            &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
        );
        self.metrics = Some(metrics);
    }

    /// Per-superstep metrics export (no-op unless a registry is attached).
    /// Counters take deltas against the cumulative router meter;
    /// everything else is a point sample of state the superstep already
    /// computed.
    fn export_metrics(
        &mut self,
        loss: f64,
        sim_elapsed_s: f64,
        compute_times: &[f64],
        stat_phase: f64,
    ) {
        let Some(m) = &self.metrics else { return };
        m.counter_add("columnsgd_supersteps_total", &[], 1.0);
        m.gauge_set("columnsgd_loss", &[], loss);
        m.gauge_set("columnsgd_sim_elapsed_seconds", &[], sim_elapsed_s);
        for (w, &c) in compute_times.iter().enumerate() {
            let label = w.to_string();
            m.gauge_set("columnsgd_worker_compute_seconds", &[("worker", &label)], c);
        }
        m.histogram_observe("columnsgd_superstep_compute_seconds", &[], stat_phase);
        let total = self.traffic.total();
        let (last_bytes, last_msgs) = self.metrics_last_traffic;
        m.counter_add(
            "columnsgd_comm_bytes_total",
            &[],
            total.bytes.saturating_sub(last_bytes) as f64,
        );
        m.counter_add(
            "columnsgd_comm_messages_total",
            &[],
            total.messages.saturating_sub(last_msgs) as f64,
        );
        self.metrics_last_traffic = (total.bytes, total.messages);
        if self.monitor.is_enabled() {
            m.gauge_set(
                "columnsgd_monitor_alarms_total",
                &[],
                self.monitor.report().total() as f64,
            );
        }
    }

    /// Closes a completed training loop: folds the master-side profiler
    /// accumulation (engine phases, codec, kernel scopes on hub and
    /// in-process worker threads) into the trace as `prof` events —
    /// worker-process samples already arrived, causally ordered before
    /// each superstep's barrier replies — and checks the trace against the
    /// meter.
    ///
    /// # Errors
    /// [`TrainError::Internal`] when the trace's comm records do not
    /// reconcile *exactly* with the router's byte meter (one `CommRecord`
    /// per metered delivery, by construction).
    pub fn finish_train(&self) -> Result<(), TrainError> {
        self.recorder.prof_drain(None);
        if self.recorder.is_enabled() {
            let s = self.recorder.summary();
            let total = self.traffic.total();
            if (s.comm_bytes, s.comm_messages) != (total.bytes, total.messages) {
                return Err(TrainError::Internal(format!(
                    "telemetry comm records diverge from router metering: \
                     trace {}B/{} vs meter {}B/{}",
                    s.comm_bytes, s.comm_messages, total.bytes, total.messages
                )));
            }
        }
        Ok(())
    }

    /// Passes a run's outcome through, filing a terminal error on the
    /// telemetry fault stream as a `fatal: true` record — one vocabulary
    /// for recovered and unrecoverable faults.
    pub fn record_fatal<T>(&self, out: Result<T, TrainError>) -> Result<T, TrainError> {
        if let Err(e) = &out {
            self.recorder.fault(e.to_fault_record());
        }
        out
    }
}

impl<M: WireCodec + Clone + Send + 'static> Drop for Runtime<M> {
    fn drop(&mut self) {
        for w in self.host.running() {
            // Reliable plane: a chaos-dropped Shutdown would hang the join.
            // Workers may already be gone; ignore errors.
            let stop = self.shutdown.clone();
            let _ = self.master.send_reliable(NodeId::Worker(w), stop);
        }
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::net::SocketAddr;
    use std::thread::JoinHandle;

    use super::*;

    /// Slots that are registered but never started.
    struct NoWorkers;

    impl Launcher<u64> for NoWorkers {
        fn worker_bin(&self) -> &'static str {
            unreachable!("never started")
        }
        fn thread(&self, _: usize, _: Endpoint<u64>) -> std::io::Result<JoinHandle<()>> {
            unreachable!("never started")
        }
        fn boot_line(&self, _: usize, _: SocketAddr) -> String {
            unreachable!("never started")
        }
    }

    /// A runtime over `slots` idle in-process slots, plus a way to put
    /// `v` in the master's mailbox as if worker `w` had sent it.
    fn idle(slots: usize) -> (Runtime<u64>, impl Fn(usize, u64)) {
        let cluster = ClusterConfig::in_proc();
        let wait = Duration::ZERO;
        let rt = Runtime::bring_up(
            slots,
            0,
            &cluster,
            None,
            Recorder::disabled(),
            NoWorkers,
            wait,
            0,
        )
        .expect("in-process bring-up");
        let router = rt.master.router().clone();
        let send = move |w, v| {
            let sent = router.send(NodeId::Worker(w), NodeId::Master, v);
            sent.expect("master mailbox is open");
        };
        (rt, send)
    }

    /// Values below 100 answer slot `v / 10`; the rest are strays.
    fn answer(v: u64) -> Option<(usize, u64)> {
        (v < 100).then_some(((v / 10) as usize, v))
    }

    #[test]
    fn slot_barrier_keeps_slot_order_and_counts_a_duplicate_once() {
        let (mut rt, send) = idle(2);
        for (w, v) in [(1, 11), (1, 12), (0, 500), (0, 3)] {
            send(w, v);
        }
        let got = rt.await_slots(2, Duration::from_secs(10), "test", answer);
        assert_eq!(got.expect("both slots answered"), vec![3, 11]);
        // The duplicate was consumed, not left for the next barrier.
        assert!(rt.master.try_recv().is_none());
    }

    #[test]
    fn slot_barrier_hands_a_stall_to_the_caller() {
        let (mut rt, send) = idle(2);
        for (w, v) in [(0, 1), (0, 2), (1, 700)] {
            send(w, v);
        }
        let stalled = rt.await_slots(2, Duration::from_millis(20), "test", answer);
        match stalled {
            Err(Stalled {
                got: 1,
                source: NetError::Timeout,
            }) => {}
            other => panic!("expected a stall after one slot, got {other:?}"),
        }
    }
}
