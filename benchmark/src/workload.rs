//! The four workloads. Names are final: later PRs are judged on them.

use crate::adapter::{Job, Model, K};

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (goes to `BENCHMARK.json`).
    pub why: &'static str,
    model: Model,
    eta: f64,
    iters: u64,
    tcp: bool,
    row: bool,
}

/// T is sized so one `train()` takes 1.2–1.6 s on the reference machine.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "lr_inproc",
        why: "LR on in-process channels: sampling, kernels, reduce and thread hand-off do all the work, nothing is serialised, so a codec or socket change must not move it",
        model: Model::Lr,
        eta: 0.5,
        iters: 1500,
        tcp: false,
        row: false,
    },
    Workload {
        name: "lr_tcp",
        why: "the identical LR job over worker processes on loopback TCP: the difference to lr_inproc is the wire with small 16 KB frames, where per-frame cost dominates bandwidth",
        model: Model::Lr,
        eta: 0.5,
        iters: 1500,
        tcp: true,
        row: false,
    },
    Workload {
        name: "fm_tcp",
        why: "FM with 10 factors over TCP: statistics are 11x wider (176 KB frames) and the update kernel is most of the step, so kernel work and codec bandwidth pay here",
        model: Model::Fm10,
        eta: 0.05,
        iters: 300,
        tcp: true,
        row: false,
    },
    Workload {
        name: "mllib_tcp",
        why: "the RowSGD MLlib baseline on the same codec and transport: 8 MB dense model and gradient frames, 32 MB per step, so a wire change tuned for small frames that costs large ones shows",
        model: Model::Lr,
        eta: 0.5,
        iters: 40,
        tcp: true,
        row: true,
    },
];

/// Supersteps of the traced replay.
const REPLAY_STEPS: u64 = 200;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// The training job. `quick` cuts T to a tenth for the smoke mode.
    pub fn job(&self, seed: u64, quick: bool) -> Job {
        Job {
            model: self.model,
            eta: self.eta,
            iters: if quick { self.iters / 10 } else { self.iters },
            tcp: self.tcp,
            row: self.row,
            k: K,
            seed,
        }
    }

    /// The job the measured engines of a round train: the first fifth of
    /// the supersteps (a quarter for the 40-step MLlib job).
    pub fn measured_job(&self, seed: u64, quick: bool) -> Job {
        let full = self.job(seed, quick);
        Job {
            iters: (full.iters / if self.row { 4 } else { 5 }).max(1),
            ..full
        }
    }

    /// The same job cut to the replay's length.
    pub fn replay_job(&self, seed: u64, quick: bool) -> Job {
        let full = self.job(seed, quick);
        Job {
            iters: full.iters.min(if quick { 20 } else { REPLAY_STEPS }),
            ..full
        }
    }
}
