//! In-memory spans around the layer calls of the traced replay.
//!
//! A span is (name, start, end, parent, superstep id, lane). Spans are kept
//! in memory and written out once, when the replay ends. Self time is a
//! span's duration minus the part its children cover; the critical path of
//! a superstep is what the master did plus, for each stretch where the
//! workers run side by side, the slowest worker.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// Who would execute a span in the real engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The master thread: serial, always on the critical path.
    Master,
    /// Worker `w`: runs beside the other workers until the next barrier.
    Worker(usize),
    /// Bookkeeping (the superstep root): not part of any path.
    Off,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub step: u64,
    pub lane: Lane,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, step: u64, lane: Lane) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step,
            lane,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        step: u64,
        lane: Lane,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, step, lane);
        let out = f();
        self.exit();
        out
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let own = self_times_ns(&self.spans);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let lane = match s.lane {
                    Lane::Master => "master".to_string(),
                    Lane::Worker(w) => format!("worker{w}"),
                    Lane::Off => "off".to_string(),
                };
                json!({
                    "id": id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "self_ns": own[id], "parent": s.parent.map(|p| p as u64), "step": s.step, "lane": lane,
                })
            })
            .collect();
        json!({"workload": workload, "spans": spans})
    }
}

/// Per span, its duration minus the time its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Critical-path length and barrier skew of one superstep, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPath {
    pub critical_ns: u64,
    /// Summed over the parallel stretches: slowest minus fastest worker.
    pub skew_ns: u64,
}

/// Folds the top-level spans of each superstep (the children of its root)
/// into a critical path. Master spans add up; a run of worker spans between
/// two master spans is one parallel stretch and costs its slowest worker.
pub fn critical_paths(spans: &[Span]) -> Vec<StepPath> {
    let mut out: Vec<StepPath> = Vec::new();
    // Worker → summed span time in the current parallel stretch.
    let mut stretch: BTreeMap<usize, u64> = BTreeMap::new();
    let close = |stretch: &mut BTreeMap<usize, u64>, path: &mut StepPath| {
        if let (Some(&max), Some(&min)) = (stretch.values().max(), stretch.values().min()) {
            path.critical_ns += max;
            path.skew_ns += max - min;
        }
        stretch.clear();
    };
    for s in spans {
        let Some(parent) = s.parent else {
            // A superstep root: finish the previous step, start the next.
            if let Some(path) = out.last_mut() {
                close(&mut stretch, path);
            }
            out.push(StepPath {
                critical_ns: 0,
                skew_ns: 0,
            });
            continue;
        };
        if spans[parent].parent.is_some() {
            continue; // nested deeper: already inside its parent's duration
        }
        let path = out.last_mut().expect("a child follows its root");
        match s.lane {
            Lane::Master => {
                close(&mut stretch, path);
                path.critical_ns += s.dur_ns();
            }
            Lane::Worker(w) => *stretch.entry(w).or_default() += s.dur_ns(),
            Lane::Off => {}
        }
    }
    if let Some(path) = out.last_mut() {
        close(&mut stretch, path);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, lane: Lane) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 0,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None, Lane::Off),
            span("sample", 10, 60, Some(0), Lane::Worker(0)),
            span("gather", 20, 50, Some(1), Lane::Worker(0)),
            span("stats", 60, 90, Some(0), Lane::Worker(0)),
        ];
        // root: 100 - (50 + 30); sample: 50 - 30; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
        assert_eq!(durations_ns(&spans, "gather"), vec![30.0]);
    }

    #[test]
    fn critical_path_takes_the_slowest_worker_of_each_stretch() {
        let w = Lane::Worker;
        let spans = vec![
            span("root", 0, 1000, None, Lane::Off),
            // stretch 1: worker 0 = 30 + 20, worker 1 = 70
            span("sample", 0, 30, Some(0), w(0)),
            span("gather", 5, 25, Some(1), w(0)), // nested: not counted twice
            span("stats", 30, 50, Some(0), w(0)),
            span("sample", 50, 120, Some(0), w(1)),
            // barrier: master
            span("reduce", 120, 130, Some(0), Lane::Master),
            span("encode", 130, 135, Some(0), Lane::Master),
            // stretch 2: worker 0 = 40, worker 1 = 10
            span("update", 135, 175, Some(0), w(0)),
            span("update", 175, 185, Some(0), w(1)),
            // a second superstep with the master alone
            span("root", 1000, 1100, None, Lane::Off),
            span("reduce", 1000, 1007, Some(9), Lane::Master),
        ];
        assert_eq!(
            critical_paths(&spans),
            vec![
                StepPath {
                    critical_ns: 70 + 10 + 5 + 40,
                    skew_ns: (70 - 50) + (40 - 10),
                },
                StepPath {
                    critical_ns: 7,
                    skew_ns: 0,
                },
            ]
        );
    }

    #[test]
    fn trace_nests_spans_under_the_open_one() {
        let mut t = Trace::new();
        t.enter("root", 3, Lane::Off);
        let got = t.within("leaf", 3, Lane::Master, || 7);
        t.exit();
        assert_eq!(got, 7);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.spans[1].step, 3);
    }
}
