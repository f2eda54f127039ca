//! Continuous profiling: scoped phase accounting with a thread-local
//! frame stack, per-thread accumulation slots, and a feature-gated
//! counting allocator.
//!
//! A [`ProfScope`] guard pushes a `&'static str` frame onto its thread's
//! stack on entry and, on drop, charges the frame's *self* wall time, CPU
//! time (from `/proc/thread-self/schedstat`, falling back to wall time
//! where that file does not exist), and allocation counters to the joined
//! `a;b;c` stack key. Child scopes subtract their totals from the parent,
//! so summing a stack's own line plus its children reproduces the
//! inclusive cost — exactly the folded-stack convention standard
//! flamegraph tooling consumes.
//!
//! Profiling is off by default behind one process-global relaxed atomic:
//! the disabled [`ProfScope::enter`] is a single load returning an inert
//! guard.
//!
//! [`drain`] merges every registered thread slot into a sorted batch of
//! [`ProfRecord`] *deltas* (counts since the previous drain). The master
//! drains once at end of train; TCP worker processes drain at every
//! telemetry flush so their records ride the existing `FrameKind::
//! Telemetry` channel ahead of the barrier reply. Because slots merge by
//! stack key across threads, pool-thread scheduling never changes the
//! drained totals — `calls` is deterministic for a fixed config, which is
//! what `inspect flame`'s canonical output keys on.
//!
//! The counting allocator ([`CountingAlloc`]) is installed as the global
//! allocator only under the `count-alloc` cargo feature (default off —
//! zero impact on ordinary builds); without it the allocation columns of
//! every record are zero.

#[expect(clippy::disallowed_types, reason = "the counting allocator itself")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One drained profile line: the self cost of one distinct scope stack,
/// accumulated over every thread between two [`drain`] calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRecord {
    /// The worker process that produced the record (`None` for the master
    /// process, which in inproc mode hosts every thread).
    pub worker: Option<u64>,
    /// The `;`-joined frame stack, outermost first.
    pub stack: String,
    /// Scope entries charged to exactly this stack.
    pub calls: u64,
    /// Self wall-clock seconds (children subtracted).
    pub wall_s: f64,
    /// Self on-CPU seconds (children subtracted; equals wall time on
    /// platforms without per-thread schedstat).
    pub cpu_s: f64,
    /// Self allocated bytes (0 unless built with `count-alloc`).
    pub alloc_bytes: u64,
    /// Self allocation count (0 unless built with `count-alloc`).
    pub alloc_count: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Environment variable a spawned worker process checks at startup to
/// inherit the master's profiling switch (process environments propagate
/// through `std::process::Command` by default, so no boot-spec change).
pub const PROFILE_ENV: &str = "COLUMNSGD_PROFILE";

/// Turns the process-global profiler on or off. Scopes entered while
/// disabled stay inert even if profiling is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether scopes are currently being recorded.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables the profiler when [`PROFILE_ENV`] is set to `1` in this
/// process's environment (worker-binary startup hook).
pub fn enable_from_env() {
    if std::env::var(PROFILE_ENV).as_deref() == Ok("1") {
        set_enabled(true);
    }
}

#[derive(Default, Clone)]
struct Counts {
    calls: u64,
    wall_s: f64,
    cpu_ns: u64,
    alloc_bytes: u64,
    alloc_count: u64,
}

/// Per-thread accumulation map, shared with the global registry so
/// [`drain`] can read (and reset) it from any thread.
struct ThreadSlot {
    map: Mutex<BTreeMap<String, Counts>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct Frame {
    name: &'static str,
    started: Instant,
    cpu_started_ns: Option<u64>,
    alloc_bytes_started: u64,
    alloc_count_started: u64,
    child_wall_s: f64,
    child_cpu_ns: u64,
    child_alloc_bytes: u64,
    child_alloc_count: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static SLOT: RefCell<Option<Arc<ThreadSlot>>> = const { RefCell::new(None) };
    // Const-initialized cells: incrementing them from inside the global
    // allocator never allocates (which would recurse).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static SCHEDSTAT: RefCell<Option<Option<std::fs::File>>> = const { RefCell::new(None) };
}

/// Cumulative on-CPU nanoseconds of the calling thread, from the first
/// field of `/proc/thread-self/schedstat`. `None` where unavailable
/// (non-Linux); callers fall back to wall time.
fn thread_cpu_ns() -> Option<u64> {
    use std::io::{Read, Seek, SeekFrom};
    SCHEDSTAT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let file = slot
            .get_or_insert_with(|| std::fs::File::open("/proc/thread-self/schedstat").ok())
            .as_mut()?;
        file.seek(SeekFrom::Start(0)).ok()?;
        let mut buf = [0u8; 64];
        let n = file.read(&mut buf).ok()?;
        std::str::from_utf8(&buf[..n])
            .ok()?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

fn slot_for_thread() -> Arc<ThreadSlot> {
    SLOT.with(|s| {
        let mut slot = s.borrow_mut();
        if let Some(a) = slot.as_ref() {
            return Arc::clone(a);
        }
        let a = Arc::new(ThreadSlot {
            map: Mutex::new(BTreeMap::new()),
        });
        registry().lock().unwrap().push(Arc::clone(&a));
        *slot = Some(Arc::clone(&a));
        a
    })
}

/// RAII guard for one profiled frame. Create with [`ProfScope::enter`];
/// the frame's self cost is charged when the guard drops.
pub struct ProfScope {
    active: bool,
}

impl ProfScope {
    /// Pushes `name` onto the calling thread's frame stack. When the
    /// profiler is disabled this is one relaxed load and an inert guard.
    #[inline]
    pub fn enter(name: &'static str) -> ProfScope {
        if !ENABLED.load(Ordering::Relaxed) {
            return ProfScope { active: false };
        }
        Self::enter_slow(name)
    }

    #[cold]
    #[expect(clippy::disallowed_methods, reason = "the profiler's own timer")]
    fn enter_slow(name: &'static str) -> ProfScope {
        let frame = Frame {
            name,
            started: Instant::now(),
            cpu_started_ns: thread_cpu_ns(),
            alloc_bytes_started: ALLOC_BYTES.with(Cell::get),
            alloc_count_started: ALLOC_COUNT.with(Cell::get),
            child_wall_s: 0.0,
            child_cpu_ns: 0,
            child_alloc_bytes: 0,
            child_alloc_count: 0,
        };
        STACK.with(|s| s.borrow_mut().push(frame));
        ProfScope { active: true }
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
            return;
        };
        let wall_s = frame.started.elapsed().as_secs_f64();
        let cpu_ns = match (frame.cpu_started_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => (wall_s * 1e9) as u64,
        };
        let alloc_bytes = ALLOC_BYTES
            .with(Cell::get)
            .wrapping_sub(frame.alloc_bytes_started);
        let alloc_count = ALLOC_COUNT
            .with(Cell::get)
            .wrapping_sub(frame.alloc_count_started);
        let key = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Charge this frame's inclusive cost to the parent so the
            // parent's eventual self cost excludes it.
            if let Some(parent) = stack.last_mut() {
                parent.child_wall_s += wall_s;
                parent.child_cpu_ns += cpu_ns;
                parent.child_alloc_bytes += alloc_bytes;
                parent.child_alloc_count += alloc_count;
            }
            let mut key = String::with_capacity(64);
            for f in stack.iter() {
                key.push_str(f.name);
                key.push(';');
            }
            key.push_str(frame.name);
            key
        });
        let slot = slot_for_thread();
        let mut map = slot.map.lock().unwrap();
        let c = map.entry(key).or_default();
        c.calls += 1;
        c.wall_s += (wall_s - frame.child_wall_s).max(0.0);
        c.cpu_ns += cpu_ns.saturating_sub(frame.child_cpu_ns);
        c.alloc_bytes += alloc_bytes.saturating_sub(frame.child_alloc_bytes);
        c.alloc_count += alloc_count.saturating_sub(frame.child_alloc_count);
    }
}

/// Merges and resets every thread's accumulation slot, returning one
/// record per distinct stack (sorted by stack key) with the counts
/// accumulated since the previous drain. `worker` is left `None`; the
/// recorder stamps it at ingestion.
pub fn drain() -> Vec<ProfRecord> {
    let slots: Vec<Arc<ThreadSlot>> = registry().lock().unwrap().clone();
    let mut merged: BTreeMap<String, Counts> = BTreeMap::new();
    for slot in slots {
        let mut map = slot.map.lock().unwrap();
        for (key, c) in std::mem::take(&mut *map) {
            let m = merged.entry(key).or_default();
            m.calls += c.calls;
            m.wall_s += c.wall_s;
            m.cpu_ns += c.cpu_ns;
            m.alloc_bytes += c.alloc_bytes;
            m.alloc_count += c.alloc_count;
        }
    }
    merged
        .into_iter()
        .filter(|(_, c)| c.calls > 0)
        .map(|(stack, c)| ProfRecord {
            worker: None,
            stack,
            calls: c.calls,
            wall_s: c.wall_s,
            cpu_s: c.cpu_ns as f64 / 1e9,
            alloc_bytes: c.alloc_bytes,
            alloc_count: c.alloc_count,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// A [`System`]-delegating allocator that charges allocation bytes/counts
/// to the calling thread's profiling counters while the profiler is
/// enabled. Installed as the global allocator only under the
/// `count-alloc` feature.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(bytes: usize) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        // `try_with`: allocation can outlive this thread's TLS (teardown
        // paths); losing those few counts beats aborting the process.
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: pure delegation to `System`; the counters never allocate
// (const-initialized TLS cells) so there is no recursion.
#[expect(clippy::disallowed_methods, reason = "counting allocator over System")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            Self::count(new_size - layout.size());
        }
        System.realloc(ptr, layout, new_size)
    }
}

// `#[global_allocator]` expands to allocator shims beside the static, so
// the exemption sits on a module around it.
#[cfg(feature = "count-alloc")]
#[expect(clippy::disallowed_methods, reason = "the counting allocator itself")]
mod install {
    #[global_allocator]
    static COUNTING_ALLOC: super::CountingAlloc = super::CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global; tests that enable it serialize on
    /// this lock so parallel test threads never steal each other's drains.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = guard();
        set_enabled(false);
        drain();
        {
            let _a = ProfScope::enter("prof_test_disabled");
        }
        assert!(drain()
            .iter()
            .all(|r| !r.stack.contains("prof_test_disabled")));
    }

    #[test]
    fn nested_scopes_fold_and_subtract_children() {
        let _g = guard();
        set_enabled(true);
        drain();
        {
            let _a = ProfScope::enter("prof_test_outer");
            for _ in 0..3 {
                let _b = ProfScope::enter("prof_test_inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let recs: Vec<ProfRecord> = drain()
            .into_iter()
            .filter(|r| r.stack.contains("prof_test_"))
            .collect();
        assert_eq!(recs.len(), 2, "outer + nested stack: {recs:?}");
        let outer = recs.iter().find(|r| r.stack == "prof_test_outer").unwrap();
        let inner = recs
            .iter()
            .find(|r| r.stack == "prof_test_outer;prof_test_inner")
            .unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 3);
        assert!(inner.wall_s >= 0.004, "inner slept ~6ms: {}", inner.wall_s);
        // Self time: the outer frame did nothing but loop, so nearly all
        // wall time lands on the inner stack.
        assert!(
            outer.wall_s < inner.wall_s,
            "outer self {} should be below inner {}",
            outer.wall_s,
            inner.wall_s
        );
    }

    #[test]
    fn drain_returns_deltas_and_resets() {
        let _g = guard();
        set_enabled(true);
        drain();
        {
            let _a = ProfScope::enter("prof_test_delta");
        }
        set_enabled(false);
        let first: u64 = drain()
            .iter()
            .filter(|r| r.stack == "prof_test_delta")
            .map(|r| r.calls)
            .sum();
        assert_eq!(first, 1);
        let second: u64 = drain()
            .iter()
            .filter(|r| r.stack == "prof_test_delta")
            .map(|r| r.calls)
            .sum();
        assert_eq!(second, 0, "drain must reset the slots");
    }

    #[test]
    fn pool_threads_merge_by_stack() {
        let _g = guard();
        set_enabled(true);
        drain();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _a = ProfScope::enter("prof_test_pool");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let calls: u64 = drain()
            .iter()
            .filter(|r| r.stack == "prof_test_pool")
            .map(|r| r.calls)
            .sum();
        assert_eq!(calls, 4, "threads merge into one stack line");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "drives the counting allocator")]
    fn counting_allocator_delegates_correctly() {
        // Exercised without installation: correctness of the delegation
        // itself (the `count-alloc` CI step covers the installed path).
        let a = CountingAlloc;
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 128);
            assert!(!p.is_null());
            let layout2 = Layout::from_size_align(128, 8).unwrap();
            a.dealloc(p, layout2);
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            assert_eq!(std::slice::from_raw_parts(z, 64), &[0u8; 64]);
            a.dealloc(z, layout);
        }
    }
}
