//! The worker host: where an engine's workers live, and how one is
//! started, restarted and stopped — once, for every message type.
//!
//! [`Host`] hides the two backends selected by [`ClusterConfig`]:
//!
//! * **Threads** (`TransportKind::InProc`): one thread per worker slot
//!   over the in-process channel transport.
//! * **Processes** (`TransportKind::Tcp`): one child process per worker
//!   slot, connected to the master's [`TcpHub`] over loopback TCP.
//!
//! Both meter at the same site ([`Router::send`] / [`Router::ingress`]),
//! so `TrafficStats` and telemetry reconcile wherever the workers run.
//! A slot is started on demand: a static engine starts every slot at
//! bring-up, an elastic one starts a slot when its worker joins.
//!
//! An engine supplies only a [`Launcher`]: the thread a worker runs in,
//! the boot line its process reads, and the name of the worker binary.
//! The other end of that boot line is [`worker_main`], the whole `main`
//! of a worker binary.
//!
//! # Boot line
//!
//! A [`Boot`] is hand-encoded with the primitives of the message codec
//! ([`crate::codec`]), hex-armored, and written as a single line on the
//! child's stdin. Hex keeps the channel line-oriented and immune to
//! newline translation; it happens once per process, so the 2x size is
//! irrelevant.

// Panic hygiene: bring-up, respawn and teardown failures stay `Err`s the
// engines turn into LoadFailed / WorkerLost.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io::{BufRead as _, Write as _};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{exit, Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::Sink;
use crate::{
    panic_message, ChaosSpec, ClusterConfig, CodecError, Endpoint, NodeId, Recorder, Router,
    TcpClient, TcpHub, TelemetryTx, TrafficStats, TransportKind, WireCodec, WireReader,
};

/// Everything a worker process needs to join a run: where the hub
/// listens, who the worker is, the cluster shape, and the engine's own
/// job description `J`.
#[derive(Debug, Clone)]
pub struct Boot<J> {
    /// `host:port` of the master's [`TcpHub`].
    pub addr: String,
    /// This worker's index in `0..k`.
    pub worker: usize,
    /// Cluster size K.
    pub k: usize,
    /// Model dimension d.
    pub dim: u64,
    /// What to run: the engine's configuration for this worker.
    pub job: J,
}

/// The engine-specific part of a [`Boot`]: a versioned codec over the
/// [`crate::codec`] primitives.
pub trait BootJob: Sized {
    /// First byte of the encoding; a worker binary refuses any other.
    const VERSION: u8;
    /// Appends the job's fields.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads what [`BootJob::put`] wrote.
    fn read(r: &mut WireReader<'_>) -> Result<Self, CodecError>;
}

impl<J: BootJob> Boot<J> {
    /// Serializes the boot: version byte, the fields in declaration
    /// order, then the job.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u8(J::VERSION);
        out.put_str(&self.addr);
        out.put_usize(self.worker);
        out.put_usize(self.k);
        out.put_u64(self.dim);
        self.job.put(&mut out);
        out
    }

    /// Decodes a boot serialized by [`Boot::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(buf);
        let v = r.u8("boot version")?;
        if v != J::VERSION {
            return Err(CodecError::Malformed(format!(
                "bootstrap version {v}, expected {}",
                J::VERSION
            )));
        }
        let boot = Boot {
            addr: r.str("hub addr")?,
            worker: r.usize("worker id")?,
            k: r.usize("cluster size")?,
            dim: r.u64("dimension")?,
            job: J::read(&mut r)?,
        };
        r.finish("bootstrap")?;
        Ok(boot)
    }

    /// Hex-armored single-line form, as written to the child's stdin.
    pub fn to_hex_line(&self) -> String {
        hex_armor(&self.encode())
    }

    /// Parses the line produced by [`Boot::to_hex_line`]. The input is
    /// whatever arrived on stdin, so it is treated as untrusted bytes.
    pub fn from_hex_line(line: impl AsRef<[u8]>) -> Result<Self, CodecError> {
        Self::decode(&hex_dearmor(line.as_ref())?)
    }
}

/// Hex-armors `bytes` into a single newline-free line.
pub fn hex_armor(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + 1);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_armor`]; ignores surrounding ASCII whitespace and
/// rejects odd lengths and anything outside `[0-9a-fA-F]`.
fn hex_dearmor(line: &[u8]) -> Result<Vec<u8>, CodecError> {
    let line = line.trim_ascii();
    if !line.len().is_multiple_of(2) {
        return Err(CodecError::Malformed("bootstrap hex has odd length".into()));
    }
    let nibble = |b: u8| (b as char).to_digit(16);
    line.chunks_exact(2)
        .map(|pair| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => Ok((hi << 4 | lo) as u8),
            _ => Err(CodecError::Malformed(format!(
                "bootstrap hex byte {:?} is not hex",
                String::from_utf8_lossy(pair)
            ))),
        })
        .collect()
}

/// Finds a workspace worker binary named `name` next to the currently
/// running executable (Cargo places all workspace binaries in the same
/// `target/<profile>/` directory; test binaries live one level deeper).
fn locate_worker_bin(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "current_exe has no parent directory".to_string())?;
    for dir in [dir, dir.parent().unwrap_or(dir)] {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "{name} binary not found next to {} — build it \
         (`cargo build --bin {name}`) or set ClusterConfig::worker_bin",
        me.display()
    ))
}

/// Spawns `worker_bin` and feeds it one boot line over stdin. The child
/// inherits stderr so panics are visible.
fn spawn_boot_process(worker_bin: &Path, line: &str) -> Result<Child, String> {
    let mut child = Command::new(worker_bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", worker_bin.display()))?;
    let fed = match child.stdin.take() {
        // Dropping stdin closes the pipe; the worker reads exactly one line.
        Some(mut stdin) => writeln!(stdin, "{line}").map_err(|e| format!("write bootstrap: {e}")),
        None => Err("child stdin missing despite piped spawn".to_string()),
    };
    if let Err(e) = fed {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    Ok(child)
}

/// What an engine supplies to a [`Host`]: how one worker is launched.
pub trait Launcher<M>: Send {
    /// File name of the worker binary, resolved next to the running
    /// executable unless [`ClusterConfig::worker_bin`] names a path.
    fn worker_bin(&self) -> &'static str;

    /// Starts worker `w`'s thread on its endpoint (threads backend).
    fn thread(&self, w: usize, ep: Endpoint<M>) -> std::io::Result<JoinHandle<()>>;

    /// The boot line worker `w`'s process reads from stdin, given the
    /// hub's address (processes backend).
    fn boot_line(&self, w: usize, hub: SocketAddr) -> String;
}

enum Backend<M> {
    /// Threads over in-process channels.
    Threads {
        /// Endpoints of slots that are not running: never started, or
        /// re-registered for a respawn.
        spares: Vec<Option<Endpoint<M>>>,
        /// One join handle per running slot.
        handles: Vec<Option<JoinHandle<()>>>,
    },
    /// One OS process per worker over loopback TCP.
    Processes {
        /// The master-side hub the children connect to.
        hub: TcpHub<M>,
        /// One child process per running slot.
        children: Vec<Option<Child>>,
        worker_bin: PathBuf,
    },
}

/// The worker slots of one engine, on one of two backends.
///
/// Stop it with [`Host::shutdown`] after telling the workers to exit.
/// Dropping a host that was not shut down — a bring-up that failed half
/// way — kills its child processes and closes the hub instead of waiting
/// for workers nobody told to stop.
pub struct Host<M: WireCodec + Clone + Send + 'static> {
    launcher: Box<dyn Launcher<M>>,
    backend: Backend<M>,
    down: bool,
}

impl<M: WireCodec + Clone + Send + 'static> Host<M> {
    /// Builds the transport for one master and `slots` workers on the
    /// backend `cluster` selects and returns the master's endpoint (the
    /// router is its [`Endpoint::router`]) and a host with every slot
    /// idle; nothing runs until [`Host::start_all`].
    ///
    /// Backend identity goes on `recorder`'s trace meta line, *not* the
    /// `RunStamp`: the run id stays backend-agnostic so in-process and
    /// TCP traces of one run compare equal.
    ///
    /// # Errors
    /// The TCP backend fails when the worker binary cannot be found or
    /// the hub cannot bind.
    pub fn bring_up(
        slots: usize,
        cluster: &ClusterConfig,
        traffic: TrafficStats,
        chaos: Option<ChaosSpec>,
        recorder: Recorder,
        launcher: impl Launcher<M> + 'static,
    ) -> Result<(Endpoint<M>, Host<M>), String> {
        let workers: Vec<NodeId> = (0..slots).map(NodeId::Worker).collect();
        let mut ids = vec![NodeId::Master];
        ids.extend(&workers);
        let (master, backend) = match cluster.transport {
            TransportKind::InProc => {
                recorder.set_backend("inproc", 0);
                let (_router, mut endpoints) =
                    Router::with_recorder(&ids, traffic, chaos, recorder);
                let master = endpoints.remove(0);
                let backend = Backend::Threads {
                    spares: endpoints.into_iter().map(Some).collect(),
                    handles: (0..slots).map(|_| None).collect(),
                };
                (master, backend)
            }
            TransportKind::Tcp => {
                recorder.set_backend("tcp", slots as u64);
                let worker_bin = match &cluster.worker_bin {
                    Some(path) => path.clone(),
                    None => locate_worker_bin(launcher.worker_bin())?,
                };
                let hub = TcpHub::<M>::bind(&[NodeId::Master], &workers)
                    .map_err(|e| format!("hub bind: {e}"))?;
                let router =
                    Router::with_transport(Arc::new(hub.clone()), &ids, traffic, chaos, recorder);
                let master = hub.local_endpoint(NodeId::Master, &router);
                hub.start(router);
                let backend = Backend::Processes {
                    hub,
                    children: (0..slots).map(|_| None).collect(),
                    worker_bin,
                };
                (master, backend)
            }
        };
        let host = Host {
            launcher: Box::new(launcher),
            backend,
            down: false,
        };
        Ok((master, host))
    }

    /// Starts slot `w`: spawns the worker's thread on the slot's spare
    /// endpoint, or spawns its process and hands it the boot line.
    ///
    /// # Errors
    /// Fails when the slot is already running (or, on the threads
    /// backend, died without a [`Host::respawn`]) and when the thread or
    /// process cannot be spawned.
    fn start(&mut self, w: usize) -> Result<(), String> {
        match &mut self.backend {
            Backend::Threads { spares, handles } => {
                let ep = spares
                    .get_mut(w)
                    .and_then(Option::take)
                    .ok_or_else(|| format!("worker slot {w} has no spare endpoint to start on"))?;
                let handle = self
                    .launcher
                    .thread(w, ep)
                    .map_err(|e| format!("could not spawn worker thread: {e}"))?;
                handles[w] = Some(handle);
            }
            Backend::Processes {
                hub,
                children,
                worker_bin,
            } => {
                if children.get(w).is_none_or(Option::is_some) {
                    return Err(format!("worker slot {w} is not idle"));
                }
                let line = self.launcher.boot_line(w, hub.addr());
                children[w] = Some(spawn_boot_process(worker_bin, &line)?);
            }
        }
        Ok(())
    }

    /// Blocks until every started slot in `ws` can be sent to: at once
    /// for threads, after the hello handshake (or `deadline`) for
    /// processes.
    fn await_started(&self, ws: &[usize], deadline: Duration) -> Result<(), String> {
        match &self.backend {
            Backend::Threads { .. } => Ok(()),
            Backend::Processes { hub, .. } => {
                let ids: Vec<NodeId> = ws.iter().map(|&w| NodeId::Worker(w)).collect();
                hub.await_workers(&ids, deadline)
            }
        }
    }

    /// Starts every slot in `ws`, then waits for all of them, so worker
    /// processes boot side by side.
    pub fn start_all(
        &mut self,
        ws: std::ops::Range<usize>,
        deadline: Duration,
    ) -> Result<(), String> {
        for w in ws.clone() {
            self.start(w).map_err(|e| format!("worker {w}: {e}"))?;
        }
        self.await_started(&ws.collect::<Vec<_>>(), deadline)
    }

    /// Restarts slot `w` at iteration `t` after a crash.
    ///
    /// Re-registration happens on the shared [`Router`] on both backends,
    /// so messages abandoned in the dead mailbox are drained and metered
    /// as drops at the same site. Then the dead incarnation is reaped and
    /// a fresh one started: a thread on the new endpoint, or a process
    /// that must dial the hub within `deadline`.
    pub fn respawn(
        &mut self,
        router: &Router<M>,
        t: u64,
        w: usize,
        deadline: Duration,
    ) -> Result<(), String> {
        let ep = router.reregister(NodeId::Worker(w), t);
        self.reap(w);
        if let (Backend::Threads { spares, .. }, Some(ep)) = (&mut self.backend, ep) {
            spares[w] = Some(ep);
        }
        self.start_all(w..w + 1, deadline)
    }

    /// Ends slot `w`'s current incarnation: joins its thread (which has
    /// exited, or is about to because it was told to or lost its
    /// mailbox), or kills and waits for its process. A slot that is not
    /// running is left alone.
    pub fn reap(&mut self, w: usize) {
        match &mut self.backend {
            Backend::Threads { handles, .. } => {
                if let Some(h) = handles.get_mut(w).and_then(Option::take) {
                    let _ = h.join();
                }
            }
            Backend::Processes { children, .. } => {
                if let Some(mut c) = children.get_mut(w).and_then(Option::take) {
                    let _ = c.kill();
                    let _ = c.wait();
                }
            }
        }
    }

    /// The running slots, in order — the ones a shutdown message is owed.
    pub fn running(&self) -> Vec<usize> {
        let up: Vec<bool> = match &self.backend {
            Backend::Threads { handles, .. } => handles.iter().map(Option::is_some).collect(),
            Backend::Processes { children, .. } => children.iter().map(Option::is_some).collect(),
        };
        (0..up.len()).filter(|&w| up[w]).collect()
    }

    /// Tears the host down after the running workers were told to exit:
    /// joins threads, or severs the hub's connections (a child sees its
    /// shutdown message, then EOF; either ends its loop) and waits for
    /// the children, killing any still running after `EXIT_GRACE`.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if std::mem::replace(&mut self.down, true) {
            return;
        }
        match &mut self.backend {
            Backend::Threads { handles, .. } => {
                for h in handles.iter_mut().filter_map(Option::take) {
                    let _ = h.join();
                }
            }
            Backend::Processes { hub, children, .. } => {
                hub.shutdown();
                reap_within_grace(children.iter_mut().filter_map(Option::take));
            }
        }
    }
}

/// How long worker processes get to exit once the hub severed their
/// connections, before they are killed.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// Reaps `children`, killing any still running `EXIT_GRACE` after the
/// call: a worker that misses its severed connection must not hang the
/// master.
#[expect(
    clippy::disallowed_methods,
    reason = "a teardown deadline, not training state"
)]
fn reap_within_grace(children: impl Iterator<Item = Child>) {
    let deadline = Instant::now() + EXIT_GRACE;
    for mut child in children {
        while let Ok(None) = child.try_wait() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = child.wait();
    }
}

impl<M: WireCodec + Clone + Send + 'static> Drop for Host<M> {
    fn drop(&mut self) {
        if self.down {
            return;
        }
        // Nobody told these workers to stop, so waiting for them could
        // hang: kill the processes, detach the threads.
        match &mut self.backend {
            Backend::Threads { handles, .. } => handles.clear(),
            Backend::Processes { children, .. } => {
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
            }
        }
        self.shutdown();
    }
}

/// What a worker process runs once it is connected: the mailbox loop,
/// and how a panic in it is reported to the master.
pub struct WorkerJob<M> {
    /// The worker's mailbox loop; returns when the master shuts the run
    /// down (shutdown message or hub disconnect).
    pub body: Box<dyn FnOnce(Endpoint<M>)>,
    /// Turns a panic message into the report sent to the master over the
    /// still-open socket — the contract `spawn_guarded` gives thread
    /// workers. `None`: the process just exits and the master's deadline
    /// finds out.
    pub on_panic: Option<Box<dyn FnOnce(String) -> M>>,
}

/// The `main` of a worker binary `bin`: reads one boot line from stdin,
/// connects to the hub it names, and runs the job `run` builds from the
/// boot and the connection's [`TelemetryTx`].
///
/// Exits 2 on an unreadable or malformed boot line, 3 when the hub cannot
/// be reached, and 101 after a panic in the job (reported to the master
/// first when the job asks for that; a one-line notice on stderr replaces
/// the default backtrace, as for supervised threads).
///
/// Profiling is opt-in per run: the master sets `COLUMNSGD_PROFILE`
/// before spawning and the child inherits it, so unprofiled runs pay
/// nothing.
pub fn worker_main<M, J>(bin: &'static str, run: impl FnOnce(Boot<J>, TelemetryTx) -> WorkerJob<M>)
where
    M: WireCodec + Clone + Send + 'static,
    J: BootJob,
{
    crate::telemetry::profile::enable_from_env();
    let die = |code: i32, why: String| -> ! {
        eprintln!("{bin}: {why}");
        exit(code)
    };
    let mut line = String::new();
    if let Err(e) = std::io::stdin().lock().read_line(&mut line) {
        die(2, format!("failed to read bootstrap from stdin: {e}"));
    }
    let boot =
        Boot::<J>::from_hex_line(&line).unwrap_or_else(|e| die(2, format!("bad bootstrap: {e}")));
    let hub = boot.addr.parse::<SocketAddr>();
    let hub = hub.unwrap_or_else(|e| die(2, format!("bad hub address {:?}: {e}", boot.addr)));
    let me = NodeId::Worker(boot.worker);
    let mut ids = vec![NodeId::Master];
    ids.extend((0..boot.k).map(NodeId::Worker));
    let (router, ep, telemetry_tx) = TcpClient::<M>::connect_traced(hub, me, &ids)
        .unwrap_or_else(|e| die(3, format!("cannot reach hub at {hub}: {e}")));
    // Panics are expected under scripted failure plans.
    std::panic::set_hook(Box::new(move |info| eprintln!("{bin}: {info}")));
    let WorkerJob { body, on_panic } = run(boot, telemetry_tx);
    if let Err(payload) = catch_unwind(AssertUnwindSafe(move || body(ep))) {
        if let Some(report) = on_panic {
            let info = panic_message(payload.as_ref());
            let _ = router.send_reliable(me, NodeId::Master, report(info));
        }
        exit(101);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetError;

    /// Exits its loop without answering.
    const STOP: u64 = 0;
    /// "Crashes": the worker waits until two more messages sit unread in
    /// its mailbox, says so, and exits.
    const CRASH: u64 = u64::MAX;
    const WAIT: Duration = Duration::from_secs(10);
    const QUIET: Duration = Duration::from_millis(100);

    /// A toy worker: answers every number with its successor.
    struct Echo;

    impl Launcher<u64> for Echo {
        fn worker_bin(&self) -> &'static str {
            "no-such-worker"
        }

        fn thread(&self, _w: usize, ep: Endpoint<u64>) -> std::io::Result<JoinHandle<()>> {
            std::thread::Builder::new().spawn(move || {
                while let Ok(env) = ep.recv() {
                    match env.payload {
                        STOP => return,
                        CRASH => {
                            while ep.pending() < 2 {
                                std::thread::yield_now();
                            }
                            ep.send(NodeId::Master, CRASH).expect("master is up");
                            return;
                        }
                        n => ep.send(NodeId::Master, n + 1).expect("master is up"),
                    }
                }
            })
        }

        fn boot_line(&self, _w: usize, _hub: SocketAddr) -> String {
            String::new()
        }
    }

    fn bring_up(slots: usize) -> (Endpoint<u64>, Host<u64>) {
        let traffic = TrafficStats::new();
        let cluster = ClusterConfig::in_proc();
        Host::bring_up(slots, &cluster, traffic, None, Recorder::disabled(), Echo)
            .expect("in-process bring-up cannot fail")
    }

    fn stop(master: &Endpoint<u64>, host: &mut Host<u64>) {
        for w in host.running() {
            master.send(NodeId::Worker(w), STOP).expect("stop");
        }
        host.shutdown();
    }

    #[test]
    fn hex_armor_round_trips_and_rejects_everything_else() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_dearmor(hex_armor(&bytes).as_bytes()).unwrap(), bytes);
        assert_eq!(hex_dearmor(b" 0aFf\r\n").unwrap(), vec![0x0a, 0xff]);
        assert!(hex_dearmor(b"abc").is_err(), "odd length");
        assert!(hex_dearmor(b"zz").is_err());
        // Regressions: a multi-byte character straddling a pair used to
        // panic the `&str` slicing, and `from_str_radix` took a sign.
        assert!(hex_dearmor("a\u{e9}b".as_bytes()).is_err());
        assert!(hex_dearmor(b"+f").is_err());
        assert!(hex_dearmor(&[0xff, 0xfe]).is_err(), "not UTF-8 at all");
    }

    #[test]
    fn every_started_slot_echoes() {
        let (master, mut host) = bring_up(3);
        assert!(host.running().is_empty(), "bring-up starts nothing");
        host.start_all(0..3, WAIT).expect("start");
        assert_eq!(host.running(), vec![0, 1, 2]);
        for w in 0..3 {
            master.send(NodeId::Worker(w), 10 * (w as u64 + 1)).unwrap();
            let env = master.recv_timeout(WAIT).expect("echo");
            assert_eq!(
                (env.from, env.payload),
                (NodeId::Worker(w), 10 * (w as u64 + 1) + 1)
            );
        }
        assert!(host.start(1).is_err(), "a running slot cannot start twice");
        stop(&master, &mut host);
    }

    #[test]
    fn idle_slot_answers_only_once_started() {
        let (master, mut host) = bring_up(2);
        host.start_all(0..1, WAIT).expect("start slot 0");
        // Nobody serves slot 1 yet: the message waits in its mailbox.
        master.send(NodeId::Worker(1), 7).unwrap();
        assert_eq!(master.recv_timeout(QUIET).unwrap_err(), NetError::Timeout);
        assert_eq!(host.running(), vec![0]);
        // Started later (the elastic shape), it picks the message up.
        host.start_all(1..2, WAIT).expect("start slot 1");
        let env = master.recv_timeout(WAIT).expect("late echo");
        assert_eq!((env.from, env.payload), (NodeId::Worker(1), 8));
        stop(&master, &mut host);
    }

    #[test]
    fn respawn_drains_the_dead_mailbox_and_the_fresh_thread_answers() {
        let (master, mut host) = bring_up(1);
        host.start_all(0..1, WAIT).expect("start");
        // The worker dies with two messages unread.
        for n in [CRASH, 11, 12] {
            master.send(NodeId::Worker(0), n).unwrap();
        }
        assert_eq!(
            master.recv_timeout(WAIT).expect("last words").payload,
            CRASH
        );
        host.respawn(master.router(), 3, 0, WAIT).expect("respawn");
        assert_eq!(master.router().traffic().dropped_total().messages, 2);
        assert_eq!(host.running(), vec![0]);
        // Only the fresh incarnation answers, and only the fresh message.
        master.send(NodeId::Worker(0), 20).unwrap();
        assert_eq!(master.recv_timeout(WAIT).expect("echo").payload, 21);
        assert_eq!(master.recv_timeout(QUIET).unwrap_err(), NetError::Timeout);
        stop(&master, &mut host);
    }

    #[test]
    fn shutdown_joins_everything_and_is_idempotent() {
        let (master, mut host) = bring_up(3);
        host.start_all(0..2, WAIT).expect("start");
        stop(&master, &mut host);
        assert!(host.running().is_empty());
        host.shutdown();
        assert!(
            host.start(2).is_ok(),
            "an idle slot's endpoint outlives shutdown"
        );
        // Slot 2 is now running and was never told to stop: dropping the
        // host must detach it, not wait for it.
    }

    #[test]
    fn reaping_an_idle_slot_is_a_no_op() {
        let (master, mut host) = bring_up(2);
        host.reap(1);
        host.reap(9); // out of range: equally nothing to end
        host.start_all(1..2, WAIT)
            .expect("the slot is still startable");
        master.send(NodeId::Worker(1), 1).unwrap();
        assert_eq!(master.recv_timeout(WAIT).expect("echo").payload, 2);
        // A stopped slot is reaped by joining its thread.
        master.send(NodeId::Worker(1), STOP).unwrap();
        host.reap(1);
        assert!(host.running().is_empty());
    }
}
