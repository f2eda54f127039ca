//! The multi-process TCP backend: real frames over loopback sockets.
//!
//! Topology is hub-and-spoke. The master process runs a [`TcpHub`]: it
//! hosts the master's mailbox locally, accepts one TCP connection per
//! worker process, and switches worker↔worker traffic. Each worker
//! process runs a [`TcpClient`]: a single connection to the hub, its own
//! mailbox, and a reader thread feeding it.
//!
//! ## One mailbox type, one frame path
//!
//! Both ends are a [`ChannelTransport`] for the nodes their process hosts
//! (the master's mailbox at the hub, a worker's own mailbox at a client)
//! plus connections for every other node: a destination the local
//! transport does not host goes to a socket. Every frame on a socket is
//! an envelope streamed by `codec::write_envelope_to`: protocol messages,
//! and the telemetry frames (clock probe, clock echo, event batches),
//! which are ordinary [`TelemetryPayload`] envelopes with frame kind
//! [`FrameKind::Telemetry`]. Only the hello is written whole. Hub and
//! client read with one loop ([`read_frames`]): a message body is decoded
//! as it arrives and handed on; a telemetry frame is read whole, decoded,
//! and skipped if corrupt, so telemetry noise cannot end the data path.
//!
//! ## Where metering happens
//!
//! All metering authority stays with the **master's** router:
//!
//! * master-originated sends are metered in `Router::send` as always,
//!   then framed and written by [`TcpHub`]'s `deliver`;
//! * worker-originated frames are decoded by the hub's per-connection
//!   reader thread (`decode_body_from` checks each frame is exactly
//!   `wire_size() + ENVELOPE_BYTES` long) and admitted through
//!   [`Router::ingress`], which calls the exact same
//!   `send`/`send_reliable` paths in-process traffic takes — metering,
//!   chaos injection, and telemetry included. Telemetry frames are
//!   diverted on their header's kind before ingress: never metered.
//!
//! Worker-side routers carry a private meter and no chaos; their numbers
//! are never read. Chaos therefore fires exactly once per message, at the
//! hub, with the same per-link sequence numbers as the in-process backend
//! (TCP preserves per-connection order, and each link has a single
//! sending thread), so seeded fault schedules are bit-identical across
//! backends.
//!
//! ## One window per frame
//!
//! No frame is held whole on either end. A sender encodes into a fixed
//! 64 KiB window and writes each full window to every destination of the
//! send or broadcast in turn, holding all their writer locks (taken in
//! `NodeId` order) for the whole frame: the frame is encoded once, and a
//! broadcast reaches every worker window by window instead of worker
//! after worker. A receiver reads through a 64 KiB buffer — length
//! prefix, header, then the body, decoded as it arrives. The transport's
//! memory per connection is one window, whatever the frame size. Each
//! socket still carries exactly the bytes of
//! `write_frame(encode_envelope(from, to, payload, plane))`, so metering,
//! chaos schedules and traces do not depend on the window. One
//! consequence for profiles: `codec_encode` now includes the socket
//! writes of the frame, and `codec_decode` and `hub_switch` include the
//! time its body takes to arrive. Telemetry frames open no `codec_*`
//! frame: they carry the profile.
//!
//! ## Death and respawn
//!
//! A worker process exiting closes its socket; the hub's reader thread
//! observes EOF and marks the connection dead, so later sends fail with
//! `NodeDown` — the same signal a dropped in-process endpoint produces.
//! Respawning re-runs the hello handshake: the host kills the old
//! process, calls [`TcpHub::disconnect`], spawns a fresh process, and
//! [`TcpHub::await_workers`] for the new connection.

#[expect(clippy::disallowed_types, reason = "keyed lookups; no output order")]
use std::collections::HashMap;
use std::io::{self, Read};
#[expect(clippy::disallowed_types, reason = "the metered socket layer")]
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use parking_lot::Mutex;

use crate::codec::{
    decode_body_checked, encode_hello, write_envelope_to, write_frame, EnvelopeHeader, FrameKind,
    FrameReader, TelemetryPayload,
};
use crate::node::NodeId;
use crate::router::{Endpoint, Envelope, NetError, Router};
use crate::telemetry::{Plane, ProfScope, Recorder};
use crate::traffic::TrafficStats;
use crate::transport::{ChannelTransport, Mailboxes, Reregistered, Transport};
use crate::WireCodec;

/// A connection's writing half, shared by every thread that frames onto it.
#[expect(clippy::disallowed_types, reason = "the metered socket layer")]
type Writer = Arc<Mutex<TcpStream>>;

/// Where a message for one destination goes.
enum Route<M> {
    /// A mailbox of this process.
    Local(Sender<Envelope<M>>),
    /// Another process's connection.
    Remote(Writer),
}

impl<M> Route<M> {
    /// `to`'s mailbox if `local` hosts it, and otherwise the connection
    /// `remote` finds for it.
    fn resolve(
        local: &ChannelTransport<M>,
        to: NodeId,
        remote: impl FnOnce() -> Result<Writer, NetError>,
    ) -> Result<Self, NetError> {
        match local.sender(to) {
            Err(NetError::UnknownNode(_)) => remote().map(Route::Remote),
            hosted => hosted.map(Route::Local),
        }
    }

    /// Hands `env` to its mailbox, or streams it to its connection.
    fn deliver(self, env: Envelope<M>, plane: Plane) -> Result<(), NetError>
    where
        M: WireCodec,
    {
        match self {
            Route::Local(tx) => {
                let to = env.to;
                tx.send(env).map_err(|_| NetError::NodeDown(to))
            }
            Route::Remote(writer) => stream_frame(
                &[(env.to, writer)],
                env.from,
                &env.payload,
                FrameKind::Message(plane),
            )
            .swap_remove(0),
        }
    }
}

/// Sends one borrowed `payload` to every node in `tos`, each resolved by
/// `route`, and returns one result per destination in `tos` order. A
/// local mailbox gets its own clone. The remote connections share one
/// encode, streamed to all of them at once (see [`stream_frame`]). A
/// connection carries one frame at a time, so destinations that share one
/// (every remote destination of a worker's client) take one encode each.
/// A dead destination fails alone.
fn deliver_to_all<M: WireCodec + Clone>(
    route: impl Fn(NodeId) -> Result<Route<M>, NetError>,
    from: NodeId,
    tos: &[NodeId],
    payload: &M,
    plane: Plane,
) -> Vec<Result<(), NetError>> {
    let mut results = Vec::with_capacity(tos.len());
    let mut remote = Vec::with_capacity(tos.len());
    for (i, &to) in tos.iter().enumerate() {
        results.push(match route(to) {
            Ok(Route::Local(tx)) => {
                let payload = payload.clone();
                tx.send(Envelope { from, to, payload })
                    .map_err(|_| NetError::NodeDown(to))
            }
            Ok(Route::Remote(writer)) => {
                remote.push((i, (to, writer)));
                Ok(())
            }
            Err(e) => Err(e),
        });
    }
    // Writer locks are taken in `NodeId` order.
    remote.sort_by_key(|(_, (to, _))| *to);
    while !remote.is_empty() {
        let (mut round, mut later) = (Vec::new(), Vec::new());
        for (i, dest) in remote {
            if round.iter().any(|(_, (_, w))| Arc::ptr_eq(w, &dest.1)) {
                later.push((i, dest));
            } else {
                round.push((i, dest));
            }
        }
        let (index, dests): (Vec<usize>, Vec<_>) = round.into_iter().unzip();
        let sent = stream_frame(&dests, from, payload, FrameKind::Message(plane));
        for (i, sent) in index.into_iter().zip(sent) {
            results[i] = sent;
        }
        remote = later;
    }
    results
}

/// Streams one frame of `payload` to every `(to, connection)` of `dests`
/// (distinct connections, in `NodeId` order) and returns one result per
/// destination. Every writer lock is held for the whole frame, so no
/// other frame interleaves with it on any of the sockets, and each window
/// reaches every destination before the next is encoded: the last worker
/// of a broadcast starts receiving with the first.
#[expect(clippy::disallowed_types, reason = "the metered socket layer")]
fn stream_frame<M: WireCodec>(
    dests: &[(NodeId, Writer)],
    from: NodeId,
    payload: &M,
    kind: FrameKind,
) -> Vec<Result<(), NetError>> {
    // lint: allow(lock-order) several writer locks at once: taken in NodeId order by every sender and held for one frame, so two broadcasts cannot wait on each other
    let mut guards: Vec<_> = dests.iter().map(|(_, writer)| writer.lock()).collect();
    let mut streams: Vec<(NodeId, &mut TcpStream)> = dests
        .iter()
        .zip(&mut guards)
        .map(|(&(to, _), guard)| (to, &mut **guard))
        .collect();
    // lint: allow(blocking-under-lock) the writer mutexes ARE the write serialization points: concurrent senders (hub deliver()s, a worker's deliver, echo and telemetry flush) must not interleave frame bytes
    match write_envelope_to(&mut streams, from, payload, kind) {
        Ok(sent) => dests
            .iter()
            .zip(sent)
            .map(|(&(to, _), r)| r.map_err(|_| NetError::NodeDown(to)))
            .collect(),
        Err(e) => dests
            .iter()
            .map(|_| Err(NetError::Unencodable(e.clone())))
            .collect(),
    }
}

/// The read loop of both ends of a connection, until EOF, a read error
/// or a header that does not decode. A message frame goes to
/// `on_message`, which decodes its body off `frames` as it arrives and
/// hands it on, or returns `false` to end the loop. A telemetry frame is
/// read whole and decoded, and `on_telemetry` gets the payload; a corrupt
/// one is skipped, so telemetry noise cannot end the data path. A stray
/// hello is read and dropped.
#[deny(clippy::wildcard_enum_match_arm)]
fn read_frames<R: Read>(
    frames: &mut FrameReader<R>,
    mut on_message: impl FnMut(&mut FrameReader<R>, &EnvelopeHeader, Plane) -> bool,
    mut on_telemetry: impl FnMut(TelemetryPayload),
) {
    while let Ok(Some(header)) = frames.next_header() {
        let go_on = match header.kind {
            FrameKind::Message(plane) => on_message(frames, &header, plane),
            FrameKind::Telemetry => {
                let Ok(frame) = frames.read_whole(&header) else {
                    return;
                };
                if let Ok(telemetry) = decode_body_checked(&frame) {
                    on_telemetry(telemetry);
                }
                true
            }
            FrameKind::Hello => frames.read_whole(&header).is_ok(),
        };
        if !go_on {
            return;
        }
    }
}

/// One worker process's connection state.
#[derive(Default)]
struct Conn {
    /// The writing half (reads happen on the per-connection thread):
    /// `None`, and the worker down, until its hello arrives and after a
    /// disconnect.
    writer: Option<Writer>,
    generation: u64,
}

impl Conn {
    /// Marks the connection dead and shuts its socket down.
    fn sever(&mut self) {
        if let Some(w) = self.writer.take() {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
    }
}

#[expect(clippy::disallowed_types, reason = "metered sockets; keyed lookups")]
struct HubInner<M> {
    listener: TcpListener,
    addr: SocketAddr,
    /// The mailboxes this process hosts (the master's).
    local: ChannelTransport<M>,
    /// Their receivers, for [`TcpHub::local_endpoint`].
    mailboxes: Mailboxes<M>,
    conns: Mutex<HashMap<NodeId, Conn>>,
    /// Router used by reader threads to admit worker-originated frames.
    router: Mutex<Option<Router<M>>>,
    /// The master's monotonic origin: clock probes and echoes are
    /// expressed as nanoseconds since this instant, so worker timelines
    /// can be aligned to the master's.
    origin: Instant,
    shutting_down: AtomicBool,
    /// Handles of the accept loop and every connection thread, joined by
    /// [`TcpHub::shutdown`] so the hub quiesces deterministically — no
    /// detached thread can still be switching a frame (and charging
    /// profiler samples) after shutdown returns.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The master-side transport: local master mailbox + one socket per
/// worker process + ingress switching. Cheap to clone (shared state).
pub struct TcpHub<M> {
    inner: Arc<HubInner<M>>,
}

impl<M> Clone for TcpHub<M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> std::fmt::Debug for TcpHub<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHub")
            .field("addr", &self.inner.addr)
            .finish()
    }
}

impl<M: WireCodec + Clone + Send + 'static> TcpHub<M> {
    /// Binds a loopback listener and prepares slots: `local_ids` get
    /// in-process mailboxes (the master), `remote_ids` get connection
    /// slots filled in when the worker processes dial in.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the metered transport's socket and clock origin"
    )]
    pub fn bind(local_ids: &[NodeId], remote_ids: &[NodeId]) -> io::Result<TcpHub<M>> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let (local, mailboxes) = ChannelTransport::new(local_ids);
        let conns = remote_ids.iter().map(|&id| (id, Conn::default())).collect();
        Ok(TcpHub {
            inner: Arc::new(HubInner {
                listener,
                addr,
                local,
                mailboxes,
                conns: Mutex::new(conns),
                router: Mutex::new(None),
                origin: Instant::now(),
                shutting_down: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The address worker processes should dial.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Takes the mailbox receiver of a locally hosted node (the master)
    /// as an [`Endpoint`] on `router`.
    pub fn local_endpoint(&self, id: NodeId, router: &Router<M>) -> Endpoint<M> {
        let (_, rx, generation) = self
            .inner
            .mailboxes
            .iter()
            .find(|(hosted, ..)| *hosted == id)
            .unwrap_or_else(|| panic!("node {id} is not hub-local"));
        router.endpoint_from_parts(id, rx.clone(), *generation)
    }

    /// Installs the router reader threads dispatch into and starts the
    /// accept loop. Must be called before worker processes dial in.
    pub fn start(&self, router: Router<M>) {
        *self.inner.router.lock() = Some(router);
        let hub = self.clone();
        let handle = std::thread::Builder::new()
            .name("tcp-hub-accept".to_string())
            .spawn(move || hub.accept_loop())
            .expect("spawn hub accept thread");
        self.inner.threads.lock().push(handle);
    }

    fn accept_loop(&self) {
        loop {
            let stream = match self.inner.listener.accept() {
                Ok((s, _)) => s,
                Err(_) => return,
            };
            if self.inner.shutting_down.load(Ordering::Acquire) {
                return;
            }
            let hub = self.clone();
            let handle = std::thread::Builder::new()
                .name("tcp-hub-conn".to_string())
                .spawn(move || hub.serve_conn(stream))
                .expect("spawn hub connection thread");
            self.inner.threads.lock().push(handle);
        }
    }

    /// Handles one worker connection: hello handshake, registration,
    /// then the ingress read loop.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[expect(clippy::disallowed_types, reason = "the metered socket layer")]
    fn serve_conn(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // Every frame of the connection passes through this one window.
        let mut frames = FrameReader::new(stream);
        // Hello: the first frame names the connecting worker.
        let header = match frames.next_header() {
            Ok(Some(h)) if h.kind == FrameKind::Hello => h,
            _ => return, // not a worker of ours; drop the connection
        };
        if frames.read_whole(&header).is_err() {
            return;
        }
        let who = header.from;
        let (generation, writer) = {
            let mut conns = self.inner.conns.lock();
            let Some(conn) = conns.get_mut(&who) else {
                return; // unknown worker id
            };
            conn.sever();
            conn.generation += 1;
            let writer = Arc::new(Mutex::new(
                frames.get_ref().try_clone().expect("clone hub-side stream"),
            ));
            conn.writer = Some(Arc::clone(&writer));
            (conn.generation, writer)
        };
        let router = self
            .inner
            .router
            .lock()
            .clone()
            .expect("hub started before workers dial in");
        // Clock alignment: probe the fresh connection with the master's
        // monotonic timeline; the worker echoes with its own clock and the
        // offset estimate lands in the recorder (telemetry plane — never
        // metered).
        let probe = TelemetryPayload::ClockProbe {
            master_nanos: self.inner.origin.elapsed().as_nanos() as u64,
        };
        let _ = stream_frame(
            &[(who, writer)],
            NodeId::Master,
            &probe,
            FrameKind::Telemetry,
        );
        // Ingress loop: worker-originated frames enter the metering layer
        // here, through the exact same Router paths as in-process sends.
        // The loop ends when the worker process is gone (or speaks
        // garbage, which is treated the same).
        read_frames(
            &mut frames,
            |frames, header, plane| {
                // Per-frame switching cost (body arrival and decode) under
                // one profiler frame, closed *before* ingress: the hand-off
                // unblocks the master, which may immediately drain the
                // profiler (end of training) — charging this frame's sample
                // after ingress would race that drain and make the folded
                // calls nondeterministic for the run's final ack.
                let prof = ProfScope::enter("hub_switch");
                let Ok(payload) = frames.decode_body::<M>(header) else {
                    return false;
                };
                drop(prof);
                let env = Envelope {
                    from: header.from,
                    to: header.to,
                    payload,
                };
                // A NodeDown/UnknownNode here mirrors the error the
                // sending worker would have seen in-process; over a
                // socket the sender is remote, so the hub absorbs it
                // (the loss is detected by deadlines, like any drop).
                let _ = router.ingress(env, plane);
                true
            },
            |telemetry| {
                // Telemetry never reaches `Router::ingress`: it touches no
                // `TrafficStats`, so trace shipping cannot skew trace↔meter
                // reconciliation.
                let _prof = ProfScope::enter("hub_switch");
                match telemetry {
                    TelemetryPayload::ClockEcho {
                        master_nanos,
                        client_nanos,
                    } => {
                        let now = self.inner.origin.elapsed().as_nanos() as u64;
                        let rtt = now.saturating_sub(master_nanos);
                        let midpoint = master_nanos + rtt / 2;
                        let offset_s = (client_nanos as f64 - midpoint as f64) / 1e9;
                        if let NodeId::Worker(w) = who {
                            router.recorder().set_clock_offset(w as u64, offset_s);
                        }
                    }
                    TelemetryPayload::Events(events) => router.recorder().ingest(events),
                    // A probe is master → worker; arriving here it is
                    // misdirected, and dropped.
                    TelemetryPayload::ClockProbe { .. } => {}
                }
            },
        );
        self.mark_conn_dead(who, generation);
    }

    /// Blocks until every worker in `ids` has completed its hello
    /// handshake, or the timeout expires. Polls: connections arrive at
    /// process-spawn granularity, so millisecond latency is irrelevant.
    #[expect(clippy::disallowed_methods, reason = "connection-await deadline")]
    pub fn await_workers(&self, ids: &[NodeId], timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let missing: Vec<NodeId> = {
                let conns = self.inner.conns.lock();
                ids.iter()
                    .filter(|id| conns.get(id).is_none_or(|c| c.writer.is_none()))
                    .copied()
                    .collect()
            };
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "workers did not connect within {timeout:?}: {missing:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops accepting new connections, severs all workers, and joins
    /// every hub thread: when this returns, no hub thread is switching
    /// frames any more, so recorder ingests and profiler samples have
    /// quiesced (a deterministic boundary for the profiling layer).
    #[expect(clippy::disallowed_types, reason = "the metered socket layer")]
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        self.inner.conns.lock().values_mut().for_each(Conn::sever);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.inner.addr);
        // Joining the accept thread guarantees no further connection
        // threads are spawned; re-take the vec until it stays empty in
        // case one was pushed while the first batch was being joined.
        loop {
            let threads: Vec<_> = std::mem::take(&mut *self.inner.threads.lock());
            if threads.is_empty() {
                return;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

impl<M> TcpHub<M> {
    /// Severs a worker's connection (respawn path): the old socket is
    /// shut down and the slot marked dead until a new hello arrives.
    pub fn disconnect(&self, id: NodeId) {
        if let Some(conn) = self.inner.conns.lock().get_mut(&id) {
            conn.sever();
        }
    }

    /// Severs `id`'s connection if it is still the `generation` that
    /// ended.
    fn mark_conn_dead(&self, id: NodeId, generation: u64) {
        let mut conns = self.inner.conns.lock();
        if let Some(conn) = conns.get_mut(&id).filter(|c| c.generation == generation) {
            conn.sever();
        }
    }

    /// Resolves `to` to its mailbox sender or connection writer, cloned
    /// out of its map so no guard is held while sending.
    fn route(&self, to: NodeId) -> Result<Route<M>, NetError> {
        Route::resolve(&self.inner.local, to, || {
            let conns = self.inner.conns.lock();
            let conn = conns.get(&to).ok_or(NetError::UnknownNode(to))?;
            conn.writer.clone().ok_or(NetError::NodeDown(to))
        })
    }
}

impl<M: WireCodec + Clone + Send + 'static> Transport<M> for TcpHub<M> {
    /// The master's mailbox gets the envelope on its channel; a worker
    /// gets it framed and written to its connection.
    fn deliver(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError> {
        self.route(env.to)?.deliver(env, plane)
    }

    /// One `codec_encode` per broadcast, whatever the number of workers.
    fn deliver_all(
        &self,
        from: NodeId,
        tos: &[NodeId],
        payload: &M,
        plane: Plane,
    ) -> Vec<Result<(), NetError>> {
        deliver_to_all(|to| self.route(to), from, tos, payload, plane)
    }

    /// A hub-local mailbox is replaced as in-process. A remote worker's
    /// mailbox lives in its (dead) process, so there is nothing to drain
    /// on this side: the connection is severed until the respawned
    /// process's hello.
    fn reregister(&self, id: NodeId) -> Reregistered<M> {
        let mut conns = self.inner.conns.lock();
        let Some(conn) = conns.get_mut(&id) else {
            drop(conns);
            return self.inner.local.reregister(id);
        };
        conn.sever();
        Reregistered {
            rx: None,
            generation: conn.generation,
            dead_letters: Vec::new(),
        }
    }

    fn mark_dead(&self, id: NodeId, generation: u64) {
        // Each of the two ignores an id it does not host.
        self.inner.local.mark_dead(id, generation);
        self.mark_conn_dead(id, generation);
    }

    fn serializes(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Worker-process side
// ---------------------------------------------------------------------------

struct ClientInner<M> {
    me: NodeId,
    /// Shared with [`TelemetryTx`] and the reader thread's echo path. A
    /// frame goes out one window at a time: every frame producer must
    /// serialize on this one lock, held for the whole frame, or frames
    /// interleave on the socket.
    writer: Writer,
    /// This process's own mailbox, fed by the reader thread. A self-send
    /// (a worker dispatching a workset to itself) is delivered here and
    /// crosses no wire, in either backend.
    local: ChannelTransport<M>,
}

/// Marks a client's mailbox dead when its reader thread ends, on every
/// exit path (hub EOF, a frame that fails to decode, a panic): with no
/// sender left, the worker's `recv` returns `Disconnected` instead of
/// blocking.
struct CloseMailbox<M: Send> {
    inner: Arc<ClientInner<M>>,
    generation: u64,
}

impl<M: Send> Drop for CloseMailbox<M> {
    fn drop(&mut self) {
        self.inner.local.mark_dead(self.inner.me, self.generation);
    }
}

/// The worker-side transport: one socket to the hub plus this process's
/// own mailbox.
pub struct TcpClient<M> {
    inner: Arc<ClientInner<M>>,
}

impl<M> std::fmt::Debug for TcpClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("me", &self.inner.me)
            .finish()
    }
}

impl<M: WireCodec + Clone + Send + 'static> TcpClient<M> {
    /// Dials the hub, sends the hello, and assembles this process's
    /// router + endpoint. `ids` is the full node set of the cluster (for
    /// `Router::nodes`). The worker-side router meters into a private
    /// `TrafficStats` and records no telemetry: metering authority lives
    /// at the hub.
    ///
    /// The returned endpoint's mailbox is fed by a reader thread; when
    /// that thread ends (the hub closed the connection, or a frame failed
    /// to decode) the mailbox disconnects, which a worker loop observes
    /// as `NetError::Disconnected` — the same way an in-process worker
    /// observes the master dropping its channel.
    pub fn connect(
        addr: SocketAddr,
        me: NodeId,
        ids: &[NodeId],
    ) -> io::Result<(Router<M>, Endpoint<M>)> {
        let (router, endpoint, _tx) = Self::connect_traced(addr, me, ids)?;
        Ok((router, endpoint))
    }

    /// [`TcpClient::connect`] plus a [`TelemetryTx`] for shipping locally
    /// recorded telemetry events back to the hub on the (unmetered)
    /// telemetry plane. The handle is returned unconditionally — callers
    /// that do not trace simply drop it.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the metered transport's socket and clock origin"
    )]
    pub fn connect_traced(
        addr: SocketAddr,
        me: NodeId,
        ids: &[NodeId],
    ) -> io::Result<(Router<M>, Endpoint<M>, TelemetryTx)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The worker's monotonic origin: echoes (and any future local
        // timestamps) are nanoseconds since this instant.
        let origin = Instant::now();
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        // lint: allow(blocking-under-lock) hello precedes the reader thread and any sharing of `writer`; the lock is uncontended by construction
        write_frame(&mut *writer.lock(), &encode_hello(me))?;
        let (local, mut mailboxes) = ChannelTransport::new(&[me]);
        let (_, rx, generation) = mailboxes.pop().expect("one mailbox per client");
        let inner = Arc::new(ClientInner {
            me,
            writer: Arc::clone(&writer),
            local,
        });
        let telemetry_tx = TelemetryTx {
            me,
            writer,
            cursor: Arc::new(Mutex::new(0)),
        };
        let router = Router::with_transport(
            Arc::new(TcpClient {
                inner: Arc::clone(&inner),
            }),
            ids,
            TrafficStats::new(),
            None,
            Recorder::disabled(),
        );
        let endpoint = router.endpoint_from_parts(me, rx, generation);
        let mut frames = FrameReader::new(stream);
        let close = CloseMailbox { inner, generation };
        std::thread::Builder::new()
            .name(format!("tcp-client-read-{me}"))
            .spawn(move || {
                let inner = &close.inner;
                read_frames(
                    &mut frames,
                    |frames, header, plane| {
                        let Ok(payload) = frames.decode_body::<M>(header) else {
                            return false;
                        };
                        let env = Envelope {
                            from: header.from,
                            to: header.to,
                            payload,
                        };
                        inner.local.deliver(env, plane).is_ok()
                    },
                    |telemetry| match telemetry {
                        TelemetryPayload::ClockProbe { master_nanos } => {
                            let echo = TelemetryPayload::ClockEcho {
                                master_nanos,
                                client_nanos: origin.elapsed().as_nanos() as u64,
                            };
                            let to_hub = [(NodeId::Master, Arc::clone(&inner.writer))];
                            let _ = stream_frame(&to_hub, me, &echo, FrameKind::Telemetry);
                        }
                        // Echoes and event batches flow worker → master;
                        // arriving here they are misdirected, and dropped.
                        TelemetryPayload::ClockEcho { .. } | TelemetryPayload::Events(_) => {}
                    },
                );
            })
            .expect("spawn client reader thread");
        Ok((router, endpoint, telemetry_tx))
    }
}

/// A worker-process handle for shipping locally recorded telemetry events
/// to the hub as [`FrameKind::Telemetry`] frames. Cloneable (the panic
/// path flushes from a clone); clones share the send cursor, so each event
/// ships at most once.
#[derive(Clone)]
pub struct TelemetryTx {
    me: NodeId,
    writer: Writer,
    /// How many recorder events have been shipped already.
    cursor: Arc<Mutex<usize>>,
}

impl std::fmt::Debug for TelemetryTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryTx").field("me", &self.me).finish()
    }
}

impl TelemetryTx {
    /// Ships every event recorded since the last flush as one batched
    /// telemetry frame. Called at superstep boundaries and on shutdown;
    /// a send failure is ignored (the hub is gone — the run is over and
    /// the loss is visible as missing worker records, not a hang).
    pub fn flush(&self, recorder: &Recorder) {
        let mut events = recorder.events();
        let mut cursor = self.cursor.lock();
        let recorded = events.len();
        if *cursor >= recorded {
            return;
        }
        let batch = TelemetryPayload::Events(events.split_off(*cursor));
        let to_hub = [(NodeId::Master, Arc::clone(&self.writer))];
        // lint: allow(blocking-under-lock) cursor must stay locked across the write so clones cannot double-ship a batch; writer is the write serialization point
        let _ = stream_frame(&to_hub, self.me, &batch, FrameKind::Telemetry);
        *cursor = recorded;
    }
}

impl<M> TcpClient<M> {
    /// A self-send stays in this process; everything else goes to the hub.
    fn route(&self, to: NodeId) -> Result<Route<M>, NetError> {
        Route::resolve(&self.inner.local, to, || Ok(Arc::clone(&self.inner.writer)))
    }
}

impl<M: WireCodec + Clone + Send + 'static> Transport<M> for TcpClient<M> {
    fn deliver(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError> {
        self.route(env.to)?.deliver(env, plane)
    }

    /// Encodes the borrowed payload once, as the hub does: a worker sends
    /// its reply by reference and keeps the buffer.
    fn deliver_all(
        &self,
        from: NodeId,
        tos: &[NodeId],
        payload: &M,
        plane: Plane,
    ) -> Vec<Result<(), NetError>> {
        deliver_to_all(|to| self.route(to), from, tos, payload, plane)
    }

    #[expect(clippy::panic, reason = "protocol misuse: master-side operation only")]
    fn reregister(&self, id: NodeId) -> Reregistered<M> {
        panic!("cannot reregister {id} on a worker-side transport");
    }

    /// The worker's endpoint is gone: so is its mailbox. The socket
    /// closing tells the hub.
    fn mark_dead(&self, id: NodeId, generation: u64) {
        self.inner.local.mark_dead(id, generation);
    }

    fn serializes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_envelope, read_frame, ENVELOPE_BYTES};

    /// Spins a 2-worker hub + clients in one process (threads standing in
    /// for worker processes) and checks delivery, metering parity, and
    /// worker↔worker switching.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "polls against a wall deadline")]
    fn loopback_hub_switches_and_meters() {
        let ids = [NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)];
        let workers = [NodeId::Worker(0), NodeId::Worker(1)];
        let traffic = TrafficStats::new();
        let hub: TcpHub<Vec<f64>> = TcpHub::bind(&[NodeId::Master], &workers).unwrap();
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &ids,
            traffic.clone(),
            None,
            Recorder::disabled(),
        );
        let master = hub.local_endpoint(NodeId::Master, &router);
        hub.start(router.clone());
        let addr = hub.addr();

        let spawn_worker = |w: usize| {
            std::thread::spawn(move || {
                let (_r, ep) = TcpClient::<Vec<f64>>::connect(
                    addr,
                    NodeId::Worker(w),
                    &[NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)],
                )
                .unwrap();
                loop {
                    let Ok(env) = ep.recv() else { return };
                    if env.payload.is_empty() {
                        if w == 0 {
                            // Forward the poison pill to the peer to
                            // exercise worker→worker switching.
                            ep.send(NodeId::Worker(1), vec![9.0]).unwrap();
                        }
                        return;
                    }
                    let doubled: Vec<f64> = env.payload.iter().map(|x| 2.0 * x).collect();
                    ep.send(NodeId::Master, doubled).unwrap();
                }
            })
        };
        let h0 = spawn_worker(0);
        let h1 = spawn_worker(1);
        hub.await_workers(&workers, Duration::from_secs(10))
            .unwrap();

        master.send(NodeId::Worker(0), vec![1.0, 2.0]).unwrap();
        let reply = master.recv().unwrap();
        assert_eq!(reply.from, NodeId::Worker(0));
        assert_eq!(reply.payload, vec![2.0, 4.0]);

        // Metering parity: both directions carry the body + envelope.
        let down = traffic.link(NodeId::Master, NodeId::Worker(0));
        assert_eq!(down.bytes as usize, (8 + 16) + ENVELOPE_BYTES);
        let up = traffic.link(NodeId::Worker(0), NodeId::Master);
        assert_eq!(up.bytes as usize, (8 + 16) + ENVELOPE_BYTES);

        // Worker 0 forwards to worker 1 through the hub switch; worker 1
        // doubles it back to the master.
        master.send(NodeId::Worker(0), vec![]).unwrap();
        let from_w1 = master.recv().unwrap();
        assert_eq!(from_w1.from, NodeId::Worker(1));
        assert_eq!(from_w1.payload, vec![18.0]);
        let cross = traffic.link(NodeId::Worker(0), NodeId::Worker(1));
        assert_eq!(cross.messages, 1);

        master.send(NodeId::Worker(1), vec![]).unwrap();
        h0.join().unwrap();
        h1.join().unwrap();
        // Worker death is observable as NodeDown once EOF lands.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match router.send(NodeId::Master, NodeId::Worker(0), vec![1.0]) {
                Err(NetError::NodeDown(_)) => break,
                Ok(_) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected NodeDown, got {other:?}"),
            }
        }
        hub.shutdown();
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "polls against a wall deadline")]
    fn chaos_fires_once_at_the_hub_with_inproc_identical_schedule() {
        use crate::chaos::ChaosSpec;
        // Same seed, same link, same sequence: the hub's chaos decisions
        // must match the in-process backend's exactly.
        let spec = ChaosSpec {
            seed: 11,
            drop_p: 0.5,
            ..ChaosSpec::default()
        };
        // In-process reference: which of 20 sends survive?
        let (r_ref, mut eps) = Router::<u64>::with_chaos(
            &[NodeId::Master, NodeId::Worker(0)],
            TrafficStats::new(),
            Some(spec),
        );
        let w0 = eps.pop().unwrap();
        let _m = eps.pop().unwrap();
        r_ref.arm_chaos();
        let mut survived_ref = Vec::new();
        for i in 0..20u64 {
            r_ref.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
            while let Some(env) = w0.try_recv() {
                survived_ref.push(env.payload);
            }
        }

        // TCP: a real worker process is overkill here — what matters is
        // that the hub's Router applies the same schedule on the same
        // link. Use the hub-side router directly.
        let hub: TcpHub<u64> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
        let traffic = TrafficStats::new();
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            Some(spec),
            Recorder::disabled(),
        );
        hub.start(router.clone());
        let (_r_client, ep) = TcpClient::<u64>::connect(
            hub.addr(),
            NodeId::Worker(0),
            &[NodeId::Master, NodeId::Worker(0)],
        )
        .unwrap();
        hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
            .unwrap();
        router.arm_chaos();
        let mut survived_tcp = Vec::new();
        for i in 0..20u64 {
            router.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while survived_tcp.len() < survived_ref.len() && Instant::now() < deadline {
            if let Ok(env) = ep.recv_timeout(Duration::from_millis(100)) {
                survived_tcp.push(env.payload);
            }
        }
        assert_eq!(survived_tcp, survived_ref);
        assert_eq!(traffic.total().messages, 20, "drops are metered too");
        hub.shutdown();
    }

    /// A worker whose reader thread quits on a frame it cannot decode sees
    /// its mailbox disconnect: `recv` fails instead of blocking for ever,
    /// and a later self-send fails too. The socket stays open, so the
    /// corrupt frame, not hub EOF, is what ends the reader.
    #[test]
    #[expect(clippy::disallowed_types, reason = "a raw socket plays the hub")]
    fn corrupt_frame_disconnects_the_client_mailbox() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ids = [NodeId::Master, NodeId::Worker(0)];
        let (_router, ep) =
            TcpClient::<u64>::connect(listener.local_addr().unwrap(), NodeId::Worker(0), &ids)
                .unwrap();
        let (mut hub_side, _) = listener.accept().unwrap();
        // A well-formed message frame whose body is not a `u64`.
        let payload = vec![1.0f64, 2.0];
        let frame =
            crate::codec::encode_envelope(NodeId::Master, NodeId::Worker(0), &payload, Plane::Data)
                .unwrap();
        write_frame(&mut hub_side, &frame).unwrap();
        match ep.recv_timeout(Duration::from_secs(10)) {
            Err(NetError::Disconnected) => {}
            other => panic!("expected a disconnected mailbox, got {other:?}"),
        }
        assert!(matches!(
            ep.send(NodeId::Worker(0), 7),
            Err(NetError::NodeDown(NodeId::Worker(0)))
        ));
        drop(hub_side);
    }

    /// Two telemetry frames whose headers are sound and whose bodies are
    /// not: an unknown sub-tag, and a probe whose body decodes 3 bytes
    /// short of its `body_len`.
    fn corrupt_telemetry(from: NodeId, to: NodeId) -> [Vec<u8>; 2] {
        let probe = TelemetryPayload::ClockProbe { master_nanos: 5 };
        let mut stream = [(to, Vec::new())];
        write_envelope_to(&mut stream, from, &probe, FrameKind::Telemetry).unwrap();
        let probe = stream[0].1.split_off(4);
        let mut bad_tag = probe.clone();
        bad_tag[ENVELOPE_BYTES] = 9;
        let mut short = probe;
        short.extend_from_slice(&[0; 3]);
        short[24..32].copy_from_slice(&(9u64 + 3).to_le_bytes());
        for frame in [&bad_tag, &short] {
            let kind = crate::codec::decode_envelope_header(frame).unwrap().kind;
            assert_eq!(kind, FrameKind::Telemetry);
            assert!(decode_body_checked::<TelemetryPayload>(frame).is_err());
        }
        [bad_tag, short]
    }

    /// Corrupt telemetry must not kill the data path, at the hub: a
    /// message that follows two corrupt telemetry frames on a worker's
    /// connection still reaches the master.
    #[test]
    #[expect(clippy::disallowed_types, reason = "a raw socket plays the worker")]
    fn corrupt_telemetry_leaves_the_hub_reading() {
        let ids = [NodeId::Master, NodeId::Worker(0)];
        let hub: TcpHub<u64> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &ids,
            TrafficStats::new(),
            None,
            Recorder::disabled(),
        );
        let master = hub.local_endpoint(NodeId::Master, &router);
        hub.start(router);
        let mut worker = TcpStream::connect(hub.addr()).unwrap();
        write_frame(&mut worker, &encode_hello(NodeId::Worker(0))).unwrap();
        for frame in corrupt_telemetry(NodeId::Worker(0), NodeId::Master) {
            write_frame(&mut worker, &frame).unwrap();
        }
        let msg = encode_envelope(NodeId::Worker(0), NodeId::Master, &7u64, Plane::Data).unwrap();
        write_frame(&mut worker, &msg).unwrap();
        let env = master.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((env.from, env.payload), (NodeId::Worker(0), 7));
        hub.shutdown();
    }

    /// The same on a worker's client: after two corrupt telemetry frames
    /// from the hub, a clock probe is still echoed and a message still
    /// reaches the worker's mailbox.
    #[test]
    #[expect(clippy::disallowed_types, reason = "a raw socket plays the hub")]
    fn corrupt_telemetry_leaves_the_client_reading() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ids = [NodeId::Master, NodeId::Worker(0)];
        let (_router, ep) =
            TcpClient::<u64>::connect(listener.local_addr().unwrap(), NodeId::Worker(0), &ids)
                .unwrap();
        let (mut hub_side, _) = listener.accept().unwrap();
        hub_side
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = read_frame(&mut hub_side).unwrap().unwrap();
        assert_eq!(hello, encode_hello(NodeId::Worker(0)));
        for frame in corrupt_telemetry(NodeId::Master, NodeId::Worker(0)) {
            write_frame(&mut hub_side, &frame).unwrap();
        }
        let probe = TelemetryPayload::ClockProbe { master_nanos: 77 };
        let mut to_worker = [(NodeId::Worker(0), &mut hub_side)];
        write_envelope_to(&mut to_worker, NodeId::Master, &probe, FrameKind::Telemetry).unwrap();
        let echo = read_frame(&mut hub_side).unwrap().unwrap();
        assert!(matches!(
            decode_body_checked(&echo),
            Ok(TelemetryPayload::ClockEcho {
                master_nanos: 77,
                ..
            })
        ));
        let msg = encode_envelope(NodeId::Master, NodeId::Worker(0), &7u64, Plane::Data).unwrap();
        write_frame(&mut hub_side, &msg).unwrap();
        let env = ep.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((env.from, env.payload), (NodeId::Master, 7));
    }
}
