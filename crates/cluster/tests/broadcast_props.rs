//! `Router::broadcast` is K sequential `Router::send`s with one payload.
//! On both transports, for any K, payload size and seeded chaos schedule,
//! the two fan-outs leave identical per-link meters, `CommRecord`
//! sequences, fault draws and mailbox contents. On TCP each worker's frame
//! is byte-identical to `encode_envelope(from, to_w, ..)` and the payload
//! is encoded once per broadcast. A dead destination fails alone. The
//! worker side holds the same: a `TcpClient` broadcast to `[Master]` is a
//! `send` in frame bytes, meter, `CommRecord`s and mailbox, encoded once.

use std::io::{self, Write};
#[expect(clippy::disallowed_types, reason = "the test drives raw sockets")]
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use columnsgd_cluster::codec::{
    decode_body_checked, decode_envelope_header, encode_envelope, encode_hello, read_frame,
    write_envelope_to, write_frame, FrameKind,
};
use columnsgd_cluster::telemetry::{profile, CommRecord, Event, Plane, ProfScope};
use columnsgd_cluster::traffic::LinkStats;
use columnsgd_cluster::{
    ChaosSpec, NetError, NodeId, Recorder, Router, TcpClient, TcpHub, TrafficStats,
};
use proptest::prelude::*;

type Payload = Vec<f64>;

/// How the master fans one payload out to every worker.
#[derive(Debug, Clone, Copy)]
enum Fanout {
    Broadcast,
    Sends,
}

/// Everything a fan-out leaves behind that a worker or an auditor sees.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per round, one result per worker.
    results: Vec<Vec<Result<(), NetError>>>,
    links: Vec<((NodeId, NodeId), LinkStats)>,
    comm: Vec<CommRecord>,
    /// Per worker, the payloads its mailbox received, in order.
    mailboxes: Vec<Vec<Payload>>,
}

fn workers(k: usize) -> Vec<NodeId> {
    (0..k).map(NodeId::Worker).collect()
}

fn all_nodes(k: usize) -> Vec<NodeId> {
    std::iter::once(NodeId::Master).chain(workers(k)).collect()
}

fn fan_out(
    router: &Router<Payload>,
    from: NodeId,
    how: Fanout,
    tos: &[NodeId],
    payload: &Payload,
) -> Vec<Result<(), NetError>> {
    match how {
        Fanout::Broadcast => router.broadcast(from, tos, payload),
        Fanout::Sends => tos
            .iter()
            .map(|&to| router.send(from, to, payload.clone()))
            .collect(),
    }
}

fn comm_records(recorder: &Recorder) -> Vec<CommRecord> {
    let comm = recorder.events().into_iter().filter_map(|e| match e {
        Event::Comm(c) => Some(c),
        _ => None,
    });
    comm.collect()
}

/// Runs `rounds` of master → all-workers fan-outs over in-process channels.
fn inproc_run(k: usize, chaos: Option<ChaosSpec>, rounds: &[Payload], how: Fanout) -> Observed {
    let (traffic, recorder) = (TrafficStats::new(), Recorder::new());
    let (router, mut eps) =
        Router::with_recorder(&all_nodes(k), traffic.clone(), chaos, recorder.clone());
    assert!(!router.serializes(), "an in-process fan-out clones");
    let worker_eps = eps.split_off(1);
    router.arm_chaos();
    let tos = workers(k);
    let results = rounds
        .iter()
        .map(|p| fan_out(&router, NodeId::Master, how, &tos, p))
        .collect();
    let mailboxes = worker_eps
        .iter()
        .map(|ep| {
            std::iter::from_fn(|| ep.try_recv())
                .map(|env| env.payload)
                .collect()
        })
        .collect();
    Observed {
        results,
        links: traffic.snapshot(),
        comm: comm_records(&recorder),
        mailboxes,
    }
}

/// A raw socket standing in for a worker process: it says hello, then a
/// reader thread collects every message frame until the connection
/// closes. Returns the socket (to kill it) and the reader.
#[expect(clippy::disallowed_types, reason = "the test drives raw sockets")]
fn raw_worker(hub: &TcpHub<Payload>, w: usize) -> (TcpStream, JoinHandle<Vec<Vec<u8>>>) {
    let mut stream = TcpStream::connect(hub.addr()).expect("dial hub");
    write_frame(&mut stream, &encode_hello(NodeId::Worker(w))).expect("hello");
    let socket = stream.try_clone().expect("clone socket");
    let reader = std::thread::spawn(move || {
        let mut frames = Vec::new();
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            let header = decode_envelope_header(&frame).expect("well-formed header");
            // Skip the hub's clock probe (telemetry plane).
            if matches!(header.kind, FrameKind::Message(_)) {
                frames.push(frame);
            }
        }
        frames
    });
    (socket, reader)
}

/// A hub over raw worker sockets, with its router and the readers.
#[expect(clippy::disallowed_types, reason = "the test drives raw sockets")]
struct TcpRig {
    hub: TcpHub<Payload>,
    router: Router<Payload>,
    sockets: Vec<TcpStream>,
    readers: Vec<JoinHandle<Vec<Vec<u8>>>>,
    traffic: TrafficStats,
    recorder: Recorder,
}

impl TcpRig {
    fn up(k: usize, chaos: Option<ChaosSpec>) -> TcpRig {
        let (traffic, recorder) = (TrafficStats::new(), Recorder::new());
        let hub = TcpHub::bind(&[NodeId::Master], &workers(k)).expect("bind hub");
        let transport = Arc::new(hub.clone());
        let router = Router::with_transport(
            transport,
            &all_nodes(k),
            traffic.clone(),
            chaos,
            recorder.clone(),
        );
        assert!(router.serializes(), "a hub fan-out encodes");
        hub.start(router.clone());
        let (sockets, readers) = (0..k).map(|w| raw_worker(&hub, w)).unzip();
        hub.await_workers(&workers(k), Duration::from_secs(10))
            .expect("workers connect");
        router.arm_chaos();
        TcpRig {
            hub,
            router,
            sockets,
            readers,
            traffic,
            recorder,
        }
    }

    /// Closes every connection and returns each worker's message frames.
    fn down(self) -> (TrafficStats, Recorder, Vec<Vec<Vec<u8>>>) {
        self.hub.shutdown();
        let frames = self
            .readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect();
        (self.traffic, self.recorder, frames)
    }
}

/// Runs `rounds` of fan-outs over the TCP hub. Every frame a worker
/// receives must be exactly `encode_envelope(master, that worker, ..)`.
fn tcp_run(
    k: usize,
    chaos: Option<ChaosSpec>,
    rounds: &[Payload],
    how: Fanout,
) -> Result<Observed, String> {
    let rig = TcpRig::up(k, chaos);
    let tos = workers(k);
    let results = rounds
        .iter()
        .map(|p| fan_out(&rig.router, NodeId::Master, how, &tos, p))
        .collect();
    let (traffic, recorder, frames) = rig.down();
    let mut mailboxes = Vec::with_capacity(k);
    for (w, frames) in frames.iter().enumerate() {
        let mut mailbox = Vec::with_capacity(frames.len());
        for frame in frames {
            let payload: Payload = decode_body_checked(frame).map_err(|e| e.to_string())?;
            let want = encode_envelope(NodeId::Master, NodeId::Worker(w), &payload, Plane::Data)
                .map_err(|e| e.to_string())?;
            prop_assert!(
                *frame == want,
                "{how:?}: worker {w}'s frame differs from its own encoding"
            );
            mailbox.push(payload);
        }
        mailboxes.push(mailbox);
    }
    Ok(Observed {
        results,
        links: traffic.snapshot(),
        comm: comm_records(&recorder),
        mailboxes,
    })
}

fn payload(len: usize, seed: u64) -> Payload {
    (0..len).map(|i| (seed ^ i as u64) as f64 * 0.25).collect()
}

/// No chaos, or a seeded schedule mixing drops, duplicates and delays.
fn chaos_strategy() -> impl Strategy<Value = Option<ChaosSpec>> {
    let spec = (0u64..1_000, 0.0f64..0.25, 0.0f64..0.25, 0.0f64..0.3).prop_map(
        |(seed, drop_p, dup_p, delay_p)| {
            Some(ChaosSpec {
                seed,
                drop_p,
                dup_p,
                delay_p,
                crash_p: 0.0,
            })
        },
    );
    prop_oneof![Just(None), spec]
}

proptest! {
    #[test]
    fn broadcast_equals_k_sends_on_both_transports(
        k in 1usize..5,
        rounds in prop::collection::vec((0usize..1_500, 0u64..1_000), 1..7),
        chaos in chaos_strategy(),
    ) {
        let rounds: Vec<Payload> = rounds.iter().map(|&(len, seed)| payload(len, seed)).collect();
        let reference = inproc_run(k, chaos, &rounds, Fanout::Sends);
        let sent: usize = reference.mailboxes.iter().map(Vec::len).sum();
        prop_assert!(reference.comm.len() >= k * rounds.len() && sent <= reference.comm.len());

        prop_assert_eq!(&inproc_run(k, chaos, &rounds, Fanout::Broadcast), &reference, "inproc broadcast");
        prop_assert_eq!(&tcp_run(k, chaos, &rounds, Fanout::Sends)?, &reference, "tcp sends");
        prop_assert_eq!(&tcp_run(k, chaos, &rounds, Fanout::Broadcast)?, &reference, "tcp broadcast");
    }
}

/// Counts the `codec_encode` scopes `f` enters on this thread.
fn encodes_in(f: impl FnOnce()) -> u64 {
    const PROBE: &str = "broadcast_props_probe";
    let _ = profile::drain();
    {
        let _probe = ProfScope::enter(PROBE);
        f();
    }
    let stack = format!("{PROBE};codec_encode");
    let records = profile::drain();
    records
        .iter()
        .filter(|r| r.stack == stack)
        .map(|r| r.calls)
        .sum()
}

/// Serializes the tests that switch the process-wide profiler on and off.
static PROFILER: Mutex<()> = Mutex::new(());

/// On TCP a broadcast encodes its payload once, whatever K; K sends
/// encode it K times.
#[test]
fn tcp_broadcast_encodes_once() {
    let _profiler = PROFILER.lock().unwrap_or_else(PoisonError::into_inner);
    profile::set_enabled(true);
    let (k, rounds) = (4, 3);
    let rig = TcpRig::up(k, None);
    let tos = workers(k);
    let model = payload(50_000, 7);
    let encodes = |how| {
        encodes_in(|| {
            for _ in 0..rounds {
                assert!(fan_out(&rig.router, NodeId::Master, how, &tos, &model)
                    .iter()
                    .all(Result::is_ok));
            }
        })
    };
    let (once, each) = (encodes(Fanout::Broadcast), encodes(Fanout::Sends));
    profile::set_enabled(false);
    let (_, _, frames) = rig.down();
    assert_eq!((once, each), (rounds, rounds * k as u64));
    for (w, frames) in frames.iter().enumerate() {
        assert_eq!(frames.len(), 2 * rounds as usize, "worker {w}");
    }
}

/// A worker whose connection dies fails only its own destination: the
/// others keep receiving every broadcast.
#[test]
#[expect(clippy::disallowed_methods, reason = "polls against a wall deadline")]
fn dead_connection_fails_only_its_destination() {
    let k = 3;
    let model = payload(2_000, 1);
    let tos = workers(k);

    // In process: the dead worker's endpoint is dropped.
    let (router, mut eps) = Router::<Payload>::new(&all_nodes(k), TrafficStats::new());
    drop(eps.remove(2));
    let results = router.broadcast(NodeId::Master, &tos, &model);
    assert_eq!(
        results,
        vec![Ok(()), Err(NetError::NodeDown(NodeId::Worker(1))), Ok(())]
    );
    for (w, ep) in [(0, &eps[1]), (2, &eps[2])] {
        assert_eq!(
            ep.try_recv().map(|env| env.payload),
            Some(model.clone()),
            "worker {w}"
        );
    }

    // Over TCP: worker 1's socket dies; broadcast until the hub sees it.
    let rig = TcpRig::up(k, None);
    rig.sockets[1]
        .shutdown(Shutdown::Both)
        .expect("kill worker 1");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut broadcasts = 0;
    loop {
        let results = rig.router.broadcast(NodeId::Master, &tos, &model);
        broadcasts += 1;
        assert!(results[0].is_ok() && results[2].is_ok(), "{results:?}");
        if results[1] == Err(NetError::NodeDown(NodeId::Worker(1))) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the hub never noticed the dead connection"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, _, frames) = rig.down();
    assert!(frames[1].len() < broadcasts);
    for w in [0, 2] {
        assert_eq!(frames[w].len(), broadcasts, "worker {w}");
        for frame in &frames[w] {
            assert_eq!(
                decode_body_checked::<Payload>(frame).expect("decode"),
                model
            );
        }
    }
}

/// A payload whose frame is three and a half windows of the transport:
/// 4 + 32 + 8 + 8·n bytes ≈ 3.5 × 64 KiB.
fn multi_window_payload() -> Payload {
    payload((7 * (32 << 10) - 44) / 8, 5)
}

/// A broadcast of several windows to K = 3 raw workers: one encode, and
/// every socket carries exactly `write_frame(encode_envelope(master, w,
/// ..))` — the raw readers' frames are compared with each worker's own
/// encoding in `tcp_run`'s way.
#[test]
fn multi_window_broadcast_is_one_encode_with_each_workers_bytes() {
    let _profiler = PROFILER.lock().unwrap_or_else(PoisonError::into_inner);
    let (k, model) = (3, multi_window_payload());
    let rig = TcpRig::up(k, None);
    let tos = workers(k);
    profile::set_enabled(true);
    let encodes = encodes_in(|| {
        let sent = fan_out(&rig.router, NodeId::Master, Fanout::Broadcast, &tos, &model);
        assert_eq!(sent, vec![Ok(()); k]);
    });
    profile::set_enabled(false);
    assert_eq!(encodes, 1);
    let (_, _, frames) = rig.down();
    for (w, frames) in frames.iter().enumerate() {
        let want = encode_envelope(NodeId::Master, NodeId::Worker(w), &model, Plane::Data)
            .expect("encode");
        assert!(want.len() > 3 * (64 << 10), "{} B", want.len());
        assert_eq!(frames, &vec![want], "worker {w}");
    }
}

/// A writer that accepts `limit` bytes and then fails, like a socket
/// whose peer died in the middle of a frame.
struct DiesAfter {
    limit: usize,
    written: usize,
}

impl Write for DiesAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written >= self.limit {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.limit - self.written);
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A connection that dies in the middle of a multi-window frame fails
/// only its own destination; the others receive the whole frame. At the
/// codec, the death is placed exactly (after the first window); over
/// real sockets, worker 1's connection is closed and the broadcast
/// repeated until the hub reports it dead.
#[test]
#[expect(clippy::disallowed_methods, reason = "polls against a wall deadline")]
fn connection_killed_in_mid_frame_fails_alone() {
    let model = multi_window_payload();
    let tos = workers(3);
    let (mut out0, mut out2) = (Vec::new(), Vec::new());
    let mut killed = DiesAfter {
        limit: 70_000,
        written: 0,
    };
    let mut dests: Vec<(NodeId, &mut dyn Write)> = vec![
        (tos[0], &mut out0),
        (tos[1], &mut killed),
        (tos[2], &mut out2),
    ];
    let sent = write_envelope_to(
        &mut dests,
        NodeId::Master,
        &model,
        FrameKind::Message(Plane::Data),
    )
    .expect("encodable");
    drop(dests);
    assert!(
        sent[0].is_ok() && sent[1].is_err() && sent[2].is_ok(),
        "{sent:?}"
    );
    assert_eq!(
        killed.written, 70_000,
        "worker 1 died after the first window"
    );
    for (w, out) in [(0, &out0), (2, &out2)] {
        let mut want = Vec::new();
        let frame = encode_envelope(NodeId::Master, NodeId::Worker(w), &model, Plane::Data);
        write_frame(&mut want, &frame.expect("encode")).expect("frame");
        assert!(*out == want, "worker {w} got a different frame");
    }

    let mut rig = TcpRig::up(3, None);
    let socket = rig.sockets.remove(1);
    socket.shutdown(Shutdown::Both).expect("kill worker 1");
    rig.readers.remove(1).join().expect("reader");
    drop(socket);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut broadcasts = 0;
    loop {
        let results = rig.router.broadcast(NodeId::Master, &tos, &model);
        broadcasts += 1;
        assert!(results[0].is_ok() && results[2].is_ok(), "{results:?}");
        if results[1] == Err(NetError::NodeDown(NodeId::Worker(1))) {
            break;
        }
        assert!(Instant::now() < deadline, "the hub never saw worker 1 die");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, _, frames) = rig.down();
    for (frames, w) in frames.iter().zip([0, 2]) {
        let want = encode_envelope(NodeId::Master, NodeId::Worker(w), &model, Plane::Data)
            .expect("encode");
        assert_eq!(frames.len(), broadcasts, "worker {w}");
        assert!(frames.iter().all(|f| *f == want), "worker {w}");
    }
}

const WORKER: NodeId = NodeId::Worker(0);

/// Fans `rounds` out from worker 0's `TcpClient` to `[Master]` at a real
/// hub, and returns what the hub's meter, trace and master mailbox saw.
fn worker_run(how: Fanout, rounds: &[Payload]) -> Observed {
    let (traffic, recorder) = (TrafficStats::new(), Recorder::new());
    let hub = TcpHub::bind(&[NodeId::Master], &workers(1)).expect("bind hub");
    let router = Router::with_transport(
        Arc::new(hub.clone()),
        &all_nodes(1),
        traffic.clone(),
        None,
        recorder.clone(),
    );
    let master = hub.local_endpoint(NodeId::Master, &router);
    hub.start(router);
    let (client, _ep) =
        TcpClient::<Payload>::connect(hub.addr(), WORKER, &all_nodes(1)).expect("dial hub");
    hub.await_workers(&workers(1), Duration::from_secs(10))
        .expect("worker connects");
    let results = rounds
        .iter()
        .map(|p| fan_out(&client, WORKER, how, &[NodeId::Master], p))
        .collect();
    let mailbox = rounds
        .iter()
        .map(|_| {
            let env = master.recv_timeout(Duration::from_secs(10));
            env.expect("reply reaches the master").payload
        })
        .collect();
    hub.shutdown();
    Observed {
        results,
        links: traffic.snapshot(),
        comm: comm_records(&recorder),
        mailboxes: vec![mailbox],
    }
}

/// A raw listener standing in for the hub: accepts one worker and
/// collects its first `n` message frames, skipping the hello.
#[expect(clippy::disallowed_types, reason = "a raw listener plays the hub")]
fn raw_hub(n: usize) -> (SocketAddr, JoinHandle<Vec<Vec<u8>>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reader = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut frames = Vec::with_capacity(n);
        while frames.len() < n {
            let frame = read_frame(&mut stream).expect("read").expect("frame");
            let header = decode_envelope_header(&frame).expect("well-formed header");
            if matches!(header.kind, FrameKind::Message(_)) {
                frames.push(frame);
            }
        }
        frames
    });
    (addr, reader)
}

/// A worker's broadcast to `[Master]` is one `send`: the hub meters,
/// traces and delivers the same, the socket carries the same bytes (those
/// of `encode_envelope(worker, master, ..)`), and it costs one encode.
#[test]
fn worker_broadcast_to_master_equals_a_send() {
    let rounds: Vec<Payload> = [0, 3, 2_000, 70_000]
        .iter()
        .map(|&len| payload(len, len as u64))
        .collect();
    assert_eq!(
        worker_run(Fanout::Broadcast, &rounds),
        worker_run(Fanout::Sends, &rounds)
    );

    let _profiler = PROFILER.lock().unwrap_or_else(PoisonError::into_inner);
    profile::set_enabled(true);
    let (addr, hub) = raw_hub(2 * rounds.len());
    let (client, _ep) = TcpClient::<Payload>::connect(addr, WORKER, &all_nodes(1)).expect("dial");
    assert!(client.serializes(), "a worker's fan-out encodes");
    let mut encodes = Vec::new();
    for p in &rounds {
        for how in [Fanout::Broadcast, Fanout::Sends] {
            encodes.push(encodes_in(|| {
                let sent = fan_out(&client, WORKER, how, &[NodeId::Master], p);
                assert_eq!(sent, vec![Ok(())]);
            }));
        }
    }
    profile::set_enabled(false);
    assert_eq!(encodes, vec![1; 2 * rounds.len()]);
    let frames = hub.join().expect("raw hub");
    for (p, pair) in rounds.iter().zip(frames.chunks(2)) {
        let want = encode_envelope(WORKER, NodeId::Master, p, Plane::Data).expect("encode");
        assert_eq!(pair[0], want, "broadcast frame of {} values", p.len());
        assert_eq!(pair[1], want, "send frame of {} values", p.len());
    }
}
