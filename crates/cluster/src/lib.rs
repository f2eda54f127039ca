//! An in-process distributed runtime — the substrate that replaces Apache
//! Spark in this reproduction.
//!
//! The paper implements ColumnSGD on top of Spark: a driver (master)
//! schedules tasks on executors (workers), and all coordination happens via
//! task results and broadcasts over a physical network (1 Gbps in Cluster 1,
//! 10 Gbps in Cluster 2). We rebuild the parts of that stack the algorithms
//! actually exercise:
//!
//! * [`node`]: node identities (one master, K workers, optional parameter
//!   servers for the RowSGD baselines),
//! * [`codec`]: the wire format — every payload's encoder, run into a
//!   byte counter, is its size, so communication is *metered exactly*,
//! * [`router`]: mailbox-style message passing over crossbeam channels;
//!   workers run on real OS threads and share no state with the master,
//! * [`traffic`]: per-link byte/message accounting,
//! * [`netmodel`]: the latency+bandwidth cost model that converts metered
//!   bytes into simulated wall-clock time, with the paper's two cluster
//!   configurations as presets,
//! * [`clock`]: per-iteration simulated-time accounting under BSP
//!   semantics,
//! * [`failure`]: straggler and failure injection (§V-C's `StragglerLevel`
//!   methodology, §X's task/worker failures),
//! * [`host`]: the one worker host under every engine — thread or process
//!   slots that are started, respawned and stopped the same way, the boot
//!   line a worker process reads, and the `main` of a worker binary.
//!
//! **Why simulated time?** The paper's experiments ran on 8–40 machines; a
//! single host cannot reproduce real network transfer times. Every message
//! in this runtime is physically delivered (through channels) *and* metered;
//! the [`netmodel::NetworkModel`] then prices the metered bytes at the
//! paper's link speeds. Local compute is measured with real timers. The
//! reported per-iteration time is `max-over-workers(compute) + priced
//! communication`, exactly the decomposition the paper's own analytic model
//! (§III-B) uses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod clock;
pub mod codec;
pub mod config;
pub mod failure;
pub mod host;
pub mod membership;
pub mod netmodel;
pub mod node;
pub mod router;
pub mod tcp;
pub mod traffic;
pub mod transport;

pub use chaos::{ChaosSpec, WireFault};
pub use clock::SimClock;
pub use codec::{
    wire_size, CodecError, Sink, TelemetryPayload, WireCodec, WireReader, ENVELOPE_BYTES,
};
pub use columnsgd_telemetry as telemetry;
pub use columnsgd_telemetry::{
    DiagnosticEvent, DiagnosticKind, Diagnostics, Monitor, MonitorConfig, Recorder, SuperstepObs,
};
pub use config::{ClusterConfig, TransportKind};
pub use failure::{FailureEvent, FailurePlan, StragglerSpec};
pub use host::{worker_main, Boot, BootJob, Host, Launcher, WorkerJob};
pub use membership::{
    Membership, MembershipError, MembershipEvent, RebalancePlan, ShardDrop, ShardMove, ShardRole,
    WorkerState,
};
pub use netmodel::NetworkModel;
pub use node::NodeId;
pub use router::{
    metered_bytes, panic_message, spawn_guarded, Endpoint, Envelope, NetError, Router,
};
pub use tcp::{TcpClient, TcpHub, TelemetryTx};
pub use traffic::{LinkStats, TrafficStats};
pub use transport::{ChannelTransport, Reregistered, Transport};
