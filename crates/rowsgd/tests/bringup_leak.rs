//! A TCP bring-up that fails must leave nothing behind.
//!
//! Regression: both engines used to return their bring-up error with the
//! `tcp-hub-accept` thread still holding a clone of the hub — so the
//! listener and every connected child lived until the master *process*
//! exited — and dropped the `Child` handles of what they had spawned
//! without killing or waiting for them. The shared host owns the hub and
//! the children, so its error path closes the one and reaps the others.
//!
//! One test in its own file: the check reads this process's thread list,
//! so no other engine may be running a hub beside it.

use std::path::PathBuf;
use std::time::Duration;

use columnsgd_cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd_core::{ColumnSgdConfig, ColumnSgdEngine, TrainError};
use columnsgd_data::synth;
use columnsgd_ml::ModelSpec;
use columnsgd_rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};

/// Names of this process's live hub threads (accept loop, connections).
///
/// A joined thread can stay listed in `/proc/self/task` for a moment (the
/// kernel wakes the joiner before it removes the task), so the list is
/// re-read until it is empty or 2 s have passed. A leaked thread stays.
fn hub_threads() -> Vec<String> {
    let read = || -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .filter(|name| name == "tcp-hub-accept" || name == "tcp-hub-conn")
            .collect()
    };
    for _ in 0..200 {
        let live = read();
        if live.is_empty() {
            return live;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    read()
}

/// Pids whose parent is this process, zombies included.
fn children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let procs = std::fs::read_dir("/proc").expect("procfs");
    procs
        .filter_map(|p| p.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // `pid (comm) state ppid …`; comm may contain spaces.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| Some(stat.rsplit_once(')')?.1.split(' ').nth(2)? == me))
                .unwrap_or(false)
        })
        .collect()
}

fn assert_load_failed_cleanly<E>(what: &str, built: Result<E, TrainError>) {
    match built {
        Err(TrainError::LoadFailed(_)) => {}
        Err(other) => panic!("{what}: expected LoadFailed, got {other}"),
        Ok(_) => panic!("{what}: bring-up cannot succeed without workers"),
    }
    assert_eq!(hub_threads(), Vec::<String>::new(), "{what}: hub threads");
    assert_eq!(children(), Vec::<u32>::new(), "{what}: child processes");
}

#[test]
fn failed_tcp_bring_up_leaves_no_thread_or_process_behind() {
    let ds = synth::small_test_dataset(60, 12, 5);
    // A "worker" that exits without ever dialling the hub.
    let cluster = ClusterConfig::tcp().with_worker_bin(PathBuf::from("/bin/true"));

    let built = ColumnSgdEngine::new_clustered(
        &ds,
        2,
        ColumnSgdConfig::new(ModelSpec::Lr).with_deadline_ms(30),
        NetworkModel::INSTANT,
        FailurePlan::none(),
        Recorder::disabled(),
        &cluster,
    );
    assert_load_failed_cleanly("ColumnSgdEngine", built);

    let built = RowSgdEngine::new_clustered(
        &ds,
        2,
        RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib).with_deadline_ms(30),
        NetworkModel::INSTANT,
        Recorder::disabled(),
        &cluster,
    );
    assert_load_failed_cleanly("RowSgdEngine", built);
}
