//! Worker-process self-identification.
//!
//! The process backend re-executes the current binary once per worker.
//! The *environment* is the authoritative channel: the launcher sets
//! `PARMONC_WORKER_SOCKET` on each child, and the runner's first action
//! is to check [`worker_env`] and divert into the worker loop
//! ("hijack") before any of the user program's own side effects can
//! repeat. The socket path is all a child is told — rank, world size,
//! quota and the monitor and span flags arrive in
//! the join handshake's grant, exactly as for a remote TCP worker. The
//! [`WORKER_FLAG`] argument is appended to the child's argv as a
//! human-visible marker (`ps` shows it) and so CLI parsers can strip
//! it; it is not load-bearing.

use std::path::PathBuf;

/// The argv marker appended to worker processes: visible in `ps`,
/// stripped by the CLI/demo argument parsers, otherwise inert.
pub const WORKER_FLAG: &str = "--parmonc-worker";

const ENV_SOCKET: &str = "PARMONC_WORKER_SOCKET";

/// What a spawned worker needs to join its parent's world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Path of the parent's Unix-domain listening socket.
    pub socket: PathBuf,
}

impl WorkerInfo {
    /// The environment variables to set on a spawned worker.
    #[must_use]
    pub fn to_env(&self) -> Vec<(&'static str, String)> {
        vec![(ENV_SOCKET, self.socket.display().to_string())]
    }
}

/// Reads the worker environment, if this process was spawned as a
/// worker.
#[must_use]
pub fn worker_env() -> Option<WorkerInfo> {
    let socket = PathBuf::from(std::env::var(ENV_SOCKET).ok()?);
    Some(WorkerInfo { socket })
}

/// Whether this process is a spawned worker. Use this to guard
/// destructive setup (removing output directories, printing banners)
/// that must only run in the parent: a worker re-executes the user
/// program's `main` up to the `run()` call, and anything before that
/// call runs again in every worker.
#[must_use]
pub fn is_worker() -> bool {
    worker_env().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_round_trips_through_to_env() {
        let info = WorkerInfo {
            socket: PathBuf::from("/tmp/parmonc-ipc-1/rank0.sock"),
        };
        let env = info.to_env();
        assert_eq!(env.len(), 1);
        assert!(env
            .iter()
            .any(|(k, v)| *k == ENV_SOCKET && v == "/tmp/parmonc-ipc-1/rank0.sock"));
    }

    // `worker_env()` itself reads real process environment; tests do
    // not mutate it (std::env::set_var is process-global and would
    // race the parallel test harness), so the parse paths are covered
    // via the integration spawn tests in `transport_conformance.rs`.
    #[test]
    fn this_test_process_is_not_a_worker() {
        assert!(!is_worker());
    }
}
