//! The socket world of the PARMONC reproduction: ranks as processes,
//! on one host or many.
//!
//! The in-process substrate (`parmonc-mpi`) runs ranks as OS threads;
//! this crate runs them as *processes*, which is the paper's actual
//! deployment shape: every rank has its own address space and RNG
//! state, and all communication crosses a real kernel boundary.
//!
//! There is one world and one protocol ([`tcp`], `docs/wire-protocol.md`):
//! a collector listens, workers dial in, and each completes the
//! versioned join/grant handshake that leases it a rank — with sequence
//! dedup, automatic reconnect, a configuration-digest check and
//! collector-aligned clocks on every link. The two socket backends
//! differ only in address family and in who starts the workers:
//!
//! * **TCP** — [`TcpCollectorTransport::listen`] binds an address and
//!   remote workers, started by hand or by a scheduler, call
//!   [`TcpWorkerTransport::join`]; membership is elastic.
//! * **Processes** — [`launch`] is the `mpirun` of this repository: it
//!   binds the same collector to a Unix-domain socket in a private
//!   temp directory, re-executes the current binary once per worker
//!   with the socket path in `PARMONC_WORKER_SOCKET`, and returns when
//!   every child has joined. The runner's first action is to check
//!   [`worker_env`] and divert a child into the worker loop, so the
//!   same user program binary serves as both collector and workers.
//!
//! Messages are the same length-prefixed [`parmonc_mpi::Envelope`]s the
//! thread substrate moves through mailboxes, framed onto the socket
//! ([`frame`]); worker monitor events ride the same stream. A rank
//! receives its messages in the order they reach its inbox, with no
//! source/tag matching, and counts them in and out of one
//! [`parmonc_mpi::comm::DeliveryAccount`], as a thread rank does. Both
//! ends implement [`parmonc_mpi::Transport`], so the collector/worker code
//! in `parmonc` is identical across substrates — and because each rank
//! completes exactly its assigned quota of leapfrogged RNG streams,
//! estimates are bit-identical to the thread backend for the same
//! configuration and seed.

// `deny`, not `forbid`: `poll` carries this crate's only unsafe code,
// the C call the collector's I/O thread waits in.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backoff;
pub mod faulty;
pub mod frame;
mod launcher;
mod link;
mod poll;
mod socket;
pub mod tcp;
mod worker;

pub use backoff::{Backoff, ReconnectPolicy};
pub use faulty::FaultyStream;
pub use launcher::launch;
pub use link::admit_seq;
pub use tcp::{
    JoinOptions, LeaseSnapshot, ListenOptions, TcpCollectorTransport, TcpWorkerTransport,
};
pub use worker::{is_worker, worker_env, WorkerInfo, WORKER_FLAG};
