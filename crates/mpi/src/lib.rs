//! An in-process message-passing substrate exposing the MPI subset
//! PARMONC consumes.
//!
//! The paper runs user programs as MPI jobs whose only communication is
//! the PARMONC runtime's own: each worker rank asynchronously sends
//! subtotal sums to rank 0, which takes them as they arrive and
//! periodically averages (Sections 2.2 and 3.2). This crate reproduces
//! that environment with ranks as OS threads and keeps only the
//! point-to-point surface that traffic needs: [`World::communicators`]
//! (the `mpirun` analogue) hands out one [`Communicator`] per rank,
//! which implements [`Transport`] — buffered and latest-wins sends, and
//! a receive with a timeout and a non-blocking one, each of the next
//! message from any rank. [`Communicator`]'s own receives also take
//! MPI-style source/tag filters, with out-of-order buffering.
//!
//! Substitution note (DESIGN.md §1): the calibration hint says Rust MPI
//! bindings are thin; an in-process substrate exercises the identical
//! PARMONC code path (asynchronous sends, collection as messages
//! arrive, rank 0 as the averager) while keeping the whole test suite
//! runnable on a laptop with deterministic scheduling assumptions.
//!
//! # Example
//!
//! ```
//! use parmonc_mpi::{Tag, World};
//!
//! // Every worker sends its rank to rank 0, which sums them.
//! let mut comms = World::communicators(4).unwrap();
//! let mut root = comms.remove(0);
//! let total = std::thread::scope(|scope| {
//!     for worker in comms {
//!         scope.spawn(move || worker.send(0, Tag(7), &(worker.rank() as u64).to_le_bytes()));
//!     }
//!     let mut total = 0u64;
//!     for _ in 1..root.size() {
//!         let msg = root.recv(None, None).unwrap();
//!         total += u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
//!     }
//!     total
//! });
//! assert_eq!(total, 1 + 2 + 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bytes;
pub mod comm;
pub mod envelope;
pub mod error;
pub mod gate;
mod mailbox;
pub mod pool;
pub mod transport;

pub use bytes::{Bytes, BytesMut};
pub use comm::{Communicator, World};
pub use envelope::{Envelope, Tag};
pub use error::MpiError;
pub use gate::FaultGate;
pub use pool::BufferPool;
pub use transport::Transport;

/// Shared by the unit tests of the concurrent modules.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and returns its result, or panics if
    /// it has not finished within `limit` — a hang becomes a failure
    /// instead of a stuck test run.
    pub(crate) fn within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done.send(f());
        });
        match finished.recv_timeout(limit) {
            Ok(value) => {
                worker
                    .join()
                    .expect("watched thread panicked after finishing");
                value
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
            // The sender was dropped without a value: `f` panicked.
            Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the watched thread sends before it returns"),
            },
        }
    }
}
