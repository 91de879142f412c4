//! The process backend's launcher: `mpirun` for one host.
//!
//! The paper's PARMONC starts the same user binary N times and every
//! rank speaks the same MPI. [`launch`] is that launcher and nothing
//! more — there is no second protocol. A child runs the user program up
//! to its `run()` call, where the runner finds [`crate::worker_env`]
//! and simply *joins* ([`crate::TcpWorkerTransport::join_unix`]): rank,
//! size, quota and the monitor and span flags arrive
//! in the grant, as they do for a remote TCP worker. A stray local
//! process that finds the socket cannot claim a rank for the same
//! reason a stray TCP dialer cannot: it must present the magic, the
//! protocol version and the run's configuration digest (and, to take
//! over a held rank, the random session epoch).

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::socket::Endpoint;
use crate::tcp::{ListenOptions, TcpCollectorTransport};
use crate::worker::{WorkerInfo, WORKER_FLAG};

/// How long [`launch`] waits for every worker to take its lease before
/// declaring the launch failed.
const JOIN_DEADLINE: Duration = Duration::from_secs(30);

/// How long shutdown waits for workers to exit on their own.
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// How often the launcher and the reaper poll. Short: both waits sit
/// on the critical path of every process run, start-up and teardown.
const POLL: Duration = Duration::from_micros(250);

/// Distinguishes concurrent worlds launched by one process (tests
/// launch several); combined with the pid this makes the socket
/// directory unique.
static LAUNCH_NONCE: AtomicU64 = AtomicU64::new(0);

/// The worker processes of a launched world and the directory holding
/// its socket. Dropping it kills whatever is still running and removes
/// the directory — no orphans survive the parent, even on a panic path.
#[derive(Debug)]
pub(crate) struct Children {
    procs: Vec<Child>,
    dir: PathBuf,
}

impl Children {
    /// Waits for every child to exit on its own, killing any that
    /// outlive [`EXIT_DEADLINE`]. Returns the first wait/kill error,
    /// after all children are reaped anyway.
    pub(crate) fn wait_exit(&mut self) -> io::Result<()> {
        let mut first_err = None;
        let deadline = Instant::now() + EXIT_DEADLINE;
        for child in &mut self.procs {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            if let Err(e) = child.wait() {
                                first_err.get_or_insert(e);
                            }
                            break;
                        }
                        std::thread::sleep(POLL);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        self.procs.clear();
        first_err.map_or(Ok(()), Err)
    }

    /// Kills and waits every child, ignoring errors (failure and drop
    /// paths, where the children may already be gone).
    pub(crate) fn kill(&mut self) {
        for child in &mut self.procs {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.procs.clear();
    }

    /// How many children have exited so far.
    fn exited(&mut self) -> usize {
        self.procs
            .iter_mut()
            .filter_map(|child| child.try_wait().ok().flatten())
            .count()
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Opens a socket world on a private Unix-domain socket, spawns
/// `opts.size - 1` worker processes by re-executing the current binary,
/// and returns the collector once every worker has joined — so
/// membership is fixed before the collector's liveness clock starts.
/// `opts.addr` is not consulted: the socket lives in a fresh temp
/// directory that only this run knows. (The runner also leaves
/// `opts.resume` and `opts.persist` at `None`: collector crash–resume
/// is not extended to a launched world — a crashed parent orphans
/// nothing, its children are reaped.) Tear the world down with
/// [`TcpCollectorTransport::shutdown`], which waits for the children
/// before closing their connections; dropping it instead kills them at
/// once.
///
/// `worker_args` are the arguments for the re-executed binary,
/// excluding the program name. `None` inherits this process's own
/// arguments (minus any existing [`WORKER_FLAG`]) and appends
/// [`WORKER_FLAG`] as a visible `ps`-greppable marker — right for CLI
/// binaries, whose parsers strip the flag again. Test harnesses must
/// instead pass the libtest filter that reaches the launching test
/// function (e.g. `["my_test_fn", "--exact"]`); explicit arguments are
/// used verbatim, *without* the marker, because libtest rejects unknown
/// flags. Worker detection is carried by the environment
/// ([`crate::worker_env`]), not by the flag.
///
/// # Errors
///
/// Directory/bind/spawn failures; a worker exiting before it joined
/// (a child that never reaches the runner's `run()` call); or fewer
/// than `size - 1` leases taken within the join deadline. In every case
/// all spawned children are killed and the socket directory removed
/// before returning.
pub fn launch(
    opts: ListenOptions,
    worker_args: Option<Vec<String>>,
) -> io::Result<TcpCollectorTransport> {
    let workers = opts.size.saturating_sub(1);
    let dir = std::env::temp_dir().join(format!(
        "parmonc-ipc-{}-{}",
        std::process::id(),
        LAUNCH_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    // From here on dropping `children` (alone, or inside `world`)
    // cleans up whatever exists so far.
    let children = Children {
        procs: Vec::with_capacity(workers),
        dir: dir.clone(),
    };
    let info = WorkerInfo {
        socket: dir.join("rank0.sock"),
    };
    let mut world = TcpCollectorTransport::listen_on(&Endpoint::Unix(info.socket.clone()), opts)?;
    let children = world.launched.insert(children);

    let exe = std::env::current_exe()?;
    // Explicit worker_args are used verbatim (libtest filters must
    // not gain unknown flags); the inherited-argv path appends the
    // visible WORKER_FLAG marker for `ps` readability.
    let args: Vec<String> = match worker_args {
        Some(args) => args,
        None => std::env::args()
            .skip(1)
            .filter(|a| a != WORKER_FLAG)
            .chain(std::iter::once(WORKER_FLAG.to_string()))
            .collect(),
    };
    for _ in 0..workers {
        let child = Command::new(&exe)
            .args(&args)
            .envs(info.to_env())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        children.procs.push(child);
    }

    let deadline = Instant::now() + JOIN_DEADLINE;
    loop {
        // Exits are counted *before* leases: a child that joined and
        // then exited is never seen as exited-but-not-joined.
        let exited = world.launched.as_mut().map_or(0, Children::exited);
        let joined = world.ever_leased();
        if joined == workers {
            return Ok(world);
        }
        // Fresh joiners are dealt never-leased ranks first, so each
        // child's join raises the count by one — and a child may finish
        // a small quota and exit before its siblings have even started.
        // More exits than leases, though, means some child left without
        // joining, and no one else will take its rank.
        if exited > joined {
            return Err(io::Error::other(format!(
                "{exited} worker processes exited but only {joined} of {workers} joined: \
                 a worker never reached the run() call that launched it"
            )));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("only {joined} of {workers} workers joined before the deadline"),
            ));
        }
        std::thread::sleep(POLL);
    }
}
