//! A single-threaded replay of a workload's per-realization pipeline,
//! written against the layers' public functions — no runner.
//!
//! It walks rank 0's then rank 1's quota of the two-rank configuration
//! from `StreamHierarchy::cursor`, a block of realizations at a time,
//! one layer at a time within a block, so that one span covers a whole
//! block's calls of one layer. Rank 1 also runs the exchange stages a
//! worker runs (encode, transport, decode): once per realization under
//! strict exchange, once at the end under periodic exchange. Rank 0
//! sends nothing, as in a real run, where it absorbs its own subtotal.
//! The final rank-ordered merge is the serial reference the two-rank
//! runs must reproduce bit for bit.

use parmonc::messages::{Subtotal, TAG_SUBTOTAL};
use parmonc::{Exchange, RealizationStream, Realize, RunConfig, StreamHierarchy, StreamId};
use parmonc_ipc::frame::{read_frame, write_frame_seq, Frame};
use parmonc_mpi::{BufferPool, Bytes, Communicator, Envelope, World};
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use crate::trace::{Span, Tracer};
use crate::workload::Workload;
use crate::Res;

/// What a replay produced.
#[derive(Debug)]
pub struct Replay {
    /// The rank-ordered merge of both ranks' accumulators.
    pub total: MatrixAccumulator,
    /// Summary of `total`: the serial reference.
    pub summary: MatrixSummary,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// The recorded spans (traced replays only).
    pub spans: Vec<Span>,
}

/// The transport stage between encode and decode.
enum Wire {
    /// In-process channels: same-thread send 1→0, receive, recycle.
    Threads {
        comms: Vec<Communicator>,
        inbox: Vec<Envelope>,
    },
    /// TCP framing without the kernel: frame into a buffer, parse back.
    Frames {
        wire: Vec<Vec<u8>>,
        frames: Vec<Frame>,
        seq: u64,
    },
}

/// Rank 1's side of the exchange plane and rank 0's slot for it.
struct ExchangeStages {
    pool: BufferPool,
    payloads: Vec<Bytes>,
    wire: Wire,
    slot: Option<Subtotal>,
}

impl ExchangeStages {
    fn new(w: &Workload) -> Res<Self> {
        let wire = if w.tcp {
            Wire::Frames {
                wire: vec![Vec::new(); w.block],
                frames: Vec::with_capacity(w.block),
                seq: 0,
            }
        } else {
            Wire::Threads {
                comms: World::communicators(2)?,
                inbox: Vec::with_capacity(w.block),
            }
        };
        Ok(Self {
            // One buffer per realization of a block is in flight at
            // once, because the stages run a block at a time.
            pool: BufferPool::new(w.block),
            payloads: Vec::with_capacity(w.block),
            wire,
            slot: None,
        })
    }

    /// Ships `acc` from rank 1 to rank 0's slot `n` times.
    fn run(&mut self, tracer: &mut Tracer, acc: &MatrixAccumulator, n: usize) -> Res<()> {
        let calls = n as u64;
        let Self {
            pool,
            payloads,
            wire,
            slot,
        } = self;
        tracer.stage("messages.encode", calls, || {
            payloads.extend((0..n).map(|_| Subtotal::encode_state_pooled(acc, 0.0, pool)));
        });
        match wire {
            Wire::Threads { comms, inbox } => {
                let (rank0, rank1) = comms.split_at_mut(1);
                tracer.stage("mpi.send_recv", calls, || -> Res<()> {
                    for payload in payloads.drain(..) {
                        rank1[0].send_bytes(0, TAG_SUBTOTAL, payload)?;
                        inbox.push(rank0[0].recv(None, None)?);
                    }
                    Ok(())
                })?;
                tracer.stage("messages.decode", calls, || -> Res<()> {
                    for env in inbox.iter() {
                        Subtotal::decode_into(&env.payload, slot)?;
                    }
                    Ok(())
                })?;
                // The recycle half of the transport stage: no new calls.
                tracer.stage("mpi.send_recv", 0, || {
                    for env in inbox.drain(..) {
                        pool.recycle(env.payload);
                    }
                });
            }
            Wire::Frames { wire, frames, seq } => {
                tracer.stage("ipc.frame_write", calls, || -> Res<()> {
                    for (payload, buf) in payloads.drain(..).zip(wire.iter_mut()) {
                        buf.clear();
                        *seq += 1;
                        write_frame_seq(buf, 1, TAG_SUBTOTAL.0, *seq, &payload)?;
                        pool.recycle(payload);
                    }
                    Ok(())
                })?;
                tracer.stage("ipc.frame_read", calls, || -> Res<()> {
                    for buf in &wire[..n] {
                        let frame = read_frame(&mut &buf[..])?.ok_or("empty frame buffer")?;
                        frames.push(frame);
                    }
                    Ok(())
                })?;
                tracer.stage("messages.decode", calls, || -> Res<()> {
                    for frame in frames.drain(..) {
                        Subtotal::decode_into(&Bytes::from(frame.payload), slot)?;
                    }
                    Ok(())
                })?;
            }
        }
        Ok(())
    }
}

/// Replays the two-rank run `config` describes.
pub fn replay<R: Realize>(
    w: &Workload,
    config: &RunConfig,
    realize: &R,
    mut tracer: Tracer,
) -> Res<Replay> {
    let cells = config.nrow * config.ncol;
    let hierarchy = StreamHierarchy::new(config.leaps);
    let mut exchange = ExchangeStages::new(w)?;
    let mut streams: Vec<RealizationStream> = Vec::with_capacity(w.block);
    let mut outs = vec![0.0f64; w.block * cells];

    let started = std::time::Instant::now();
    let (total, summary) = tracer.root(|tracer| -> Res<_> {
        let mut per_rank = Vec::with_capacity(config.processors);
        for rank in 0..config.processors {
            let mut acc = MatrixAccumulator::new(config.nrow, config.ncol)?;
            let mut cursor = tracer.block(|tracer| {
                tracer.stage("rng.jump", 1, || {
                    hierarchy.cursor(StreamId::new(config.seqnum, rank as u64, 0))
                })
            })?;
            let mut left = config.quota(rank);
            while left > 0 {
                let n = w.block.min(usize::try_from(left).unwrap_or(usize::MAX));
                left -= n as u64;
                let calls = n as u64;
                tracer.block(|tracer| -> Res<()> {
                    tracer.stage("rng.position", calls, || -> Res<()> {
                        streams.clear();
                        for _ in 0..n {
                            streams.push(cursor.next_stream()?);
                        }
                        Ok(())
                    })?;
                    tracer.stage("realize", calls, || {
                        for (stream, out) in streams.iter_mut().zip(outs.chunks_exact_mut(cells)) {
                            realize.realize(stream, out);
                        }
                    });
                    tracer.stage("stats.add", calls, || -> Res<()> {
                        for out in outs.chunks_exact(cells).take(n) {
                            acc.add(out)?;
                        }
                        Ok(())
                    })?;
                    if rank == 1 && config.exchange == Exchange::EveryRealization {
                        exchange.run(tracer, &acc, n)?;
                    }
                    Ok(())
                })?;
            }
            if rank == 1 && config.exchange == Exchange::Periodic {
                tracer.block(|tracer| exchange.run(tracer, &acc, 1))?;
            }
            per_rank.push(acc);
        }
        tracer.block(|tracer| -> Res<_> {
            let total = tracer.stage("stats.merge", per_rank.len() as u64, || -> Res<_> {
                let mut total = MatrixAccumulator::new(config.nrow, config.ncol)?;
                for acc in &per_rank {
                    total.merge(acc)?;
                }
                Ok(total)
            })?;
            let summary = tracer.stage("stats.summary", 1, || total.summary());
            Ok((total, summary))
        })
    })?;
    Ok(Replay {
        total,
        summary,
        wall_s: started.elapsed().as_secs_f64(),
        spans: tracer.into_spans(),
    })
}
