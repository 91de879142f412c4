//! Message-passing substrate costs: subtotal encode/decode at the
//! paper's message size, a point-to-point round trip, the fan-in of
//! subtotals to rank 0 that the collector runs, the strict-exchange
//! message stream over the mailbox (queued, and latest-wins in place)
//! against the channel design it replaced, and — via a counting
//! global allocator — the bytes allocated per subtotal emit on the
//! clone-encode path the runner used to take versus the pooled
//! borrowed-encode path it takes now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use parmonc::messages::Subtotal;
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, fast_mode, record_metric, Criterion, Throughput,
};
use parmonc_mpi::{BufferPool, Bytes, Communicator, Envelope, MpiError, Tag, World};
use parmonc_stats::MatrixAccumulator;

/// Counts every byte requested from the allocator; deallocations are
/// deliberately not subtracted — the metric is allocation *traffic*
/// per operation, which is what the hot path must avoid.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn alloc_bytes_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

fn paper_subtotal() -> Subtotal {
    let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
    acc.add(&vec![0.5; 2000]).unwrap();
    Subtotal {
        acc,
        compute_seconds: 7.7,
    }
}

fn bench_codec(c: &mut Criterion) {
    let subtotal = paper_subtotal();
    let encoded = subtotal.encode();

    let mut group = c.benchmark_group("subtotal_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_1000x2", |b| b.iter(|| black_box(subtotal.encode())));
    group.bench_function("decode_1000x2", |b| {
        b.iter(|| black_box(Subtotal::decode(encoded.clone()).unwrap()))
    });
    group.finish();
}

/// Runs `f` on every rank of a fresh world of `size`, one scoped
/// thread per rank as the runner drives them, and returns rank 0's
/// result.
fn on_ranks<T: Send>(
    size: usize,
    f: impl Fn(&mut Communicator) -> Result<T, MpiError> + Sync,
) -> Result<T, MpiError> {
    let f = &f;
    let comms = World::communicators(size).unwrap();
    std::thread::scope(|scope| {
        let ranks: Vec<_> = comms
            .into_iter()
            .map(|mut comm| scope.spawn(move || f(&mut comm)))
            .collect();
        let mut results = ranks.into_iter().map(|rank| rank.join().unwrap());
        let root = results.next().expect("world has a rank 0");
        for worker in results {
            worker.expect("worker rank");
        }
        root
    })
}

fn bench_ping_pong(c: &mut Criterion) {
    // The key says 120 KB (the paper's figure for its subtotal); the
    // payload is this repo's 1000×2 subtotal, 32 048 bytes. The key is
    // kept so the recorded history stays comparable.
    c.bench_function("ping_pong_120kb", |b| {
        b.iter(|| {
            let payload = paper_subtotal().encode();
            let result = on_ranks(2, |comm| {
                if comm.rank() == 0 {
                    comm.send_bytes(1, Tag(1), payload.clone())?;
                    let back = comm.recv(Some(1), Some(Tag(2)))?;
                    Ok(back.len())
                } else {
                    let msg = comm.recv(Some(0), Some(Tag(1)))?;
                    comm.send_bytes(0, Tag(2), msg.payload)?;
                    Ok(0)
                }
            })
            .unwrap();
            black_box(result)
        })
    });
}

fn bench_fan_in(c: &mut Criterion) {
    // 8 workers each send 16 subtotal messages to rank 0 — a burst of
    // the collector's steady-state load, point to point.
    c.bench_function("collector_gather_8x16", |b| {
        b.iter(|| {
            let result = on_ranks(9, |comm| {
                if comm.rank() == 0 {
                    let mut bytes = 0usize;
                    for _ in 0..8 * 16 {
                        bytes += comm.recv(None, None)?.len();
                    }
                    Ok(bytes)
                } else {
                    let payload = paper_subtotal().encode();
                    for _ in 0..16 {
                        comm.send_bytes(0, Tag(1), payload.clone())?;
                    }
                    Ok(0)
                }
            })
            .unwrap();
            black_box(result)
        })
    });
}

/// `steps` dependent multiply-adds: the stand-in for one near-free
/// realization's work (positioning, draw, accumulate, clock reads).
#[inline(never)]
fn spin_work(seed: u64, steps: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..black_box(steps) {
        // Shift, xor, multiply: a chain the compiler cannot collapse.
        x ^= x >> 12;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    x
}

/// Steps of [`spin_work`] that take about 120 ns on this machine.
fn calibrate_spin_work() -> u32 {
    const PROBE_STEPS: u32 = 1 << 20;
    let started = Instant::now();
    black_box(spin_work(1, PROBE_STEPS));
    let ns_per_step = started.elapsed().as_nanos() as f64 / f64::from(PROBE_STEPS);
    (120.0 / ns_per_step).round().max(1.0) as u32
}

/// A 64-byte payload — the strict-exchange subtotal of a 1×1 run.
fn stream_payload(pool: &BufferPool, i: u64) -> Bytes {
    let mut w = pool.take(64);
    for k in 0..8 {
        w.put_u64_le(i + k);
    }
    w.freeze()
}

/// Seconds per message for `messages` 64-byte messages streamed from a
/// producer thread to this one, both doing `steps` of [`spin_work`]
/// per iteration and the consumer draining its inbox every iteration —
/// the shape of `free_strict_threads` at m = 2. `emit` runs on the
/// producer, `drain` on the consumer and returns how many it took.
fn timed_stream(
    messages: u64,
    steps: u32,
    mut emit: impl FnMut(u64) + Send,
    mut drain: impl FnMut() -> u64,
) -> f64 {
    let gate = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            gate.wait();
            for i in 0..messages {
                emit(spin_work(i, steps));
            }
        });
        gate.wait();
        let started = Instant::now();
        let mut received = 0;
        let mut x = 0;
        while received < messages {
            x = spin_work(x, steps);
            received += drain();
        }
        started.elapsed().as_secs_f64() / messages as f64
    })
}

/// The message stream over the thread substrate as it is.
fn stream_over_mailbox(messages: u64, steps: u32) -> f64 {
    let mut comms = World::communicators(2).unwrap();
    let producer = comms.pop().expect("rank 1");
    let mut consumer = comms.pop().expect("rank 0");
    timed_stream(
        messages,
        steps,
        move |i| {
            let payload = stream_payload(producer.pool(), i);
            producer.send_bytes(0, Tag(1), payload).unwrap();
        },
        || {
            let mut taken = 0;
            while let Some(env) = consumer.try_recv(None, None) {
                black_box(env.payload[0]);
                consumer.recycle(env.payload);
                taken += 1;
            }
            taken
        },
    )
}

/// The stream as the runner sends it now: every message published in
/// place as a latest-wins one, the consumer looking at its inbox once
/// per poll period (the runner's `INBOX_POLL_PERIOD`) and finding the
/// newest. A queued message behind the last publish ends the stream,
/// as a worker's final does.
fn stream_latest_in_place(messages: u64, steps: u32) -> f64 {
    const POLL_PERIOD: Duration = Duration::from_micros(2);
    let mut comms = World::communicators(2).unwrap();
    let producer = comms.pop().expect("rank 1");
    let mut consumer = comms.pop().expect("rank 0");
    let mut published = 0;
    let mut last_poll = Instant::now();
    timed_stream(
        messages,
        steps,
        move |i| {
            producer
                .send_latest_with(0, Tag(1), 64, |sink| {
                    (0..8).for_each(|k| sink.put_u64(i + k));
                })
                .unwrap();
            published += 1;
            if published == messages {
                producer.send(0, Tag(2), &[]).unwrap();
            }
        },
        || {
            let now = Instant::now();
            if now.duration_since(last_poll) < POLL_PERIOD {
                return 0;
            }
            last_poll = now;
            let mut accounted = 0;
            while let Some(env) = consumer.try_recv(None, None) {
                if env.tag == Tag(2) {
                    // Every publish before it was delivered or
                    // superseded.
                    accounted = messages;
                }
                black_box(env.payload.first());
                consumer.recycle(env.payload);
            }
            accounted
        },
    )
}

/// The same stream over the design the mailbox replaced, kept here
/// only as the yardstick: an `mpsc` channel of envelopes whose
/// payloads come from one mutex-guarded freelist both threads use.
fn stream_over_channel(messages: u64, steps: u32) -> f64 {
    let pool = Arc::new(BufferPool::default());
    let (tx, rx) = mpsc::channel::<Envelope>();
    let sender_pool = Arc::clone(&pool);
    timed_stream(
        messages,
        steps,
        move |i| {
            let payload = stream_payload(&sender_pool, i);
            tx.send(Envelope {
                source: 1,
                tag: Tag(1),
                payload,
            })
            .unwrap();
        },
        || {
            let mut taken = 0;
            while let Ok(env) = rx.try_recv() {
                black_box(env.payload[0]);
                pool.recycle(env.payload);
                taken += 1;
            }
            taken
        },
    )
}

/// The claims behind the mailbox: on the strict-exchange stream its
/// queue must beat the channel-plus-shared-pool design by the
/// committed `ratio_mailbox_stream_speedup`, and its latest-wins
/// register the queue by `ratio_latest_stream_speedup`.
fn bench_mailbox_stream(c: &mut Criterion) {
    let messages = if fast_mode() { 50_000 } else { 400_000 };
    let steps = calibrate_spin_work();
    // All arms back to back per round, and the ratios taken per round:
    // the arms differ by what two cores do to each other, so a round
    // in which the host gave this process one core reads ≈ 400 ns on
    // all of them and ≈ 1× — nothing contends — and must not be mixed
    // with the others. The median round of each ratio is recorded.
    let rounds: Vec<[f64; 3]> = (0..5)
        .map(|_| {
            [
                stream_over_channel(messages, steps),
                stream_over_mailbox(messages, steps),
                stream_latest_in_place(messages, steps),
            ]
        })
        .collect();
    let median_round = |slow: usize, fast: usize| {
        let mut sorted = rounds.clone();
        sorted.sort_by(|a, b| (a[slow] / a[fast]).total_cmp(&(b[slow] / b[fast])));
        sorted[sorted.len() / 2]
    };
    let [channel, mailbox, _] = median_round(0, 1);
    println!(
        "mailbox_stream: mailbox {:.0} ns, mpsc + shared pool {:.0} ns per message ({steps} work steps), speedup {:.2}x",
        mailbox * 1e9,
        channel * 1e9,
        channel / mailbox
    );
    record_metric("mailbox_stream/mailbox", mailbox);
    record_metric("mailbox_stream/mpsc_shared_pool", channel);
    record_metric("ratio_mailbox_stream_speedup", channel / mailbox);
    let [_, queued, latest] = median_round(1, 2);
    println!(
        "mailbox_stream: latest-wins in place {:.0} ns against {:.0} ns queued, speedup {:.2}x",
        latest * 1e9,
        queued * 1e9,
        queued / latest
    );
    record_metric("mailbox_stream/latest_in_place", latest);
    record_metric("ratio_latest_stream_speedup", queued / latest);
    let _ = c;
}

/// Not a timing bench: measures allocator traffic per subtotal emit at
/// the paper's 1000×2 message size, on the old clone-then-encode path
/// and on the pooled borrowed-encode path, and records both as gated
/// `alloc_*` metrics (deterministic, so the tolerance only absorbs
/// allocator-metadata drift).
fn bench_emit_alloc(c: &mut Criterion) {
    let sub = paper_subtotal();
    const EMITS: u64 = 100;

    // Old path: clone the accumulator into a Subtotal, encode, drop.
    let clone_bytes = alloc_bytes_during(|| {
        for _ in 0..EMITS {
            let snapshot = Subtotal {
                acc: sub.acc.clone(),
                compute_seconds: sub.compute_seconds,
            };
            black_box(snapshot.encode());
        }
    }) / EMITS;

    // New path: encode straight from the borrowed accumulator into a
    // recycled pool buffer; the "receiver" recycles after decoding.
    let pool = BufferPool::default();
    let mut slot = Some(paper_subtotal());
    // One unmeasured warm-up cycle seeds the pool and the decode slot,
    // so the measured figure is the steady state.
    let payload = Subtotal::encode_state_pooled(&sub.acc, sub.compute_seconds, &pool);
    Subtotal::decode_into(&payload, &mut slot).unwrap();
    pool.recycle(payload);
    let pooled_bytes = alloc_bytes_during(|| {
        for _ in 0..EMITS {
            let payload = Subtotal::encode_state_pooled(&sub.acc, sub.compute_seconds, &pool);
            Subtotal::decode_into(&payload, &mut slot).unwrap();
            black_box(pool.recycle(payload));
        }
    }) / EMITS;

    println!("emit_alloc/clone_encode                  {clone_bytes} B/emit");
    println!("emit_alloc/pooled_borrowed               {pooled_bytes} B/emit");
    record_metric("alloc_bytes_per_emit_clone", clone_bytes as f64);
    record_metric("alloc_bytes_per_emit_pooled", pooled_bytes as f64);
    if pooled_bytes > 0 {
        record_metric(
            "ratio_emit_alloc_reduction",
            clone_bytes as f64 / pooled_bytes as f64,
        );
    }
    let _ = c;
}

criterion_group!(
    benches,
    bench_codec,
    bench_ping_pong,
    bench_fan_in,
    bench_mailbox_stream,
    bench_emit_alloc
);
criterion_main!(benches);
