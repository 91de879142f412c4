//! Collective operations built on the point-to-point layer.
//!
//! PARMONC itself only needs the asynchronous gather pattern, but a
//! credible MPI subset ships the classic collectives; the runner uses
//! [`barrier`] at start-up and the tests use [`gather`] and
//! [`reduce_sum`] to validate the substrate against closed-form
//! answers.
//!
//! Every collective is a star: the root talks to every other rank
//! directly. The root is explicit everywhere but in [`barrier`] —
//! nothing else assumes rank 0.
//!
//! Determinism contract: [`reduce_sum`] folds contributions in
//! ascending *rank* order at the root (never arrival order), so the
//! result is bit-identical across backends despite floating-point
//! non-associativity.

use crate::envelope::{PayloadReader, PayloadWriter, Tag};
use crate::error::MpiError;
use crate::transport::Transport;

/// Tag space reserved for collectives (high bit set so user tags in the
/// low range never collide).
const COLLECTIVE_BASE: u32 = 0x8000_0000;

const TAG_BARRIER_IN: Tag = Tag(COLLECTIVE_BASE);
const TAG_BARRIER_OUT: Tag = Tag(COLLECTIVE_BASE + 1);
const TAG_BCAST: Tag = Tag(COLLECTIVE_BASE + 2);
const TAG_GATHER: Tag = Tag(COLLECTIVE_BASE + 3);

fn check_root<T: Transport>(comm: &T, root: usize) -> Result<(), MpiError> {
    if root >= comm.size() {
        return Err(MpiError::InvalidRank {
            rank: root,
            size: comm.size(),
        });
    }
    Ok(())
}

/// Blocks until every rank has entered the barrier (rooted at rank 0,
/// star-shaped: gather-in then broadcast-out).
///
/// # Errors
///
/// Propagates transport errors ([`MpiError::Disconnected`]).
pub fn barrier<T: Transport>(comm: &mut T) -> Result<(), MpiError> {
    if comm.rank() == 0 {
        for src in 1..comm.size() {
            comm.recv(Some(src), Some(TAG_BARRIER_IN))?;
        }
        for dest in 1..comm.size() {
            comm.send(dest, TAG_BARRIER_OUT, &[])?;
        }
    } else {
        comm.send(0, TAG_BARRIER_IN, &[])?;
        comm.recv(Some(0), Some(TAG_BARRIER_OUT))?;
    }
    Ok(())
}

/// Broadcasts `value` (a slice of f64 on the root, ignored elsewhere)
/// from `root` to all ranks; every rank returns the broadcast vector.
///
/// # Errors
///
/// Propagates transport errors, and [`MpiError::InvalidRank`] for a bad
/// root.
pub fn broadcast_f64<T: Transport>(
    comm: &mut T,
    root: usize,
    value: &[f64],
) -> Result<Vec<f64>, MpiError> {
    check_root(comm, root)?;
    if comm.rank() == root {
        let mut w = PayloadWriter::with_capacity(8 + value.len() * 8);
        w.put_f64_slice(value);
        let payload = w.finish();
        for dest in 0..comm.size() {
            if dest != root {
                comm.send_bytes(dest, TAG_BCAST, payload.clone())?;
            }
        }
        Ok(value.to_vec())
    } else {
        let env = comm.recv(Some(root), Some(TAG_BCAST))?;
        PayloadReader::new(env.payload).get_f64_vec()
    }
}

/// Gathers each rank's `value` vector on `root`; the root returns
/// `Some(values_by_rank)`, other ranks return `None`.
///
/// # Errors
///
/// Propagates transport errors, and [`MpiError::InvalidRank`] for a bad
/// root.
pub fn gather<T: Transport>(
    comm: &mut T,
    root: usize,
    value: &[f64],
) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
    check_root(comm, root)?;
    if comm.rank() != root {
        let mut w = PayloadWriter::with_capacity(8 + value.len() * 8);
        w.put_f64_slice(value);
        comm.send_bytes(root, TAG_GATHER, w.finish())?;
        return Ok(None);
    }
    let mut out = Vec::with_capacity(comm.size());
    for src in 0..comm.size() {
        if src == root {
            out.push(value.to_vec());
        } else {
            let env = comm.recv(Some(src), Some(TAG_GATHER))?;
            out.push(PayloadReader::new(env.payload).get_f64_vec()?);
        }
    }
    Ok(Some(out))
}

/// Reduces each rank's `value` vector by entrywise summation on `root`;
/// the root returns `Some(sums)`, other ranks return `None`.
///
/// This is the collective formulation of the paper's formula (5): the
/// averaged estimate is the reduce-sum of per-processor `(Σζ, Σζ², l)`
/// divided through by the total volume. Implemented as a gather of the
/// raw per-rank vectors followed by one ascending-rank fold at the
/// root.
///
/// # Errors
///
/// Propagates transport errors, [`MpiError::InvalidRank`] for a bad
/// root, and [`MpiError::MalformedPayload`] if rank contributions have
/// mismatched lengths.
pub fn reduce_sum<T: Transport>(
    comm: &mut T,
    root: usize,
    value: &[f64],
) -> Result<Option<Vec<f64>>, MpiError> {
    let Some(by_rank) = gather(comm, root, value)? else {
        return Ok(None);
    };
    let mut acc = vec![0.0f64; value.len()];
    for contribution in &by_rank {
        if contribution.len() != acc.len() {
            return Err(MpiError::MalformedPayload {
                what: "reduce contributions have mismatched lengths",
            });
        }
        for (a, c) in acc.iter_mut().zip(contribution) {
            *a += c;
        }
    }
    Ok(Some(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_synchronizes() {
        // Count how many ranks arrived before anyone left; with a
        // correct barrier, every rank observes all `size` arrivals.
        let arrived = Arc::new(AtomicUsize::new(0));
        let arrived2 = Arc::clone(&arrived);
        let results = World::run(8, move |comm| {
            arrived2.fetch_add(1, Ordering::SeqCst);
            barrier(comm)?;
            Ok(arrived2.load(Ordering::SeqCst))
        })
        .unwrap();
        for r in results {
            assert_eq!(r.unwrap(), 8);
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results = World::run(5, |comm| {
            let data = if comm.rank() == 2 {
                vec![1.5, -2.5, 3.5]
            } else {
                Vec::new()
            };
            broadcast_f64(comm, 2, &data)
        })
        .unwrap();
        for r in results {
            assert_eq!(r.unwrap(), vec![1.5, -2.5, 3.5]);
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = World::run(4, |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            gather(comm, 0, &mine)
        })
        .unwrap();
        let gathered = results[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (rank, v) in gathered.iter().enumerate() {
            assert_eq!(v.len(), rank + 1);
            assert!(v.iter().all(|x| *x == rank as f64));
        }
        for r in &results[1..] {
            assert!(r.as_ref().unwrap().is_none());
        }
    }

    #[test]
    fn gather_collects_at_non_zero_root() {
        // The historical bug surface: gather/reduce silently assumed
        // rank 0. Root 2 must receive everything, rank 0 nothing.
        let results = World::run(5, |comm| {
            let mine = vec![comm.rank() as f64 + 0.25];
            gather(comm, 2, &mine)
        })
        .unwrap();
        assert!(results[0].as_ref().unwrap().is_none());
        let gathered = results[2].as_ref().unwrap().as_ref().unwrap();
        for (rank, v) in gathered.iter().enumerate() {
            assert_eq!(v, &vec![rank as f64 + 0.25]);
        }
    }

    #[test]
    fn reduce_sums_entrywise() {
        let results = World::run(6, |comm| {
            let mine = vec![comm.rank() as f64, 1.0];
            reduce_sum(comm, 0, &mine)
        })
        .unwrap();
        let sums = results[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(sums, &vec![(0..6).sum::<usize>() as f64, 6.0]);
    }

    #[test]
    fn reduce_sums_at_non_zero_root() {
        let results = World::run(6, |comm| {
            let mine = vec![comm.rank() as f64, 1.0];
            reduce_sum(comm, 4, &mine)
        })
        .unwrap();
        assert!(results[0].as_ref().unwrap().is_none());
        let sums = results[4].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(sums, &vec![15.0, 6.0]);
    }

    #[test]
    fn invalid_root_rejected() {
        let mut comms = World::communicators(2).unwrap();
        assert!(matches!(
            broadcast_f64(&mut comms[0], 7, &[]),
            Err(MpiError::InvalidRank { rank: 7, .. })
        ));
        assert!(matches!(
            reduce_sum(&mut comms[0], 7, &[]),
            Err(MpiError::InvalidRank { rank: 7, .. })
        ));
    }

    #[test]
    fn collectives_compose_with_user_traffic() {
        // User messages with low tags must not be consumed by
        // collectives thanks to the reserved tag space.
        let results = World::run(3, |comm| {
            if comm.rank() == 1 {
                comm.send(0, Tag(5), b"user")?;
            }
            barrier(comm)?;
            if comm.rank() == 0 {
                let env = comm.recv(Some(1), Some(Tag(5)))?;
                Ok(env.payload.to_vec())
            } else {
                Ok(Vec::new())
            }
        })
        .unwrap();
        assert_eq!(results[0].as_ref().unwrap(), b"user");
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let results = World::run(1, |comm| {
            barrier(comm)?;
            let b = broadcast_f64(comm, 0, &[1.0])?;
            let g = gather(comm, 0, &[2.0])?;
            let r = reduce_sum(comm, 0, &[3.0])?;
            Ok((b, g, r))
        })
        .unwrap();
        let (b, g, r) = results[0].as_ref().unwrap();
        assert_eq!(b, &vec![1.0]);
        assert_eq!(g.as_ref().unwrap(), &vec![vec![2.0]]);
        assert_eq!(r.as_ref().unwrap(), &vec![3.0]);
    }
}
