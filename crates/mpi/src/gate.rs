//! The fault-gated send path, shared by every substrate.
//!
//! The deterministic fault plane may deliver, drop, duplicate or hold
//! back a message. [`FaultGate`] is that decision and the aging of
//! held-back messages, once: [`crate::Communicator`] feeds it its
//! in-process enqueue, the socket endpoints of `parmonc-ipc` their
//! frame write, so a seeded plan has the same observable effect on
//! every backend.

use std::cell::RefCell;

use parmonc_faults::{FaultHandle, FaultKind, SendAction};
use parmonc_obs::{EventKind, Monitor};

use crate::bytes::Bytes;
use crate::envelope::Tag;
use crate::error::MpiError;

/// A message the fault plane is holding back: it leaves the sender
/// only after `remaining` further sends from the same rank.
#[derive(Debug)]
struct DelayedSend {
    remaining: u32,
    dest: usize,
    tag: Tag,
    payload: Bytes,
}

/// One rank's fault-gated send path. The raw delivery (in-process
/// enqueue or socket frame) is supplied per call, so the gate owns no
/// transport state — only the plan, the monitor that `fault_injected`
/// events go to, and the messages currently held back.
#[derive(Debug)]
pub struct FaultGate {
    rank: usize,
    faults: FaultHandle,
    monitor: Monitor,
    /// Only touched when the fault plane is enabled; owners force-flush
    /// it at teardown so a held message is late, never lost (unless
    /// scripted as a drop).
    delayed: RefCell<Vec<DelayedSend>>,
}

impl FaultGate {
    /// The gate for `rank`'s outgoing messages.
    #[must_use]
    pub fn new(rank: usize, faults: FaultHandle, monitor: Monitor) -> Self {
        Self {
            rank,
            faults,
            monitor,
            delayed: RefCell::new(Vec::new()),
        }
    }

    /// Sends `payload` through the fault plane. With the disabled
    /// plane this is `deliver` and nothing else.
    ///
    /// # Errors
    ///
    /// Whatever `deliver` returns for the message itself or for a
    /// held-back message that came due.
    pub fn send(
        &self,
        dest: usize,
        tag: Tag,
        payload: Bytes,
        deliver: impl Fn(usize, Tag, Bytes) -> Result<(), MpiError>,
    ) -> Result<(), MpiError> {
        if !self.faults.is_enabled() {
            return deliver(dest, tag, payload);
        }
        // Every send ages the held-back messages; due ones leave first
        // so a delayed message is overtaken by exactly `hold_sends`
        // later sends.
        self.flush(false, &deliver)?;
        let (seq, action) = self.faults.on_send(self.rank, dest, tag.0);
        match action {
            SendAction::Deliver => deliver(dest, tag, payload),
            SendAction::Drop => {
                self.note_fault(FaultKind::MessageDrop, seq);
                Ok(())
            }
            SendAction::Duplicate => {
                self.note_fault(FaultKind::MessageDuplicate, seq);
                deliver(dest, tag, payload.clone())?;
                deliver(dest, tag, payload)
            }
            SendAction::Delay { hold_sends } => {
                self.note_fault(FaultKind::MessageDelay, seq);
                if hold_sends == 0 {
                    return deliver(dest, tag, payload);
                }
                self.delayed.borrow_mut().push(DelayedSend {
                    remaining: hold_sends,
                    dest,
                    tag,
                    payload,
                });
                Ok(())
            }
        }
    }

    /// Ages held-back messages by one send and delivers the due ones
    /// (with `force`, everything — the teardown path).
    ///
    /// # Errors
    ///
    /// The first `deliver` failure; later due messages stay undelivered.
    pub fn flush(
        &self,
        force: bool,
        deliver: impl Fn(usize, Tag, Bytes) -> Result<(), MpiError>,
    ) -> Result<(), MpiError> {
        if self.delayed.borrow().is_empty() {
            return Ok(());
        }
        let due: Vec<DelayedSend> = {
            let mut held = self.delayed.borrow_mut();
            if !force {
                for entry in held.iter_mut() {
                    entry.remaining = entry.remaining.saturating_sub(1);
                }
            }
            let mut due = Vec::new();
            let mut i = 0;
            while i < held.len() {
                if force || held[i].remaining == 0 {
                    due.push(held.remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for entry in due {
            deliver(entry.dest, entry.tag, entry.payload)?;
        }
        Ok(())
    }

    /// Emits a `fault_injected` monitor event for a message fault.
    fn note_fault(&self, kind: FaultKind, seq: u64) {
        self.monitor.emit(
            Some(self.rank),
            EventKind::FaultInjected {
                fault: kind.as_str().to_string(),
                detail: Some(seq),
            },
        );
    }
}
