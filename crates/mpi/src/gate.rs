//! The fault-gated send path, shared by every substrate.
//!
//! The deterministic fault plane may deliver, drop, duplicate or hold
//! back a message. [`FaultGate`] is that decision and the aging of
//! held-back messages, once: [`crate::Communicator`] feeds it its
//! in-process enqueue — and asks it before publishing a latest-wins
//! message in place — the socket endpoints of `parmonc-ipc` their
//! frame write, so a seeded plan has the same observable effect on
//! every backend.

use std::cell::RefCell;

use parmonc_faults::{FaultHandle, SendAction};
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
        match self.decide(dest, tag, &deliver)? {
            SendAction::Deliver | SendAction::Delay { hold_sends: 0 } => {
                deliver(dest, tag, payload)
            }
            SendAction::Drop => Ok(()),
            SendAction::Duplicate => {
                deliver(dest, tag, payload.clone())?;
                deliver(dest, tag, payload)
            }
            SendAction::Delay { hold_sends } => {
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

    /// Passes a *latest-wins* message through the fault plane before it
    /// is written: whether the caller is to publish it. A register is
    /// idempotent, so a duplicated message is published once; a dropped
    /// one is not published; and neither is a held-back one — the send
    /// that would release it supersedes it. Each is numbered on its
    /// channel and reported like any other message's fault, and the
    /// call ages the held-back queued messages (through `deliver`) as
    /// any send does.
    ///
    /// # Errors
    ///
    /// Whatever `deliver` returns for a held-back message that came due.
    pub fn admits_latest(
        &self,
        dest: usize,
        tag: Tag,
        deliver: impl Fn(usize, Tag, Bytes) -> Result<(), MpiError>,
    ) -> Result<bool, MpiError> {
        Ok(matches!(
            self.decide(dest, tag, &deliver)?,
            SendAction::Deliver | SendAction::Duplicate | SendAction::Delay { hold_sends: 0 }
        ))
    }

    /// Numbers the next message to `(dest, tag)` and decides its fate,
    /// reporting an injected fault to the monitor. With the disabled
    /// plane that is `Deliver` after one branch.
    fn decide(
        &self,
        dest: usize,
        tag: Tag,
        deliver: &impl Fn(usize, Tag, Bytes) -> Result<(), MpiError>,
    ) -> Result<SendAction, MpiError> {
        if !self.faults.is_enabled() {
            return Ok(SendAction::Deliver);
        }
        // Every send ages the held-back messages; due ones leave first
        // so a delayed message is overtaken by exactly `hold_sends`
        // later sends.
        self.flush(false, deliver)?;
        let (seq, action) = self.faults.on_send(self.rank, dest, tag.0);
        if let Some(kind) = action.kind() {
            self.monitor.emit(
                Some(self.rank),
                EventKind::FaultInjected {
                    fault: kind.as_str().to_string(),
                    detail: Some(seq),
                },
            );
        }
        Ok(action)
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
}
