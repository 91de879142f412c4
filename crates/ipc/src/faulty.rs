//! Deterministic network-fault injection under the frame codec.
//!
//! [`FaultyStream`] wraps a worker's outbound stream to the collector
//! and consults the fault plane once per frame boundary: a scripted
//! `sever_connection` breaks the link before the frame's first byte,
//! `stall_link` sleeps before delivering it, and `tear_frame` writes
//! only the header plus half the payload before breaking — exactly the
//! torn frame the collector's reader must reject. The wrapper tracks
//! frame boundaries by parsing the same 20-byte header the codec
//! writes, so it works identically under the TCP and Unix-socket
//! backends. *Which* frame a rule befalls is not counted here: it is
//! the first to start once the rank's simulation loop has told the
//! shared [`FaultHandle`] of enough realizations, so a plan scripts
//! the same outage however few frames a governed worker writes.
//!
//! When the plan scripts nothing for this link (including the disabled
//! handle), every write is a straight passthrough after one boolean
//! check — the property the `bound_net_fault_plane_overhead_pct`
//! bench gate enforces.

use std::io::{self, Write};

use parmonc_faults::{FaultHandle, NetAction};

use crate::frame::FRAME_HEADER_LEN;

fn broken_pipe() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "connection severed by the fault plane",
    )
}

/// A write-side stream wrapper injecting scripted network faults at
/// frame boundaries. See the module docs.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    rank: usize,
    faults: FaultHandle,
    /// Whether any net rule targets this link — false short-circuits
    /// the whole state machine.
    active: bool,
    /// The current connection is broken; every write fails until
    /// [`Self::replace`] installs a fresh stream.
    severed: bool,
    /// Bytes of the current frame seen so far (0 = at a boundary).
    pos: usize,
    /// Total frame size once the header is parsed.
    frame_total: Option<usize>,
    /// The current frame is scripted to tear.
    torn: bool,
    /// Byte offset after which the scripted tear breaks the connection
    /// (`usize::MAX` until a torn frame's header reveals the length —
    /// and always for intact frames, which are emitted whole).
    tear_at: usize,
    /// Header bytes of the current frame, accumulated for parsing.
    header: [u8; FRAME_HEADER_LEN],
}

impl<S: Write> FaultyStream<S> {
    /// Wraps `inner` as worker `rank`'s link to the collector.
    pub fn new(inner: S, rank: usize, faults: FaultHandle) -> Self {
        let active = faults.targets_link(rank);
        Self {
            inner,
            rank,
            faults,
            active,
            severed: false,
            pos: 0,
            frame_total: None,
            torn: false,
            tear_at: usize::MAX,
            header: [0u8; FRAME_HEADER_LEN],
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The wrapped stream, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// True if the fault plane broke this connection.
    pub fn is_severed(&self) -> bool {
        self.severed
    }

    /// Installs a fresh stream after a reconnect: clears the severed
    /// flag and resets to a frame boundary. Rules that fired stay
    /// fired (that lives in the fault handle).
    pub fn replace(&mut self, inner: S) {
        self.inner = inner;
        self.severed = false;
        self.pos = 0;
        self.frame_total = None;
        self.torn = false;
        self.tear_at = usize::MAX;
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.active {
            return self.inner.write(buf);
        }
        if self.severed {
            return Err(broken_pipe());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pos == 0 {
            // A new frame begins: decide its fate once.
            self.torn = false;
            self.tear_at = usize::MAX;
            match self.faults.on_frame(self.rank) {
                NetAction::Deliver => {}
                NetAction::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                NetAction::Sever => {
                    self.severed = true;
                    return Err(broken_pipe());
                }
                NetAction::Tear => self.torn = true,
            }
        }
        // Consume at most up to the end of the header (so we can parse
        // the length) or of the frame.
        let take = if self.pos < FRAME_HEADER_LEN {
            let n = buf.len().min(FRAME_HEADER_LEN - self.pos);
            self.header[self.pos..self.pos + n].copy_from_slice(&buf[..n]);
            n
        } else {
            let total = self.frame_total.expect("header parsed");
            buf.len().min(total - self.pos)
        };
        if self.pos + take == FRAME_HEADER_LEN {
            let len = u32::from_le_bytes(self.header[16..20].try_into().expect("4 bytes")) as usize;
            self.frame_total = Some(FRAME_HEADER_LEN + len);
            if self.torn {
                self.tear_at = FRAME_HEADER_LEN + len / 2;
            }
        }
        // Emit only the bytes before the tear point (everything, on an
        // intact frame).
        let emit = take.min(self.tear_at.saturating_sub(self.pos));
        if emit > 0 {
            self.inner.write_all(&buf[..emit])?;
        }
        self.pos += take;
        if self.torn && self.frame_total.is_some() && self.pos >= self.tear_at {
            let _ = self.inner.flush();
            self.severed = true;
            return Err(broken_pipe());
        }
        if self.frame_total == Some(self.pos) {
            self.pos = 0;
            self.frame_total = None;
        }
        Ok(take)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.severed {
            return Err(broken_pipe());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame_seq};
    use parmonc_faults::FaultPlan;

    fn frames(bytes: &[u8]) -> Vec<(u32, u64, Vec<u8>)> {
        let mut r = bytes;
        let mut out = Vec::new();
        while let Ok(Some(f)) = read_frame(&mut r) {
            out.push((f.tag, f.seq, f.payload));
        }
        out
    }

    #[test]
    fn passthrough_when_link_untargeted() {
        // An enabled handle whose rules target a different rank.
        let faults = FaultPlan::new(1).sever_connection(2, 0).build();
        let mut s = FaultyStream::new(Vec::new(), 1, faults);
        assert!(!s.active);
        write_frame_seq(&mut s, 1, 7, 1, b"data").unwrap();
        assert_eq!(frames(s.get_ref()), vec![(7, 1, b"data".to_vec())]);
    }

    #[test]
    fn sever_breaks_the_first_frame_after_the_scripted_progress() {
        let faults = FaultPlan::new(1).sever_connection(1, 2).build();
        let mut s = FaultyStream::new(Vec::new(), 1, faults.clone());
        write_frame_seq(&mut s, 1, 7, 1, b"one").unwrap();
        faults.note_progress(1, 1);
        write_frame_seq(&mut s, 1, 7, 2, b"two").unwrap();
        faults.note_progress(1, 2);
        let err = write_frame_seq(&mut s, 1, 7, 3, b"three").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(s.is_severed());
        // Nothing of the severed frame reached the wire.
        assert_eq!(frames(s.get_ref()).len(), 2);
        // Every later write fails until the stream is replaced.
        assert!(write_frame_seq(&mut s, 1, 7, 3, b"three").is_err());
        s.replace(Vec::new());
        write_frame_seq(&mut s, 1, 7, 3, b"three").unwrap();
        assert_eq!(frames(s.get_ref()), vec![(7, 3, b"three".to_vec())]);
    }

    #[test]
    fn tear_writes_half_the_payload_then_breaks() {
        let faults = FaultPlan::new(1).tear_frame(1, 1).build();
        let mut s = FaultyStream::new(Vec::new(), 1, faults.clone());
        write_frame_seq(&mut s, 1, 7, 1, b"intact").unwrap();
        faults.note_progress(1, 64);
        let err = write_frame_seq(&mut s, 1, 7, 2, b"12345678").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The wire holds one whole frame plus a torn one: full header,
        // half payload.
        let wire = s.get_ref().clone();
        let first_len = FRAME_HEADER_LEN + b"intact".len();
        assert_eq!(wire.len(), first_len + FRAME_HEADER_LEN + 4);
        let mut r = &wire[..];
        assert!(read_frame(&mut r).unwrap().is_some());
        let torn = read_frame(&mut r).unwrap_err();
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stall_delivers_the_frame_intact() {
        let faults = FaultPlan::new(1).stall_link(1, 0, 1).build();
        let mut s = FaultyStream::new(Vec::new(), 1, faults);
        write_frame_seq(&mut s, 1, 7, 1, b"late").unwrap();
        write_frame_seq(&mut s, 1, 7, 2, b"ontime").unwrap();
        assert_eq!(
            frames(s.get_ref()),
            vec![(7, 1, b"late".to_vec()), (7, 2, b"ontime".to_vec())]
        );
    }

    #[test]
    fn byte_at_a_time_writes_track_frame_boundaries() {
        let faults = FaultPlan::new(1).sever_connection(1, 1).build();
        let mut buf = Vec::new();
        write_frame_seq(&mut buf, 1, 7, 1, b"drip").unwrap();
        let mut s = FaultyStream::new(Vec::new(), 1, faults.clone());
        for (i, b) in buf.iter().enumerate() {
            s.write_all(std::slice::from_ref(b)).unwrap();
            // Progress reported mid-frame waits for the next boundary.
            if i == 0 {
                faults.note_progress(1, 1);
            }
        }
        assert_eq!(frames(s.get_ref()), vec![(7, 1, b"drip".to_vec())]);
        // The next frame is the scripted severance.
        assert!(s.write_all(&buf).is_err());
    }
}
