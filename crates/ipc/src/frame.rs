//! The wire framing for socket transport traffic.
//!
//! One frame is `[source u32][tag u32][seq u64][len u32][payload]`,
//! all little-endian — the same length-prefixed envelope shape the
//! in-process substrate moves over channels, so a [`Frame`] maps 1:1
//! onto a `parmonc_mpi::Envelope`. `seq` is a per-sender monotonic
//! frame sequence number (0 = unsequenced protocol traffic) that lets
//! the collector deduplicate frames replayed after a reconnect. The
//! band of tags from `0xFFFF_FF00` up is reserved for the transports'
//! own protocol and never surfaces as envelopes: forwarded monitor
//! events, the join/grant/reject/rejoin handshake and clock alignment.
//! The full byte-level contract
//! (including a worked hexdump) is documented in
//! `docs/wire-protocol.md`.

use std::io::{self, Read, Write};

// 0xFFFF_FF00 is retired, not reused: it was the hello frame of the
// process backend's own handshake. The `TCP_` prefix on the tags that
// follow is historical — both socket backends speak them.

/// A forwarded monitor event: the payload is one schema-valid
/// `run_metrics.jsonl` line, re-emitted by the parent with the
/// child's timestamp.
pub const TAG_IPC_EVENT: u32 = 0xFFFF_FF01;

/// A TCP worker's join request: the first frame on a dialing
/// connection, payload = [`JoinRequest`]. The source field is 0
/// because the worker has no rank yet.
pub const TAG_TCP_JOIN: u32 = 0xFFFF_FF02;

/// The collector's acceptance of a join: payload = [`Grant`], carrying
/// the leased rank, the world size, and the rank's realization quota.
pub const TAG_TCP_GRANT: u32 = 0xFFFF_FF03;

/// The collector's refusal of a join: payload = [`Reject`] (a one-byte
/// code plus a human-readable reason). The connection is closed right
/// after this frame.
pub const TAG_TCP_REJECT: u32 = 0xFFFF_FF04;

/// A previously-granted worker re-attaching after a broken connection
/// (or to a crashed-and-restarted collector): the first frame on the
/// new connection, payload = [`Rejoin`]. Answered with [`TAG_TCP_GRANT`]
/// re-granting the same rank, or [`TAG_TCP_REJECT`].
pub const TAG_TCP_REJOIN: u32 = 0xFFFF_FF05;

/// A worker's periodic clock re-sync probe: payload = [`ClockProbe`]
/// (the worker's clock at send). The collector answers with
/// [`TAG_TCP_CLOCK_REPLY`] on the same link. Clock frames are written
/// *outside* the fault-injection wrapper — they are wall-clock-timed,
/// so letting them consume scripted frame ordinals would make seeded
/// net-fault schedules nondeterministic.
pub const TAG_TCP_CLOCK_PROBE: u32 = 0xFFFF_FF06;

/// The collector's answer to a probe: payload = [`ClockReply`] — the
/// probe's `t0` echoed back plus the collector clock at receipt and at
/// reply. The worker closes the four-timestamp NTP-style exchange and
/// reports the estimated offset with [`TAG_TCP_CLOCK`].
pub const TAG_TCP_CLOCK_REPLY: u32 = 0xFFFF_FF07;

/// A worker's offset report: payload = [`ClockSync`] — the worker's
/// RTT-symmetric estimate of `collector_clock − worker_clock` for this
/// link, which the collector applies when re-emitting the worker's
/// forwarded events onto the corrected run clock.
pub const TAG_TCP_CLOCK: u32 = 0xFFFF_FF08;

// 0xFFFF_FF09 is retired, not reused: it wrapped frames the hub routed
// between workers for tree collection (protocol version 4).

/// Magic number opening every [`JoinRequest`]: the little-endian bytes
/// spell `PMNC`. A connection whose first frame does not carry it is
/// not speaking this protocol and is rejected.
pub const TCP_MAGIC: u32 = 0x434E_4D50;

/// The TCP wire-protocol version this build speaks. Bumped on any
/// incompatible change to the handshake or envelope framing; the
/// collector rejects joiners with a different version (see
/// `docs/wire-protocol.md` § version negotiation). Version 2 widened
/// the frame header with the `seq` field and added the rejoin/epoch
/// machinery; version 3 widened the handshake payloads with
/// clock-alignment timestamps and added the clock tag band
/// ([`TAG_TCP_CLOCK_PROBE`]..[`TAG_TCP_CLOCK`]); version 4 gave the
/// [`Grant`] a parent-assignment field (tree collection topologies)
/// and added hub routing under tag `0xFFFF_FF09`; version 5 removed
/// both again with the tree — the grant's parent field is reserved
/// zero once more, and the routing tag is retired.
pub const TCP_PROTOCOL_VERSION: u16 = 5;

/// The 24-byte [`TAG_TCP_JOIN`] payload:
/// `[magic u32][version u16][reserved u16][config_digest u64][t0_s f64]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinRequest {
    /// Must equal [`TCP_MAGIC`].
    pub magic: u32,
    /// The worker's [`TCP_PROTOCOL_VERSION`].
    pub version: u16,
    /// FNV-1a digest of the run configuration fields that determine
    /// the estimate; collector and worker must agree or the worker
    /// would compute the wrong streams.
    pub config_digest: u64,
    /// The worker's clock (seconds on its local event clock, skew
    /// included) at the moment this request was written — the `t0` of
    /// the NTP-style offset exchange closed by the [`Grant`].
    pub t0_s: f64,
}

impl JoinRequest {
    /// A well-formed request for this build's protocol version.
    #[must_use]
    pub fn new(config_digest: u64) -> Self {
        Self {
            magic: TCP_MAGIC,
            version: TCP_PROTOCOL_VERSION,
            config_digest,
            t0_s: 0.0,
        }
    }

    /// Encodes the 24-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 24] {
        let mut buf = [0u8; 24];
        buf[0..4].copy_from_slice(&self.magic.to_le_bytes());
        buf[4..6].copy_from_slice(&self.version.to_le_bytes());
        // bytes 6..8 reserved, zero
        buf[8..16].copy_from_slice(&self.config_digest.to_le_bytes());
        buf[16..24].copy_from_slice(&self.t0_s.to_le_bytes());
        buf
    }

    /// Decodes a payload; `None` if the length is wrong. Magic and
    /// version are *not* validated here — the collector checks them
    /// itself so it can answer with the right reject code.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 24 {
            return None;
        }
        Some(Self {
            magic: u32::from_le_bytes(payload[0..4].try_into().ok()?),
            version: u16::from_le_bytes(payload[4..6].try_into().ok()?),
            config_digest: u64::from_le_bytes(payload[8..16].try_into().ok()?),
            t0_s: f64::from_le_bytes(payload[16..24].try_into().ok()?),
        })
    }
}

/// The 48-byte [`TAG_TCP_GRANT`] payload:
/// `[version u16][flags u16][rank u32][size u32][reserved u32][quota u64][epoch u64][t_recv_s f64][t_reply_s f64]`.
/// Flags bit 0 = the run is monitored (the worker should forward its
/// events); bit 1 = span tracing is on (the worker should emit
/// `span_started`/`span_ended` events around its phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// The collector's protocol version (equals the joiner's, or the
    /// join would have been rejected).
    pub version: u16,
    /// Whether the run is monitored.
    pub monitor: bool,
    /// Whether span tracing is enabled for this run.
    pub spans: bool,
    /// The leased logical rank — the worker's leapfrog stream range.
    pub rank: u32,
    /// World size including the collector.
    pub size: u32,
    /// The realization quota of the leased rank; the worker
    /// cross-checks it against its own configuration.
    pub quota: u64,
    /// The collector's session epoch. The worker echoes it in any
    /// later [`Rejoin`]; a resumed collector keeps the epoch of the
    /// run it is completing, so only workers of *that* run re-attach.
    pub epoch: u64,
    /// The collector's clock when the join (or rejoin) frame was read
    /// — the `t1` of the offset exchange.
    pub t_recv_s: f64,
    /// The collector's clock when this grant was written — the `t2` of
    /// the offset exchange.
    pub t_reply_s: f64,
}

impl Grant {
    /// Encodes the 48-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 48] {
        let mut buf = [0u8; 48];
        buf[0..2].copy_from_slice(&self.version.to_le_bytes());
        let flags = u16::from(self.monitor) | (u16::from(self.spans) << 1);
        buf[2..4].copy_from_slice(&flags.to_le_bytes());
        buf[4..8].copy_from_slice(&self.rank.to_le_bytes());
        buf[8..12].copy_from_slice(&self.size.to_le_bytes());
        // bytes 12..16 reserved, zero
        buf[16..24].copy_from_slice(&self.quota.to_le_bytes());
        buf[24..32].copy_from_slice(&self.epoch.to_le_bytes());
        buf[32..40].copy_from_slice(&self.t_recv_s.to_le_bytes());
        buf[40..48].copy_from_slice(&self.t_reply_s.to_le_bytes());
        buf
    }

    /// Decodes a payload; `None` if the length is wrong.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 48 {
            return None;
        }
        let flags = u16::from_le_bytes(payload[2..4].try_into().ok()?);
        Some(Self {
            version: u16::from_le_bytes(payload[0..2].try_into().ok()?),
            monitor: flags & 1 != 0,
            spans: flags & 2 != 0,
            rank: u32::from_le_bytes(payload[4..8].try_into().ok()?),
            size: u32::from_le_bytes(payload[8..12].try_into().ok()?),
            quota: u64::from_le_bytes(payload[16..24].try_into().ok()?),
            epoch: u64::from_le_bytes(payload[24..32].try_into().ok()?),
            t_recv_s: f64::from_le_bytes(payload[32..40].try_into().ok()?),
            t_reply_s: f64::from_le_bytes(payload[40..48].try_into().ok()?),
        })
    }
}

/// The 40-byte [`TAG_TCP_REJOIN`] payload:
/// `[magic u32][version u16][reserved u16][config_digest u64][epoch u64][rank u32][reserved u32][t0_s f64]`.
/// Sent instead of a [`JoinRequest`] by a worker that already holds a
/// lease and is re-attaching after a broken connection or a collector
/// restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejoin {
    /// Must equal [`TCP_MAGIC`].
    pub magic: u32,
    /// The worker's [`TCP_PROTOCOL_VERSION`].
    pub version: u16,
    /// FNV-1a digest of the run configuration (same as the original
    /// join).
    pub config_digest: u64,
    /// The session epoch from the original [`Grant`].
    pub epoch: u64,
    /// The rank the worker was leased and wants back.
    pub rank: u32,
    /// The worker's clock at send — like [`JoinRequest::t0_s`], so a
    /// rejoin grant doubles as a fresh offset exchange.
    pub t0_s: f64,
}

impl Rejoin {
    /// A well-formed rejoin for this build's protocol version.
    #[must_use]
    pub fn new(config_digest: u64, epoch: u64, rank: u32) -> Self {
        Self {
            magic: TCP_MAGIC,
            version: TCP_PROTOCOL_VERSION,
            config_digest,
            epoch,
            rank,
            t0_s: 0.0,
        }
    }

    /// Encodes the 40-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 40] {
        let mut buf = [0u8; 40];
        buf[0..4].copy_from_slice(&self.magic.to_le_bytes());
        buf[4..6].copy_from_slice(&self.version.to_le_bytes());
        // bytes 6..8 reserved, zero
        buf[8..16].copy_from_slice(&self.config_digest.to_le_bytes());
        buf[16..24].copy_from_slice(&self.epoch.to_le_bytes());
        buf[24..28].copy_from_slice(&self.rank.to_le_bytes());
        // bytes 28..32 reserved, zero
        buf[32..40].copy_from_slice(&self.t0_s.to_le_bytes());
        buf
    }

    /// Decodes a payload; `None` if the length is wrong. Magic,
    /// version, epoch and rank are *not* validated here — the
    /// collector checks them itself so it can answer with the right
    /// reject code.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 40 {
            return None;
        }
        Some(Self {
            magic: u32::from_le_bytes(payload[0..4].try_into().ok()?),
            version: u16::from_le_bytes(payload[4..6].try_into().ok()?),
            config_digest: u64::from_le_bytes(payload[8..16].try_into().ok()?),
            epoch: u64::from_le_bytes(payload[16..24].try_into().ok()?),
            rank: u32::from_le_bytes(payload[24..28].try_into().ok()?),
            t0_s: f64::from_le_bytes(payload[32..40].try_into().ok()?),
        })
    }
}

/// The 8-byte [`TAG_TCP_CLOCK_PROBE`] payload: `[t0_s f64]`, the
/// worker's clock at send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockProbe {
    /// The worker's clock at send.
    pub t0_s: f64,
}

impl ClockProbe {
    /// Encodes the 8-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 8] {
        self.t0_s.to_le_bytes()
    }

    /// Decodes a payload; `None` if the length is wrong.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        Some(Self {
            t0_s: f64::from_le_bytes(payload.try_into().ok()?),
        })
    }
}

/// The 24-byte [`TAG_TCP_CLOCK_REPLY`] payload:
/// `[t0_s f64][t1_s f64][t2_s f64]` — the probe's `t0` echoed back
/// (the exchange is stateless on both sides), the collector's clock at
/// probe receipt, and the collector's clock at reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockReply {
    /// The probe's `t0_s`, echoed back.
    pub t0_s: f64,
    /// Collector clock at probe receipt.
    pub t1_s: f64,
    /// Collector clock at reply.
    pub t2_s: f64,
}

impl ClockReply {
    /// Encodes the 24-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 24] {
        let mut buf = [0u8; 24];
        buf[0..8].copy_from_slice(&self.t0_s.to_le_bytes());
        buf[8..16].copy_from_slice(&self.t1_s.to_le_bytes());
        buf[16..24].copy_from_slice(&self.t2_s.to_le_bytes());
        buf
    }

    /// Decodes a payload; `None` if the length is wrong.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 24 {
            return None;
        }
        Some(Self {
            t0_s: f64::from_le_bytes(payload[0..8].try_into().ok()?),
            t1_s: f64::from_le_bytes(payload[8..16].try_into().ok()?),
            t2_s: f64::from_le_bytes(payload[16..24].try_into().ok()?),
        })
    }
}

/// The 16-byte [`TAG_TCP_CLOCK`] payload: `[offset_s f64][rtt_s f64]`
/// — the worker's RTT-symmetric estimate of
/// `collector_clock − worker_clock` for this link, plus the round-trip
/// time of the exchange it came from (the error bound on the
/// estimate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSync {
    /// Estimated `collector_clock − worker_clock`.
    pub offset_s: f64,
    /// Round-trip time of the exchange behind the estimate.
    pub rtt_s: f64,
}

impl ClockSync {
    /// The standard four-timestamp offset estimate:
    /// `θ = ((t1 − t0) + (t2 − t3)) / 2`, assuming the two network legs
    /// are symmetric; the RTT (minus the collector's turnaround) bounds
    /// the error of that assumption.
    #[must_use]
    pub fn estimate(t0_s: f64, t1_s: f64, t2_s: f64, t3_s: f64) -> Self {
        Self {
            offset_s: ((t1_s - t0_s) + (t2_s - t3_s)) / 2.0,
            rtt_s: ((t3_s - t0_s) - (t2_s - t1_s)).max(0.0),
        }
    }

    /// Encodes the 16-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; 16] {
        let mut buf = [0u8; 16];
        buf[0..8].copy_from_slice(&self.offset_s.to_le_bytes());
        buf[8..16].copy_from_slice(&self.rtt_s.to_le_bytes());
        buf
    }

    /// Decodes a payload; `None` if the length is wrong.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 16 {
            return None;
        }
        Some(Self {
            offset_s: f64::from_le_bytes(payload[0..8].try_into().ok()?),
            rtt_s: f64::from_le_bytes(payload[8..16].try_into().ok()?),
        })
    }
}

/// Why a join was refused. The numeric value is the first payload byte
/// of a [`TAG_TCP_REJECT`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The join frame did not open with [`TCP_MAGIC`].
    BadMagic = 1,
    /// The worker speaks a different [`TCP_PROTOCOL_VERSION`].
    VersionMismatch = 2,
    /// No unleased, unretired worker rank remains — the realization
    /// budget is fully dealt out.
    BudgetExhausted = 3,
    /// The worker's configuration digest differs from the collector's.
    ConfigMismatch = 4,
    /// A [`Rejoin`] carried a session epoch that is not this
    /// collector's — the worker belongs to a different run.
    EpochMismatch = 5,
}

impl RejectCode {
    fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::BadMagic),
            2 => Some(Self::VersionMismatch),
            3 => Some(Self::BudgetExhausted),
            4 => Some(Self::ConfigMismatch),
            5 => Some(Self::EpochMismatch),
            _ => None,
        }
    }
}

/// The [`TAG_TCP_REJECT`] payload: `[code u8][reason utf-8 ...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// The machine-readable refusal code.
    pub code: RejectCode,
    /// A human-readable explanation, surfaced in the worker's error.
    pub reason: String,
}

impl Reject {
    /// Encodes the variable-length payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + self.reason.len());
        buf.push(self.code as u8);
        buf.extend_from_slice(self.reason.as_bytes());
        buf
    }

    /// Decodes a payload; `None` on an empty payload, an unknown code,
    /// or a non-UTF-8 reason.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let (&code, reason) = payload.split_first()?;
        Some(Self {
            code: RejectCode::from_u8(code)?,
            reason: std::str::from_utf8(reason).ok()?.to_string(),
        })
    }
}

/// Upper bound on a frame payload; anything larger is a protocol
/// error, not a subtotal (the performance-test message is ~32 KB).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// The size of the fixed frame header:
/// `[source u32][tag u32][seq u64][len u32]`.
pub const FRAME_HEADER_LEN: usize = 20;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending rank.
    pub source: u32,
    /// Message tag (one of the runner's, or one of the transports'
    /// own protocol tags from `0xFFFF_FF00` up).
    pub tag: u32,
    /// Per-sender monotonic sequence number; 0 for unsequenced
    /// protocol frames (handshakes, forwarded monitor events).
    pub seq: u64,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one unsequenced frame (`seq = 0`) — protocol traffic and
/// links that need no replay protection.
///
/// # Errors
///
/// Any I/O error from the underlying stream.
pub fn write_frame(w: &mut impl Write, source: u32, tag: u32, payload: &[u8]) -> io::Result<()> {
    write_frame_seq(w, source, tag, 0, payload)
}

/// Writes one frame. The 20-byte header and the payload go out as two
/// `write_all` calls under the caller's stream lock, so concurrent
/// senders cannot interleave. `seq` is the sender's monotonic frame
/// sequence number (`> 0`), or 0 for unsequenced protocol traffic.
///
/// # Errors
///
/// Any I/O error from the underlying stream.
pub fn write_frame_seq(
    w: &mut impl Write,
    source: u32,
    tag: u32,
    seq: u64,
    payload: &[u8],
) -> io::Result<()> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&source.to_le_bytes());
    header[4..8].copy_from_slice(&tag.to_le_bytes());
    header[8..16].copy_from_slice(&seq.to_le_bytes());
    header[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed its end after a complete message).
///
/// # Errors
///
/// An I/O error, a mid-frame EOF (`ErrorKind::UnexpectedEof` — a torn
/// frame), or a length prefix past [`MAX_FRAME_LEN`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut frame = decode_header(&header)?;
    r.read_exact(&mut frame.payload)?;
    Ok(Some(frame))
}

/// Decodes a frame header into its frame, whose zeroed payload has the
/// announced length and is read into next.
///
/// # Errors
///
/// `InvalidData` for a length prefix past [`MAX_FRAME_LEN`].
pub(crate) fn decode_header(header: &[u8; FRAME_HEADER_LEN]) -> io::Result<Frame> {
    let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let len = field(16) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix exceeds the protocol maximum",
        ));
    }
    Ok(Frame {
        source: field(0),
        tag: field(4),
        seq: u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")),
        payload: vec![0; len],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame_seq(&mut buf, 3, 1, 7, b"subtotal").unwrap();
        write_frame(&mut buf, 0, TAG_IPC_EVENT, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Frame {
                source: 3,
                tag: 1,
                seq: 7,
                payload: b"subtotal".to_vec()
            }
        );
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Frame {
                source: 0,
                tag: TAG_IPC_EVENT,
                seq: 0,
                payload: Vec::new()
            }
        );
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 2, b"cut").unwrap();
        // Truncated header.
        let mut r = &buf[..6];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncated payload.
        let mut r = &buf[..FRAME_HEADER_LEN + 1];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &header[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn tcp_magic_spells_pmnc_little_endian() {
        assert_eq!(&TCP_MAGIC.to_le_bytes(), b"PMNC");
    }

    #[test]
    fn join_request_round_trips() {
        let mut req = JoinRequest::new(0xDEAD_BEEF_0123_4567);
        req.t0_s = 1.25;
        let buf = req.encode();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..4], b"PMNC");
        assert_eq!(JoinRequest::decode(&buf), Some(req));
        assert_eq!(JoinRequest::decode(&buf[..16]), None);
    }

    #[test]
    fn grant_round_trips_with_every_flag_combination() {
        for monitor in [false, true] {
            for spans in [false, true] {
                let grant = Grant {
                    version: TCP_PROTOCOL_VERSION,
                    monitor,
                    spans,
                    rank: 3,
                    size: 8,
                    quota: 125_000,
                    epoch: 0x0123_4567_89AB_CDEF,
                    t_recv_s: 9.5,
                    t_reply_s: 9.625,
                };
                let buf = grant.encode();
                assert_eq!(buf.len(), 48);
                assert_eq!(&buf[12..16], &[0; 4], "the reserved bytes stay zero");
                assert_eq!(Grant::decode(&buf), Some(grant));
            }
        }
        assert_eq!(Grant::decode(&[0u8; 32]), None, "v2 grants are refused");
    }

    #[test]
    fn rejoin_round_trips() {
        let mut rejoin = Rejoin::new(0xFEED_FACE_CAFE_BEEF, 0x1122_3344_5566_7788, 3);
        rejoin.t0_s = 2.5;
        let buf = rejoin.encode();
        assert_eq!(buf.len(), 40);
        assert_eq!(&buf[0..4], b"PMNC");
        assert_eq!(Rejoin::decode(&buf), Some(rejoin));
        assert_eq!(Rejoin::decode(&buf[..32]), None);
    }

    #[test]
    fn clock_payloads_round_trip() {
        let probe = ClockProbe { t0_s: 3.5 };
        assert_eq!(ClockProbe::decode(&probe.encode()), Some(probe));
        assert_eq!(ClockProbe::decode(&[0u8; 4]), None);
        let reply = ClockReply {
            t0_s: 3.5,
            t1_s: 8.5,
            t2_s: 8.625,
        };
        assert_eq!(ClockReply::decode(&reply.encode()), Some(reply));
        assert_eq!(ClockReply::decode(&[0u8; 16]), None);
        let sync = ClockSync {
            offset_s: -4.75,
            rtt_s: 0.125,
        };
        assert_eq!(ClockSync::decode(&sync.encode()), Some(sync));
        assert_eq!(ClockSync::decode(&[0u8; 8]), None);
    }

    #[test]
    fn offset_estimate_cancels_a_pure_clock_skew() {
        // Worker clock 5 s behind the collector, symmetric 10 ms legs,
        // 2 ms collector turnaround: θ must recover exactly +5 and the
        // RTT must exclude the turnaround.
        let sync = ClockSync::estimate(1.000, 6.010, 6.012, 1.022);
        assert!((sync.offset_s - 5.0).abs() < 1e-12, "{}", sync.offset_s);
        assert!((sync.rtt_s - 0.020).abs() < 1e-12, "{}", sync.rtt_s);
    }

    #[test]
    fn reject_round_trips_and_validates() {
        let reject = Reject {
            code: RejectCode::BudgetExhausted,
            reason: "all stream ranges are leased".into(),
        };
        let buf = reject.encode();
        assert_eq!(buf[0], 3);
        assert_eq!(Reject::decode(&buf), Some(reject));
        assert_eq!(Reject::decode(&[]), None, "empty payload");
        assert_eq!(Reject::decode(&[9, b'x']), None, "unknown code");
        assert_eq!(Reject::decode(&[1, 0xFF, 0xFE]), None, "non-UTF-8 reason");
    }
}
