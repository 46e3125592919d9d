//! The daemon wire protocol: a versioned, length-prefixed binary
//! encoding of [`Request`], [`Response`] and [`ServiceError`], written
//! by hand over `std` only (the build environment has no registry
//! access, so there is no serde here — every variant is encoded and
//! decoded explicitly below and pinned by round-trip tests).
//!
//! # Framing
//!
//! A connection is a sequence of *frames* in each direction:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 LE | payload (length bytes)    |
//! +----------------+---------------------------+
//! ```
//!
//! The length counts payload bytes only and is capped at
//! [`MAX_FRAME_LEN`]; a longer announcement is a protocol violation
//! (the stream may be garbage, so the connection is closed rather than
//! resynchronized). A clean EOF *between* frames is a normal
//! disconnect; EOF inside a frame is a mid-request disconnect.
//!
//! # Payload envelope
//!
//! ```text
//! +--------------------+-----------------+------...
//! | version byte (0x02)| message kind    | body
//! +--------------------+-----------------+------...
//! ```
//!
//! The version byte is [`PROTO_VERSION`]; any other value is rejected.
//! Each build speaks exactly one version — version 1 was the PR 9
//! framing (requests and replies only, no trailing idempotency
//! option); version 2 added the `Hello`/`Ping`/`Pong` control frames
//! and the request's idempotency key. There is no negotiation: a
//! mismatched peer gets a typed [`ProtoError::Version`] on its first
//! frame, which is the intended upgrade signal. Message kinds:
//!
//! * `0x01` — a client→daemon [`Request`];
//! * `0x02` — a daemon→client reply (`Result<Response, ServiceError>`);
//! * `0x03` — `Ping`, client→daemon: a `u64` nonce; the daemon answers
//!   immediately with `Pong`, no service admission involved — the
//!   health check clients and soak harnesses use;
//! * `0x04` — `Pong`, daemon→client: the echoed nonce;
//! * `0x05` — `Hello`, client→daemon, fire-and-forget (no reply): the
//!   connection's client identity as a string, used by per-client
//!   fairness quotas. Without a `Hello`, the daemon assigns a
//!   per-connection identity. TCP ordering makes the identity race-free
//!   for every request framed after it.
//!
//! # Body encodings
//!
//! Scalars are little-endian; `bool` is one byte (`0`/`1`, anything
//! else rejected); `Option<T>` is a tag byte (`0` absent, `1` present)
//! followed by `T`; `String` is a `u32` byte length plus UTF-8;
//! `Vec<T>` is a `u32` count plus the items. `usize` travels as `u64`.
//! A request body is the payload's stable kind discriminant
//! ([`RequestPayload::discriminant`]) and the kind-specific fields —
//! together the canonical payload bytes the service's flight table
//! keys on — then the optional deadline as
//! `Option<u64>` microseconds, then the optional idempotency key as
//! `Option<u64>`. The client identity deliberately does *not* travel
//! per-request: it is connection state, set once by `Hello`, so a
//! client cannot impersonate another tenant mid-stream. A reply body
//! is an `Ok`/`Err` byte followed by the [`Response`] or
//! [`ServiceError`].
//!
//! A verification report is a verdict byte (`0` conforms, `1` fails),
//! the failure list and the composed-state count. The verdict byte is
//! written from the failure list and checked against it on decode: a
//! byte that contradicts the list is [`ProtoError::Inconsistent`]. Each
//! failure is a tag byte and its fields; tag `1` is
//! [`Failure::UnexpectedOutput`], and tag `2` (the retired strict
//! semi-modularity record) decodes as [`ProtoError::BadTag`].
//!
//! STGs travel *structurally*: all six vectors of the Petri net
//! (names, per-transition arc lists, per-place consumer/producer
//! lists), the signal table, labels, and initial state, rebuilt via
//! [`PetriNet::from_parts`]/[`Stg::from_parts`] so the decoded value
//! is byte-for-byte the encoded one — including the per-place arc
//! *order* that drives conflict-group enumeration and CSC tie-breaks.
//! (The `.g` text format is deliberately not used here: it drops
//! forced initial values and reorders ids.) Netlists replay
//! `add_net`/`add_gate` in insertion order, which reproduces
//! driver/fanout tables exactly.
//! A gate whose input count its kind does not take
//! ([`Netlist::check_arity`]) is [`ProtoError::Inconsistent`], as is a
//! net index out of range.
//!
//! # Error mapping
//!
//! Malformed bytes decode to a [`ProtoError`], which maps onto the
//! service's typed error surface as [`ServiceError::Protocol`] — the
//! daemon answers the offending frame with it and then closes the
//! connection (the stream may be desynchronized). Connection loss maps
//! to [`ServiceError::Disconnected`]. No new ad-hoc failure paths:
//! everything a client observes is a `Result<Response, ServiceError>`.

use std::io::{self, Read, Write};
use std::time::Duration;

use rt_netlist::{GateKind, NetId, NetKind, Netlist};
use rt_stg::engine::Degradation;
use rt_stg::petri::Arc as PetriArc;
use rt_stg::stg::{SignalDecl, TransitionLabel};
use rt_stg::{
    Edge, PetriNet, PlaceId, SignalEvent, SignalId, SignalKind, Stg, StgError, TransitionId,
};
use rt_synth::csc::CscOptions;
use rt_synth::SynthError;
use rt_verify::{Failure, NetOrdering, VerifyReport};

use crate::error::ServiceError;
use crate::request::{
    CscCheckOutcome, Request, RequestPayload, ResolveOutcome, Response, ResponsePayload,
    SummaryOutcome,
};

/// The one wire-protocol version this build speaks (see the module
/// docs for the version story).
pub const PROTO_VERSION: u8 = 2;

/// Hard cap on a frame's payload length. Far above any real corpus
/// model; an announcement past it is treated as garbage, not obeyed.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Message kind of a client→daemon [`Request`] frame.
pub const MSG_REQUEST: u8 = 0x01;
/// Message kind of a daemon→client reply frame.
pub const MSG_REPLY: u8 = 0x02;
/// Message kind of a client→daemon `Ping` health check.
pub const MSG_PING: u8 = 0x03;
/// Message kind of a daemon→client `Pong` answer.
pub const MSG_PONG: u8 = 0x04;
/// Message kind of a client→daemon `Hello` identity declaration.
pub const MSG_HELLO: u8 = 0x05;

/// Why bytes failed to decode. Maps onto [`ServiceError::Protocol`]
/// via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// Bytes remained after the structure ended.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An enum tag (or bool byte) had no defined meaning.
    BadTag {
        /// Which structure was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeded what the payload could possibly hold.
    BadLength {
        /// Which structure was being decoded.
        what: &'static str,
        /// The announced element count.
        len: usize,
    },
    /// A string was not UTF-8.
    Utf8,
    /// The version byte was not [`PROTO_VERSION`].
    Version {
        /// The byte received.
        got: u8,
    },
    /// Structurally impossible data (index out of range, inconsistent
    /// net views) — well-formed bytes describing an invalid value.
    Inconsistent {
        /// What was impossible.
        detail: String,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the payload")
            }
            ProtoError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            ProtoError::BadLength { what, len } => {
                write!(f, "impossible length {len} decoding {what}")
            }
            ProtoError::Utf8 => write!(f, "string is not UTF-8"),
            ProtoError::Version { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (expected {PROTO_VERSION})"
                )
            }
            ProtoError::Inconsistent { detail } => write!(f, "inconsistent payload: {detail}"),
        }
    }
}

impl From<ProtoError> for ServiceError {
    fn from(err: ProtoError) -> Self {
        ServiceError::Protocol {
            detail: err.to_string(),
        }
    }
}

type Decoded<T> = Result<T, ProtoError>;

/// Writes one frame: `u32` LE length plus payload.
///
/// # Errors
///
/// Propagates the underlying write errors; a payload over
/// [`MAX_FRAME_LEN`] is refused with `InvalidInput` before any byte is
/// written.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary (the
/// peer closed between requests); EOF inside a frame, like any other
/// read failure, is an `io::Error`. An announced length past
/// [`MAX_FRAME_LEN`] comes back as `InvalidData` — the caller should
/// treat it as a protocol violation and close.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
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
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The message-kind byte of a frame payload, if it has one — how the
/// daemon routes a frame to the right decoder *before* validating it
/// (each decoder still checks the version and full structure itself).
pub fn frame_kind(payload: &[u8]) -> Option<u8> {
    payload.get(1).copied()
}

// ---------------------------------------------------------------------
// Control frames
// ---------------------------------------------------------------------

/// Encodes a `Ping` frame payload carrying `nonce`.
pub fn encode_ping(nonce: u64) -> Vec<u8> {
    let mut enc = Enc::new(MSG_PING);
    enc.u64(nonce);
    enc.bytes
}

/// Decodes a `Ping` frame payload into its nonce.
///
/// # Errors
///
/// [`ProtoError`] on malformed bytes.
pub fn decode_ping(payload: &[u8]) -> Decoded<u64> {
    let mut dec = Dec::new(payload);
    check_envelope(&mut dec, MSG_PING)?;
    let nonce = dec.u64()?;
    dec.finish()?;
    Ok(nonce)
}

/// Encodes a `Pong` frame payload echoing `nonce`.
pub fn encode_pong(nonce: u64) -> Vec<u8> {
    let mut enc = Enc::new(MSG_PONG);
    enc.u64(nonce);
    enc.bytes
}

/// Decodes a `Pong` frame payload into its echoed nonce.
///
/// # Errors
///
/// [`ProtoError`] on malformed bytes.
pub fn decode_pong(payload: &[u8]) -> Decoded<u64> {
    let mut dec = Dec::new(payload);
    check_envelope(&mut dec, MSG_PONG)?;
    let nonce = dec.u64()?;
    dec.finish()?;
    Ok(nonce)
}

/// Encodes a `Hello` frame payload declaring `client_id`.
pub fn encode_hello(client_id: &str) -> Vec<u8> {
    let mut enc = Enc::new(MSG_HELLO);
    enc.str(client_id);
    enc.bytes
}

/// Decodes a `Hello` frame payload into the declared client identity.
///
/// # Errors
///
/// [`ProtoError`] on malformed bytes.
pub fn decode_hello(payload: &[u8]) -> Decoded<String> {
    let mut dec = Dec::new(payload);
    check_envelope(&mut dec, MSG_HELLO)?;
    let client_id = dec.str()?;
    dec.finish()?;
    Ok(client_id)
}

// ---------------------------------------------------------------------
// Primitive encoder/decoder
// ---------------------------------------------------------------------

struct Enc {
    bytes: Vec<u8>,
}

impl Enc {
    fn new(kind: u8) -> Self {
        Enc {
            bytes: vec![PROTO_VERSION, kind],
        }
    }

    fn u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    fn bool(&mut self, value: bool) {
        self.bytes.push(u8::from(value));
    }

    fn u16(&mut self, value: u16) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.bytes.extend_from_slice(value.as_bytes());
    }

    fn opt_bool(&mut self, value: Option<bool>) {
        match value {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.bool(v);
            }
        }
    }

    fn len(&mut self, len: usize) {
        self.u32(len as u32);
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::BadTag { what: "bool", tag }),
        }
    }

    fn u16(&mut self) -> Decoded<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Decoded<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Decoded<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Decoded<usize> {
        Ok(self.u64()? as usize)
    }

    /// Decodes a `u32` element count and sanity-checks it against the
    /// bytes actually left (each element needs at least `min_bytes`),
    /// so a corrupt length cannot drive an absurd allocation.
    fn len(&mut self, what: &'static str, min_bytes: usize) -> Decoded<usize> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(ProtoError::BadLength { what, len });
        }
        Ok(len)
    }

    fn str(&mut self) -> Decoded<String> {
        let len = self.len("string", 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Utf8)
    }

    fn opt_bool(&mut self) -> Decoded<Option<bool>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bool()?)),
            tag => Err(ProtoError::BadTag {
                what: "Option<bool>",
                tag,
            }),
        }
    }

    fn finish(self) -> Decoded<()> {
        if self.remaining() != 0 {
            return Err(ProtoError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn check_envelope(dec: &mut Dec<'_>, expected_kind: u8) -> Decoded<()> {
    let version = dec.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version { got: version });
    }
    let kind = dec.u8()?;
    if kind != expected_kind {
        return Err(ProtoError::BadTag {
            what: "message kind",
            tag: kind,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// STG
// ---------------------------------------------------------------------

fn enc_stg(enc: &mut Enc, stg: &Stg) {
    let net = stg.net();
    enc.str(stg.name());
    enc.len(net.place_count());
    for place in net.places() {
        enc.str(net.place_name(place));
    }
    enc.len(net.transition_count());
    for transition in net.transitions() {
        enc.str(net.transition_name(transition));
    }
    for arcs in [
        net.transitions().map(|t| net.preset(t)).collect::<Vec<_>>(),
        net.transitions()
            .map(|t| net.postset(t))
            .collect::<Vec<_>>(),
    ] {
        for list in arcs {
            enc.len(list.len());
            for arc in list {
                enc.u32(arc.place.0);
                enc.u16(arc.weight);
            }
        }
    }
    for lists in [
        net.places().map(|p| net.consumers(p)).collect::<Vec<_>>(),
        net.places().map(|p| net.producers(p)).collect::<Vec<_>>(),
    ] {
        for list in lists {
            enc.len(list.len());
            for transition in list {
                enc.u32(transition.0);
            }
        }
    }
    enc.len(stg.signal_count());
    for signal in stg.signals() {
        let decl = stg.signal(signal);
        enc.str(&decl.name);
        enc.u8(match decl.kind {
            SignalKind::Input => 0,
            SignalKind::Output => 1,
            SignalKind::Internal => 2,
        });
        enc.opt_bool(stg.initial_value(signal));
    }
    for transition in net.transitions() {
        match stg.label(transition) {
            TransitionLabel::Event(event) => {
                enc.u8(1);
                enc.u32(event.signal.0);
                enc.u8(matches!(event.edge, Edge::Rise) as u8);
            }
            TransitionLabel::Silent => enc.u8(2),
        }
    }
    let marking = stg.initial_marking();
    for place in net.places() {
        enc.u16(marking.tokens(place));
    }
}

fn dec_stg(dec: &mut Dec<'_>) -> Decoded<Stg> {
    let name = dec.str()?;
    let place_len = dec.len("place names", 4)?;
    let mut place_names = Vec::with_capacity(place_len);
    for _ in 0..place_len {
        place_names.push(dec.str()?);
    }
    let transition_len = dec.len("transition names", 4)?;
    let mut transition_names = Vec::with_capacity(transition_len);
    for _ in 0..transition_len {
        transition_names.push(dec.str()?);
    }
    let mut arc_lists = |count: usize| -> Decoded<Vec<Vec<PetriArc>>> {
        let mut lists = Vec::with_capacity(count);
        for _ in 0..count {
            let len = dec.len("arc list", 6)?;
            let mut arcs = Vec::with_capacity(len);
            for _ in 0..len {
                arcs.push(PetriArc {
                    place: PlaceId(dec.u32()?),
                    weight: dec.u16()?,
                });
            }
            lists.push(arcs);
        }
        Ok(lists)
    };
    let presets = arc_lists(transition_len)?;
    let postsets = arc_lists(transition_len)?;
    let mut id_lists = |count: usize| -> Decoded<Vec<Vec<TransitionId>>> {
        let mut lists = Vec::with_capacity(count);
        for _ in 0..count {
            let len = dec.len("transition list", 4)?;
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                ids.push(TransitionId(dec.u32()?));
            }
            lists.push(ids);
        }
        Ok(lists)
    };
    let consumers = id_lists(place_len)?;
    let producers = id_lists(place_len)?;
    let net = PetriNet::from_parts(
        place_names,
        transition_names,
        presets,
        postsets,
        consumers,
        producers,
    )
    .map_err(|err| ProtoError::Inconsistent {
        detail: err.to_string(),
    })?;
    let signal_len = dec.len("signal table", 6)?;
    let mut signals = Vec::with_capacity(signal_len);
    let mut initial_values = Vec::with_capacity(signal_len);
    for _ in 0..signal_len {
        let name = dec.str()?;
        let kind = match dec.u8()? {
            0 => SignalKind::Input,
            1 => SignalKind::Output,
            2 => SignalKind::Internal,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "SignalKind",
                    tag,
                })
            }
        };
        signals.push(SignalDecl { name, kind });
        initial_values.push(dec.opt_bool()?);
    }
    let mut labels = Vec::with_capacity(transition_len);
    for _ in 0..transition_len {
        labels.push(match dec.u8()? {
            1 => {
                let signal = SignalId(dec.u32()?);
                let edge = match dec.u8()? {
                    1 => Edge::Rise,
                    0 => Edge::Fall,
                    tag => return Err(ProtoError::BadTag { what: "Edge", tag }),
                };
                TransitionLabel::Event(SignalEvent { signal, edge })
            }
            2 => TransitionLabel::Silent,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "TransitionLabel",
                    tag,
                })
            }
        });
    }
    let mut initial_tokens = Vec::with_capacity(place_len);
    for _ in 0..place_len {
        initial_tokens.push(dec.u16()?);
    }
    Stg::from_parts(name, net, signals, labels, initial_tokens, initial_values).map_err(|err| {
        ProtoError::Inconsistent {
            detail: err.to_string(),
        }
    })
}

// ---------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------

fn enc_netlist(enc: &mut Enc, netlist: &Netlist) {
    enc.str(netlist.name());
    enc.len(netlist.net_count());
    for net in netlist.nets() {
        enc.str(netlist.net_name(net));
        enc.u8(match netlist.net_kind(net) {
            NetKind::Input => 0,
            NetKind::Output => 1,
            NetKind::Internal => 2,
        });
    }
    enc.len(netlist.gate_count());
    for id in netlist.gates() {
        let gate = netlist.gate(id);
        enc.str(&gate.name);
        enc_gate_kind(enc, &gate.kind);
        enc.len(gate.inputs.len());
        for input in &gate.inputs {
            enc.u32(input.0);
        }
        enc.u32(gate.output.0);
    }
}

fn enc_gate_kind(enc: &mut Enc, kind: &GateKind) {
    match kind {
        GateKind::Inv => enc.u8(0),
        GateKind::Buf => enc.u8(1),
        GateKind::And => enc.u8(2),
        GateKind::Or => enc.u8(3),
        GateKind::Nand => enc.u8(4),
        GateKind::Nor => enc.u8(5),
        GateKind::Xor2 => enc.u8(6),
        GateKind::Aoi { groups } => {
            enc.u8(7);
            enc.len(groups.len());
            for &group in groups {
                enc.u8(group);
            }
        }
        GateKind::Celem => enc.u8(8),
        GateKind::Gc { set, reset } => {
            enc.u8(9);
            enc.u8(*set);
            enc.u8(*reset);
        }
        GateKind::DominoOr { footed } => {
            enc.u8(10);
            enc.bool(*footed);
        }
        GateKind::DominoAnd { footed } => {
            enc.u8(11);
            enc.bool(*footed);
        }
        GateKind::DominoSr { set, reset } => {
            enc.u8(12);
            enc.u8(*set);
            enc.u8(*reset);
        }
    }
}

fn dec_gate_kind(dec: &mut Dec<'_>) -> Decoded<GateKind> {
    Ok(match dec.u8()? {
        0 => GateKind::Inv,
        1 => GateKind::Buf,
        2 => GateKind::And,
        3 => GateKind::Or,
        4 => GateKind::Nand,
        5 => GateKind::Nor,
        6 => GateKind::Xor2,
        7 => {
            let len = dec.len("AOI groups", 1)?;
            let mut groups = Vec::with_capacity(len);
            for _ in 0..len {
                groups.push(dec.u8()?);
            }
            GateKind::Aoi { groups }
        }
        8 => GateKind::Celem,
        9 => GateKind::Gc {
            set: dec.u8()?,
            reset: dec.u8()?,
        },
        10 => GateKind::DominoOr {
            footed: dec.bool()?,
        },
        11 => GateKind::DominoAnd {
            footed: dec.bool()?,
        },
        12 => GateKind::DominoSr {
            set: dec.u8()?,
            reset: dec.u8()?,
        },
        tag => {
            return Err(ProtoError::BadTag {
                what: "GateKind",
                tag,
            })
        }
    })
}

fn dec_netlist(dec: &mut Dec<'_>) -> Decoded<Netlist> {
    let name = dec.str()?;
    let mut netlist = Netlist::new(name);
    let net_len = dec.len("net table", 5)?;
    for _ in 0..net_len {
        let name = dec.str()?;
        let kind = match dec.u8()? {
            0 => NetKind::Input,
            1 => NetKind::Output,
            2 => NetKind::Internal,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "NetKind",
                    tag,
                })
            }
        };
        netlist.add_net(name, kind);
    }
    let gate_len = dec.len("gate table", 9)?;
    for _ in 0..gate_len {
        let name = dec.str()?;
        let kind = dec_gate_kind(dec)?;
        let input_len = dec.len("gate inputs", 4)?;
        let mut inputs = Vec::with_capacity(input_len);
        for _ in 0..input_len {
            let net = dec.u32()?;
            if net as usize >= net_len {
                return Err(ProtoError::Inconsistent {
                    detail: format!("gate input names net {net} of {net_len}"),
                });
            }
            inputs.push(NetId(net));
        }
        let output = dec.u32()?;
        if output as usize >= net_len {
            return Err(ProtoError::Inconsistent {
                detail: format!("gate output names net {output} of {net_len}"),
            });
        }
        netlist.add_gate(name, kind, inputs, NetId(output));
    }
    netlist
        .check_arity()
        .map_err(|err| ProtoError::Inconsistent {
            detail: err.to_string(),
        })?;
    Ok(netlist)
}

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

fn enc_orderings(enc: &mut Enc, orderings: &[NetOrdering]) {
    enc.len(orderings.len());
    for ordering in orderings {
        enc.u32(ordering.before.0 .0);
        enc.bool(ordering.before.1);
        enc.u32(ordering.after.0 .0);
        enc.bool(ordering.after.1);
    }
}

fn dec_orderings(dec: &mut Dec<'_>) -> Decoded<Vec<NetOrdering>> {
    let len = dec.len("orderings", 10)?;
    let mut orderings = Vec::with_capacity(len);
    for _ in 0..len {
        orderings.push(NetOrdering {
            before: (NetId(dec.u32()?), dec.bool()?),
            after: (NetId(dec.u32()?), dec.bool()?),
        });
    }
    Ok(orderings)
}

/// The canonical bytes of a request payload — its kind discriminant and
/// kind-specific fields, exactly as they appear inside a request frame.
/// The encoding is one-to-one, so equal bytes mean equal payloads,
/// names included: the service keys its flight table on these bytes.
pub(crate) fn encode_payload(payload: &RequestPayload) -> Vec<u8> {
    let mut enc = Enc { bytes: Vec::new() };
    enc_payload(&mut enc, payload);
    enc.bytes
}

fn enc_payload(enc: &mut Enc, payload: &RequestPayload) {
    enc.u8(payload.discriminant());
    match payload {
        RequestPayload::Summary { stg } | RequestPayload::CscCheck { stg } => {
            enc_stg(enc, stg);
        }
        RequestPayload::ResolveCsc { stg, options } => {
            enc_stg(enc, stg);
            enc.usize(options.max_signals);
            enc.usize(options.critical_path_penalty);
            enc.usize(options.threads);
            enc.usize(options.symbolic_threshold);
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => {
            enc_netlist(enc, netlist);
            enc_stg(enc, spec);
            enc_orderings(enc, orderings);
        }
    }
}

/// Encodes a request into a frame payload (envelope included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut enc = Enc::new(MSG_REQUEST);
    enc_payload(&mut enc, &request.payload);
    match request.deadline {
        None => enc.u8(0),
        Some(deadline) => {
            enc.u8(1);
            enc.u64(u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX));
        }
    }
    match request.idempotency {
        None => enc.u8(0),
        Some(token) => {
            enc.u8(1);
            enc.u64(token);
        }
    }
    enc.bytes
}

/// Decodes a frame payload into a request.
///
/// # Errors
///
/// [`ProtoError`] on any malformed, trailing or structurally
/// impossible bytes.
pub fn decode_request(payload: &[u8]) -> Decoded<Request> {
    let mut dec = Dec::new(payload);
    check_envelope(&mut dec, MSG_REQUEST)?;
    let kind = dec.u8()?;
    let payload = match kind {
        RequestPayload::SUMMARY => RequestPayload::Summary {
            stg: dec_stg(&mut dec)?,
        },
        RequestPayload::CSC_CHECK => RequestPayload::CscCheck {
            stg: dec_stg(&mut dec)?,
        },
        RequestPayload::RESOLVE_CSC => {
            let stg = dec_stg(&mut dec)?;
            let options = CscOptions {
                max_signals: dec.usize()?,
                critical_path_penalty: dec.usize()?,
                threads: dec.usize()?,
                symbolic_threshold: dec.usize()?,
            };
            RequestPayload::ResolveCsc { stg, options }
        }
        RequestPayload::VERIFY => {
            let netlist = dec_netlist(&mut dec)?;
            let spec = dec_stg(&mut dec)?;
            let orderings = dec_orderings(&mut dec)?;
            RequestPayload::Verify {
                netlist,
                spec,
                orderings,
            }
        }
        tag => {
            return Err(ProtoError::BadTag {
                what: "RequestPayload",
                tag,
            })
        }
    };
    let deadline = match dec.u8()? {
        0 => None,
        1 => Some(Duration::from_micros(dec.u64()?)),
        tag => {
            return Err(ProtoError::BadTag {
                what: "deadline option",
                tag,
            })
        }
    };
    let idempotency = match dec.u8()? {
        0 => None,
        1 => Some(dec.u64()?),
        tag => {
            return Err(ProtoError::BadTag {
                what: "idempotency option",
                tag,
            })
        }
    };
    dec.finish()?;
    // The client identity is connection state (`Hello`), never part of
    // the request encoding; the daemon stamps it after decoding.
    Ok(Request {
        payload,
        deadline,
        idempotency,
        client: None,
    })
}

// ---------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------

// Tags 0 and 1 are retired: they decode as `BadTag` and are never
// reused.
fn enc_degradations(enc: &mut Enc, degradations: &[Degradation]) {
    enc.len(degradations.len());
    for degradation in degradations {
        enc.u8(match degradation {
            Degradation::ExplicitToSymbolic => 2,
            Degradation::PartialSynthesis => 3,
        });
    }
}

fn dec_degradations(dec: &mut Dec<'_>) -> Decoded<Vec<Degradation>> {
    let len = dec.len("degradations", 1)?;
    let mut degradations = Vec::with_capacity(len);
    for _ in 0..len {
        degradations.push(match dec.u8()? {
            2 => Degradation::ExplicitToSymbolic,
            3 => Degradation::PartialSynthesis,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "Degradation",
                    tag,
                })
            }
        });
    }
    Ok(degradations)
}

fn enc_edge_list(enc: &mut Enc, edges: &[(NetId, bool)]) {
    enc.len(edges.len());
    for (net, value) in edges {
        enc.u32(net.0);
        enc.bool(*value);
    }
}

fn dec_edge_list(dec: &mut Dec<'_>) -> Decoded<Vec<(NetId, bool)>> {
    let len = dec.len("edge list", 5)?;
    let mut edges = Vec::with_capacity(len);
    for _ in 0..len {
        edges.push((NetId(dec.u32()?), dec.bool()?));
    }
    Ok(edges)
}

// Failure tag 2 is retired: it decodes as `BadTag` and is never reused.
fn enc_verify_report(enc: &mut Enc, report: &VerifyReport) {
    enc.u8(u8::from(!report.passed()));
    enc.len(report.failures.len());
    for failure in &report.failures {
        let Failure::UnexpectedOutput {
            net,
            value,
            pending_others,
            trace,
        } = failure;
        enc.u8(1);
        enc.u32(net.0);
        enc.bool(*value);
        enc_edge_list(enc, pending_others);
        enc_edge_list(enc, trace);
    }
    enc.usize(report.states_explored);
}

fn dec_verify_report(dec: &mut Dec<'_>) -> Decoded<VerifyReport> {
    let fails = match dec.u8()? {
        0 => false,
        1 => true,
        tag => {
            return Err(ProtoError::BadTag {
                what: "Verdict",
                tag,
            })
        }
    };
    let len = dec.len("failures", 2)?;
    let mut failures = Vec::with_capacity(len);
    for _ in 0..len {
        failures.push(match dec.u8()? {
            1 => Failure::UnexpectedOutput {
                net: NetId(dec.u32()?),
                value: dec.bool()?,
                pending_others: dec_edge_list(dec)?,
                trace: dec_edge_list(dec)?,
            },
            tag => {
                return Err(ProtoError::BadTag {
                    what: "Failure",
                    tag,
                })
            }
        });
    }
    if fails == failures.is_empty() {
        return Err(ProtoError::Inconsistent {
            detail: format!(
                "verdict byte {} with {} failures",
                u8::from(fails),
                failures.len()
            ),
        });
    }
    Ok(VerifyReport {
        failures,
        states_explored: dec.usize()?,
    })
}

fn enc_response(enc: &mut Enc, response: &Response) {
    enc.u8(response.payload.discriminant());
    match &response.payload {
        ResponsePayload::Summary(outcome) => {
            enc.u64(outcome.markings);
            enc.usize(outcome.iterations);
        }
        ResponsePayload::CscCheck(outcome) => {
            enc.u64(outcome.markings);
            enc.u64(outcome.conflicts);
            enc.bool(outcome.deadlock_free);
            enc.bool(outcome.strongly_connected);
        }
        ResponsePayload::ResolveCsc(outcome) => {
            enc_stg(enc, &outcome.stg);
            enc.len(outcome.inserted.len());
            for name in &outcome.inserted {
                enc.str(name);
            }
            enc.usize(outcome.cost);
            enc.bool(outcome.truncated);
        }
        ResponsePayload::Verify(report) => enc_verify_report(enc, report),
    }
    enc_degradations(enc, &response.degradations);
    enc.bool(response.cached);
    enc.u32(response.retries);
}

fn dec_response(dec: &mut Dec<'_>) -> Decoded<Response> {
    let kind = dec.u8()?;
    let payload = match kind {
        RequestPayload::SUMMARY => ResponsePayload::Summary(SummaryOutcome {
            markings: dec.u64()?,
            iterations: dec.usize()?,
        }),
        RequestPayload::CSC_CHECK => ResponsePayload::CscCheck(CscCheckOutcome {
            markings: dec.u64()?,
            conflicts: dec.u64()?,
            deadlock_free: dec.bool()?,
            strongly_connected: dec.bool()?,
        }),
        RequestPayload::RESOLVE_CSC => {
            let stg = dec_stg(dec)?;
            let len = dec.len("inserted signals", 4)?;
            let mut inserted = Vec::with_capacity(len);
            for _ in 0..len {
                inserted.push(dec.str()?);
            }
            ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                stg,
                inserted,
                cost: dec.usize()?,
                truncated: dec.bool()?,
            }))
        }
        RequestPayload::VERIFY => ResponsePayload::Verify(dec_verify_report(dec)?),
        tag => {
            return Err(ProtoError::BadTag {
                what: "ResponsePayload",
                tag,
            })
        }
    };
    Ok(Response {
        payload,
        degradations: dec_degradations(dec)?,
        cached: dec.bool()?,
        retries: dec.u32()?,
    })
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

// Tag 13 is retired: it decodes as `BadTag` and is never reused. Tag
// 16, `InvalidNetlist` and its message, came after version 2's other
// tags without a version change: a peer built before it decodes the
// tag as `BadTag`.
fn enc_stg_error(enc: &mut Enc, err: &StgError) {
    match err {
        StgError::UnknownSignal(name) => {
            enc.u8(1);
            enc.str(name);
        }
        StgError::DuplicateSignal(name) => {
            enc.u8(2);
            enc.str(name);
        }
        StgError::UnknownPlace(name) => {
            enc.u8(3);
            enc.str(name);
        }
        StgError::UnknownTransition(name) => {
            enc.u8(4);
            enc.str(name);
        }
        StgError::Unbounded { place, bound } => {
            enc.u8(5);
            enc.str(place);
            enc.u32(*bound);
        }
        StgError::Inconsistent { signal, detail } => {
            enc.u8(6);
            enc.str(signal);
            enc.str(detail);
        }
        StgError::StateLimitExceeded(states) => {
            enc.u8(7);
            enc.usize(*states);
        }
        StgError::IterationLimitExceeded { iterations } => {
            enc.u8(8);
            enc.usize(*iterations);
        }
        StgError::StateBudgetExceeded { states } => {
            enc.u8(9);
            enc.usize(*states);
        }
        StgError::NodeBudgetExceeded { nodes } => {
            enc.u8(10);
            enc.usize(*nodes);
        }
        StgError::Cancelled => enc.u8(11),
        StgError::WorkerPanicked => enc.u8(12),
        StgError::Parse { line, message } => {
            enc.u8(14);
            enc.usize(*line);
            enc.str(message);
        }
        StgError::TooManySignals(count) => {
            enc.u8(15);
            enc.usize(*count);
        }
        StgError::InvalidNetlist(detail) => {
            enc.u8(16);
            enc.str(detail);
        }
    }
}

fn dec_stg_error(dec: &mut Dec<'_>) -> Decoded<StgError> {
    Ok(match dec.u8()? {
        1 => StgError::UnknownSignal(dec.str()?),
        2 => StgError::DuplicateSignal(dec.str()?),
        3 => StgError::UnknownPlace(dec.str()?),
        4 => StgError::UnknownTransition(dec.str()?),
        5 => StgError::Unbounded {
            place: dec.str()?,
            bound: dec.u32()?,
        },
        6 => StgError::Inconsistent {
            signal: dec.str()?,
            detail: dec.str()?,
        },
        7 => StgError::StateLimitExceeded(dec.usize()?),
        8 => StgError::IterationLimitExceeded {
            iterations: dec.usize()?,
        },
        9 => StgError::StateBudgetExceeded {
            states: dec.usize()?,
        },
        10 => StgError::NodeBudgetExceeded {
            nodes: dec.usize()?,
        },
        11 => StgError::Cancelled,
        12 => StgError::WorkerPanicked,
        14 => StgError::Parse {
            line: dec.usize()?,
            message: dec.str()?,
        },
        15 => StgError::TooManySignals(dec.usize()?),
        16 => StgError::InvalidNetlist(dec.str()?),
        tag => {
            return Err(ProtoError::BadTag {
                what: "StgError",
                tag,
            })
        }
    })
}

fn enc_synth_error(enc: &mut Enc, err: &SynthError) {
    match err {
        SynthError::CscConflict { signal } => {
            enc.u8(1);
            enc.str(signal);
        }
        SynthError::CscUnresolvable { attempts } => {
            enc.u8(2);
            enc.usize(*attempts);
        }
        SynthError::OverlappingCovers { signal, state_code } => {
            enc.u8(3);
            enc.str(signal);
            enc.u64(*state_code);
        }
        SynthError::NothingToImplement => enc.u8(4),
        SynthError::BackendMismatch { explicit, symbolic } => {
            enc.u8(5);
            enc.u64(*explicit);
            enc.u64(*symbolic);
        }
        SynthError::DetectorMismatch { explicit, symbolic } => {
            enc.u8(6);
            enc.u64(*explicit);
            enc.u64(*symbolic);
        }
        SynthError::Stg(err) => {
            enc.u8(7);
            enc_stg_error(enc, err);
        }
        SynthError::UnknownSignal(signal) => {
            enc.u8(8);
            enc.u32(signal.0);
        }
    }
}

fn dec_synth_error(dec: &mut Dec<'_>) -> Decoded<SynthError> {
    Ok(match dec.u8()? {
        1 => SynthError::CscConflict { signal: dec.str()? },
        2 => SynthError::CscUnresolvable {
            attempts: dec.usize()?,
        },
        3 => SynthError::OverlappingCovers {
            signal: dec.str()?,
            state_code: dec.u64()?,
        },
        4 => SynthError::NothingToImplement,
        5 => SynthError::BackendMismatch {
            explicit: dec.u64()?,
            symbolic: dec.u64()?,
        },
        6 => SynthError::DetectorMismatch {
            explicit: dec.u64()?,
            symbolic: dec.u64()?,
        },
        7 => SynthError::Stg(dec_stg_error(dec)?),
        8 => SynthError::UnknownSignal(SignalId(dec.u32()?)),
        tag => {
            return Err(ProtoError::BadTag {
                what: "SynthError",
                tag,
            })
        }
    })
}

fn enc_service_error(enc: &mut Enc, err: &ServiceError) {
    match err {
        ServiceError::Shed { queue_depth } => {
            enc.u8(1);
            enc.usize(*queue_depth);
        }
        ServiceError::ShuttingDown => enc.u8(2),
        ServiceError::WorkerPanicked => enc.u8(3),
        ServiceError::Engine(err) => {
            enc.u8(4);
            enc_stg_error(enc, err);
        }
        ServiceError::Synth(err) => {
            enc.u8(5);
            enc_synth_error(enc, err);
        }
        ServiceError::Protocol { detail } => {
            enc.u8(6);
            enc.str(detail);
        }
        ServiceError::Disconnected => enc.u8(7),
        ServiceError::InvalidConfig { detail } => {
            enc.u8(8);
            enc.str(detail);
        }
        ServiceError::QuotaExceeded { client, inflight } => {
            enc.u8(9);
            enc.str(client);
            enc.usize(*inflight);
        }
    }
}

fn dec_service_error(dec: &mut Dec<'_>) -> Decoded<ServiceError> {
    Ok(match dec.u8()? {
        1 => ServiceError::Shed {
            queue_depth: dec.usize()?,
        },
        2 => ServiceError::ShuttingDown,
        3 => ServiceError::WorkerPanicked,
        4 => ServiceError::Engine(dec_stg_error(dec)?),
        5 => ServiceError::Synth(dec_synth_error(dec)?),
        6 => ServiceError::Protocol { detail: dec.str()? },
        7 => ServiceError::Disconnected,
        8 => ServiceError::InvalidConfig { detail: dec.str()? },
        9 => ServiceError::QuotaExceeded {
            client: dec.str()?,
            inflight: dec.usize()?,
        },
        tag => {
            return Err(ProtoError::BadTag {
                what: "ServiceError",
                tag,
            })
        }
    })
}

/// Encodes a reply (`Ok(Response)` or `Err(ServiceError)`) into a
/// frame payload (envelope included).
pub fn encode_reply(reply: &Result<Response, ServiceError>) -> Vec<u8> {
    let mut enc = Enc::new(MSG_REPLY);
    match reply {
        Ok(response) => {
            enc.u8(1);
            enc_response(&mut enc, response);
        }
        Err(err) => {
            enc.u8(0);
            enc_service_error(&mut enc, err);
        }
    }
    enc.bytes
}

/// Decodes a frame payload into a reply.
///
/// # Errors
///
/// [`ProtoError`] on any malformed, trailing or structurally
/// impossible bytes.
pub fn decode_reply(payload: &[u8]) -> Decoded<Result<Response, ServiceError>> {
    let mut dec = Dec::new(payload);
    check_envelope(&mut dec, MSG_REPLY)?;
    let reply = match dec.u8()? {
        1 => Ok(dec_response(&mut dec)?),
        0 => Err(dec_service_error(&mut dec)?),
        tag => {
            return Err(ProtoError::BadTag {
                what: "reply result",
                tag,
            })
        }
    };
    dec.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netlist::cells::majority_celement;
    use rt_stg::models;

    fn roundtrip_request(request: &Request) -> Request {
        let bytes = encode_request(request);
        let decoded = decode_request(&bytes).expect("request decodes");
        assert_eq!(
            encode_request(&decoded),
            bytes,
            "re-encoding must reproduce the bytes exactly"
        );
        decoded
    }

    fn roundtrip_reply(reply: &Result<Response, ServiceError>) -> Result<Response, ServiceError> {
        let bytes = encode_reply(reply);
        let decoded = decode_reply(&bytes).expect("reply decodes");
        assert_eq!(encode_reply(&decoded), bytes, "re-encode is identity");
        decoded
    }

    #[test]
    fn stg_requests_roundtrip_structurally() {
        for stg in [
            models::fifo_stg(),
            models::celement_stg(),
            models::fifo_stg_csc(),
            models::chain_stg(3),
        ] {
            let request = Request::summary(stg.clone());
            let decoded = roundtrip_request(&request);
            let RequestPayload::Summary { stg: rebuilt } = &decoded.payload else {
                panic!("wrong kind");
            };
            assert_eq!(rebuilt, &stg);
        }
    }

    #[test]
    fn all_request_kinds_and_deadlines_roundtrip() {
        let (netlist, _) = majority_celement();
        let options = rt_synth::csc::CscOptions {
            threads: 1,
            ..Default::default()
        };
        let requests = [
            Request::csc_check(models::fifo_stg_csc()),
            Request::resolve_csc(models::fifo_stg_csc(), options),
            Request::verify(
                netlist,
                models::celement_stg(),
                vec![NetOrdering {
                    before: (NetId(0), true),
                    after: (NetId(1), false),
                }],
            ),
            Request::summary(models::fifo_stg()).with_deadline(Duration::from_micros(12_345)),
            Request::summary(models::fifo_stg()).with_idempotency(0xfeed_beef_dead_cafe),
        ];
        for request in &requests {
            let decoded = roundtrip_request(request);
            assert_eq!(decoded.deadline, request.deadline);
            assert_eq!(decoded.idempotency, request.idempotency);
            assert_eq!(
                decoded.payload.discriminant(),
                request.payload.discriminant()
            );
            assert_eq!(
                format!("{:?}", decoded.payload),
                format!("{:?}", request.payload)
            );
        }
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = vec![
            ServiceError::Shed { queue_depth: 7 },
            ServiceError::ShuttingDown,
            ServiceError::WorkerPanicked,
            ServiceError::Engine(StgError::UnknownSignal("x".into())),
            ServiceError::Engine(StgError::DuplicateSignal("y".into())),
            ServiceError::Engine(StgError::UnknownPlace("p".into())),
            ServiceError::Engine(StgError::UnknownTransition("t".into())),
            ServiceError::Engine(StgError::Unbounded {
                place: "p1".into(),
                bound: 3,
            }),
            ServiceError::Engine(StgError::Inconsistent {
                signal: "a".into(),
                detail: "rises twice".into(),
            }),
            ServiceError::Engine(StgError::StateLimitExceeded(10)),
            ServiceError::Engine(StgError::IterationLimitExceeded { iterations: 11 }),
            ServiceError::Engine(StgError::StateBudgetExceeded { states: 12 }),
            ServiceError::Engine(StgError::NodeBudgetExceeded { nodes: 13 }),
            ServiceError::Engine(StgError::Cancelled),
            ServiceError::Engine(StgError::WorkerPanicked),
            ServiceError::Synth(SynthError::Stg(StgError::Inconsistent {
                signal: "w".into(),
                detail: "wedged".into(),
            })),
            ServiceError::Engine(StgError::Parse {
                line: 4,
                message: "bad".into(),
            }),
            ServiceError::Engine(StgError::TooManySignals(65)),
            ServiceError::Engine(StgError::InvalidNetlist("gate `g`".into())),
            ServiceError::Synth(SynthError::CscConflict { signal: "s".into() }),
            ServiceError::Synth(SynthError::CscUnresolvable { attempts: 3 }),
            ServiceError::Synth(SynthError::OverlappingCovers {
                signal: "s".into(),
                state_code: 0b1011,
            }),
            ServiceError::Synth(SynthError::NothingToImplement),
            ServiceError::Synth(SynthError::BackendMismatch {
                explicit: 1,
                symbolic: 2,
            }),
            ServiceError::Synth(SynthError::DetectorMismatch {
                explicit: 3,
                symbolic: 4,
            }),
            ServiceError::Synth(SynthError::Stg(StgError::Cancelled)),
            ServiceError::Synth(SynthError::UnknownSignal(SignalId(9))),
            ServiceError::Protocol {
                detail: "bad tag".into(),
            },
            ServiceError::Disconnected,
            ServiceError::InvalidConfig {
                detail: "workers".into(),
            },
            ServiceError::QuotaExceeded {
                client: "tenant-a".into(),
                inflight: 4,
            },
        ];
        for err in errors {
            assert_eq!(roundtrip_reply(&Err(err.clone())), Err(err));
        }
    }

    /// A report with two failures, the second with an empty trace.
    fn failing_report() -> VerifyReport {
        VerifyReport {
            failures: vec![
                Failure::UnexpectedOutput {
                    net: NetId(2),
                    value: true,
                    pending_others: vec![(NetId(0), false)],
                    trace: vec![(NetId(1), true), (NetId(2), false)],
                },
                Failure::UnexpectedOutput {
                    net: NetId(3),
                    value: false,
                    pending_others: vec![],
                    trace: vec![],
                },
            ],
            states_explored: 44,
        }
    }

    #[test]
    fn responses_of_every_kind_roundtrip() {
        let replies = vec![
            Ok(Response {
                payload: ResponsePayload::Summary(SummaryOutcome {
                    markings: 18,
                    iterations: 9,
                }),
                degradations: vec![
                    Degradation::ExplicitToSymbolic,
                    Degradation::PartialSynthesis,
                ],
                cached: true,
                retries: 2,
            }),
            Ok(Response {
                payload: ResponsePayload::CscCheck(CscCheckOutcome {
                    markings: 20,
                    conflicts: 2,
                    deadlock_free: true,
                    strongly_connected: false,
                }),
                degradations: vec![],
                cached: false,
                retries: 0,
            }),
            Ok(Response {
                payload: ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                    stg: models::fifo_stg_csc(),
                    inserted: vec!["csc0".into()],
                    cost: 5,
                    truncated: true,
                })),
                degradations: vec![Degradation::PartialSynthesis],
                cached: false,
                retries: 1,
            }),
            Ok(Response {
                payload: ResponsePayload::Verify(failing_report()),
                degradations: vec![Degradation::ExplicitToSymbolic],
                cached: false,
                retries: 0,
            }),
            Ok(Response {
                payload: ResponsePayload::Verify(VerifyReport {
                    failures: vec![],
                    states_explored: 29,
                }),
                degradations: vec![],
                cached: false,
                retries: 0,
            }),
        ];
        for reply in &replies {
            let decoded = roundtrip_reply(reply);
            assert_eq!(format!("{decoded:?}"), format!("{reply:?}"));
        }
    }

    #[test]
    fn retired_degradation_tags_are_rejected() {
        let reply = Ok(Response {
            payload: ResponsePayload::Summary(SummaryOutcome {
                markings: 18,
                iterations: 9,
            }),
            degradations: vec![Degradation::ExplicitToSymbolic],
            cached: false,
            retries: 0,
        });
        let good = encode_reply(&reply);
        // The tag sits after the degradation count, and the cached flag
        // and the retry count (five bytes) follow it.
        let at = good.len() - 6;
        assert_eq!(good[at], 2, "ExplicitToSymbolic keeps tag 2");
        for tag in [0, 1] {
            let mut bad = good.clone();
            bad[at] = tag;
            assert_eq!(
                decode_reply(&bad),
                Err(ProtoError::BadTag {
                    what: "Degradation",
                    tag
                })
            );
        }
    }

    /// The encoder writes the verdict byte from the failure list, and
    /// the decoder refuses a byte that contradicts it, a byte past 1 and
    /// the retired failure tag 2.
    #[test]
    fn verify_reports_carry_a_checked_verdict_byte() {
        let reply = |report: VerifyReport| {
            encode_reply(&Ok(Response {
                payload: ResponsePayload::Verify(report),
                degradations: vec![],
                cached: false,
                retries: 0,
            }))
        };
        // Version, message kind, the `Ok` byte and the payload
        // discriminant come first; the failure count (four bytes) then
        // the first failure's tag follow the verdict byte.
        let verdict_at = 4;
        let failing = reply(failing_report());
        let conforming = reply(VerifyReport {
            failures: vec![],
            states_explored: 29,
        });
        assert_eq!((failing[verdict_at], conforming[verdict_at]), (1, 0));
        let contradict = |bytes: &[u8], verdict: u8| {
            let mut bad = bytes.to_vec();
            bad[verdict_at] = verdict;
            decode_reply(&bad)
        };
        assert_eq!(
            contradict(&failing, 0),
            Err(ProtoError::Inconsistent {
                detail: "verdict byte 0 with 2 failures".into()
            })
        );
        assert_eq!(
            contradict(&conforming, 1),
            Err(ProtoError::Inconsistent {
                detail: "verdict byte 1 with 0 failures".into()
            })
        );
        assert_eq!(
            contradict(&failing, 2),
            Err(ProtoError::BadTag {
                what: "Verdict",
                tag: 2
            })
        );
        let mut retired = failing.clone();
        assert_eq!(retired[verdict_at + 5], 1, "UnexpectedOutput keeps tag 1");
        retired[verdict_at + 5] = 2;
        assert_eq!(
            decode_reply(&retired),
            Err(ProtoError::BadTag {
                what: "Failure",
                tag: 2
            })
        );
    }

    #[test]
    fn retired_stg_error_tag_is_rejected() {
        // The StgError tag is the last byte of a tag-only error, and a
        // string-carrying error puts its string after the same byte, as
        // tag 13 did.
        let at = encode_reply(&Err(ServiceError::Engine(StgError::Cancelled))).len() - 1;
        let mut bad = encode_reply(&Err(ServiceError::Engine(StgError::UnknownSignal(
            "wedged".into(),
        ))));
        assert_eq!(bad[at], 1, "UnknownSignal keeps tag 1");
        bad[at] = 13;
        assert_eq!(
            decode_reply(&bad),
            Err(ProtoError::BadTag {
                what: "StgError",
                tag: 13
            })
        );
    }

    #[test]
    fn malformed_payloads_are_rejected_with_typed_errors() {
        let good = encode_request(&Request::summary(models::fifo_stg()));
        // Wrong version byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::Version { got: 9 })
        ));
        // Wrong message kind.
        let mut bad = good.clone();
        bad[1] = 0x7f;
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::BadTag {
                what: "message kind",
                ..
            })
        ));
        // Unknown request kind.
        let mut bad = good.clone();
        bad[2] = 0xee;
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::BadTag {
                what: "RequestPayload",
                ..
            })
        ));
        // Truncation anywhere in the payload is typed, never a panic.
        for cut in [3, good.len() / 2, good.len() - 1] {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is refused.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::Trailing { extra: 1 })
        ));
        // A reply is not a request.
        let reply = encode_reply(&Err(ServiceError::Disconnected));
        assert!(decode_request(&reply).is_err());
        assert!(decode_reply(&good).is_err());
    }

    #[test]
    fn control_frames_roundtrip_and_are_version_gated() {
        for nonce in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(decode_ping(&encode_ping(nonce)), Ok(nonce));
            assert_eq!(decode_pong(&encode_pong(nonce)), Ok(nonce));
        }
        for id in ["", "tenant-a", "πυθμένας"] {
            assert_eq!(decode_hello(&encode_hello(id)).as_deref(), Ok(id));
        }
        // The three kinds are mutually exclusive.
        assert!(decode_ping(&encode_pong(7)).is_err());
        assert!(decode_pong(&encode_ping(7)).is_err());
        assert!(decode_hello(&encode_ping(7)).is_err());
        assert!(decode_request(&encode_ping(7)).is_err());
        // Version-gated like every other frame.
        let mut bad = encode_ping(7);
        bad[0] = 1;
        assert_eq!(decode_ping(&bad), Err(ProtoError::Version { got: 1 }));
        // Trailing and truncated bytes are typed errors.
        let mut long = encode_hello("x");
        long.push(0);
        assert!(matches!(
            decode_hello(&long),
            Err(ProtoError::Trailing { extra: 1 })
        ));
        let short = encode_ping(7);
        assert_eq!(
            decode_ping(&short[..short.len() - 1]),
            Err(ProtoError::Truncated)
        );
        // `frame_kind` routes without validating.
        assert_eq!(frame_kind(&encode_ping(7)), Some(MSG_PING));
        assert_eq!(frame_kind(&encode_hello("a")), Some(MSG_HELLO));
        assert_eq!(frame_kind(&[]), None);
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing written for a refused frame");
        // A lying header: announces more than the cap.
        let header = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut reader = io::Cursor::new(header.to_vec());
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_roundtrip_and_clean_eof_is_none() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut reader = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut reader).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut reader).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");
        // EOF mid-frame is an error, not a silent None.
        let mut partial = io::Cursor::new(vec![5, 0, 0, 0, b'h', b'i']);
        assert!(read_frame(&mut partial).is_err());
    }
}
