//! The canonical on-wire frame format of the real-socket datapath.
//!
//! Every UDP datagram on a striped channel is one frame (or a
//! [bundle](crate::bundle) of frames). Three versions share the header:
//!
//! | offset | size | field                                                        |
//! |--------|------|--------------------------------------------------------------|
//! | 0      | 1    | magic (`0xC5`)                                               |
//! | 1      | 1    | version: `1` global control, `2` a flow's control, `3` data  |
//! | 2      | 1    | kind (versions 1 and 2: [`KIND_CONTROL`]) or flags (version 3) |
//! | 3      | 1–5  | **versions 2 and 3:** flow id, LEB128 varint (`u32`)         |
//!
//! **Version 3 is the one data frame**, and it states its number:
//!
//! | size | field                                                          |
//! |------|----------------------------------------------------------------|
//! | 2    | round: the low 16 bits of the number's round, little-endian    |
//! | 1–5  | dc: LEB128 varint (`u32`), which a sender may pad              |
//! | …    | the payload, verbatim                                          |
//! | 1    | with [`FLAG_SUMMED`] only: CRC-8 of the number and the payload |
//!
//! Versions 1 and 2 carry control, and only control: exactly the bytes of
//! [`Control::encode`] after the header — global control untagged as
//! version 1 (probes, membership, quantum announces, resets), a flow's
//! markers as version 2. Any other kind is malformed, the kinds earlier
//! rounds gave unnumbered data and padded control (0, 2 and 3) included.
//!
//! The paper's central constraint is that striping never modifies data
//! packets, so all this layer adds to one is its header (the real-network
//! stand-in for the Ethernet type-field codepoint of §5). Control bodies —
//! markers ride as [`Control::Marker`] — are produced through
//! [`Control::encode_into`], so the simulator and the socket path share
//! one encoder and cannot drift.
//!
//! # The number
//!
//! §5 gives every data packet an implicit number `(round, dc)` — what its
//! flow's scheduler holds for the packet's channel just before it serves
//! the packet — and a marker on channel `c` states the number of the next
//! packet its flow sends on `c`. This layer owns a header (§4's "when
//! headers can be added"), so every data frame states its own number: to
//! the receiver it is a marker directly ahead of the payload, and a loss
//! on `c` is healed by the flow's next frame on `c`, not at a marker. A
//! frame is encoded long before the scheduler gets to its packet, so the
//! encoders leave the number blank and [`write_number`] fills it in, in
//! place, when the packet is served.
//!
//! The number is compact. The round is stated modulo 2^16, and the
//! receiver takes the round [nearest](nearest_round) its replica's own
//! that has those bits: a replica only trails its sender by the rounds of
//! what it lost, and the reach of condition C1 already bounds how far a
//! number may lead (see
//! [`LogicalReceiver::bound_marks`](stripe_core::receiver::LogicalReceiver::bound_marks)).
//! An honest `dc` lies in (0, largest quantum] — the bound the receiver
//! clamps a forged one to — so a varint spends bytes on it by the quantum,
//! not by the 64 bits of a marker's field: a sender reserves
//! [`NUMBER_LEN`] bytes, enough for any quantum below 2^14, and
//! [`write_number`] widens the frame for a larger `dc`. Four bytes a
//! frame, and in integrity mode under the checksum: a bit flipped in a
//! number is caught like one flipped in the payload.
//!
//! # Decoding
//!
//! There is one parser, [`parse`] (and [`parse_v1`], the same code
//! refusing flow-tagged frames). It checks magic, version, kind or flags,
//! the varints and the CRC-8 trailer, classifies every reject as
//! [`DecodeError::Malformed`] or [`DecodeError::Corrupt`], and returns a
//! [`Parsed`]: a 16-byte `Copy` value naming the flow, what the body is
//! ([`Body`]), where in the datagram it sits, and how long a number lies
//! ahead of it. It reads the header and builds nothing. The receive path
//! works from that: a data body becomes a view into the receive buffer
//! that holds the number as the frame states it ([`Parsed::number`] reads
//! it), a marker body goes through [`Parsed::marker`], and a [`Control`]
//! is only ever built — by [`Parsed::control`] — for the rare frame that
//! carries one. [`try_decode`], [`try_decode_flow`] and [`decode`] are
//! [`parse`] followed by [`Parsed::frame`], for callers that want the
//! borrowed [`Frame`] enum.

use stripe_core::control::Control;
use stripe_core::sched::ChannelMark;
use stripe_core::Marker;

/// First byte of every frame; chosen to collide with neither the marker
/// magic (`0x53`) nor common text, so misdirected traffic fails loudly.
pub const FRAME_MAGIC: u8 = 0xC5;

/// The untagged control version: the control message follows the 3-byte
/// header directly, and the frame names no flow ([`parse`] maps it to
/// flow 0).
pub const FRAME_VERSION: u8 = 1;

/// The flow-tagged control version: a LEB128 varint flow id sits between
/// the 3-byte header and the control message — a version-1 frame with a
/// flow id.
pub const FRAME_VERSION_FLOW: u8 = 2;

/// The data version: byte 2 holds flags, the flow id follows as in
/// version 2, then the frame's number, then the payload (see the module
/// docs).
pub const FRAME_VERSION_NUMBERED: u8 = 3;

/// Version-3 flag: a CRC-8 of the number and the payload trails the
/// frame. No other flag is defined; a frame with one set is malformed.
pub const FLAG_SUMMED: u8 = 1;

/// Longest LEB128 encoding of a `u32` — a flow id or a number's `dc`.
pub const MAX_FLOW_ID_LEN: usize = 5;

/// Bytes a sender reserves for a number: two of round and two of `dc`,
/// which hold any `dc` below 2^14.
pub const NUMBER_LEN: usize = 4;

/// Longest number: two bytes of round and the longest `dc`.
pub const NUMBER_MAX_LEN: usize = 2 + MAX_FLOW_ID_LEN;

/// The one frame kind of versions 1 and 2: a control message (markers
/// included).
pub const KIND_CONTROL: u8 = 1;

/// Bytes of header preceding the body.
pub const FRAME_HEADER_LEN: usize = 3;

/// Trailer bytes of a checksummed frame (the CRC-8).
pub const SUM_TRAILER_LEN: usize = 1;

/// CRC-8, polynomial 0x07 (ATM HEC) — catches every single-bit flip and
/// all burst errors up to 8 bits, which is exactly the corruption model
/// the chaos layer injects. Table built at compile time; one lookup per
/// byte.
const CRC8_TABLE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-8/0x07 over `bytes` (the checksum trailer's value).
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc = CRC8_TABLE[(crc ^ b) as usize];
    }
    crc
}

/// One decoded frame. Data borrows straight out of the receive buffer —
/// the payload is never copied by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// An application data packet (payload bytes, unmodified).
    Data(&'a [u8]),
    /// A control message: marker, probe and its ack, desync alert, or one
    /// half of an epoch'd handshake (reset, membership, quantum announce).
    Control(Control),
}

/// Write `v` as a LEB128 varint filling `out`, padded with continuation
/// bytes if it needs fewer (`v` must fit).
fn put_varint(v: u32, out: &mut [u8]) {
    let last = out.len() - 1;
    for (i, b) in out.iter_mut().enumerate() {
        *b = (v >> (7 * i)) as u8 & 0x7F | if i < last { 0x80 } else { 0 };
    }
}

/// Append `v` as a LEB128 varint of exactly `width` bytes.
fn push_varint(v: u32, width: usize, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + width, 0);
    put_varint(v, &mut out[at..]);
}

/// Append a flow-tagged header (`version`, kind or flags, the varint flow
/// id) to `out`.
fn push_flow_header(version: u8, kind: u8, flow: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&[FRAME_MAGIC, version, kind]);
    push_varint(flow, flow_id_len(flow), out);
}

/// Encoded length of a `u32` as a canonical LEB128 varint (a flow id, a
/// number's `dc`).
pub fn flow_id_len(flow: u32) -> usize {
    match flow {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Parse a LEB128 `u32` (a flow id, a number's `dc`) from the start of
/// `body`; returns the value and the number of bytes it occupied. `None`
/// on truncation, a varint longer than [`MAX_FLOW_ID_LEN`], or a fifth
/// byte with bits a `u32` cannot hold. Padded (non-canonical) encodings
/// are accepted.
fn take_varint(body: &[u8]) -> Option<(u32, usize)> {
    let mut v: u32 = 0;
    for (i, &b) in body.iter().enumerate().take(MAX_FLOW_ID_LEN) {
        v |= ((b & 0x7F) as u32) << (7 * i);
        if b & 0x80 == 0 {
            // The fifth byte may only carry the top 4 bits of a u32.
            return (i < MAX_FLOW_ID_LEN - 1 || b < 0x10).then_some((v, i + 1));
        }
    }
    None
}

/// Encode a control frame into `out` (cleared first, capacity kept). The
/// body is produced by [`Control::encode_into`] — the single shared
/// control encoder.
pub fn encode_control_into(ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL]);
    ctl.encode_into(out);
}

/// Encode a numbered data frame (version 3) into `out` (cleared first,
/// capacity kept), its number blank — round 0, `dc` 0 in the
/// [`NUMBER_LEN`] bytes a sender reserves — and, when `summed`, its
/// trailer too: [`write_number`] fills both in.
#[inline]
pub(crate) fn encode_numbered_into(flow: u32, summed: bool, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let flags = if summed { FLAG_SUMMED } else { 0 };
    push_flow_header(FRAME_VERSION_NUMBERED, flags, flow, out);
    out.extend_from_slice(&[0, 0, 0x80, 0]); // round 0, a DC of 0 padded to two bytes
    out.extend_from_slice(payload);
    if summed {
        out.push(0);
    }
}

/// Encode a data frame of flow `flow` into `out` (cleared first,
/// capacity kept): version 3, its number blank until [`write_number`]
/// fills it in — a frame is encoded before its packet is scheduled, and
/// the steady-state path encodes every frame into a recycled buffer.
pub fn encode_data_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    encode_numbered_into(flow, false, payload, out);
}

/// [`encode_data_flow_into`] with a CRC-8 trailer ([`FLAG_SUMMED`]) over
/// the number and the payload, computed here for the blank number and
/// again by [`write_number`]. §5 assumes corruption is detectable; on
/// real channels UDP's 16-bit checksum is optional and weak, so paths
/// that face bit errors (and every chaos soak) opt into it: one table
/// lookup per byte, paid only by them.
pub fn encode_data_summed_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    encode_numbered_into(flow, true, payload, out);
    let end = out.len() - SUM_TRAILER_LEN;
    let at = FRAME_HEADER_LEN + flow_id_len(flow);
    out[end] = crc8(&out[at..end]);
}

/// State `number` in the numbered data frame `frame`, in place: the
/// round's low 16 bits and the `dc` padded to the width the field has —
/// widened, moving the payload, if it needs more (a quantum of 2^14 or
/// more) — and the checksum recomputed if the frame has one. A `dc` no
/// `u32` holds is stated clamped into one (no honest scheduler states
/// one). Returns `false`, touching nothing, if `frame` is no numbered
/// data frame: it reads the header and the varints to know.
pub fn write_number(frame: &mut Vec<u8>, number: ChannelMark) -> bool {
    if frame.len() < FRAME_HEADER_LEN
        || frame[..2] != [FRAME_MAGIC, FRAME_VERSION_NUMBERED]
        || frame[2] & !FLAG_SUMMED != 0
    {
        return false;
    }
    let Some((_, id_len)) = take_varint(&frame[FRAME_HEADER_LEN..]) else {
        return false;
    };
    let at = FRAME_HEADER_LEN + id_len;
    let Some((_, width)) = frame.get(at + 2..).and_then(take_varint) else {
        return false;
    };
    let summed = frame[2] & FLAG_SUMMED != 0;
    put_number(frame, at, width, summed, number);
    true
}

/// [`write_number`] for a frame [`encode_numbered_into`] made for `flow`
/// (and `summed`), whose number is still as wide as a sender reserves:
/// the send path's way, which knows the frame and so reads none of it —
/// in the common case it only stores.
pub(crate) fn state_number(frame: &mut Vec<u8>, flow: u32, summed: bool, number: ChannelMark) {
    let at = FRAME_HEADER_LEN + flow_id_len(flow);
    put_number(frame, at, NUMBER_LEN - 2, summed, number);
}

/// State `number` in the number field at `at`, whose `dc` is `width`
/// bytes wide, and the checksum if the frame is `summed` (see
/// [`write_number`]).
#[inline]
fn put_number(frame: &mut Vec<u8>, at: usize, width: usize, summed: bool, number: ChannelMark) {
    let dc = number.dc.clamp(0, u32::MAX as i64) as u32;
    let [r0, r1] = (number.round as u16).to_le_bytes();
    if width == 2 && dc < 1 << 14 {
        // Every honest dc below a quantum of 2^14: four fixed stores.
        frame[at..at + 4].copy_from_slice(&[r0, r1, dc as u8 | 0x80, (dc >> 7) as u8]);
    } else {
        put_wide_number(frame, at, width, [r0, r1], dc);
    }
    if summed {
        let end = frame.len() - SUM_TRAILER_LEN;
        frame[end] = crc8(&frame[at..end]);
    }
}

/// The rest of [`put_number`]: a field of another width, widened in
/// place if `dc` needs more. Out of line, so that the send path inlines
/// the four stores and not this.
#[cold]
fn put_wide_number(frame: &mut Vec<u8>, at: usize, width: usize, round: [u8; 2], dc: u32) {
    let need = flow_id_len(dc);
    if need > width {
        frame.splice(at + 2..at + 2, std::iter::repeat_n(0, need - width));
    }
    frame[at..at + 2].copy_from_slice(&round);
    put_varint(dc, &mut frame[at + 2..at + 2 + width.max(need)]);
}

/// The round with low 16 bits `low` nearest `near`: the receiver's reading
/// of a number's round, `near` being its replica's own: up to 2^15 − 1
/// rounds ahead, up to 2^15 behind, never below round 0.
pub fn nearest_round(low: u16, near: u64) -> u64 {
    near.saturating_add_signed(low.wrapping_sub(near as u16) as i16 as i64)
}

/// A number as a frame states it: its round's low 16 bits and its `dc`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Stated {
    pub(crate) round: u16,
    pub(crate) dc: u32,
}

impl Stated {
    /// The number stated, its round the one nearest `near`
    /// ([`nearest_round`]).
    #[inline]
    pub(crate) fn near(self, near: u64) -> ChannelMark {
        ChannelMark {
            round: nearest_round(self.round, near),
            dc: self.dc as i64,
        }
    }
}

/// Encode a flow-tagged control frame (version 2) into `out`.
pub fn encode_control_flow_into(flow: u32, ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(FRAME_VERSION_FLOW, KIND_CONTROL, flow, out);
    ctl.encode_into(out);
}

/// On-wire length of a data frame of flow `flow` whose number fits the
/// [`NUMBER_LEN`] bytes a sender reserves (every `dc` below 2^14).
pub fn data_flow_frame_len(flow: u32, payload_len: usize) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + NUMBER_LEN + payload_len
}

/// On-wire length of a flow-tagged control frame.
pub fn control_flow_frame_len(flow: u32, ctl: &Control) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + ctl.wire_len()
}

/// Whether `frame` is headed as a data frame (version 3) — the peek the
/// fault layer uses to drop data while letting markers and control
/// through.
pub fn is_data_frame(frame: &[u8]) -> bool {
    frame.len() >= FRAME_HEADER_LEN && frame[..2] == [FRAME_MAGIC, FRAME_VERSION_NUMBERED]
}

/// Why a frame failed to decode — the distinction drives separate
/// receiver counters, so a soak can assert "zero corrupted payloads
/// delivered *and* every injected flip was caught".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Structurally broken: short, bad magic/version, unknown kind or
    /// flag, a varint cut short or too long, an undecodable control body,
    /// a number cut short.
    Malformed,
    /// Structurally fine but the CRC-8 trailer disagrees with what it
    /// covers: bits were flipped in flight.
    Corrupt,
}

/// What a [`Parsed`] frame's body holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Application payload (a CRC-8 trailer has been verified and is not
    /// part of the body, nor is a number: [`Parsed::number`] reads it).
    Data,
    /// An encoded [`Marker`] (a control message of the marker type, its
    /// type byte not part of the body): the one control message on the
    /// per-packet path, so it is told apart here.
    Marker,
    /// Any other encoded [`Control`] message.
    Control,
}

/// A frame that passed every header check: whose it is, what its body
/// holds, and where in the datagram the body sits. Nothing is decoded or
/// borrowed, so a receive loop carries this instead of a [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parsed {
    /// Body length in bytes.
    pub len: usize,
    /// The flow named by a flow-tagged frame; 0 for version 1.
    pub flow: u32,
    /// Where the body starts in the datagram: at most header, varint, and
    /// the number or a control type byte.
    pub offset: u8,
    /// What the body holds.
    pub body: Body,
    /// Bytes of number directly ahead of the body: 0 but for a data
    /// frame.
    pub number_len: u8,
}

impl Parsed {
    /// The body bytes within `frame`, which must be the datagram this
    /// was parsed from.
    pub fn body<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        &frame[self.offset as usize..self.offset as usize + self.len]
    }

    /// The number a data frame states, its round the one nearest `near`
    /// ([`nearest_round`]); `None` for a control frame, which has none.
    pub fn number(&self, frame: &[u8], near: u64) -> Option<ChannelMark> {
        (self.body == Body::Data).then(|| self.stated(frame).near(near))
    }

    /// The number a [`Body::Data`] frame states, as it states it. The
    /// parser checked the field.
    #[inline]
    pub(crate) fn stated(&self, frame: &[u8]) -> Stated {
        let at = self.offset as usize;
        let (round, dc) = frame[at - self.number_len as usize..at].split_at(2);
        let dc = match *dc {
            // The width every sender reserves, read without a loop.
            [lo, hi] => (lo & 0x7F) as u32 | (hi as u32) << 7,
            _ => dc.iter().rev().fold(0, |v, &b| v << 7 | (b & 0x7F) as u32),
        };
        let round = u16::from_le_bytes([round[0], round[1]]);
        Stated { round, dc }
    }

    /// Decode a [`Body::Marker`] body. A short or bad-magic marker is
    /// [`DecodeError::Malformed`].
    pub fn marker(&self, frame: &[u8]) -> Result<Marker, DecodeError> {
        debug_assert_eq!(self.body, Body::Marker);
        Marker::decode(self.body(frame)).ok_or(DecodeError::Malformed)
    }

    /// Decode a [`Body::Control`] or [`Body::Marker`] body into the
    /// [`Control`] it encodes; undecodable is [`DecodeError::Malformed`].
    pub fn control(&self, frame: &[u8]) -> Result<Control, DecodeError> {
        match self.body {
            Body::Marker => self.marker(frame).map(Control::Marker),
            _ => Control::decode(self.body(frame)).ok_or(DecodeError::Malformed),
        }
    }

    /// The borrowed [`Frame`] this describes (a number is not part of
    /// it).
    pub fn frame<'a>(&self, frame: &'a [u8]) -> Result<Frame<'a>, DecodeError> {
        match self.body {
            Body::Data => Ok(Frame::Data(self.body(frame))),
            _ => self.control(frame).map(Frame::Control),
        }
    }
}

/// Where the body of a checksummed frame whose body starts at `body`
/// ends: before the CRC-8 trailer, which must match `frame[covered..]`
/// up to it.
fn check_trailer(frame: &[u8], covered: usize, body: usize) -> Result<usize, DecodeError> {
    if frame.len() == body {
        return Err(DecodeError::Malformed); // no room for the trailer
    }
    let end = frame.len() - SUM_TRAILER_LEN;
    match crc8(&frame[covered..end]) == frame[end] {
        true => Ok(end),
        false => Err(DecodeError::Corrupt),
    }
}

/// The parser behind [`parse`] and [`parse_v1`].
#[inline(always)]
fn parse_versions(frame: &[u8], flow_tagged_ok: bool) -> Result<Parsed, DecodeError> {
    use DecodeError::Malformed;
    if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC {
        return Err(Malformed);
    }
    let (flow, mut at) = match frame[1] {
        FRAME_VERSION => (0, FRAME_HEADER_LEN),
        FRAME_VERSION_FLOW | FRAME_VERSION_NUMBERED if flow_tagged_ok => {
            let (flow, used) = take_varint(&frame[FRAME_HEADER_LEN..]).ok_or(Malformed)?;
            (flow, FRAME_HEADER_LEN + used)
        }
        _ => return Err(Malformed),
    };
    let end = frame.len();
    if frame[1] == FRAME_VERSION_NUMBERED {
        let number = at;
        let dc = frame.get(at + 2..).and_then(take_varint).ok_or(Malformed)?;
        at += 2 + dc.1;
        let end = match frame[2] {
            0 => end,
            // The trailer covers the number as well as the payload.
            FLAG_SUMMED => check_trailer(frame, number, at)?,
            _ => return Err(Malformed),
        };
        return Ok(Parsed {
            len: end - at,
            flow,
            offset: at as u8,
            body: Body::Data,
            number_len: (at - number) as u8,
        });
    }
    if frame[2] != KIND_CONTROL {
        return Err(Malformed);
    }
    let body = match Control::marker_body(&frame[at..]) {
        Some(marker) => {
            at = end - marker.len();
            Body::Marker
        }
        None => Body::Control,
    };
    Ok(Parsed {
        len: end - at,
        flow,
        offset: at as u8,
        body,
        number_len: 0,
    })
}

/// Parse one received frame of any version — the receive path of a
/// multi-flow demultiplexer, which hears global control untagged and a
/// flow's frames tagged. Never panics, whatever the input.
#[inline]
pub fn parse(frame: &[u8]) -> Result<Parsed, DecodeError> {
    parse_versions(frame, true)
}

/// Parse one received version-1 frame — global control, as the reverse
/// path carries it; a flow-tagged frame is [`DecodeError::Malformed`].
#[inline]
pub fn parse_v1(frame: &[u8]) -> Result<Parsed, DecodeError> {
    parse_versions(frame, false)
}

/// Decode one received frame, reporting *why* rejects were rejected.
/// Never panics, whatever the input — see the fuzz proptest in
/// `tests/net_loopback.rs`.
///
/// Version-1 only ([`parse_v1`]), so control only. Endpoints that speak
/// every version use [`try_decode_flow`].
pub fn try_decode(frame: &[u8]) -> Result<Frame<'_>, DecodeError> {
    parse_v1(frame)?.frame(frame)
}

/// Decode one received frame of any version ([`parse`]), returning the
/// flow it belongs to: a flow-tagged frame's varint flow id, or flow 0
/// for an untagged version-1 control frame.
pub fn try_decode_flow(frame: &[u8]) -> Result<(u32, Frame<'_>), DecodeError> {
    let p = parse(frame)?;
    Ok((p.flow, p.frame(frame)?))
}

/// Decode one received frame. `None` on anything malformed or corrupt;
/// the caller drops it like any corrupt packet (§5 assumes detectable
/// corruption). Callers that need the reason use [`try_decode`].
pub fn decode(frame: &[u8]) -> Option<Frame<'_>> {
    try_decode(frame).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data frame of flow `flow` stating `number`.
    fn numbered(flow: u32, summed: bool, payload: &[u8], number: ChannelMark) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_numbered_into(flow, summed, payload, &mut buf);
        assert!(write_number(&mut buf, number));
        buf
    }

    #[test]
    fn empty_data_frame_is_legal() {
        let mut buf = Vec::new();
        encode_data_flow_into(3, &[], &mut buf);
        assert_eq!(try_decode_flow(&buf), Ok((3, Frame::Data(&[][..]))));
    }

    #[test]
    fn control_roundtrips_every_variant() {
        for ctl in [
            Control::Marker(Marker::sync(3, ChannelMark { round: 99, dc: -5 })),
            Control::ResetRequest { epoch: 7 },
            Control::ResetAck { epoch: 7 },
            Control::QuantumAnnounce {
                epoch: 3,
                effective_round: 1 << 33,
                quanta: vec![1500, 4500],
            },
            Control::Probe { nonce: 0xDEAD },
            Control::ProbeAck {
                nonce: 0xDEAD,
                incarnation: 0xFEED_FACE,
            },
            Control::DesyncAlert {
                incarnation: 0xFEED_FACE,
            },
            Control::Membership {
                epoch: 2,
                live_mask: 0b101,
                effective_round: 64,
            },
            Control::MembershipAck { epoch: 2 },
        ] {
            let mut buf = Vec::new();
            encode_control_into(&ctl, &mut buf);
            assert_eq!(buf.len(), FRAME_HEADER_LEN + ctl.wire_len(), "{ctl:?}");
            assert_eq!(decode(&buf), Some(Frame::Control(ctl.clone())), "{ctl:?}");
        }
    }

    #[test]
    fn control_body_is_exactly_the_shared_encoder_bytes() {
        let ctl = Control::Probe { nonce: 42 };
        let mut buf = Vec::new();
        encode_control_into(&ctl, &mut buf);
        assert_eq!(&buf[FRAME_HEADER_LEN..], &ctl.encode()[..]);
    }

    #[test]
    fn encode_into_clears_previous_contents() {
        let mut buf = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        encode_data_flow_into(1, &[9], &mut buf);
        let blank = [0, 0, 0x80, 0];
        let want = [
            &[FRAME_MAGIC, FRAME_VERSION_NUMBERED, 0, 1][..],
            &blank,
            &[9],
        ]
        .concat();
        assert_eq!(buf, want);
    }

    #[test]
    fn malformed_frames_rejected() {
        // Short, bad magic, bad version, unknown kind, bad control body.
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION]), None);
        assert_eq!(decode(&[0x00, FRAME_VERSION, KIND_CONTROL, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, 99, KIND_CONTROL, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION, 7, 1]), None);
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL, 99]),
            None
        );
        // Versions 1 and 2 carry control only: every other kind — the
        // retired unnumbered data (0, 3), padded control (2), empty-field
        // (4) and marked (5) kinds among them — is unknown, whatever
        // follows.
        let probe = Control::Probe { nonce: 7 }.encode();
        for version in [FRAME_VERSION, FRAME_VERSION_FLOW] {
            for kind in (0..=u8::MAX).filter(|&k| k != KIND_CONTROL) {
                let mut buf = vec![FRAME_MAGIC, version, kind, 1];
                buf.extend_from_slice(&probe);
                assert_eq!(parse(&buf), Err(DecodeError::Malformed), "{buf:02x?}");
            }
        }
    }

    #[test]
    fn is_data_frame_peeks_the_version() {
        for (flow, payload) in [(0, &[][..]), (12, &[1, 2]), (u32::MAX, &[3; 40])] {
            let mut data = Vec::new();
            encode_data_flow_into(flow, payload, &mut data);
            assert!(is_data_frame(&data));
            encode_data_summed_flow_into(flow, payload, &mut data);
            assert!(is_data_frame(&data));
        }
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 1 }, &mut ctl);
        assert!(!is_data_frame(&ctl));
        encode_control_flow_into(12, &Control::Probe { nonce: 1 }, &mut ctl);
        assert!(!is_data_frame(&ctl));
        // What earlier rounds sent as data is no data frame now.
        assert!(!is_data_frame(&[FRAME_MAGIC, FRAME_VERSION, 0, 1]));
        assert!(!is_data_frame(&[FRAME_MAGIC, FRAME_VERSION_FLOW, 3, 12, 1]));
        assert!(!is_data_frame(&[FRAME_MAGIC, FRAME_VERSION_NUMBERED]));
    }

    /// In integrity mode the number is under the checksum: a bit flipped
    /// in it is caught like one flipped in the payload.
    #[test]
    fn a_summed_frame_catches_every_flip_in_its_number_and_payload() {
        let payload: Vec<u8> = (0..40).collect();
        let clean = numbered(
            9,
            true,
            &payload,
            ChannelMark {
                round: 70_000,
                dc: 1500,
            },
        );
        let from = FRAME_HEADER_LEN + 1;
        for byte in from..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                assert!(parse(&buf).is_err(), "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn summed_data_without_trailer_is_malformed_not_corrupt() {
        // A number with no room after it for the CRC byte.
        let bare = [FRAME_MAGIC, FRAME_VERSION_NUMBERED, FLAG_SUMMED, 1, 0, 0, 0];
        assert_eq!(parse(&bare), Err(DecodeError::Malformed));
    }

    #[test]
    fn try_decode_classifies_malformed_vs_corrupt() {
        assert_eq!(try_decode_flow(&[]), Err(DecodeError::Malformed));
        assert_eq!(
            try_decode_flow(&[0x00, FRAME_VERSION, KIND_CONTROL, 1]),
            Err(DecodeError::Malformed)
        );
        assert_eq!(
            try_decode_flow(&[FRAME_MAGIC, FRAME_VERSION, 9, 1]),
            Err(DecodeError::Malformed)
        );
        let mut buf = Vec::new();
        encode_data_summed_flow_into(0, &[1, 2, 3], &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert_eq!(try_decode_flow(&buf), Err(DecodeError::Corrupt));
        // decode() is version 1 only, and folds every reject into None.
        assert_eq!(decode(&buf), None);
    }

    #[test]
    fn flow_data_roundtrips_zero_copy_at_varint_boundaries() {
        let payload = [1u8, 2, 3, 4, 5];
        for flow in [0u32, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1F_FFFF, u32::MAX] {
            let mut buf = Vec::new();
            encode_data_flow_into(flow, &payload, &mut buf);
            assert_eq!(buf.len(), data_flow_frame_len(flow, payload.len()));
            match try_decode_flow(&buf) {
                Ok((f, Frame::Data(body))) => {
                    assert_eq!(f, flow);
                    assert_eq!(body, &payload);
                    // Zero-copy: the body aliases the frame buffer.
                    let off = buf.len() - payload.len();
                    assert!(std::ptr::eq(body.as_ptr(), buf[off..].as_ptr()));
                }
                other => panic!("flow {flow}: {other:?}"),
            }
            // A v1-only decoder must reject flow-tagged frames outright.
            assert_eq!(try_decode(&buf), Err(DecodeError::Malformed));
        }
    }

    #[test]
    fn flow_summed_data_roundtrips_and_catches_flips() {
        let payload: Vec<u8> = (0..40).collect();
        let mut buf = Vec::new();
        encode_data_summed_flow_into(9000, &payload, &mut buf);
        assert_eq!(
            buf.len(),
            data_flow_frame_len(9000, payload.len()) + SUM_TRAILER_LEN
        );
        assert_eq!(try_decode_flow(&buf), Ok((9000, Frame::Data(&payload[..]))));
        let Ok((_, Frame::Data(body))) = try_decode_flow(&buf) else {
            unreachable!("just decoded");
        };
        let off = body.as_ptr() as usize - buf.as_ptr() as usize;
        let mut evil = buf.clone();
        evil[off + 3] ^= 0x04;
        assert_eq!(try_decode_flow(&evil), Err(DecodeError::Corrupt));
    }

    #[test]
    fn flow_control_roundtrips() {
        let ctl = Control::Marker(Marker::sync(2, ChannelMark { round: 7, dc: -1 }));
        let mut buf = Vec::new();
        encode_control_flow_into(777, &ctl, &mut buf);
        assert_eq!(buf.len(), control_flow_frame_len(777, &ctl));
        assert_eq!(
            try_decode_flow(&buf),
            Ok((777, Frame::Control(ctl.clone())))
        );
        assert!(!is_data_frame(&buf));
    }

    #[test]
    fn try_decode_flow_reads_untagged_control_as_flow_zero() {
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 3 }, &mut ctl);
        assert_eq!(
            try_decode_flow(&ctl),
            Ok((0, Frame::Control(Control::Probe { nonce: 3 })))
        );
    }

    #[test]
    fn flow_id_encoding_is_canonical_leb128() {
        for flow in [0u32, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX] {
            let mut buf = Vec::new();
            encode_data_flow_into(flow, &[], &mut buf);
            let id_len = buf.len() - FRAME_HEADER_LEN - NUMBER_LEN;
            assert_eq!(id_len, flow_id_len(flow), "{flow}");
        }
    }

    #[test]
    fn truncated_or_overlong_flow_id_is_malformed() {
        for version in [FRAME_VERSION_FLOW, FRAME_VERSION_NUMBERED] {
            // Header promising a varint that never terminates.
            let truncated = [FRAME_MAGIC, version, KIND_CONTROL, 0x80];
            assert_eq!(try_decode_flow(&truncated), Err(DecodeError::Malformed));
            // Six continuation bytes: longer than any u32 varint.
            let overlong = [FRAME_MAGIC, version, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
            assert_eq!(try_decode_flow(&overlong), Err(DecodeError::Malformed));
            // Fifth byte carrying bits a u32 cannot hold.
            let overflow = [FRAME_MAGIC, version, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
            assert_eq!(try_decode_flow(&overflow), Err(DecodeError::Malformed));
        }
        // Unknown version for both decoders.
        assert_eq!(
            try_decode_flow(&[FRAME_MAGIC, 4, KIND_CONTROL, 1]),
            Err(DecodeError::Malformed)
        );
    }

    /// A frame is encoded with a blank number, which `write_number` fills
    /// in place at the reserved width — widening the frame only for a
    /// `dc` that needs more — and the parser reads it back, its round
    /// resolved near the reader's, at every varint width of the flow id.
    #[test]
    fn a_number_is_written_in_place_and_read_back_near_the_replica() {
        let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for flow in [0u32, 0x7F, 0x80, 0x4000, u32::MAX] {
            for (dc, grows) in [
                (1, 0),
                (127, 0),
                (1500, 0),
                (16_383, 0),
                (16_384, 1),
                (1 << 28, 3),
            ] {
                let mut buf = Vec::new();
                encode_data_flow_into(flow, &payload, &mut buf);
                let len = data_flow_frame_len(flow, payload.len());
                assert_eq!(buf.len(), len);
                let number = ChannelMark {
                    round: 0x0102_0304_0506_0708,
                    dc,
                };
                assert!(write_number(&mut buf, number));
                assert_eq!((buf.len(), buf[1]), (len + grows, FRAME_VERSION_NUMBERED));
                let p = parse(&buf).unwrap();
                let at = FRAME_HEADER_LEN + flow_id_len(flow) + NUMBER_LEN + grows;
                assert_eq!(
                    (
                        p.flow,
                        p.body,
                        p.offset as usize,
                        p.len,
                        p.number_len as usize
                    ),
                    (flow, Body::Data, at, payload.len(), NUMBER_LEN + grows)
                );
                for near in [number.round, number.round - 30_000, number.round + 30_000] {
                    assert_eq!(p.number(&buf, near), Some(number), "read near {near}");
                }
                assert_eq!(p.body(&buf), &payload[..]);
                assert_eq!(try_decode_flow(&buf), Ok((flow, Frame::Data(&payload[..]))));
                // Written again, in place: the field keeps its width.
                assert!(write_number(&mut buf, ChannelMark { round: 9, dc: 2 }));
                assert_eq!(buf.len(), len + grows);
                let p = parse(&buf).unwrap();
                assert_eq!(p.number(&buf, 9), Some(ChannelMark { round: 9, dc: 2 }));
                // A version-1 decoder refuses it like any flow-tagged frame.
                assert_eq!(try_decode(&buf), Err(DecodeError::Malformed));
            }
        }
        // A dc no u32 holds is stated clamped into one.
        let mut buf = numbered(5, false, &[1], ChannelMark { round: 1, dc: -3 });
        assert_eq!(parse(&buf).unwrap().number(&buf, 1).unwrap().dc, 0);
        assert!(write_number(
            &mut buf,
            ChannelMark {
                round: 1,
                dc: i64::MAX
            }
        ));
        let m = parse(&buf).unwrap().number(&buf, 1).unwrap();
        assert_eq!(m.dc, u32::MAX as i64);
    }

    /// `write_number` touches only a numbered data frame whose number is
    /// all there.
    #[test]
    fn write_number_refuses_every_other_frame() {
        let mark = ChannelMark { round: 7, dc: 7 };
        let v1 = [&[FRAME_MAGIC, FRAME_VERSION, 0][..], &[1; 300]].concat();
        let v2 = [&[FRAME_MAGIC, FRAME_VERSION_FLOW, 0, 3][..], &[1; 300]].concat();
        let mut ctl = Vec::new();
        encode_control_flow_into(3, &Control::Probe { nonce: 1 }, &mut ctl);
        let flagged = vec![FRAME_MAGIC, FRAME_VERSION_NUMBERED, 2, 3, 0, 0, 0x80, 0];
        let short = vec![FRAME_MAGIC, FRAME_VERSION_NUMBERED, 0, 3, 0, 0, 0x80];
        let unterminated = vec![FRAME_MAGIC, FRAME_VERSION_NUMBERED, 0, 0x80];
        for frame in [v1, v2, ctl, flagged, short, unterminated, vec![]] {
            let mut buf = frame.clone();
            assert!(!write_number(&mut buf, mark), "{frame:02x?}");
            assert_eq!(buf, frame, "refused yet written");
        }
    }

    /// The number is all or nothing: cut anywhere short of its end, the
    /// frame is malformed; complete with an empty payload, it is a frame.
    #[test]
    fn a_number_cut_short_is_malformed() {
        let whole = numbered(5, false, &[], ChannelMark { round: 3, dc: 1500 });
        let body_at = FRAME_HEADER_LEN + 1 + NUMBER_LEN;
        assert_eq!(whole.len(), body_at);
        for cut in FRAME_HEADER_LEN..body_at {
            assert_eq!(
                parse(&whole[..cut]),
                Err(DecodeError::Malformed),
                "cut at {cut}"
            );
        }
        assert_eq!(try_decode_flow(&whole), Ok((5, Frame::Data(&[][..]))));
    }

    /// The receiver's reading of a 16-bit round: the nearest round with
    /// those bits, behind on a tie, never below 0.
    #[test]
    fn a_round_resolves_to_the_nearest_with_its_bits() {
        let near = 5 << 16 | 100;
        for (offset, want) in [
            (0u16, near),
            (1, near + 1),
            (0x7FFF, near + 0x7FFF),
            (0x8000, near - 0x8000),
            (0xFFFF, near - 1),
        ] {
            let low = (near as u16).wrapping_add(offset);
            assert_eq!(nearest_round(low, near), want, "offset {offset}");
        }
        assert_eq!(nearest_round(0xFFFF, 1), 0, "below round 0");
        assert_eq!(nearest_round(5, u64::MAX - 2), u64::MAX, "above the top");
    }

    /// The parser's whole output fits two registers, error case included:
    /// that is what lets a receive loop carry it instead of a `Frame`.
    #[test]
    fn parsed_is_two_words() {
        assert_eq!(std::mem::size_of::<Parsed>(), 16);
        assert_eq!(std::mem::size_of::<Result<Parsed, DecodeError>>(), 16);
    }

    /// `parse` names the flow, classifies the body and locates it — past
    /// the varint, the number and a marker's type byte, short of the CRC
    /// trailer — without decoding it.
    #[test]
    fn parse_locates_every_kind_of_body() {
        let mk = Marker::sync(2, ChannelMark { round: 7, dc: -1 });
        let probe = Control::Probe { nonce: 9 };
        let mut buf = Vec::new();

        encode_data_flow_into(300, &[1, 2, 3], &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset, p.len), (300, Body::Data, 9, 3));
        assert_eq!(p.body(&buf), &[1, 2, 3]);

        encode_data_summed_flow_into(0, &[4, 5], &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset, p.len), (0, Body::Data, 8, 2));
        assert_eq!(p.number(&buf, 0), Some(ChannelMark { round: 0, dc: 0 }));

        encode_control_flow_into(5, &Control::Marker(mk), &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset), (5, Body::Marker, 5));
        assert_eq!(p.marker(&buf), Ok(mk));
        assert_eq!(p.control(&buf), Ok(Control::Marker(mk)));
        assert_eq!(p.number(&buf, 0), None);

        encode_control_flow_into(5, &probe, &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.body, p.offset, p.len), (Body::Control, 4, 9));
        assert_eq!(p.control(&buf), Ok(probe.clone()));
        assert_eq!(p.frame(&buf), Ok(Frame::Control(probe)));
    }

    /// `parse_v1` is `parse` refusing flow tags: the version is judged
    /// before anything behind it, so a flow-tagged frame is malformed
    /// even where `parse` would call it corrupt.
    #[test]
    fn parse_v1_refuses_flow_tagged_frames_before_reading_them() {
        let mut buf = Vec::new();
        encode_data_summed_flow_into(1, &[1, 2, 3], &mut buf);
        assert!(parse(&buf).is_ok() && parse_v1(&buf) == Err(DecodeError::Malformed));
        *buf.last_mut().unwrap() ^= 1;
        assert_eq!(parse(&buf), Err(DecodeError::Corrupt));
        assert_eq!(parse_v1(&buf), Err(DecodeError::Malformed));
        encode_control_into(&Control::Probe { nonce: 1 }, &mut buf);
        assert_eq!(parse_v1(&buf), parse(&buf));
    }

    #[test]
    fn crc8_known_vector() {
        // CRC-8/SMBUS ("123456789") = 0xF4 for poly 0x07, init 0.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0);
    }
}
