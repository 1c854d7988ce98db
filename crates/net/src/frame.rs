//! The canonical on-wire frame format of the real-socket datapath.
//!
//! Every UDP datagram on a striped channel is exactly one frame. There
//! are two versions, differing only in whether a flow id is present:
//!
//! | offset | size | field                                              |
//! |--------|------|----------------------------------------------------|
//! | 0      | 1    | magic (`0xC5`)                                     |
//! | 1      | 1    | version: `1` = single flow, `2` = flow-tagged      |
//! | 2      | 1    | kind, see below                                    |
//! | 3      | 1–5  | **version 2 only:** flow id, LEB128 varint (`u32`) |
//! | 3 / 4–8| …    | body                                               |
//!
//! A version-1 frame is a version-2 frame with the flow id elided; it
//! belongs to flow 0. Global control (probes, membership, quantum
//! announces, resets) always travels as version 1; everything a flow
//! sends — data and its markers — as version 2.
//!
//! | kind | name                    | body                                              |
//! |------|-------------------------|---------------------------------------------------|
//! | `0`  | [`KIND_DATA`]           | the application payload, verbatim                 |
//! | `1`  | [`KIND_CONTROL`]        | exactly the bytes of [`Control::encode`]          |
//! | `2`  | [`KIND_CONTROL_PADDED`] | `u16` LE length, that many control bytes, padding |
//! | `3`  | [`KIND_DATA_SUMMED`]    | the payload, then a CRC-8 of it                   |
//! | `4`  | [`KIND_DATA_MARK_EMPTY`]| a 16-byte mark field nobody reads, the payload — an encode-time placeholder, not on the wire from this sender |
//! | `5`  | [`KIND_DATA_MARKED`]    | `round` (`u64` BE), `dc` (`i64` BE), the payload  |
//!
//! The paper's central constraint is that striping never modifies data
//! packets, so all this layer adds to one is the demultiplexing header
//! (the real-network stand-in for the Ethernet type-field codepoint of
//! §5). Control bodies — markers ride as
//! [`Control::Marker`] — are produced through
//! [`Control::encode_into`], so the simulator and the socket path share
//! one encoder and cannot drift.
//!
//! # The mark field
//!
//! §5 gives every data packet an implicit number `(round, dc)` — what
//! its flow's scheduler holds for the packet's channel just before it
//! serves the packet — and a marker on channel `c` states the number of
//! the *next* packet its flow sends on `c`. This layer already owns a
//! header (§4's "when headers can be added"), so the packet's frame can
//! state the number itself: kinds `4` and `5`, version 2 only, put a
//! [`MARK_FIELD_LEN`]-byte field between the flow id and the payload.
//! Kind `5` holds the number, to be applied on the frame's own channel
//! *before* its payload — exactly a marker frame directly ahead of a
//! kind-`0` frame; kind `4` holds none and its field is ignored. The
//! payload is still verbatim. A frame is encoded long before the
//! scheduler gets to its packet, so the sender reserves the field at
//! encode time ([`encode_data_markable_flow_into`], kind `4`) and fills
//! it in place when the packet is served ([`write_mark`], kind `5`):
//! **every frame that has the field leaves with its own number in it**,
//! so kind `4` is an encode-time placeholder that a
//! [`StripeServer`](crate::server::StripeServer) never puts on a wire
//! (PR 17 to 20 sent it for the four frames in five that no marker fell
//! due ahead of; it still decodes, as data, for this round). Whether to
//! reserve is a rule on the payload length alone — at least
//! [`MARK_MIN_PAYLOAD`] bytes — so that equal payloads make equal
//! frames: a field only in some of them would split a
//! segmentation-offload train at each. The header is unchanged, so this
//! is no version bump: a receiver that predates the two kinds drops
//! them as it drops any unknown kind.
//!
//! # Decoding
//!
//! There is one parser, [`parse`] (and [`parse_v1`], the same code
//! refusing flow-tagged frames). It checks magic, version, kind, the
//! varint, the CRC-8 trailer, the pad prefix and the mark field's
//! presence, classifies every
//! reject as [`DecodeError::Malformed`] or [`DecodeError::Corrupt`], and
//! returns a [`Parsed`]: a 16-byte `Copy` value naming the flow, what
//! the body is ([`Body`]) and where in the datagram it sits. It reads
//! the header and builds nothing. The receive path works from that: a
//! data body becomes a view into the receive buffer (one that keeps the
//! field ahead of it, read by [`Parsed::mark`], when the frame states
//! its number), a marker body goes
//! through [`Parsed::marker`], and a [`Control`] is only ever built —
//! by [`Parsed::control`] — for the rare frame that carries one.
//! [`try_decode`], [`try_decode_flow`] and [`decode`] are [`parse`]
//! followed by [`Parsed::frame`], for callers that want the borrowed
//! [`Frame`] enum.

use stripe_core::control::Control;
use stripe_core::sched::ChannelMark;
use stripe_core::Marker;

/// First byte of every frame; chosen to collide with neither the marker
/// magic (`0x53`) nor common text, so misdirected traffic fails loudly.
pub const FRAME_MAGIC: u8 = 0xC5;

/// The original (single-flow) wire-format version: the body follows the
/// 3-byte header directly and the frame implicitly belongs to flow 0.
pub const FRAME_VERSION: u8 = 1;

/// The multi-flow wire-format version: a LEB128 varint flow id sits
/// between the 3-byte header and the body, for every kind. Kind
/// codepoints and body encodings are unchanged from version 1 — the
/// version bump is *only* the flow-id field, so a version-1 frame is
/// exactly a version-2 frame with the flow id elided ([`parse`] maps it
/// to flow 0).
pub const FRAME_VERSION_FLOW: u8 = 2;

/// Longest LEB128 encoding of a `u32` flow id.
pub const MAX_FLOW_ID_LEN: usize = 5;

/// Frame-kind codepoint for application data.
pub const KIND_DATA: u8 = 0;

/// Frame-kind codepoint for control messages (markers included).
pub const KIND_CONTROL: u8 = 1;

/// Frame-kind codepoint for a *padded* control message: the body is a
/// little-endian `u16` length, that many [`Control::encode`] bytes, and
/// then arbitrary padding the decoder ignores. Data frames can never be
/// padded (their body is the datagram remainder, verbatim), but control
/// frames can — which lets the sender stretch a 37-byte marker to the
/// exact length of the data frames around it so a segmentation-offload
/// train is not split at every marker (GSO permits only one shorter
/// trailing segment per train). Semantically identical to
/// [`KIND_CONTROL`].
pub const KIND_CONTROL_PADDED: u8 = 2;

/// Frame-kind codepoint for *checksummed* application data: the body is
/// the payload followed by a one-byte CRC-8 of the payload. §5 assumes
/// corruption is detectable; on real channels UDP's 16-bit checksum is
/// optional and weak, so paths that face bit errors (and every chaos
/// soak) opt into this kind. The default [`KIND_DATA`] stays
/// trailer-free, keeping the headline path at zero checksum cost.
pub const KIND_DATA_SUMMED: u8 = 3;

/// Frame-kind codepoint for data behind an *empty* mark field (version
/// 2 only): [`MARK_FIELD_LEN`] bytes the decoder skips, then the payload.
/// What [`write_mark`] turns into [`KIND_DATA_MARKED`] before the frame
/// leaves: a placeholder between encode and pump, decoded (as plain
/// data) only for senders of the rounds that still put it on the wire.
/// See the module docs.
pub const KIND_DATA_MARK_EMPTY: u8 = 4;

/// Frame-kind codepoint for data that states its own number (version 2
/// only): the mark field holds `round` (`u64` BE) and `dc` (`i64` BE) —
/// the [`ChannelMark`] a marker directly ahead of this frame, on this
/// frame's channel, would have stated — then the payload.
pub const KIND_DATA_MARKED: u8 = 5;

/// Bytes of header preceding the body.
pub const FRAME_HEADER_LEN: usize = 3;

/// Extra body bytes of a [`KIND_CONTROL_PADDED`] frame before the
/// control message itself (the `u16` length prefix).
pub const PAD_LEN_PREFIX: usize = 2;

/// Trailer bytes of a [`KIND_DATA_SUMMED`] frame (the CRC-8).
pub const SUM_TRAILER_LEN: usize = 1;

/// Bytes of the mark field of a [`KIND_DATA_MARK_EMPTY`] or
/// [`KIND_DATA_MARKED`] frame: a [`ChannelMark`]'s `round` and `dc`.
/// Every frame that has it uses it, so it is not overhead that waits for
/// a mark: it is where the frame's number goes.
pub const MARK_FIELD_LEN: usize = 16;

/// Shortest payload a sender reserves the mark field for: 16 fields'
/// worth, so the field never adds more than a sixteenth to the payload
/// it rides with. It is a rule on the length — something both a bulk
/// and a small-packet sender observe about their own traffic — because
/// the alternatives lose: a field only in some frames makes them
/// longer than their neighbours and cuts every offload train there, and
/// a field in every frame adds a quarter to a 64-byte payload. Short
/// frames therefore state no number and recover at the marker cadence,
/// as every frame used to.
pub const MARK_MIN_PAYLOAD: usize = 16 * MARK_FIELD_LEN;

/// CRC-8, polynomial 0x07 (ATM HEC) — catches every single-bit flip and
/// all burst errors up to 8 bits, which is exactly the corruption model
/// the chaos layer injects. Table built at compile time; one lookup per
/// payload byte.
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

/// CRC-8/0x07 over `bytes` (the [`KIND_DATA_SUMMED`] trailer value).
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

/// Append the header for a frame of `kind` to `out`.
fn push_header(kind: u8, out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
}

/// Append the version-2 header plus the varint flow id to `out`.
fn push_flow_header(kind: u8, flow: u32, out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION_FLOW);
    out.push(kind);
    let mut v = flow;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of a flow id's LEB128 varint.
pub fn flow_id_len(flow: u32) -> usize {
    match flow {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Parse a LEB128 flow id from the start of `body`; returns the id and
/// the number of bytes it occupied. `None` on truncation or a varint
/// longer than [`MAX_FLOW_ID_LEN`] (a `u32` never needs more).
fn take_flow_id(body: &[u8]) -> Option<(u32, usize)> {
    let mut flow: u32 = 0;
    for (i, &b) in body.iter().enumerate().take(MAX_FLOW_ID_LEN) {
        let payload = (b & 0x7F) as u32;
        // The fifth byte may only carry the top 4 bits of a u32.
        if i == MAX_FLOW_ID_LEN - 1 && b & 0xF0 != 0 {
            return None;
        }
        flow |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Some((flow, i + 1));
        }
    }
    None
}

/// Encode a data frame into `out` (cleared first, capacity kept): the
/// steady-state path encodes every frame into a recycled buffer.
pub fn encode_data_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_DATA, out);
    out.extend_from_slice(payload);
}

/// Encode a checksummed data frame into `out` (cleared first, capacity
/// kept): payload, then a CRC-8 trailer the decoder verifies. Costs one
/// table lookup per byte on encode and decode — paid only by paths that
/// opt in (integrity mode).
pub fn encode_data_summed_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_DATA_SUMMED, out);
    out.extend_from_slice(payload);
    out.push(crc8(payload));
}

/// Encode a control frame into `out` (cleared first, capacity kept). The
/// body is produced by [`Control::encode_into`] — the single shared
/// control encoder.
pub fn encode_control_into(ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_CONTROL, out);
    ctl.encode_into(out);
}

/// Encode a flow-tagged data frame (version 2) into `out` (cleared
/// first, capacity kept).
pub fn encode_data_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_DATA, flow, out);
    out.extend_from_slice(payload);
}

/// Encode a flow-tagged data frame with an empty mark field
/// ([`KIND_DATA_MARK_EMPTY`]) into `out` (cleared first, capacity
/// kept): [`MARK_FIELD_LEN`] bytes longer than
/// [`encode_data_flow_into`]'s, and able to take a mark later.
pub fn encode_data_markable_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_DATA_MARK_EMPTY, flow, out);
    out.extend_from_slice(&[0; MARK_FIELD_LEN]);
    out.extend_from_slice(payload);
}

/// Put `mark` into the empty mark field of an encoded
/// [`KIND_DATA_MARK_EMPTY`] frame, in place, making it
/// [`KIND_DATA_MARKED`]. Returns `false`, and touches nothing, if
/// `frame` is any other frame: the caller sends the mark some other way.
/// Runs once per frame that has the field, so it reads the header and
/// the varint and nothing else.
pub fn write_mark(frame: &mut [u8], mark: ChannelMark) -> bool {
    let empty = [FRAME_MAGIC, FRAME_VERSION_FLOW, KIND_DATA_MARK_EMPTY];
    if !frame.starts_with(&empty) {
        return false;
    }
    let Some((_, id_len)) = take_flow_id(&frame[FRAME_HEADER_LEN..]) else {
        return false;
    };
    let at = FRAME_HEADER_LEN + id_len;
    let Some(field) = frame.get_mut(at..at + MARK_FIELD_LEN) else {
        return false;
    };
    field[..8].copy_from_slice(&mark.round.to_be_bytes());
    field[8..].copy_from_slice(&mark.dc.to_be_bytes());
    frame[2] = KIND_DATA_MARKED;
    true
}

/// The mark a [`MARK_FIELD_LEN`]-byte mark field holds.
pub(crate) fn read_mark(field: &[u8]) -> ChannelMark {
    let (round, dc) = field.split_at(8);
    ChannelMark {
        round: u64::from_be_bytes(round.try_into().expect("8 of the field's 16 bytes")),
        dc: i64::from_be_bytes(dc.try_into().expect("8 of the field's 16 bytes")),
    }
}

/// Encode a flow-tagged checksummed data frame (version 2) into `out`.
/// The CRC-8 trailer covers the payload only, exactly as in version 1 —
/// the flow id is header, not body.
pub fn encode_data_summed_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_DATA_SUMMED, flow, out);
    out.extend_from_slice(payload);
    out.push(crc8(payload));
}

/// Encode a flow-tagged control frame (version 2) into `out`.
pub fn encode_control_flow_into(flow: u32, ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_CONTROL, flow, out);
    ctl.encode_into(out);
}

/// Encode a flow-tagged control frame padded out to exactly `wire_len`
/// bytes (version 2). The body carries an explicit length prefix so the
/// decoder never has to guess where the control message ends, and the
/// tail is zero-filled. If `wire_len` is too small to hold the prefixed
/// message, the frame simply comes out at its natural (unpadded) length —
/// callers should pick `wire_len` from the data frame they are matching.
pub fn encode_control_padded_flow_into(
    flow: u32,
    ctl: &Control,
    wire_len: usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    push_flow_header(KIND_CONTROL_PADDED, flow, out);
    let prefix_at = out.len();
    out.extend_from_slice(&[0, 0]); // length prefix, patched below
    ctl.encode_into(out);
    let body = (out.len() - prefix_at - PAD_LEN_PREFIX) as u16;
    out[prefix_at..prefix_at + PAD_LEN_PREFIX].copy_from_slice(&body.to_le_bytes());
    if out.len() < wire_len {
        out.resize(wire_len, 0);
    }
}

/// On-wire length of a flow-tagged data frame ([`KIND_DATA`]; one with
/// a mark field is [`MARK_FIELD_LEN`] longer).
pub fn data_flow_frame_len(flow: u32, payload_len: usize) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + payload_len
}

/// On-wire length of a flow-tagged control frame.
pub fn control_flow_frame_len(flow: u32, ctl: &Control) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + ctl.wire_len()
}

/// Whether `frame` is a well-headed data frame (any data kind, a mark
/// in it or not) — the peek the fault layer uses to drop data while
/// letting markers and control through.
pub fn is_data_frame(frame: &[u8]) -> bool {
    frame.len() >= FRAME_HEADER_LEN
        && frame[0] == FRAME_MAGIC
        && (frame[1] == FRAME_VERSION || frame[1] == FRAME_VERSION_FLOW)
        && matches!(
            frame[2],
            KIND_DATA | KIND_DATA_SUMMED | KIND_DATA_MARK_EMPTY | KIND_DATA_MARKED
        )
}

/// Why a frame failed to decode — the distinction drives separate
/// receiver counters, so a soak can assert "zero corrupted payloads
/// delivered *and* every injected flip was caught".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Structurally broken: short, bad magic/version, unknown kind,
    /// undecodable control body, lying pad prefix, truncated mark field.
    Malformed,
    /// Structurally fine but the CRC-8 trailer disagrees with the
    /// payload: bits were flipped in flight.
    Corrupt,
}

/// What a [`Parsed`] frame's body holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Application payload (any data kind without a mark; a CRC-8
    /// trailer has been verified and is not part of the body, nor is an
    /// empty mark field).
    Data,
    /// Application payload behind its own number ([`KIND_DATA_MARKED`]):
    /// the body is the payload alone, [`Parsed::mark`] reads the number.
    MarkedData,
    /// An encoded [`Marker`] (a control message of the marker type, its
    /// type byte not part of the body): the one control message on the
    /// per-packet path, so it is told apart here.
    Marker,
    /// Any other encoded [`Control`] message (a pad prefix and padding
    /// are not part of the body).
    Control,
}

/// A frame that passed every header check: whose it is, what its body
/// holds, and where in the datagram the body sits. Nothing is decoded or
/// borrowed, so a receive loop carries this instead of a [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parsed {
    /// Body length in bytes.
    pub len: usize,
    /// The flow named by a version-2 frame; 0 for version 1.
    pub flow: u32,
    /// Where the body starts in the datagram: at most header, varint,
    /// and the mark field or the pad prefix and a control type byte.
    pub offset: u8,
    /// What the body holds.
    pub body: Body,
}

impl Parsed {
    /// The body bytes within `frame`, which must be the datagram this
    /// was parsed from.
    pub fn body<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        &frame[self.offset as usize..self.offset as usize + self.len]
    }

    /// The mark a [`Body::MarkedData`] frame carries: the field directly
    /// ahead of the body.
    pub fn mark(&self, frame: &[u8]) -> ChannelMark {
        debug_assert_eq!(self.body, Body::MarkedData);
        read_mark(&frame[self.offset as usize - MARK_FIELD_LEN..self.offset as usize])
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

    /// The borrowed [`Frame`] this describes (a carried mark is not part
    /// of it).
    pub fn frame<'a>(&self, frame: &'a [u8]) -> Result<Frame<'a>, DecodeError> {
        match self.body {
            Body::Data | Body::MarkedData => Ok(Frame::Data(self.body(frame))),
            _ => self.control(frame).map(Frame::Control),
        }
    }
}

/// The parser behind [`parse`] and [`parse_v1`].
#[inline(always)]
fn parse_versions(frame: &[u8], flow_tagged_ok: bool) -> Result<Parsed, DecodeError> {
    use DecodeError::{Corrupt, Malformed};
    if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC {
        return Err(Malformed);
    }
    let (flow, mut at) = match frame[1] {
        FRAME_VERSION => (0, FRAME_HEADER_LEN),
        FRAME_VERSION_FLOW if flow_tagged_ok => {
            let (flow, used) = take_flow_id(&frame[FRAME_HEADER_LEN..]).ok_or(Malformed)?;
            (flow, FRAME_HEADER_LEN + used)
        }
        _ => return Err(Malformed),
    };
    let mut end = frame.len();
    let body = match frame[2] {
        KIND_DATA => Body::Data,
        KIND_DATA_SUMMED => {
            if end == at {
                return Err(Malformed); // no room for the trailer
            }
            end -= SUM_TRAILER_LEN;
            if crc8(&frame[at..end]) != frame[end] {
                return Err(Corrupt);
            }
            Body::Data
        }
        kind @ (KIND_DATA_MARK_EMPTY | KIND_DATA_MARKED) if frame[1] == FRAME_VERSION_FLOW => {
            if end - at < MARK_FIELD_LEN {
                return Err(Malformed); // the field is cut short
            }
            at += MARK_FIELD_LEN;
            match kind {
                KIND_DATA_MARKED => Body::MarkedData,
                _ => Body::Data,
            }
        }
        kind @ (KIND_CONTROL | KIND_CONTROL_PADDED) => {
            if kind == KIND_CONTROL_PADDED {
                let prefix = frame.get(at..at + PAD_LEN_PREFIX).ok_or(Malformed)?;
                at += PAD_LEN_PREFIX;
                let n = u16::from_le_bytes([prefix[0], prefix[1]]) as usize;
                if n > end - at {
                    return Err(Malformed); // the prefix claims more than arrived
                }
                end = at + n;
            }
            match Control::marker_body(&frame[at..end]) {
                Some(marker) => {
                    at = end - marker.len();
                    Body::Marker
                }
                None => Body::Control,
            }
        }
        _ => return Err(Malformed),
    };
    Ok(Parsed {
        len: end - at,
        flow,
        offset: at as u8,
        body,
    })
}

/// Parse one received frame of *either* version — the receive path of a
/// multi-flow demultiplexer, which stays wire-compatible with
/// single-flow senders. Never panics, whatever the input.
#[inline]
pub fn parse(frame: &[u8]) -> Result<Parsed, DecodeError> {
    parse_versions(frame, true)
}

/// Parse one received version-1 frame; a flow-tagged frame is
/// [`DecodeError::Malformed`]. A single-flow receiver must *not*
/// silently accept traffic it would misattribute to its one flow.
#[inline]
pub fn parse_v1(frame: &[u8]) -> Result<Parsed, DecodeError> {
    parse_versions(frame, false)
}

/// Decode one received frame, reporting *why* rejects were rejected.
/// Never panics, whatever the input — see the fuzz proptest in
/// `tests/net_loopback.rs`.
///
/// Version-1 only ([`parse_v1`]). Endpoints that speak both versions use
/// [`try_decode_flow`].
pub fn try_decode(frame: &[u8]) -> Result<Frame<'_>, DecodeError> {
    parse_v1(frame)?.frame(frame)
}

/// Decode one received frame of *either* version ([`parse`]), returning
/// the flow it belongs to: a version-2 frame's varint flow id, or flow 0
/// for a legacy version-1 frame.
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

    #[test]
    fn data_roundtrips_zero_copy() {
        let payload = [7u8, 8, 9, 10];
        let mut buf = Vec::new();
        encode_data_into(&payload, &mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN + payload.len());
        match decode(&buf) {
            Some(Frame::Data(body)) => {
                assert_eq!(body, &payload);
                // Zero-copy: the decoded body aliases the frame buffer.
                assert!(std::ptr::eq(
                    body.as_ptr(),
                    buf[FRAME_HEADER_LEN..].as_ptr()
                ));
            }
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn empty_data_frame_is_legal() {
        let mut buf = Vec::new();
        encode_data_into(&[], &mut buf);
        assert_eq!(decode(&buf), Some(Frame::Data(&[][..])));
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
        let mut buf = vec![1, 2, 3, 4, 5];
        encode_data_into(&[9], &mut buf);
        assert_eq!(buf, vec![FRAME_MAGIC, FRAME_VERSION, KIND_DATA, 9]);
    }

    #[test]
    fn malformed_frames_rejected() {
        // Short, bad magic, bad version, unknown kind, bad control body.
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION]), None);
        assert_eq!(decode(&[0x00, FRAME_VERSION, KIND_DATA, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, 99, KIND_DATA, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION, 7, 1]), None);
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL, 99]),
            None
        );
    }

    #[test]
    fn padded_control_ignores_nonzero_padding() {
        // Decoding depends only on the length prefix, not on the pad
        // bytes being zero — a receiver must never trust the tail.
        let ctl = Control::Probe { nonce: 7 };
        let mut buf = Vec::new();
        encode_control_padded_flow_into(7, &ctl, 64, &mut buf);
        for b in &mut buf[FRAME_HEADER_LEN + 1 + PAD_LEN_PREFIX + ctl.wire_len()..] {
            *b = 0xFF;
        }
        assert_eq!(try_decode_flow(&buf), Ok((7, Frame::Control(ctl))));
    }

    #[test]
    fn padded_control_with_lying_length_prefix_rejected() {
        let ctl = Control::Probe { nonce: 7 };
        let mut buf = Vec::new();
        encode_control_padded_flow_into(7, &ctl, 16, &mut buf);
        // Claim more body bytes than the frame holds.
        buf[FRAME_HEADER_LEN + 1..FRAME_HEADER_LEN + 1 + PAD_LEN_PREFIX]
            .copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(try_decode_flow(&buf), Err(DecodeError::Malformed));
        // Truncated before the length prefix ends.
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL_PADDED, 1]),
            None
        );
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL_PADDED]),
            None
        );
    }

    #[test]
    fn is_data_frame_peeks_kind() {
        let mut data = Vec::new();
        encode_data_into(&[1, 2], &mut data);
        assert!(is_data_frame(&data));
        let mut summed = Vec::new();
        encode_data_summed_into(&[1, 2], &mut summed);
        assert!(is_data_frame(&summed));
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 1 }, &mut ctl);
        assert!(!is_data_frame(&ctl));
        assert!(!is_data_frame(&[FRAME_MAGIC]));
    }

    #[test]
    fn summed_data_roundtrips() {
        let payload = [7u8, 8, 9, 10];
        let mut buf = Vec::new();
        encode_data_summed_into(&payload, &mut buf);
        assert_eq!(
            buf.len(),
            FRAME_HEADER_LEN + payload.len() + SUM_TRAILER_LEN
        );
        match try_decode(&buf) {
            Ok(Frame::Data(body)) => {
                assert_eq!(body, &payload, "trailer must be stripped");
                // Still zero-copy: the payload aliases the frame buffer.
                assert!(std::ptr::eq(
                    body.as_ptr(),
                    buf[FRAME_HEADER_LEN..].as_ptr()
                ));
            }
            other => panic!("expected data frame, got {other:?}"),
        }
        let mut empty = Vec::new();
        encode_data_summed_into(&[], &mut empty);
        assert_eq!(try_decode(&empty), Ok(Frame::Data(&[][..])));
    }

    #[test]
    fn summed_data_catches_every_single_bit_flip() {
        let payload: Vec<u8> = (0..57).collect();
        let mut clean = Vec::new();
        encode_data_summed_into(&payload, &mut clean);
        // Flip each body bit (payload and trailer) in turn: all caught.
        for byte in FRAME_HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                assert_eq!(
                    try_decode(&buf),
                    Err(DecodeError::Corrupt),
                    "flip at byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn summed_data_without_trailer_is_malformed_not_corrupt() {
        // A bare header of kind 3 has no room for the CRC byte.
        assert_eq!(
            try_decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_DATA_SUMMED]),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn try_decode_classifies_malformed_vs_corrupt() {
        assert_eq!(try_decode(&[]), Err(DecodeError::Malformed));
        assert_eq!(
            try_decode(&[0x00, FRAME_VERSION, KIND_DATA, 1]),
            Err(DecodeError::Malformed)
        );
        assert_eq!(
            try_decode(&[FRAME_MAGIC, FRAME_VERSION, 9, 1]),
            Err(DecodeError::Malformed)
        );
        let mut buf = Vec::new();
        encode_data_summed_into(&[1, 2, 3], &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert_eq!(try_decode(&buf), Err(DecodeError::Corrupt));
        // decode() folds both reject reasons into None.
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
    fn flow_control_and_padded_roundtrip() {
        let ctl = Control::Marker(Marker::sync(2, ChannelMark { round: 7, dc: -1 }));
        let mut buf = Vec::new();
        encode_control_flow_into(777, &ctl, &mut buf);
        assert_eq!(buf.len(), control_flow_frame_len(777, &ctl));
        assert_eq!(
            try_decode_flow(&buf),
            Ok((777, Frame::Control(ctl.clone())))
        );
        assert!(!is_data_frame(&buf));
        // Below natural (no pad fits), exactly natural, and well above.
        let natural = control_flow_frame_len(777, &ctl) + PAD_LEN_PREFIX;
        for wire_len in [0, natural, natural + 1, 1200] {
            let mut padded = Vec::new();
            encode_control_padded_flow_into(777, &ctl, wire_len, &mut padded);
            assert_eq!(padded.len(), wire_len.max(natural), "target {wire_len}");
            assert!(!is_data_frame(&padded));
            assert_eq!(
                try_decode_flow(&padded),
                Ok((777, Frame::Control(ctl.clone()))),
                "target {wire_len}"
            );
        }
    }

    #[test]
    fn try_decode_flow_accepts_legacy_as_flow_zero() {
        let mut data = Vec::new();
        encode_data_into(&[5, 6], &mut data);
        assert_eq!(try_decode_flow(&data), Ok((0, Frame::Data(&[5, 6][..]))));
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
            assert_eq!(buf.len() - FRAME_HEADER_LEN, flow_id_len(flow), "{flow}");
        }
    }

    #[test]
    fn truncated_or_overlong_flow_id_is_malformed() {
        // Header promising a varint that never terminates.
        let truncated = [FRAME_MAGIC, FRAME_VERSION_FLOW, KIND_DATA, 0x80];
        assert_eq!(try_decode_flow(&truncated), Err(DecodeError::Malformed));
        // Six continuation bytes: longer than any u32 varint.
        let overlong = [
            FRAME_MAGIC,
            FRAME_VERSION_FLOW,
            KIND_DATA,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x01,
        ];
        assert_eq!(try_decode_flow(&overlong), Err(DecodeError::Malformed));
        // Fifth byte carrying bits a u32 cannot hold.
        let overflow = [
            FRAME_MAGIC,
            FRAME_VERSION_FLOW,
            KIND_DATA,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0x7F,
        ];
        assert_eq!(try_decode_flow(&overflow), Err(DecodeError::Malformed));
        // Unknown version for both decoders.
        assert_eq!(
            try_decode_flow(&[FRAME_MAGIC, 3, KIND_DATA, 1]),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn is_data_frame_accepts_both_versions() {
        let mut v2 = Vec::new();
        encode_data_flow_into(12, &[1], &mut v2);
        assert!(is_data_frame(&v2));
        let mut v2c = Vec::new();
        encode_control_flow_into(12, &Control::Probe { nonce: 1 }, &mut v2c);
        assert!(!is_data_frame(&v2c));
    }

    /// A frame encoded with the field decodes as plain data until a mark
    /// is written into it — in place, same length — and from then on
    /// yields the mark and the same payload, at every varint width.
    #[test]
    fn mark_field_roundtrips_and_is_filled_in_place() {
        let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let mark = ChannelMark {
            round: 0x0102_0304_0506_0708,
            dc: -2,
        };
        for flow in [0u32, 0x7F, 0x80, 0x4000, u32::MAX] {
            let mut buf = Vec::new();
            encode_data_markable_flow_into(flow, &payload, &mut buf);
            let len = data_flow_frame_len(flow, payload.len()) + MARK_FIELD_LEN;
            assert_eq!(buf.len(), len);
            let at = FRAME_HEADER_LEN + flow_id_len(flow) + MARK_FIELD_LEN;
            let p = parse(&buf).unwrap();
            assert_eq!(
                (p.flow, p.body, p.offset as usize, p.len),
                (flow, Body::Data, at, payload.len())
            );
            assert!(is_data_frame(&buf));

            assert!(write_mark(&mut buf, mark));
            assert_eq!((buf.len(), buf[2]), (len, KIND_DATA_MARKED));
            let p = parse(&buf).unwrap();
            assert_eq!(
                (p.flow, p.body, p.offset as usize, p.len),
                (flow, Body::MarkedData, at, payload.len())
            );
            assert_eq!(p.mark(&buf), mark);
            assert_eq!(p.body(&buf), &payload[..]);
            assert_eq!(try_decode_flow(&buf), Ok((flow, Frame::Data(&payload[..]))));
            assert!(is_data_frame(&buf));
            // The field is taken: a second mark goes some other way.
            assert!(!write_mark(&mut buf, ChannelMark { round: 1, dc: 1 }));
            assert_eq!(parse(&buf).unwrap().mark(&buf), mark);
            // A version-1 decoder refuses it like any flow-tagged frame.
            assert_eq!(try_decode(&buf), Err(DecodeError::Malformed));
        }
    }

    /// `write_mark` touches only a version-2 frame of the empty-field
    /// kind, whole field present.
    #[test]
    fn write_mark_refuses_every_other_frame() {
        let mark = ChannelMark { round: 7, dc: 7 };
        let mut plain = Vec::new();
        encode_data_flow_into(3, &[1; 300], &mut plain);
        let mut summed = Vec::new();
        encode_data_summed_flow_into(3, &[1; 300], &mut summed);
        let mut ctl = Vec::new();
        encode_control_flow_into(3, &Control::Probe { nonce: 1 }, &mut ctl);
        let v1 = vec![FRAME_MAGIC, FRAME_VERSION, KIND_DATA_MARK_EMPTY, 0, 0, 0];
        let mut short = vec![FRAME_MAGIC, FRAME_VERSION_FLOW, KIND_DATA_MARK_EMPTY, 3];
        short.extend_from_slice(&[0; MARK_FIELD_LEN - 1]);
        let unterminated = vec![FRAME_MAGIC, FRAME_VERSION_FLOW, KIND_DATA_MARK_EMPTY, 0x80];
        for frame in [plain, summed, ctl, v1, short, unterminated, vec![]] {
            let mut buf = frame.clone();
            assert!(!write_mark(&mut buf, mark), "{frame:02x?}");
            assert_eq!(buf, frame, "refused yet written");
        }
    }

    /// The field is all or nothing: 16 bytes and an empty payload is a
    /// frame, anything shorter is malformed — and both kinds exist in
    /// version 2 only.
    #[test]
    fn short_mark_field_and_version_1_are_malformed() {
        for kind in [KIND_DATA_MARK_EMPTY, KIND_DATA_MARKED] {
            for have in 0..=MARK_FIELD_LEN {
                let mut buf = vec![FRAME_MAGIC, FRAME_VERSION_FLOW, kind, 0x05];
                buf.extend(std::iter::repeat_n(0xAB, have));
                let got = try_decode_flow(&buf);
                if have < MARK_FIELD_LEN {
                    assert_eq!(got, Err(DecodeError::Malformed), "{have} bytes of field");
                } else {
                    assert_eq!(got, Ok((5, Frame::Data(&[][..]))));
                }
                assert!(is_data_frame(&buf), "the fault layer drops it as data");
            }
            let mut v1 = vec![FRAME_MAGIC, FRAME_VERSION, kind];
            v1.extend_from_slice(&[0; MARK_FIELD_LEN + 4]);
            assert_eq!(parse(&v1), Err(DecodeError::Malformed));
            assert_eq!(parse_v1(&v1), Err(DecodeError::Malformed));
        }
    }

    /// The parser's whole output fits two registers, error case included:
    /// that is what lets a receive loop carry it instead of a `Frame`.
    #[test]
    fn parsed_is_two_words() {
        assert_eq!(std::mem::size_of::<Parsed>(), 16);
        assert_eq!(std::mem::size_of::<Result<Parsed, DecodeError>>(), 16);
    }

    /// `parse` names the flow, classifies the body and locates it — past
    /// the varint, the pad prefix and a marker's type byte, short of the
    /// CRC trailer and the padding — without decoding it.
    #[test]
    fn parse_locates_every_kind_of_body() {
        let mk = Marker::sync(2, ChannelMark { round: 7, dc: -1 });
        let probe = Control::Probe { nonce: 9 };
        let mut buf = Vec::new();

        encode_data_flow_into(300, &[1, 2, 3], &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset, p.len), (300, Body::Data, 5, 3));
        assert_eq!(p.body(&buf), &[1, 2, 3]);

        encode_data_summed_into(&[4, 5], &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset, p.len), (0, Body::Data, 3, 2));

        encode_control_flow_into(5, &Control::Marker(mk), &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.flow, p.body, p.offset), (5, Body::Marker, 5));
        assert_eq!(p.marker(&buf), Ok(mk));
        assert_eq!(p.control(&buf), Ok(Control::Marker(mk)));

        encode_control_padded_flow_into(5, &Control::Marker(mk), 200, &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.body, p.offset, p.len), (Body::Marker, 7, 24));
        assert_eq!(p.marker(&buf), Ok(mk));

        encode_control_padded_flow_into(5, &probe, 64, &mut buf);
        let p = parse(&buf).unwrap();
        assert_eq!((p.body, p.offset, p.len), (Body::Control, 6, 9));
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
        encode_data_summed_into(&[1, 2, 3], &mut buf);
        assert_eq!(parse_v1(&buf), parse(&buf));
    }

    #[test]
    fn crc8_known_vector() {
        // CRC-8/SMBUS ("123456789") = 0xF4 for poly 0x07, init 0.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0);
    }
}
