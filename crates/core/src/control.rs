//! Control-message framing: markers, resets, and quantum updates on one
//! codepoint.
//!
//! The base protocol needs only markers, but §5's fault model adds two
//! more control exchanges:
//!
//! - **Reset** — "we deal with sender or receiver node crashes by doing a
//!   reset": an epoch-stamped request/acknowledge handshake that
//!   reinitializes both ends to `s0` (see [`crate::handshake`]).
//! - **Quantum update** — §3.5 generalizes SRR to channels of different
//!   rated bandwidths via per-channel quanta; when rates change at run
//!   time (a modem retrain, a PVC renegotiation), both ends must switch
//!   quanta *at the same round* or the receiver's simulation diverges.
//!   [`Control::QuantumAnnounce`] carries the new quanta and the round
//!   at which they take effect; [`Control::QuantumAck`] confirms it.
//!
//! Resets, quantum announces and membership changes are three payloads of
//! one epoch'd announce/ack machine, [`crate::handshake`].
//!
//! Like markers, control messages ride their own codepoint and never
//! modify data packets. The wire format is a type byte followed by the
//! message body; everything is fixed-layout big-endian, so both ends can
//! be different architectures.

use crate::marker::{Marker, MARKER_WIRE_LEN};

/// Epoch counter for the handshake generations. Wraps are harmless:
/// epochs only need to distinguish "newer than mine".
pub type Epoch = u32;

/// Whether `candidate` is a strictly newer epoch than `current` under
/// wrapping arithmetic: the forward distance is smaller than the backward
/// one. The one comparison [`crate::handshake::EpochResponder`] ages stale
/// control traffic with.
pub fn epoch_newer(candidate: Epoch, current: Epoch) -> bool {
    candidate.wrapping_sub(current) != 0 && candidate.wrapping_sub(current) < u32::MAX / 2
}

/// A control message on a striped channel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// A synchronization marker (§5).
    Marker(Marker),
    /// Sender asks the receiver to reinitialize to `s0` under `epoch`.
    ResetRequest {
        /// The new epoch being established.
        epoch: Epoch,
    },
    /// Receiver confirms it has flushed and reinitialized under `epoch`.
    /// Travels on the reverse path.
    ResetAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
    },
    /// Sender-side liveness probe; the receiver echoes the nonce back on
    /// the reverse path of the same channel. Probes are how a sender
    /// distinguishes a quiet channel from a dead one.
    Probe {
        /// Opaque nonce echoed in the matching [`Control::ProbeAck`]; the
        /// liveness layer encodes the channel id in the top bits so a
        /// misrouted ack cannot revive the wrong channel.
        nonce: u64,
    },
    /// Receiver's echo of a [`Control::Probe`].
    ProbeAck {
        /// The echoed nonce.
        nonce: u64,
        /// The responding endpoint's incarnation: a random value chosen
        /// once per process start. A sender that sees it *change* knows
        /// the peer restarted — its epoch, flow, and resequencer state
        /// are garbage — and must drive a §5 reset before resuming.
        incarnation: u64,
    },
    /// Both ends shrink or grow the striping set to `live_mask` when their
    /// global round reaches `effective_round` — the dynamic-membership
    /// analogue of [`Control::QuantumAnnounce`]. Epoch-stamped so
    /// duplicated or reordered announcements are harmless.
    Membership {
        /// The membership generation being established.
        epoch: Epoch,
        /// Bit `c` set ⇔ channel `c` stays in the striping set (≤ 16
        /// channels on the wire, matching the quantum-announce cap).
        live_mask: u16,
        /// Round at which the new membership takes effect.
        effective_round: u64,
    },
    /// Receiver confirms it has scheduled the membership change for
    /// `epoch`. Travels on the reverse path.
    MembershipAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
    },
    /// Epoch-stamped live retune: both ends switch to `quanta` when
    /// their global round reaches `effective_round`. The adaptive
    /// tuner's announcement, with the membership handshake's
    /// reliability: the epoch makes duplicated or reordered
    /// announcements harmless and the matching [`Control::QuantumAck`]
    /// closes the retransmit loop, so the fairness bound holds across
    /// every mid-stream retune.
    QuantumAnnounce {
        /// The retune generation being established (same epoch space
        /// discipline as membership, tracked independently).
        epoch: Epoch,
        /// Round at which the new quanta take effect.
        effective_round: u64,
        /// New per-channel quanta (≤ 16 channels on the wire).
        quanta: Vec<i64>,
    },
    /// Receiver confirms it has scheduled the retune for `epoch`.
    /// Travels on the reverse path.
    QuantumAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
    },
    /// Receiver-side escalation on the reverse path: its
    /// [`DesyncDetector`](crate::reset::DesyncDetector) tripped (silent
    /// state corruption — persistent misordering or unbounded backlog
    /// growth), so the sender should drive a §5 reset even though no
    /// crash was observed.
    DesyncAlert {
        /// The alerting endpoint's incarnation, so a stale alert from a
        /// previous receiver life cannot trigger a redundant reset.
        incarnation: u64,
    },
}

const TYPE_MARKER: u8 = 1;
const TYPE_RESET_REQ: u8 = 2;
const TYPE_RESET_ACK: u8 = 3;
// Type byte 4 is reserved: it carried an epoch-less, unacknowledged
// quantum update that `QuantumAnnounce` superseded. It decodes to `None`
// like any unknown type and must not be reassigned.
const TYPE_PROBE: u8 = 5;
const TYPE_PROBE_ACK: u8 = 6;
const TYPE_MEMBERSHIP: u8 = 7;
const TYPE_MEMBERSHIP_ACK: u8 = 8;
const TYPE_QUANTUM_ANNOUNCE: u8 = 9;
const TYPE_QUANTUM_ACK: u8 = 10;
const TYPE_DESYNC_ALERT: u8 = 11;

/// Largest encoded control message (epoch'd quantum announce for 16
/// channels).
pub const CONTROL_MAX_WIRE_LEN: usize = 1 + 4 + 8 + 1 + 16 * 8;

impl Control {
    /// Encode to wire bytes.
    ///
    /// # Panics
    /// Panics if a `QuantumAnnounce` carries more than 16 channels — the
    /// wire format reserves 4 bits of count.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut v);
        v
    }

    /// Append the wire bytes to `out` without allocating (beyond `out`'s
    /// own growth): the codec hook the real-socket datapath uses to build
    /// frames into reusable buffers. `encode` delegates here, so there is
    /// exactly one encoder for the sim and the net paths.
    ///
    /// # Panics
    /// Same conditions as [`Control::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Control::Marker(m) => {
                out.push(TYPE_MARKER);
                out.extend_from_slice(&m.encode());
            }
            Control::ResetRequest { epoch } => {
                out.push(TYPE_RESET_REQ);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            Control::ResetAck { epoch } => {
                out.push(TYPE_RESET_ACK);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            Control::Probe { nonce } => {
                out.push(TYPE_PROBE);
                out.extend_from_slice(&nonce.to_be_bytes());
            }
            Control::ProbeAck { nonce, incarnation } => {
                out.push(TYPE_PROBE_ACK);
                out.extend_from_slice(&nonce.to_be_bytes());
                out.extend_from_slice(&incarnation.to_be_bytes());
            }
            Control::Membership {
                epoch,
                live_mask,
                effective_round,
            } => {
                assert!(*live_mask != 0, "membership must keep at least one channel");
                out.push(TYPE_MEMBERSHIP);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&live_mask.to_be_bytes());
                out.extend_from_slice(&effective_round.to_be_bytes());
            }
            Control::MembershipAck { epoch } => {
                out.push(TYPE_MEMBERSHIP_ACK);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            Control::QuantumAnnounce {
                epoch,
                effective_round,
                quanta,
            } => {
                assert!(quanta.len() <= 16, "wire format caps at 16 channels");
                out.push(TYPE_QUANTUM_ANNOUNCE);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&effective_round.to_be_bytes());
                out.push(quanta.len() as u8);
                for q in quanta {
                    out.extend_from_slice(&q.to_be_bytes());
                }
            }
            Control::QuantumAck { epoch } => {
                out.push(TYPE_QUANTUM_ACK);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            Control::DesyncAlert { incarnation } => {
                out.push(TYPE_DESYNC_ALERT);
                out.extend_from_slice(&incarnation.to_be_bytes());
            }
        }
    }

    /// Encoded size in bytes, without materializing the frame — what the
    /// channel's deficit counter and queue model need. Always equals
    /// `self.encode().len()`.
    pub fn wire_len(&self) -> usize {
        match self {
            Control::Marker(_) => 1 + MARKER_WIRE_LEN,
            Control::ResetRequest { .. } | Control::ResetAck { .. } => 1 + 4,
            Control::Probe { .. } | Control::DesyncAlert { .. } => 1 + 8,
            Control::ProbeAck { .. } => 1 + 8 + 8,
            Control::Membership { .. } => 1 + 4 + 2 + 8,
            Control::MembershipAck { .. } => 1 + 4,
            Control::QuantumAnnounce { quanta, .. } => 1 + 4 + 8 + 1 + quanta.len() * 8,
            Control::QuantumAck { .. } => 1 + 4,
        }
    }

    /// The encoded [`Marker`] inside `buf`, if `buf` is a marker message.
    /// Markers are the one control message on the per-packet receive
    /// path, which feeds this straight to [`Marker::decode`] and never
    /// builds a `Control` for them.
    pub fn marker_body(buf: &[u8]) -> Option<&[u8]> {
        match buf.split_first() {
            Some((&TYPE_MARKER, rest)) => Some(rest),
            _ => None,
        }
    }

    /// Decode from wire bytes; `None` on anything malformed (corrupt
    /// control traffic is dropped like corrupt data, §5).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let (&t, rest) = buf.split_first()?;
        match t {
            TYPE_MARKER => Marker::decode(rest).map(Control::Marker),
            TYPE_RESET_REQ => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                Some(Control::ResetRequest { epoch })
            }
            TYPE_RESET_ACK => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                Some(Control::ResetAck { epoch })
            }
            TYPE_PROBE => {
                let nonce = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some(Control::Probe { nonce })
            }
            TYPE_PROBE_ACK => {
                let nonce = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                let incarnation = u64::from_be_bytes(rest.get(8..16)?.try_into().ok()?);
                Some(Control::ProbeAck { nonce, incarnation })
            }
            TYPE_MEMBERSHIP => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                let live_mask = u16::from_be_bytes(rest.get(4..6)?.try_into().ok()?);
                if live_mask == 0 {
                    return None; // an empty membership would wedge both ends
                }
                let effective_round = u64::from_be_bytes(rest.get(6..14)?.try_into().ok()?);
                Some(Control::Membership {
                    epoch,
                    live_mask,
                    effective_round,
                })
            }
            TYPE_MEMBERSHIP_ACK => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                Some(Control::MembershipAck { epoch })
            }
            TYPE_QUANTUM_ANNOUNCE => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                let effective_round = u64::from_be_bytes(rest.get(4..12)?.try_into().ok()?);
                let n = *rest.get(12)? as usize;
                if n > 16 {
                    return None;
                }
                let mut quanta = Vec::with_capacity(n);
                for i in 0..n {
                    let off = 13 + i * 8;
                    let q = i64::from_be_bytes(rest.get(off..off + 8)?.try_into().ok()?);
                    if q <= 0 {
                        return None; // a zero quantum would wedge the scan
                    }
                    quanta.push(q);
                }
                Some(Control::QuantumAnnounce {
                    epoch,
                    effective_round,
                    quanta,
                })
            }
            TYPE_QUANTUM_ACK => {
                let epoch = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                Some(Control::QuantumAck { epoch })
            }
            TYPE_DESYNC_ALERT => {
                let incarnation = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some(Control::DesyncAlert { incarnation })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ChannelMark;

    #[test]
    fn marker_roundtrip() {
        let c = Control::Marker(Marker::sync(2, ChannelMark { round: 77, dc: -3 }));
        assert_eq!(Control::decode(&c.encode()), Some(c));
    }

    #[test]
    fn reset_roundtrips() {
        for c in [
            Control::ResetRequest { epoch: 0 },
            Control::ResetRequest { epoch: u32::MAX },
            Control::ResetAck { epoch: 12345 },
        ] {
            assert_eq!(Control::decode(&c.encode()), Some(c));
        }
    }

    /// The retired epoch-less quantum update (type byte 4) stays
    /// reserved: a well-formed old body decodes to nothing.
    #[test]
    fn retired_type_byte_is_rejected() {
        let mut old = vec![4u8];
        old.extend_from_slice(&9u64.to_be_bytes());
        old.push(1);
        old.extend_from_slice(&1500i64.to_be_bytes());
        assert_eq!(Control::decode(&old), None);
    }

    #[test]
    fn quantum_announce_roundtrips() {
        for c in [
            Control::QuantumAnnounce {
                epoch: 0,
                effective_round: 1 << 40,
                quanta: vec![1500, 4500, 9000],
            },
            Control::QuantumAnnounce {
                epoch: u32::MAX,
                effective_round: 0,
                quanta: vec![1; 16],
            },
            Control::QuantumAck { epoch: 12345 },
        ] {
            assert_eq!(Control::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn quantum_announce_rejects_bad_bodies() {
        let c = Control::QuantumAnnounce {
            epoch: 3,
            effective_round: 5,
            quanta: vec![1500, 3000],
        };
        let enc = c.encode();
        assert_eq!(Control::decode(&enc[..enc.len() - 1]), None, "truncated");
        let mut bad = enc.clone();
        let n = bad.len();
        bad[n - 8..].copy_from_slice(&0i64.to_be_bytes());
        assert_eq!(Control::decode(&bad), None, "zero quantum");
        assert!(enc.len() <= CONTROL_MAX_WIRE_LEN);
        let max = Control::QuantumAnnounce {
            epoch: 1,
            effective_round: 1,
            quanta: vec![1500; 16],
        };
        assert_eq!(max.wire_len(), CONTROL_MAX_WIRE_LEN, "the new max message");
    }

    #[test]
    fn liveness_and_membership_roundtrip() {
        for c in [
            Control::Probe { nonce: 0 },
            Control::Probe {
                nonce: (3u64 << 48) | 7,
            },
            Control::ProbeAck {
                nonce: u64::MAX,
                incarnation: 0,
            },
            Control::ProbeAck {
                nonce: 7,
                incarnation: u64::MAX,
            },
            Control::Membership {
                epoch: 9,
                live_mask: 0b101,
                effective_round: 1 << 33,
            },
            Control::MembershipAck { epoch: u32::MAX },
            Control::DesyncAlert { incarnation: 0 },
            Control::DesyncAlert {
                incarnation: u64::MAX,
            },
        ] {
            assert_eq!(Control::decode(&c.encode()), Some(c));
        }
    }

    /// A ProbeAck truncated to the old (pre-incarnation) length must be
    /// rejected, not misread: there is exactly one wire format per type.
    #[test]
    fn truncated_probe_ack_rejected() {
        let enc = Control::ProbeAck {
            nonce: 42,
            incarnation: 43,
        }
        .encode();
        assert_eq!(Control::decode(&enc[..9]), None, "nonce only");
        assert_eq!(Control::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn truncated_desync_alert_rejected() {
        let enc = Control::DesyncAlert { incarnation: 99 }.encode();
        assert_eq!(Control::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn empty_membership_rejected_on_decode() {
        let mut enc = Control::Membership {
            epoch: 1,
            live_mask: 0b11,
            effective_round: 4,
        }
        .encode();
        enc[5] = 0; // zero the mask bytes
        enc[6] = 0;
        assert_eq!(Control::decode(&enc), None);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_membership_panics_on_encode() {
        let _ = Control::Membership {
            epoch: 1,
            live_mask: 0,
            effective_round: 4,
        }
        .encode();
    }

    #[test]
    fn wire_len_matches_encode() {
        for c in [
            Control::Marker(Marker::sync(2, ChannelMark { round: 77, dc: -3 })),
            Control::ResetRequest { epoch: 1 },
            Control::ResetAck { epoch: 2 },
            Control::Probe { nonce: 3 },
            Control::ProbeAck {
                nonce: 4,
                incarnation: 5,
            },
            Control::DesyncAlert { incarnation: 6 },
            Control::Membership {
                epoch: 5,
                live_mask: 0b11,
                effective_round: 6,
            },
            Control::MembershipAck { epoch: 7 },
            Control::QuantumAnnounce {
                epoch: 8,
                effective_round: 9,
                quanta: vec![1500, 4500, 9000],
            },
            Control::QuantumAnnounce {
                epoch: 8,
                effective_round: 9,
                quanta: vec![1500; 16],
            },
            Control::QuantumAck { epoch: 10 },
        ] {
            assert_eq!(c.wire_len(), c.encode().len(), "{c:?}");
        }
    }

    /// `encode_into` appends (it must compose into a framed buffer without
    /// clobbering the header) and produces exactly `encode`'s bytes.
    #[test]
    fn encode_into_appends_and_matches_encode() {
        let c = Control::QuantumAnnounce {
            epoch: 2,
            effective_round: 33,
            quanta: vec![1500, 9000],
        };
        let mut buf = vec![0xEE, 0xFF];
        c.encode_into(&mut buf);
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
        assert_eq!(&buf[2..], &c.encode()[..]);
    }

    #[test]
    fn epoch_newer_handles_wrap() {
        assert!(epoch_newer(1, 0));
        assert!(epoch_newer(0, u32::MAX)); // wrapped forward by one
        assert!(!epoch_newer(0, 0));
        assert!(!epoch_newer(u32::MAX, 0)); // one step backward, not newer
        assert!(!epoch_newer(5, 9));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Control::decode(&[]), None);
        assert_eq!(Control::decode(&[99, 1, 2, 3]), None);
        assert_eq!(Control::decode(&[TYPE_RESET_REQ, 1]), None); // short
    }

    #[test]
    #[should_panic(expected = "16 channels")]
    fn too_many_channels_panics_on_encode() {
        let _ = Control::QuantumAnnounce {
            epoch: 0,
            effective_round: 0,
            quanta: vec![1; 17],
        }
        .encode();
    }
}
