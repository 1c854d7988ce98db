//! Shared primitive types for the striping algorithms.

use crate::sched::ChannelMark;

/// Index of a channel in a striping group.
///
/// Channels are numbered `0..N` identically at the sender and receiver; the
/// synchronization protocol of §5 requires both ends to visit channels in
/// increasing channel-number order (condition C2), which markers enforce by
/// carrying the sender's channel number.
pub type ChannelId = usize;

/// Anything with a length that counts against a channel's deficit counter.
///
/// The striping algorithms never look inside a packet — the paper's central
/// constraint is that data packets are *not modified* — so the only property
/// they consume is the wire length.
pub trait WireLen {
    /// Length in bytes as it will occupy the channel.
    fn wire_len(&self) -> usize;

    /// The packet's own implicit number, where the layer below has a
    /// header of its own to state it in (§4's "when headers can be
    /// added"): the `(round, dc)` the sender's scheduler held on the
    /// packet's channel when it served this packet. `None` wherever data
    /// travels untouched, which is everywhere but the socket path's
    /// mark-field frames.
    fn number(&self) -> Option<ChannelMark> {
        None
    }
}

impl WireLen for usize {
    fn wire_len(&self) -> usize {
        *self
    }
}

impl WireLen for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }
}

impl WireLen for &[u8] {
    fn wire_len(&self) -> usize {
        self.len()
    }
}

/// Zero-copy payloads stripe by their view length. `Bytes` is the payload
/// type of the batched datapath: clones share storage, so fan-out to
/// channels never copies bytes.
impl WireLen for bytes::Bytes {
    fn wire_len(&self) -> usize {
        self.len()
    }
}

/// A minimal packet used by tests, examples and the simulation harnesses:
/// a sequential identity plus a wire length.
///
/// The `id` is *not* transmitted by the striping protocol (that would violate
/// the no-header-modification constraint); it exists so experiments can
/// observe delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestPacket {
    /// Send-order identity (0, 1, 2, ...).
    pub id: u64,
    /// Wire length in bytes.
    pub len: usize,
}

impl TestPacket {
    /// Create a packet with the given send-order id and length.
    pub fn new(id: u64, len: usize) -> Self {
        Self { id, len }
    }
}

impl WireLen for TestPacket {
    fn wire_len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_of_usize_is_identity() {
        assert_eq!(1500usize.wire_len(), 1500);
    }

    #[test]
    fn wire_len_of_bytes_is_len() {
        let v = vec![0u8; 53];
        assert_eq!(v.wire_len(), 53);
        assert_eq!((&v[..]).wire_len(), 53);
        assert_eq!(bytes::Bytes::from(v).wire_len(), 53);
    }

    #[test]
    fn test_packet_reports_len() {
        let p = TestPacket::new(7, 640);
        assert_eq!(p.wire_len(), 640);
        assert_eq!(p.id, 7);
    }
}
