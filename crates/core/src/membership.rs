//! The 16-bit wire form of a live-channel mask.
//!
//! When the liveness layer ([`crate::liveness`]) declares a channel dead,
//! both ends must stop scheduling it at the same scan round or their SRR
//! simulations diverge. The agreement itself is the epoch'd handshake in
//! [`crate::handshake`]; this module is only the payload's codec: bit `c`
//! of the mask in [`Control::Membership`] is channel `c`. Growing the set
//! back is the same message with more bits set — a re-entering channel
//! restarts from a zero deficit on both ends (see `Srr::schedule_mask`), so
//! no per-channel state is exchanged.
//!
//! [`Control::Membership`]: crate::control::Control::Membership

use crate::handshake::HandshakeError;

/// Pack a live vector into the 16-bit wire mask (bit `c` = channel `c`),
/// or report [`HandshakeError::TooManyChannels`] if it cannot fit.
pub fn vec_to_mask(live: &[bool]) -> Result<u16, HandshakeError> {
    if live.len() > 16 {
        return Err(HandshakeError::TooManyChannels { got: live.len() });
    }
    Ok(live
        .iter()
        .enumerate()
        .fold(0u16, |m, (c, &l)| if l { m | (1 << c) } else { m }))
}

/// Unpack a 16-bit wire mask into a live vector over `channels` channels.
pub fn mask_to_vec(mask: u16, channels: usize) -> Vec<bool> {
    (0..channels).map(|c| mask & (1 << c) != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip() {
        let v = vec![true, false, true, true];
        assert_eq!(vec_to_mask(&v), Ok(0b1101));
        assert_eq!(mask_to_vec(0b1101, 4), v);
    }

    #[test]
    fn oversized_mask_is_an_error_not_a_panic() {
        let v = vec![true; 17];
        assert_eq!(
            vec_to_mask(&v),
            Err(HandshakeError::TooManyChannels { got: 17 })
        );
    }
}
