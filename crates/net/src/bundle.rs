//! Bundle segments: short frames riding a long GSO train.
//!
//! A GSO train is a run of equal segments, the last one possibly
//! shorter, so one frame shorter than the train's segment size used to
//! end the train there. The send planner ([`crate::sys`]) packs such a
//! frame, and the shorter frames queued directly behind it, into one
//! **bundle**: a segment of its own, no longer than the train's, which
//! carries the frames byte for byte, in queue order.
//!
//! | offset     | size | field                                   |
//! |------------|------|-----------------------------------------|
//! | 0          | 1    | magic ([`MAGIC`], `0xB5`)               |
//! | 1          | 1    | count `k`, 1 to 255                     |
//! | 2          | 2k   | each frame's length, `u16` LE           |
//! | 2 + 2k     | …    | the `k` frames, back to back            |
//! | …          | …    | zeros, up to the train's segment size   |
//!
//! This is a link-level container, below the striping layer: no frame in
//! it is touched, a channel's frame sequence is what its sender queued,
//! and the magic collides with neither the frame magic (`0xC5`, three
//! bits away) nor the marker magic (`0x53`).
//!
//! **The escape.** "A segment that starts with the magic is a bundle"
//! must hold for every datagram, so a frame that itself starts with the
//! magic never leaves plain: it leaves as a bundle of one, on both
//! syscall paths. **One level:** a receiver opens a bundle once and hands
//! its frames on as they are — an escaped frame is not unwrapped again.
//!
//! A segment that starts with the magic but is not a well-formed bundle
//! (count 0, a header cut short, lengths that overrun it) is passed on
//! whole, one frame, for the frame parser to refuse as malformed.

use stripe_link::Train;

use crate::frame::DecodeError;

/// First byte of every bundle segment.
pub const MAGIC: u8 = 0xB5;

/// Most frames one bundle carries (its count is one byte).
pub const MAX_FRAMES: usize = 255;

/// Bytes of a bundle's header: magic, count and `k` lengths.
pub const fn header_len(k: usize) -> usize {
    2 + 2 * k
}

/// Bytes the escape adds to a frame: a bundle of one's header.
pub const ESCAPE_LEN: usize = header_len(1);

/// Whether `frame` must leave as a bundle of one.
#[inline]
pub fn needs_escape(frame: &[u8]) -> bool {
    frame.first() == Some(&MAGIC)
}

/// Append the header of a bundle of frames of lengths `lens` (at most
/// [`MAX_FRAMES`]) to `out`.
pub fn push_header(lens: impl ExactSizeIterator<Item = usize>, out: &mut Vec<u8>) {
    debug_assert!((1..=MAX_FRAMES).contains(&lens.len()));
    out.extend_from_slice(&[MAGIC, lens.len() as u8]);
    for n in lens {
        out.extend_from_slice(&(n as u16).to_le_bytes());
    }
}

/// Append `frame` to `out` (cleared first) as a bundle of one.
pub fn escape_into(frame: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_header(std::iter::once(frame.len()), out);
    out.extend_from_slice(frame);
}

/// The frames of one bundle segment not handed out yet: a cursor of
/// offsets into the segment that borrows nothing, so a reader can keep
/// it between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frames {
    /// Offset of the next frame's length.
    len_at: usize,
    /// Offset of the next frame.
    at: usize,
    left: usize,
}

impl Frames {
    /// Check that `seg` is a well-formed bundle and point at its first
    /// frame.
    pub fn open(seg: &[u8]) -> Result<Self, DecodeError> {
        let k = match seg {
            [MAGIC, k, ..] if *k > 0 => *k as usize,
            _ => return Err(DecodeError::Malformed),
        };
        let at = header_len(k);
        let lens = seg.get(2..at).ok_or(DecodeError::Malformed)?;
        let body: usize = lens
            .chunks_exact(2)
            .map(|l| u16::from_le_bytes([l[0], l[1]]) as usize)
            .sum();
        if body > seg.len() - at {
            return Err(DecodeError::Malformed);
        }
        Ok(Self {
            len_at: 2,
            at,
            left: k,
        })
    }

    /// Frames left.
    pub fn len(&self) -> usize {
        self.left
    }

    /// Whether every frame has been handed out.
    pub fn is_empty(&self) -> bool {
        self.left == 0
    }

    /// `(offset, length)` in `seg` — the segment this was opened on — of
    /// the next frame.
    pub fn next_in(&mut self, seg: &[u8]) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        let n = u16::from_le_bytes([seg[self.len_at], seg[self.len_at + 1]]) as usize;
        let at = self.at;
        (self.len_at, self.at, self.left) = (self.len_at + 2, at + n, self.left - 1);
        Some((at, n))
    }

    /// The frames left, as `(offset, length)` pairs in `seg`.
    pub fn iter(mut self, seg: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
        std::iter::from_fn(move || self.next_in(seg))
    }

    /// Write as many of the frames left (at least one) as fit in `out`
    /// into it, as a bundle of their own, and move past them; the bytes
    /// written. A first frame that does not fit even alone is cut to
    /// fit, as the kernel cuts a datagram longer than the window it
    /// lands in.
    pub fn pack_into(&mut self, seg: &[u8], out: &mut [u8]) -> usize {
        debug_assert!(!self.is_empty() && out.len() >= ESCAPE_LEN);
        let (mut k, mut body, mut probe) = (0, 0, *self);
        while let Some((_, n)) = probe.next_in(seg) {
            if header_len(k + 1) + body + n > out.len() {
                break;
            }
            (k, body) = (k + 1, body + n);
        }
        let (lens, at) = (self.len_at, self.at);
        if k == 0 {
            let (_, n) = self.next_in(seg).expect("a frame is left");
            let cut = n.min(out.len() - ESCAPE_LEN);
            out[..2].copy_from_slice(&[MAGIC, 1]);
            out[2..ESCAPE_LEN].copy_from_slice(&(cut as u16).to_le_bytes());
            out[ESCAPE_LEN..][..cut].copy_from_slice(&seg[at..at + cut]);
            return ESCAPE_LEN + cut;
        }
        out[..2].copy_from_slice(&[MAGIC, k as u8]);
        out[2..header_len(k)].copy_from_slice(&seg[lens..lens + 2 * k]);
        out[header_len(k)..][..body].copy_from_slice(&seg[at..at + body]);
        (self.len_at, self.at, self.left) = (lens + 2 * k, at + body, self.left - k);
        header_len(k) + body
    }
}

/// `(offset, length)` in `window` of every frame of the train landed
/// there: its segments, each bundle among them opened (one level).
pub fn frames_of(window: &[u8], t: Train) -> impl Iterator<Item = (usize, usize)> + '_ {
    t.frames().flat_map(move |(at, n)| {
        let seg = &window[at..at + n];
        let inner = Frames::open(seg).ok().map(|f| f.iter(seg));
        let whole = inner.is_none().then_some((0, n));
        inner
            .into_iter()
            .flatten()
            .chain(whole)
            .map(move |(off, len)| (at + off, len))
    })
}

/// How many frames [`frames_of`] yields: one byte read per segment —
/// only a bundle starts with the magic — and a bundle's header, not its
/// frames. It runs on every train landed, so it is a plain loop.
pub fn count(window: &[u8], t: Train) -> usize {
    let (w, seg) = (&window[..t.bytes], t.seg.max(1));
    let mut frames = t.bytes.div_ceil(seg).max(1);
    let mut at = 0;
    while at < w.len() {
        if w[at] == MAGIC {
            frames += Frames::open(&w[at..w.len().min(at + seg)]).map_or(0, |f| f.len() - 1);
        }
        at += seg;
    }
    frames
}
