//! The send planner against the bundle decoder, exhaustively at small N.
//!
//! Every queue of up to five frames over lengths around one segment size
//! — empty, tiny, both sides of the smallest bundle of one, one short of
//! the segment, the segment, one over, and a frame that starts with the
//! bundle magic — is planned at each GSO ceiling a socket can be left
//! with (off, 2, 64, 128), its frames in buffers of their own (and, up
//! to four frames, back to back in one). Pure: no socket, just `SendPlanner` and the bundle
//! decoder. For every plan:
//!
//! - **round trip**: each message cut at its `UDP_SEGMENT` size, its
//!   bundles opened, gives back the queue in order;
//! - **legal sends**: every message is one a kernel takes — equal
//!   segments but a shorter last one, no more than the ceiling's, at
//!   most 65 507 bytes and 1 024 pieces — and with GSO off a message is
//!   one frame;
//! - **uniform traffic is untouched**: a queue of one length plans
//!   exactly as the planner before bundles did — messages, pieces,
//!   `UDP_SEGMENT` values — which pins `bulk`, `small` and `paced` to the
//!   send path they had.

use stripe::net::bundle;
use stripe::net::sys::{PlannedMessage, SendPlanner, GSO_MAX_BYTES, MAX_PIECES};

const SEG: usize = 16;
/// In [`LENS`]: a frame of `SEG - 4` bytes that starts with the magic,
/// the longest that fits a `SEG` train as a bundle of one.
const ESCAPED: usize = usize::MAX;
const LENS: [usize; 9] = [0, 1, 3, SEG - 5, SEG - 4, SEG - 1, SEG, SEG + 1, ESCAPED];
const CEILINGS: [usize; 4] = [1, 2, 64, 128];
const MAX_QUEUE: usize = 5;

/// A message as the planner before bundles would have seen it.
#[derive(Debug, PartialEq, Eq)]
struct Message {
    frames: usize,
    pieces: usize,
    gso_size: Option<u16>,
}

/// The planner of the parent commit, on frames of one length: trains of
/// equal frames up to the ceiling, a frame back to back with the one
/// before it extending that piece, an empty frame alone.
fn parent_plan(frames: &[&[u8]], ceiling: usize, out: &mut Vec<Message>) {
    let mut at = 0;
    while at < frames.len() {
        let lead = frames[at].len();
        let most = ceiling.min(GSO_MAX_BYTES / lead.max(1)).max(1);
        let end = frames.len().min(at + most);
        let (mut i, mut pieces, mut piece_end) = (at, 0, None);
        loop {
            let f = frames[i];
            if piece_end != Some(f.as_ptr() as usize) {
                pieces += 1;
            }
            piece_end = Some(f.as_ptr() as usize + f.len());
            i += 1;
            if i == end || f.len() != lead || frames[i].is_empty() || frames[i].len() > lead {
                break;
            }
        }
        out.push(Message {
            frames: i - at,
            pieces,
            gso_size: (i - at >= 2).then_some(lead as u16),
        });
        at = i;
    }
}

/// Check one planned message against the queue it came from, from
/// `next` on; the frames it carried.
fn check_message(
    m: &PlannedMessage<'_>,
    ceiling: usize,
    want: &[&[u8]],
    next: usize,
    datagram: &mut Vec<u8>,
) -> usize {
    datagram.clear();
    m.pieces.iter().for_each(|p| datagram.extend_from_slice(p));
    let bytes = datagram.len();
    assert!(
        bytes <= GSO_MAX_BYTES && m.pieces.len() <= MAX_PIECES,
        "{m:?}"
    );
    assert!(m.segments <= ceiling, "{m:?}");
    let seg = match m.gso_size {
        Some(s) => {
            let s = s as usize;
            assert!(
                s > 0 && m.segments >= 2 && m.segments == bytes.div_ceil(s),
                "{m:?}"
            );
            s
        }
        None => {
            // A datagram sent whole is one frame, or its escape.
            assert_eq!((m.segments, m.frames), (1, 1), "{m:?}");
            bytes
        }
    };
    // Cut at the segment size (an empty datagram is one empty segment),
    // each bundle opened — `bundle::frames_of`, by hand: this is the
    // inner loop of half a million plans in a debug build.
    let (mut at, mut k) = (0, 0);
    loop {
        let segment = &datagram[at..bytes.min(at + seg)];
        let mut take = |frame: &[u8]| {
            assert_eq!(frame, want[next + k], "frame {} of {want:?}", next + k);
            k += 1;
        };
        match bundle::Frames::open(segment) {
            Ok(mut frames) => {
                while let Some((off, n)) = frames.next_in(segment) {
                    take(&segment[off..off + n]);
                }
            }
            Err(_) => take(segment),
        }
        at += segment.len();
        if at >= bytes {
            break;
        }
    }
    assert_eq!(k, m.frames, "{m:?}");
    k
}

#[test]
fn every_small_queue_plans_legal_sends_that_split_back_into_it() {
    let mut planners: Vec<SendPlanner> = CEILINGS.iter().map(|&c| SendPlanner::new(8, c)).collect();
    let (mut mem, mut datagram) = (Vec::new(), Vec::new());
    let (mut got, mut prev, mut parent) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plans, mut bundled) = (0, 0);
    for len in 1..=MAX_QUEUE {
        for code in 0..LENS.len().pow(len as u32) {
            let mut picks = [0; MAX_QUEUE];
            (0..len).for_each(|i| picks[i] = code / LENS.len().pow(i as u32) % LENS.len());
            let picks = &picks[..len];
            // Back to back only up to four frames: the fifth would double
            // the half of the run it already is, in a debug build.
            for &gap in if len < MAX_QUEUE { &[1, 0][..] } else { &[1] } {
                // Frame `i` is `i + 1` repeated, or the magic and then
                // that; `gap` bytes apart.
                mem.clear();
                let mut spans = [(0, 0); MAX_QUEUE];
                for (i, &pick) in picks.iter().enumerate() {
                    let at = mem.len();
                    match LENS[pick] {
                        ESCAPED => {
                            mem.push(bundle::MAGIC);
                            mem.resize(at + SEG - 4, i as u8 + 1);
                        }
                        n => mem.resize(at + n, i as u8 + 1),
                    }
                    spans[i] = (at, mem.len());
                    mem.resize(mem.len() + gap, 0xEE);
                }
                let mut frames: [&[u8]; MAX_QUEUE] = [&[]; MAX_QUEUE];
                (0..len).for_each(|i| frames[i] = &mem[spans[i].0..spans[i].1]);
                let frames = &frames[..len];
                let uniform = picks.iter().all(|&p| p == picks[0] && LENS[p] != ESCAPED);
                for (planner, &ceiling) in planners.iter_mut().zip(&CEILINGS) {
                    // Five frames never reach 64 segments: at 128 the plan
                    // must be the one checked at 64 (and is not checked
                    // again — half a million plans, in a debug build).
                    let unbound = ceiling > 64;
                    let mut next = 0;
                    std::mem::swap(&mut got, &mut prev);
                    got.clear();
                    planner.each_message(frames, |m| {
                        next += match unbound {
                            true => m.frames,
                            false => check_message(m, ceiling, frames, next, &mut datagram),
                        };
                        bundled += (m.frames > m.segments) as u64;
                        got.push(Message {
                            frames: m.frames,
                            pieces: m.pieces.len(),
                            gso_size: m.gso_size,
                        });
                    });
                    assert_eq!(next, frames.len(), "{picks:?} at ceiling {ceiling}");
                    assert!(
                        !unbound || got == prev,
                        "{picks:?}: 64 and {ceiling} differ"
                    );
                    if uniform {
                        parent.clear();
                        parent_plan(frames, ceiling, &mut parent);
                        assert_eq!(got, parent, "{picks:?} at ceiling {ceiling}, gap {gap}");
                    }
                    plans += 1;
                }
            }
        }
    }
    assert_eq!(plans, 4 * (2 * (9 + 81 + 729 + 6561) + 59049));
    assert!(bundled > 0, "some bundle carries two frames or more");
}
