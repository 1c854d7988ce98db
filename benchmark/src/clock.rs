//! The core clock, measured, and the reference clock timings are reported
//! at.
//!
//! A shared host does not run at one speed. The CPU this was built on
//! steps between turbo bins — 3.3 GHz with its neighbours busy, 4.2 GHz
//! with them idle, 100 MHz steps between — and holds a bin for anything
//! from a second to minutes. Every timing of this single-threaded harness
//! follows the bin exactly (`bulk_1flow_1200B`: 2.225 Mpkt/s at 3.297 GHz,
//! 2.830 at 4.197 GHz, the same ratio to three digits), so two runs of the
//! same code differ by up to 27 % depending on what the neighbours did.
//!
//! The bin can be read: a chain of dependent integer multiplies takes
//! three core cycles a link, so links per nanosecond, times three, *is*
//! the clock in GHz. The harness reads it at every slice edge and around
//! every set-up and reports timings as they would read at
//! [`REF_CLOCK_GHZ`]: a duration taken at clock `c` is multiplied by
//! `c / REF_CLOCK_GHZ`, a rate divided by it. What is left after that is
//! what the program did with its cycles.

use std::time::Instant;

/// The clock timings are reported at. The all-core turbo bin of the
/// machine the reference numbers were taken on, so that there a reading
/// in the usual state is the reading as measured; on any other machine it
/// is merely the unit.
pub const REF_CLOCK_GHZ: f64 = 3.3;

/// Multiplies per timing: a chain of 16 384 dependent multiplies is
/// 49 152 cycles, 15 µs at 3.3 GHz — long against the 25 ns the clock
/// read costs, short against anything the host does to the thread.
const CHAIN: u64 = 8;
const ROUNDS: u64 = 2048;
/// Cycles from one integer multiply to the next that needs its result:
/// three on every x86-64 core of the last fifteen years, Intel or AMD.
const MUL_LATENCY: u64 = 3;
/// Timings per reading; the fastest stands (an interrupt only ever makes
/// one slower).
const TRIES: usize = 3;

/// `ROUNDS * CHAIN` multiplies, each waiting for the last. Latency-bound,
/// so neither the loop's own bookkeeping (it runs in the multiplies'
/// shadow) nor code alignment moves it; a countdown of `sub`/`jnz` does
/// not do, because recent cores fold it in the renamer and retire two a
/// cycle at some call sites and one at others. Never inlined, so every
/// reading runs the same bytes.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn multiply_chain() {
    // SAFETY: register-only arithmetic and a local branch; no memory, no
    // stack, nothing observable beyond the two clobbered registers and
    // the flags.
    unsafe {
        std::arch::asm!(
            "2:",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "imul {x}, {x}",
            "sub {n}, 1",
            "jnz 2b",
            x = inout(reg) 3u64 => _,
            n = inout(reg) ROUNDS => _,
            options(nomem, nostack),
        );
    }
}

/// The core clock right now, GHz. Where there is no multiply chain for
/// the architecture this is the reference clock, and nothing is rescaled.
pub fn core_clock_ghz() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let fastest_ns = (0..TRIES)
            .map(|_| {
                let t = Instant::now();
                multiply_chain();
                t.elapsed().as_nanos().max(1) as u64
            })
            .min()
            .expect("TRIES > 0");
        (ROUNDS * CHAIN * MUL_LATENCY) as f64 / fastest_ns as f64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (Instant::now(), CHAIN, ROUNDS, MUL_LATENCY, TRIES);
        REF_CLOCK_GHZ
    }
}

/// A duration measured at clock `ghz`, as it would read at the reference
/// clock. (Divide a rate by the same factor.)
pub fn at_ref(duration: f64, ghz: f64) -> f64 {
    duration * ghz / REF_CLOCK_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_reads_like_a_cpu() {
        let a = core_clock_ghz();
        let b = core_clock_ghz();
        assert!((0.2..10.0).contains(&a), "{a} GHz");
        // Two readings a few microseconds apart sit in the same or a
        // neighbouring bin.
        assert!((a - b).abs() / a < 0.35, "{a} vs {b}");
    }

    #[test]
    fn rescaling_is_proportional() {
        assert_eq!(at_ref(100.0, REF_CLOCK_GHZ), 100.0);
        // 100 µs taken at a clock a quarter faster is 125 µs of work at
        // the reference clock.
        assert!((at_ref(100.0, REF_CLOCK_GHZ * 1.25) - 125.0).abs() < 1e-9);
    }
}
