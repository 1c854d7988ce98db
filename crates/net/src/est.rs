//! Online per-channel estimation: the evidence half of the adaptive
//! striping control plane.
//!
//! The paper's SRR striper assumes channel rates are known and fixed;
//! real channel sets drift. [`ChannelEstimator`] turns the raw
//! evidence the datapath already produces — cumulative
//! [`TxEvidence`](stripe_link::TxEvidence) counters from each
//! [`DatagramLink`](stripe_link::DatagramLink), and the liveness
//! tracker's probe/ack nonces — into two smoothed per-channel
//! figures:
//!
//! - **goodput** (bytes/s): an EWMA over the carried-byte rate between
//!   successive evidence samples. Under a `chaos` token-bucket plan
//!   the carried bytes are post-policer, so the estimate converges to
//!   the scripted capacity — reproducible ground truth.
//! - **RTT** (ns): Jacobson/Karels smoothed RTT + variance from probe
//!   send/ack timestamps. Probes are serialized per channel by the
//!   liveness tracker, so one outstanding-probe slot per channel
//!   suffices — no allocation, no map.
//!
//! Everything here is pull-based and allocation-free after
//! construction: the reactor samples each link once per estimation
//! tick and reads the smoothed values out when the tuner runs. The
//! estimators never act — mapping estimates to quanta is
//! `stripe_core::sched::tuner`'s job.

use stripe_link::TxEvidence;

/// Default EWMA gain for goodput: 1/4 — fast enough to track a
/// capacity change within a handful of estimation ticks, slow enough to
/// ride out per-tick burstiness from batched pumps.
pub const DEFAULT_GAIN: f64 = 0.25;

/// An exponentially weighted moving average that reports its prime
/// state: the first sample seeds the average instead of being blended
/// with a meaningless zero.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    value: f64,
    gain: f64,
    primed: bool,
}

impl Ewma {
    /// An empty average with blend factor `gain` in `(0, 1]` (the
    /// weight of each new sample).
    ///
    /// # Panics
    /// Panics unless `0 < gain <= 1`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "EWMA gain {gain} out of (0,1]");
        Self {
            value: 0.0,
            gain,
            primed: false,
        }
    }

    /// Blend one sample in.
    pub fn sample(&mut self, x: f64) {
        if self.primed {
            self.value += self.gain * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
    }

    /// The current average (0.0 until the first sample).
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Whether at least one sample has been blended.
    pub fn primed(&self) -> bool {
        self.primed
    }
}

/// Smoothed goodput and RTT for one striped channel.
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    goodput: Ewma,
    /// Jacobson state, in nanoseconds.
    srtt_ns: f64,
    rttvar_ns: f64,
    rtt_primed: bool,
    /// Previous cumulative evidence sample and its timestamp.
    last: Option<(u64, TxEvidence)>,
    /// The probe in flight: (nonce, sent-at ns). Probes are serialized
    /// per channel, so one slot is enough; a newer probe overwrites an
    /// unanswered older one (whose ack, if it ever lands, is ignored).
    probe: Option<(u64, u64)>,
    tx_samples: u64,
    rtt_samples: u64,
}

impl Default for ChannelEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_GAIN)
    }
}

impl ChannelEstimator {
    /// An estimator with the given EWMA gain for goodput.
    pub fn new(gain: f64) -> Self {
        Self {
            goodput: Ewma::new(gain),
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            rtt_primed: false,
            last: None,
            probe: None,
            tx_samples: 0,
            rtt_samples: 0,
        }
    }

    /// Feed one cumulative evidence sample taken at `now_ns`. The
    /// first sample only anchors the window; each later one blends the
    /// window's byte rate into the average. A counter regression (a
    /// link incarnation that lost its counters) re-anchors instead of
    /// producing a garbage negative delta.
    pub fn on_tx_sample(&mut self, now_ns: u64, ev: TxEvidence) {
        let Some((then_ns, prev)) = self.last else {
            self.last = Some((now_ns, ev));
            return;
        };
        if ev.bytes < prev.bytes || ev.frames < prev.frames || ev.dropped < prev.dropped {
            self.last = Some((now_ns, ev));
            return;
        }
        let dt_ns = now_ns.saturating_sub(then_ns);
        if dt_ns == 0 {
            return;
        }
        let dbytes = ev.bytes - prev.bytes;
        self.goodput.sample(dbytes as f64 * 1e9 / dt_ns as f64);
        self.last = Some((now_ns, ev));
        self.tx_samples += 1;
    }

    /// Record a liveness probe leaving at `now_ns` carrying `nonce`.
    pub fn on_probe_sent(&mut self, nonce: u64, now_ns: u64) {
        self.probe = Some((nonce, now_ns));
    }

    /// Record a probe ack arriving at `now_ns`. Only the outstanding
    /// nonce produces an RTT sample (Karn's rule falls out for free:
    /// a retransmitted probe has a new nonce, so a stale ack cannot
    /// alias onto the wrong send time).
    pub fn on_probe_ack(&mut self, nonce: u64, now_ns: u64) {
        let Some((want, sent_ns)) = self.probe else {
            return;
        };
        if nonce != want {
            return;
        }
        self.probe = None;
        let s = now_ns.saturating_sub(sent_ns) as f64;
        if self.rtt_primed {
            // Jacobson/Karels: g = 1/8, h = 1/4.
            self.rttvar_ns += 0.25 * ((s - self.srtt_ns).abs() - self.rttvar_ns);
            self.srtt_ns += 0.125 * (s - self.srtt_ns);
        } else {
            self.srtt_ns = s;
            self.rttvar_ns = s / 2.0;
            self.rtt_primed = true;
        }
        self.rtt_samples += 1;
    }

    /// Smoothed carried-byte rate in bytes/second (0.0 until two
    /// evidence samples have landed).
    pub fn goodput_bps(&self) -> f64 {
        self.goodput.get()
    }

    /// Smoothed RTT in nanoseconds, once a probe ack has been paired.
    pub fn srtt_ns(&self) -> Option<u64> {
        self.rtt_primed.then_some(self.srtt_ns as u64)
    }

    /// RTT variance in nanoseconds (Jacobson's `rttvar`).
    pub fn rttvar_ns(&self) -> Option<u64> {
        self.rtt_primed.then_some(self.rttvar_ns as u64)
    }

    /// Whether the goodput average has at least one blended window.
    pub fn primed(&self) -> bool {
        self.goodput.primed()
    }

    /// Evidence windows blended so far.
    pub fn tx_samples(&self) -> u64 {
        self.tx_samples
    }

    /// Probe RTT samples blended so far.
    pub fn rtt_samples(&self) -> u64 {
        self.rtt_samples
    }
}

/// Normalize per-channel goodput estimates into shares summing to 1.0,
/// writing into `out` (cleared). Channels with unprimed or zero
/// estimates get an equal split of whatever is unknown — so a cold
/// start proposes equal shares rather than starving anyone.
pub fn rate_shares(ests: &[ChannelEstimator], out: &mut Vec<f64>) {
    out.clear();
    let total: f64 = ests.iter().map(|e| e.goodput_bps().max(0.0)).sum();
    if total <= 0.0 {
        let n = ests.len().max(1);
        out.extend(std::iter::repeat_n(1.0 / n as f64, ests.len()));
        return;
    }
    out.extend(ests.iter().map(|e| e.goodput_bps().max(0.0) / total));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(frames: u64, bytes: u64, dropped: u64) -> TxEvidence {
        TxEvidence {
            frames,
            bytes,
            dropped,
        }
    }

    #[test]
    fn goodput_converges_to_constant_rate() {
        let mut e = ChannelEstimator::default();
        // 1000 bytes every millisecond = 1e6 bytes/s.
        for i in 0..50u64 {
            e.on_tx_sample(i * 1_000_000, ev(i, i * 1000, 0));
        }
        let bps = e.goodput_bps();
        assert!(
            (bps - 1e6).abs() < 1e-3,
            "constant-rate evidence must converge exactly: {bps}"
        );
    }

    #[test]
    fn shares_recover_a_4_2_1_split() {
        let mut ests = vec![ChannelEstimator::default(); 3];
        let caps = [4000u64, 2000, 1000];
        for i in 0..100u64 {
            for (e, &cap) in ests.iter_mut().zip(&caps) {
                e.on_tx_sample(i * 1_000_000, ev(i, i * cap, 0));
            }
        }
        let mut shares = Vec::new();
        rate_shares(&ests, &mut shares);
        let want = [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0];
        for (got, want) in shares.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "shares {shares:?}");
        }
    }

    #[test]
    fn rate_change_tracks_within_a_few_windows() {
        let mut e = ChannelEstimator::new(0.25);
        let mut bytes = 0u64;
        for i in 0..20u64 {
            bytes += 1000;
            e.on_tx_sample(i * 1_000_000, ev(i, bytes, 0));
        }
        // Capacity halves.
        for i in 20..60u64 {
            bytes += 500;
            e.on_tx_sample(i * 1_000_000, ev(i, bytes, 0));
        }
        let bps = e.goodput_bps();
        assert!(
            (bps - 5e5).abs() / 5e5 < 0.01,
            "estimate must track the new rate: {bps}"
        );
    }

    #[test]
    fn counter_regression_reanchors_instead_of_exploding() {
        let mut e = ChannelEstimator::default();
        e.on_tx_sample(0, ev(10, 10_000, 0));
        e.on_tx_sample(1_000_000, ev(20, 20_000, 0));
        let before = e.goodput_bps();
        // A rebuilt incarnation that lost its counters.
        e.on_tx_sample(2_000_000, ev(1, 1000, 0));
        assert_eq!(e.goodput_bps(), before, "regression must not sample");
        e.on_tx_sample(3_000_000, ev(2, 2000, 0));
        assert!(e.goodput_bps() > 0.0);
    }

    #[test]
    fn rtt_pairs_only_the_outstanding_nonce() {
        let mut e = ChannelEstimator::default();
        e.on_probe_sent(7, 1_000);
        e.on_probe_ack(99, 5_000); // stale/foreign ack: ignored
        assert_eq!(e.srtt_ns(), None);
        e.on_probe_ack(7, 11_000);
        assert_eq!(e.srtt_ns(), Some(10_000));
        assert_eq!(e.rttvar_ns(), Some(5_000));
        // A second ack for the same nonce is not double-counted.
        e.on_probe_ack(7, 50_000);
        assert_eq!(e.rtt_samples(), 1);
    }

    #[test]
    fn jacobson_smooths_toward_new_rtt() {
        let mut e = ChannelEstimator::default();
        for i in 0..64u64 {
            e.on_probe_sent(i, i * 1_000_000);
            e.on_probe_ack(i, i * 1_000_000 + 2_000_000);
        }
        let srtt = e.srtt_ns().unwrap();
        assert!(
            (srtt as i64 - 2_000_000).abs() < 1_000,
            "constant RTT must converge: {srtt}"
        );
        assert!(e.rttvar_ns().unwrap() < 100_000);
    }

    #[test]
    fn cold_start_shares_are_equal() {
        let ests = vec![ChannelEstimator::default(); 4];
        let mut shares = Vec::new();
        rate_shares(&ests, &mut shares);
        assert_eq!(shares, vec![0.25; 4]);
    }
}
