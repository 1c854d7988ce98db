//! Link-layer death over real sockets ends in *failover*, never a
//! process abort: a peer socket disappears (`ECONNREFUSED` echoes) →
//! the channel's decaying refusal score retires it, the reactor
//! short-circuits the keepalive deadline, and a shrunken mask is
//! announced on the surviving channel. Gated on the ICMP echo actually
//! arriving, so the test is a no-op on hosts that don't report refusals
//! on loopback.

use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::DatagramLink;
use stripe::net::{membership_announced, ServerReactor, StripeServer, UdpChannel};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const QUANTUM: i64 = 1500;
/// Probes effectively disabled: only link-layer evidence may declare
/// death in this test, never the silence deadline. The lifecycle
/// machine derives its cooldowns from the same interval, so no rebind
/// fires within the test horizon either — death stays terminal *here*,
/// by configuration; the full die → rejoin walk is `flap_soak.rs`.
const SLOW_PROBE_NS: u64 = 1_000_000_000_000;

#[test]
fn refused_socket_ends_in_failover_not_abort() {
    const CHANNELS: usize = 2;
    let (a0, _b0) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let (a1, b1) = UdpChannel::pair(2048, 1 << 12).unwrap();
    drop(b1); // channel 1's peer vanishes: sends echo ICMP refusals

    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(vec![a0, a1])
        .build();
    let flow = path.open_flow().unwrap();
    let driver = FailoverDriver::new(
        CHANNELS,
        FailoverConfig::with_probe_interval(SLOW_PROBE_NS),
        SimTime::ZERO,
    );
    let mut reactor = ServerReactor::new(
        path,
        Some(driver),
        SimTime::ZERO,
        SimDuration::from_millis(1),
    );

    let mut events = Vec::new();
    let mut announced = false;
    for i in 0..10_000u64 {
        for _ in 0..4 {
            reactor.path_mut().enqueue(flow, &[0x33; 200]).unwrap();
        }
        reactor
            .path_mut()
            .pump_into(SimTime::from_micros(i * 100), usize::MAX, &mut events);
        let reports = reactor.poll(SimTime::from_micros(i * 100));
        announced |= membership_announced(&reports);
        if announced {
            break;
        }
    }

    let refused = reactor.path().links()[1].stats().transient_refused;
    if refused > 0 {
        // The ICMP echo reached us (Linux loopback): persistent refusal
        // must have retired the channel through the reactor, with the
        // shrunken mask announced on the survivor.
        assert!(announced, "refused channel never failed over");
        let driver = reactor.driver().expect("driver attached");
        assert_eq!(driver.liveness().deaths(), 1);
        assert_eq!(driver.liveness().live_mask(), vec![true, false]);
        assert_eq!(reactor.stats().link_dead_reports, 1);
        assert!(reactor.path().links()[1].link_dead());
    }
}
