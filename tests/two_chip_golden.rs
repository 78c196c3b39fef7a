//! Golden two-chip run: bursty bidirectional cross-chip traffic through
//! both gateways and the serial off-chip link, pinned to the values the
//! sequential system produced when recorded. Any change to the gateway,
//! link or per-cycle stepping order of `MultiChipSim` moves a number
//! here.

use ocin::core::ids::NodeId;
use ocin::core::NetworkConfig;
use ocin::services::GlobalAddress;
use ocin::sim::{GlobalDelivery, MultiChipSim};

fn addr(chip: u8, node: u16) -> GlobalAddress {
    GlobalAddress::new(chip, node.into())
}

fn two_chip_traffic(sys: &mut MultiChipSim) {
    // Saturates the 4-cycle link serializer and forces arrival
    // retries, plus local sends that never leave chip 0.
    for i in 0..24u64 {
        sys.send(
            addr(0, (i % 5) as u16),
            addr(1, 8 + (i % 6) as u16),
            vec![i, i * 3],
        );
        if i % 3 == 0 {
            sys.send(
                addr(1, (i % 7) as u16),
                addr(0, (13 - i % 4) as u16),
                vec![!i],
            );
        }
        if i % 5 == 0 {
            sys.send(
                addr(0, (i % 4) as u16),
                addr(0, 15 - (i % 3) as u16),
                vec![i],
            );
        }
    }
}

/// FNV-1a over every delivery's timing and datagram, in delivery order.
fn digest(deliveries: &[GlobalDelivery]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in deliveries {
        eat(d.sent_at);
        eat(d.delivered_at);
        for a in [d.dgram.src, d.dgram.dst] {
            eat(u64::from(a.chip));
            eat(a.node.index() as u64);
        }
        eat(d.dgram.words.len() as u64);
        for &w in &d.dgram.words {
            eat(w);
        }
    }
    h
}

#[test]
fn two_chip_run_matches_golden() {
    let mut sys = MultiChipSim::new(NetworkConfig::paper_baseline(), NodeId::new(3), 4, 10)
        .expect("valid config");
    two_chip_traffic(&mut sys);
    for _ in 0..40 {
        sys.step();
    }
    let first = sys.drain_delivered();
    // Second burst mid-flight, then run to completion.
    two_chip_traffic(&mut sys);
    sys.run(400);
    let second = sys.drain_delivered();

    assert_eq!(sys.cycle(), 440);
    assert_eq!((first.len(), digest(&first)), (12, 0x0e72_4866_886f_24cf));
    assert_eq!((second.len(), digest(&second)), (50, 0xa526_04e7_0a48_cac8));
    assert_eq!(sys.link_carried(), 52);
    let stats: Vec<String> = (0..2u8)
        .map(|c| format!("{:?}", sys.chip(c).stats()))
        .collect();
    assert_eq!(
        stats,
        [
            "NetworkStats { cycles: 440, packets_injected: 62, flits_injected: 62, \
             packets_delivered: 62, packets_dropped: 0, flits_dropped: 0, deflections: 0, \
             ecc_corrections: 0, ecc_uncorrectable: 0, energy: EnergyCounters { \
             flit_hops: 166, hop_bits: 40584, link_flits: 104, link_bit_pitches: 35864.0 } }",
            "NetworkStats { cycles: 440, packets_injected: 52, flits_injected: 52, \
             packets_delivered: 52, packets_dropped: 0, flits_dropped: 0, deflections: 0, \
             ecc_corrections: 0, ecc_uncorrectable: 0, energy: EnergyCounters { \
             flit_hops: 182, hop_bits: 49736, link_flits: 130, link_bit_pitches: 50936.0 } }",
        ]
    );
}
