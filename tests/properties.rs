//! Property-based tests over the core invariants.

use ocin::core::fault::{FaultKind, LinkFault, SteeredLink};
use ocin::core::flit::{Payload, SizeCode};
use ocin::core::ids::NodeId;
use ocin::core::route::SourceRoute;
use ocin::core::{
    Error, FoldedTorus2D, Mesh2D, Network, NetworkConfig, PacketSpec, QuantileHistogram,
    ReservationTable, Ring, StaticFlowSpec, Topology, TopologySpec,
};
use proptest::prelude::*;

/// Radices the 2-D topologies are sampled at: the paper's k = 4, its
/// neighbors, odd radices (which exercise the asymmetric fold and the
/// no-tie minimal-route halving), and the k = 16 / k = 32 scaling
/// targets (256 and 1024 tiles).
const RADICES_2D: [usize; 7] = [2, 3, 4, 5, 8, 16, 32];

fn radix_2d() -> impl Strategy<Value = usize> {
    (0usize..RADICES_2D.len()).prop_map(|i| RADICES_2D[i])
}

fn topologies() -> impl Strategy<Value = (Box<dyn Topology>, TopologySpec)> {
    prop_oneof![
        radix_2d().prop_map(|k| (
            Box::new(Mesh2D::new(k)) as Box<dyn Topology>,
            TopologySpec::Mesh { k }
        )),
        radix_2d().prop_map(|k| (
            Box::new(FoldedTorus2D::new(k)) as Box<dyn Topology>,
            TopologySpec::FoldedTorus { k }
        )),
        (2usize..=32).prop_map(|k| (
            Box::new(Ring::new(k)) as Box<dyn Topology>,
            TopologySpec::Ring { k }
        )),
    ]
}

proptest! {
    /// Any route between distinct nodes compiles to turns and walks the
    /// topology back to the destination.
    #[test]
    fn routes_compile_and_walk((topo, _) in topologies(), s in 0usize..1024, d in 0usize..1024) {
        let n = topo.num_nodes();
        let (src, dst) = (NodeId::new((s % n) as u16), NodeId::new((d % n) as u16));
        prop_assume!(src != dst);
        let dirs = topo.route_dirs(src, dst);
        let route = SourceRoute::compile(&dirs).expect("minimal routes never reverse");
        // Walking the compiled route reproduces the hop list.
        prop_assert_eq!(route.walk(), dirs.clone());
        let mut node = src;
        for dir in dirs {
            node = topo.neighbor(node, dir).expect("route uses real channels");
        }
        prop_assert_eq!(node, dst);
    }

    /// Minimal routes never exceed the topology diameter.
    #[test]
    fn routes_are_minimal_length((topo, _) in topologies(), s in 0usize..1024, d in 0usize..1024) {
        let n = topo.num_nodes();
        let k = topo.radix();
        let (src, dst) = (NodeId::new((s % n) as u16), NodeId::new((d % n) as u16));
        let hops = topo.route_dirs(src, dst).len();
        let diameter = match topo.name() {
            name if name.starts_with("mesh") => 2 * (k - 1),
            name if name.starts_with("ftorus") => 2 * (k / 2),
            _ => k / 2, // ring
        };
        prop_assert!(hops <= diameter.max(1), "hops {} > diameter {}", hops, diameter);
    }

    /// Size codes round-trip for every legal payload width.
    #[test]
    fn size_codes_cover_payloads(bits in 1usize..=256) {
        let code = SizeCode::for_bits(bits).expect("1..=256 always encodes");
        prop_assert!(code.bits() >= bits);
        prop_assert!(code.bits() < 2 * bits.next_power_of_two().max(2));
    }

    /// Steering is the identity as long as faults fit the spare budget.
    #[test]
    fn steering_masks_within_budget(
        wires in proptest::collection::btree_set(0usize..256, 0..=3),
        word in any::<u64>(),
    ) {
        let spares = wires.len();
        let mut link = SteeredLink::new(256, spares);
        for &w in &wires {
            link.inject_fault(LinkFault { wire: w, kind: FaultKind::StuckAtOne });
        }
        let data = Payload::from_u64(word);
        let (out, corrupted) = link.transmit(&data);
        prop_assert!(!corrupted);
        prop_assert_eq!(out, data);
    }

    /// Reservation tables never double-book a (link, slot).
    #[test]
    fn reservations_never_conflict(
        phases in proptest::collection::vec(0u64..16, 1..6),
        seed in 0u16..100,
    ) {
        let topo = FoldedTorus2D::new(4);
        let flows: Vec<StaticFlowSpec> = phases
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let src = NodeId::new(seed.wrapping_mul(7).wrapping_add(i as u16 * 3) % 16);
                let dst = NodeId::new(seed.wrapping_mul(11).wrapping_add(i as u16 * 5 + 1) % 16);
                StaticFlowSpec::new(src, dst, p, 64)
            })
            .filter(|f| f.src != f.dst)
            .collect();
        prop_assume!(!flows.is_empty());
        if let Ok(table) = ReservationTable::build(&topo, 16, 2, 2, &flows) {
            // Count reservations two ways; they must agree and each
            // (link, slot) appears at most once by construction of the
            // query API.
            let per_flow: usize = table.flows().iter().map(|f| f.route.len()).sum();
            prop_assert_eq!(table.total_reservations(), per_flow);
        }
        // An admission error is also a valid outcome (conflict).
    }

    /// Any batch of sub-saturation packets drains completely on the
    /// baseline network, and payloads arrive intact.
    #[test]
    fn packets_always_drain_and_arrive_intact(
        pairs in proptest::collection::vec((0u16..16, 0u16..16, 1usize..=3), 1..40),
    ) {
        let mut net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let mut expected = Vec::new();
        for (i, &(s, d, flits)) in pairs.iter().enumerate() {
            if s == d {
                continue;
            }
            let data: Vec<Payload> =
                (0..flits).map(|f| Payload::from_u64((i * 8 + f) as u64)).collect();
            match net.inject(
                &PacketSpec::new(s.into(), d.into())
                    .payload_bits(flits * 256)
                    .data(data.clone()),
            ) {
                Ok(id) => expected.push((id, d, data)),
                Err(Error::InjectionBackpressure { .. }) => {
                    // Let the network make space, then continue.
                    net.step();
                }
                Err(e) => panic!("{e}"),
            }
        }
        prop_assert!(net.drain(50_000), "network failed to drain");
        let mut delivered = 0;
        for d in 0..16u16 {
            for pkt in net.drain_delivered(d.into()) {
                let (_, dst, data) = expected
                    .iter()
                    .find(|(id, _, _)| *id == pkt.id)
                    .expect("only injected packets arrive");
                prop_assert_eq!(*dst, u16::from(pkt.dst));
                prop_assert_eq!(&pkt.payloads, data);
                prop_assert!(!pkt.corrupted);
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, expected.len());
    }

    /// The folded physical placement never stretches a link beyond two
    /// tile pitches.
    #[test]
    fn folded_links_bounded((topo, _) in topologies()) {
        for (node, dir) in topo.channels() {
            let len = topo.link_length_pitches(node, dir);
            prop_assert!((1.0..=2.0).contains(&len));
        }
    }

    /// Neighbor relations are symmetric on every topology.
    #[test]
    fn neighbors_symmetric((topo, _) in topologies()) {
        for (node, dir) in topo.channels() {
            let nb = topo.neighbor(node, dir).expect("listed");
            prop_assert_eq!(topo.neighbor(nb, dir.opposite()), Some(node));
        }
    }

    /// The folded placement is a true permutation with a well-defined
    /// inverse at every radix, including odd ones: each physical slot
    /// along the line is occupied by exactly one logical index, and
    /// looking a node up by its physical slot recovers it. Exercised
    /// through `Ring::physical_position`, which is `folded_position`
    /// applied to the single dimension.
    #[test]
    fn folded_placement_is_inverse_permutation(k in 2usize..=33) {
        let ring = Ring::new(k);
        let mut phys_to_logical: Vec<Option<usize>> = vec![None; k];
        for l in 0..k {
            let p = ring.physical_position(NodeId::new(l as u16)).x as usize;
            prop_assert!(p < k, "physical slot {} out of range", p);
            prop_assert!(
                phys_to_logical[p].is_none(),
                "physical slot {} double-booked", p
            );
            phys_to_logical[p] = Some(l);
        }
        for (p, l) in phys_to_logical.iter().enumerate() {
            let l = l.expect("permutation is onto: every slot filled");
            prop_assert_eq!(
                ring.physical_position(NodeId::new(l as u16)).x as usize,
                p
            );
        }
        // The 2-D torus applies the same per-dimension permutation:
        // each axis of a node's physical position is the ring placement
        // of the matching logical coordinate.
        let kk = k.min(16);
        let torus = FoldedTorus2D::new(kk);
        let line = Ring::new(kk);
        for i in 0..torus.num_nodes() {
            let node = NodeId::new(i as u16);
            let c = torus.coord(node);
            let p = torus.physical_position(node);
            let px = line.physical_position(NodeId::new(u16::from(c.x))).x;
            let py = line.physical_position(NodeId::new(u16::from(c.y))).x;
            prop_assert_eq!((p.x, p.y), (px, py));
        }
    }

    /// `node_at` is the left inverse of `coord` on every node of every
    /// topology — node ids survive the coordinate round trip unaliased
    /// even at 1024 tiles, where an 8-bit intermediate would fold ids
    /// modulo 256.
    #[test]
    fn node_at_coord_roundtrip((topo, _) in topologies()) {
        for i in 0..topo.num_nodes() {
            let node = NodeId::new(i as u16);
            prop_assert_eq!(topo.node_at(topo.coord(node)), node);
        }
    }
}

/// Latency-like samples: short packet latencies, values around and past
/// the 2^17-cycle exact horizon of the per-class telemetry histograms,
/// and large values up to 2^40.
fn latency_samples() -> impl Strategy<Value = Vec<u64>> {
    let value = prop_oneof![0u64..300, 100_000u64..300_000, 0u64..(1 << 40)];
    proptest::collection::vec(value, 0..200)
}

/// The nearest-rank `p`-th percentile of sorted `values` (0 when empty).
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `QuantileHistogram::exact` summarizes any sample multiset exactly
    /// as sorting the raw samples does, and merging the histograms of
    /// any split of the samples equals recording all of them.
    #[test]
    fn exact_histogram_matches_sorted_samples(values in latency_samples(), cut in 0usize..200) {
        let mut all = QuantileHistogram::exact();
        for &v in &values {
            all.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        prop_assert_eq!(all.count, n as u64);
        prop_assert_eq!(all.sum, sorted.iter().sum::<u64>());
        if let (Some(&lo), Some(&hi)) = (sorted.first(), sorted.last()) {
            prop_assert_eq!((all.min, all.max), (lo, hi));
        }
        // The mean of the same values summed as f64 in arrival order.
        let mean = if n == 0 {
            0.0
        } else {
            values.iter().map(|&v| v as f64).sum::<f64>() / n as f64
        };
        prop_assert_eq!(all.mean().to_bits(), mean.to_bits());
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(all.percentile(p), nearest_rank(&sorted, p), "p{}", p);
        }

        let (a, b) = values.split_at(cut.min(n));
        let mut left = QuantileHistogram::exact();
        let mut right = QuantileHistogram::exact();
        a.iter().for_each(|&v| left.record(v));
        b.iter().for_each(|&v| right.record(v));
        left.merge(&right);
        prop_assert_eq!(left, all);
    }
}
