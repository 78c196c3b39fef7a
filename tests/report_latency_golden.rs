//! Golden run-report latency statistics: the network, total, per-class
//! and per-flow `LatencyReport`s and the per-flow jitter of three small
//! fixed-seed runs, pinned bit for bit to the values they had when
//! recorded. Any change to how the runner gathers, merges or
//! summarizes measured latencies moves a digest here.

use ocin::core::flit::ServiceClass;
use ocin::core::ids::NodeId;
use ocin::core::{NetworkConfig, ReservationPolicy, StaticFlowSpec};
use ocin::sim::{LatencyReport, ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, TrafficMatrix, TrafficPattern, Workload};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_report(&mut self, r: &LatencyReport) {
        self.eat(r.count as u64);
        for v in [r.mean, r.p50, r.p95, r.p99, r.p999, r.min, r.max] {
            self.eat(v.to_bits());
        }
    }
}

/// Digest of every latency statistic of `r`, maps in key order.
fn latency_digest(r: &SimReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.eat_report(&r.network_latency);
    h.eat_report(&r.total_latency);
    for (&class, lat) in &r.class_latency {
        h.eat(u64::from(class));
        h.eat_report(lat);
    }
    for (flow, lat) in &r.flow_latency {
        h.eat(u64::from(flow.0));
        h.eat_report(lat);
    }
    for (flow, jitter) in &r.flow_jitter {
        h.eat(u64::from(flow.0));
        h.eat(jitter.to_bits());
    }
    h.0
}

fn bernoulli(load: f64) -> Workload {
    Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load })
}

/// The sequential report, checked equal to a 4-cell run's, whose
/// workers each measure a quarter of the tiles.
fn run(cfg: &NetworkConfig, wl: &Workload, matrix: Option<&TrafficMatrix>) -> SimReport {
    let sim = || {
        let sim = Simulation::new(cfg.clone(), SimConfig::quick().with_seed(11))
            .expect("valid config")
            .with_workload(wl);
        match matrix {
            Some(m) => sim.with_traffic_matrix(m),
            None => sim,
        }
    };
    let report = sim().run();
    assert_eq!(ShardedSimulation::new(sim(), 4).run(), report);
    report
}

#[test]
fn uniform_bernoulli_latencies_match_golden() {
    let r = run(&NetworkConfig::paper_baseline(), &bernoulli(0.35), None);
    assert_eq!(
        (r.network_latency.count, latency_digest(&r)),
        (5583, 0x6b34_3267_e84f_6543)
    );
}

#[test]
fn two_class_latencies_match_golden() {
    // Bulk uniform traffic plus a priority-class hot spot onto node 5.
    let mut hot = TrafficMatrix::new(16).class(ServiceClass::Priority);
    for src in [0u16, 3, 10, 12, 15] {
        hot.set(NodeId::new(src), NodeId::new(5), 0.05);
    }
    let r = run(
        &NetworkConfig::paper_baseline(),
        &bernoulli(0.25),
        Some(&hot),
    );
    assert_eq!(r.class_latency.keys().copied().collect::<Vec<_>>(), [0, 1]);
    assert_eq!(
        (r.network_latency.count, latency_digest(&r)),
        (4265, 0x3ff9_5787_04ff_e994)
    );
}

#[test]
fn prescheduled_flow_latencies_match_golden() {
    // The static flows of `tests/prescheduled.rs` over dynamic load.
    let cfg = NetworkConfig::paper_baseline()
        .with_reservation_period(8)
        .with_reservation_policy(ReservationPolicy::WorkConserving)
        .with_static_flow(StaticFlowSpec::new(0.into(), 10.into(), 0, 256))
        .with_static_flow(StaticFlowSpec::new(5.into(), 6.into(), 3, 128));
    let r = run(&cfg, &bernoulli(0.5), None);
    assert_eq!(r.flow_latency.len(), 2);
    assert_eq!(r.flow_jitter.len(), 2);
    assert_eq!(
        (r.network_latency.count, latency_digest(&r)),
        (8231, 0x392e_1b2b_05c6_824b)
    );
}
