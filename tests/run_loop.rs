//! The run loop: `Simulation::run` and `ShardedSimulation::run` must
//! mean the same thing at any shard count, including on networks that
//! were stepped before the run and on measurement windows that carry
//! no traffic.

use ocin::core::{NetworkConfig, TopologySpec};
use ocin::sim::{ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, TrafficPattern, Workload};

fn sim(sim_cfg: SimConfig, load: f64) -> Simulation {
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    Simulation::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 }),
        sim_cfg,
    )
    .expect("valid config")
    .with_workload(&wl)
}

fn sharded(sim: Simulation, shards: usize) -> SimReport {
    ShardedSimulation::new(sim, shards).run()
}

/// A one-cycle measurement window that ends before any flit has made a
/// router traversal: the window's energy is zero, and the drain that
/// follows must not leak into it.
#[test]
fn empty_energy_window_stays_zero() {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1,
        drain_cycles: 200,
        seed: 3,
    };
    let one = sim(cfg, 0.9).run();
    assert_eq!(one.energy, Default::default());
    assert!(one.cycles > 1, "the run drained past the window");
    assert_eq!(one, sharded(sim(cfg, 0.9), 1));
    assert_eq!(one, sharded(sim(cfg, 0.9), 2));
}

/// A network stepped before the run starts its phases at its current
/// cycle, whichever engine runs it.
#[test]
fn pre_stepped_network_runs_alike_at_any_shard_count() {
    let cfg = SimConfig::quick();
    let mut seq = sim(cfg, 0.2);
    seq.network_mut().run(50);
    let expected = seq.run();

    let mut two = sim(cfg, 0.2);
    two.network_mut().run(50);
    let got = sharded(two, 2);
    assert_eq!(got.cycles, expected.cycles);
    assert_eq!(got, expected);
}
