//! The four named workloads and their run sizes.
//!
//! Every workload is a folded torus with the `paper_baseline` network
//! configuration. Only the workload seed varies between runs; the
//! network, its size and the offered load are fixed here, so a run's
//! simulated results are a pure function of `(workload, size, seed)`.

use ocin_core::{FlowControl, NetworkConfig, ProbeConfig, TopologySpec};
use ocin_sim::SimConfig;
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

use crate::calib::Sensitivity;

/// Workload names, in the order the notes and `BENCHMARK.json` list them.
pub const NAMES: [&str; 4] = [
    "vc16-uniform-hot",
    "vc32-uniform-light",
    "fc8-sweep",
    "vc8-bursty-observed",
];

/// The seed whose report digests are recorded in [`expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while the benchmark or a change was tuned; re-run a
/// claimed gain on it before accepting the claim.
pub const HELD_OUT_SEED: u64 = 7919;

/// Worker threads of the sweep's pool. Saturation-search probes per round
/// equal the worker count, so this is part of the workload, not a knob.
pub const SWEEP_WORKERS: usize = 2;

/// Flow-control methods of the sweep, in run order.
pub const SWEEP_METHODS: [FlowControl; 3] = [
    FlowControl::VirtualChannel,
    FlowControl::Dropping,
    FlowControl::Deflection,
];

/// Run size: `Full` for measurements, `Tiny` for the benchmark's own
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred cycles per run; same shapes, same checks.
    Tiny,
}

impl Size {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One single-point simulation: a network, a traffic workload and run
/// lengths, optionally observed by a probe.
#[derive(Debug, Clone)]
pub struct PointWorkload {
    /// Folded-torus radix.
    pub k: usize,
    /// Spatial pattern.
    pub pattern: TrafficPattern,
    /// Injection process.
    pub injection: InjectionProcess,
    /// Warmup, measurement and drain lengths (seed set per run).
    pub phases: SimConfig,
    /// The observation stack attached to the measured runs, if any.
    pub probe: Option<ProbeConfig>,
}

impl PointWorkload {
    /// The network under test.
    pub fn net_cfg(&self) -> NetworkConfig {
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: self.k })
    }

    /// The traffic description handed to the library.
    pub fn workload(&self) -> Workload {
        Workload::for_topology(
            &TopologySpec::FoldedTorus { k: self.k },
            self.pattern.clone(),
        )
        .injection(self.injection)
    }

    /// Run lengths with the workload seed.
    pub fn sim_cfg(&self, seed: u64) -> SimConfig {
        self.phases.with_seed(seed)
    }
}

/// Latency–load curves and saturation searches for every flow-control
/// method on one network size.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// Folded-torus radix.
    pub k: usize,
    /// Offered loads of the fixed curve, flits/node/cycle.
    pub curve: Vec<f64>,
    /// Per-point run lengths (seed set per run).
    pub phases: SimConfig,
    /// Saturation-search tolerance, flits/node/cycle.
    pub tol: f64,
}

impl SweepWorkload {
    /// The network under test for one flow-control method.
    pub fn net_cfg(&self, fc: FlowControl) -> NetworkConfig {
        NetworkConfig::paper_baseline()
            .with_topology(TopologySpec::FoldedTorus { k: self.k })
            .with_flow_control(fc)
    }

    /// The traffic template; the sweep replaces its injection process at
    /// every point.
    pub fn workload(&self) -> Workload {
        Workload::for_topology(
            &TopologySpec::FoldedTorus { k: self.k },
            TrafficPattern::Uniform,
        )
    }

    /// Run lengths with the workload seed.
    pub fn sim_cfg(&self, seed: u64) -> SimConfig {
        self.phases.with_seed(seed)
    }
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One `Simulation::run` per repetition.
    Point(PointWorkload),
    /// Curves plus saturation searches on fresh pools per repetition.
    Sweep(SweepWorkload),
}

/// Run lengths; the seed is replaced by the workload seed at every run.
fn phases(warmup: u64, measure: u64, drain: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        seed: DEFAULT_SEED,
    }
}

/// The full observation stack of `vc8-bursty-observed`.
pub fn observed_probe() -> ProbeConfig {
    ProbeConfig::counters()
        .with_trace(4096)
        .with_telemetry(0)
        .with_journeys(256)
}

/// The workload called `name` at `size`, or `None` for an unknown name.
pub fn spec(name: &str, size: Size) -> Option<Spec> {
    let full = size == Size::Full;
    let pick = |f: u64, t: u64| if full { f } else { t };
    Some(match name {
        // ~0.9x the k = 16 uniform saturation load of 0.37.
        "vc16-uniform-hot" => Spec::Point(PointWorkload {
            k: 16,
            pattern: TrafficPattern::Uniform,
            injection: InjectionProcess::Bernoulli { flit_rate: 0.33 },
            phases: phases(pick(300, 50), pick(1_200, 150), 3_000),
            probe: None,
        }),
        "vc32-uniform-light" => Spec::Point(PointWorkload {
            k: 32,
            pattern: TrafficPattern::Uniform,
            injection: InjectionProcess::Bernoulli { flit_rate: 0.002 },
            phases: phases(pick(1_000, 100), pick(20_000, 600), 3_000),
            probe: None,
        }),
        "fc8-sweep" => Spec::Sweep(SweepWorkload {
            k: 8,
            // 1/3 is also the first probe of a two-worker search, so the
            // curve and the search share a cached point.
            curve: if full {
                vec![0.1, 0.2, 1.0 / 3.0, 0.45, 0.55]
            } else {
                vec![0.1, 1.0 / 3.0]
            },
            phases: phases(pick(200, 50), pick(1_000, 200), pick(1_000, 300)),
            tol: if full { 0.02 } else { 0.1 },
        }),
        // Mean offered load 0.6 x 0.02 / 0.07 = 0.171 flits/node/cycle,
        // in bursts of 20 cycles on average.
        "vc8-bursty-observed" => Spec::Point(PointWorkload {
            k: 8,
            pattern: TrafficPattern::Transpose,
            injection: InjectionProcess::BurstyOnOff {
                flit_rate_on: 0.6,
                p_on_to_off: 0.05,
                p_off_to_on: 0.02,
            },
            phases: phases(pick(500, 100), pick(10_000, 1_000), 3_000),
            probe: Some(observed_probe()),
        }),
        _ => return None,
    })
}

/// How strongly the workload's times follow the host's speed, as
/// exponents on the calibration reading (see [`crate::calib`]); 1 means
/// the times follow the reference kernel. The host switches between a
/// fast and a slow state that each last minutes. Between them the
/// kernel's reading changed by a factor of about 1.45, the wall of
/// `vc32-uniform-light`, with the largest working set, by about 1.77, and
/// the allocation-heavy set-ups of the single-point workloads by 1.7 to
/// 2. The exponents were chosen on runs made in both states.
pub fn host_sensitivity(name: &str) -> Sensitivity {
    let (run, setup) = match name {
        "vc16-uniform-hot" => (1.25, 1.75),
        "vc32-uniform-light" => (1.5, 1.75),
        "vc8-bursty-observed" => (1.25, 1.5),
        _ => (1.0, 1.0),
    };
    Sensitivity { run, setup }
}

/// FNV-1a digest of every report a workload produced at
/// [`DEFAULT_SEED`], recorded from a known-good build. A simulator-only
/// change must leave these unchanged.
pub fn expected_digest(name: &str, size: Size) -> Option<u64> {
    let d = match (name, size) {
        ("vc16-uniform-hot", Size::Full) => 0x51ef_b3e3_224d_255d,
        ("vc16-uniform-hot", Size::Tiny) => 0xeb7f_bf62_9c97_bdf8,
        ("vc32-uniform-light", Size::Full) => 0x8c99_8a1b_53cc_0e41,
        ("vc32-uniform-light", Size::Tiny) => 0xaeb6_2a0f_487b_a760,
        ("fc8-sweep", Size::Full) => 0x3efa_7bd0_2a88_f3d1,
        ("fc8-sweep", Size::Tiny) => 0x3fe4_c23c_145e_63be,
        ("vc8-bursty-observed", Size::Full) => 0x8442_1eba_f998_5cf8,
        ("vc8-bursty-observed", Size::Tiny) => 0x86e5_a7b0_b970_a737,
        _ => return None,
    };
    Some(d)
}
