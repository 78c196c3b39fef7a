//! Running one workload.
//!
//! The untraced run (`--trace 0`) gives the end-to-end metrics: it
//! repeats the workload's library call (`Simulation::run`, or a set of
//! `LoadSweep` curves and saturation searches) until the time budget is
//! spent and reports medians. The traced run (`--trace 1`) adds legs
//! that time each layer from outside — a replay of the runner's public
//! call sequence with one span per call group per cycle, a counters-only
//! probe leg, a bare leg for the observed workload, and serial per-point
//! timing for the sweep — and reports the per-layer metrics.
//!
//! Every run and sweep point is checked; see [`crate::metrics::Tally`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ocin_core::probe::NetworkProbe;
use ocin_core::{Error, Network, NetworkStats, NodeId, PacketSpec, ProbeConfig};
use ocin_sim::{LatencyReport, LoadPoint, LoadSweep, SimPool, SimReport, Simulation};

use crate::calib::Calibrator;
use crate::metrics::{expect, Tally};
use crate::spans::{SpanLog, ROOT};
use crate::workloads::{
    expected_digest, host_sensitivity, PointWorkload, Size, Spec, SweepWorkload, DEFAULT_SEED,
    SWEEP_METHODS, SWEEP_WORKERS,
};

/// Minimum set-up samples per run; their median is `setup_s` (and
/// `network.new_s`).
const SETUP_SAMPLES: usize = 31;

/// Set-up samples taken before each repetition, so that their median
/// spans the same host conditions as the timed repetitions.
const SETUP_BATCH: usize = 5;

/// Upper bound on timed repetitions, so tiny runs end quickly.
const MAX_REPS: usize = 200;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
    /// Run size.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness tally.
    pub tally: Tally,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Spans of the traced legs (empty for untraced runs).
    pub spans: SpanLog,
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile of `values` (0 when empty).
fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over `text`, folded into `h`.
fn fnv(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Peak resident set of this process, MB (`VmHWM`), or NaN if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The highest of p99, p95 and p50 with at least ten samples beyond it.
fn tail(l: &LatencyReport) -> (f64, &'static str) {
    if l.count >= 1_000 {
        (l.p99, "p99")
    } else if l.count >= 200 {
        (l.p95, "p95")
    } else {
        (l.p50, "p50")
    }
}

/// The report with its probe metrics removed, for comparison with a
/// bare run.
fn stripped(r: &SimReport) -> SimReport {
    SimReport {
        metrics: None,
        ..r.clone()
    }
}

/// Times `n` calls of `build`; each result is dropped after its clock
/// stops.
fn time_calls<T>(n: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let built = build();
            let s = secs(t);
            drop(built);
            s
        })
        .collect()
}

/// Set-up timings of one run; `build` constructs whatever the workload
/// sets up, which is dropped after the clock stops. Samples wait in
/// `pending` until the calibration factor of their segment is known.
/// Inactive in traced runs.
struct Setup<T, F: FnMut() -> T> {
    build: F,
    active: bool,
    pending: Vec<f64>,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<T, F> {
    fn new(active: bool, build: F) -> Self {
        Setup {
            build,
            active,
            pending: Vec::new(),
            secs: Vec::new(),
        }
    }

    /// Takes `n` samples in the current segment.
    fn sample(&mut self, n: usize) {
        if self.active {
            self.pending.extend(time_calls(n, &mut self.build));
        }
    }

    /// Takes one batch of samples before a repetition.
    fn batch(&mut self) {
        self.sample(SETUP_BATCH);
    }

    /// Scales the current segment's samples by its calibration factor.
    fn commit(&mut self, factor: f64) {
        self.secs.extend(self.pending.drain(..).map(|s| s / factor));
    }

    /// Tops up to [`SETUP_SAMPLES`] in a segment of its own and records
    /// the median as `setup_s`.
    fn finish(mut self, cal: &mut Calibrator, out: &mut Outcome) {
        if self.active {
            let missing = SETUP_SAMPLES.saturating_sub(self.secs.len());
            if missing > 0 {
                self.sample(missing);
                let factor = cal.close().setup;
                self.commit(factor);
            }
            out.values.insert("setup_s", median(&self.secs));
        }
    }
}

/// Timed repetitions: raw walls and the calibration factor of each.
#[derive(Default)]
struct Timing {
    raw: Vec<f64>,
    factors: Vec<f64>,
}

impl Timing {
    fn push(&mut self, wall: f64, factor: f64) {
        self.raw.push(wall);
        self.factors.push(factor);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    fn calibrated(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.factors)
            .map(|(w, f)| w / f)
            .collect()
    }

    /// Median calibrated wall of one repetition.
    fn median(&self) -> f64 {
        median(&self.calibrated())
    }

    fn note(&self, what: &str) -> String {
        let min_max = |v: &[f64]| {
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(0.0, f64::max);
            format!("{min:.4}/{:.4}/{max:.4}", median(v))
        };
        format!(
            "{} timed {what}; wall min/median/max {} s calibrated, {} s raw; \
             host slowness factor {}",
            self.len(),
            min_max(&self.calibrated()),
            min_max(&self.raw),
            min_max(&self.factors),
        )
    }
}

/// The measurement budget: legs run until a share of it is spent.
struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    /// Whether another repetition of `next` seconds fits before `share`
    /// of the budget is spent, given `done` repetitions; the first always
    /// runs.
    fn more(&self, done: usize, share: f64, next: f64) -> bool {
        done == 0 || (done < MAX_REPS && secs(self.start) + next <= self.seconds * share)
    }
}

/// Runs the workload in `opts` and returns what it measured.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let spec = crate::workloads::spec(&opts.workload, opts.size)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let clock = Clock {
        start: Instant::now(),
        seconds: opts.seconds,
    };
    let mut out = Outcome::default();
    match &spec {
        Spec::Point(w) => point(w, opts, &clock, &mut out),
        Spec::Sweep(w) => sweep(w, opts, &clock, &mut out),
    }
    Ok(out)
}

/// The workload's parameters as a JSON string value (manifest field).
pub fn params_json(opts: &Opts) -> String {
    let spec = crate::workloads::spec(&opts.workload, opts.size);
    crate::manifest::json_str(&spec.map_or_else(String::new, |s| format!("{s:?}")))
}

/// Checks a digest against the recorded one when the seed is the default.
fn digest_check(opts: &Opts, digest: u64, out: &mut Outcome) {
    let expected = expected_digest(&opts.workload, opts.size);
    out.notes.push(format!(
        "report digest {digest:#018x} (recorded at seed {DEFAULT_SEED}: {})",
        expected.map_or("none".to_string(), |d| format!("{d:#018x}"))
    ));
    if opts.seed == DEFAULT_SEED {
        let mut errors = Vec::new();
        expect(&mut errors, expected == Some(digest), || {
            format!("report digest {digest:#018x} differs from the recorded one")
        });
        out.tally.run("digest", errors);
    }
}

// ---------------------------------------------------------------------
// Single-point workloads
// ---------------------------------------------------------------------

fn build_sim(w: &PointWorkload, seed: u64, probe: Option<ProbeConfig>) -> Simulation {
    let sim = Simulation::new(w.net_cfg(), w.sim_cfg(seed))
        .expect("benchmark network configurations are valid")
        .with_workload(&w.workload());
    match probe {
        Some(pc) => sim.with_probe(pc),
        None => sim,
    }
}

/// One `Simulation::run` and the network state it left behind.
struct Rep {
    report: SimReport,
    stats: NetworkStats,
    quiescent: bool,
    in_flight: usize,
    wall: f64,
}

fn run_rep(w: &PointWorkload, seed: u64, probe: Option<ProbeConfig>) -> Rep {
    let mut sim = build_sim(w, seed, probe);
    let t = Instant::now();
    let report = sim.run();
    let wall = secs(t);
    let net = sim.network_mut();
    Rep {
        report,
        stats: net.stats(),
        quiescent: net.is_quiescent(),
        in_flight: net.flits_in_flight(),
        wall,
    }
}

/// Packet conservation over the whole run: injected = delivered +
/// dropped + unfinished, with unfinished packets exactly when the
/// network still holds traffic (every workload sends one-flit packets,
/// so each flit in flight is an unfinished packet).
fn conservation(rep: &Rep, errors: &mut Vec<String>) {
    let s = &rep.stats;
    let settled = s.packets_delivered + s.packets_dropped;
    expect(errors, settled <= s.packets_injected, || {
        format!(
            "delivered {} + dropped {} exceeds injected {}",
            s.packets_delivered, s.packets_dropped, s.packets_injected
        )
    });
    let unfinished = s.packets_injected.saturating_sub(settled);
    expect(errors, (unfinished == 0) == rep.quiescent, || {
        format!(
            "{unfinished} packets unfinished, network quiescent = {}",
            rep.quiescent
        )
    });
    expect(errors, unfinished >= rep.in_flight as u64, || {
        format!(
            "{} flits in flight but {unfinished} packets unfinished",
            rep.in_flight
        )
    });
    measured_conservation(&rep.report, errors);
}

/// Measured packets: every packet injected in the window is delivered
/// or unfinished (dropped packets never finish).
fn measured_conservation(r: &SimReport, errors: &mut Vec<String>) {
    expect(
        errors,
        r.packets_delivered + r.unfinished_packets == r.packets_injected,
        || {
            format!(
                "measured packets: injected {} != delivered {} + unfinished {}",
                r.packets_injected, r.packets_delivered, r.unfinished_packets
            )
        },
    );
}

/// Checks of the observation stack on an observed report.
fn observation_checks(r: &SimReport, errors: &mut Vec<String>) {
    let Some(m) = r.metrics.as_ref() else {
        errors.push("observed run returned no probe metrics".to_string());
        return;
    };
    match m.decomposition.as_ref() {
        Some(d) => expect(errors, d.inconsistent == 0, || {
            format!("{} journeys failed to reconcile", d.inconsistent)
        }),
        None => errors.push("observed run returned no journey decomposition".to_string()),
    }
    expect(errors, m.telemetry.is_some(), || {
        "observed run returned no telemetry".to_string()
    });
}

fn point(w: &PointWorkload, opts: &Opts, clock: &Clock, out: &mut Outcome) {
    let seed = opts.seed;
    // Set-up: network, workload generator and harness construction.
    let mut setup = Setup::new(!opts.trace, || build_sim(w, seed, w.probe));

    // Warm-up repetition: its report gives the simulated metrics.
    let rep0 = run_rep(w, seed, w.probe);
    let mut errors = Vec::new();
    conservation(&rep0, &mut errors);
    if w.probe.is_some() {
        observation_checks(&rep0.report, &mut errors);
    }
    out.tally.run("warm-up run", errors);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    digest_check(opts, fnv(FNV_OFFSET, &format!("{:?}", rep0.report)), out);

    // The first calibration reading comes after the peak RSS is read, so
    // the reference kernel's memory never counts in it.
    let untraced_share = if opts.trace { 0.35 } else { 1.0 };
    let mut cal = Calibrator::new(!opts.trace, 1, host_sensitivity(&opts.workload));
    let mut timing = Timing::default();
    while clock.more(timing.len(), untraced_share, rep0.wall + cal.reading_s) {
        setup.batch();
        let rep = run_rep(w, seed, w.probe);
        let factors = cal.close();
        setup.commit(factors.setup);
        let mut errors = Vec::new();
        expect(
            &mut errors,
            rep.report == rep0.report && rep.stats == rep0.stats,
            || "repeated run differs from the first".to_string(),
        );
        out.tally.run("timed run", errors);
        timing.push(rep.wall, factors.run);
    }
    setup.finish(&mut cal, out);
    let untraced_wall = timing.median();

    // Traced: the replay fills the budget up to 75%.
    if opts.trace {
        point_replays(w, opts, clock, &rep0, untraced_wall, out);
    }

    // An observed run must equal a bare one once its metrics are removed.
    // Traced, bare runs fill the rest of the budget for probe.overhead_frac.
    let bare_walls = if w.probe.is_some() {
        let share = if opts.trace { 1.0 } else { 0.0 };
        let mut walls = Vec::new();
        while clock.more(walls.len(), share, rep0.wall) {
            let bare = run_rep(w, seed, None);
            let mut errors = Vec::new();
            expect(&mut errors, bare.report == stripped(&rep0.report), || {
                "observed report without metrics differs from the bare report".to_string()
            });
            expect(&mut errors, bare.stats == rep0.stats, || {
                "observed network stats differ from the bare run's".to_string()
            });
            out.tally.run("bare run", errors);
            walls.push(bare.wall);
        }
        walls
    } else {
        Vec::new()
    };

    let r = &rep0.report;
    let (tail_latency, tail_name) = tail(&r.network_latency);
    out.notes.push(format!(
        "{} cycles per run, {} measured packets; latency p50 {} and {tail_name} {} cycles \
         ({} samples); {}",
        r.cycles,
        r.packets_injected,
        r.network_latency.p50,
        tail_latency,
        r.network_latency.count,
        timing.note("runs"),
    ));

    if !opts.trace {
        let v = &mut out.values;
        // Every repetition does the same work (checked above).
        v.insert("wall_s", untraced_wall);
        v.insert(
            "flit_hops_per_s",
            rep0.stats.energy.flit_hops as f64 / untraced_wall,
        );
        v.insert("cycles_per_s", r.cycles as f64 / untraced_wall);
        v.insert("sim_latency_p50_cycles", r.network_latency.p50);
        v.insert("sim_latency_p99_cycles", tail_latency);
        v.insert("sim_accepted_flit_rate", r.accepted_flit_rate);
        v.insert(
            "delivered_frac",
            1.0 - ratio(r.unfinished_packets as f64, r.packets_injected as f64),
        );
        return;
    }

    // ---- remaining traced legs ----
    // Router counters from a counters-only probe, so probe cost stays
    // out of the step spans.
    let counted = run_rep(w, seed, Some(ProbeConfig::counters()));
    let mut errors = Vec::new();
    expect(
        &mut errors,
        stripped(&counted.report) == stripped(&rep0.report),
        || "counters-only probed report differs from the measured one".to_string(),
    );
    out.tally.run("counters run", errors);
    router_counters(&[&counted.report], &[], &[], out);

    let v = &mut out.values;
    v.insert("runner.latency_samples", r.network_latency.count as f64);
    if let Some(m) = rep0.report.metrics.as_ref() {
        v.insert(
            "probe.overhead_frac",
            untraced_wall / median(&bare_walls) - 1.0,
        );
        v.insert(
            "telemetry.windows",
            m.telemetry.as_ref().map_or(0.0, |t| t.windows.len() as f64),
        );
        if let Some(d) = m.decomposition.as_ref() {
            let st = &d.totals.stages;
            v.insert("journey.records", d.journeys_recorded as f64);
            v.insert("journey.inconsistent", d.inconsistent as f64);
            v.insert("journey.source_queue_cycles", st.source_queue as f64);
            v.insert("journey.vc_alloc_cycles", st.vc_alloc as f64);
            v.insert("journey.switch_wait_cycles", st.switch_wait as f64);
            v.insert("journey.credit_stall_cycles", st.credit_stall as f64);
            v.insert("journey.channel_cycles", st.channel as f64);
        }
    }
    let news = time_calls(SETUP_SAMPLES, || {
        Network::new(w.net_cfg()).expect("valid configuration")
    });
    v.insert("network.new_s", median(&news));
    zero_absent(v);
}

/// Sums over one replay of the runner's public call sequence.
#[derive(Default)]
struct Replay {
    wall_ns: u64,
    draw_ns: u64,
    inject_ns: u64,
    step_ns: u64,
    drain_ns: u64,
    step_durs: Vec<u64>,
    draw_calls: u64,
    inject_calls: u64,
    backpressured: u64,
    drain_calls: u64,
    offered: u64,
    injected: u64,
    delivered: u64,
    queue_peak: usize,
    stats: Option<NetworkStats>,
    errors: Vec<String>,
}

/// Replays `Simulation::run`'s call sequence for `cycles` cycles —
/// generator draw, inject with back-pressure retry, step, drain — with
/// one span per call group per cycle.
fn replay(w: &PointWorkload, seed: u64, cycles: u64, log: &mut SpanLog) -> Replay {
    let cfg = w.net_cfg();
    let mut net = Network::new(cfg.clone()).expect("valid configuration");
    if let Some(pc) = w.probe {
        net.attach_probe(NetworkProbe::for_network(&cfg, pc));
    }
    let mut generator = w.workload().generator(seed);
    let n = net.topology().num_nodes();
    let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); n];
    let mut queued = 0usize;
    let meas_end = w.phases.warmup_cycles + w.phases.measure_cycles;
    let mut r = Replay {
        step_durs: Vec::with_capacity(cycles as usize),
        ..Replay::default()
    };
    let start = log.now();
    for _ in 0..cycles {
        let now = net.cycle();
        let t0 = log.now();
        if now < meas_end {
            for (node, queue) in pending.iter_mut().enumerate() {
                let src = NodeId::new(node as u16);
                if let Some(req) = generator.next_request(now, src) {
                    queue.push_back(
                        PacketSpec::new(src, req.dst)
                            .payload_bits(req.payload_bits)
                            .class(req.class),
                    );
                    r.offered += 1;
                    queued += 1;
                }
            }
            r.draw_calls += n as u64;
        }
        r.queue_peak = r.queue_peak.max(queued);
        let t1 = log.now();
        for queue in &mut pending {
            while let Some(spec) = queue.front() {
                r.inject_calls += 1;
                match net.inject(spec) {
                    Ok(_) => {
                        queue.pop_front();
                        queued -= 1;
                        r.injected += 1;
                    }
                    Err(Error::InjectionBackpressure { .. }) => {
                        r.backpressured += 1;
                        break;
                    }
                    Err(e) => {
                        r.errors.push(format!("inject failed: {e}"));
                        queue.pop_front();
                        queued -= 1;
                    }
                }
            }
        }
        let t2 = log.now();
        net.step();
        let t3 = log.now();
        for node in 0..n {
            r.delivered += net.drain_delivered(NodeId::new(node as u16)).len() as u64;
        }
        r.drain_calls += n as u64;
        let t4 = log.now();
        let c = log.push("runner.cycle", t0, t4, ROOT);
        log.push("traffic.draw", t0, t1, c);
        log.push("interface.inject", t1, t2, c);
        log.push("network.step", t2, t3, c);
        log.push("interface.drain", t3, t4, c);
        r.draw_ns += t1 - t0;
        r.inject_ns += t2 - t1;
        r.step_ns += t3 - t2;
        r.drain_ns += t4 - t3;
        r.step_durs.push(t3 - t2);
    }
    r.wall_ns = log.now() - start;
    let stats = net.stats();
    expect(&mut r.errors, r.injected == stats.packets_injected, || {
        format!(
            "replay injected {} but the network counted {}",
            r.injected, stats.packets_injected
        )
    });
    expect(
        &mut r.errors,
        r.delivered == stats.packets_delivered,
        || {
            format!(
                "replay drained {} but the network counted {}",
                r.delivered, stats.packets_delivered
            )
        },
    );
    r.stats = Some(stats);
    r
}

fn point_replays(
    w: &PointWorkload,
    opts: &Opts,
    clock: &Clock,
    rep0: &Rep,
    untraced_wall: f64,
    out: &mut Outcome,
) {
    let mut replays: Vec<Replay> = Vec::new();
    while clock.more(replays.len(), 0.75, rep0.wall * 1.2) {
        // Every replay records spans, so each pays the same cost; only
        // the first replay's spans are kept.
        let keep = out.spans.len();
        let mut r = replay(w, opts.seed, rep0.report.cycles, &mut out.spans);
        if !replays.is_empty() {
            out.spans.truncate(keep);
        }
        expect(&mut r.errors, r.stats == Some(rep0.stats), || {
            "replayed network stats differ from the measured run's".to_string()
        });
        out.tally
            .run("traced replay", std::mem::take(&mut r.errors));
        replays.push(r);
    }
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let wall = sum(|r| r.wall_ns);
    let step = sum(|r| r.step_ns);
    let children = sum(|r| r.draw_ns + r.inject_ns + r.step_ns + r.drain_ns);
    let hops = replays
        .iter()
        .map(|r| r.stats.map_or(0, |s| s.energy.flit_hops))
        .sum::<u64>() as f64;
    let mut step_durs: Vec<u64> = replays
        .iter()
        .flat_map(|r| r.step_durs.iter().copied())
        .collect();
    let first = &replays[0];
    let replay_walls: Vec<f64> = replays.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let v = &mut out.values;
    v.insert("network.step_ns_per_flit_hop", ratio(step, hops));
    v.insert(
        "network.step_us_p50",
        percentile(&mut step_durs, 50.0) as f64 / 1e3,
    );
    v.insert(
        "network.step_us_p99",
        percentile(&mut step_durs, 99.0) as f64 / 1e3,
    );
    v.insert("network.step_share", ratio(step, wall));
    v.insert(
        "traffic.draw_ns_per_call",
        ratio(sum(|r| r.draw_ns), sum(|r| r.draw_calls)),
    );
    v.insert("traffic.packets_offered", first.offered as f64);
    v.insert(
        "interface.inject_ns_per_call",
        ratio(sum(|r| r.inject_ns), sum(|r| r.inject_calls)),
    );
    v.insert(
        "interface.drain_ns_per_call",
        ratio(sum(|r| r.drain_ns), sum(|r| r.drain_calls)),
    );
    v.insert("runner.self_share", ratio(wall - children, wall));
    v.insert(
        "runner.backpressure_frac",
        ratio(first.backpressured as f64, first.inject_calls as f64),
    );
    v.insert("runner.source_queue_peak", first.queue_peak as f64);
    v.insert(
        "trace.overhead_frac",
        median(&replay_walls) / untraced_wall - 1.0,
    );
    out.notes.push(format!(
        "traced: {} replays; step {:.1}% of replay wall; replay {:.4} s vs untraced {:.4} s",
        replays.len(),
        100.0 * ratio(step, wall),
        median(&replay_walls),
        untraced_wall
    ));
}

/// Router-layer counters from probed reports: the VC-allocator and
/// occupancy counters from `vc`, drops from `dropping`, misroutes from
/// `deflection`.
fn router_counters(
    vc: &[&SimReport],
    dropping: &[&SimReport],
    deflection: &[&SimReport],
    out: &mut Outcome,
) {
    let totals = |reports: &[&SimReport]| {
        let mut t = ocin_core::MetricsTotals::default();
        let mut cell_cycles = 0u64;
        for m in reports.iter().filter_map(|r| r.metrics.as_ref()) {
            let x = &m.totals;
            t.flits_forwarded += x.flits_forwarded;
            t.vc_allocations += x.vc_allocations;
            t.alloc_conflicts += x.alloc_conflicts;
            t.credit_stalls += x.credit_stalls;
            t.preemptions += x.preemptions;
            t.packets_dropped += x.packets_dropped;
            t.misroutes += x.misroutes;
            t.packets_injected += x.packets_injected;
            t.occupancy_integral += x.occupancy_integral;
            cell_cycles += m.cycles * m.nodes as u64;
        }
        (t, cell_cycles)
    };
    let (v, cell_cycles) = totals(vc);
    let (d, _) = totals(dropping);
    let (f, _) = totals(deflection);
    let values = &mut out.values;
    values.insert("router.vc_allocations", v.vc_allocations as f64);
    values.insert("router.alloc_conflicts", v.alloc_conflicts as f64);
    values.insert(
        "router.vc_alloc_success_ratio",
        ratio(
            v.vc_allocations as f64,
            (v.vc_allocations + v.alloc_conflicts) as f64,
        ),
    );
    values.insert("router.credit_stalls", v.credit_stalls as f64);
    values.insert("router.preemptions", v.preemptions as f64);
    values.insert(
        "router.occupancy_mean_flits",
        ratio(v.occupancy_integral as f64, cell_cycles as f64),
    );
    values.insert("router.flits_forwarded", v.flits_forwarded as f64);
    values.insert("router.packets_dropped", d.packets_dropped as f64);
    values.insert(
        "router.drop_frac",
        ratio(d.packets_dropped as f64, d.packets_injected as f64),
    );
    values.insert("router.misroutes", f.misroutes as f64);
    let (fwd, mis) = if deflection.is_empty() {
        (v.flits_forwarded, v.misroutes)
    } else {
        (f.flits_forwarded, f.misroutes)
    };
    values.insert(
        "router.useful_hop_ratio",
        ratio(fwd.saturating_sub(mis) as f64, fwd as f64),
    );
}

/// Per-layer metrics of layers a workload does not exercise read 0.
fn zero_absent(values: &mut BTreeMap<&'static str, f64>) {
    for (name, _) in crate::metrics::PER_LAYER {
        values.entry(name).or_insert(0.0);
    }
}

// ---------------------------------------------------------------------
// The sweep workload
// ---------------------------------------------------------------------

/// One flow-control method's curve and saturation search on its own pool.
struct MethodRun {
    sweep: LoadSweep,
    pool: Arc<SimPool>,
    curve: Vec<LoadPoint>,
    sat: f64,
}

impl MethodRun {
    /// Every point the pool evaluated, in evaluation order (served from
    /// the pool's cache, so this simulates nothing).
    fn evaluated(&self) -> Vec<LoadPoint> {
        let loads: Vec<f64> = self
            .pool
            .exec_decisions()
            .iter()
            .flatten()
            .map(|d| d.load)
            .collect();
        self.sweep.run(&loads)
    }
}

struct SweepRep {
    wall: f64,
    methods: Vec<MethodRun>,
}

fn new_sweep(
    w: &SweepWorkload,
    seed: u64,
    fc: ocin_core::FlowControl,
) -> (LoadSweep, Arc<SimPool>) {
    let pool = Arc::new(SimPool::with_workers(SWEEP_WORKERS));
    let sweep =
        LoadSweep::new(w.net_cfg(fc), w.sim_cfg(seed), w.workload()).with_pool(Arc::clone(&pool));
    (sweep, pool)
}

/// Every method's curve then saturation search, each on a fresh pool.
fn sweep_rep(w: &SweepWorkload, seed: u64, mut log: Option<&mut SpanLog>) -> SweepRep {
    let t = Instant::now();
    let mut methods = Vec::new();
    for fc in SWEEP_METHODS {
        let (sweep, pool) = new_sweep(w, seed, fc);
        let a = log.as_deref().map_or(0, SpanLog::now);
        let curve = sweep.run(&w.curve);
        let b = log.as_deref().map_or(0, SpanLog::now);
        let sat = sweep.saturation_load(w.tol);
        if let Some(l) = log.as_deref_mut() {
            let c = l.now();
            let m = l.push("sweep.method", a, c, ROOT);
            l.push("sweep.curve", a, b, m);
            l.push("sweep.saturation", b, c, m);
        }
        methods.push(MethodRun {
            sweep,
            pool,
            curve,
            sat,
        });
    }
    SweepRep {
        wall: secs(t),
        methods,
    }
}

fn sweep_digest(rep: &SweepRep) -> u64 {
    rep.methods
        .iter()
        .zip(SWEEP_METHODS)
        .fold(FNV_OFFSET, |h, (m, fc)| {
            fnv(h, &format!("{fc:?}|{:?}|{:?}", m.sat, m.evaluated()))
        })
}

fn sweep(w: &SweepWorkload, opts: &Opts, clock: &Clock, out: &mut Outcome) {
    let seed = opts.seed;
    // Set-up: each method's network, pool and sweep construction.
    let mut setup = Setup::new(!opts.trace, || {
        SWEEP_METHODS.map(|fc| {
            let net = Network::new(w.net_cfg(fc)).expect("valid configuration");
            (net, new_sweep(w, seed, fc))
        })
    });

    let rep0 = sweep_rep(w, seed, None);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    let digest0 = sweep_digest(&rep0);
    let mut evaluated_cycles = 0u64;
    let mut evaluated_hops = 0u64;
    let (mut injected, mut unfinished) = (0u64, 0u64);
    for (m, fc) in rep0.methods.iter().zip(SWEEP_METHODS) {
        for p in m.evaluated() {
            let r = &p.report;
            let mut errors = Vec::new();
            measured_conservation(r, &mut errors);
            out.tally
                .run(&format!("{fc:?} point at load {:.4}", p.offered), errors);
            evaluated_cycles += r.cycles;
            evaluated_hops += r.energy.flit_hops;
            injected += r.packets_injected;
            unfinished += r.unfinished_packets;
        }
    }
    digest_check(opts, digest0, out);

    // The sweep runs on two workers, so the reference kernel does too.
    let untraced_share = if opts.trace { 0.3 } else { 1.0 };
    let mut cal = Calibrator::new(!opts.trace, SWEEP_WORKERS, host_sensitivity(&opts.workload));
    let mut timing = Timing::default();
    while clock.more(timing.len(), untraced_share, rep0.wall + cal.reading_s) {
        setup.batch();
        let rep = sweep_rep(w, seed, None);
        let factors = cal.close();
        setup.commit(factors.setup);
        let mut errors = Vec::new();
        expect(&mut errors, sweep_digest(&rep) == digest0, || {
            "repeated sweep differs from the first".to_string()
        });
        out.tally.run("timed sweep", errors);
        timing.push(rep.wall, factors.run);
    }
    setup.finish(&mut cal, out);
    let untraced_wall = timing.median();

    let curve: Vec<&LoadPoint> = rep0.methods.iter().flat_map(|m| &m.curve).collect();
    let mean = |f: &dyn Fn(&LoadPoint) -> f64| {
        curve.iter().map(|p| f(p)).sum::<f64>() / curve.len() as f64
    };
    for (m, fc) in rep0.methods.iter().zip(SWEEP_METHODS) {
        out.notes.push(format!(
            "{fc:?}: saturation {:.4}; curve (offered, accepted, p50, tail, samples): {}",
            m.sat,
            m.curve
                .iter()
                .map(|p| {
                    let l = &p.report.network_latency;
                    let (t, name) = tail(l);
                    format!(
                        "({:.3}, {:.4}, {}, {name} {t}, {})",
                        p.offered, p.accepted, l.p50, l.count
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    out.notes.push(timing.note("sweeps"));

    if !opts.trace {
        let v = &mut out.values;
        v.insert("wall_s", untraced_wall);
        v.insert("flit_hops_per_s", evaluated_hops as f64 / untraced_wall);
        v.insert("cycles_per_s", evaluated_cycles as f64 / untraced_wall);
        v.insert(
            "sim_latency_p50_cycles",
            mean(&|p| p.report.network_latency.p50),
        );
        v.insert(
            "sim_latency_p99_cycles",
            mean(&|p| tail(&p.report.network_latency).0),
        );
        v.insert("sim_accepted_flit_rate", mean(&|p| p.accepted));
        v.insert(
            "delivered_frac",
            1.0 - ratio(unfinished as f64, injected as f64),
        );
        return;
    }

    // ---- traced legs ----
    // The same sweep with spans around each curve and search call.
    let mut traced = Vec::new();
    while clock.more(traced.len(), 0.45, rep0.wall) {
        let keep = out.spans.len();
        let rep = sweep_rep(w, seed, Some(&mut out.spans));
        if !traced.is_empty() {
            out.spans.truncate(keep);
        }
        traced.push(rep.wall);
    }

    // Serial per-point timing of every point the pool evaluated.
    let mut point_secs = Vec::new();
    for (m, fc) in rep0.methods.iter().zip(SWEEP_METHODS) {
        let parent = {
            let now = out.spans.now();
            out.spans.push("pool.serial", now, now, ROOT)
        };
        for pooled in m.evaluated() {
            let a = out.spans.now();
            let p = m.sweep.spec(pooled.offered).evaluate();
            let b = out.spans.now();
            out.spans.push("pool.point", a, b, parent);
            point_secs.push((b - a) as f64 / 1e9);
            let mut errors = Vec::new();
            expect(&mut errors, p == pooled, || {
                "serial point differs from the pooled one".to_string()
            });
            out.tally.run(
                &format!("{fc:?} serial point at load {:.4}", pooled.offered),
                errors,
            );
        }
    }

    // Router counters from a counters-only probed pass over each curve.
    let probed: Vec<Vec<LoadPoint>> = rep0
        .methods
        .iter()
        .zip(SWEEP_METHODS)
        .map(|(m, fc)| {
            let (sweep, _pool) = new_sweep(w, seed, fc);
            let points = sweep.with_probe(true).run(&w.curve);
            let mut errors = Vec::new();
            expect(
                &mut errors,
                points
                    .iter()
                    .zip(&m.curve)
                    .all(|(p, q)| stripped(&p.report) == q.report),
                || "probed curve differs from the unprobed one".to_string(),
            );
            out.tally.run(&format!("{fc:?} probed curve"), errors);
            points
        })
        .collect();
    let reports = |i: usize| probed[i].iter().map(|p| &p.report).collect::<Vec<_>>();
    router_counters(&reports(0), &reports(1), &reports(2), out);

    let mut requested = 0usize;
    let mut misses = 0usize;
    let mut rounds = 0usize;
    let mut waves = 0usize;
    for m in &rep0.methods {
        let batches = m.pool.exec_decisions();
        let search_batches = batches.len().saturating_sub(1);
        rounds += search_batches;
        requested += w.curve.len() + SWEEP_WORKERS * search_batches;
        misses += batches.iter().map(Vec::len).sum::<usize>();
        waves += batches
            .iter()
            .map(|b| b.iter().map(|d| d.wave + 1).max().unwrap_or(0))
            .sum::<usize>();
    }
    let total_point_s: f64 = point_secs.iter().sum();
    let mut point_ns: Vec<u64> = point_secs.iter().map(|s| (s * 1e9) as u64).collect();
    let v = &mut out.values;
    v.insert(
        "pool.point_s_p50",
        percentile(&mut point_ns, 50.0) as f64 / 1e9,
    );
    v.insert(
        "pool.point_s_max",
        percentile(&mut point_ns, 100.0) as f64 / 1e9,
    );
    v.insert("pool.points_requested", requested as f64);
    v.insert(
        "pool.cache_hit_ratio",
        ratio(requested.saturating_sub(misses) as f64, requested as f64),
    );
    v.insert(
        "exec.busy_frac",
        total_point_s / (SWEEP_WORKERS as f64 * untraced_wall),
    );
    v.insert("exec.waves", waves as f64);
    v.insert("sweep.rounds", rounds as f64);
    v.insert("sim_saturation_load_vc", rep0.methods[0].sat);
    v.insert("sim_saturation_load_dropping", rep0.methods[1].sat);
    v.insert("sim_saturation_load_deflection", rep0.methods[2].sat);
    v.insert(
        "runner.latency_samples",
        curve
            .iter()
            .map(|p| p.report.network_latency.count as f64)
            .sum(),
    );
    v.insert("trace.overhead_frac", median(&traced) / untraced_wall - 1.0);
    let news = time_calls(SETUP_SAMPLES, || {
        Network::new(w.net_cfg(SWEEP_METHODS[0])).expect("valid configuration")
    });
    v.insert("network.new_s", median(&news));
    zero_absent(v);
}
