//! The run loop: deterministic, optionally sharded execution of one
//! simulation run.
//!
//! Every run — [`Simulation::run`] and [`ShardedSimulation::run`] alike
//! — steps the network's contiguous tile-region cells (cut by
//! [`Network::set_shards`]) through their [`ShardHandle`]s, one worker
//! per cell; the sequential run is simply the one-cell case. Several
//! cells use conservative synchronization: every channel has at least
//! one cycle of latency, so each cell can step a lookahead window of
//! [`Network::lookahead_window`] cycles before any boundary flit or
//! credit created by a neighbour could possibly arrive. At each window
//! boundary the workers exchange boundary messages through per-pair
//! mailboxes and agree on the harness exit condition via per-cycle
//! injection/delivery tallies, then continue.
//!
//! The result is the same [`SimReport`], the same probe metrics and the
//! same journey exports at any shard count and under any thread
//! scheduling. Every source of nondeterminism is removed structurally
//! rather than tolerated:
//!
//! * workload draws come from per-node (and per-matrix-row) RNG
//!   streams, so a worker driving a clone of the generator reproduces
//!   exactly the draws a single cell would have made for its nodes
//!   (the first cell drives the original);
//! * each worker folds its deliveries into its own measurement
//!   accumulator of exact latency histograms; equal multisets of
//!   samples give equal histograms (see `MeasureAcc`), so the merged
//!   accumulator does not depend on which cell saw which packet;
//! * probe callbacks of several cells are recorded per worker into
//!   [`LogProbe`] event logs and replayed through one [`NetworkProbe`]
//!   in single-cell order by [`replay_logs`]; a lone cell drives the
//!   [`NetworkProbe`] directly;
//! * the measured-outstanding exit counter is replicated on every
//!   worker from the shared per-cycle tallies, so all workers take the
//!   same exit decision on the same cycle a single cell would;
//! * energy-counter landmarks are cell-local snapshots summed in cell
//!   order, reproducing the single-cell float-accumulation order.
//!
//! See DESIGN.md §3.15 for the lookahead-window argument.

use std::collections::VecDeque;
use std::sync::{Barrier, Mutex};

use ocin_core::ids::{FlowId, NodeId};
use ocin_core::network::{EnergyCounters, Network, PacketSpec};
use ocin_core::probe::NetworkProbe;
use ocin_core::reservation::StaticFlowSpec;
use ocin_core::{
    replay_logs, BoundaryMsg, CellEnergySnapshot, Error, LogProbe, NoProbe, PhasedProbe,
    ShardHandle,
};
use ocin_traffic::{MatrixGenerator, WorkloadGenerator};

use crate::runner::{assemble_report, MeasureAcc, RunTotals, SimReport, Simulation};

/// Reads the shard count from the `OCIN_SHARDS` environment variable
/// (default 1, i.e. sequential execution).
pub fn shards_from_env() -> usize {
    // The blessed entry point for the shard count: it only changes how
    // fast a result arrives, never the result (sharding is
    // bit-identical by construction), so it is exempt from the
    // config-purity rule.
    // ocin-lint: allow(env-read-outside-config) — speed knob, not config
    std::env::var("OCIN_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// A [`Simulation`] stepped across worker threads, bit-identical to
/// [`Simulation::run`] at any shard count.
pub struct ShardedSimulation {
    sim: Simulation,
    shards: usize,
}

impl ShardedSimulation {
    /// Wraps `sim` to run on `shards` worker threads (1 = run
    /// sequentially; clamped to the node count).
    pub fn new(sim: Simulation, shards: usize) -> ShardedSimulation {
        ShardedSimulation {
            sim,
            shards: shards.max(1),
        }
    }

    /// Wraps `sim` with the shard count taken from `OCIN_SHARDS`.
    pub fn from_env(sim: Simulation) -> ShardedSimulation {
        let shards = shards_from_env();
        ShardedSimulation::new(sim, shards)
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Mutable access to the network (e.g. for fault injection before
    /// running).
    pub fn network_mut(&mut self) -> &mut Network {
        self.sim.network_mut()
    }

    /// Runs warmup, measurement, and drain; returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload produces an unroutable packet or a worker
    /// thread panics.
    pub fn run(&mut self) -> SimReport {
        run_cells(&mut self.sim, self.shards)
    }
}

/// The one run loop behind [`Simulation::run`] (one cell) and
/// [`ShardedSimulation::run`]: cuts the network into `shards` cells,
/// steps each through its [`ShardHandle`] on its own worker, and folds
/// the workers' results into the report. The run starts at the
/// network's current cycle, so a network stepped beforehand keeps its
/// phase landmarks at any shard count.
pub(crate) fn run_cells(sim: &mut Simulation, shards: usize) -> SimReport {
    sim.net.set_shards(shards);
    let cells = sim.net.shards();
    let (outs, probe) = match sim.probe_cfg {
        None => (
            step_cells(sim, (0..cells).map(|_| NoProbe).collect()).0,
            None,
        ),
        // A lone cell drives the run's probe directly.
        Some(pc) if cells == 1 => {
            let probe = NetworkProbe::for_network(sim.net.config(), pc);
            let (outs, mut probes) = step_cells(sim, vec![probe]);
            (outs, probes.pop())
        }
        // Several cells log their probe events for an ordered replay.
        Some(pc) => {
            let logs = (0..cells).map(|_| LogProbe::default()).collect();
            let (outs, logs) = step_cells(sim, logs);
            let logs: Vec<_> = logs.into_iter().map(LogProbe::into_events).collect();
            let mut probe = NetworkProbe::for_network(sim.net.config(), pc);
            replay_logs(&logs, &mut probe);
            (outs, Some(probe))
        }
    };

    let end_cycle = outs[0].end_cycle;
    sim.net.finish_sharded_run(end_cycle);
    let energy_start = sum_snaps(outs.iter().map(|o| o.warm_snap.as_ref())).unwrap_or_default();
    let energy_end = sum_snaps(outs.iter().map(|o| o.end_snap.as_ref()));
    let totals = RunTotals {
        injected_packets: outs.iter().map(|o| o.injected_measured).sum(),
        unfinished_packets: outs[0].outstanding,
        energy_start,
        energy_end,
    };
    let mut acc = MeasureAcc::default();
    for o in &outs {
        acc.merge(&o.acc);
    }
    let metrics = probe.map(|p| p.into_metrics(end_cycle));
    assemble_report(&sim.net, &sim.cfg, sim.offered_rate, &acc, totals, metrics)
}

/// Steps every cell of `sim`'s network to the end of the run, each on
/// its own executor task with its own probe, and returns the workers'
/// results and probes in cell order.
fn step_cells<P: PhasedProbe + Send>(
    sim: &mut Simulation,
    probes: Vec<P>,
) -> (Vec<WorkerOut>, Vec<P>) {
    let warm_end = sim.cfg.warmup_cycles;
    let meas_end = warm_end + sim.cfg.measure_cycles;
    let cfg = WorkerCfg {
        start: sim.net.cycle(),
        warm_end,
        meas_end,
        hard_end: meas_end + sim.cfg.drain_cycles,
        window: sim.net.lookahead_window(),
        reservation_period: sim.reservation_period,
        sample: sim.probe_cfg.is_some(),
    };
    let handles = sim.net.shard_handles();
    let ctx = SyncCtx::new(handles.len());
    // The first cell drives the simulation's own generators, the others
    // clones of them. The run consumes them: a later run starts past the
    // measurement window, where nothing is generated.
    let mut feeds = vec![(sim.generator.take(), sim.matrix.take())];
    for _ in 1..handles.len() {
        feeds.push(feeds[0].clone());
    }
    let flows = &sim.flows;
    // Threads are borrowed from the executor seam (`exec.rs`), the
    // workspace's one sanctioned spawn site; results come back in cell
    // order regardless of finish order, and a lone task runs inline.
    crate::exec::run_scoped(
        handles
            .into_iter()
            .zip(probes)
            .zip(feeds)
            .map(|((h, mut probe), (generator, matrix))| {
                let ctx = &ctx;
                move || {
                    let out = worker_loop(h, ctx, cfg, flows, generator, matrix, &mut probe);
                    (out, probe)
                }
            })
            .collect(),
    )
    .into_iter()
    .unzip()
}

/// Immutable per-run parameters copied into every worker.
#[derive(Debug, Clone, Copy)]
struct WorkerCfg {
    start: u64,
    warm_end: u64,
    meas_end: u64,
    hard_end: u64,
    window: u64,
    reservation_period: u64,
    /// Run the probe-only buffer-occupancy sweep each cycle.
    sample: bool,
}

/// Barrier-window synchronization state shared by all workers.
struct SyncCtx {
    barrier: Barrier,
    /// `mailboxes[dst][src]`: boundary messages from cell `src` to cell
    /// `dst`, in creation order. Each (src, dst) pair has its own slot,
    /// and the destination drains slots in source order, so application
    /// order is independent of thread scheduling.
    mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>>,
    /// Per-worker, per-cycle (measured injections, measured deliveries)
    /// for the current window; every worker folds all tallies in cycle
    /// order to replicate the sequential exit counter exactly.
    tallies: Vec<Mutex<Vec<(u64, u64)>>>,
}

impl SyncCtx {
    fn new(shards: usize) -> SyncCtx {
        SyncCtx {
            barrier: Barrier::new(shards),
            mailboxes: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            tallies: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The window-boundary exchange for worker `h` after stepping up to
    /// `wend`: publishes its boundary messages and `tallies`, waits for
    /// every peer, applies the inbound messages (source order fixes the
    /// application order), and replaces `tallies` with the per-cycle
    /// sums over all workers.
    fn exchange(&self, h: &mut ShardHandle<'_>, tallies: &mut Vec<(u64, u64)>, wend: u64) {
        let me = h.cell_index();
        let shards = self.tallies.len();
        for m in h.take_outbox() {
            self.mailboxes[m.dest_cell()][me]
                .lock()
                .expect("a peer worker panicked")
                .push(m);
        }
        // Publish this window's tallies, taking back the buffer published
        // last window for reuse.
        let cycles = tallies.len();
        std::mem::swap(
            &mut *self.tallies[me].lock().expect("a peer worker panicked"),
            tallies,
        );
        self.barrier.wait();

        for src in 0..shards {
            let msgs = std::mem::take(
                &mut *self.mailboxes[me][src]
                    .lock()
                    .expect("a peer worker panicked"),
            );
            h.apply_boundary(msgs, wend - 1);
        }
        tallies.clear();
        tallies.resize(cycles, (0, 0));
        for w in 0..shards {
            let tw = self.tallies[w].lock().expect("a peer worker panicked");
            for (sum, t) in tallies.iter_mut().zip(tw.iter()) {
                sum.0 += t.0;
                sum.1 += t.1;
            }
        }
    }
}

/// What one worker hands back to the main thread.
struct WorkerOut {
    /// Measured-window statistics of the deliveries at this cell's
    /// nodes.
    acc: MeasureAcc,
    injected_measured: u64,
    outstanding: u64,
    warm_snap: Option<CellEnergySnapshot>,
    /// Energy at the end of the measurement window: the `meas_end`
    /// snapshot, or the exit snapshot when the run ended first.
    end_snap: Option<CellEnergySnapshot>,
    end_cycle: u64,
}

/// One cell's whole run: offers its nodes' traffic, injects, steps and
/// drains cycle by cycle, synchronizing with its peers through `ctx` at
/// every window boundary.
fn worker_loop<P: PhasedProbe>(
    mut h: ShardHandle<'_>,
    ctx: &SyncCtx,
    cfg: WorkerCfg,
    flows: &[(FlowId, StaticFlowSpec)],
    mut generator: Option<WorkloadGenerator>,
    mut matrix: Option<MatrixGenerator>,
    probe: &mut P,
) -> WorkerOut {
    let nodes = h.nodes();
    let base = nodes.start;
    let flows: Vec<_> = flows
        .iter()
        .filter(|(_, spec)| nodes.contains(&spec.src.index()))
        .copied()
        .collect();
    let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); nodes.len()];
    let mut acc = MeasureAcc::default();
    let mut injected_measured = 0u64;
    // Replica of the run's measured-outstanding counter, rebuilt each
    // window from the (shared) tallies; identical on every worker.
    let mut outstanding = 0u64;
    let mut warm_snap = None;
    let mut end_snap = None;
    let mut window_tallies: Vec<(u64, u64)> = Vec::new();
    let mut now = cfg.start;
    let end_cycle;
    loop {
        // Landmark snapshots happen at window starts: windows are
        // clipped at warm_end/meas_end below, so these cycles are never
        // interior to a window.
        if now == cfg.warm_end {
            warm_snap = Some(h.energy_snapshot());
        }
        if now == cfg.meas_end {
            end_snap = Some(h.energy_snapshot());
        }
        if now >= cfg.hard_end {
            end_cycle = now;
            break;
        }
        // After meas_end the run may exit on any cycle the outstanding
        // count hits zero, so drop to 1-cycle windows and re-check at
        // exactly that cadence.
        let mut wend = now + if now >= cfg.meas_end { 1 } else { cfg.window };
        for bound in [cfg.warm_end, cfg.meas_end, cfg.hard_end] {
            if now < bound {
                wend = wend.min(bound);
            }
        }

        for t in now..wend {
            probe.set_phase(t, 0);
            let mut inj = 0u64;
            let mut del = 0u64;
            if t < cfg.meas_end {
                for (id, spec) in &flows {
                    if t % cfg.reservation_period == spec.phase {
                        let ps = PacketSpec::new(spec.src, spec.dst)
                            .payload_bits(spec.payload_bits.max(1))
                            .flow(*id);
                        pending[spec.src.index() - base].push_back(ps);
                    }
                }
                if let Some(generation) = generator.as_mut() {
                    for node in nodes.clone() {
                        if let Some(req) = generation.next_request(t, NodeId::new(node as u16)) {
                            pending[node - base].push_back(
                                PacketSpec::new(NodeId::new(node as u16), req.dst)
                                    .payload_bits(req.payload_bits)
                                    .class(req.class),
                            );
                        }
                    }
                }
                if let Some(m) = matrix.as_mut() {
                    for node in nodes.clone() {
                        for req in m.requests_for(NodeId::new(node as u16)) {
                            pending[node - base].push_back(
                                PacketSpec::new(NodeId::new(node as u16), req.dst)
                                    .payload_bits(req.payload_bits)
                                    .class(req.class),
                            );
                        }
                    }
                }
            }
            let in_window = t >= cfg.warm_end && t < cfg.meas_end;
            for node in nodes.clone() {
                let queue = &mut pending[node - base];
                while let Some(spec) = queue.front() {
                    match h.inject(spec, t, probe) {
                        Ok(_) => {
                            queue.pop_front();
                            if in_window {
                                inj += 1;
                                injected_measured += 1;
                            }
                        }
                        Err(Error::InjectionBackpressure { .. }) => break,
                        Err(e) => panic!("workload produced an unroutable packet: {e}"),
                    }
                }
            }
            h.step_cycle(t, probe, cfg.sample);
            for node in nodes.clone() {
                for pkt in h.drain_delivered(NodeId::new(node as u16)) {
                    if acc.on_delivered(&pkt, cfg.warm_end, cfg.meas_end) {
                        del += 1;
                    }
                }
            }
            window_tallies.push((inj, del));
        }

        ctx.exchange(&mut h, &mut window_tallies, wend);
        for (inj, del) in window_tallies.drain(..) {
            outstanding = (outstanding + inj).saturating_sub(del);
        }
        let exit = wend >= cfg.hard_end || (wend >= cfg.meas_end && outstanding == 0);
        if exit && end_snap.is_none() {
            end_snap = Some(h.energy_snapshot());
        }
        // Second barrier: nobody may start writing the next window's
        // mailboxes or tallies while a peer is still reading this one's.
        ctx.barrier.wait();
        if exit {
            end_cycle = wend;
            break;
        }
        now = wend;
    }

    WorkerOut {
        acc,
        injected_measured,
        outstanding,
        warm_snap,
        end_snap,
        end_cycle,
    }
}

/// Sums cell snapshots in cell order into one [`EnergyCounters`],
/// reproducing the float-accumulation order of `Network::stats`.
/// Returns `None` if any cell has no snapshot (the landmark cycle was
/// never reached).
fn sum_snaps<'a>(
    snaps: impl Iterator<Item = Option<&'a CellEnergySnapshot>>,
) -> Option<EnergyCounters> {
    let mut e = EnergyCounters::default();
    for s in snaps {
        let s = s?;
        e.flit_hops += s.flit_hops;
        e.hop_bits += s.hop_bits;
        e.link_flits += s.link_flits;
        for &bp in &s.bit_pitches {
            e.link_bit_pitches += bp;
        }
    }
    Some(e)
}
