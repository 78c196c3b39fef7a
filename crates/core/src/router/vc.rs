//! The baseline credit-based virtual-channel router (paper §2.3, Fig. 3).
//!
//! Each of the five input controllers holds an input buffer and state for
//! every virtual channel. When a head flit arrives, the controller strips
//! the next entry off the route field to select an output port; the flit
//! then arbitrates with the other VCs on its input port and, if it wins,
//! is forwarded to the output controller — *in parallel* with allocating
//! an output virtual channel, as the paper specifies. Each output
//! controller provides a single stage of buffering per input-port
//! connection; staged flits arbitrate for the outgoing link, gated by
//! credits for downstream buffer space. Credits travel back on the
//! reverse-direction channel.
//!
//! The per-(port, VC) hot state is laid out struct-of-arrays: flat
//! `Vec`s indexed `port * num_vcs + vc` keep it on a handful of cache
//! lines instead of chasing one struct-per-VC. Full flits (input
//! buffers, staging banks) stay in their own arrays so the metadata
//! never pages the payloads through the cache.
//!
//! Beside the arrays the router keeps small bitmasks of who is
//! requesting, holding, buffered and staged, updated where those facts
//! change (a head reaching the front of its VC, a grant, a flit pop, a
//! staging, a launch). Each stage walks only the set bits of its mask,
//! in the same order the full scans used, so a busy router's cost
//! follows its traffic rather than its 40 (port, VC) slots.

use std::collections::VecDeque;

use crate::config::{ReservationPolicy, VcPlan};
use crate::flit::{Flit, ServiceClass, VcMask};
use crate::ids::{Cycle, NodeId, PacketId, Port, VcId};
use crate::probe::Probe;

use super::{resolve_route, EvalEnv, RouterOutput};

/// A link-arbitration candidate: (priority, input port, from the
/// reserved staging bank, staged packet).
type LinkCand = (u8, usize, bool, PacketId);

/// Number of distinct class priorities (`ServiceClass::priority`).
const PRIORITIES: usize = ServiceClass::Reserved.priority() as usize + 1;

/// Iterates the set bits of `bits` in ascending order.
#[inline]
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(b)
    })
}

/// The set bits of `bits` in rotated order: those at or above bit
/// `first` ascending, then those below it ascending.
#[inline]
fn rotated_bits(bits: u64, first: usize) -> impl Iterator<Item = usize> {
    let upper = bits & (u64::MAX << first);
    set_bits(upper).chain(set_bits(bits & !upper))
}

/// The paper's virtual-channel router for one tile.
///
/// Per-entity state is stored struct-of-arrays. Input VCs are indexed
/// `input_port * num_vcs + vc` (`in_bufs`, `in_out_port`, `in_out_vc`);
/// output VCs `output_port * num_vcs + vc` (`out_owner`, `out_credits`);
/// staging slots `output_port * Port::COUNT + input_port` (`staging`,
/// `reserved_staging`).
#[derive(Debug)]
pub struct VcRouter {
    node: NodeId,
    num_vcs: usize,
    buf_depth: usize,
    plan: VcPlan,
    dateline_aware: bool,
    /// Cycles a flit occupies each output link (1 = full-width channel).
    phits: u64,
    /// Input buffer per (input port, VC).
    in_bufs: Vec<VecDeque<Flit>>,
    /// Output port of the packet at the head of each input VC.
    in_out_port: Vec<Option<Port>>,
    /// Output VC allocated to that packet.
    in_out_vc: Vec<Option<VcId>>,
    /// Per-input-port switch round-robin pointer.
    in_rr: [usize; Port::COUNT],
    /// One staging flit per (output port, input port) connection.
    staging: Vec<Option<Flit>>,
    /// Dedicated staging for pre-scheduled (reserved-class) flits, so a
    /// credit-stalled dynamic flit can never head-of-line block them —
    /// §2.6's "moves from one link to another without arbitration or
    /// delay".
    reserved_staging: Vec<Option<Flit>>,
    /// Which (input port, input VC) owns each output VC.
    out_owner: Vec<Option<(u8, u8)>>,
    /// Credits: free downstream buffer slots per output VC.
    out_credits: Vec<u64>,
    /// Credit ceiling per output port (tile port differs).
    out_max_credits: [u64; Port::COUNT],
    /// First cycle each output link is free again (phit serialization).
    busy_until: [u64; Port::COUNT],
    /// Per-output-port allocation round-robin pointer.
    rr_alloc: [usize; Port::COUNT],
    /// Per-output-port link round-robin pointer.
    rr_link: [usize; Port::COUNT],
    /// Flits currently inside the router (input buffers + staging).
    /// Maintained incrementally so `is_quiescent` is O(1) on the
    /// activity-gated hot path; `occupancy()` recomputes it by walking
    /// the buffers and the two must always agree.
    in_flight: usize,
    /// Persistent scratch for `arbitrate_links` candidates.
    link_scratch: Vec<LinkCand>,
    /// The VCs that exist on every port (`num_vcs` low bits).
    vc_limit: u8,
    /// Effective VC mask of the head latched at each input VC, cached
    /// when the head reaches the front (see `latch`).
    head_mask: Vec<VcMask>,
    /// Per class priority, the input VCs (bit `port * num_vcs + vc`)
    /// whose latched head has that priority. Only meaningful where the
    /// VC is in some `req` set.
    head_pri: [u64; PRIORITIES],
    /// Per output port, the input VCs latched to it and not yet granted
    /// an output VC (bit `port * num_vcs + vc`).
    req: [u64; Port::COUNT],
    /// Per output port, its output VCs held by some input VC.
    owned: [u8; Port::COUNT],
    /// Per input port, its VCs holding an output VC.
    held: [u8; Port::COUNT],
    /// Per input port, its VCs with at least one buffered flit.
    nonempty: [u8; Port::COUNT],
    /// Per output port, its occupied staging slots: bit
    /// `2 * input_port + 1` for the reserved bank, `2 * input_port`
    /// for the ordinary one.
    staged: [u16; Port::COUNT],
}

impl VcRouter {
    /// Creates the router for `node`.
    ///
    /// `eject_credits` bounds flits in flight toward the tile interface.
    pub fn new(
        node: NodeId,
        plan: VcPlan,
        dateline_aware: bool,
        buf_depth: usize,
        eject_credits: u64,
        phits: u64,
    ) -> VcRouter {
        let num_vcs = plan.num_vcs;
        // INVARIANT: the per-port VC bitmasks are one byte wide, and
        // `VcPlan::validate` caps `num_vcs` at 8.
        assert!(num_vcs <= 8, "VC router supports at most 8 VCs");
        let mut out_max_credits = [buf_depth as u64; Port::COUNT];
        out_max_credits[Port::Tile.index()] = eject_credits;
        let mut out_credits = vec![0u64; Port::COUNT * num_vcs];
        for (o, &max) in out_max_credits.iter().enumerate() {
            out_credits[o * num_vcs..(o + 1) * num_vcs].fill(max);
        }
        VcRouter {
            node,
            num_vcs,
            buf_depth,
            plan,
            dateline_aware,
            phits: phits.max(1),
            in_bufs: (0..Port::COUNT * num_vcs)
                .map(|_| VecDeque::with_capacity(buf_depth))
                .collect(),
            in_out_port: vec![None; Port::COUNT * num_vcs],
            in_out_vc: vec![None; Port::COUNT * num_vcs],
            in_rr: [0; Port::COUNT],
            staging: (0..Port::COUNT * Port::COUNT).map(|_| None).collect(),
            reserved_staging: (0..Port::COUNT * Port::COUNT).map(|_| None).collect(),
            out_owner: vec![None; Port::COUNT * num_vcs],
            out_credits,
            out_max_credits,
            busy_until: [0; Port::COUNT],
            rr_alloc: [0; Port::COUNT],
            rr_link: [0; Port::COUNT],
            in_flight: 0,
            link_scratch: Vec::with_capacity(2 * Port::COUNT),
            vc_limit: ((1u16 << num_vcs) - 1) as u8,
            head_mask: vec![VcMask::NONE; Port::COUNT * num_vcs],
            head_pri: [0; PRIORITIES],
            req: [0; Port::COUNT],
            owned: [0; Port::COUNT],
            held: [0; Port::COUNT],
            nonempty: [0; Port::COUNT],
            staged: [0; Port::COUNT],
        }
    }

    /// Flat index of (input or output) port `p`, VC `v`.
    #[inline]
    fn pv(&self, p: usize, v: usize) -> usize {
        p * self.num_vcs + v
    }

    /// Flat index of output port `o`'s staging slot for input port `i`.
    #[inline]
    fn slot(o: usize, i: usize) -> usize {
        o * Port::COUNT + i
    }

    /// Bit of input port `i`'s staging slot (reserved bank or not) in
    /// an output port's `staged` mask.
    #[inline]
    fn staged_bit(i: usize, reserved: bool) -> u16 {
        1 << (2 * i + usize::from(reserved))
    }

    /// Recomputes every incremental mask (`req`, `head_pri`,
    /// `head_mask`, `owned`, `held`, `nonempty`, `staged`) from the
    /// struct-of-arrays state and reports whether the kept copies
    /// agree. Also checks that every buffered VC has a latched route.
    fn masks_consistent(&self) -> bool {
        let mut req = [0u64; Port::COUNT];
        let mut owned = [0u8; Port::COUNT];
        let mut held = [0u8; Port::COUNT];
        let mut nonempty = [0u8; Port::COUNT];
        let mut staged = [0u16; Port::COUNT];
        for idx in 0..self.in_bufs.len() {
            let (i, v) = (idx / self.num_vcs, idx % self.num_vcs);
            let front = self.in_bufs[idx].front();
            if front.is_some() {
                nonempty[i] |= 1 << v;
                if self.in_out_port[idx].is_none() {
                    return false;
                }
            }
            if self.in_out_vc[idx].is_some() {
                held[i] |= 1 << v;
            }
            if let (Some(port), None, Some(front)) =
                (self.in_out_port[idx], self.in_out_vc[idx], front)
            {
                let bit = 1u64 << idx;
                req[port.index()] |= bit;
                let pri = usize::from(front.meta.class.priority());
                let mask = self.effective_mask(front).bits() & self.vc_limit;
                if self.head_pri[pri] & bit == 0 || self.head_mask[idx].bits() != mask {
                    return false;
                }
            }
        }
        for (ov_idx, owner) in self.out_owner.iter().enumerate() {
            if owner.is_some() {
                owned[ov_idx / self.num_vcs] |= 1 << (ov_idx % self.num_vcs);
            }
        }
        for (s, (plain, reserved)) in self.staging.iter().zip(&self.reserved_staging).enumerate() {
            let (o, i) = (s / Port::COUNT, s % Port::COUNT);
            if plain.is_some() {
                staged[o] |= Self::staged_bit(i, false);
            }
            if reserved.is_some() {
                staged[o] |= Self::staged_bit(i, true);
            }
        }
        req == self.req
            && owned == self.owned
            && held == self.held
            && nonempty == self.nonempty
            && staged == self.staged
    }

    /// True when evaluating this router is a guaranteed no-op: no flit
    /// is buffered in any input VC or staged at any output. Held VC
    /// grants and credit counts are untouched by an empty evaluation,
    /// so a quiescent router may be skipped without affecting any
    /// later decision (see DESIGN.md §3.13).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0
    }

    /// Accepts a flit from an input channel (or the tile port).
    ///
    /// # Panics
    ///
    /// Panics if the per-VC buffer overflows — a credit-protocol
    /// violation that indicates a bug, not an operational condition.
    pub fn receive(&mut self, port: Port, mut flit: Flit) {
        if flit.kind.is_head() {
            resolve_route(&mut flit, port);
        }
        let vc = flit.link_vc.index();
        let idx = self.pv(port.index(), vc);
        let buf = &mut self.in_bufs[idx];
        // INVARIANT: the credit protocol bounds in-flight flits per VC
        // by the buffer depth; overflow means a credit was forged.
        assert!(
            buf.len() < self.buf_depth,
            "router {}: input {port} vc{vc} buffer overflow",
            self.node
        );
        let was_empty = buf.is_empty();
        buf.push_back(flit);
        self.in_flight += 1;
        if was_empty {
            self.nonempty[port.index()] |= 1 << vc;
            // A flit landing in an empty VC is its new front; a VC
            // still holding a route is mid-packet and keeps it.
            if self.in_out_port[idx].is_none() {
                self.latch(idx);
            }
        }
    }

    /// Applies an arriving credit for output `port`, VC `vc`.
    pub fn credit_arrived(&mut self, port: Port, vc: VcId) {
        let idx = self.pv(port.index(), vc.index());
        self.out_credits[idx] += 1;
        // INVARIANT: credit conservation — credits in hand never
        // exceed the downstream buffer depth; each launch consumes one
        // and each drained slot returns exactly one.
        debug_assert!(
            self.out_credits[idx] <= self.out_max_credits[port.index()],
            "router {}: credit overflow on {port} {vc:?}",
            self.node
        );
    }

    /// Total flits buffered (input buffers + output staging).
    pub fn occupancy(&self) -> usize {
        let bufs: usize = self.in_bufs.iter().map(VecDeque::len).sum();
        let staged = self
            .staging
            .iter()
            .chain(self.reserved_staging.iter())
            .filter(|s| s.is_some())
            .count();
        bufs + staged
    }

    /// Renders the router's internal state — per-VC buffer occupancy and
    /// held allocations, staging slots, output credits and owners — for
    /// congestion diagnosis. A VC shows its head's output port from the
    /// moment the head becomes the front of the VC, before the next
    /// evaluation.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "router {}", self.node);
        for i in 0..Port::COUNT {
            let busy: Vec<String> = (0..self.num_vcs)
                .filter(|&v| {
                    let idx = self.pv(i, v);
                    !self.in_bufs[idx].is_empty() || self.in_out_vc[idx].is_some()
                })
                .map(|v| {
                    let idx = self.pv(i, v);
                    format!(
                        "vc{v}:{}f->{}{}",
                        self.in_bufs[idx].len(),
                        self.in_out_port[idx].map_or("-".into(), |p| p.to_string()),
                        self.in_out_vc[idx].map_or(String::new(), |o| format!("/{o}"))
                    )
                })
                .collect();
            if !busy.is_empty() {
                let _ = writeln!(s, "  in {}: {}", Port::from_index(i), busy.join(" "));
            }
        }
        for o in 0..Port::COUNT {
            let base = Self::slot(o, 0);
            let staged: Vec<String> = self.staging[base..base + Port::COUNT]
                .iter()
                .chain(self.reserved_staging[base..base + Port::COUNT].iter())
                .enumerate()
                .filter_map(|(i, f)| {
                    f.as_ref()
                        .map(|f| format!("i{}:{}({})", i % Port::COUNT, f.meta.packet, f.link_vc))
                })
                .collect();
            let _ = writeln!(
                s,
                "  out {}: credits {:?} owners {:?} staged [{}]",
                Port::from_index(o),
                &self.out_credits[self.pv(o, 0)..self.pv(o, self.num_vcs)],
                self.out_owner[self.pv(o, 0)..self.pv(o, self.num_vcs)]
                    .iter()
                    .map(|w| w.map(|(i, v)| format!("i{i}v{v}")))
                    .collect::<Vec<_>>(),
                staged.join(" ")
            );
        }
        s
    }

    /// The VCs a packet may be allocated here, given its own mask, class,
    /// routing segment, and dateline class.
    fn effective_mask(&self, flit: &Flit) -> VcMask {
        let plan_mask = if flit.meta.valiant_boundary != 0 {
            self.plan.mask_for_two_segment(
                flit.meta.segment,
                flit.meta.dateline_class,
                self.dateline_aware,
            )
        } else {
            self.plan.mask_for(
                flit.meta.class,
                flit.meta.dateline_class,
                self.dateline_aware,
            )
        };
        flit.vc_mask.and(plan_mask)
    }

    /// Tier rank of `vc` under `flit`'s routing discipline — the index
    /// of the dateline/segment class whose plan mask contains it.
    /// Returns `None` when the VC belongs to more than one tier (merged
    /// non-dateline masks, a lone-bit Valiant split) and ordering is
    /// therefore undefined.
    fn vc_tier(&self, flit: &Flit, vc: VcId) -> Option<u8> {
        let masks: [VcMask; 4] = if flit.meta.valiant_boundary != 0 {
            [
                self.plan.mask_for_two_segment(0, 0, self.dateline_aware),
                self.plan.mask_for_two_segment(0, 1, self.dateline_aware),
                self.plan.mask_for_two_segment(1, 0, self.dateline_aware),
                self.plan.mask_for_two_segment(1, 1, self.dateline_aware),
            ]
        } else {
            let m0 = self.plan.mask_for(flit.meta.class, 0, self.dateline_aware);
            let m1 = self.plan.mask_for(flit.meta.class, 1, self.dateline_aware);
            [m0, m1, VcMask::NONE, VcMask::NONE]
        };
        let mut tier = None;
        for (t, m) in masks.iter().enumerate() {
            if m.allows(vc) {
                if tier.is_some() {
                    return None;
                }
                tier = Some(t as u8);
            }
        }
        tier
    }

    /// Debug cross-check of the static verifier's ordering invariant: a
    /// through grant may only land on a lower VC tier than the one the
    /// packet arrived on when the route turns onto the other axis —
    /// exactly the point where the router resets the dateline class.
    fn grant_is_monotone(
        &self,
        in_port: usize,
        out_port: usize,
        in_vc: VcId,
        out_vc: VcId,
    ) -> bool {
        let (Port::Dir(din), Port::Dir(dout)) =
            (Port::from_index(in_port), Port::from_index(out_port))
        else {
            // Injection starts the resource chain and ejection ends it;
            // neither is ordered against a network channel.
            return true;
        };
        if din.axis() != dout.axis() {
            return true;
        }
        let Some(front) = self.in_bufs[self.pv(in_port, in_vc.index())].front() else {
            return true;
        };
        match (self.vc_tier(front, in_vc), self.vc_tier(front, out_vc)) {
            (Some(from), Some(to)) => to >= from,
            _ => true,
        }
    }

    /// Evaluates one router cycle: VC allocation, switch traversal, and
    /// link arbitration (the first two proceed in parallel per the paper).
    /// Allocation grants/conflicts, credit stalls, and preemptions are
    /// reported to `probe`; the probe never influences any decision.
    pub fn evaluate(&mut self, env: &EvalEnv<'_>, out: &mut RouterOutput, probe: &mut dyn Probe) {
        self.allocate_vcs(env.now, probe);
        self.traverse_switch(env.now, out, probe);
        self.arbitrate_links(env, out, probe);
        debug_assert!(
            self.masks_consistent(),
            "router {}: incremental masks diverged from router state",
            self.node
        );
    }

    /// Latches the output port of the head that has just become the
    /// front of input VC `idx` and files its VC request, caching the
    /// request's effective mask and class priority.
    fn latch(&mut self, idx: usize) {
        // INVARIANT: only called when the VC has a front flit.
        let front = self.in_bufs[idx].front().expect("latched VC has a front");
        // INVARIANT: wormhole ordering — a VC with no held route sees a
        // head flit first.
        assert!(
            front.kind.is_head(),
            "router {}: body flit at head of an idle VC",
            self.node
        );
        // INVARIANT: receive() resolves every head.
        let port = front.resolved_port.expect("head resolved at receive");
        let mask = VcMask::new(self.effective_mask(front).bits() & self.vc_limit);
        let pri = usize::from(front.meta.class.priority());
        let bit = 1u64 << idx;
        self.in_out_port[idx] = Some(port);
        self.head_mask[idx] = mask;
        for (p, heads) in self.head_pri.iter_mut().enumerate() {
            if p == pri {
                *heads |= bit;
            } else {
                *heads &= !bit;
            }
        }
        self.req[port.index()] |= bit;
    }

    /// Grants free output VCs to waiting head flits, highest class first,
    /// round-robin among equals.
    ///
    /// The request list of output `o` is `req[o]` read in ascending
    /// (port, VC) order. Rotating it by `rr_alloc[o]` and stable-sorting
    /// by descending priority is the same as walking each priority's
    /// requests from the rotation point onward and then wrapping round.
    fn allocate_vcs(&mut self, now: Cycle, probe: &mut dyn Probe) {
        for o in 0..Port::COUNT {
            let reqs = self.req[o];
            if reqs == 0 {
                continue;
            }
            let rot = self.rr_alloc[o] % reqs.count_ones() as usize;
            // INVARIANT: `rot` is below the request count, so the
            // rotation point names one of the requests.
            let first = set_bits(reqs).nth(rot).expect("rot < request count");
            let mut granted_any = false;
            for pri in (0..PRIORITIES).rev() {
                for idx in rotated_bits(reqs & self.head_pri[pri], first) {
                    granted_any |= self.grant(o, idx, now, probe);
                }
            }
            if granted_any {
                self.rr_alloc[o] = self.rr_alloc[o].wrapping_add(1);
            }
        }
    }

    /// Grants input VC `idx`'s head the lowest free output VC in its
    /// mask on output `o`, or reports the conflict. Returns whether it
    /// was granted.
    fn grant(&mut self, o: usize, idx: usize, now: Cycle, probe: &mut dyn Probe) -> bool {
        let port = Port::from_index(o);
        // INVARIANT: a requester is latched at its head, which stays at
        // the front until it is granted and traverses the switch.
        let packet = self.in_bufs[idx]
            .front()
            .expect("requester has a head")
            .meta
            .packet;
        let free = self.head_mask[idx].bits() & !self.owned[o];
        if free == 0 {
            probe.alloc_conflict(now, self.node, port, packet);
            return false;
        }
        let ov = free.trailing_zeros() as usize;
        let (i, v) = (idx / self.num_vcs, idx % self.num_vcs);
        // INVARIANT: VC allocation is exclusive — `owned` masks out every
        // held output VC, and a requester holds no grant while it
        // requests (it leaves the request set the cycle it is granted).
        debug_assert!(
            self.out_owner[self.pv(o, ov)].is_none(),
            "router {}: output VC {ov} re-granted while held",
            self.node
        );
        debug_assert!(
            self.in_out_vc[idx].is_none(),
            "router {}: input {i} vc{v} granted a second output VC",
            self.node
        );
        // INVARIANT: dateline monotonicity — through traffic only climbs
        // VC tiers; a grant may fall to a lower tier only when the route
        // turns onto the other axis, which is exactly when the router
        // resets the dateline class. The static verifier (ocin-verify)
        // proves deadlock freedom from this ordering, so a violation
        // here would invalidate its certificate.
        debug_assert!(
            self.grant_is_monotone(i, o, VcId::new(v as u8), VcId::new(ov as u8)),
            "router {}: non-monotone VC grant in {i} vc{v} -> out {port} vc{ov}",
            self.node
        );
        let owner_idx = self.pv(o, ov);
        self.out_owner[owner_idx] = Some((i as u8, v as u8));
        self.in_out_vc[idx] = Some(VcId::new(ov as u8));
        self.owned[o] |= 1 << ov;
        self.held[i] |= 1 << v;
        self.req[o] &= !(1u64 << idx);
        probe.vc_allocated(now, self.node, port, VcId::new(ov as u8), packet);
        true
    }

    /// Forwards one flit per input port into the output staging buffers,
    /// returning a credit upstream for each freed input slot.
    ///
    /// The downstream-buffer credit is checked *and consumed here*: a
    /// flit only enters staging with its credit in hand, so staged flits
    /// never wait on buffer space — only on link bandwidth, which
    /// round-robin grants in bounded time. This keeps the shared staging
    /// slot from coupling virtual-channel classes (a credit-starved
    /// class-0 flit parked in staging would otherwise block the class-1
    /// escape VCs and reintroduce torus deadlock).
    fn traverse_switch(&mut self, now: Cycle, out: &mut RouterOutput, probe: &mut dyn Probe) {
        let num_vcs = self.num_vcs;
        for i in 0..Port::COUNT {
            // Candidate VCs: flit at front and output VC held (and so a
            // latched port), visited in round-robin order from `in_rr`;
            // each must also find its staging slot free and downstream
            // credit available.
            let ready = self.held[i] & self.nonempty[i];
            if ready == 0 {
                continue;
            }
            let mut best: Option<(u8, usize)> = None;
            for v in rotated_bits(u64::from(ready), self.in_rr[i]) {
                let idx = self.pv(i, v);
                // INVARIANT: `nonempty` names buffered VCs and `held`
                // names VCs with a latched port and a granted VC.
                let front = self.in_bufs[idx].front().expect("nonempty VC has a front");
                let op = self.in_out_port[idx].expect("held VC has a port");
                let ovc = self.in_out_vc[idx].expect("held VC has a VC");
                if self.out_credits[self.pv(op.index(), ovc.index())] == 0 {
                    probe.credit_stall(now, self.node, op, ovc, front.meta.packet);
                    continue;
                }
                let reserved = front.meta.class == ServiceClass::Reserved;
                if self.staged[op.index()] & Self::staged_bit(i, reserved) != 0 {
                    continue;
                }
                let pri = front.meta.class.priority();
                if best.is_none_or(|(bp, _)| pri > bp) {
                    best = Some((pri, v));
                }
            }
            let Some((_, v)) = best else { continue };
            let idx = self.pv(i, v);
            // INVARIANT: the candidate scan above admitted this VC only
            // with a buffered flit, a resolved output port, and an
            // allocated output VC in hand.
            let mut flit = self.in_bufs[idx].pop_front().expect("candidate has a flit");
            let op = self.in_out_port[idx].expect("candidate has a port");
            flit.link_vc = self.in_out_vc[idx].expect("candidate has a VC");
            let now_empty = self.in_bufs[idx].is_empty();
            if now_empty {
                self.nonempty[i] &= !(1 << v);
            }
            if flit.kind.is_tail() {
                self.in_out_port[idx] = None;
                self.in_out_vc[idx] = None;
                self.held[i] &= !(1 << v);
                // The next packet's head, if already buffered, is the
                // new front: latch it now.
                if !now_empty {
                    self.latch(idx);
                }
            }
            let credit_idx = self.pv(op.index(), flit.link_vc.index());
            // INVARIANT: credit conservation — the candidate scan only
            // admits VCs with a credit in hand, so the decrement here
            // can never underflow (forging buffer space downstream).
            debug_assert!(
                self.out_credits[credit_idx] > 0,
                "router {}: launching into {op} without a credit",
                self.node
            );
            self.out_credits[credit_idx] -= 1;
            let (staged_vc, staged_packet) = (flit.link_vc, flit.meta.packet);
            let reserved = flit.meta.class == ServiceClass::Reserved;
            self.staged[op.index()] |= Self::staged_bit(i, reserved);
            if reserved {
                self.reserved_staging[Self::slot(op.index(), i)] = Some(flit);
            } else {
                self.staging[Self::slot(op.index(), i)] = Some(flit);
            }
            probe.switch_traversed(now, self.node, op, staged_vc, staged_packet);
            out.credits.push((Port::from_index(i), VcId::new(v as u8)));
            self.in_rr[i] = (v + 1) % num_vcs;
        }
    }

    /// Staged flits with downstream credit arbitrate for each link; a
    /// reserved slot hands the link to its flow's flit without
    /// arbitration.
    fn arbitrate_links(
        &mut self,
        env: &EvalEnv<'_>,
        out: &mut RouterOutput,
        probe: &mut dyn Probe,
    ) {
        // Persistent scratch: drained and refilled per output port,
        // returned to the router at the end so its capacity survives.
        let mut candidates = std::mem::take(&mut self.link_scratch);
        for o in 0..Port::COUNT {
            let port = Port::from_index(o);
            // A serialized (narrow) link is occupied for `phits` cycles
            // per flit.
            if self.staged[o] == 0 || env.now < self.busy_until[o] {
                continue;
            }
            // (priority, input idx, from the reserved staging bank,
            // staged packet), input-major with the ordinary bank first.
            // Staged flits already hold their downstream credit, so
            // every one is a launch candidate.
            candidates.clear();
            for b in set_bits(u64::from(self.staged[o])) {
                let (i, reserved) = (b / 2, b % 2 == 1);
                let bank = if reserved {
                    &self.reserved_staging
                } else {
                    &self.staging
                };
                // INVARIANT: `staged` names exactly the occupied slots.
                let f = bank[Self::slot(o, i)]
                    .as_ref()
                    .expect("staged slot occupied");
                candidates.push((f.meta.class.priority(), i, reserved, f.meta.packet));
            }
            // Reserved slots bypass arbitration entirely (paper §2.6).
            let mut winner: Option<(usize, bool)> = None;
            if let (Some((table, policy)), Port::Dir(d)) = (env.reservations, port) {
                if let Some(flow) = table.reserved_flow(self.node, d, env.now) {
                    winner = candidates
                        .iter()
                        .filter(|&&(_, _, reserved, _)| reserved)
                        .map(|&(_, i, r, _)| (i, r))
                        .find(|&(i, _)| {
                            self.reserved_staging[Self::slot(o, i)]
                                .as_ref()
                                .is_some_and(|f| f.meta.flow == Some(flow))
                        });
                    if winner.is_none() && policy == ReservationPolicy::Strict {
                        // The slot's owner is absent and the slot may not
                        // be reused: the link idles this cycle.
                        continue;
                    }
                }
            }
            // Highest priority wins; ties go to the earliest candidate
            // in rotated round-robin order. Allocation-free equivalent
            // of rotating a copy and stable-sorting by priority.
            let (winner, from_reserved) = winner.unwrap_or_else(|| {
                let rot = self.rr_link[o] % candidates.len();
                let mut best: Option<(u8, usize)> = None;
                for j in 0..candidates.len() {
                    let pri = candidates[(rot + j) % candidates.len()].0;
                    if best.is_none_or(|(bp, _)| pri > bp) {
                        best = Some((pri, j));
                    }
                }
                // INVARIANT: the candidate set was checked non-empty
                // above, so a best entry always exists.
                let (_, j) = best.expect("non-empty candidate set");
                let (_, i, reserved, _) = candidates[(rot + j) % candidates.len()];
                (i, reserved)
            });
            let bank = if from_reserved {
                &mut self.reserved_staging
            } else {
                &mut self.staging
            };
            // INVARIANT: the winner was drawn from the candidate list,
            // which only names occupied staging slots.
            let flit = bank[Self::slot(o, winner)].take().expect("winner staged");
            self.staged[o] &= !Self::staged_bit(winner, from_reserved);
            // A lower-class flit left staged while a higher-class one took
            // the link is the paper's §2.2 preemption in action; report
            // each suspended flit so the stall is attributable per packet.
            for &(pri, _, _, packet) in &candidates {
                if pri < flit.meta.class.priority() {
                    probe.preemption(env.now, self.node, port, packet);
                }
            }
            if flit.kind.is_tail() {
                let owner_idx = self.pv(o, flit.link_vc.index());
                // INVARIANT: a tail releases a VC its head was granted;
                // the grant stays held until this release, so the owner
                // entry must still be present.
                debug_assert!(
                    self.out_owner[owner_idx].is_some(),
                    "router {}: tail releasing unowned VC on {port}",
                    self.node
                );
                self.out_owner[owner_idx] = None;
                self.owned[o] &= !flit.link_vc.bit();
            }
            self.busy_until[o] = env.now + self.phits;
            self.rr_link[o] = self.rr_link[o].wrapping_add(1);
            out.launches.push((port, flit));
            // INVARIANT: `in_flight` counts exactly the flits held in
            // buffers and staging; a launch removes one from staging.
            self.in_flight -= 1;
        }
        self.link_scratch = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, ServiceClass};
    use crate::ids::Direction;
    use crate::probe::NoProbe;
    use crate::router::tests::test_flit;
    use crate::topology::{FoldedTorus2D, Topology};

    fn router() -> VcRouter {
        VcRouter::new(NodeId::new(0), VcPlan::paper_baseline(), true, 4, 64, 1)
    }

    fn env_at<'a>(topo: &'a dyn Topology, now: u64) -> EvalEnv<'a> {
        EvalEnv {
            now,
            reservations: None,
            topo,
        }
    }

    fn env<'a>(topo: &'a dyn Topology) -> EvalEnv<'a> {
        env_at(topo, 0)
    }

    fn eval(r: &mut VcRouter, env: &EvalEnv<'_>) -> RouterOutput {
        let mut out = RouterOutput::default();
        r.evaluate(env, &mut out, &mut NoProbe);
        out
    }

    #[test]
    fn single_flit_traverses_in_one_evaluation() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let f = test_flit(FlitKind::HeadTail, &[Direction::East, Direction::East]);
        r.receive(Port::Tile, f);
        assert!(!r.is_quiescent());
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        let (port, f) = &out.launches[0];
        assert_eq!(*port, Port::Dir(Direction::East));
        // Credit returned for the tile input slot.
        let credits: Vec<_> = out.credits.iter().copied().collect();
        assert_eq!(credits, vec![(Port::Tile, VcId::new(0))]);
        // The launched flit holds a bulk class-0 VC (0 or 1).
        assert!(f.link_vc.index() < 2);
        assert_eq!(r.occupancy(), 0);
        assert!(r.is_quiescent());
    }

    #[test]
    fn extract_goes_to_tile_port() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
        // Simulate prior hop: strip the absolute entry.
        super::super::resolve_route(&mut f, Port::Tile);
        f.resolved_port = None;
        r.receive(Port::Dir(Direction::West), f);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        assert_eq!(out.launches[0].0, Port::Tile);
    }

    #[test]
    fn credits_gate_the_link() {
        let topo = FoldedTorus2D::new(4);
        let mut r = VcRouter::new(NodeId::new(0), VcPlan::paper_baseline(), true, 1, 64, 1);
        // Two single-flit packets for the same output; depth-1 downstream.
        let f1 = test_flit(FlitKind::HeadTail, &[Direction::East]);
        let mut f2 = test_flit(FlitKind::HeadTail, &[Direction::East]);
        f2.meta.packet = crate::ids::PacketId(2);
        f2.link_vc = VcId::new(1);
        r.receive(Port::Tile, f1);
        r.receive(Port::Tile, f2);
        let out = eval(&mut r, &env_at(&topo, 0));
        // Both may stage over two cycles, but only vc-credit-backed flits
        // launch. Baseline plan gives bulk class0 = {vc0, vc1}; depth 1
        // each, so two launches are possible across cycles but at most
        // one flit per cycle leaves the single East link.
        assert_eq!(out.launches.len(), 1);
        let out2 = eval(&mut r, &env_at(&topo, 1));
        assert_eq!(out2.launches.len(), 1);
        // Now both downstream VCs are out of credits.
        let f3 = {
            let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
            f.meta.packet = crate::ids::PacketId(3);
            f
        };
        r.receive(Port::Tile, f3);
        let out3 = eval(&mut r, &env_at(&topo, 2));
        assert_eq!(out3.launches.len(), 0, "no credits, no launch");
        // The flit is still in flight, so the router must stay awake.
        assert!(!r.is_quiescent());
        // A credit arrives; the flit moves.
        r.credit_arrived(Port::Dir(Direction::East), VcId::new(0));
        let out4 = eval(&mut r, &env_at(&topo, 3));
        assert_eq!(out4.launches.len(), 1);
    }

    #[test]
    fn priority_flit_wins_the_link() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut bulk = test_flit(FlitKind::HeadTail, &[Direction::North]);
        bulk.meta.packet = crate::ids::PacketId(10);
        let mut pri = test_flit(FlitKind::HeadTail, &[Direction::North]);
        pri.meta.packet = crate::ids::PacketId(11);
        pri.meta.class = ServiceClass::Priority;
        pri.link_vc = VcId::new(4);
        // Arrive on different inputs, same output.
        r.receive(Port::Tile, bulk);
        r.receive(Port::Dir(Direction::South), {
            let mut f = pri;
            super::super::resolve_route(&mut f, Port::Tile); // consume absolute entry
            f.heading = Direction::North;
            f.resolved_port = None;
            // Rebuild: pretend it still needs its turn; simpler to hand-
            // craft a straight-through route.
            f.route = crate::route::SourceRoute::compile(&[Direction::North, Direction::North])
                .unwrap()
                .strip_first_hop()
                .unwrap()
                .1;
            f
        });
        let out = eval(&mut r, &env(&topo));
        let north: Vec<_> = out
            .launches
            .iter()
            .filter(|(p, _)| *p == Port::Dir(Direction::North))
            .collect();
        assert_eq!(north.len(), 1);
        assert_eq!(north[0].1.meta.class, ServiceClass::Priority);
    }

    #[test]
    fn multi_flit_packet_streams_in_order() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let route = [Direction::East, Direction::East];
        let mut flits = vec![
            test_flit(FlitKind::Head, &route),
            test_flit(FlitKind::Body, &route),
            test_flit(FlitKind::Tail, &route),
        ];
        for (i, f) in flits.iter_mut().enumerate() {
            f.meta.flit_index = i as u16;
            f.meta.packet_len = 3;
        }
        let mut launched = Vec::new();
        let mut pending = flits.into_iter().collect::<std::collections::VecDeque<_>>();
        for now in 0..10u64 {
            if let Some(f) = pending.pop_front() {
                r.receive(Port::Tile, f);
            }
            let mut out = eval(&mut r, &env_at(&topo, now));
            launched.extend(out.launches.drain());
        }
        assert_eq!(launched.len(), 3);
        let idxs: Vec<u16> = launched.iter().map(|(_, f)| f.meta.flit_index).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
        // All flits rode the same output VC.
        let vcs: Vec<VcId> = launched.iter().map(|(_, f)| f.link_vc).collect();
        assert!(vcs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn dateline_class_restricts_vc_choice() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
        f.meta.dateline_class = 1; // has crossed a wrap link
        f.link_vc = VcId::new(2);
        r.receive(Port::Tile, f);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        // Bulk class-1 VCs are 2 and 3.
        let vc = out.launches[0].1.link_vc.index();
        assert!(vc == 2 || vc == 3, "got vc{vc}");
    }

    /// A flit of `packet` entering through `input` whose route leaves
    /// this router through `output` (never back out of `input`).
    fn flit_via(kind: FlitKind, input: Port, output: Port, packet: u64) -> Flit {
        let mut f = match (input, output) {
            (Port::Tile, Port::Dir(d)) => test_flit(kind, &[d]),
            (Port::Dir(from), _) => {
                // Arriving from the `from` side means heading away from it.
                let heading = from.opposite();
                let hops: &[Direction] = match output {
                    Port::Tile => &[heading],
                    Port::Dir(d) => &[heading, d],
                };
                let mut f = test_flit(kind, hops);
                f.route = f.route.strip_first_hop().unwrap().1;
                f.heading = heading;
                f
            }
            (Port::Tile, Port::Tile) => panic!("a tile cannot route to itself"),
        };
        f.meta.packet = PacketId(packet);
        f
    }

    /// An allocation decision as a probe sees it.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum AllocEvent {
        Granted(Port, VcId, PacketId),
        Conflict(Port, PacketId),
    }

    /// Records every allocation decision in the order it fires.
    #[derive(Default)]
    struct AllocLog(Vec<AllocEvent>);

    impl Probe for AllocLog {
        fn vc_allocated(&mut self, _: Cycle, _: NodeId, port: Port, vc: VcId, packet: PacketId) {
            self.0.push(AllocEvent::Granted(port, vc, packet));
        }

        fn alloc_conflict(&mut self, _: Cycle, _: NodeId, port: Port, packet: PacketId) {
            self.0.push(AllocEvent::Conflict(port, packet));
        }
    }

    /// The allocator as a full scan: per output, every (port, VC) slot
    /// whose front head routes there and holds no VC, rotated by the
    /// output's round-robin pointer, stable-sorted by descending class
    /// priority, each granted the lowest free VC in its mask. Keeps its
    /// own round-robin pointers.
    struct ScanAllocator {
        rr: [usize; Port::COUNT],
    }

    impl ScanAllocator {
        fn decide(&mut self, r: &VcRouter) -> Vec<AllocEvent> {
            let mut free: Vec<bool> = r.out_owner.iter().map(Option::is_none).collect();
            let mut events = Vec::new();
            for (o, port) in Port::ALL.into_iter().enumerate() {
                let mut reqs = Vec::new();
                for i in 0..Port::COUNT {
                    for v in 0..r.num_vcs {
                        let idx = r.pv(i, v);
                        let Some(front) = r.in_bufs[idx].front() else {
                            continue;
                        };
                        let routed = r.in_out_port[idx].or(front.resolved_port);
                        if routed == Some(port) && r.in_out_vc[idx].is_none() {
                            let pri = front.meta.class.priority();
                            reqs.push((pri, r.effective_mask(front), front.meta.packet));
                        }
                    }
                }
                if reqs.is_empty() {
                    continue;
                }
                let rot = self.rr[o] % reqs.len();
                reqs.rotate_left(rot);
                reqs.sort_by_key(|q| std::cmp::Reverse(q.0));
                let mut granted_any = false;
                for (_, mask, packet) in reqs {
                    let vc = (0..r.num_vcs)
                        .find(|&ov| mask.allows(VcId::new(ov as u8)) && free[r.pv(o, ov)]);
                    if let Some(ov) = vc {
                        free[r.pv(o, ov)] = false;
                        granted_any = true;
                        events.push(AllocEvent::Granted(port, VcId::new(ov as u8), packet));
                    } else {
                        events.push(AllocEvent::Conflict(port, packet));
                    }
                }
                if granted_any {
                    self.rr[o] += 1;
                }
            }
            events
        }
    }

    #[test]
    fn allocation_order_matches_rotate_then_stable_sort() {
        let topo = FoldedTorus2D::new(4);
        let east = Port::Dir(Direction::East);
        let mut r = router();
        let mut reference = ScanAllocator {
            rr: [0; Port::COUNT],
        };
        // Input VCs that keep a single-flit request for East waiting:
        // two bulk, one priority and one reserved VC on each of four
        // inputs (all tier 0, so straight-through grants stay
        // monotone), plus a Valiant two-segment head on the tile port.
        let inputs = [
            Port::Tile,
            Port::Dir(Direction::West),
            Port::Dir(Direction::North),
            Port::Dir(Direction::South),
        ];
        let slots = [
            (0u8, ServiceClass::Bulk),
            (1, ServiceClass::Bulk),
            (4, ServiceClass::Priority),
            (7, ServiceClass::Reserved),
        ];
        let valiant = PacketId(999);
        let mut next_packet = 100u64;
        let mut credits_due: VecDeque<(u64, VcId)> = VecDeque::new();
        let mut seen = AllocLog::default();
        for now in 0..300u64 {
            for &input in &inputs {
                for &(vc, class) in &slots {
                    if r.in_bufs[r.pv(input.index(), usize::from(vc))].is_empty() {
                        let mut f = flit_via(FlitKind::HeadTail, input, east, next_packet);
                        f.meta.class = class;
                        f.link_vc = VcId::new(vc);
                        r.receive(input, f);
                        next_packet += 1;
                    }
                }
            }
            if now == 7 {
                let mut f = flit_via(FlitKind::HeadTail, Port::Tile, east, valiant.0);
                // Past its Valiant boundary: segment 1 allocates from
                // the upper bulk class.
                f.meta.valiant_boundary = 1;
                f.meta.hops_taken = 1;
                f.meta.segment = 1;
                f.link_vc = VcId::new(3);
                r.receive(Port::Tile, f);
            }
            // East's downstream drains slowly, so output VCs stay held
            // and requests pile up into conflicts.
            while credits_due.front().is_some_and(|&(due, _)| due <= now) {
                let (_, vc) = credits_due.pop_front().unwrap();
                r.credit_arrived(east, vc);
            }
            let expected = reference.decide(&r);
            let mut log = AllocLog::default();
            let mut out = RouterOutput::default();
            r.evaluate(&env_at(&topo, now), &mut out, &mut log);
            assert_eq!(log.0, expected, "cycle {now}");
            assert_eq!(r.rr_alloc, reference.rr, "cycle {now}");
            for (port, f) in out.launches.drain() {
                if port == east {
                    credits_due.push_back((now + 6, f.link_vc));
                }
            }
            seen.0.extend(log.0);
        }
        let granted = |class: ServiceClass| {
            seen.0.iter().any(|e| match e {
                AllocEvent::Granted(_, vc, _) => VcPlan::paper_baseline()
                    .mask_for(class, 0, true)
                    .allows(*vc),
                AllocEvent::Conflict(..) => false,
            })
        };
        assert!(granted(ServiceClass::Bulk) && granted(ServiceClass::Priority));
        assert!(granted(ServiceClass::Reserved));
        assert!(seen
            .0
            .iter()
            .any(|e| matches!(e, AllocEvent::Granted(_, _, p) if *p == valiant)));
        let conflicts = seen
            .0
            .iter()
            .filter(|e| matches!(e, AllocEvent::Conflict(..)))
            .count();
        assert!(conflicts > 100, "only {conflicts} conflicts");
        // The rotation wrapped the 16-request list several times.
        assert!(r.rr_alloc[east.index()] > 3 * inputs.len() * slots.len());
    }

    #[test]
    fn incremental_masks_track_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let topo = FoldedTorus2D::new(4);
        let depth = 2;
        let mut r = VcRouter::new(NodeId::new(0), VcPlan::paper_baseline(), true, depth, 2, 1);
        let num_vcs = r.num_vcs;
        let mut rng = StdRng::seed_from_u64(0x0C1_5EED);
        // Tier-0 input VCs per class, so straight-through grants stay
        // monotone: bulk 0/1, priority 4, reserved 7.
        let vcs = [0u8, 1, 4, 7];
        // A packet part-way through an input VC: (packet, class,
        // output, flits sent, length).
        type Stream = (u64, ServiceClass, Port, u16, u16);
        // Upstream credits and the open packet, per input VC.
        let mut upstream = vec![depth; Port::COUNT * num_vcs];
        let mut streams: Vec<Option<Stream>> = vec![None; Port::COUNT * num_vcs];
        let mut downstream: Vec<(Port, VcId)> = Vec::new();
        let mut sent = std::collections::BTreeMap::<u64, u16>::new();
        let mut launched = std::collections::BTreeMap::<u64, Vec<(Port, VcId, u16)>>::new();
        let mut next_packet = 1u64;
        let (inject_until, end) = (3000u64, 3400u64);
        for now in 0..end {
            for (p, input) in Port::ALL.into_iter().enumerate() {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let vc = vcs[rng.gen_range(0..vcs.len())];
                let idx = r.pv(p, usize::from(vc));
                if upstream[idx] == 0 || (now >= inject_until && streams[idx].is_none()) {
                    continue;
                }
                let (packet, class, output, index, len) = streams[idx].unwrap_or_else(|| {
                    let class = match vc {
                        0 | 1 => ServiceClass::Bulk,
                        4 => ServiceClass::Priority,
                        _ => ServiceClass::Reserved,
                    };
                    let output = loop {
                        let o = Port::ALL[rng.gen_range(0..Port::COUNT)];
                        if o != input && !(input == Port::Tile && o == Port::Tile) {
                            break o;
                        }
                    };
                    next_packet += 1;
                    (next_packet, class, output, 0, rng.gen_range(1..=4u16))
                });
                let kind = match (index, len) {
                    (0, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (i, l) if i + 1 == l => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let mut f = flit_via(kind, input, output, packet);
                f.meta.class = class;
                f.meta.flit_index = index;
                f.meta.packet_len = len;
                f.link_vc = VcId::new(vc);
                if index == 0 && input == Port::Tile && class == ServiceClass::Bulk {
                    f.meta.valiant_boundary = u8::from(rng.gen_bool(0.3)) * 3;
                }
                streams[idx] = (index + 1 < len).then_some((packet, class, output, index + 1, len));
                *sent.entry(packet).or_default() += 1;
                upstream[idx] -= 1;
                r.receive(input, f);
                assert!(r.masks_consistent(), "cycle {now}: after receive");
            }
            // Downstream credits come back in bursts separated by
            // starved stretches, so flits stall on credit.
            if now % 64 >= 40 || now >= inject_until {
                let keep = downstream.split_off(downstream.len() / 2);
                for (port, vc) in std::mem::replace(&mut downstream, keep) {
                    r.credit_arrived(port, vc);
                    assert!(r.masks_consistent(), "cycle {now}: after credit");
                }
            }
            let mut out = RouterOutput::default();
            r.evaluate(&env_at(&topo, now), &mut out, &mut NoProbe);
            assert!(r.masks_consistent(), "cycle {now}: after evaluate");
            for (port, vc) in out.credits.drain() {
                upstream[r.pv(port.index(), vc.index())] += 1;
            }
            for (port, f) in out.launches.drain() {
                downstream.push((port, f.link_vc));
                launched.entry(f.meta.packet.0).or_default().push((
                    port,
                    f.link_vc,
                    f.meta.flit_index,
                ));
            }
        }
        assert!(r.is_quiescent(), "router failed to drain");
        assert!(sent.len() > 500, "only {} packets", sent.len());
        for (packet, n) in sent {
            let flits = &launched[&packet];
            assert_eq!(flits.len(), usize::from(n), "packet {packet}");
            for (k, &(port, vc, index)) in flits.iter().enumerate() {
                assert_eq!((port, vc, usize::from(index)), (flits[0].0, flits[0].1, k));
            }
        }
    }
}
