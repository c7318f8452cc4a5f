//! Unoptimized DC/WDC analysis — paper Algorithm 1 (plus the §5.1
//! implementation behaviours: same-epoch-like fast paths and clock increments
//! at acquires), with optional constraint-graph recording ("w/ G").

use std::collections::HashMap;

use smarttrack_clock::{ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::common::{
    slot, vc_table_bytes, vc_table_resident_bytes, HeldLocks, LockVarTable, ReadSectionTable,
};
use crate::counters::PathCounters;
use crate::dc::DcClocks;
use crate::graph::{ConstraintGraph, EdgeKind};
use crate::queues::{AcqEntry, DcRuleBQueues};
use crate::report::{AccessKind, RaceReport, Report};
use crate::{Detector, HotPathStats, OptLevel, Relation};

/// Unoptimized DC analysis (`RULE_B = true`) or WDC analysis
/// (`RULE_B = false`), following paper Algorithm 1.
///
/// Use the [`UnoptDc`] / [`UnoptWdc`] aliases. Last-access metadata are full
/// vector clocks; conflicting critical sections are tracked via
/// per-(lock, variable) tables (`Lr_{m,x}`, `Lw_{m,x}`); DC rule (b) uses
/// per-lock per-thread-pair queues.
#[derive(Clone, Debug)]
pub struct UnoptDcLike<const RULE_B: bool> {
    clocks: DcClocks,
    held: HeldLocks,
    lockvar: LockVarTable,
    read_sections: ReadSectionTable,
    queues: DcRuleBQueues,
    write_vc: Vec<VectorClock>,
    read_vc: Vec<VectorClock>,
    report: Report,
    graph: Option<ConstraintGraph>,
    /// Last volatile-write event per volatile (graph mode).
    last_volatile_write: Vec<Option<EventId>>,
    /// Last event per thread (graph mode, for join edges).
    last_event: Vec<Option<EventId>>,
    /// Pending fork edges: child → fork event (graph mode).
    pending_fork: HashMap<ThreadId, EventId>,
    /// Latest notify event per (condvar, notifying thread) (graph mode):
    /// a wait absorbs every notifier's clock, so its graph edges come from
    /// each notifier's latest notify (earlier ones are PO-dominated).
    last_notify: Vec<Vec<(ThreadId, EventId)>>,
    /// Barrier round enter-event bookkeeping (graph mode), mirroring the
    /// clock-level [`BarrierRendezvous`](crate::common::BarrierRendezvous)
    /// rounds.
    barrier_rounds: Vec<BarrierRoundEvents>,
    paths: PathCounters,
}

/// The enter events of a barrier's gathering and draining rounds (graph
/// mode); round transitions mirror `BarrierRendezvous`.
#[derive(Clone, Debug, Default)]
struct BarrierRoundEvents {
    gather: Vec<EventId>,
    open: Vec<EventId>,
    exited: u32,
}

impl BarrierRoundEvents {
    fn enter(&mut self, id: EventId) {
        if self.exited > 0 {
            self.exited = 0;
        }
        self.gather.push(id);
    }

    /// Returns the enter events the exiting event is ordered after.
    fn exit(&mut self) -> &[EventId] {
        if self.exited == 0 {
            self.open = std::mem::take(&mut self.gather);
        }
        self.exited += 1;
        if self.exited as usize >= self.open.len() {
            self.exited = 0;
        }
        &self.open
    }
}

/// Unoptimized DC analysis (Table 1's `Unopt-DC`, paper Algorithm 1).
pub type UnoptDc = UnoptDcLike<true>;
/// Unoptimized WDC analysis (Table 1's `Unopt-WDC`; Algorithm 1 minus
/// rule (b), §3).
pub type UnoptWdc = UnoptDcLike<false>;

impl<const RULE_B: bool> Default for UnoptDcLike<RULE_B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const RULE_B: bool> UnoptDcLike<RULE_B> {
    /// Creates the analysis without graph recording ("w/o G").
    pub fn new() -> Self {
        Self::with_graph_recording(false)
    }

    /// Creates the analysis, optionally building the constraint graph used by
    /// vindication ("w/ G"); graph recording costs time and memory (Table 3).
    pub fn with_graph_recording(with_graph: bool) -> Self {
        UnoptDcLike {
            clocks: DcClocks::new(),
            held: HeldLocks::new(),
            lockvar: LockVarTable::new(with_graph),
            read_sections: ReadSectionTable::new(with_graph),
            queues: DcRuleBQueues::new(),
            write_vc: Vec::new(),
            read_vc: Vec::new(),
            report: Report::new(),
            graph: with_graph.then(ConstraintGraph::new),
            last_volatile_write: Vec::new(),
            last_event: Vec::new(),
            pending_fork: HashMap::new(),
            last_notify: Vec::new(),
            barrier_rounds: Vec::new(),
            paths: PathCounters::default(),
        }
    }

    /// Diagnostic view of the current DC clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.clock_ref(t)
    }

    fn note_event(&mut self, id: EventId, t: ThreadId) {
        if let Some(g) = self.graph.as_mut() {
            if let Some(fork) = self.pending_fork.remove(&t) {
                g.add_edge(fork, id, EdgeKind::Sync);
            }
            *slot(&mut self.last_event, t.index()) = Some(id);
        }
    }

    fn racing_threads(meta: &VectorClock, now: &VectorClock) -> Vec<ThreadId> {
        meta.iter_nonzero()
            .filter(|&(u, c)| c > now.get(u))
            .map(|(u, _)| u)
            .collect()
    }

    /// Rule (a) joins for an access to `x`: for every held lock, absorb the
    /// recorded conflicting-critical-section times (Algorithm 1 lines 14–16 /
    /// 21–23).
    fn rule_a(&mut self, id: EventId, t: ThreadId, x: VarId, now: &mut VectorClock, write: bool) {
        for &(m, held_write) in self.held.of(t) {
            if write {
                if let Some(lt) = self.lockvar.read_time(m, x) {
                    now.join(&lt.clock);
                    if let Some(g) = self.graph.as_mut() {
                        for &(_, src) in &lt.sources {
                            g.add_edge(src, id, EdgeKind::RuleA);
                        }
                    }
                }
            }
            if let Some(lt) = self.lockvar.write_time(m, x) {
                now.join(&lt.clock);
                if let Some(g) = self.graph.as_mut() {
                    for &(_, src) in &lt.sources {
                        g.add_edge(src, id, EdgeKind::RuleA);
                    }
                }
            }
            // Prior *read-mode* sections on `m` conflict only when the
            // current hold is write-involved (read/read pairs never do).
            if !self.read_sections.is_empty() && held_write {
                if write {
                    if let Some(lt) = self.read_sections.read_time(m, x) {
                        now.join(&lt.clock);
                        if let Some(g) = self.graph.as_mut() {
                            for &(_, src) in &lt.sources {
                                g.add_edge(src, id, EdgeKind::RuleA);
                            }
                        }
                    }
                }
                if let Some(lt) = self.read_sections.write_time(m, x) {
                    now.join(&lt.clock);
                    if let Some(g) = self.graph.as_mut() {
                        for &(_, src) in &lt.sources {
                            g.add_edge(src, id, EdgeKind::RuleA);
                        }
                    }
                }
            }
            if held_write {
                if write {
                    self.lockvar.mark_write(m, x);
                } else {
                    self.lockvar.mark_read(m, x);
                }
            } else if write {
                self.read_sections.mark_write(t, m, x);
            } else {
                self.read_sections.mark_read(t, m, x);
            }
        }
    }

    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let local = self.clocks.local(t);
        // §5.1 same-epoch-like fast path (O(1): no clock copies).
        let rx = slot(&mut self.read_vc, x.index());
        if rx.get(t) == local && local != 0 {
            self.paths.fast += 1;
            return;
        }
        self.paths.slow += 1;
        let mut now = self.clocks.clock_ref(t).clone();
        self.rule_a(id, t, x, &mut now, false);
        let wx = slot(&mut self.write_vc, x.index());
        let prior = Self::racing_threads(wx, &now);
        slot(&mut self.read_vc, x.index()).set(t, now.get(t));
        self.clocks.clock(t).assign(&now);
        if !prior.is_empty() {
            self.report.push(RaceReport {
                event: id,
                loc,
                tid: t,
                var: x,
                kind: AccessKind::Read,
                prior_threads: prior,
            });
        }
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let local = self.clocks.local(t);
        let wx = slot(&mut self.write_vc, x.index());
        if wx.get(t) == local && local != 0 {
            self.paths.fast += 1;
            return;
        }
        self.paths.slow += 1;
        let mut now = self.clocks.clock_ref(t).clone();
        self.rule_a(id, t, x, &mut now, true);
        let wx = slot(&mut self.write_vc, x.index());
        let mut prior = Self::racing_threads(wx, &now);
        wx.set(t, now.get(t));
        let rx = slot(&mut self.read_vc, x.index());
        for u in Self::racing_threads(rx, &now) {
            if !prior.contains(&u) {
                prior.push(u);
            }
        }
        self.clocks.clock(t).assign(&now);
        if !prior.is_empty() {
            self.report.push(RaceReport {
                event: id,
                loc,
                tid: t,
                var: x,
                kind: AccessKind::Write,
                prior_threads: prior,
            });
        }
    }

    fn acquire(&mut self, t: ThreadId, m: LockId) {
        if RULE_B {
            let entry = AcqEntry::Vc(self.clocks.clock(t).clone());
            self.queues.on_acquire(m, t, &entry, true);
        }
        self.held.acquire(t, m);
        self.clocks.increment(t);
    }

    fn acquire_read(&mut self, t: ThreadId, m: LockId) {
        if RULE_B {
            let entry = AcqEntry::Vc(self.clocks.clock(t).clone());
            self.queues.on_acquire(m, t, &entry, false);
        }
        self.held.acquire_read(t, m);
        self.read_sections.open(t, m);
        self.clocks.increment(t);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        let write_mode = self.held.release(t, m);
        let mut now = self.clocks.clock(t).clone();
        if RULE_B {
            let graph = &mut self.graph;
            self.queues
                .on_release(m, t, &mut now, id, write_mode, |src| {
                    if let Some(g) = graph.as_mut() {
                        g.add_edge(src, id, EdgeKind::RuleB);
                    }
                });
        }
        if write_mode {
            self.lockvar.on_release(t, m, &now, id);
        } else {
            self.read_sections.close(t, m, &now, id);
        }
        self.clocks.clock(t).assign(&now);
        self.clocks.increment(t);
    }
}

impl<const RULE_B: bool> Detector for UnoptDcLike<RULE_B> {
    fn name(&self) -> &'static str {
        match (RULE_B, self.graph.is_some()) {
            (true, true) => "Unopt-DC w/G",
            (true, false) => "Unopt-DC",
            (false, true) => "Unopt-WDC w/G",
            (false, false) => "Unopt-WDC",
        }
    }

    fn relation(&self) -> Relation {
        if RULE_B {
            Relation::Dc
        } else {
            Relation::Wdc
        }
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Unopt
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        if RULE_B {
            if let Some(threads) = hint.threads {
                self.queues.set_thread_bound(threads);
            }
        }
        self.clocks.reserve(hint.threads, hint.volatiles);
        if let Some(locks) = hint.locks {
            self.lockvar.reserve_locks(locks);
        }
        self.write_vc
            .reserve(crate::StreamHint::presize(hint.vars, self.write_vc.len()));
        self.read_vc
            .reserve(crate::StreamHint::presize(hint.vars, self.read_vc.len()));
    }

    fn process(&mut self, id: EventId, event: &Event) {
        let t = event.tid;
        self.note_event(id, t);
        match event.op {
            Op::Read(x) => self.read(id, t, x, event.loc),
            Op::Write(x) => self.write(id, t, x, event.loc),
            Op::Acquire(m) | Op::AcqWrite(m) => self.acquire(t, m),
            Op::AcqRead(m) => self.acquire_read(t, m),
            Op::Release(m) => self.release(id, t, m),
            // A failed trylock establishes no ordering in any direction.
            Op::TryAcqFail(_) => {}
            Op::Fork(u) => {
                if self.graph.is_some() {
                    self.pending_fork.insert(u, id);
                }
                self.clocks.fork(t, u);
            }
            Op::Join(u) => {
                if let (Some(g), Some(last)) = (
                    self.graph.as_mut(),
                    self.last_event.get(u.index()).copied().flatten(),
                ) {
                    g.add_edge(last, id, EdgeKind::Sync);
                }
                self.clocks.join(t, u);
            }
            Op::VolatileRead(v) => {
                if let (Some(g), Some(src)) = (
                    self.graph.as_mut(),
                    self.last_volatile_write.get(v.index()).copied().flatten(),
                ) {
                    g.add_edge(src, id, EdgeKind::Sync);
                }
                self.clocks.volatile_read(t, v);
            }
            Op::VolatileWrite(v) => {
                if self.graph.is_some() {
                    let prev = slot(&mut self.last_volatile_write, v.index()).replace(id);
                    if let (Some(g), Some(src)) = (self.graph.as_mut(), prev) {
                        g.add_edge(src, id, EdgeKind::Sync);
                    }
                }
                self.clocks.volatile_write(t, v);
            }
            Op::Wait(c, m) => {
                // Release half of the atomic release-and-reacquire.
                self.release(id, t, m);
                // Condvar hard edge: the wait absorbs every notifier's
                // clock, so graph mode records an edge from each
                // notifier's latest notify.
                if let Some(g) = self.graph.as_mut() {
                    if let Some(sources) = self.last_notify.get(c.index()) {
                        for &(_, src) in sources {
                            g.add_edge(src, id, EdgeKind::Sync);
                        }
                    }
                }
                self.clocks.wait_absorb(t, c);
                // Reacquire half.
                self.acquire(t, m);
            }
            Op::Notify(c) | Op::NotifyAll(c) => {
                if self.graph.is_some() {
                    let sources = slot(&mut self.last_notify, c.index());
                    match sources.iter_mut().find(|(u, _)| *u == t) {
                        Some(entry) => entry.1 = id,
                        None => sources.push((t, id)),
                    }
                }
                self.clocks.notify(t, c);
            }
            Op::BarrierEnter(b) => {
                if self.graph.is_some() {
                    slot(&mut self.barrier_rounds, b.index()).enter(id);
                }
                self.clocks.barrier_enter(t, b);
            }
            Op::BarrierExit(b) => {
                if self.graph.is_some() {
                    let sources: Vec<EventId> =
                        slot(&mut self.barrier_rounds, b.index()).exit().to_vec();
                    if let Some(g) = self.graph.as_mut() {
                        for src in sources {
                            // The exit's own enter is PO-ordered anyway;
                            // the redundant self-edge is harmless.
                            g.add_edge(src, id, EdgeKind::Sync);
                        }
                    }
                }
                self.clocks.barrier_exit(t, b);
            }
        }
    }

    fn report(&self) -> &Report {
        &self.report
    }

    fn footprint_bytes(&self) -> usize {
        self.clocks.footprint_bytes()
            + self.held.footprint_bytes()
            + self.lockvar.footprint_bytes()
            + self.read_sections.footprint_bytes()
            + self.queues.footprint_bytes()
            + vc_table_bytes(&self.write_vc)
            + vc_table_bytes(&self.read_vc)
            + self.report.footprint_bytes()
            + self
                .graph
                .as_ref()
                .map_or(0, ConstraintGraph::footprint_bytes)
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes()
            + self.held.footprint_bytes()
            + self.lockvar.resident_bytes()
            + self.read_sections.resident_bytes()
            + self.queues.resident_bytes()
            + vc_table_resident_bytes(&self.write_vc)
            + vc_table_resident_bytes(&self.read_vc)
            + self.report.footprint_bytes()
            + self
                .graph
                .as_ref()
                .map_or(0, ConstraintGraph::footprint_bytes)
    }

    fn state_bytes_walk(&self) -> usize {
        self.state_bytes() - self.queues.resident_bytes() + self.queues.walk_resident_bytes()
    }

    fn hot_path_stats(&self) -> HotPathStats {
        HotPathStats {
            fast_hits: self.paths.fast,
            slow_hits: self.paths.slow,
            state_bytes: self.state_bytes(),
        }
    }

    fn graph(&self) -> Option<&ConstraintGraph> {
        self.graph.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_detector;
    use smarttrack_trace::paper;
    use smarttrack_trace::TraceBuilder;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn dc_races(tr: &smarttrack_trace::Trace) -> Report {
        let mut det = UnoptDc::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    fn wdc_races(tr: &smarttrack_trace::Trace) -> Report {
        let mut det = UnoptWdc::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    #[test]
    fn figure1_has_dc_and_wdc_race() {
        let tr = paper::figure1();
        assert_eq!(dc_races(&tr).dynamic_count(), 1);
        assert_eq!(wdc_races(&tr).dynamic_count(), 1);
        // The race is detected at the final write to x (event 7).
        assert_eq!(dc_races(&tr).first_race_event(), Some(EventId::new(7)));
    }

    #[test]
    fn figure2_has_dc_race() {
        let tr = paper::figure2();
        assert_eq!(dc_races(&tr).dynamic_count(), 1);
        assert_eq!(wdc_races(&tr).dynamic_count(), 1);
    }

    #[test]
    fn figure3_wdc_race_but_no_dc_race() {
        let tr = paper::figure3();
        assert_eq!(
            dc_races(&tr).dynamic_count(),
            0,
            "DC rule (b) orders the releases"
        );
        assert_eq!(wdc_races(&tr).dynamic_count(), 1, "WDC misses rule (b)");
    }

    #[test]
    fn figure4_traces_have_no_races() {
        for f in [
            paper::figure4a(),
            paper::figure4b(),
            paper::figure4c(),
            paper::figure4d(),
        ] {
            assert!(dc_races(&f).is_empty());
            assert!(wdc_races(&f).is_empty());
        }
    }

    #[test]
    fn conflicting_critical_sections_order_accesses() {
        // T0 writes x under m; T1 reads x under m then writes x outside any
        // lock: rule (a) orders T0's release before T1's read, and PO extends
        // to the write. No race.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(dc_races(&b.finish()).is_empty());
    }

    #[test]
    fn empty_critical_sections_do_not_order() {
        // Like Figure 1: the critical sections share a lock but not data, so
        // DC does not order the surrounding accesses.
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert_eq!(dc_races(&b.finish()).dynamic_count(), 1);
    }

    #[test]
    fn graph_mode_records_rule_a_and_b_edges() {
        let tr = paper::figure3();
        let mut det = UnoptDc::with_graph_recording(true);
        run_detector(&mut det, &tr);
        let g = det.graph().expect("graph recorded");
        assert!(
            g.edges().iter().any(|&(_, _, k)| k == EdgeKind::RuleA),
            "sync(o)/sync(p) conflicts produce rule (a) edges"
        );
        assert!(
            g.edges().iter().any(|&(_, _, k)| k == EdgeKind::RuleB),
            "figure 3's m-releases are rule (b) ordered"
        );
    }

    #[test]
    fn fork_join_and_volatiles_order_in_dc() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Fork(t(1))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        b.push(t(1), Op::VolatileWrite(VarId::new(0))).unwrap();
        b.push(t(2), Op::VolatileRead(VarId::new(0))).unwrap();
        b.push(t(2), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Join(t(1))).unwrap();
        b.push(t(0), Op::Read(x(1))).unwrap();
        assert!(dc_races(&b.finish()).is_empty());
    }

    #[test]
    fn same_epoch_skip_does_not_change_outcomes() {
        // Repeated accesses between syncs take the fast path; the race is
        // still found at the first non-same-epoch access.
        let mut b = TraceBuilder::new();
        for _ in 0..4 {
            b.push(t(0), Op::Write(x(0))).unwrap();
        }
        b.push(t(1), Op::Write(x(0))).unwrap();
        let r = dc_races(&b.finish());
        assert_eq!(r.dynamic_count(), 1);
        assert_eq!(r.first_race_event(), Some(EventId::new(4)));
    }
}
