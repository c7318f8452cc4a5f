//! Unoptimized WCP analysis (Kini et al. 2017): vector-clock last-access
//! metadata, per-(lock, variable) CCS tables storing HB release times, and
//! per-lock per-thread rule (b) queues.

use smarttrack_clock::{ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::common::{
    slot, vc_table_bytes, vc_table_resident_bytes, HeldLocks, LockVarTable, ReadSectionTable,
};
use crate::counters::PathCounters;
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, RaceReport, Report};
use crate::wcp::{wcp_racing_threads, WcpClocks};
use crate::{Detector, HotPathStats, OptLevel, Relation};

/// Unoptimized WCP analysis (`Unopt-WCP` in the paper's tables).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, UnoptWcp};
/// use smarttrack_trace::paper;
///
/// let mut det = UnoptWcp::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1, "figure 1 is a WCP-race");
///
/// let mut det = UnoptWcp::new();
/// run_detector(&mut det, &paper::figure2());
/// assert!(det.report().is_empty(), "figure 2 is not a WCP-race");
/// ```
#[derive(Clone, Debug, Default)]
pub struct UnoptWcp {
    clocks: WcpClocks,
    held: HeldLocks,
    lockvar: LockVarTable,
    read_sections: ReadSectionTable,
    queues: WcpRuleBQueues,
    write_vc: Vec<VectorClock>,
    read_vc: Vec<VectorClock>,
    report: Report,
    paths: PathCounters,
}

impl UnoptWcp {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        UnoptWcp::default()
    }

    /// Diagnostic view of the WCP clock of `t` (for tests).
    pub fn wcp_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.wcp_ref(t)
    }

    /// Rule (a): join the HB release times of prior conflicting critical
    /// sections into `Pt` (left HB composition). Rwlock gating: prior
    /// *read-mode* section times (`Lr_r`/`Lw_r`) apply only when the current
    /// hold is write-mode — a read section never conflicts with another read
    /// section, only with write-involved pairs.
    fn rule_a(&mut self, t: ThreadId, x: VarId, p: &mut VectorClock, write: bool) {
        for &(m, held_write) in self.held.of(t) {
            if write {
                if let Some(lt) = self.lockvar.read_time(m, x) {
                    p.join(&lt.clock);
                }
            }
            if let Some(lt) = self.lockvar.write_time(m, x) {
                p.join(&lt.clock);
            }
            if !self.read_sections.is_empty() && held_write {
                if write {
                    if let Some(lt) = self.read_sections.read_time(m, x) {
                        p.join(&lt.clock);
                    }
                }
                if let Some(lt) = self.read_sections.write_time(m, x) {
                    p.join(&lt.clock);
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
        let h_own = self.clocks.local(t);
        let rx = slot(&mut self.read_vc, x.index());
        if rx.get(t) == h_own && h_own != 0 {
            self.paths.fast += 1;
            return;
        }
        self.paths.slow += 1;
        let mut p = self.clocks.wcp(t).clone();
        self.rule_a(t, x, &mut p, false);
        let wx = slot(&mut self.write_vc, x.index());
        let prior = wcp_racing_threads(wx, t, h_own, &p);
        slot(&mut self.read_vc, x.index()).set(t, h_own);
        self.clocks.wcp(t).assign(&p);
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
        let h_own = self.clocks.local(t);
        let wx = slot(&mut self.write_vc, x.index());
        if wx.get(t) == h_own && h_own != 0 {
            self.paths.fast += 1;
            return;
        }
        self.paths.slow += 1;
        let mut p = self.clocks.wcp(t).clone();
        self.rule_a(t, x, &mut p, true);
        let wx = slot(&mut self.write_vc, x.index());
        let mut prior = wcp_racing_threads(wx, t, h_own, &p);
        wx.set(t, h_own);
        let rx = slot(&mut self.read_vc, x.index());
        for u in wcp_racing_threads(rx, t, h_own, &p) {
            if !prior.contains(&u) {
                prior.push(u);
            }
        }
        self.clocks.wcp(t).assign(&p);
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
        // Enqueue the acquire's local HB time before the clock increment
        // performed inside `acquire`.
        let local = self.clocks.hb(t).get(t);
        self.queues.on_acquire(m, t, local, true);
        self.clocks.acquire(t, m);
        self.held.acquire(t, m);
    }

    fn acquire_read(&mut self, t: ThreadId, m: LockId) {
        let local = self.clocks.hb(t).get(t);
        self.queues.on_acquire(m, t, local, false);
        self.clocks.acquire_read(t, m);
        self.held.acquire_read(t, m);
        self.read_sections.open(t, m);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        let write_mode = self.held.release(t, m);
        let mut p = self.clocks.wcp(t).clone();
        self.queues.consume(m, t, &mut p, write_mode, |_| {});
        self.clocks.wcp(t).assign(&p);
        let hb = self.clocks.hb(t).clone();
        self.queues.on_release_publish(m, t, &hb, id);
        if write_mode {
            self.lockvar.on_release(t, m, &hb, id);
            self.clocks.release_publish(t, m);
        } else {
            self.read_sections.close(t, m, &hb, id);
            self.clocks.release_publish_read(t, m);
        }
    }
}

impl Detector for UnoptWcp {
    fn name(&self) -> &'static str {
        "Unopt-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Unopt
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.clocks.reserve(&hint);
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
        match event.op {
            Op::Read(x) => self.read(id, t, x, event.loc),
            Op::Write(x) => self.write(id, t, x, event.loc),
            Op::Acquire(m) | Op::AcqWrite(m) => self.acquire(t, m),
            Op::AcqRead(m) => self.acquire_read(t, m),
            Op::Release(m) => self.release(id, t, m),
            // A failed trylock establishes no ordering in any direction.
            Op::TryAcqFail(_) => {}
            Op::Fork(u) => self.clocks.fork(t, u),
            Op::Join(u) => self.clocks.join(t, u),
            Op::VolatileRead(v) => self.clocks.volatile_read(t, v),
            Op::VolatileWrite(v) => self.clocks.volatile_write(t, v),
            Op::Wait(c, m) => {
                // Wait is an atomic release-and-reacquire of the monitor
                // with the condvar hard edge in between, composed from this
                // detector's own release/acquire machinery (rule (a)/(b)
                // bookkeeping runs exactly as for explicit rel/acq).
                self.release(id, t, m);
                self.clocks.wait_absorb(t, c);
                self.acquire(t, m);
            }
            Op::Notify(c) | Op::NotifyAll(c) => self.clocks.notify(t, c),
            Op::BarrierEnter(b) => self.clocks.barrier_enter(t, b),
            Op::BarrierExit(b) => self.clocks.barrier_exit(t, b),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, UnoptDc, UnoptHb};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, LockId, Trace, TraceBuilder};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    fn wcp_races(tr: &Trace) -> Report {
        let mut det = UnoptWcp::new();
        run_detector(&mut det, tr);
        det.report().clone()
    }

    #[test]
    fn figure1_is_a_wcp_race() {
        assert_eq!(wcp_races(&paper::figure1()).dynamic_count(), 1);
    }

    #[test]
    fn figure2_is_ordered_by_hb_composition() {
        assert!(wcp_races(&paper::figure2()).is_empty());
    }

    #[test]
    fn figure3_is_ordered_by_wcp_rule_b() {
        assert!(wcp_races(&paper::figure3()).is_empty());
    }

    #[test]
    fn figure4_traces_have_no_wcp_races() {
        for f in [
            paper::figure4a(),
            paper::figure4b(),
            paper::figure4c(),
            paper::figure4d(),
        ] {
            assert!(wcp_races(&f).is_empty());
        }
    }

    #[test]
    fn conflicting_critical_sections_order_in_wcp() {
        let mut b = TraceBuilder::new();
        b.push(t(0), Op::Acquire(m(0))).unwrap();
        b.push(t(0), Op::Write(x(0))).unwrap();
        b.push(t(0), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Acquire(m(0))).unwrap();
        b.push(t(1), Op::Read(x(0))).unwrap();
        b.push(t(1), Op::Release(m(0))).unwrap();
        b.push(t(1), Op::Write(x(0))).unwrap();
        assert!(wcp_races(&b.finish()).is_empty());
    }

    #[test]
    fn race_set_is_between_hb_and_dc() {
        // HB-races ⊆ WCP-races ⊆ DC-races, checked on random traces by
        // comparing which events detect races.
        for seed in 0..40 {
            let tr = RandomTraceSpec {
                events: 250,
                threads: 3,
                vars: 5,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            let mut hb = UnoptHb::new();
            let mut wcp = UnoptWcp::new();
            let mut dc = UnoptDc::new();
            run_detector(&mut hb, &tr);
            run_detector(&mut wcp, &tr);
            run_detector(&mut dc, &tr);
            // Compare only up to the first WCP race: beyond the first race,
            // metadata updates may legitimately diverge (§5.6).
            let hb_first = hb.report().first_race_event();
            let wcp_first = wcp.report().first_race_event();
            let dc_first = dc.report().first_race_event();
            if let Some(h) = hb_first {
                let w = wcp_first.expect("HB-race implies WCP-race (seed)");
                assert!(w <= h, "WCP detects no later than HB (seed {seed})");
            }
            if let Some(w) = wcp_first {
                let d = dc_first.expect("WCP-race implies DC-race");
                assert!(d <= w, "DC detects no later than WCP (seed {seed})");
            }
        }
    }
}
