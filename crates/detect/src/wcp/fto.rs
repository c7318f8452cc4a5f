//! FTO-WCP analysis: epoch + ownership optimizations applied to WCP
//! (Algorithm 2's structure with the WCP clock rules of this module's
//! parent).

use smarttrack_clock::{Epoch, ReadMeta, SameEpoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::common::{slot, HeldLocks, LockVarTable, ReadSectionTable};
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, RaceReport, Report};
use crate::wcp::{wcp_epoch_ordered, WcpClocks};
use crate::{Detector, OptLevel, Relation};

#[derive(Clone, Debug, Default)]
struct VarState {
    write: Epoch,
    read: ReadMeta,
}

/// FTO-WCP analysis (`FTO-WCP` in the paper's tables).
///
/// Epochs record HB-local times; ordering checks compare cross-thread
/// entries against the WCP clock and own entries against the HB clock.
#[derive(Clone, Debug, Default)]
pub struct FtoWcp {
    clocks: WcpClocks,
    held: HeldLocks,
    lockvar: LockVarTable,
    read_sections: ReadSectionTable,
    queues: WcpRuleBQueues,
    vars: Vec<VarState>,
    report: Report,
    counters: FtoCaseCounters,
}

impl FtoWcp {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        FtoWcp::default()
    }

    /// Rwlock gating: prior *read-mode* section times apply only when the
    /// current hold is write-mode (read/read section pairs never conflict).
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
                self.lockvar.mark_read(m, x);
                if write {
                    self.lockvar.mark_write(m, x);
                }
            } else {
                self.read_sections.mark_read(t, m, x);
                if write {
                    self.read_sections.mark_write(t, m, x);
                }
            }
        }
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let h_own = self.clocks.local(t);
        let e = Epoch::new(t, h_own);
        if slot(&mut self.vars, x.index()).write == e {
            self.counters.hit(FtoCase::WriteSameEpoch);
            return;
        }
        let mut p = self.clocks.wcp(t).clone();
        self.rule_a(t, x, &mut p, true);
        let vs = slot(&mut self.vars, x.index());
        let mut prior: Vec<ThreadId> = Vec::new();
        match &vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::WriteOwned);
            }
            ReadMeta::Epoch(r) => {
                self.counters.hit(FtoCase::WriteExclusive);
                if !wcp_epoch_ordered(*r, t, h_own, &p) {
                    prior.push(r.tid());
                }
            }
            ReadMeta::Vc(vc) => {
                self.counters.hit(FtoCase::WriteShared);
                for (u, c) in vc.iter_nonzero() {
                    let ordered = if u == t { c <= h_own } else { c <= p.get(u) };
                    if !ordered {
                        prior.push(u);
                    }
                }
            }
        }
        vs.write = e;
        vs.read = ReadMeta::Epoch(e);
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

    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let h_own = self.clocks.local(t);
        let e = Epoch::new(t, h_own);
        match slot(&mut self.vars, x.index()).read.same_epoch(t, h_own) {
            Some(SameEpoch::Exclusive) => {
                self.counters.hit(FtoCase::ReadSameEpoch);
                return;
            }
            Some(SameEpoch::Shared) => {
                self.counters.hit(FtoCase::SharedSameEpoch);
                return;
            }
            None => {}
        }
        let mut p = self.clocks.wcp(t).clone();
        self.rule_a(t, x, &mut p, false);
        let vs = slot(&mut self.vars, x.index());
        let mut race_with_write = false;
        match &mut vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::ReadOwned);
                vs.read = ReadMeta::Epoch(e);
            }
            ReadMeta::Epoch(r) => {
                if wcp_epoch_ordered(*r, t, h_own, &p) {
                    self.counters.hit(FtoCase::ReadExclusive);
                    vs.read = ReadMeta::Epoch(e);
                } else {
                    self.counters.hit(FtoCase::ReadShare);
                    race_with_write = !wcp_epoch_ordered(vs.write, t, h_own, &p);
                    vs.read.share(e);
                }
            }
            ReadMeta::Vc(vc) => {
                if vc.get(t) != 0 {
                    self.counters.hit(FtoCase::ReadSharedOwned);
                    vc.set(t, h_own);
                } else {
                    self.counters.hit(FtoCase::ReadShared);
                    race_with_write = !wcp_epoch_ordered(vs.write, t, h_own, &p);
                    vc.set(t, h_own);
                }
            }
        }
        let write_tid = (!vs.write.is_none()).then(|| vs.write.tid());
        self.clocks.wcp(t).assign(&p);
        if race_with_write {
            self.report.push(RaceReport {
                event: id,
                loc,
                tid: t,
                var: x,
                kind: AccessKind::Read,
                prior_threads: write_tid.into_iter().collect(),
            });
        }
    }

    fn acquire(&mut self, t: ThreadId, m: LockId) {
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

impl Detector for FtoWcp {
    fn name(&self) -> &'static str {
        "FTO-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::Fto
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.clocks.reserve(&hint);
        if let Some(locks) = hint.locks {
            self.lockvar.reserve_locks(locks);
        }
        self.vars
            .reserve(crate::StreamHint::presize(hint.vars, self.vars.len()));
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
            + self.vars.capacity() * std::mem::size_of::<VarState>()
            + self
                .vars
                .iter()
                .map(|v| v.read.footprint_bytes())
                .sum::<usize>()
            + self.report.footprint_bytes()
    }

    fn state_bytes(&self) -> usize {
        self.clocks.resident_bytes()
            + self.held.footprint_bytes()
            + self.lockvar.resident_bytes()
            + self.read_sections.resident_bytes()
            + self.queues.resident_bytes()
            + self.vars.capacity() * std::mem::size_of::<VarState>()
            + self.report.footprint_bytes()
    }

    fn state_bytes_walk(&self) -> usize {
        self.state_bytes() - self.queues.resident_bytes() + self.queues.walk_resident_bytes()
    }

    fn case_counters(&self) -> Option<&FtoCaseCounters> {
        Some(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_detector, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_unopt_wcp() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(FtoWcp::new(), &tr),
                first_race(UnoptWcp::new(), &tr),
                "FTO-WCP vs Unopt-WCP on {name}"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_unopt() {
        for seed in 0..60 {
            let tr = RandomTraceSpec {
                events: 300,
                threads: 3,
                vars: 6,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_eq!(
                first_race(FtoWcp::new(), &tr),
                first_race(UnoptWcp::new(), &tr),
                "seed {seed}"
            );
        }
    }
}
