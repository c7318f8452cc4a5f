//! FTO-based DC/WDC analysis — paper Algorithm 2: FastTrack-Ownership's
//! epoch and ownership optimizations applied to predictive analysis, keeping
//! the per-(lock, variable) conflicting-critical-section metadata.

use smarttrack_clock::{Epoch, ReadMeta, SameEpoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::common::{slot, HeldLocks, LockVarTable, ReadSectionTable};
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::dc::DcClocks;
use crate::queues::{AcqEntry, DcRuleBQueues};
use crate::report::{AccessKind, RaceReport, Report};
use crate::{Detector, OptLevel, Relation};

#[derive(Clone, Debug, Default)]
struct VarState {
    write: Epoch,
    read: ReadMeta,
}

/// FTO-DC analysis (`RULE_B = true`) or FTO-WDC (`RULE_B = false`), following
/// paper Algorithm 2. Use the [`FtoDc`] / [`FtoWdc`] aliases.
///
/// Compared with unoptimized analysis, last-access metadata use epochs and
/// ownership cases; compared with SmartTrack, conflicting critical sections
/// are still tracked per (lock, variable) (`Lr_{m,x}`/`Lw_{m,x}`), where `Lr`
/// now represents critical sections containing reads *and* writes.
#[derive(Clone, Debug)]
pub struct FtoDcLike<const RULE_B: bool> {
    clocks: DcClocks,
    held: HeldLocks,
    lockvar: LockVarTable,
    read_sections: ReadSectionTable,
    queues: DcRuleBQueues,
    vars: Vec<VarState>,
    report: Report,
    counters: FtoCaseCounters,
}

/// FTO-DC analysis (paper Algorithm 2).
pub type FtoDc = FtoDcLike<true>;
/// FTO-WDC analysis (Algorithm 2 minus rule (b): remove its lines 2 and 5–9).
pub type FtoWdc = FtoDcLike<false>;

impl<const RULE_B: bool> Default for FtoDcLike<RULE_B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const RULE_B: bool> FtoDcLike<RULE_B> {
    /// Creates the analysis with empty state.
    pub fn new() -> Self {
        FtoDcLike {
            clocks: DcClocks::new(),
            held: HeldLocks::new(),
            lockvar: LockVarTable::new(false),
            read_sections: ReadSectionTable::new(false),
            queues: DcRuleBQueues::new(),
            vars: Vec::new(),
            report: Report::new(),
            counters: FtoCaseCounters::new(),
        }
    }

    /// Diagnostic view of the current clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.clock_ref(t)
    }

    /// Rule (a) joins (Algorithm 2 lines 16–19 / 29–31). At writes, joins
    /// `Lr ⊔ Lw` and marks both sets; at reads, joins `Lw` and marks `Rm`
    /// (which in FTO represents reads-and-writes).
    /// Rwlock gating: prior *read-mode* section times apply only when the
    /// current hold is write-mode (read/read section pairs never conflict).
    fn rule_a(&mut self, t: ThreadId, x: VarId, now: &mut VectorClock, write: bool) {
        for &(m, held_write) in self.held.of(t) {
            if write {
                if let Some(lt) = self.lockvar.read_time(m, x) {
                    now.join(&lt.clock);
                }
            }
            if let Some(lt) = self.lockvar.write_time(m, x) {
                now.join(&lt.clock);
            }
            if !self.read_sections.is_empty() && held_write {
                if write {
                    if let Some(lt) = self.read_sections.read_time(m, x) {
                        now.join(&lt.clock);
                    }
                }
                if let Some(lt) = self.read_sections.write_time(m, x) {
                    now.join(&lt.clock);
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
        let e = Epoch::new(t, self.clocks.local(t));
        if slot(&mut self.vars, x.index()).write == e {
            self.counters.hit(FtoCase::WriteSameEpoch);
            return;
        }
        let mut now = self.clocks.clock_ref(t).clone();
        self.rule_a(t, x, &mut now, true);
        let vs = slot(&mut self.vars, x.index());
        let mut prior: Vec<ThreadId> = Vec::new();
        match &vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::WriteOwned);
            }
            ReadMeta::Epoch(r) => {
                self.counters.hit(FtoCase::WriteExclusive);
                if !r.leq_vc(&now) {
                    prior.push(r.tid());
                }
            }
            ReadMeta::Vc(vc) => {
                self.counters.hit(FtoCase::WriteShared);
                for (u, c) in vc.iter_nonzero() {
                    if c > now.get(u) {
                        prior.push(u);
                    }
                }
            }
        }
        vs.write = e;
        vs.read = ReadMeta::Epoch(e);
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

    fn read(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let e = Epoch::new(t, self.clocks.local(t));
        match slot(&mut self.vars, x.index())
            .read
            .same_epoch(t, e.clock())
        {
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
        let mut now = self.clocks.clock_ref(t).clone();
        self.rule_a(t, x, &mut now, false);
        let vs = slot(&mut self.vars, x.index());
        let mut race_with_write = false;
        match &mut vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::ReadOwned);
                vs.read = ReadMeta::Epoch(e);
            }
            ReadMeta::Epoch(r) => {
                if r.leq_vc(&now) {
                    self.counters.hit(FtoCase::ReadExclusive);
                    vs.read = ReadMeta::Epoch(e);
                } else {
                    self.counters.hit(FtoCase::ReadShare);
                    race_with_write = !vs.write.leq_vc(&now);
                    vs.read.share(e);
                }
            }
            ReadMeta::Vc(vc) => {
                if vc.get(t) != 0 {
                    self.counters.hit(FtoCase::ReadSharedOwned);
                    vc.set(t, e.clock());
                } else {
                    self.counters.hit(FtoCase::ReadShared);
                    race_with_write = !vs.write.leq_vc(&now);
                    vc.set(t, e.clock());
                }
            }
        }
        let write_tid = (!vs.write.is_none()).then(|| vs.write.tid());
        self.clocks.clock(t).assign(&now);
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
            self.queues
                .on_release(m, t, &mut now, id, write_mode, |_| {});
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

impl<const RULE_B: bool> Detector for FtoDcLike<RULE_B> {
    fn name(&self) -> &'static str {
        if RULE_B {
            "FTO-DC"
        } else {
            "FTO-WDC"
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
        OptLevel::Fto
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
    use crate::{run_detector, UnoptDc, UnoptWdc};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_unopt() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "FTO-DC vs Unopt-DC on {name}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "FTO-WDC vs Unopt-WDC on {name}"
            );
        }
    }

    #[test]
    fn figure3_split_between_dc_and_wdc() {
        let tr = paper::figure3();
        assert_eq!(first_race(FtoDc::new(), &tr), None);
        assert!(first_race(FtoWdc::new(), &tr).is_some());
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
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_unopt() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            assert_eq!(
                first_race(FtoDc::new(), &tr),
                first_race(UnoptDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(FtoWdc::new(), &tr),
                first_race(UnoptWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn counters_cover_nse_accesses() {
        let tr = RandomTraceSpec::default().generate(11);
        let mut det = FtoDc::new();
        run_detector(&mut det, &tr);
        let c = det.case_counters().unwrap();
        assert!(c.nse_reads() + c.nse_writes() > 0);
    }
}
