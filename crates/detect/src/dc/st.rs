//! SmartTrack-based DC/WDC analysis — paper Algorithm 3: FTO plus the
//! conflicting-critical-section (CCS) optimizations.
//!
//! Instead of per-(lock, variable) tables, each variable carries CS lists
//! (`Lwx`, `Lrx`) that mirror its last-access metadata, plus "extra" fall-back
//! metadata (`Ewx`, `Erx`) for critical sections the CS lists can no longer
//! represent. Rule (b) acquire queues shrink from vector clocks to epochs.

use smarttrack_clock::{Epoch, ReadMeta, SameEpoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::ccs::{
    multi_check, release_clock_bytes, stash_residual, CcsFidelity, CsEntry, CsList, Extras, LrMeta,
    PtrSet,
};
use crate::common::slot;
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::dc::DcClocks;
use crate::queues::{AcqEntry, DcRuleBQueues};
use crate::report::{AccessKind, RaceReport, Report};
use crate::{Detector, OptLevel, Relation};

#[derive(Clone, Debug, Default)]
struct StVar {
    write: Epoch,
    read: ReadMeta,
    /// `Lwx`: CS list of the last write.
    lw: Option<CsList>,
    /// `Lrx`: CS list(s) of the last read(s)/write.
    lr: LrMeta,
    /// `Erx`/`Ewx`, allocated lazily (empty "in most cases", §4.2).
    extras: Option<Box<Extras>>,
}

/// SmartTrack-DC analysis (`RULE_B = true`) or SmartTrack-WDC
/// (`RULE_B = false`), following paper Algorithm 3. Use the [`SmartTrackDc`]
/// / [`SmartTrackWdc`] aliases.
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SmartTrackWdc};
/// use smarttrack_trace::paper;
///
/// let mut det = SmartTrackWdc::new();
/// run_detector(&mut det, &paper::figure3());
/// assert_eq!(det.report().dynamic_count(), 1, "figure 3 is a WDC-race");
/// ```
#[derive(Clone, Debug)]
pub struct SmartTrackDcLike<const RULE_B: bool> {
    clocks: DcClocks,
    /// `Ht` per thread: active critical sections, outermost first.
    ht: Vec<Vec<CsEntry>>,
    /// Cached shared snapshot of `Ht` per thread, invalidated at
    /// acquire/release (makes `Lrx ← Ht` an O(1) reference copy, the paper's
    /// shared-structure CS list).
    ht_cache: Vec<Option<CsList>>,
    /// Held-lock view derived from `ht` (reused buffer).
    queues: DcRuleBQueues,
    vars: Vec<StVar>,
    report: Report,
    counters: FtoCaseCounters,
    fidelity: CcsFidelity,
}

/// SmartTrack-DC analysis (paper Algorithm 3).
pub type SmartTrackDc = SmartTrackDcLike<true>;
/// SmartTrack-WDC analysis (Algorithm 3 minus rule (b): remove its lines 2
/// and 8–12).
pub type SmartTrackWdc = SmartTrackDcLike<false>;

impl<const RULE_B: bool> Default for SmartTrackDcLike<RULE_B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const RULE_B: bool> SmartTrackDcLike<RULE_B> {
    /// Creates the analysis in [`CcsFidelity::Strict`] mode.
    pub fn new() -> Self {
        Self::with_fidelity(CcsFidelity::Strict)
    }

    /// Creates the analysis with an explicit CCS fidelity mode.
    pub fn with_fidelity(fidelity: CcsFidelity) -> Self {
        SmartTrackDcLike {
            clocks: DcClocks::new(),
            ht: Vec::new(),
            ht_cache: Vec::new(),
            queues: DcRuleBQueues::new(),
            vars: Vec::new(),
            report: Report::new(),
            counters: FtoCaseCounters::new(),
            fidelity,
        }
    }

    /// Diagnostic view of the current clock of `t` (for tests).
    pub fn thread_clock(&self, t: ThreadId) -> &VectorClock {
        self.clocks.clock_ref(t)
    }

    fn held_of(ht: &[Vec<CsEntry>], t: ThreadId) -> Vec<(LockId, bool)> {
        ht.get(t.index())
            .map(|l| l.iter().map(|e| (e.lock, e.write)).collect())
            .unwrap_or_default()
    }

    /// `Ht` as a shared CS list (cached; rebuilding only after lock
    /// operations).
    fn snapshot_ht(&mut self, t: ThreadId) -> CsList {
        let cache = slot(&mut self.ht_cache, t.index());
        if cache.is_none() {
            *cache = Some(CsList::from_entries(
                t,
                self.ht.get(t.index()).cloned().unwrap_or_default(),
            ));
        }
        cache.clone().expect("just filled")
    }

    fn dc_epoch_check(e: Epoch, vc: &VectorClock) -> bool {
        e.leq_vc(vc)
    }

    fn acquire(&mut self, t: ThreadId, m: LockId) {
        if RULE_B {
            let local = self.clocks.clock(t).get(t);
            self.queues.on_acquire(m, t, &AcqEntry::Epoch(local), true);
        }
        slot(&mut self.ht, t.index()).push(CsEntry::pending(m, t));
        *slot(&mut self.ht_cache, t.index()) = None;
        self.clocks.increment(t);
    }

    fn acquire_read(&mut self, t: ThreadId, m: LockId) {
        if RULE_B {
            let local = self.clocks.clock(t).get(t);
            self.queues.on_acquire(m, t, &AcqEntry::Epoch(local), false);
        }
        slot(&mut self.ht, t.index()).push(CsEntry::pending_read(m, t));
        *slot(&mut self.ht_cache, t.index()) = None;
        self.clocks.increment(t);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        // Pop the innermost section on `m` first — its mode gates the
        // rule (b) consumption; searched from the innermost end to tolerate
        // non-LIFO unlocking.
        *slot(&mut self.ht_cache, t.index()) = None;
        let stack = slot(&mut self.ht, t.index());
        let entry = stack
            .iter()
            .rposition(|e| e.lock == m)
            .map(|pos| stack.remove(pos));
        let write_mode = entry.as_ref().is_none_or(|e| e.write);
        let mut now = self.clocks.clock(t).clone();
        if RULE_B {
            self.queues
                .on_release(m, t, &mut now, id, write_mode, |_| {});
        }
        // Resolve the deferred release time (Algorithm 3 lines 13–15).
        if let Some(entry) = entry {
            *entry.release.borrow_mut() = now.clone();
        }
        self.clocks.clock(t).assign(&now);
        self.clocks.increment(t);
    }

    /// Absorbs and clears extra metadata at a write (Algorithm 3 lines
    /// 19–23). In `Strict` mode, write-side extras for held locks are
    /// absorbed as well (see DESIGN.md §5).
    fn absorb_extras_at_write(&mut self, t: ThreadId, x: VarId, now: &mut VectorClock) {
        if self.vars[x.index()].extras.is_none() {
            return;
        }
        let held = Self::held_of(&self.ht, t);
        let strict = self.fidelity == CcsFidelity::Strict;
        let Some(ex) = self.vars[x.index()].extras.as_mut() else {
            return;
        };
        let er_nonempty = !ex.read.is_empty();
        let ew_nonempty = !ex.write.is_empty();
        if !(er_nonempty || (strict && ew_nonempty)) {
            return;
        }
        for &(m, held_write) in &held {
            for (u, map) in ex.read.iter() {
                if u != t {
                    for rc in map.conflicting(m, held_write) {
                        now.join(&rc.borrow());
                    }
                }
            }
            if strict {
                for (u, map) in ex.write.iter() {
                    if u != t {
                        for rc in map.conflicting(m, held_write) {
                            now.join(&rc.borrow());
                        }
                    }
                }
            }
            for (u, map) in ex.read.iter_mut() {
                if u != t {
                    map.remove_conflicting(m, held_write);
                }
            }
            for (u, map) in ex.write.iter_mut() {
                if u != t {
                    map.remove_conflicting(m, held_write);
                }
            }
        }
        ex.read.remove_thread(t);
        ex.write.remove_thread(t);
        if ex.is_empty() {
            self.vars[x.index()].extras = None;
        }
    }

    /// Absorbs write-side extra metadata at a read (Algorithm 3 lines 4–6).
    fn absorb_extras_at_read(&mut self, t: ThreadId, x: VarId, now: &mut VectorClock) {
        if self.vars[x.index()].extras.is_none() {
            return;
        }
        let held = Self::held_of(&self.ht, t);
        let Some(ex) = self.vars[x.index()].extras.as_ref() else {
            return;
        };
        if ex.write.is_empty() {
            return;
        }
        for &(m, held_write) in &held {
            for (u, map) in ex.write.iter() {
                if u != t {
                    for rc in map.conflicting(m, held_write) {
                        now.join(&rc.borrow());
                    }
                }
            }
        }
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let e = Epoch::new(t, self.clocks.local(t));
        slot(&mut self.vars, x.index());
        if self.vars[x.index()].write == e {
            self.counters.hit(FtoCase::WriteSameEpoch);
            return;
        }
        let mut now = self.clocks.clock_ref(t).clone();
        self.absorb_extras_at_write(t, x, &mut now);
        let held = Self::held_of(&self.ht, t);
        let fidelity = self.fidelity;
        let snapshot = self.snapshot_ht(t);
        let vs = &mut self.vars[x.index()];
        let mut prior: Vec<ThreadId> = Vec::new();

        match &vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::WriteOwned);
            }
            ReadMeta::Epoch(r) if r.is_none() => {
                // First access to x: nothing to check ([Write Exclusive]
                // with Rx = ⊥ₑ, which is ordered before everything).
                self.counters.hit(FtoCase::WriteExclusive);
            }
            ReadMeta::Epoch(r) => {
                self.counters.hit(FtoCase::WriteExclusive);
                let u = r.tid();
                let lr = match &vs.lr {
                    LrMeta::Single(l) => l.as_ref(),
                    LrMeta::PerThread(_) => unreachable!("epoch Rx implies single Lrx"),
                };
                let (residual, raced) = multi_check(&mut now, &held, lr, *r, Self::dc_epoch_check);
                if raced {
                    prior.push(u);
                }
                if !residual.is_empty() {
                    let ex = vs.extras.get_or_insert_with(Default::default);
                    stash_residual(&mut ex.read, u, residual, fidelity);
                    if vs.lw.as_ref().is_some_and(|l| l.owner == u) {
                        let (wres, _) = multi_check(
                            &mut now,
                            &held,
                            vs.lw.as_ref(),
                            Epoch::NONE,
                            Self::dc_epoch_check,
                        );
                        let ex = vs.extras.get_or_insert_with(Default::default);
                        stash_residual(&mut ex.write, u, wres, fidelity);
                    }
                }
            }
            ReadMeta::Vc(rvc) => {
                self.counters.hit(FtoCase::WriteShared);
                let rvc = rvc.clone();
                for (u, c) in rvc.iter_nonzero() {
                    if u == t {
                        continue;
                    }
                    let lr = vs.lr.of(u);
                    let (residual, raced) =
                        multi_check(&mut now, &held, lr, Epoch::new(u, c), Self::dc_epoch_check);
                    if raced {
                        prior.push(u);
                    }
                    if !residual.is_empty() {
                        let ex = vs.extras.get_or_insert_with(Default::default);
                        stash_residual(&mut ex.read, u, residual, fidelity);
                        if vs.lw.as_ref().is_some_and(|l| l.owner == u) {
                            let (wres, _) = multi_check(
                                &mut now,
                                &held,
                                vs.lw.as_ref(),
                                Epoch::NONE,
                                Self::dc_epoch_check,
                            );
                            let ex = vs.extras.get_or_insert_with(Default::default);
                            stash_residual(&mut ex.write, u, wres, fidelity);
                        }
                    }
                }
            }
        }

        // Lines 36–37: Lwx ← Lrx ← Ht; Wx ← Rx ← Ct(t).
        vs.lw = Some(snapshot.clone());
        vs.lr = LrMeta::Single(Some(snapshot));
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
        slot(&mut self.vars, x.index());
        match self.vars[x.index()].read.same_epoch(t, e.clock()) {
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
        self.absorb_extras_at_read(t, x, &mut now);
        let held = Self::held_of(&self.ht, t);
        let strict = self.fidelity == CcsFidelity::Strict;
        let snapshot = self.snapshot_ht(t);
        let vs = &mut self.vars[x.index()];
        let mut raced_with_write = false;

        match &mut vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::ReadOwned);
                vs.lr = LrMeta::Single(Some(snapshot));
                vs.read = ReadMeta::Epoch(e);
            }
            ReadMeta::Epoch(r) if r.is_none() => {
                // First access to x: trivially ordered ([Read Exclusive]).
                self.counters.hit(FtoCase::ReadExclusive);
                vs.lr = LrMeta::Single(Some(snapshot));
                vs.read = ReadMeta::Epoch(e);
            }
            ReadMeta::Epoch(r) => {
                let u = r.tid();
                // Line 11: the outermost release of the prior access's CS
                // list, or Rx itself if the list is empty.
                let lr_list = match &vs.lr {
                    LrMeta::Single(l) => l.as_ref(),
                    LrMeta::PerThread(_) => unreachable!("epoch Rx implies single Lrx"),
                };
                let ordered = match lr_list.and_then(CsList::outermost) {
                    Some(outer) => outer.release.borrow().get(u) <= now.get(u),
                    None => r.leq_vc(&now),
                };
                if ordered {
                    self.counters.hit(FtoCase::ReadExclusive);
                    vs.lr = LrMeta::Single(Some(snapshot));
                    vs.read = ReadMeta::Epoch(e);
                } else {
                    self.counters.hit(FtoCase::ReadShare);
                    let (_, raced) = multi_check(
                        &mut now,
                        &held,
                        vs.lw.as_ref(),
                        vs.write,
                        Self::dc_epoch_check,
                    );
                    raced_with_write = raced;
                    let old = match std::mem::take(&mut vs.lr) {
                        LrMeta::Single(l) => l.unwrap_or_else(|| CsList::empty(u)),
                        LrMeta::PerThread(_) => unreachable!(),
                    };
                    vs.lr = LrMeta::PerThread(vec![(u, old), (t, snapshot)]);
                    vs.read.share(e);
                }
            }
            ReadMeta::Vc(rvc) => {
                if rvc.get(t) != 0 {
                    self.counters.hit(FtoCase::ReadSharedOwned);
                    // Strict refinement: keep rule (a) ordering from the last
                    // write's critical sections (join-only, no race check).
                    if strict && vs.lw.as_ref().is_some_and(|l| l.owner != t) {
                        let _ = multi_check(
                            &mut now,
                            &held,
                            vs.lw.as_ref(),
                            Epoch::NONE,
                            Self::dc_epoch_check,
                        );
                    }
                    rvc.set(t, e.clock());
                } else {
                    self.counters.hit(FtoCase::ReadShared);
                    let write = vs.write;
                    let (_, raced) =
                        multi_check(&mut now, &held, vs.lw.as_ref(), write, Self::dc_epoch_check);
                    raced_with_write = raced;
                    if let ReadMeta::Vc(rvc) = &mut vs.read {
                        rvc.set(t, e.clock());
                    }
                }
                vs.lr.set(t, snapshot);
            }
        }
        let write_tid = (!vs.write.is_none()).then(|| vs.write.tid());
        self.clocks.clock(t).assign(&now);
        if raced_with_write {
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
}

impl<const RULE_B: bool> Detector for SmartTrackDcLike<RULE_B> {
    fn name(&self) -> &'static str {
        if RULE_B {
            "SmartTrack-DC"
        } else {
            "SmartTrack-WDC"
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
        OptLevel::SmartTrack
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        if RULE_B {
            if let Some(threads) = hint.threads {
                self.queues.set_thread_bound(threads);
            }
        }
        self.clocks.reserve(hint.threads, hint.volatiles);
        self.vars
            .reserve(crate::StreamHint::presize(hint.vars, self.vars.len()));
        self.ht
            .reserve(crate::StreamHint::presize(hint.threads, self.ht.len()));
        self.ht_cache.reserve(crate::StreamHint::presize(
            hint.threads,
            self.ht_cache.len(),
        ));
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
        let mut seen = PtrSet::default();
        let mut bytes = self.clocks.footprint_bytes()
            + self.queues.footprint_bytes()
            + self.report.footprint_bytes();
        for stack in &self.ht {
            for e in stack {
                bytes += release_clock_bytes(&e.release, &mut seen);
            }
            bytes += stack.capacity() * std::mem::size_of::<CsEntry>();
        }
        let mut list_vecs = PtrSet::default();
        let mut list_bytes = |l: &CsList, seen: &mut PtrSet| {
            let mut b = std::mem::size_of::<CsList>();
            if list_vecs.insert(std::rc::Rc::as_ptr(&l.entries) as usize) {
                b += l.entries.capacity() * std::mem::size_of::<CsEntry>();
                for e in l.entries.iter() {
                    b += release_clock_bytes(&e.release, seen);
                }
            }
            b
        };
        bytes += self.vars.capacity() * std::mem::size_of::<StVar>();
        for v in &self.vars {
            bytes += v.read.footprint_bytes();
            if let Some(l) = &v.lw {
                bytes += list_bytes(l, &mut seen);
            }
            match &v.lr {
                LrMeta::Single(Some(l)) => bytes += list_bytes(l, &mut seen),
                LrMeta::PerThread(map) => {
                    for (_, l) in map {
                        bytes += list_bytes(l, &mut seen);
                    }
                }
                LrMeta::Single(None) => {}
            }
            if let Some(ex) = &v.extras {
                for side in [&ex.read, &ex.write] {
                    for (_, map) in side.iter() {
                        for rc in map.clocks() {
                            bytes += release_clock_bytes(rc, &mut seen);
                        }
                    }
                    bytes += side.heap_bytes();
                }
            }
        }
        bytes
    }

    fn state_bytes(&self) -> usize {
        // Cheap running estimate: table capacities only. The Rc-shared CS
        // lists hanging off `vars` are deduplicated by the exact
        // `footprint_bytes` walk at stream end.
        self.clocks.resident_bytes()
            + self.queues.resident_bytes()
            + self.report.footprint_bytes()
            + self
                .ht
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<CsEntry>())
                .sum::<usize>()
            + self.vars.capacity() * std::mem::size_of::<StVar>()
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
    use crate::{run_detector, FtoDc, FtoWdc, UnoptDc};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_fto() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "ST-DC vs FTO-DC on {name}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "ST-WDC vs FTO-WDC on {name}"
            );
        }
    }

    #[test]
    fn figure4a_takes_read_share_and_write_shared() {
        let mut det = SmartTrackDc::new();
        run_detector(&mut det, &paper::figure4a());
        assert!(det.report().is_empty());
        let c = det.case_counters().unwrap();
        // [Read Share]: T2's rd(x) (the paper's narrative), plus T3's
        // rd(oVar) — DC has no release→acquire edges, so the line-11
        // ordering check fails before the CCS join happens. This is exactly
        // the "[Read Share] where FTO-DC would take [Read Exclusive]"
        // behaviour of §4.2.
        assert_eq!(c.count(FtoCase::ReadShare), 2);
        // [Write Shared]: T3's wr(x) plus T3's wr(oVar) after the shared read.
        assert_eq!(c.count(FtoCase::WriteShared), 2);
    }

    #[test]
    fn figure4a_fto_takes_read_exclusive_instead() {
        let mut det = FtoDc::new();
        run_detector(&mut det, &paper::figure4a());
        let c = det.case_counters().unwrap();
        assert_eq!(
            c.count(FtoCase::ReadShare),
            0,
            "FTO-DC takes [Read Exclusive] where SmartTrack takes [Read Share]"
        );
        assert_eq!(
            c.count(FtoCase::WriteShared),
            0,
            "without [Read Share], FTO-DC's Rx stays an epoch at T3's write"
        );
    }

    #[test]
    fn figure4b_read_share_preserves_needed_ordering() {
        // Missing the rel(m)ᵀ¹ → wr(x)ᵀ³ ordering would be visible in T3's
        // clock after its write.
        let tr = paper::figure4b();
        let mut det = SmartTrackDc::new();
        run_detector(&mut det, &tr);
        assert!(det.report().is_empty());
        // T1 executed 11 events: acq, rd, 4×sync(o), rel(m); its release of m
        // was its last clock increment. T3's clock must have absorbed it.
        let mut unopt = UnoptDc::new();
        run_detector(&mut unopt, &tr);
        let t3 = ThreadId::new(2);
        let t1 = ThreadId::new(0);
        assert_eq!(
            det.thread_clock(t3).get(t1),
            unopt.thread_clock(t3).get(t1),
            "SmartTrack must track the same T1-knowledge as Unopt at T3"
        );
    }

    #[test]
    fn figure4c_and_4d_extras_preserve_ordering() {
        for (name, tr) in [("4c", paper::figure4c()), ("4d", paper::figure4d())] {
            let mut det = SmartTrackDc::new();
            run_detector(&mut det, &tr);
            assert!(det.report().is_empty(), "figure {name}");
            let mut unopt = UnoptDc::new();
            run_detector(&mut unopt, &tr);
            let t3 = ThreadId::new(2);
            let t1 = ThreadId::new(0);
            assert_eq!(
                det.thread_clock(t3).get(t1),
                unopt.thread_clock(t3).get(t1),
                "extras must carry T1's release to T3 (figure {name})"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_fto_strict() {
        for seed in 0..120 {
            let tr = RandomTraceSpec {
                events: 300,
                threads: 3,
                vars: 6,
                locks: 3,
                ..RandomTraceSpec::default()
            }
            .generate(seed);
            assert_eq!(
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_fto() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            assert_eq!(
                first_race(SmartTrackDc::new(), &tr),
                first_race(FtoDc::new(), &tr),
                "DC seed {seed}"
            );
            assert_eq!(
                first_race(SmartTrackWdc::new(), &tr),
                first_race(FtoWdc::new(), &tr),
                "WDC seed {seed}"
            );
        }
    }

    #[test]
    fn paper_fidelity_matches_on_figures() {
        for (name, tr) in paper::all_figures() {
            assert_eq!(
                first_race(SmartTrackDc::with_fidelity(CcsFidelity::Paper), &tr),
                first_race(SmartTrackDc::with_fidelity(CcsFidelity::Strict), &tr),
                "fidelity modes disagree on {name}"
            );
        }
    }
}

#[cfg(test)]
mod fidelity_corner_tests {
    use super::*;
    use crate::{run_detector, FtoWdc};
    use smarttrack_trace::{Op, TraceBuilder};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    /// The adversarial execution behind DESIGN.md §5 item 5: verbatim
    /// Algorithm 3 skips the `Lwx` `MultiCheck` in [Read Shared Owned], which
    /// here loses the rule (a) ordering `rel(m)ᵀ⁰ ≺ rd(x)ᵀ¹` — the only path
    /// carrying T0's `wr(y)` to T2 — producing a false WDC-race on `y` that
    /// FTO-WDC (and `Strict` mode) do not report. Under DC, rule (b) re-adds
    /// the lost ordering at T1's release of `m`, which is why the corner only
    /// manifests for WDC and why random traces never hit it (0 divergences
    /// across thousands of seeds).
    fn corner_case() -> smarttrack_trace::Trace {
        let (xv, y, ov, pv) = (x(0), x(1), x(2), x(3));
        let (lm, lo, lp) = (m(0), m(1), m(2));
        let mut b = TraceBuilder::new();
        let sync = |b: &mut TraceBuilder, tid: ThreadId, l: LockId, v: VarId| {
            b.push(tid, Op::Acquire(l)).unwrap();
            b.push(tid, Op::Read(v)).unwrap();
            b.push(tid, Op::Write(v)).unwrap();
            b.push(tid, Op::Release(l)).unwrap();
        };
        // T0: inside m, publish x via the o-sync, then write y.
        b.push(t(0), Op::Acquire(lm)).unwrap();
        b.push(t(0), Op::Write(xv)).unwrap();
        sync(&mut b, t(0), lo, ov);
        b.push(t(0), Op::Write(y)).unwrap();
        // T1: ordered after wr(x) via o; reads x while m is still pending
        // ([Read Share] → shared Rx).
        sync(&mut b, t(1), lo, ov);
        b.push(t(1), Op::Read(xv)).unwrap();
        // T0 releases m (its release clock now covers wr(y)).
        b.push(t(0), Op::Release(lm)).unwrap();
        // T1 re-reads x inside m: [Read Shared Owned]. Rule (a) demands
        // rel(m)ᵀ⁰ ≺DC this read; verbatim Algorithm 3 skips the join.
        b.push(t(1), Op::Acquire(lm)).unwrap();
        b.push(t(1), Op::Read(xv)).unwrap();
        b.push(t(1), Op::Release(lm)).unwrap();
        sync(&mut b, t(1), lp, pv);
        // T2: ordered after T1 via p; reads y. True DC orders wr(y)ᵀ⁰ first.
        sync(&mut b, t(2), lp, pv);
        b.push(t(2), Op::Read(y)).unwrap();
        b.finish()
    }

    #[test]
    fn strict_mode_matches_fto_on_the_corner_case() {
        let tr = corner_case();
        let mut fto = FtoWdc::new();
        run_detector(&mut fto, &tr);
        assert!(fto.report().is_empty(), "FTO-WDC: no WDC-race exists");
        let mut strict = SmartTrackWdc::with_fidelity(CcsFidelity::Strict);
        run_detector(&mut strict, &tr);
        assert!(strict.report().is_empty(), "Strict mode matches FTO");
        // DC is immune either way: rule (b) restores the ordering.
        let mut paper_dc = SmartTrackDc::with_fidelity(CcsFidelity::Paper);
        run_detector(&mut paper_dc, &tr);
        assert!(paper_dc.report().is_empty(), "rule (b) rescues DC");
    }

    #[test]
    fn paper_mode_over_reports_on_the_corner_case() {
        let tr = corner_case();
        let mut paper = SmartTrackWdc::with_fidelity(CcsFidelity::Paper);
        run_detector(&mut paper, &tr);
        assert_eq!(
            paper.report().dynamic_count(),
            1,
            "verbatim Algorithm 3 loses the rule (a) ordering and reports a \
             false race on y — the reason Strict is the default"
        );
        assert_eq!(paper.report().races()[0].var, x(1), "the race is on y");
    }
}
