//! SmartTrack-WCP analysis: Algorithm 3's CCS optimizations applied to WCP
//! ("Applying SmartTrack to WDC and WCP analyses is analogous and
//! straightforward", §4.2).
//!
//! CS lists store references to *HB* release-time clocks (rule (a) for WCP
//! joins the HB clock of the earlier release, left-composing with HB);
//! `MultiCheck` runs against the WCP clock; rule (b) keeps WCP's per-lock
//! per-thread queues, whose acquire entries are already epochs.

use smarttrack_clock::{Epoch, ReadMeta, SameEpoch, ThreadId, VectorClock};
use smarttrack_trace::{Event, EventId, Loc, LockId, Op, VarId};

use crate::ccs::{
    multi_check, release_clock_bytes, stash_residual, CcsFidelity, CsEntry, CsList, Extras, LrMeta,
    PtrSet,
};
use crate::common::slot;
use crate::counters::{FtoCase, FtoCaseCounters};
use crate::queues::WcpRuleBQueues;
use crate::report::{AccessKind, RaceReport, Report};
use crate::wcp::{wcp_epoch_ordered, WcpClocks};
use crate::{Detector, OptLevel, Relation};

#[derive(Clone, Debug, Default)]
struct StVar {
    write: Epoch,
    read: ReadMeta,
    lw: Option<CsList>,
    lr: LrMeta,
    extras: Option<Box<Extras>>,
}

/// SmartTrack-WCP analysis (`ST-WCP` in the paper's tables).
///
/// # Examples
///
/// ```
/// use smarttrack_detect::{run_detector, Detector, SmartTrackWcp};
/// use smarttrack_trace::paper;
///
/// let mut det = SmartTrackWcp::new();
/// run_detector(&mut det, &paper::figure1());
/// assert_eq!(det.report().dynamic_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SmartTrackWcp {
    clocks: WcpClocks,
    ht: Vec<Vec<CsEntry>>,
    /// Cached shared snapshot of `Ht` per thread, invalidated at
    /// acquire/release (makes `Lrx ← Ht` an O(1) reference copy, the paper's
    /// shared-structure CS list).
    ht_cache: Vec<Option<CsList>>,
    queues: WcpRuleBQueues,
    vars: Vec<StVar>,
    report: Report,
    counters: FtoCaseCounters,
    fidelity: CcsFidelity,
}

impl Default for SmartTrackWcp {
    fn default() -> Self {
        Self::new()
    }
}

impl SmartTrackWcp {
    /// Creates the analysis in [`CcsFidelity::Strict`] mode.
    pub fn new() -> Self {
        Self::with_fidelity(CcsFidelity::Strict)
    }

    /// Creates the analysis with an explicit CCS fidelity mode.
    pub fn with_fidelity(fidelity: CcsFidelity) -> Self {
        SmartTrackWcp {
            clocks: WcpClocks::new(),
            ht: Vec::new(),
            ht_cache: Vec::new(),
            queues: WcpRuleBQueues::new(),
            vars: Vec::new(),
            report: Report::new(),
            counters: FtoCaseCounters::new(),
            fidelity,
        }
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

    fn acquire(&mut self, t: ThreadId, m: LockId) {
        let local = self.clocks.hb(t).get(t);
        self.queues.on_acquire(m, t, local, true);
        slot(&mut self.ht, t.index()).push(CsEntry::pending(m, t));
        *slot(&mut self.ht_cache, t.index()) = None;
        self.clocks.acquire(t, m);
    }

    fn acquire_read(&mut self, t: ThreadId, m: LockId) {
        let local = self.clocks.hb(t).get(t);
        self.queues.on_acquire(m, t, local, false);
        slot(&mut self.ht, t.index()).push(CsEntry::pending_read(m, t));
        *slot(&mut self.ht_cache, t.index()) = None;
        self.clocks.acquire_read(t, m);
    }

    fn release(&mut self, id: EventId, t: ThreadId, m: LockId) {
        // Pop the innermost section on `m` first — its mode gates both the
        // rule (b) consumption and the clock publication below.
        *slot(&mut self.ht_cache, t.index()) = None;
        let stack = slot(&mut self.ht, t.index());
        let entry = stack
            .iter()
            .rposition(|e| e.lock == m)
            .map(|pos| stack.remove(pos));
        let write_mode = entry.as_ref().is_none_or(|e| e.write);
        let mut p = self.clocks.wcp(t).clone();
        self.queues.consume(m, t, &mut p, write_mode, |_| {});
        self.clocks.wcp(t).assign(&p);
        let hb = self.clocks.hb(t).clone();
        self.queues.on_release_publish(m, t, &hb, id);
        // Resolve the deferred release time with the *HB* clock: rule (a)
        // for WCP joins HB release times.
        if let Some(entry) = entry {
            *entry.release.borrow_mut() = hb.clone();
        }
        if write_mode {
            self.clocks.release_publish(t, m);
        } else {
            self.clocks.release_publish_read(t, m);
        }
    }

    fn absorb_extras_at_write(&mut self, t: ThreadId, x: VarId, p: &mut VectorClock) {
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
                        p.join(&rc.borrow());
                    }
                }
            }
            if strict {
                for (u, map) in ex.write.iter() {
                    if u != t {
                        for rc in map.conflicting(m, held_write) {
                            p.join(&rc.borrow());
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

    fn absorb_extras_at_read(&mut self, t: ThreadId, x: VarId, p: &mut VectorClock) {
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
                        p.join(&rc.borrow());
                    }
                }
            }
        }
    }

    fn write(&mut self, id: EventId, t: ThreadId, x: VarId, loc: Loc) {
        let h_own = self.clocks.local(t);
        let e = Epoch::new(t, h_own);
        slot(&mut self.vars, x.index());
        if self.vars[x.index()].write == e {
            self.counters.hit(FtoCase::WriteSameEpoch);
            return;
        }
        let mut p = self.clocks.wcp(t).clone();
        self.absorb_extras_at_write(t, x, &mut p);
        let held = Self::held_of(&self.ht, t);
        let fidelity = self.fidelity;
        let check = move |a: Epoch, now: &VectorClock| wcp_epoch_ordered(a, t, h_own, now);
        let snapshot = self.snapshot_ht(t);
        let vs = &mut self.vars[x.index()];
        let mut prior: Vec<ThreadId> = Vec::new();

        match &vs.read {
            ReadMeta::Epoch(r) if r.is_owned_by(t) => {
                self.counters.hit(FtoCase::WriteOwned);
            }
            ReadMeta::Epoch(r) if r.is_none() => {
                // First access to x: nothing to check.
                self.counters.hit(FtoCase::WriteExclusive);
            }
            ReadMeta::Epoch(r) => {
                self.counters.hit(FtoCase::WriteExclusive);
                let u = r.tid();
                let lr = match &vs.lr {
                    LrMeta::Single(l) => l.as_ref(),
                    LrMeta::PerThread(_) => unreachable!("epoch Rx implies single Lrx"),
                };
                let (residual, raced) = multi_check(&mut p, &held, lr, *r, check);
                if raced {
                    prior.push(u);
                }
                if !residual.is_empty() {
                    let ex = vs.extras.get_or_insert_with(Default::default);
                    stash_residual(&mut ex.read, u, residual, fidelity);
                    if vs.lw.as_ref().is_some_and(|l| l.owner == u) {
                        let (wres, _) =
                            multi_check(&mut p, &held, vs.lw.as_ref(), Epoch::NONE, check);
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
                    let (residual, raced) = multi_check(&mut p, &held, lr, Epoch::new(u, c), check);
                    if raced {
                        prior.push(u);
                    }
                    if !residual.is_empty() {
                        let ex = vs.extras.get_or_insert_with(Default::default);
                        stash_residual(&mut ex.read, u, residual, fidelity);
                        if vs.lw.as_ref().is_some_and(|l| l.owner == u) {
                            let (wres, _) =
                                multi_check(&mut p, &held, vs.lw.as_ref(), Epoch::NONE, check);
                            let ex = vs.extras.get_or_insert_with(Default::default);
                            stash_residual(&mut ex.write, u, wres, fidelity);
                        }
                    }
                }
            }
        }

        vs.lw = Some(snapshot.clone());
        vs.lr = LrMeta::Single(Some(snapshot));
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
        slot(&mut self.vars, x.index());
        match self.vars[x.index()].read.same_epoch(t, h_own) {
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
        self.absorb_extras_at_read(t, x, &mut p);
        let held = Self::held_of(&self.ht, t);
        let strict = self.fidelity == CcsFidelity::Strict;
        let check = move |a: Epoch, now: &VectorClock| wcp_epoch_ordered(a, t, h_own, now);
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
                let prior_epoch = *r;
                let lr_list = match &vs.lr {
                    LrMeta::Single(l) => l.as_ref(),
                    LrMeta::PerThread(_) => unreachable!("epoch Rx implies single Lrx"),
                };
                let ordered = match lr_list.and_then(CsList::outermost) {
                    Some(outer) => outer.release.borrow().get(u) <= p.get(u),
                    None => check(prior_epoch, &p),
                };
                if ordered {
                    self.counters.hit(FtoCase::ReadExclusive);
                    vs.lr = LrMeta::Single(Some(snapshot));
                    vs.read = ReadMeta::Epoch(e);
                } else {
                    self.counters.hit(FtoCase::ReadShare);
                    let (_, raced) = multi_check(&mut p, &held, vs.lw.as_ref(), vs.write, check);
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
                    if strict && vs.lw.as_ref().is_some_and(|l| l.owner != t) {
                        let _ = multi_check(&mut p, &held, vs.lw.as_ref(), Epoch::NONE, check);
                    }
                    rvc.set(t, h_own);
                } else {
                    self.counters.hit(FtoCase::ReadShared);
                    let write = vs.write;
                    let (_, raced) = multi_check(&mut p, &held, vs.lw.as_ref(), write, check);
                    raced_with_write = raced;
                    if let ReadMeta::Vc(rvc) = &mut vs.read {
                        rvc.set(t, h_own);
                    }
                }
                vs.lr.set(t, snapshot);
            }
        }
        let write_tid = (!vs.write.is_none()).then(|| vs.write.tid());
        self.clocks.wcp(t).assign(&p);
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

impl Detector for SmartTrackWcp {
    fn name(&self) -> &'static str {
        "SmartTrack-WCP"
    }

    fn relation(&self) -> Relation {
        Relation::Wcp
    }

    fn opt_level(&self) -> OptLevel {
        OptLevel::SmartTrack
    }

    fn begin_stream(&mut self, hint: crate::StreamHint) {
        self.clocks.reserve(&hint);
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
        // Cheap running estimate: table capacities only (see the DC
        // SmartTrack variant for the accounting contract).
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
    use crate::{run_detector, FtoWcp, UnoptWcp};
    use smarttrack_trace::{gen::RandomTraceSpec, paper, Trace};

    fn first_race<D: Detector>(mut det: D, tr: &Trace) -> Option<EventId> {
        run_detector(&mut det, tr);
        det.report().first_race_event()
    }

    #[test]
    fn figures_match_fto_and_unopt() {
        for (name, tr) in paper::all_figures() {
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO on {name}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt on {name}"
            );
        }
    }

    #[test]
    fn random_traces_first_race_matches_fto() {
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
                first_race(SmartTrackWcp::new(), &tr),
                first_race(FtoWcp::new(), &tr),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rwlock_traces_first_race_matches_fto_and_unopt() {
        for seed in 0..120 {
            let tr = RandomTraceSpec::tiny_rw().generate(seed);
            let st = first_race(SmartTrackWcp::new(), &tr);
            assert_eq!(st, first_race(FtoWcp::new(), &tr), "ST vs FTO seed {seed}");
            assert_eq!(
                st,
                first_race(UnoptWcp::new(), &tr),
                "ST vs Unopt seed {seed}"
            );
        }
    }
}
