//! Monitor wiring between operators and the `pf-feedback` mechanisms.
//!
//! Monitors are created by the planner, shared with operators as
//! `Rc<RefCell<...>>` handles, and harvested after the plan drains. Three
//! shapes exist, matching Sections III–IV:
//!
//! * [`ScanMonitorSet`] — attached to a scan: one entry per monitored
//!   expression, each either *exact* (a prefix of the scan's conjuncts —
//!   free under short-circuiting) or *page-sampled* (non-prefix, needs
//!   short-circuiting off on sampled pages), optionally testing a
//!   semi-join bit-vector instead of/apart from atoms;
//! * [`FetchMonitor`] — attached to a Fetch/INL-inner: a linear counter
//!   over fetched PIDs;
//! * [`SemiJoinSlot`] — the callback cell a hash join fills with its
//!   build-side bit vector before the probe scan runs (Fig 5).

use crate::expr::Conjunction;
use pf_common::DatumAccess;
pub use pf_feedback::page_sampled;
use pf_feedback::{
    BitVectorFilter, DpcMeasurement, FeedbackReport, GroupedPageCounter, LinearCounter, Mechanism,
    Sketch,
};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;

/// The cell through which the RE-side join hands its bit-vector filter to
/// the SE-side probe scan. Starts empty; the join fills it after the
/// build phase, strictly before any probe row flows.
#[derive(Debug, Default)]
pub struct SemiJoinFilter {
    /// The filter, once built.
    pub filter: Option<BitVectorFilter>,
    /// Probe-side join-key column ordinal.
    pub key_column: usize,
}

/// Shared handle to a [`SemiJoinFilter`].
pub type SemiJoinSlot = Rc<RefCell<SemiJoinFilter>>;

/// Creates an empty semi-join slot for probe-side key column `key_column`.
pub fn semi_join_slot(key_column: usize) -> SemiJoinSlot {
    Rc::new(RefCell::new(SemiJoinFilter {
        filter: None,
        key_column,
    }))
}

/// How one monitored expression on a scan decides "row satisfies".
#[derive(Debug)]
enum ScanExprKind {
    /// Conjunction of the scan predicate's atoms at these indices.
    /// `prefix_len` is `Some(L)` when the indices are exactly `0..L` —
    /// then the truth is known from short-circuit evaluation for free.
    Atoms {
        indices: Vec<usize>,
        prefix_len: Option<usize>,
    },
    /// The derived semi-join predicate: bit-vector membership of the
    /// row's join key (Fig 5). Costs one hash per row on sampled pages.
    SemiJoin(SemiJoinSlot),
}

/// One monitored expression on a scan.
///
/// Page counting is delegated to a [`GroupedPageCounter`] (the scan-plan
/// grouped-access property of Section III-B): one flag per current page,
/// flushed at page boundaries. Keeping the counter as a real sketch —
/// rather than a bare `u64` — is what lets intra-query morsel workers
/// each count their disjoint page range and merge exactly via
/// [`GroupedPageCounter::merge`].
#[derive(Debug)]
pub struct ScanExprMonitor {
    /// Canonical expression text for the report.
    pub label: String,
    /// Optimizer estimate to print alongside (if known).
    pub estimated: Option<f64>,
    kind: ScanExprKind,
    satisfied_this_page: bool,
    counter: GroupedPageCounter,
    shed: bool,
}

impl ScanExprMonitor {
    /// Monitors the sub-conjunction of the scan predicate at `indices`
    /// (sorted, deduped). Prefix sub-conjunctions are counted exactly on
    /// every page; others only on sampled pages.
    pub fn atoms(predicate: &Conjunction, mut indices: Vec<usize>, estimated: Option<f64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        let prefix_len = if indices.iter().copied().eq(0..indices.len()) {
            Some(indices.len())
        } else {
            None
        };
        ScanExprMonitor {
            label: predicate.key_of(&indices),
            estimated,
            kind: ScanExprKind::Atoms {
                indices,
                prefix_len,
            },
            satisfied_this_page: false,
            counter: GroupedPageCounter::new(),
            shed: false,
        }
    }

    /// Monitors the derived semi-join predicate through `slot`.
    pub fn semi_join(label: impl Into<String>, slot: SemiJoinSlot, estimated: Option<f64>) -> Self {
        ScanExprMonitor {
            label: label.into(),
            estimated,
            kind: ScanExprKind::SemiJoin(slot),
            satisfied_this_page: false,
            counter: GroupedPageCounter::new(),
            shed: false,
        }
    }

    /// Whether this expression can be decided from short-circuit results
    /// alone (i.e. needs no full evaluation).
    fn is_prefix(&self) -> bool {
        matches!(
            self.kind,
            ScanExprKind::Atoms {
                prefix_len: Some(_),
                ..
            }
        )
    }

    fn needs_full_eval(&self) -> bool {
        matches!(
            self.kind,
            ScanExprKind::Atoms {
                prefix_len: None,
                ..
            }
        )
    }
}

/// How a scan communicates per-conjunct truth for one row, without
/// forcing the hot path to materialize an `Option<bool>` buffer.
#[derive(Clone, Copy)]
enum AtomResults<'a> {
    /// Explicit per-conjunct results (legacy shape; tests use it).
    Explicit(&'a [Option<bool>]),
    /// Every conjunct evaluated (short-circuiting off).
    Full(&'a [bool]),
    /// Short-circuited: `0..evaluated-1` true, `evaluated-1` is `pass`,
    /// the rest unknown.
    Prefix { evaluated: usize, pass: bool },
}

impl AtomResults<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        match *self {
            AtomResults::Explicit(r) => r[i],
            AtomResults::Full(r) => Some(r[i]),
            AtomResults::Prefix { evaluated, pass } => match (i + 1).cmp(&evaluated) {
                Ordering::Less => Some(true),
                Ordering::Equal => Some(pass),
                Ordering::Greater => None,
            },
        }
    }
}

/// Shedding priority of a monitor under a memory budget, cheapest to
/// lose first.
///
/// Ordering is the *shed* order: `PageSampled` monitors go first (their
/// estimates are already approximate and they force short-circuiting
/// off), then semi-join bit-vector tests (per-row hashing), then fetch
/// linear counters, and exact prefix counters last (they are nearly
/// free and exact — shedding them loses the most information per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedClass {
    /// Non-prefix atom expressions counted via page sampling.
    PageSampled = 0,
    /// Derived semi-join predicate tests (Fig 5).
    SemiJoin = 1,
    /// Linear-counting fetch monitors (Fig 3).
    LinearCounting = 2,
    /// Exact prefix counters on scans (Section III-B).
    Exact = 3,
}

/// The set of DPC monitors attached to one scan operator.
///
/// Drives all monitored expressions from a single per-page sampling
/// decision ([`page_sampled`], keyed by `(seed, page_id)`), so monitoring
/// cost is paid once per sampled page regardless of how many expressions
/// are watched — and so any page sub-range makes exactly the decisions
/// the whole-table scan would.
#[derive(Debug)]
pub struct ScanMonitorSet {
    exprs: Vec<ScanExprMonitor>,
    fraction: f64,
    seed: u64,
    page_sampled: bool,
    in_page: bool,
    pages_seen: u64,
    pages_sampled: u64,
    rows_seen: u64,
    rows_this_page: u64,
    hash_ops: u64,
    skipped_pages: u64,
}

impl ScanMonitorSet {
    /// Builds a monitor set sampling pages at `fraction` (1.0 = every
    /// page; exact counts for all expressions).
    pub fn new(exprs: Vec<ScanExprMonitor>, fraction: f64, seed: u64) -> Self {
        ScanMonitorSet {
            exprs,
            fraction: fraction.clamp(f64::MIN_POSITIVE, 1.0),
            seed,
            page_sampled: false,
            in_page: false,
            pages_seen: 0,
            pages_sampled: 0,
            rows_seen: 0,
            rows_this_page: 0,
            hash_ops: 0,
            skipped_pages: 0,
        }
    }

    /// Whether any monitored expression requires short-circuiting off on
    /// sampled pages. Shed expressions no longer observe, so they stop
    /// forcing full evaluation.
    pub fn needs_full_eval(&self) -> bool {
        self.exprs.iter().any(|e| !e.shed && e.needs_full_eval())
    }

    /// Memory cost and shed class of each monitored expression, in expr
    /// order. `semi_join_bytes` is the size of the bit-vector filter a
    /// semi-join expression will test (the planner knows the configured
    /// filter size; the filter itself installs only after the build
    /// phase).
    pub fn expr_costs(&self, semi_join_bytes: usize) -> Vec<(usize, ShedClass)> {
        self.exprs
            .iter()
            .map(|e| {
                let base = std::mem::size_of::<ScanExprMonitor>();
                match &e.kind {
                    ScanExprKind::Atoms { indices, .. } => {
                        let bytes = base + indices.len() * std::mem::size_of::<usize>();
                        let class = if e.is_prefix() {
                            ShedClass::Exact
                        } else {
                            ShedClass::PageSampled
                        };
                        (bytes, class)
                    }
                    ScanExprKind::SemiJoin(_) => (base + semi_join_bytes, ShedClass::SemiJoin),
                }
            })
            .collect()
    }

    /// Sheds the expression at `idx`: it stops observing and its harvest
    /// is marked `budget_shed`. Idempotent.
    pub fn shed_expr(&mut self, idx: usize) {
        if let Some(e) = self.exprs.get_mut(idx) {
            e.shed = true;
            e.satisfied_this_page = false;
        }
    }

    /// Number of expressions currently shed.
    pub fn shed_count(&self) -> usize {
        self.exprs.iter().filter(|e| e.shed).count()
    }

    /// Bytes held by expressions that are still observing (shed
    /// expressions free their observation state) — the reservation
    /// system's reconciliation hook: what a query *actually* held, as
    /// opposed to the [`ScanMonitorSet::expr_costs`] admission estimate.
    pub fn resident_bytes(&self, semi_join_bytes: usize) -> usize {
        self.exprs
            .iter()
            .zip(self.expr_costs(semi_join_bytes))
            .filter(|(e, _)| !e.shed)
            .map(|(_, (bytes, _))| bytes)
            .sum()
    }

    /// Starts a new page; returns whether this page is sampled (the scan
    /// must then evaluate all conjuncts per row if
    /// [`ScanMonitorSet::needs_full_eval`]). `page` is the page's
    /// physical id within its table: the sampling decision is the pure
    /// function [`page_sampled`] of `(seed, page)`, so a morsel worker
    /// announcing the same page makes the same decision as a serial scan.
    pub fn start_page(&mut self, page: u32) -> bool {
        self.flush_page();
        self.in_page = true;
        self.pages_seen += 1;
        self.page_sampled = page_sampled(self.seed, page, self.fraction);
        if self.page_sampled {
            self.pages_sampled += 1;
        }
        self.page_sampled
    }

    /// Observes one row of the current page.
    ///
    /// `atom_results[i]` is `Some(truth)` for every conjunct the scan
    /// evaluated on this row (all of them on fully-evaluated pages;
    /// a short-circuited prefix otherwise); `row` is used for semi-join
    /// key hashing. Returns immediately on pages where nothing needs
    /// observing.
    pub fn observe_row<R: DatumAccess + ?Sized>(&mut self, atom_results: &[Option<bool>], row: &R) {
        self.observe_impl(AtomResults::Explicit(atom_results), row);
    }

    /// Observes a row whose conjuncts were *all* evaluated
    /// (short-circuiting off): `results[i]` is conjunct `i`'s truth.
    /// Equivalent to [`ScanMonitorSet::observe_row`] with every entry
    /// `Some`, without building an `Option` buffer.
    pub fn observe_full_row<R: DatumAccess + ?Sized>(&mut self, results: &[bool], row: &R) {
        self.observe_impl(AtomResults::Full(results), row);
    }

    /// Observes a short-circuited row: conjuncts `0..evaluated-1` passed,
    /// conjunct `evaluated-1` evaluated to `pass`, the rest are unknown —
    /// exactly the `(passed, evaluated)` pair
    /// [`Conjunction::eval_short_circuit`] returns. Equivalent to
    /// [`ScanMonitorSet::observe_row`] with the corresponding
    /// `Some(true)…Some(pass), None…` buffer, without building it.
    pub fn observe_prefix_row<R: DatumAccess + ?Sized>(
        &mut self,
        evaluated: usize,
        pass: bool,
        row: &R,
    ) {
        self.observe_impl(AtomResults::Prefix { evaluated, pass }, row);
    }

    /// Observes the current page in one call — the batched equivalent of
    /// one `observe_*_row` per row, fed from the scan's predicate-kernel
    /// bitmaps instead of per-row truth buffers.
    ///
    /// `stripes` holds one bitmap per conjunct: atom `i`'s per-slot truth
    /// occupies `stripes[i*words..(i+1)*words]`, bit `s` of the stripe
    /// covering slot `s`. On pages evaluated with short-circuiting, a
    /// stripe need only be correct for slots on which every earlier
    /// conjunct held (the short-circuit prefix); that is exactly the set
    /// of rows on which the serial path could observe atom `i`, so prefix
    /// expressions see identical truth. Non-prefix expressions are only
    /// consulted on sampled pages, where the scan evaluates every atom on
    /// every slot (`needs_full_eval`), making all stripes exact.
    ///
    /// Semi-join expressions need per-row key hashes, which a bitmap
    /// cannot carry — callers follow up with
    /// [`ScanMonitorSet::observe_semi_join_row`] while
    /// [`ScanMonitorSet::wants_semi_join_rows`] holds.
    pub fn observe_page_atoms(&mut self, stripes: &[u64], words: usize, n_rows: u64) {
        self.rows_seen += n_rows;
        self.rows_this_page += n_rows;
        if n_rows == 0 {
            return;
        }
        let sampled = self.page_sampled;
        for e in &mut self.exprs {
            if e.satisfied_this_page || e.shed {
                continue;
            }
            let ScanExprKind::Atoms {
                indices,
                prefix_len,
            } = &e.kind
            else {
                continue;
            };
            if prefix_len.is_none() && !sampled {
                continue;
            }
            // The expression is satisfied iff some slot passes all of its
            // atoms: AND the indexed stripes word by word and look for a
            // surviving bit. An empty index list is vacuously true on any
            // non-empty page, as in the per-row path.
            let satisfied = match indices.split_first() {
                None => true,
                Some((&first, rest)) => (0..words).any(|w| {
                    let mut acc = stripes[first * words + w];
                    for &i in rest {
                        if acc == 0 {
                            break;
                        }
                        acc &= stripes[i * words + w];
                    }
                    acc != 0
                }),
            };
            if satisfied {
                e.satisfied_this_page = true;
            }
        }
    }

    /// Whether the current page still needs per-row key observations for
    /// semi-join expressions (only sampled pages do, and only until every
    /// live semi-join expression has been satisfied).
    pub fn wants_semi_join_rows(&self) -> bool {
        self.page_sampled
            && self.exprs.iter().any(|e| {
                !e.shed && !e.satisfied_this_page && matches!(e.kind, ScanExprKind::SemiJoin(_))
            })
    }

    /// Observes one row's join key against the still-unsatisfied
    /// semi-join expressions of the current (sampled) page; the batched
    /// complement of the semi-join arm of `observe_impl`. Returns whether
    /// any semi-join expression is still unsatisfied — `false` lets the
    /// caller stop iterating the page's rows early, which is safe because
    /// the per-row path also stops charging hash ops for an expression
    /// once it is satisfied.
    pub fn observe_semi_join_row<R: DatumAccess + ?Sized>(&mut self, row: &R) -> bool {
        if !self.page_sampled {
            return false;
        }
        let mut unsatisfied = false;
        for e in &mut self.exprs {
            if e.satisfied_this_page || e.shed {
                continue;
            }
            let ScanExprKind::SemiJoin(slot) = &e.kind else {
                continue;
            };
            let cell = slot.borrow();
            self.hash_ops += 1;
            let hit = match &cell.filter {
                Some(f) => f.may_contain_ref(row.datum_ref(cell.key_column)),
                None => true,
            };
            if hit {
                e.satisfied_this_page = true;
            } else {
                unsatisfied = true;
            }
        }
        unsatisfied
    }

    /// Batched semi-join observation of one page: walks the page's row
    /// views only while a sampled semi-join expression is still
    /// unsatisfied — the bulk complement of calling
    /// [`ScanMonitorSet::observe_semi_join_row`] per row, with the same
    /// early stop and identical hash-op accounting.
    pub fn observe_semi_join_page<'a, R, I>(&mut self, rows: I) -> pf_common::Result<()>
    where
        R: DatumAccess + 'a,
        I: IntoIterator<Item = pf_common::Result<R>>,
    {
        if !self.wants_semi_join_rows() {
            return Ok(());
        }
        for view in rows {
            if !self.observe_semi_join_row(&view?) {
                break;
            }
        }
        Ok(())
    }

    fn observe_impl<R: DatumAccess + ?Sized>(&mut self, atom_results: AtomResults<'_>, row: &R) {
        let sampled = self.page_sampled;
        self.rows_seen += 1;
        self.rows_this_page += 1;
        for e in &mut self.exprs {
            if e.satisfied_this_page || e.shed {
                continue;
            }
            match &e.kind {
                ScanExprKind::Atoms {
                    indices,
                    prefix_len,
                } => {
                    // Exact (prefix) expressions observe every page;
                    // sampled expressions only sampled pages.
                    if prefix_len.is_none() && !sampled {
                        continue;
                    }
                    let satisfied = indices.iter().all(|&i| atom_results.get(i) == Some(true));
                    // On short-circuited rows a prefix expression may be
                    // undecidable only if an earlier atom was false — in
                    // which case it is correctly "not satisfied".
                    if satisfied {
                        e.satisfied_this_page = true;
                    }
                }
                ScanExprKind::SemiJoin(slot) => {
                    if !sampled {
                        continue;
                    }
                    let cell = slot.borrow();
                    self.hash_ops += 1;
                    let hit = match &cell.filter {
                        Some(f) => f.may_contain_ref(row.datum_ref(cell.key_column)),
                        // Filter not yet installed: conservatively true
                        // (cannot under-count; should not occur in a
                        // well-formed plan).
                        None => true,
                    };
                    if hit {
                        e.satisfied_this_page = true;
                    }
                }
            }
        }
    }

    /// Ends the scan (idempotent); call before harvesting.
    pub fn finish(&mut self) {
        self.flush_page();
        self.in_page = false;
        for e in &mut self.exprs {
            e.counter.finish();
        }
    }

    /// Hash operations performed by semi-join monitoring since the last
    /// call (for CPU accounting); resets the counter.
    pub fn take_hash_ops(&mut self) -> u64 {
        std::mem::take(&mut self.hash_ops)
    }

    /// Pages announced so far.
    pub fn pages_seen(&self) -> u64 {
        self.pages_seen
    }

    /// Pages sampled so far.
    pub fn pages_sampled(&self) -> u64 {
        self.pages_sampled
    }

    /// Records a page the scan skipped because its checksum failed. The
    /// scan must still announce the page via
    /// [`ScanMonitorSet::start_page`] first, so page/sample accounting
    /// matches a fault-free run; the page contributes no rows, so counts
    /// are unperturbed — but every harvested measurement is marked
    /// degraded (the actuals are now lower bounds).
    pub fn note_skipped_page(&mut self) {
        self.skipped_pages += 1;
        // A skipped page cannot satisfy anything: drop any sampled flag
        // so flush_page treats it as empty.
        self.page_sampled = false;
    }

    /// Pages skipped under this monitor set's watch.
    pub fn skipped_pages(&self) -> u64 {
        self.skipped_pages
    }

    /// Whether any page was skipped (estimates are lower bounds).
    pub fn is_degraded(&self) -> bool {
        self.skipped_pages > 0
    }

    /// Harvests measurements into a report, keyed by `table` name.
    pub fn harvest(&mut self, table: &str, report: &mut FeedbackReport) {
        self.finish();
        for e in &self.exprs {
            let count = e.counter.count();
            let (actual, mechanism) = if e.is_prefix() {
                (count as f64, Mechanism::ExactScan)
            } else {
                let scaled = count as f64 / self.fraction;
                match &e.kind {
                    ScanExprKind::SemiJoin(slot) => {
                        // Correct for hash collisions: a page with no
                        // true match still tests ≈ rows-per-page absent
                        // keys, each a false positive with probability
                        // `fill`. Solving
                        //   E[measured] = truth + (P − truth)·fpp
                        // for truth removes the page-level amplification
                        // of the filter's false-positive rate (the
                        // paper's "small overestimation" regime is
                        // recovered even with compact filters).
                        let cell = slot.borrow();
                        let (bits, fill) = cell
                            .filter
                            .as_ref()
                            .map_or((0, 0.0), |f| (f.numbits(), f.fill_ratio()));
                        let pages = self.pages_seen as f64;
                        let rpp = if self.pages_seen > 0 {
                            self.rows_seen as f64 / pages
                        } else {
                            0.0
                        };
                        let fpp = 1.0 - (1.0 - fill).powf(rpp);
                        // Floor at one page when any hit was observed —
                        // a join that returned rows touched ≥ 1 page.
                        let floor = if count > 0 { 1.0 } else { 0.0 };
                        let corrected = if fpp < 1.0 {
                            ((scaled - pages * fpp) / (1.0 - fpp)).clamp(floor, scaled)
                        } else {
                            scaled
                        };
                        (corrected, Mechanism::BitVector(bits))
                    }
                    ScanExprKind::Atoms { .. } => {
                        if self.fraction >= 1.0 {
                            (scaled, Mechanism::ExactScan)
                        } else {
                            (scaled, Mechanism::PageSampling(self.fraction))
                        }
                    }
                }
            };
            report.push(DpcMeasurement {
                table: table.to_string(),
                expression: e.label.clone(),
                estimated: e.estimated,
                actual,
                mechanism,
                degraded: self.skipped_pages > 0,
                skipped_pages: self.skipped_pages,
                budget_shed: e.shed,
            });
        }
    }

    fn flush_page(&mut self) {
        if self.in_page {
            // One grouped observation per page: `pages_seen` doubles as
            // the (strictly increasing) page ordinal, so the counter's
            // page-transition logic fires exactly once per scanned page.
            let page = self.pages_seen as u32;
            let rows = self.rows_this_page;
            for e in &mut self.exprs {
                e.counter
                    .observe_page(page, u64::from(e.satisfied_this_page), rows);
                e.satisfied_this_page = false;
            }
            self.rows_this_page = 0;
        }
        self.page_sampled = false;
    }

    /// Finishes the set and moves its morsel-mergeable state out: the
    /// per-expression counters, the set-level page/row counters, and the
    /// semi-join filter its slot holds (a probe morsel's copy of the
    /// merged build-side filter). The set itself holds `Rc` handles and
    /// cannot leave its worker; the partial is plain `Send` data.
    pub fn take_partial(&mut self) -> ScanMonitorPartial {
        self.finish();
        let filter = self.exprs.iter().find_map(|e| match &e.kind {
            ScanExprKind::SemiJoin(slot) => slot.borrow_mut().filter.take(),
            ScanExprKind::Atoms { .. } => None,
        });
        ScanMonitorPartial {
            counters: self
                .exprs
                .iter_mut()
                .map(|e| std::mem::take(&mut e.counter))
                .collect(),
            pages_seen: self.pages_seen,
            pages_sampled: self.pages_sampled,
            rows_seen: self.rows_seen,
            skipped_pages: self.skipped_pages,
            filter,
        }
    }

    /// Folds one morsel's finished partial into this set via
    /// [`GroupedPageCounter::merge`]. Exact when morsels scanned disjoint
    /// page ranges of the same lowering (page sampling is a pure
    /// function of `(seed, page)` and budget shedding is decided at
    /// lowering); call in morsel order so set-level counters accumulate
    /// deterministically. A partial carrying a semi-join filter installs
    /// it into an empty slot, as the join operator does on the serial
    /// path; a partial whose morsel never fed this set merges as a
    /// no-op.
    pub fn absorb_partial(&mut self, partial: ScanMonitorPartial) {
        assert_eq!(
            self.exprs.len(),
            partial.counters.len(),
            "partial was extracted from a differently-shaped monitor set"
        );
        for (e, c) in self.exprs.iter_mut().zip(&partial.counters) {
            e.counter.merge(c);
        }
        self.pages_seen += partial.pages_seen;
        self.pages_sampled += partial.pages_sampled;
        self.rows_seen += partial.rows_seen;
        self.skipped_pages += partial.skipped_pages;
        if let Some(filter) = partial.filter {
            for e in &self.exprs {
                if let ScanExprKind::SemiJoin(slot) = &e.kind {
                    slot.borrow_mut().filter.get_or_insert(filter);
                    return;
                }
            }
        }
    }
}

/// A morsel worker's finished scan-monitor state, reduced to plain
/// mergeable data (`Send`): one [`GroupedPageCounter`] per monitored
/// expression, the set-level page/row counters, and the semi-join
/// filter the set tested against.
#[derive(Debug, Clone)]
pub struct ScanMonitorPartial {
    counters: Vec<GroupedPageCounter>,
    pages_seen: u64,
    pages_sampled: u64,
    rows_seen: u64,
    skipped_pages: u64,
    filter: Option<BitVectorFilter>,
}

// Partials are what crosses worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScanMonitorPartial>();
};

/// When a [`FetchMonitor`] observes a fetched row's page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchObserveWhen {
    /// Every fetched row (the DPC of the seek/join predicate itself).
    AllFetched,
    /// Only rows that also passed the residual predicate (the DPC of the
    /// full expression).
    PassedResidual,
}

/// A linear-counting DPC monitor on a Fetch (or INL-join inner fetch).
#[derive(Debug)]
pub struct FetchMonitor {
    /// Canonical expression text for the report.
    pub label: String,
    /// Optimizer estimate (if known).
    pub estimated: Option<f64>,
    /// When to observe.
    pub when: FetchObserveWhen,
    /// The probabilistic counter.
    pub counter: LinearCounter,
    /// `true` when the memory budget shed this monitor at lowering: it
    /// never observes and its harvest is marked `budget_shed`.
    pub shed: bool,
}

impl FetchMonitor {
    /// A monitor sized for `table_pages` pages.
    pub fn new(
        label: impl Into<String>,
        when: FetchObserveWhen,
        table_pages: u32,
        estimated: Option<f64>,
        seed: u64,
    ) -> Self {
        FetchMonitor {
            label: label.into(),
            estimated,
            when,
            counter: LinearCounter::for_table(table_pages, seed),
            shed: false,
        }
    }

    /// Memory this monitor holds — dominated by the linear counter's
    /// bitmap (one bit per table page).
    pub fn approx_bytes(&self) -> usize {
        self.counter.approx_bytes() + self.label.capacity()
    }

    /// Records a page whose rows could not be fetched (checksum failure):
    /// the linear counter never saw their PIDs, so its estimate is a
    /// lower bound and the harvested measurement is marked degraded.
    pub fn note_skipped_page(&mut self) {
        self.counter.note_skipped_page();
    }

    /// Harvests the measurement into a report.
    pub fn harvest(&self, table: &str, report: &mut FeedbackReport) {
        report.push(DpcMeasurement {
            table: table.to_string(),
            expression: self.label.clone(),
            estimated: self.estimated,
            actual: self.counter.estimate(),
            mechanism: Mechanism::LinearCounting,
            degraded: self.counter.is_degraded(),
            skipped_pages: self.counter.skipped_pages(),
            budget_shed: self.shed,
        });
    }
}

/// Shared handle to a scan monitor set.
pub type ScanMonitorHandle = Rc<RefCell<ScanMonitorSet>>;
/// Shared handle to a fetch monitor list.
pub type FetchMonitorHandle = Rc<RefCell<Vec<FetchMonitor>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AtomicPredicate, CompareOp};
    use pf_common::{Column, DataType, Datum, Row, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ])
    }

    fn conj(s: &Schema) -> Conjunction {
        Conjunction::new(vec![
            AtomicPredicate::new(s, "a", CompareOp::Lt, Datum::Int(10)).unwrap(),
            AtomicPredicate::new(s, "b", CompareOp::Lt, Datum::Int(10)).unwrap(),
        ])
    }

    #[test]
    fn prefix_detection() {
        let s = schema();
        let c = conj(&s);
        assert!(ScanExprMonitor::atoms(&c, vec![0], None).is_prefix());
        assert!(ScanExprMonitor::atoms(&c, vec![0, 1], None).is_prefix());
        assert!(!ScanExprMonitor::atoms(&c, vec![1], None).is_prefix());
        let sj = ScanExprMonitor::semi_join("j", semi_join_slot(0), None);
        assert!(!sj.is_prefix());
        assert!(
            !sj.needs_full_eval(),
            "semi-join needs hashes, not atom eval"
        );
    }

    #[test]
    fn exact_prefix_counts_every_page() {
        let s = schema();
        let c = conj(&s);
        let mut set = ScanMonitorSet::new(
            vec![ScanExprMonitor::atoms(&c, vec![0], None)],
            0.000_1, // sampling never fires, but prefixes are exact anyway
            1,
        );
        // 3 pages: match, no-match, match.
        for page in 0..3u32 {
            set.start_page(page);
            let hit = page != 1;
            set.observe_row(
                &[Some(hit), None],
                &Row::new(vec![Datum::Int(0), Datum::Int(0)]),
            );
        }
        let mut rep = FeedbackReport::new();
        set.harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, 2.0);
        assert_eq!(rep.measurements[0].mechanism, Mechanism::ExactScan);
    }

    #[test]
    fn non_prefix_scaled_by_fraction() {
        let s = schema();
        let c = conj(&s);
        let mut set = ScanMonitorSet::new(vec![ScanExprMonitor::atoms(&c, vec![1], None)], 1.0, 1);
        assert!(set.needs_full_eval());
        for page in 0..4u32 {
            let sampled = set.start_page(page);
            assert!(sampled, "f=1 samples everything");
            set.observe_row(
                &[Some(true), Some(page % 2 == 0)],
                &Row::new(vec![Datum::Int(0), Datum::Int(0)]),
            );
        }
        let mut rep = FeedbackReport::new();
        set.harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, 2.0);
    }

    #[test]
    fn semi_join_counts_filter_hits() {
        let slot = semi_join_slot(0);
        {
            let mut f = BitVectorFilter::new(256, 7);
            f.insert(&Datum::Int(5));
            slot.borrow_mut().filter = Some(f);
        }
        let mut set = ScanMonitorSet::new(
            vec![ScanExprMonitor::semi_join(
                "r1.k=r2.k",
                Rc::clone(&slot),
                None,
            )],
            1.0,
            2,
        );
        // Page 0: key 5 present (hit). Page 1: only key 6 (likely miss).
        set.start_page(0);
        set.observe_row(&[], &Row::new(vec![Datum::Int(5), Datum::Int(0)]));
        set.start_page(1);
        set.observe_row(&[], &Row::new(vec![Datum::Int(6), Datum::Int(0)]));
        let mut rep = FeedbackReport::new();
        set.harvest("r2", &mut rep);
        let actual = rep.measurements[0].actual;
        // One true-hit page; the collision correction shaves the
        // expected false-positive mass (tiny here), so allow ~1.
        assert!((0.9..=2.0).contains(&actual), "actual {actual}");
        assert!(set.take_hash_ops() >= 2);
        assert!(matches!(
            rep.measurements[0].mechanism,
            Mechanism::BitVector(_)
        ));
    }

    #[test]
    fn observation_shapes_are_equivalent() {
        let s = schema();
        let c = conj(&s);
        let row = Row::new(vec![Datum::Int(0), Datum::Int(0)]);
        let mk = || {
            ScanMonitorSet::new(
                vec![
                    ScanExprMonitor::atoms(&c, vec![0], None),
                    ScanExprMonitor::atoms(&c, vec![0, 1], None),
                    ScanExprMonitor::atoms(&c, vec![1], None),
                ],
                1.0,
                1,
            )
        };
        let harvest = |set: &mut ScanMonitorSet| {
            let mut rep = FeedbackReport::new();
            set.harvest("t", &mut rep);
            rep.measurements
                .iter()
                .map(|m| m.actual)
                .collect::<Vec<_>>()
        };
        // Full-eval shape: (true, false) per row on every page.
        let (mut a, mut b) = (mk(), mk());
        for p in 0..3u32 {
            a.start_page(p);
            a.observe_row(&[Some(true), Some(false)], &row);
            b.start_page(p);
            b.observe_full_row(&[true, false], &row);
        }
        assert_eq!(harvest(&mut a), harvest(&mut b));
        // Short-circuit shape: conjunct 0 passed, conjunct 1 failed.
        let (mut a, mut b) = (mk(), mk());
        for p in 0..3u32 {
            a.start_page(p);
            a.observe_row(&[Some(true), Some(false)], &row);
            b.start_page(p);
            b.observe_prefix_row(2, false, &row);
        }
        assert_eq!(harvest(&mut a), harvest(&mut b));
        // Short-circuit failing at conjunct 0: rest unknown.
        let (mut a, mut b) = (mk(), mk());
        a.start_page(0);
        a.observe_row(&[Some(false), None], &row);
        b.start_page(0);
        b.observe_prefix_row(1, false, &row);
        assert_eq!(harvest(&mut a), harvest(&mut b));
    }

    #[test]
    fn skipped_pages_mark_harvest_degraded() {
        let s = schema();
        let c = conj(&s);
        let mut set = ScanMonitorSet::new(vec![ScanExprMonitor::atoms(&c, vec![0], None)], 1.0, 1);
        let row = Row::new(vec![Datum::Int(0), Datum::Int(0)]);
        set.start_page(0);
        set.observe_row(&[Some(true), None], &row);
        // Next page turns out corrupt: announced, then skipped.
        set.start_page(1);
        set.note_skipped_page();
        set.start_page(2);
        set.observe_row(&[Some(true), None], &row);
        let mut rep = FeedbackReport::new();
        set.harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, 2.0, "skip does not count");
        assert!(rep.measurements[0].degraded);
        assert_eq!(rep.measurements[0].skipped_pages, 1);
        assert!(rep.is_degraded());
    }

    #[test]
    fn fetch_monitor_degrades_on_skips() {
        let mut m = FetchMonitor::new("a<10", FetchObserveWhen::AllFetched, 100, None, 3);
        m.counter.observe(1);
        m.note_skipped_page();
        let mut rep = FeedbackReport::new();
        m.harvest("t", &mut rep);
        assert!(rep.measurements[0].degraded);
        assert_eq!(rep.measurements[0].skipped_pages, 1);
    }

    #[test]
    fn fetch_monitor_harvests_linear_estimate() {
        let mut m = FetchMonitor::new("a<10", FetchObserveWhen::AllFetched, 1000, Some(5.0), 3);
        for p in 0..100u32 {
            m.counter.observe(p);
            m.counter.observe(p);
        }
        let mut rep = FeedbackReport::new();
        m.harvest("t", &mut rep);
        let a = rep.measurements[0].actual;
        assert!((90.0..110.0).contains(&a), "estimate {a}");
        assert_eq!(rep.measurements[0].estimated, Some(5.0));
    }

    #[test]
    fn shed_exprs_stop_counting_and_mark_harvest() {
        let s = schema();
        let c = conj(&s);
        let row = Row::new(vec![Datum::Int(0), Datum::Int(0)]);
        let mut set = ScanMonitorSet::new(
            vec![
                ScanExprMonitor::atoms(&c, vec![0], None),
                ScanExprMonitor::atoms(&c, vec![1], None),
            ],
            1.0,
            1,
        );
        assert!(set.needs_full_eval());
        set.start_page(0);
        set.observe_row(&[Some(true), Some(true)], &row);
        // Shed the non-prefix expression mid-run.
        set.shed_expr(1);
        assert_eq!(set.shed_count(), 1);
        assert!(!set.needs_full_eval(), "shed expr stops forcing full eval");
        set.start_page(1);
        set.observe_row(&[Some(true), Some(true)], &row);
        let mut rep = FeedbackReport::new();
        set.harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, 2.0);
        assert!(!rep.measurements[0].budget_shed);
        // The shed expr counted only the pre-shed page... but its page-1
        // satisfaction was cleared at shed time, so it kept nothing.
        assert!(rep.measurements[1].budget_shed);
        assert!(rep.is_budget_shed());
        assert!(rep.measurements[1].actual <= 1.0);
    }

    #[test]
    fn expr_costs_classify_monitors() {
        let s = schema();
        let c = conj(&s);
        let set = ScanMonitorSet::new(
            vec![
                ScanExprMonitor::atoms(&c, vec![0], None),
                ScanExprMonitor::atoms(&c, vec![1], None),
                ScanExprMonitor::semi_join("j", semi_join_slot(0), None),
            ],
            1.0,
            1,
        );
        let costs = set.expr_costs(4096 / 8);
        assert_eq!(costs[0].1, ShedClass::Exact);
        assert_eq!(costs[1].1, ShedClass::PageSampled);
        assert_eq!(costs[2].1, ShedClass::SemiJoin);
        assert!(
            costs[2].0 >= 4096 / 8 && costs[2].0 > costs[1].0,
            "semi-join carries the filter bytes"
        );
    }

    #[test]
    fn unsampled_pages_skip_sampled_exprs_but_not_prefixes() {
        let s = schema();
        let c = conj(&s);
        // Fraction so small no page gets sampled (seeded).
        let mut set = ScanMonitorSet::new(
            vec![
                ScanExprMonitor::atoms(&c, vec![0], None),
                ScanExprMonitor::atoms(&c, vec![1], None),
            ],
            1e-9,
            5,
        );
        for p in 0..50u32 {
            let sampled = set.start_page(p);
            let results = if sampled {
                [Some(true), Some(true)]
            } else {
                [Some(true), None]
            };
            set.observe_row(&results, &Row::new(vec![Datum::Int(0), Datum::Int(0)]));
        }
        let mut rep = FeedbackReport::new();
        set.harvest("t", &mut rep);
        assert_eq!(rep.measurements[0].actual, 50.0, "prefix exact");
        // Sampled expr saw no sampled pages: 0 count (scaled 0).
        assert_eq!(rep.measurements[1].actual, 0.0);
    }

    /// The sampling decision depends only on `(seed, page)` — never on
    /// how many pages were announced before it — so any page sub-range
    /// reproduces the serial decisions. Also sanity-checks the rate.
    #[test]
    fn page_sampling_is_order_free_and_roughly_calibrated() {
        let (seed, fraction) = (0xFEED, 0.25);
        let serial: Vec<bool> = (0..4_000)
            .map(|p| page_sampled(seed, p, fraction))
            .collect();
        // Reversed, interleaved, or chunked evaluation: same decisions.
        for p in (0..4_000u32).rev() {
            assert_eq!(page_sampled(seed, p, fraction), serial[p as usize]);
        }
        let hits = serial.iter().filter(|&&s| s).count();
        assert!((800..1200).contains(&hits), "got {hits} of 4000 at f=0.25");
        // Different seeds draw different page sets.
        let other: Vec<bool> = (0..4_000)
            .map(|p| page_sampled(seed ^ 1, p, fraction))
            .collect();
        assert_ne!(serial, other);
        // f ≥ 1 samples everything, unconditionally.
        assert!((0..100).all(|p| page_sampled(seed, p, 1.0)));
    }

    /// A set split across two page-range "morsels" (each announcing its
    /// own global page ids) merges to exactly the serial set — including
    /// with sampling on.
    #[test]
    fn sampled_partials_merge_to_serial() {
        let s = schema();
        let c = conj(&s);
        let row = Row::new(vec![Datum::Int(0), Datum::Int(0)]);
        let mk = || {
            ScanMonitorSet::new(
                vec![
                    ScanExprMonitor::atoms(&c, vec![0], None),
                    ScanExprMonitor::atoms(&c, vec![1], None),
                ],
                0.5,
                42,
            )
        };
        let feed = |set: &mut ScanMonitorSet, pages: std::ops::Range<u32>| {
            for p in pages {
                set.start_page(p);
                set.observe_row(&[Some(true), Some(p % 3 == 0)], &row);
            }
        };
        let mut serial = mk();
        feed(&mut serial, 0..40);
        let mut reference = mk();
        let (mut lo, mut hi) = (mk(), mk());
        feed(&mut lo, 0..23);
        feed(&mut hi, 23..40);
        reference.absorb_partial(lo.take_partial());
        reference.absorb_partial(hi.take_partial());
        let harvest = |set: &mut ScanMonitorSet| {
            let mut rep = FeedbackReport::new();
            set.harvest("t", &mut rep);
            rep
        };
        assert_eq!(serial.pages_sampled(), reference.pages_sampled());
        assert_eq!(harvest(&mut serial), harvest(&mut reference));
    }

    /// A probe morsel's partial hands the reference set the merged
    /// build-side filter its semi-join expression tested against (the
    /// harvest's collision correction reads it), and a partial from a
    /// morsel that never fed the set merges as a no-op.
    #[test]
    fn semi_join_partial_installs_filter_and_unfed_partial_is_no_op() {
        let row = |k| Row::new(vec![Datum::Int(k), Datum::Int(0)]);
        let mut filter = BitVectorFilter::new(256, 7);
        filter.insert(&Datum::Int(5));
        let mk = |with_filter: bool| {
            let slot = semi_join_slot(0);
            if with_filter {
                slot.borrow_mut().filter = Some(filter.clone());
            }
            ScanMonitorSet::new(vec![ScanExprMonitor::semi_join("j", slot, None)], 1.0, 2)
        };
        let feed = |set: &mut ScanMonitorSet, pages: std::ops::Range<u32>| {
            for p in pages {
                set.start_page(p);
                set.observe_row(&[], &row(i64::from(p % 2) + 5));
            }
        };
        let harvest = |set: &mut ScanMonitorSet| {
            let mut rep = FeedbackReport::new();
            set.harvest("t", &mut rep);
            rep
        };
        let mut serial = mk(true);
        feed(&mut serial, 0..6);
        let mut reference = mk(false);
        let unfed = mk(false).take_partial();
        let (mut lo, mut hi) = (mk(true), mk(true));
        feed(&mut lo, 0..4);
        feed(&mut hi, 4..6);
        reference.absorb_partial(unfed);
        reference.absorb_partial(lo.take_partial());
        reference.absorb_partial(hi.take_partial());
        assert_eq!(harvest(&mut serial), harvest(&mut reference));
    }

    /// Shed flags are decided at lowering, so a morsel's set and the
    /// reference set carry them alike: partials of shed expressions add
    /// nothing, and the merged harvest matches the serial one.
    #[test]
    fn shed_expressions_merge_like_serial() {
        let s = schema();
        let c = conj(&s);
        let row = Row::new(vec![Datum::Int(0), Datum::Int(0)]);
        let mk = || {
            let mut set = ScanMonitorSet::new(
                vec![
                    ScanExprMonitor::atoms(&c, vec![0], Some(7.0)),
                    ScanExprMonitor::atoms(&c, vec![1], None),
                ],
                0.5,
                99,
            );
            set.shed_expr(1);
            set
        };
        let feed = |set: &mut ScanMonitorSet, pages: std::ops::Range<u32>| {
            for p in pages {
                set.start_page(p);
                set.observe_row(&[Some(true), Some(true)], &row);
            }
        };
        let harvest = |set: &mut ScanMonitorSet| {
            let mut rep = FeedbackReport::new();
            set.harvest("t", &mut rep);
            rep
        };
        let mut serial = mk();
        feed(&mut serial, 0..20);
        let mut reference = mk();
        for pages in [0..9, 9..20] {
            let mut morsel = mk();
            feed(&mut morsel, pages);
            reference.absorb_partial(morsel.take_partial());
        }
        let merged = harvest(&mut reference);
        assert_eq!(harvest(&mut serial), merged);
        assert!(merged.measurements[1].budget_shed);
        assert_eq!(merged.measurements[1].actual, 0.0);
    }
}
