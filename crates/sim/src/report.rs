//! Post-run statistics, coverage, and machine-readable reporting.
//!
//! Every section of a [`Report`] — and the pairs of a [`CoverageSet`], the
//! rows of a [`TransitionCoverage`] — is one vector of entries kept sorted
//! by key ([`SortedMap`]). A run's report is built once and then folded into
//! an accumulator, so the two costs that matter are naming a key and
//! merging: a key is found by binary search and copied only when it is
//! new, and a merge is one merge-join per section that allocates nothing
//! when every incoming key is already held.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;

use crate::alphabet::{labels_distinct, Alphabet};
use crate::hist::Histogram;
use crate::json::JsonValue;

/// A state or event name in a coverage table, or the key of a report
/// entry: borrowed from a `'static` label table, or owned when it came
/// from anywhere else. Ordered and compared by its text either way.
#[derive(Debug, Clone)]
struct Label(Cow<'static, str>);

/// A label of unknown lifetime, copied at its exact length.
fn owned(label: &str) -> Label {
    Label(Cow::Owned(label.to_owned()))
}

impl From<&'static str> for Label {
    fn from(label: &'static str) -> Self {
        Label(Cow::Borrowed(label))
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        text_order(self, other)
    }
}

/// The byte order of two texts — `str::cmp` — compared eight bytes at a
/// time. Report keys share long prefixes (`tester_cpu0.`), and a binary
/// search over them spends its time here: this is about twice as fast as
/// a call to `memcmp` for keys of a few dozen bytes.
#[inline]
fn text_order(a: &str, b: &str) -> Ordering {
    let (mut a, mut b) = (a.as_bytes(), b.as_bytes());
    while let (Some((x, rest_a)), Some((y, rest_b))) =
        (a.split_first_chunk(), b.split_first_chunk())
    {
        let (x, y) = (u64::from_be_bytes(*x), u64::from_be_bytes(*y));
        if x != y {
            return x.cmp(&y);
        }
        (a, b) = (rest_a, rest_b);
    }
    a.iter().cmp(b)
}

/// A map held as one vector of entries sorted by key: lookups are a binary
/// search, and iteration is in key order, which for text keys is the byte
/// order `BTreeMap<String, _>` iterates in.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Clone, V> SortedMap<K, V> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.entries.iter()
    }

    /// Where the key `probe` orders against sits: `Ok` at a held entry,
    /// `Err` where a new one would go.
    fn search(&self, mut probe: impl FnMut(&K) -> Ordering) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| probe(k))
    }

    fn get_by(&self, probe: impl FnMut(&K) -> Ordering) -> Option<&V> {
        self.search(probe).ok().map(|i| &self.entries[i].1)
    }

    /// The value `probe` finds, inserted at `V::default()` under `key()`
    /// when absent.
    fn slot_by(&mut self, probe: impl FnMut(&K) -> Ordering, key: impl FnOnce() -> K) -> &mut V
    where
        V: Default,
    {
        let i = match self.search(probe) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key(), V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// A map of entries given in strictly increasing key order.
    fn from_sorted(entries: impl Iterator<Item = (K, V)>) -> Self {
        let map = SortedMap {
            entries: entries.collect(),
        };
        debug_assert!(map.entries.windows(2).all(|w| w[0].0 < w[1].0));
        map
    }

    /// Folds in `run`: moved in whole when this map is empty (a report
    /// names each controller once), merged otherwise.
    fn merge_run(&mut self, run: Self, combine: impl FnMut(&K, &mut V, &V))
    where
        V: Clone,
    {
        if self.is_empty() {
            *self = run;
        } else {
            self.merge(&run, all, combine);
        }
    }

    /// Folds `other` in with one merge-join: `combine` updates an entry
    /// both hold, and an entry only `other` holds is cloned in, unless
    /// `keep` drops it. Into an empty map this is a clone. When `self`
    /// already holds every key of `other` — an accumulator's steady state —
    /// the entries are updated in place and nothing is allocated;
    /// otherwise one vector is built with room for the new keys.
    fn merge(
        &mut self,
        other: &Self,
        keep: impl Fn(&V) -> bool,
        mut combine: impl FnMut(&K, &mut V, &V),
    ) where
        V: Clone,
    {
        let theirs = || other.entries.iter().filter(|(_, v)| keep(v));
        if self.entries.is_empty() {
            self.entries.reserve_exact(other.len());
            self.entries.extend(theirs().cloned());
            return;
        }
        let mut new = 0;
        let mut at = 0;
        for (key, value) in theirs() {
            loop {
                match self.entries.get_mut(at) {
                    Some((k, mine)) => match (*k).cmp(key) {
                        Ordering::Less => at += 1,
                        Ordering::Equal => {
                            combine(key, mine, value);
                            at += 1;
                            break;
                        }
                        Ordering::Greater => {
                            new += 1;
                            break;
                        }
                    },
                    None => {
                        new += 1;
                        break;
                    }
                }
            }
        }
        if new == 0 {
            return;
        }
        let len = self.entries.len() + new;
        let mine = std::mem::replace(&mut self.entries, Vec::with_capacity(len));
        let mut theirs = theirs().peekable();
        for entry in mine {
            while let Some((k, v)) = theirs.next_if(|(k, _)| *k < entry.0) {
                self.entries.push((k.clone(), v.clone()));
            }
            // Held by both: already combined above.
            theirs.next_if(|(k, _)| *k == entry.0);
            self.entries.push(entry);
        }
        self.entries.extend(theirs.cloned());
    }
}

/// A report section: entries keyed by text.
type Section<V> = SortedMap<Label, V>;

impl<V> Section<V> {
    fn get(&self, key: &str) -> Option<&V> {
        self.get_by(|k| text_order(k, key))
    }

    /// The value under `key`, inserted at `V::default()` (the key copied)
    /// when absent.
    fn slot(&mut self, key: &str) -> &mut V
    where
        V: Default,
    {
        self.slot_by(|k| text_order(k, key), || owned(key))
    }

    /// `(key, value)` pairs in key order.
    fn pairs(&self) -> impl Iterator<Item = (&str, &V)> + '_ {
        self.iter().map(|(k, v)| (&**k, v))
    }
}

/// Every entry of a section is merged (see [`SortedMap::merge`]).
fn all<V>(_: &V) -> bool {
    true
}

/// How a value folds into a counter of `scalars` or `profile`, on a write
/// and on a merge alike: a high-water mark — a key ending in `.hwm` — takes
/// the max (the deepest any run got), every other counter sums. Both rules
/// are commutative and associative, so shard merges stay
/// permutation-invariant, and writing two values into one report equals
/// merging two reports that each hold one.
fn combine(key: &str, n: &mut u64, v: u64) {
    if key.ends_with(".hwm") {
        *n = (*n).max(v);
    } else {
        *n += v;
    }
}

thread_local! {
    /// Where a key given as `impl Display` is written before it is looked
    /// up; reused by every call on the thread, so a key that is already
    /// held costs no allocation at all.
    static KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Calls `f` with the text of `key`, written into the reused key buffer.
fn with_key<R>(key: impl fmt::Display, f: impl FnOnce(&str) -> R) -> R {
    KEY.with_borrow_mut(|buf| {
        buf.clear();
        write!(buf, "{key}").expect("writing a key into a String cannot fail");
        f(buf)
    })
}

/// A set of `(state, event)` pairs visited by a protocol controller.
///
/// This is the coverage metric of the paper's §4.1 stress test: the random
/// tester counts the state/event pairs visited at each cache controller and
/// compares against the set believed possible.
///
/// This is the report, merge and JSON form. Controllers do not visit it
/// per message: they record by index into a [`CoverageGrid`] and name the
/// pairs once, when they report.
///
/// Pairs are held sorted by `(state, event)`, so
/// [`contains`](CoverageSet::contains) is one binary search rather than a
/// scan of every visited pair.
///
/// A label named from a `'static` table ([`CoverageGrid::name_into`]) is
/// held borrowed, and stays borrowed through [`merge`](CoverageSet::merge);
/// only a label from a `&str` of unknown lifetime is copied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSet {
    pairs: SortedMap<(Label, Label), ()>,
}

/// Orders a held `(state, event)` pair against one given by text.
fn pair_order(held: &(Label, Label), state: &str, event: &str) -> Ordering {
    text_order(&held.0, state).then_with(|| text_order(&held.1, event))
}

impl CoverageSet {
    /// Creates an empty coverage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `event` was observed while in `state`.
    pub fn visit(&mut self, state: &str, event: &str) {
        self.pairs.slot_by(
            |held| pair_order(held, state, event),
            || (owned(state), owned(event)),
        );
    }

    /// Number of distinct `(state, event)` pairs visited.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing has been visited.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether a particular pair was visited.
    pub fn contains(&self, state: &str, event: &str) -> bool {
        self.pairs
            .get_by(|held| pair_order(held, state, event))
            .is_some()
    }

    /// Iterates over visited pairs in deterministic `(state, event)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pairs.iter().map(|((s, e), ())| (&**s, &**e))
    }

    /// Merges another coverage set into this one. A label this set lacks is
    /// cloned from `other`, so a borrowed one stays borrowed.
    pub fn merge(&mut self, other: &CoverageSet) {
        self.pairs.merge(&other.pairs, all, |_, _, _| {});
    }
}

/// The message-path recorder behind a [`CoverageSet`]: one *bit* per
/// `(state, event)` cell of two [`Alphabet`]s, held inline in four machine
/// words. [`visit`](CoverageGrid::visit) is one or-into-word — no strings,
/// no heap, no tree walk — and the pairs are named from the labels once,
/// when a controller reports ([`Report::record_grid`]).
///
/// Bits, not counters: the paper's coverage figure (§4.1) is the number of
/// *distinct* pairs visited, per-row fire counts already live in
/// `xg_fsm::Machine` for the table-driven machines, and the `xg-check`
/// explorer clones every controller per stored state, so the recorder has
/// to stay a few inline words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageGrid<S, E> {
    bits: [u64; GRID_WORDS],
    _cells: PhantomData<fn(S, E)>,
}

const GRID_WORDS: usize = 4;

impl<S: Alphabet, E: Alphabet> CoverageGrid<S, E> {
    /// A pair of alphabets with more cells than the grid has bits fails to
    /// compile where its grid is created.
    const FITS: () = assert!(
        S::ALL.len() * E::ALL.len() <= GRID_WORDS * 64,
        "coverage grid too small for these alphabets"
    );

    /// Creates a recorder with no pair visited.
    pub fn new() -> Self {
        let () = Self::FITS;
        debug_assert!(
            labels_distinct::<S>() && labels_distinct::<E>(),
            "two cells of a coverage grid share a label"
        );
        CoverageGrid {
            bits: [0; GRID_WORDS],
            _cells: PhantomData,
        }
    }

    /// Records that `event` was observed while in `state`.
    #[inline]
    pub fn visit(&mut self, state: S, event: E) {
        let cell = state.index() * E::ALL.len() + event.index();
        self.bits[cell / 64] |= 1 << (cell % 64);
    }

    /// Visits every recorded pair, under its labels, in `set`. The cells
    /// are read in label order ([`Alphabet::BY_LABEL`]), so the pairs come
    /// out sorted: nothing is sorted or inserted one at a time.
    pub fn name_into(&self, set: &mut CoverageSet) {
        let visited = S::BY_LABEL.iter().flat_map(|&state| {
            E::BY_LABEL.iter().filter_map(move |&event| {
                let cell = state.index() * E::ALL.len() + event.index();
                let hit = self.bits[cell / 64] >> (cell % 64) & 1 == 1;
                hit.then(|| ((state.label().into(), event.label().into()), ()))
            })
        });
        set.pairs
            .merge_run(SortedMap::from_sorted(visited), |_, _, _| {});
    }

    /// The visited pairs under their labels, as reports carry them.
    pub fn to_set(&self) -> CoverageSet {
        let mut set = CoverageSet::new();
        self.name_into(&mut set);
        set
    }
}

impl<S: Alphabet, E: Alphabet> Default for CoverageGrid<S, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The row universe of one table-driven machine, by dense cell index — what
/// turns a machine's fired-counter array into a [`TransitionCoverage`].
/// Implemented by `xg_fsm::Table`; tables are `'static`, so consumers that
/// fold counters from many simulations (the `xg-check` explorer) can keep
/// the reference next to their dense accumulator.
pub trait FsmRows: Sync {
    /// The machine (table) name coverage is reported under.
    fn machine(&self) -> &'static str;

    /// The legal rows (transitions and stalls; violation cells are not
    /// rows), as `(state label, event label, index of the row's fired
    /// counter)`, in label order —
    /// the order a [`TransitionCoverage`] holds them in. Each `(state,
    /// event)` pair appears once.
    fn rows_by_label(&self) -> &[(&'static str, &'static str, usize)];
}

/// Per-machine transition coverage against a *declared* row universe.
///
/// Where [`CoverageSet`] records whatever `(state, event)` pairs a
/// controller happened to visit, `TransitionCoverage` starts from the full
/// set of rows a transition table declares legal (see `xg-fsm`) and counts
/// how often each fired. Declared-but-never-fired rows survive with a count
/// of zero, which is exactly what makes the stress/fuzz sweeps a coverage
/// instrument: `fired_rows() / total_rows()` is the fraction of the
/// implemented protocol the sweep actually exercised, and
/// [`never_fired`](TransitionCoverage::never_fired) names the holes.
///
/// Merging sums per-row counts and unions row universes, so shard merges
/// are commutative and associative like every other [`Report`] section.
/// Labels are held as [`CoverageSet`] holds them: borrowed when they come
/// from a `'static` row table ([`add_fired`](TransitionCoverage::add_fired))
/// and through merges, copied otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionCoverage {
    /// `(state, event)` → times fired (0 = declared, never fired), sorted.
    rows: SortedMap<(Label, Label), u64>,
}

impl TransitionCoverage {
    /// Creates an empty coverage table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a row of the machine's table without firing it.
    pub fn declare(&mut self, state: &str, event: &str) {
        self.fire(state, event, 0);
    }

    /// Records `count` firings of a row (declaring it if needed).
    pub fn fire(&mut self, state: &str, event: &str, count: u64) {
        *self.rows.slot_by(
            |held| pair_order(held, state, event),
            || (owned(state), owned(event)),
        ) += count;
    }

    /// Adds one machine instance's fired counters, indexed as
    /// [`FsmRows::rows_by_label`] says: every legal row is declared, fired
    /// ones counted. Violation
    /// cells are excluded — firing one is a protocol bug, not a coverage
    /// goal. The rows come in label order, so nothing is sorted.
    pub fn add_fired(&mut self, rows: &dyn FsmRows, fired: &[u64]) {
        let legal = rows
            .rows_by_label()
            .iter()
            .filter_map(|&(state, event, cell)| {
                let &n = fired.get(cell)?;
                Some(((state.into(), event.into()), n))
            });
        self.rows
            .merge_run(SortedMap::from_sorted(legal), |_, count, n| *count += n);
    }

    /// Number of declared rows.
    pub fn total_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of declared rows that fired at least once.
    pub fn fired_rows(&self) -> usize {
        self.rows.iter().filter(|&&(_, n)| n > 0).count()
    }

    /// Times a particular row fired (0 if never or undeclared).
    pub fn count(&self, state: &str, event: &str) -> u64 {
        self.rows
            .get_by(|held| pair_order(held, state, event))
            .copied()
            .unwrap_or(0)
    }

    /// Whether a row is declared.
    pub fn is_declared(&self, state: &str, event: &str) -> bool {
        self.rows
            .get_by(|held| pair_order(held, state, event))
            .is_some()
    }

    /// Iterates `(state, event, fired)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> + '_ {
        self.rows.iter().map(|((s, e), n)| (&**s, &**e, *n))
    }

    /// Iterates the declared rows that never fired.
    pub fn never_fired(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.iter()
            .filter(|&(_, _, n)| n == 0)
            .map(|(s, e, _)| (s, e))
    }

    /// Merges another coverage table (sums counts, unions universes). A
    /// label this table lacks is cloned from `other`, so a borrowed one
    /// stays borrowed.
    pub fn merge(&mut self, other: &TransitionCoverage) {
        self.rows.merge(&other.rows, all, |_, n, v| *n += v);
    }
}

/// Aggregated statistics from a simulation run.
///
/// Components contribute to a `Report` via [`crate::Component::report`]:
/// scalar counters (message counts, hits, errors, ...), per-controller
/// coverage sets, and log₂-bucketed latency [`Histogram`]s. Keys are
/// free-form text, conventionally `"<component>.<counter>"` (an
/// experiment's summary rows are `"fuzz.<config>.<key>"`), given as
/// anything that implements
/// [`Display`](fmt::Display) — a `&str`, or `format_args!("{name}.hits")`,
/// which is written into a reused buffer and copied into the report only
/// when the key is new.
///
/// A scalar or profile key is a counter or a high-water mark, never a
/// cycle stamp or an end-of-run gauge, and both are written and merged by
/// one rule: a key ending in `.hwm` is a high-water mark and takes the
/// max, every other counter sums. [`add`](Report::add) and
/// [`profile_add`](Report::profile_add) are the only writes, so writing
/// two values into one report equals merging two reports that hold one
/// each.
///
/// A report is written, as JSON with [`to_json`](Report::to_json) or as
/// text with `Display`, and never read back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    scalars: Section<u64>,
    coverage: Section<CoverageSet>,
    /// Keyed by machine name, borrowed from its row table when recorded
    /// by [`record_fired`](Report::record_fired).
    fsm: Section<TransitionCoverage>,
    hists: Section<Histogram>,
    /// Kernel-profiling metrics (`xg-prof`): dispatch counters, host-time
    /// attribution, queue high-water marks, and the epoch time series. Kept
    /// out of `scalars` so profiling-off reports keep their exact
    /// serialized form; merged by the same rule as `scalars`.
    profile: Section<u64>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` into the scalar counter `key` (creating it at zero) by
    /// the merge rule: a `.hwm` key keeps the max, any other key sums.
    pub fn add(&mut self, key: impl fmt::Display, value: u64) {
        with_key(key, |key| combine(key, self.scalars.slot(key), value));
    }

    /// Reads a scalar counter, returning 0 if absent.
    pub fn get(&self, key: &str) -> u64 {
        self.scalars.get(key).copied().unwrap_or(0)
    }

    /// Sums every scalar counter whose key ends with `suffix`.
    pub fn sum_suffix(&self, suffix: &str) -> u64 {
        self.scalars
            .pairs()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Iterates over `(key, value)` scalars in deterministic order.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.scalars.pairs().map(|(k, v)| (k, *v))
    }

    /// Records (merges) a coverage set under `controller`.
    pub fn record_coverage(&mut self, controller: impl fmt::Display, set: &CoverageSet) {
        with_key(controller, |c| self.coverage.slot(c).merge(set));
    }

    /// Records (merges) a controller's dense recorder under `controller`:
    /// [`record_coverage`](Report::record_coverage) without building the
    /// intermediate set.
    pub fn record_grid<S: Alphabet, E: Alphabet>(
        &mut self,
        controller: impl fmt::Display,
        grid: &CoverageGrid<S, E>,
    ) {
        with_key(controller, |c| grid.name_into(self.coverage.slot(c)));
    }

    /// Looks up the coverage set for a controller.
    pub fn coverage(&self, controller: &str) -> Option<&CoverageSet> {
        self.coverage.get(controller)
    }

    /// Iterates over all `(controller, coverage)` entries.
    pub fn coverages(&self) -> impl Iterator<Item = (&str, &CoverageSet)> + '_ {
        self.coverage.pairs()
    }

    /// Records (merges) a machine's transition coverage under `machine`.
    ///
    /// Keyed by machine (table) name rather than component instance name so
    /// that sweeps over many instances of the same controller merge into
    /// one per-machine table.
    pub fn record_fsm(&mut self, machine: impl fmt::Display, cov: &TransitionCoverage) {
        with_key(machine, |m| self.fsm.slot(m).merge(cov));
    }

    /// Records a machine instance straight from its dense fired counters
    /// (see [`TransitionCoverage::add_fired`]), under `rows.machine()` —
    /// [`record_fsm`](Report::record_fsm) without the intermediate table.
    pub fn record_fired(&mut self, rows: &dyn FsmRows, fired: &[u64]) {
        let machine = rows.machine();
        self.fsm
            .slot_by(|k| text_order(k, machine), || machine.into())
            .add_fired(rows, fired);
    }

    /// Looks up the transition coverage for a machine.
    pub fn fsm(&self, machine: &str) -> Option<&TransitionCoverage> {
        self.fsm.get(machine)
    }

    /// Iterates over all `(machine, transition coverage)` entries.
    pub fn fsms(&self) -> impl Iterator<Item = (&str, &TransitionCoverage)> + '_ {
        self.fsm.pairs()
    }

    /// Adds `value` into the profile-section counter `key` (creating it at
    /// zero) by the merge rule, as [`add`](Report::add) does for scalars.
    pub fn profile_add(&mut self, key: impl fmt::Display, value: u64) {
        with_key(key, |key| combine(key, self.profile.slot(key), value));
    }

    /// Reads a profile-section counter, returning 0 if absent.
    pub fn profile_get(&self, key: &str) -> u64 {
        self.profile.get(key).copied().unwrap_or(0)
    }

    /// Iterates `(key, value)` profile entries in deterministic order.
    pub fn profile_entries(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.profile.pairs().map(|(k, v)| (k, *v))
    }

    /// A copy of this report with the profile section removed — the shape
    /// determinism comparisons use, since host-time attribution is
    /// wall-clock data and legitimately differs between identical runs.
    pub fn without_profile(&self) -> Report {
        Report {
            profile: Section::default(),
            ..self.clone()
        }
    }

    /// Merges a component-owned histogram into the histogram `key`.
    pub fn record_hist(&mut self, key: impl fmt::Display, hist: &Histogram) {
        if hist.is_empty() {
            return;
        }
        with_key(key, |key| self.hists.slot(key).merge(hist));
    }

    /// Looks up a histogram.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Iterates over all `(key, histogram)` entries in deterministic order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hists.pairs()
    }

    /// Merges another report into this one (counters are summed, or for a
    /// `.hwm` key maxed, coverage sets are unioned, histograms are merged).
    ///
    /// Every merge operation is commutative and associative — counter sums
    /// and maxes, set unions, histogram bucket/min/max/count/sum merges — so merging a
    /// fixed set of reports yields the same result (and the same
    /// [`to_json`](Report::to_json) bytes) in *any* order. Parallel sweep
    /// shards can therefore be merged as they arrive or in canonical
    /// submission order with identical output; keys are held in the byte
    /// order of their text, never in insertion order.
    ///
    /// Each section is one merge-join. A key this report does not hold yet
    /// is cloned (a borrowed label stays borrowed); when it holds every key
    /// of `other`, as an accumulator soon does, the merge allocates nothing.
    pub fn merge(&mut self, other: &Report) {
        let counter = |key: &Label, n: &mut u64, v: &u64| combine(key, n, *v);
        self.scalars.merge(&other.scalars, all, counter);
        self.coverage
            .merge(&other.coverage, all, |_, set, theirs| set.merge(theirs));
        self.fsm
            .merge(&other.fsm, all, |_, cov, theirs| cov.merge(theirs));
        self.hists.merge(
            &other.hists,
            |h| !h.is_empty(),
            |_, h, theirs| h.merge(theirs),
        );
        self.profile.merge(&other.profile, all, counter);
    }

    /// Merges a sequence of per-shard reports into one.
    ///
    /// The conventional spelling for collapsing a parallel sweep's shard
    /// reports; by the commutativity of [`merge`](Report::merge) the shard
    /// order cannot affect the result, which `xg-harness`'s sweep property
    /// tests verify against random permutations.
    pub fn merge_shards<'a>(shards: impl IntoIterator<Item = &'a Report>) -> Report {
        let mut merged = Report::new();
        for shard in shards {
            merged.merge(shard);
        }
        merged
    }

    /// Serializes the report as a compact JSON object with `scalars`,
    /// `coverage`, `fsm` and `hists` sections, and `profile` when profiling
    /// recorded something.
    pub fn to_json(&self) -> String {
        fn counters(section: &Section<u64>) -> JsonValue {
            JsonValue::Obj(
                section
                    .pairs()
                    .map(|(k, &v)| (k.to_owned(), JsonValue::Num(v)))
                    .collect(),
            )
        }
        /// Rows grouped by state: `state → group(its rows)`.
        fn by_state<V>(
            rows: &[((Label, Label), V)],
            group: impl Fn(&[((Label, Label), V)]) -> JsonValue,
        ) -> JsonValue {
            JsonValue::Obj(
                rows.chunk_by(|a, b| a.0 .0 == b.0 .0)
                    .map(|run| (run[0].0 .0.to_string(), group(run)))
                    .collect(),
            )
        }
        let mut root = BTreeMap::new();
        root.insert("scalars".to_owned(), counters(&self.scalars));
        root.insert(
            "coverage".to_owned(),
            JsonValue::Obj(
                self.coverage
                    .pairs()
                    .map(|(ctrl, set)| {
                        let states = by_state(&set.pairs.entries, |run| {
                            let events =
                                run.iter().map(|((_, e), ())| JsonValue::Str(e.to_string()));
                            JsonValue::Arr(events.collect())
                        });
                        (ctrl.to_owned(), states)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "fsm".to_owned(),
            JsonValue::Obj(
                self.fsm
                    .pairs()
                    .map(|(machine, cov)| {
                        let states = by_state(&cov.rows.entries, |run| {
                            let events = run
                                .iter()
                                .map(|((_, e), n)| (e.to_string(), JsonValue::Num(*n)));
                            JsonValue::Obj(events.collect())
                        });
                        (machine.to_owned(), states)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "hists".to_owned(),
            JsonValue::Obj(
                self.hists
                    .pairs()
                    .map(|(k, h)| {
                        let mut o = BTreeMap::new();
                        o.insert("count".to_owned(), JsonValue::Num(h.count()));
                        o.insert("sum".to_owned(), JsonValue::Num(h.sum()));
                        o.insert("min".to_owned(), JsonValue::Num(h.min()));
                        o.insert("max".to_owned(), JsonValue::Num(h.max()));
                        o.insert(
                            "buckets".to_owned(),
                            JsonValue::Obj(
                                h.buckets()
                                    .map(|(i, n)| (i.to_string(), JsonValue::Num(n)))
                                    .collect(),
                            ),
                        );
                        (k.to_owned(), JsonValue::Obj(o))
                    })
                    .collect(),
            ),
        );
        // Only present when profiling recorded something, so profiling-off
        // runs keep their exact serialized form (the golden-fixture
        // byte-identity guarantee).
        if !self.profile.is_empty() {
            root.insert("profile".to_owned(), counters(&self.profile));
        }
        JsonValue::Obj(root).to_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.scalars.pairs() {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, v) in self.coverage.pairs() {
            writeln!(f, "{k}: {} state/event pairs", v.len())?;
        }
        for (k, v) in self.fsm.pairs() {
            writeln!(
                f,
                "{k}: {}/{} transition rows fired",
                v.fired_rows(),
                v.total_rows()
            )?;
        }
        for (k, h) in self.hists.pairs() {
            writeln!(f, "{k}: {h}")?;
        }
        for (k, v) in self.profile.pairs() {
            writeln!(f, "profile.{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn scalars_accumulate() {
        let mut r = Report::new();
        r.add("a.hits", 3);
        r.add("a.hits", 4);
        r.add("a.depth.hwm", 9);
        r.add("a.depth.hwm", 2);
        assert_eq!(r.get("a.hits"), 7);
        assert_eq!(
            r.get("a.depth.hwm"),
            9,
            "a written high-water mark keeps the max"
        );
        assert_eq!(r.get("absent"), 0);
    }

    #[test]
    fn suffix_sum() {
        let mut r = Report::new();
        r.add("l1_0.hits", 1);
        r.add("l1_1.hits", 2);
        r.add("l1_1.misses", 10);
        assert_eq!(r.sum_suffix(".hits"), 3);
    }

    #[test]
    fn coverage_merges() {
        let mut c = CoverageSet::new();
        c.visit("I", "Load");
        c.visit("I", "Load");
        c.visit("S", "Inv");
        assert_eq!(c.len(), 2);
        assert!(c.contains("S", "Inv"));
        assert!(!c.contains("M", "Inv"));

        let mut r = Report::new();
        r.record_coverage("l1", &c);
        let mut c2 = CoverageSet::new();
        c2.visit("M", "Store");
        r.record_coverage("l1", &c2);
        assert_eq!(r.coverage("l1").unwrap().len(), 3);
    }

    #[test]
    fn coverage_iterates_in_order() {
        let mut c = CoverageSet::new();
        c.visit("S", "Inv");
        c.visit("I", "Store");
        c.visit("I", "Load");
        let pairs: Vec<(&str, &str)> = c.iter().collect();
        assert_eq!(pairs, vec![("I", "Load"), ("I", "Store"), ("S", "Inv")]);
    }

    #[test]
    fn report_merge_and_display() {
        let mut a = Report::new();
        a.add("x", 1);
        let mut b = Report::new();
        b.add("x", 2);
        let mut cov = CoverageSet::new();
        cov.visit("I", "Load");
        b.record_coverage("ctrl", &cov);
        b.record_hist("lat", &hist(&[7]));
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.hist("lat").unwrap().count(), 1);
        let text = a.to_string();
        assert!(text.contains("x = 3"));
        assert!(text.contains("ctrl"));
        assert!(text.contains("lat"));
    }

    #[test]
    fn histograms_merge_across_reports() {
        let mut a = Report::new();
        a.record_hist("xg.lat.grant", &hist(&[4, 1000]));
        let mut b = Report::new();
        b.record_hist("xg.lat.grant", &hist(&[9]));
        a.merge(&b);
        let h = a.hist("xg.lat.grant").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn transition_coverage_counts_and_holes() {
        let mut t = TransitionCoverage::new();
        t.declare("I", "Load");
        t.declare("S", "Inv");
        t.fire("I", "Load", 3);
        t.fire("I", "Load", 2);
        assert_eq!(t.total_rows(), 2);
        assert_eq!(t.fired_rows(), 1);
        assert_eq!(t.count("I", "Load"), 5);
        assert_eq!(t.count("S", "Inv"), 0);
        assert!(t.is_declared("S", "Inv"));
        assert!(!t.is_declared("M", "Store"));
        let holes: Vec<_> = t.never_fired().collect();
        assert_eq!(holes, vec![("S", "Inv")]);
    }

    #[test]
    fn transition_coverage_merge_is_commutative() {
        let mut a = TransitionCoverage::new();
        a.declare("I", "Load");
        a.fire("S", "Inv", 2);
        let mut b = TransitionCoverage::new();
        b.fire("I", "Load", 1);
        b.declare("M", "Store");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_rows(), 3);
        assert_eq!(ab.fired_rows(), 2);
        assert_eq!(ab.count("I", "Load"), 1);
    }

    #[test]
    fn transition_coverage_self_merge_doubles_counts_and_keeps_rows() {
        let mut t = TransitionCoverage::new();
        t.declare("I", "Load");
        t.fire("S", "Inv", 2);
        t.fire("S", "Load", 5);
        let before = t.clone();
        t.merge(&before);
        let keys = |c: &TransitionCoverage| -> Vec<(String, String)> {
            c.iter()
                .map(|(s, e, _)| (s.to_owned(), e.to_owned()))
                .collect()
        };
        assert_eq!(keys(&t), keys(&before));
        assert_eq!(t.total_rows(), before.total_rows());
        for (s, e, n) in before.iter() {
            assert_eq!(t.count(s, e), 2 * n, "{s}/{e}");
        }
    }

    #[test]
    fn add_fired_declares_legal_cells_and_skips_violations() {
        struct Rows;
        impl FsmRows for Rows {
            fn machine(&self) -> &'static str {
                "toy"
            }
            fn rows_by_label(&self) -> &[(&'static str, &'static str, usize)] {
                // Cell 1 is a violation cell: not a row.
                &[("I", "Load", 0), ("S", "Inv", 2)]
            }
        }
        let mut cov = TransitionCoverage::new();
        cov.add_fired(&Rows, &[0, 9, 4]);
        assert_eq!(cov.total_rows(), 2);
        assert_eq!(cov.count("S", "Inv"), 4);
        assert!(cov.is_declared("I", "Load"));
        assert_eq!(cov.fired_rows(), 1);

        // The report-level shortcut lands the same table, and adds up.
        let mut direct = Report::new();
        direct.record_fired(&Rows, &[0, 9, 4]);
        assert_eq!(direct.fsm("toy"), Some(&cov));
        direct.record_fired(&Rows, &[1, 0, 0]);
        assert_eq!(direct.fsm("toy").unwrap().count("I", "Load"), 1);
        assert_eq!(direct.fsm("toy").unwrap().total_rows(), 2);
    }

    #[test]
    fn report_fsm_serializes_and_merges() {
        let mut t = TransitionCoverage::new();
        t.declare("NO", "Put");
        t.fire("O_mem", "GetS", 7);
        let mut r = Report::new();
        r.record_fsm("hammer_dir", &t);

        assert_eq!(
            r.to_json(),
            "{\"coverage\":{},\"fsm\":{\"hammer_dir\":{\"NO\":{\"Put\":0},\
             \"O_mem\":{\"GetS\":7}}},\"hists\":{},\"scalars\":{}}"
        );
        let cov = r.fsm("hammer_dir").unwrap();
        assert_eq!(cov.count("O_mem", "GetS"), 7);
        assert!(cov.is_declared("NO", "Put"));
        assert_eq!(cov.fired_rows(), 1);

        let mut other = Report::new();
        other.record_fsm("hammer_dir", &t);
        r.merge(&other);
        assert_eq!(r.fsm("hammer_dir").unwrap().count("O_mem", "GetS"), 14);
        assert_eq!(r.fsm("hammer_dir").unwrap().total_rows(), 2);
    }

    #[test]
    fn fuzz_and_guard_counters_are_scalars() {
        let mut r = Report::new();
        r.add("fuzz.hammer/fuzz_xg_full.budget", 3);
        r.add("guard.xg.os_errors", 7);
        r.add("guard.a1_xg.os_errors", 0);
        let mut other = Report::new();
        other.add("fuzz.hammer/fuzz_xg_full.budget", 2);
        other.add("guard.xg.os_errors", 3);
        r.merge(&other);
        assert_eq!(r.get("fuzz.hammer/fuzz_xg_full.budget"), 5);
        assert_eq!(r.get("guard.xg.os_errors"), 10);
        assert_eq!(
            r.to_json(),
            "{\"coverage\":{},\"fsm\":{},\"hists\":{},\"scalars\":{\
             \"fuzz.hammer/fuzz_xg_full.budget\":5,\
             \"guard.a1_xg.os_errors\":0,\"guard.xg.os_errors\":10}}"
        );
        assert!(r.to_string().contains("guard.xg.os_errors = 10"));
    }

    /// Two runs whose guards each peaked at 222 bytes peaked at 222 bytes:
    /// a merged high-water mark is the larger one, not the sum.
    #[test]
    fn high_water_marks_merge_by_max() {
        let run = |peak, ops| {
            let mut r = Report::new();
            r.add("xg.storage_bytes.hwm", peak);
            r.add("xg.grants", ops);
            r
        };
        let mut merged = run(222, 5);
        merged.merge(&run(222, 7));
        assert_eq!(merged.get("xg.storage_bytes.hwm"), 222);
        assert_eq!(merged.get("xg.grants"), 12, "other counters still sum");
        merged.merge(&run(300, 0));
        assert_eq!(merged.get("xg.storage_bytes.hwm"), 300);
        assert_eq!(
            Report::merge_shards([&run(10, 1), &run(222, 1), &run(0, 1)])
                .get("xg.storage_bytes.hwm"),
            222
        );
    }

    #[test]
    fn profile_section_serializes_merges_and_strips() {
        let mut r = Report::new();
        r.profile_add("dispatch.guard.GetM", 5);
        r.profile_add("dispatch.guard.GetM", 2);
        r.profile_add("queue.hwm", 9);
        r.profile_add("events.total", 100);
        r.add("os.errors_total", 1);
        assert_eq!(r.profile_get("dispatch.guard.GetM"), 7);
        assert_eq!(r.profile_get("absent"), 0);

        // The section is written in key order with the other four.
        assert!(r.to_json().contains(
            ",\"profile\":{\"dispatch.guard.GetM\":7,\"events.total\":100,\"queue.hwm\":9},\"scalars\""
        ));

        // Merge: counters sum, `.hwm` keys take the max, commutatively.
        let mut other = Report::new();
        other.profile_add("dispatch.guard.GetM", 3);
        other.profile_add("queue.hwm", 4);
        other.profile_add("events.total", 50);
        let mut ab = r.clone();
        ab.merge(&other);
        let mut ba = other.clone();
        ba.merge(&r);
        assert_eq!(ab, ba);
        assert_eq!(ab.profile_get("dispatch.guard.GetM"), 10);
        assert_eq!(ab.profile_get("queue.hwm"), 9, "hwm merges with max");
        assert_eq!(ab.profile_get("events.total"), 150);

        // Stripping restores the profiling-off shape byte-for-byte.
        let mut plain = Report::new();
        plain.add("os.errors_total", 1);
        assert_eq!(r.without_profile().to_json(), plain.to_json());
        assert!(!r.without_profile().to_json().contains("profile"));
        assert!(r.to_string().contains("profile.queue.hwm = 9"));
    }

    #[test]
    fn a_written_profile_high_water_mark_never_lowers() {
        let mut r = Report::new();
        r.profile_add("queue.hwm", 6);
        r.profile_add("queue.hwm", 2);
        assert_eq!(r.profile_get("queue.hwm"), 6);
    }

    #[test]
    fn an_empty_report_writes_four_empty_sections() {
        assert_eq!(
            Report::new().to_json(),
            "{\"coverage\":{},\"fsm\":{},\"hists\":{},\"scalars\":{}}"
        );
    }

    #[test]
    fn json_holds_extreme_counts_and_escaped_labels_at_their_paths() {
        let mut r = Report::new();
        r.add("guard.reqs", 42);
        r.add("big", u64::MAX);
        let mut cov = CoverageSet::new();
        cov.visit("I", "Load");
        cov.visit("I_M", "Data\"quote\"");
        cov.visit("S", "Inv");
        r.record_coverage("l1_0", &cov);
        let mut fsm = TransitionCoverage::new();
        fsm.fire("NP", "GetS", 9);
        fsm.declare("Owned", "Recall");
        r.record_fsm("mesi_l2", &fsm);
        r.record_hist("lat", &hist(&[0, 17, u64::MAX]));
        r.profile_add("queue.hwm", 3);

        let json = JsonValue::parse(&r.to_json()).unwrap();
        let at = |path: &[&str]| path.iter().try_fold(&json, |v, key| v.as_obj()?.get(*key));
        let num = |path: &[&str]| at(path).and_then(JsonValue::as_num).unwrap();
        assert_eq!(num(&["scalars", "guard.reqs"]), 42);
        assert_eq!(num(&["scalars", "big"]), u64::MAX);
        let events = |state| at(&["coverage", "l1_0", state]).and_then(JsonValue::as_arr);
        assert_eq!(events("I"), Some(&[JsonValue::Str("Load".into())][..]));
        let quoted = JsonValue::Str("Data\"quote\"".into());
        assert_eq!(events("I_M"), Some(&[quoted][..]));
        assert_eq!(num(&["fsm", "mesi_l2", "NP", "GetS"]), 9);
        assert_eq!(num(&["fsm", "mesi_l2", "Owned", "Recall"]), 0);
        assert_eq!(num(&["hists", "lat", "count"]), 3);
        assert_eq!(num(&["hists", "lat", "sum"]), u64::MAX);
        assert_eq!(num(&["hists", "lat", "min"]), 0);
        assert_eq!(num(&["hists", "lat", "max"]), u64::MAX);
        assert_eq!(num(&["hists", "lat", "buckets", "5"]), 1);
        assert_eq!(num(&["profile", "queue.hwm"]), 3);
    }

    crate::alphabet! {
        enum ToyState { I, S, M = "M_dirty" }
    }
    crate::alphabet! {
        enum ToyEvent { Load, Store, Inv }
    }

    /// Whether every label of a coverage table is held borrowed.
    fn all_borrowed<V>(rows: &SortedMap<(Label, Label), V>) -> bool {
        rows.iter().all(|((state, event), _)| {
            matches!(state.0, Cow::Borrowed(_)) && matches!(event.0, Cow::Borrowed(_))
        })
    }

    #[test]
    fn borrowed_and_owned_coverage_labels_are_the_same_set() {
        let mut grid = CoverageGrid::<ToyState, ToyEvent>::new();
        grid.visit(ToyState::I, ToyEvent::Load);
        grid.visit(ToyState::M, ToyEvent::Inv);
        grid.visit(ToyState::M, ToyEvent::Store);
        let borrowed = grid.to_set();
        assert!(all_borrowed(&borrowed.pairs));
        let mut owned = CoverageSet::new();
        for (state, event) in [("I", "Load"), ("M_dirty", "Inv"), ("M_dirty", "Store")] {
            owned.visit(state, event);
        }
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed.len(), 3);

        // Equal reports, equal bytes.
        let report = |set: &CoverageSet| {
            let mut r = Report::new();
            r.record_coverage("l1", set);
            r
        };
        let (from_borrowed, from_owned) = (report(&borrowed), report(&owned));
        assert_eq!(from_borrowed, from_owned);
        assert_eq!(from_borrowed.to_json(), from_owned.to_json());

        // Merging either way round gives one set; a label merged into an
        // empty set stays borrowed.
        let mut other = CoverageSet::new();
        other.visit("S", "Load");
        other.visit("I", "Load");
        let mut borrowed_into_owned = other.clone();
        borrowed_into_owned.merge(&borrowed);
        let mut owned_into_borrowed = borrowed.clone();
        owned_into_borrowed.merge(&other);
        assert_eq!(borrowed_into_owned, owned_into_borrowed);
        assert_eq!(borrowed_into_owned.len(), 4);
        let mut copy = CoverageSet::new();
        copy.merge(&borrowed);
        assert!(all_borrowed(&copy.pairs));
        assert_eq!(copy, borrowed);
    }

    #[test]
    fn borrowed_and_owned_fsm_labels_are_the_same_table() {
        struct Rows;
        impl FsmRows for Rows {
            fn machine(&self) -> &'static str {
                "toy"
            }
            fn rows_by_label(&self) -> &[(&'static str, &'static str, usize)] {
                &[("I", "Load", 0), ("S", "Inv", 2), ("S", "Load", 3)]
            }
        }
        let mut borrowed = TransitionCoverage::new();
        borrowed.add_fired(&Rows, &[2, 5, 0, 1]);
        assert!(all_borrowed(&borrowed.rows));
        let mut owned = TransitionCoverage::new();
        owned.fire("I", "Load", 2);
        owned.declare("S", "Inv");
        owned.fire("S", "Load", 1);
        assert_eq!(borrowed, owned);

        let mut r = Report::new();
        r.record_fired(&Rows, &[2, 5, 0, 1]);
        assert!(matches!(
            r.fsm.iter().next(),
            Some((Label(Cow::Borrowed("toy")), _))
        ));
        let mut o = Report::new();
        o.record_fsm("toy", &owned);
        assert_eq!(r, o);
        assert_eq!(r.to_json(), o.to_json());

        let mut other = TransitionCoverage::new();
        other.fire("S", "Inv", 3);
        other.declare("M", "Store");
        let mut borrowed_into_owned = other.clone();
        borrowed_into_owned.merge(&borrowed);
        let mut owned_into_borrowed = borrowed.clone();
        owned_into_borrowed.merge(&other);
        assert_eq!(borrowed_into_owned, owned_into_borrowed);
        assert_eq!(borrowed_into_owned.count("S", "Inv"), 3);
        assert_eq!(borrowed_into_owned.total_rows(), 4);
        let mut copy = TransitionCoverage::new();
        copy.merge(&borrowed);
        assert!(all_borrowed(&copy.rows));
    }
}
