//! The merge algebra of [`Report`], against a reference written with
//! `BTreeMap`s: random reports over all five sections, with keys that
//! share prefixes and contain the characters report keys are made of.
//!
//! - `merge` is commutative and associative, in `to_json` bytes;
//! - merging into an empty report gives a clone;
//! - `to_json` holds every entry at its path, and nothing else;
//! - every merge — into an empty report, into one that holds all of the
//!   incoming keys, into one that lacks some — equals the reference fold,
//!   in which counters sum and `.hwm` keys, scalar or profile, take the max;
//! - a write folds by the merge's rule: adding a sequence of values into
//!   one report equals merging reports that hold one value each.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::{CoverageSet, Histogram, JsonValue, Report, TransitionCoverage};

/// Keys sharing prefixes, and ordered differently by byte than by any
/// reading of their parts (`.` < `/` < `[` < `_`, `-` < `.`).
const KEYS: &[&str] = &[
    "a",
    "a.b",
    "a.b.c",
    "a-b",
    "a_b",
    "a/b",
    "a[0]",
    "a[0].b",
    "a[1]",
    "ab",
    "b",
    "xg.lat.grant",
    "xg.lat",
    "xg-1.hits",
    "queue.hwm",
    "a.hwm",
];

/// Coverage and FSM labels, also sharing prefixes.
const LABELS: &[&str] = &["I", "IS", "IS_D", "I.S", "M", "M_dirty", "S", "S[0]"];

/// One write into a report: `(section, (key, second key), (state, event,
/// value))`.
type Op = (u8, (usize, usize), (usize, usize, u64));

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        (
            0..9u8,
            (0..KEYS.len(), 0..KEYS.len()),
            (0..LABELS.len(), 0..LABELS.len(), 0..4u64),
        ),
        0..24,
    )
}

/// A report built through the public API.
fn build(ops: &[Op]) -> Report {
    let mut r = Report::new();
    for &(section, (k, k2), (s, e, v)) in ops {
        let (key, key2, state, event) = (KEYS[k], KEYS[k2], LABELS[s], LABELS[e]);
        match section {
            0 => r.add(key, v),
            1 => r.add(format_args!("{key}/{key2}.hwm"), v),
            2 => {
                let mut set = CoverageSet::new();
                set.visit(state, event);
                set.visit(event, state);
                r.record_coverage(key, &set);
            }
            3 => {
                let mut cov = TransitionCoverage::new();
                cov.fire(state, event, v);
                cov.declare(event, state);
                r.record_fsm(key, &cov);
            }
            4 => {
                let mut hist = Histogram::new();
                hist.record(v * v * 1000 + v);
                r.record_hist(key, &hist);
            }
            5 => r.add(format_args!("fuzz.{key}"), v),
            6 => r.add(format_args!("guard.{key}.{key2}"), v),
            7 => r.profile_add(key, v),
            _ => r.profile_add(format_args!("{key}.hwm"), v * 7),
        }
    }
    r
}

/// The reference: the same data in `BTreeMap`s, merged by the same rules.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    scalars: BTreeMap<String, u64>,
    coverage: BTreeMap<String, BTreeSet<(String, String)>>,
    fsm: BTreeMap<String, BTreeMap<(String, String), u64>>,
    hists: BTreeMap<String, Histogram>,
    profile: BTreeMap<String, u64>,
}

impl Model {
    /// What `r` holds, read through its public iterators.
    fn of(r: &Report) -> Model {
        let owned = |(k, v): (&str, u64)| (k.to_owned(), v);
        Model {
            scalars: r.scalars().map(owned).collect(),
            coverage: r
                .coverages()
                .map(|(c, set)| {
                    let pairs = set.iter().map(|(s, e)| (s.to_owned(), e.to_owned()));
                    (c.to_owned(), pairs.collect())
                })
                .collect(),
            fsm: r
                .fsms()
                .map(|(m, cov)| {
                    let rows = cov
                        .iter()
                        .map(|(s, e, n)| ((s.to_owned(), e.to_owned()), n));
                    (m.to_owned(), rows.collect())
                })
                .collect(),
            hists: r.hists().map(|(k, h)| (k.to_owned(), h.clone())).collect(),
            profile: r.profile_entries().map(owned).collect(),
        }
    }

    /// The reference fold of `other` into `self`.
    fn merge(&mut self, other: &Model) {
        /// Counters sum; high-water marks take the max.
        fn fold(mine: &mut BTreeMap<String, u64>, theirs: &BTreeMap<String, u64>) {
            for (k, &v) in theirs {
                let mine = mine.entry(k.clone()).or_default();
                *mine = if k.ends_with(".hwm") {
                    (*mine).max(v)
                } else {
                    *mine + v
                };
            }
        }
        fold(&mut self.scalars, &other.scalars);
        for (c, pairs) in &other.coverage {
            let mine = self.coverage.entry(c.clone()).or_default();
            mine.extend(pairs.iter().cloned());
        }
        for (m, rows) in &other.fsm {
            let mine = self.fsm.entry(m.clone()).or_default();
            for (row, n) in rows {
                *mine.entry(row.clone()).or_default() += n;
            }
        }
        for (k, h) in other.hists.iter().filter(|(_, h)| !h.is_empty()) {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        fold(&mut self.profile, &other.profile);
    }
}

/// Whether `r`'s JSON, read back with [`JsonValue::parse`], holds every
/// entry of `r` at its path and nothing else: each scalar and profile
/// counter, coverage pair, fsm row count, and histogram count, sum, min,
/// max and bucket population.
fn json_holds(r: &Report) -> TestCaseResult {
    let root = JsonValue::parse(&r.to_json()).expect("a report's JSON parses");
    let at = |path: &[&str]| path.iter().try_fold(&root, |v, key| v.as_obj()?.get(*key));
    let num = |path: &[&str]| at(path).and_then(JsonValue::as_num);
    let len = |path: &[&str]| at(path).and_then(JsonValue::as_obj).map(|o| o.len());
    /// Entries two levels down: coverage pairs, fsm rows.
    fn leaves(states: Option<&JsonValue>) -> usize {
        let states = states
            .and_then(JsonValue::as_obj)
            .into_iter()
            .flat_map(|s| s.values());
        states
            .map(|events| match events {
                JsonValue::Arr(events) => events.len(),
                JsonValue::Obj(events) => events.len(),
                _ => 0,
            })
            .sum()
    }

    for (k, v) in r.scalars() {
        prop_assert_eq!(num(&["scalars", k]), Some(v), "scalar {}", k);
    }
    prop_assert_eq!(len(&["scalars"]), Some(r.scalars().count()));
    for (k, v) in r.profile_entries() {
        prop_assert_eq!(num(&["profile", k]), Some(v), "profile {}", k);
    }
    let profiled = r.profile_entries().count();
    prop_assert_eq!(len(&["profile"]), (profiled > 0).then_some(profiled));
    for (c, set) in r.coverages() {
        for (s, e) in set.iter() {
            let events = at(&["coverage", c, s]).and_then(JsonValue::as_arr);
            let event = JsonValue::Str(e.to_owned());
            prop_assert!(
                events.is_some_and(|events| events.contains(&event)),
                "{c} {s}/{e}"
            );
        }
        prop_assert_eq!(leaves(at(&["coverage", c])), set.len());
    }
    prop_assert_eq!(len(&["coverage"]), Some(r.coverages().count()));
    for (m, cov) in r.fsms() {
        for (s, e, n) in cov.iter() {
            prop_assert_eq!(num(&["fsm", m, s, e]), Some(n), "{} {}/{}", m, s, e);
        }
        prop_assert_eq!(leaves(at(&["fsm", m])), cov.total_rows());
    }
    prop_assert_eq!(len(&["fsm"]), Some(r.fsms().count()));
    for (k, h) in r.hists() {
        let stats = [
            ("count", h.count()),
            ("sum", h.sum()),
            ("min", h.min()),
            ("max", h.max()),
        ];
        for (field, v) in stats {
            prop_assert_eq!(num(&["hists", k, field]), Some(v), "{} {}", k, field);
        }
        for (b, n) in h.buckets() {
            prop_assert_eq!(num(&["hists", k, "buckets", &b.to_string()]), Some(n));
        }
        prop_assert_eq!(len(&["hists", k, "buckets"]), Some(h.buckets().count()));
    }
    prop_assert_eq!(len(&["hists"]), Some(r.hists().count()));
    Ok(())
}

/// Whether every section of `r` iterates in strictly increasing byte order
/// of its keys, as `BTreeMap<String, _>` does.
fn in_key_order(r: &Report) -> bool {
    fn increasing<'a>(keys: impl Iterator<Item = &'a str>) -> bool {
        let keys: Vec<&str> = keys.collect();
        keys.windows(2).all(|w| w[0].as_bytes() < w[1].as_bytes())
    }
    increasing(r.scalars().map(|(k, _)| k))
        && increasing(r.coverages().map(|(k, _)| k))
        && r.coverages().all(|(_, set)| {
            let pairs: Vec<_> = set.iter().collect();
            pairs.windows(2).all(|w| w[0] < w[1])
        })
        && increasing(r.fsms().map(|(k, _)| k))
        && r.fsms().all(|(_, cov)| {
            let rows: Vec<_> = cov.iter().map(|(s, e, _)| (s, e)).collect();
            rows.windows(2).all(|w| w[0] < w[1])
        })
        && increasing(r.hists().map(|(k, _)| k))
        && increasing(r.profile_entries().map(|(k, _)| k))
}

/// One counter write: `(section and kind, key, value)`. Bit 0 of the first
/// field picks the profile section, bit 1 a `.hwm` key; four keys, so a
/// sequence repeats them.
type Write = (u8, usize, u64);

fn writes() -> impl Strategy<Value = Vec<Write>> {
    vec((0..4u8, 0..4usize, 0..1000u64), 0..32)
}

/// Adds one write into `r` with the section's one write verb.
fn write(r: &mut Report, &(kind, k, v): &Write) {
    let hwm = if kind & 2 == 0 { "" } else { ".hwm" };
    let key = format_args!("{}{hwm}", KEYS[k]);
    if kind & 1 == 0 {
        r.add(key, v);
    } else {
        r.profile_add(key, v);
    }
}

fn merged(a: &Report, b: &Report) -> Report {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn reference(a: &Model, b: &Model) -> Model {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn merge_is_commutative_and_associative_in_bytes(a in ops(), b in ops(), c in ops()) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(merged(&a, &b).to_json(), merged(&b, &a).to_json());
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert!(in_key_order(&merged(&a, &b)));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left.to_json(), right.to_json());
        prop_assert_eq!(Report::merge_shards([&c, &a, &b]).to_json(), left.to_json());
    }

    #[test]
    fn merging_into_an_empty_report_is_a_clone(a in ops()) {
        let a = build(&a);
        let mut empty = Report::new();
        empty.merge(&a);
        prop_assert_eq!(&empty, &a);
        prop_assert_eq!(empty.to_json(), a.to_json());
    }

    #[test]
    fn json_holds_every_entry_at_its_path(a in ops(), b in ops()) {
        let a = build(&a);
        prop_assert!(in_key_order(&a));
        json_holds(&a)?;
        json_holds(&merged(&a, &build(&b)))?;
    }

    #[test]
    fn every_merge_equals_the_btreemap_fold(a in ops(), b in ops()) {
        let (a, b) = (build(&a), build(&b));
        let (ma, mb) = (Model::of(&a), Model::of(&b));
        // Into an accumulator that lacks some keys.
        let ab = merged(&a, &b);
        prop_assert_eq!(Model::of(&ab), reference(&ma, &mb));
        // Into one that holds every incoming key: updated in place.
        let mab = Model::of(&ab);
        prop_assert_eq!(Model::of(&merged(&ab, &a)), reference(&mab, &ma));
        prop_assert_eq!(Model::of(&merged(&a, &a)), reference(&ma, &ma));
        // Into an empty one.
        prop_assert_eq!(Model::of(&merged(&Report::new(), &b)), mb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// A report written twice under one key holds what merging two reports
    /// written once each holds: a repeated `.hwm` key keeps the max, a
    /// repeated counter sums.
    #[test]
    fn adding_into_one_report_equals_merging_one_entry_reports(writes in writes()) {
        let mut one = Report::new();
        for w in &writes {
            write(&mut one, w);
        }
        let shards: Vec<Report> = writes
            .iter()
            .map(|w| {
                let mut shard = Report::new();
                write(&mut shard, w);
                shard
            })
            .collect();
        let merged = Report::merge_shards(&shards);
        prop_assert_eq!(&one, &merged);
        prop_assert_eq!(one.to_json(), merged.to_json());
    }
}

#[test]
fn keys_given_as_text_or_format_args_are_one_key() {
    let mut r = Report::new();
    let name = "xg";
    r.add(format_args!("{name}.grants"), 2);
    r.add("xg.grants", 3);
    r.add(String::from("xg.grants"), 4);
    r.add(format_args!("guard.a{}_xg.os.{}", 1, "Malformed"), 1);
    r.add("guard.a1_xg.os.Malformed", 1);
    assert_eq!(r.get("xg.grants"), 9);
    assert_eq!(r.get("guard.a1_xg.os.Malformed"), 2);
    assert_eq!(r.scalars().count(), 2);
}
