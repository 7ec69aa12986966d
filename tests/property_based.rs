//! Property-based tests over the core invariants, spanning crates.

use jedule::core::stats::schedule_stats;
use jedule::prelude::*;
use proptest::prelude::*;

/// Strategy: an arbitrary valid schedule on one cluster of `hosts`.
fn arb_schedule(max_tasks: usize) -> impl Strategy<Value = Schedule> {
    let hosts = 16u32;
    let task = (
        0..hosts,      // first host
        1..=4u32,      // host count (clamped)
        0.0..100.0f64, // start
        0.01..20.0f64, // duration
        0..3u8,        // type selector
    );
    proptest::collection::vec(task, 1..max_tasks).prop_map(move |specs| {
        let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
        for (i, (h, nb, start, dur, ty)) in specs.into_iter().enumerate() {
            let nb = nb.min(hosts - h);
            let kind = ["computation", "transfer", "io"][ty as usize];
            b =
                b.task(
                    Task::new(format!("t{i}"), kind, start, start + dur)
                        .on(Allocation::contiguous(0, h, nb.max(1))),
                );
        }
        b.build().expect("generated schedules are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XML round-trip is the identity on valid schedules.
    #[test]
    fn xml_roundtrip(s in arb_schedule(24)) {
        let xml = write_schedule_string(&s);
        prop_assert_eq!(read_schedule(&xml).unwrap(), s);
    }

    /// The CSV and JSON-lines formats round-trip too.
    #[test]
    fn alt_format_roundtrip(s in arb_schedule(16)) {
        let csv = jedule::xmlio::csvfmt::write_schedule_csv(&s);
        prop_assert_eq!(jedule::xmlio::csvfmt::read_schedule_csv(&csv).unwrap(), s.clone());
        let jl = jedule::xmlio::jsonl::write_schedule_jsonl(&s);
        prop_assert_eq!(jedule::xmlio::jsonl::read_schedule_jsonl(&jl).unwrap(), s);
    }

    /// Composite tasks only exist where ≥2 tasks genuinely overlap, and
    /// every composite interval is covered by all of its constituents.
    #[test]
    fn composites_are_sound(s in arb_schedule(16)) {
        let prep = PreparedSchedule::borrowed(&s);
        for c in prep.composites(0) {
            let ids: Vec<&str> = c
                .attrs
                .iter()
                .find(|(k, _)| k == jedule::core::composite::ATTR_IDS)
                .map(|(_, v)| v.split('+').collect())
                .unwrap_or_default();
            prop_assert!(ids.len() >= 2);
            for id in ids {
                let t = s.task_by_id(id).expect("constituent exists");
                // The constituent spans the composite interval...
                prop_assert!(t.start <= c.start + 1e-9 && c.end <= t.end + 1e-9);
                // ...on every composite host.
                for a in &c.allocations {
                    for h in a.hosts.iter() {
                        prop_assert!(t.occupies(a.cluster, h));
                    }
                }
            }
        }
    }

    /// Utilization is always within [0, 1] and the makespan bounds every
    /// task interval.
    #[test]
    fn stats_invariants(s in arb_schedule(24)) {
        let st = schedule_stats(&PreparedSchedule::borrowed(&s));
        prop_assert!((0.0..=1.0).contains(&st.utilization));
        let lo = s.min_start().unwrap();
        let hi = s.max_end().unwrap();
        prop_assert!((st.makespan - (hi - lo)).abs() < 1e-9);
        for t in &s.tasks {
            prop_assert!(t.start >= lo - 1e-9 && t.end <= hi + 1e-9);
        }
    }

    /// ViewState zoom/pan never escapes the full extent.
    #[test]
    fn view_clamping(s in arb_schedule(12), ops in proptest::collection::vec((0..3u8, -50.0..50.0f64, 0.1..4.0f64), 1..20)) {
        let mut v = ViewState::fit(&PreparedSchedule::borrowed(&s));
        let full = v.viewport;
        for (op, amount, factor) in ops {
            match op {
                0 => v.zoom_time(factor, v.viewport.t0 + amount.abs() % v.viewport.time_span().max(1e-9)),
                1 => v.pan(amount, 0.0),
                _ => v.pan(0.0, amount),
            }
            prop_assert!(v.viewport.t0 >= full.t0 - 1e-9);
            prop_assert!(v.viewport.t1 <= full.t1 + 1e-9);
            prop_assert!(v.viewport.r0 >= full.r0 - 1e-9);
            prop_assert!(v.viewport.r1 <= full.r1 + 1e-9);
            prop_assert!(v.viewport.time_span() > 0.0);
        }
    }

    /// Conservative backfilling never delays a task, never changes a
    /// duration, and never increases total idle time.
    ///
    /// Precondition of the pass (as in the paper's batch setting): the
    /// input has exclusive resources — no two tasks overlap on a host.
    /// `arb_schedule` can generate composite-style overlaps, which
    /// backfilling would have to serialize; use the exclusive generator.
    #[test]
    fn backfill_is_conservative(s in arb_exclusive_schedule(16)) {
        let report = jedule::sched::backfill(&s, |_, _| false);
        jedule::sched::backfill::verify_no_delay(&s, &report.schedule).unwrap();
        prop_assert!(report.makespan_after <= report.makespan_before + 1e-9);
        prop_assert!(report.idle_after <= report.idle_before + 1e-9);
        // And the result is still a valid schedule.
        prop_assert!(jedule::core::validate(&report.schedule).is_empty());
    }

    /// The renderer never panics and always yields parseable SVG, for any
    /// valid schedule.
    #[test]
    fn svg_always_valid(s in arb_schedule(12)) {
        let svg = String::from_utf8(render(&s, &RenderOptions::default())).unwrap();
        prop_assert!(jedule::xmlio::xml::parse(&svg).is_ok());
    }
}

/// Strategy: a valid schedule whose tasks never overlap on any host —
/// each task is appended to its host lane after an idle gap.
fn arb_exclusive_schedule(max_tasks: usize) -> impl Strategy<Value = Schedule> {
    let hosts = 8u32;
    let task = (
        0..hosts,      // lane (single-host tasks keep lanes independent)
        0.0..5.0f64,   // idle gap before the task
        0.01..10.0f64, // duration
    );
    proptest::collection::vec(task, 1..max_tasks).prop_map(move |specs| {
        let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
        let mut lane_end = vec![0.0f64; hosts as usize];
        for (i, (h, gap, dur)) in specs.into_iter().enumerate() {
            let start = lane_end[h as usize] + gap;
            lane_end[h as usize] = start + dur;
            b = b.task(
                Task::new(format!("t{i}"), "computation", start, start + dur)
                    .on(Allocation::contiguous(0, h, 1)),
            );
        }
        b.build().expect("generated schedules are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// HostSet behaves like a set of u32 (model-based check).
    #[test]
    fn hostset_model(hosts_a in proptest::collection::btree_set(0u32..64, 0..20),
                     hosts_b in proptest::collection::btree_set(0u32..64, 0..20)) {
        let a = HostSet::from_hosts(hosts_a.iter().copied());
        let b = HostSet::from_hosts(hosts_b.iter().copied());
        prop_assert_eq!(a.count() as usize, hosts_a.len());
        for h in 0..64u32 {
            prop_assert_eq!(a.contains(h), hosts_a.contains(&h));
        }
        let union: std::collections::BTreeSet<u32> = hosts_a.union(&hosts_b).copied().collect();
        let inter: std::collections::BTreeSet<u32> = hosts_a.intersection(&hosts_b).copied().collect();
        prop_assert_eq!(a.union(&b), HostSet::from_hosts(union));
        prop_assert_eq!(a.intersect(&b), HostSet::from_hosts(inter.iter().copied()));
        prop_assert_eq!(a.intersects(&b), !inter.is_empty());
    }

    /// Scheduler outputs always satisfy resource exclusivity and
    /// precedence, for random DAGs (the paper's "sanity checks").
    #[test]
    fn schedulers_always_feasible(seed in 0u64..500) {
        use jedule::dag::{layered, GenParams};
        use jedule::sched::{schedule_dag, CpaVariant};
        use jedule::sched::mapping::verify_mapping;
        let dag = layered(&GenParams { seed, depth: 4, width: 4, ..GenParams::default() });
        for variant in [CpaVariant::Cpa, CpaVariant::Mcpa] {
            let r = schedule_dag(&dag, 16, 1.0, variant);
            verify_mapping(&dag, &r.mapping).unwrap();
            prop_assert!(jedule::core::validate(&r.schedule).is_empty());
        }
    }

    /// Quicksort trees always sort, for arbitrary inputs.
    #[test]
    fn quicksort_always_sorts(mut data in proptest::collection::vec(-1000i64..1000, 0..300)) {
        use jedule::taskpool::quicksort::{build_qs_tree, PivotStrategy};
        let (_, sorted) = build_qs_tree(&data, PivotStrategy::Middle, 8);
        data.sort_unstable();
        prop_assert_eq!(sorted, data);
    }
}
