//! Property tests of the columnar task view: [`TaskColumns`] must be a
//! faithful struct-of-arrays replay of `Vec<Task>` — same spans, same
//! kind slots, same host-lane segments in the same walk order — and the
//! columnar composite sweep a [`PreparedSchedule`] caches must reproduce
//! the task-walk sweep exactly, whatever worker count the walk uses.

use jedule_core::{
    composite_tasks, Allocation, CompositeOptions, HostSet, PreparedSchedule, Schedule,
    ScheduleBuilder, Task, TaskColumns,
};
use proptest::prelude::*;

/// Schedules with multi-allocation tasks and possibly non-contiguous
/// host sets, so the CSR flattening sees several segments per task.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    let alloc = (0u32..2, proptest::collection::btree_set(0u32..8, 1..5))
        .prop_map(|(cluster, hosts)| Allocation::new(cluster, HostSet::from_hosts(hosts)));
    proptest::collection::vec(
        (
            0.0f64..50.0,
            0.0f64..10.0,
            0usize..3,
            proptest::collection::vec(alloc, 0..3),
        ),
        0..40,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8);
        for (i, (start, dur, kind, allocs)) in tasks.into_iter().enumerate() {
            let mut t = Task::new(format!("t{i}"), ["a", "b", "c"][kind], start, start + dur);
            for a in allocs {
                t = t.on(a);
            }
            b = b.task(t);
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every column is a bit-exact replay of the task walk.
    #[test]
    fn columns_replay_the_task_walk(s in arb_schedule()) {
        let cols = TaskColumns::build(&s);
        prop_assert_eq!(cols.len(), s.tasks.len());
        for (ti, t) in s.tasks.iter().enumerate() {
            prop_assert_eq!(cols.starts()[ti].to_bits(), t.start.to_bits());
            prop_assert_eq!(cols.ends()[ti].to_bits(), t.end.to_bits());
            prop_assert_eq!(&cols.kind_names()[cols.kind_ids()[ti] as usize], &t.kind);
            let want: Vec<(u32, u32, u32)> = t
                .allocations
                .iter()
                .flat_map(|a| {
                    a.hosts
                        .ranges()
                        .iter()
                        .map(|r| (a.cluster, r.start, r.nb))
                })
                .collect();
            let got: Vec<(u32, u32, u32)> = cols
                .segs(ti)
                .map(|seg| (seg.cluster, seg.row0, seg.nrows))
                .collect();
            prop_assert_eq!(got, want, "task {}", ti);
            for cid in [0u32, 1, 7] {
                prop_assert_eq!(
                    cols.on_cluster(ti, cid),
                    t.allocations.iter().any(|a| a.cluster == cid)
                );
            }
        }
        // Kind list equals the legend scan.
        let names: Vec<&str> = cols.kind_names().iter().map(String::as_str).collect();
        prop_assert_eq!(names, s.task_types());
    }

    /// The bundle's columnar composite sweep equals the task-walk sweep
    /// — content and order — for every worker count of the walk.
    #[test]
    fn columnar_composites_match_task_walk(
        s in arb_schedule(),
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 5][threads_idx];
        let base = composite_tasks(&s, &CompositeOptions::default().with_threads(threads));
        let prep = PreparedSchedule::borrowed(&s);
        prop_assert_eq!(prep.composites(), base.as_slice());
    }
}
