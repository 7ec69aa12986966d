//! Property tests of the interval index: for arbitrary schedules and
//! query windows, [`ScheduleIndex`] answers exactly like a brute-force
//! scan over every task.

use jedule_core::index::{brute_force_query, brute_force_query_host};
use jedule_core::{Allocation, Schedule, ScheduleBuilder, ScheduleIndex, Task};
use proptest::prelude::*;

const HOSTS: u32 = 16;

fn arb_schedule() -> BoxedStrategy<Schedule> {
    (
        1u32..=3,
        proptest::collection::vec(
            (0u32..3, 0.0f64..100.0, 0.0f64..20.0, 0u32..12, 1u32..=4),
            0..60,
        ),
    )
        .prop_map(|(nclusters, tasks)| {
            let mut b = ScheduleBuilder::new();
            for c in 0..nclusters {
                b = b.cluster(c, format!("c{c}"), HOSTS);
            }
            for (i, (c, start, dur, first, nb)) in tasks.into_iter().enumerate() {
                b =
                    b.task(
                        Task::new(format!("t{i}"), "k", start, start + dur)
                            .on(Allocation::contiguous(c % nclusters, first, nb)),
                    );
            }
            b.build().expect("generated schedule is valid")
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cluster_query_matches_brute_force(
        s in arb_schedule(),
        t0 in -10.0f64..120.0,
        span in -5.0f64..50.0, // negative spans → empty window, also covered
    ) {
        let t1 = t0 + span;
        let idx = ScheduleIndex::build_with_hosts(&s);
        for c in &s.clusters {
            let fast = idx
                .cluster(c.id)
                .map(|ci| ci.query(t0, t1))
                .unwrap_or_default();
            prop_assert_eq!(fast, brute_force_query(&s, c.id, t0, t1));
        }
    }

    #[test]
    fn host_query_matches_brute_force(
        s in arb_schedule(),
        t0 in -10.0f64..120.0,
        span in -5.0f64..50.0,
    ) {
        let t1 = t0 + span;
        let idx = ScheduleIndex::build_with_hosts(&s);
        for c in &s.clusters {
            for h in 0..HOSTS {
                let fast = idx
                    .cluster(c.id)
                    .map(|ci| ci.query_host(h, t0, t1))
                    .unwrap_or_default();
                prop_assert_eq!(fast, brute_force_query_host(&s, c.id, h, t0, t1));
            }
        }
    }

    #[test]
    fn point_queries_match(s in arb_schedule(), t in -5.0f64..125.0) {
        let idx = ScheduleIndex::build_with_hosts(&s);
        for c in &s.clusters {
            let fast = idx
                .cluster(c.id)
                .map(|ci| ci.query(t, t))
                .unwrap_or_default();
            prop_assert_eq!(fast, brute_force_query(&s, c.id, t, t));
        }
    }
}
