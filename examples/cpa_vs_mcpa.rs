//! The §III case study: compare CPA and MCPA on mixed-parallel DAGs,
//! find the load-imbalance case the paper's Fig. 4 shows, and verify that
//! the MCPA2 poly-algorithm always matches the better of the two.
//!
//! ```text
//! cargo run --release --example cpa_vs_mcpa
//! ```

use jedule::core::stats::{idle_holes, schedule_stats};
use jedule::dag::{layered, GenParams};
use jedule::prelude::*;
use jedule::sched::cpa::{fig4_dag, FIG4_PROCS};
use jedule::sched::{schedule_dag, CpaVariant};

fn main() {
    // 1. The paper's sweep in miniature: several DAG shapes × seeds.
    println!("shape      seed   CPA        MCPA       winner");
    let mut mcpa_wins = 0;
    let mut cpa_wins = 0;
    for seed in 0..5u64 {
        for (shape, params) in [
            ("wide", GenParams::wide(seed)),
            ("long", GenParams::long(seed)),
            ("serial", GenParams::serial(seed)),
            ("irregular", GenParams::irregular(seed)),
        ] {
            let dag = layered(&params);
            let cpa = schedule_dag(&dag, 32, 1.0, CpaVariant::Cpa);
            let mcpa = schedule_dag(&dag, 32, 1.0, CpaVariant::Mcpa);
            let winner = if cpa.makespan < mcpa.makespan {
                cpa_wins += 1;
                "CPA"
            } else {
                mcpa_wins += 1;
                "MCPA"
            };
            println!(
                "{shape:<10} {seed:<5} {:<10.2} {:<10.2} {winner}",
                cpa.makespan, mcpa.makespan
            );
        }
    }
    println!("CPA wins {cpa_wins}, MCPA wins {mcpa_wins} — neither dominates, hence MCPA2\n");

    // 2. The Fig. 4 case: one precedence level with very unequal costs.
    let dag = fig4_dag();
    let cpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Cpa);
    let mcpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa);
    let poly = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa2);

    println!("Fig. 4 scenario on {FIG4_PROCS} processors:");
    for (name, r) in [("CPA", &cpa), ("MCPA", &mcpa), ("MCPA2", &poly)] {
        let prep = PreparedSchedule::borrowed(&r.schedule);
        let stats = schedule_stats(&prep);
        let holes = idle_holes(&prep, 1.0);
        println!(
            "  {name:<6} makespan {:8.2}  utilization {:5.1} %  holes>1s {:3}  (T_CP {:.1}, T_A {:.1})",
            r.makespan,
            stats.utilization * 100.0,
            holes.len(),
            r.allocation.t_cp,
            r.allocation.t_a,
        );
    }
    assert!(cpa.makespan < mcpa.makespan, "the Fig. 4 shape favors CPA");
    assert_eq!(poly.makespan, cpa.makespan.min(mcpa.makespan));

    // 3. Render the side-by-side pair the paper shows.
    std::fs::create_dir_all("target/examples").unwrap();
    for (r, name) in [(&cpa, "fig4_cpa"), (&mcpa, "fig4_mcpa")] {
        let opts = RenderOptions::default()
            .with_title(format!("{} — makespan {:.1}", r.algorithm, r.makespan));
        render_to_file(&r.schedule, &opts, format!("target/examples/{name}.svg")).unwrap();
    }
    println!("\nwrote target/examples/fig4_cpa.svg and fig4_mcpa.svg");
    println!("note the large idle holes around the expensive task in the MCPA chart");
}
