//! Quickstart: build a small schedule by hand, save it in the Jedule XML
//! format of the paper's Fig. 1, and render it as SVG, PNG and an ANSI
//! preview right in the terminal.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use jedule::prelude::*;

fn main() {
    // A two-cluster system: an 8-host commodity cluster and a quad-core
    // machine. At least one cluster is required (paper, §II-C1).
    let schedule = ScheduleBuilder::new()
        .cluster(0, "cluster-0", 8)
        .cluster(1, "quadcore", 4)
        .meta("algorithm", "hand-made")
        .meta("note", "quickstart example")
        // The Fig. 1 task: computation on all 8 hosts of cluster 0.
        .task(Task::new("1", "computation", 0.0, 0.310).on(Allocation::contiguous(0, 0, 8)))
        // A transfer overlapping the computation — the overlap becomes an
        // orange composite task (Fig. 3).
        .task(Task::new("2", "transfer", 0.2, 0.45).on(Allocation::contiguous(0, 2, 4)))
        // A multiprocessor task with a *non-contiguous* allocation: Jedule
        // draws one rectangle per contiguous host run.
        .task(
            Task::new("3", "computation", 0.35, 0.6)
                .on(Allocation::new(0, HostSet::from_hosts([0, 1, 6, 7]))),
        )
        // A task spanning both clusters (e.g. an inter-cluster transfer).
        .task(
            Task::new("4", "transfer", 0.45, 0.55)
                .on(Allocation::contiguous(0, 7, 1))
                .on(Allocation::contiguous(1, 0, 1)),
        )
        .task(Task::new("5", "computation", 0.1, 0.5).on(Allocation::contiguous(1, 1, 3)))
        .build()
        .expect("schedule is valid");

    // Save the schedule in the paper's XML format.
    let xml = write_schedule_string(&schedule);
    std::fs::create_dir_all("target/examples").unwrap();
    std::fs::write("target/examples/quickstart.jed", &xml).unwrap();
    println!("wrote target/examples/quickstart.jed ({} bytes)", xml.len());

    // Round-trip check — the parser is the same one the CLI uses.
    let back = read_schedule(&xml).expect("round-trips");
    assert_eq!(back, schedule);

    // Batch rendering, as the command-line mode would do it.
    for (format, name) in [
        (OutputFormat::Svg, "quickstart.svg"),
        (OutputFormat::Png, "quickstart.png"),
        (OutputFormat::Pdf, "quickstart.pdf"),
    ] {
        let opts = RenderOptions::default()
            .with_format(format)
            .with_title("Jedule quickstart");
        let path = format!("target/examples/{name}");
        render_to_file(&schedule, &opts, &path).unwrap();
        println!("wrote {path}");
    }

    // Terminal preview (what `jedule view` shows interactively).
    let ansi = render(
        &schedule,
        &RenderOptions::default().with_format(OutputFormat::Ascii),
    );
    println!("{}", String::from_utf8_lossy(&ansi));

    // Interactive-mode semantics without a GUI: zoom, then inspect the
    // task under the "mouse".
    let prep = PreparedSchedule::borrowed(&schedule);
    let mut view = ViewState::fit(&prep);
    view.zoom_time(0.5, 0.3);
    if let Some(info) = view.click(&prep, 0.25, 3.0) {
        println!(
            "clicked task {} [{}]: {:.3}..{:.3} on {:?}",
            info.id,
            info.kind,
            info.start,
            info.end,
            info.resources
                .iter()
                .map(|(c, _, h)| format!("cluster {c} hosts {h}"))
                .collect::<Vec<_>>()
        );
    }
}
