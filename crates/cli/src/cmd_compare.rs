//! `jedule compare` — the side-by-side workflow of the §III case study:
//! "a fast overview of the scheduling performance by viewing the
//! scheduling output of CPA and MCPA side by side". Stacks two schedules
//! into one chart and prints a statistics diff.

use crate::args::{load_prepared, Args};
use crate::obs_cli::ObsSink;
use jedule_core::obs;
use jedule_core::stats::{idle_holes, schedule_stats};
use jedule_core::transform::{merge, normalize};
use jedule_core::PreparedSchedule;
use jedule_render::{render_prepared, OutputFormat, RenderOptions};

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut inputs: Vec<String> = Vec::new();
    let mut output: Option<String> = None;
    let mut format = OutputFormat::Svg;
    let mut align_origins = true;
    let mut pack_sidecar = false;
    let mut sink = ObsSink::default();

    while let Some(a) = args.next() {
        match a {
            "-o" | "--output" => output = Some(args.value(a)?.to_string()),
            "-f" | "--format" => {
                let name = args.value(a)?;
                format =
                    OutputFormat::parse(name).ok_or_else(|| format!("unknown format {name:?}"))?;
            }
            "--keep-origins" => align_origins = false,
            "--pack-sidecar" => pack_sidecar = true,
            flag if sink.accept(flag, &mut args)? => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            p => inputs.push(p.to_string()),
        }
    }
    if inputs.len() != 2 {
        return Err("compare needs exactly two schedule files".into());
    }

    let _obs = sink.arm();
    // Comparison needs full task lists (normalize/diff/merge), so a
    // sidecar hit materializes — it still skips the text parse.
    let load = |p: &str| load_prepared(p, 1, pack_sidecar).map(PreparedSchedule::into_schedule);
    let (mut a, mut b) = {
        let _s = obs::span("ingest");
        (load(&inputs[0])?, load(&inputs[1])?)
    };
    if align_origins {
        a = normalize(&a);
        b = normalize(&b);
    }

    let name = |p: &str| {
        std::path::Path::new(p)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("schedule")
            .to_string()
    };
    let (na, nb) = (name(&inputs[0]), name(&inputs[1]));

    // Statistics diff.
    let pa = PreparedSchedule::borrowed(&a);
    let pb = PreparedSchedule::borrowed(&b);
    let sa = schedule_stats(&pa);
    let sb = schedule_stats(&pb);
    let ha = idle_holes(&pa, 1e-9).len();
    let hb = idle_holes(&pb, 1e-9).len();
    println!("{:<14} {:>12} {:>12}", "", na, nb);
    println!(
        "{:<14} {:>12} {:>12}",
        "tasks", sa.task_count, sb.task_count
    );
    println!(
        "{:<14} {:>12.4} {:>12.4}",
        "makespan", sa.makespan, sb.makespan
    );
    println!(
        "{:<14} {:>11.1}% {:>11.1}%",
        "utilization",
        sa.utilization * 100.0,
        sb.utilization * 100.0
    );
    println!("{:<14} {:>12} {:>12}", "idle holes", ha, hb);

    // Task-level diff when the schedules share task ids (e.g. the §IV
    // with/without-backfilling comparison).
    let d = jedule_core::diff_schedules(&a, &b);
    if d.unchanged + d.moved.len() + d.resized.len() + d.relocated.len() > 0
        && (d.added.len() + d.removed.len()) * 2 < a.tasks.len().max(1)
    {
        println!(
            "\ntask diff: {} unchanged, {} moved, {} resized, {} relocated, {} added, {} removed",
            d.unchanged,
            d.moved.len(),
            d.resized.len(),
            d.relocated.len(),
            d.added.len(),
            d.removed.len()
        );
        println!(
            "max delay {:.4} (0 = conservative), total advance {:.4}",
            d.max_delay(),
            d.total_advance()
        );
    }
    if sa.makespan > 0.0 && sb.makespan > 0.0 {
        let ratio = sb.makespan / sa.makespan;
        println!(
            "\n{} is {:.2}x {} than {}",
            nb,
            if ratio >= 1.0 { ratio } else { 1.0 / ratio },
            if ratio >= 1.0 { "slower" } else { "faster" },
            na
        );
    }

    // Side-by-side chart (stacked cluster panels in one document). The
    // merged schedule is wrapped in a PreparedSchedule so the render
    // shares the same warm path as the interactive mode.
    let combined = PreparedSchedule::new(merge(&a, &b, &na, &nb));
    let opts = RenderOptions::default()
        .with_format(format)
        .with_title(format!("{na} vs {nb}"));
    let bytes = render_prepared(&combined, &opts);
    sink.finish()?;
    let out_path = output.unwrap_or_else(|| format!("compare.{}", format.extension()));
    if format == OutputFormat::Ascii && out_path == "compare.txt" {
        print!("{}", String::from_utf8_lossy(&bytes));
    } else {
        std::fs::write(&out_path, bytes).map_err(|e| format!("cannot write {out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
    }
    Ok(())
}
