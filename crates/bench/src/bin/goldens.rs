//! `goldens` — the CI golden-figure gate.
//!
//! Renders a fixed set of deterministic example figures (bird's-eye day
//! view, the CPA-vs-MCPA compare chart, an LOD-auto window render) and
//! digests the output bytes with FNV-1a 64. `--check` compares against
//! the committed digests in `tests/goldens/digests.json`; `--update`
//! rewrites them. Artifacts always land in `target/goldens/` so a CI
//! failure can upload the actual images for eyeballing.
//!
//! Every figure here is seed-deterministic and rendered with
//! `threads = 1` (the byte-identical sequential path), so a digest
//! mismatch means the rendered bytes really changed — either an
//! intended visual change (rerun with `--update`, commit the diff,
//! inspect the artifacts) or an accidental regression.

use jedule_bench as fig;
use jedule_core::snap::source_digest;
use jedule_core::transform::{merge, normalize};
use jedule_core::PreparedSchedule;
use jedule_render::{render, render_prepared, LodMode, OutputFormat, RenderOptions};
use jedule_workloads::convert::{assigned_to_schedule, workload_colormap};
use jedule_workloads::{synth_scale_trace, ConvertOptions};

fn figures() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = Vec::new();

    // Bird's-eye day view (Fig. 13): synthetic Thunder day, SVG and the
    // sequential-path PNG.
    let (day, cmap) = fig::fig13();
    let mut opts = fig::figure_options("golden: thunder day", cmap);
    opts.show_labels = false;
    opts.threads = 1;
    out.push(("fig13_birdseye.svg", render(&day, &opts)));
    opts.format = OutputFormat::Png;
    out.push(("fig13_birdseye.png", render(&day, &opts)));
    // The same figure as a self-contained interactive explorer page: a
    // digest drift here means the embedded SVG, the meta JSON, or the
    // explorer template itself changed.
    opts.format = OutputFormat::Html;
    out.push(("fig13_birdseye.html", render(&day, &opts)));

    // Compare chart (Fig. 4): CPA vs MCPA merged into stacked panels,
    // the same path `jedule compare` takes.
    let f4 = fig::fig4();
    let (a, b) = (normalize(&f4.cpa), normalize(&f4.mcpa));
    let combined = PreparedSchedule::new(merge(&a, &b, "cpa", "mcpa"));
    let mut copts = fig::fig4_options("golden: cpa vs mcpa");
    copts.threads = 1;
    out.push(("fig4_compare.svg", render_prepared(&combined, &copts)));
    copts.format = OutputFormat::Html;
    out.push(("fig4_compare.html", render_prepared(&combined, &copts)));

    // LOD-auto window render: a seeded saturated trace, zoomed to the
    // first 10% of its extent.
    let assigned = synth_scale_trace(20_000, 256, 20070202);
    let scale = assigned_to_schedule(
        &assigned,
        &ConvertOptions {
            cluster_name: "scale".into(),
            total_nodes: 256,
            reserved: 0,
            highlight_user: None,
            task_attrs: false,
        },
    );
    let (lo, hi) = scale
        .tasks
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
            (lo.min(t.start), hi.max(t.end))
        });
    let mut wopts = RenderOptions::default()
        .with_size(1200.0, None)
        .with_colormap(workload_colormap())
        .with_lod(LodMode::Auto);
    wopts.show_labels = false;
    wopts.show_meta = false;
    wopts.show_composites = false;
    wopts.threads = 1;
    wopts.time_window = Some((lo, lo + (hi - lo) * 0.10));
    out.push(("lod_window.svg", render(&scale, &wopts)));

    out
}

fn main() -> std::process::ExitCode {
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let digests_path = repo_root.join("tests/goldens/digests.json");
    let artifact_dir = repo_root.join("target/goldens");

    let mode = std::env::args().nth(1).unwrap_or_default();
    if !matches!(mode.as_str(), "--check" | "--update") {
        eprintln!("usage: goldens --check | --update");
        return std::process::ExitCode::from(2);
    }

    let rendered = figures();
    if let Err(e) = std::fs::create_dir_all(&artifact_dir) {
        eprintln!("goldens: cannot create {}: {e}", artifact_dir.display());
        return std::process::ExitCode::FAILURE;
    }
    for (name, bytes) in &rendered {
        if let Err(e) = std::fs::write(artifact_dir.join(name), bytes) {
            eprintln!("goldens: cannot write artifact {name}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }

    if mode == "--update" {
        let mut json = String::from("{\n");
        for (i, (name, bytes)) in rendered.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!("  \"{name}\": \"{:016x}\"", source_digest(bytes)));
        }
        json.push_str("\n}\n");
        if let Some(dir) = digests_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&digests_path, json) {
            eprintln!("goldens: cannot write {}: {e}", digests_path.display());
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("updated {}", digests_path.display());
        return std::process::ExitCode::SUCCESS;
    }

    let src = match std::fs::read_to_string(&digests_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "goldens: cannot read {}: {e}\nRun `goldens --update` (or \
                 scripts/update-goldens.sh) to record the digests first.",
                digests_path.display()
            );
            return std::process::ExitCode::FAILURE;
        }
    };
    let doc = match jedule_xmlio::json::parse(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("goldens: {}: {e}", digests_path.display());
            return std::process::ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    for (name, bytes) in &rendered {
        let actual = format!("{:016x}", source_digest(bytes));
        match doc.get(name).and_then(|v| v.as_str()) {
            None => failures.push(format!("{name}: no recorded digest")),
            Some(expect) if expect != actual => failures.push(format!(
                "{name}: digest {actual} != recorded {expect} \
                 (artifact: target/goldens/{name})"
            )),
            Some(_) => eprintln!("  ok  {name} ({actual})"),
        }
    }
    if failures.is_empty() {
        eprintln!("goldens: all {} figures match", rendered.len());
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!(
            "golden figures changed:\n  {}\nIf the visual change is intended, run \
             scripts/update-goldens.sh, inspect target/goldens/, and commit the new digests.",
            failures.join("\n  ")
        );
        std::process::ExitCode::FAILURE
    }
}
