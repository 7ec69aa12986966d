//! `perfgate` — the CI perf-regression gate.
//!
//! Times the pipeline's hot stages (SWF parse, CSV read, prepare warm,
//! LOD layout, window render, PNG encode) on a synthetic trace and
//! emits the measurements as `jedule-metrics-v1` JSON — the same schema
//! `jedule render --metrics-json` writes, so baselines and live runs
//! diff with the same tooling.
//!
//! ```text
//! perfgate                      print current metrics JSON to stdout
//! perfgate --out gate.json      also write them to a file
//! perfgate --check              compare against BENCH_gate.json; exit 1
//!                               when a stage regresses past tolerance
//! perfgate --update             rewrite BENCH_gate.json from this run
//! perfgate --baseline <file>    use a different baseline file
//! ```
//!
//! `JEDULE_BENCH_QUICK=1` shrinks the trace so CI finishes in seconds;
//! quick and full runs are not comparable, so baselines record which
//! mode produced them and `--check` refuses to mix modes. The allowed
//! wall-time regression per stage is 25%, overridable via
//! `JEDULE_GATE_TOLERANCE` (a fraction, e.g. `0.4`).

use jedule_core::obs::{metrics_json, AccessLog, AccessRecord, Collector, Registry, StageMetrics};
use jedule_core::{PreparedSchedule, Schedule};
use jedule_render::{render, render_prepared, LodMode, OutputFormat, RenderOptions};
use jedule_workloads::convert::{assigned_to_schedule, workload_colormap};
use jedule_workloads::swf::{parse_swf, write_swf, SwfHeader};
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const NODES: u32 = 1024;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

fn tolerance() -> f64 {
    std::env::var("JEDULE_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Minimum wall time of `reps` runs — the least-noisy point estimate a
/// shared CI box can produce.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Gate {
    stages: BTreeMap<&'static str, (f64, u64)>,
    counters: Vec<(String, u64)>,
    overhead_pct: f64,
}

fn birdseye_options(lod: LodMode) -> RenderOptions {
    let mut o = RenderOptions::default()
        .with_size(1920.0, None)
        .with_colormap(workload_colormap())
        .with_lod(lod);
    o.show_labels = false;
    o.show_meta = false;
    o.show_composites = false;
    o
}

fn measure() -> Gate {
    let (jobs, reps) = if quick() { (20_000, 3) } else { (200_000, 5) };
    eprintln!(
        "perfgate: {} mode, {jobs} jobs, min of {reps} reps",
        if quick() { "quick" } else { "full" }
    );

    let assigned = synth_scale_trace(jobs, NODES, 20070202);
    let schedule: Schedule = assigned_to_schedule(
        &assigned,
        &ConvertOptions {
            cluster_name: "scale".into(),
            total_nodes: NODES,
            reserved: 0,
            highlight_user: None,
            task_attrs: false,
        },
    );
    let swf_text = write_swf(
        &SwfHeader {
            computer: Some("scale".into()),
            max_nodes: Some(NODES),
            max_procs: Some(NODES),
            raw: Vec::new(),
        },
        &assigned.iter().map(|a| a.job.clone()).collect::<Vec<_>>(),
    );
    let csv_text = jedule_xmlio::write_schedule_csv(&schedule);
    let (lo, hi) = schedule
        .tasks
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
            (lo.min(t.start), hi.max(t.end))
        });

    let mut stages: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut stage = |name: &'static str, ms: f64| {
        stages.insert(name, (ms, 1));
    };

    stage(
        "gate.swf_parse",
        time_ms(reps, || {
            black_box(parse_swf(black_box(&swf_text)).unwrap());
        }),
    );
    stage(
        "gate.csv_read",
        time_ms(reps, || {
            black_box(jedule_xmlio::read_schedule_csv(black_box(&csv_text)).unwrap());
        }),
    );
    stage(
        "gate.prepare_warm",
        time_ms(reps, || {
            let p = PreparedSchedule::new(black_box(schedule.clone()));
            p.warm();
            black_box(&p);
        }),
    );

    // Pack cold load: mmap + validate + adopt a `.jpack` snapshot of
    // the same trace — the sidecar fast path that replaces parse +
    // prepare on a warm deployment.
    let pack_dir = std::env::temp_dir().join(format!("jedule-perfgate-{}", std::process::id()));
    std::fs::create_dir_all(&pack_dir).expect("perfgate temp dir");
    let pack_path = pack_dir.join("gate.swf.jpack");
    {
        let p = PreparedSchedule::new(schedule.clone());
        p.warm();
        jedule_core::snap::write_pack_file(
            &p,
            jedule_core::snap::source_digest(swf_text.as_bytes()),
            &pack_path,
            0,
        )
        .expect("write gate pack");
    }
    stage(
        "gate.pack_load",
        time_ms(reps, || {
            let packed = jedule_core::snap::load(black_box(&pack_path)).expect("gate pack loads");
            black_box(PreparedSchedule::from_pack(packed));
        }),
    );
    std::fs::remove_file(&pack_path).ok();
    std::fs::remove_dir(&pack_dir).ok();

    let auto_opts = birdseye_options(LodMode::Auto);
    let off_opts = birdseye_options(LodMode::Off);
    stage(
        "gate.render_lod_auto",
        time_ms(reps, || {
            black_box(render(black_box(&schedule), &auto_opts));
        }),
    );
    stage(
        "gate.render_lod_off",
        time_ms(reps, || {
            black_box(render(black_box(&schedule), &off_opts));
        }),
    );

    let prepared = PreparedSchedule::new(schedule.clone());
    prepared.warm();
    let mut window_opts = birdseye_options(LodMode::Auto);
    window_opts.time_window = Some((lo, lo + (hi - lo) * 0.01));
    stage(
        "gate.render_window",
        time_ms(reps, || {
            black_box(render_prepared(black_box(&prepared), &window_opts));
        }),
    );

    let mut png_opts = birdseye_options(LodMode::Auto).with_format(OutputFormat::Png);
    png_opts.width = 800.0;
    png_opts.threads = 1;
    stage(
        "gate.png_encode",
        time_ms(reps, || {
            black_box(render(black_box(&schedule), &png_opts));
        }),
    );

    // Instrumentation overhead: the same LOD-auto render with a live
    // collector recording every span and counter, the finished report
    // folded into a cumulative Registry, and the report distilled into
    // an access record pushed through the bounded ring — the full
    // per-request pipeline `jedule serve` runs, so the budget covers
    // serve mode (including the access log) too.
    // The plain and instrumented passes are interleaved rep by rep:
    // measuring all plain reps first and all instrumented reps minutes
    // later lets clock/thermal drift masquerade as several points of
    // "overhead" on a long full-mode run. Pairing them samples both
    // under the same machine conditions, so the min-vs-min ratio
    // isolates the instrumentation itself.
    let registry = Registry::new();
    let access = AccessLog::new(512);
    let mut plain = f64::INFINITY;
    let mut instrumented = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(render(black_box(&schedule), &auto_opts));
        plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let col = Collector::new();
        let guard = col.install();
        black_box(render(black_box(&schedule), &auto_opts));
        drop(guard);
        let report = col.report();
        registry.absorb(&report);
        let mut per_stage: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &report.spans {
            *per_stage.entry(s.name).or_insert(0.0) += s.dur_us;
        }
        access.push(AccessRecord {
            id: access.pushed(),
            unix_ms: 0,
            method: "GET".to_string(),
            path: "/render".to_string(),
            opt_key: String::new(),
            status: 200,
            disposition: "miss".to_string(),
            dur_us: 0.0,
            bytes: 0,
            stages_us: per_stage
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            slow: false,
        });
        instrumented = instrumented.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let overhead_pct = (instrumented - plain) / plain * 100.0;

    // One instrumented pass over parse + render for the counter block.
    let col = Collector::new();
    {
        let _g = col.install();
        black_box(parse_swf(&swf_text).unwrap());
        black_box(render(&schedule, &auto_opts));
    }
    Gate {
        stages,
        counters: col.report().counters,
        overhead_pct,
    }
}

impl Gate {
    /// `jedule-metrics-v1` through the one obs writer; each stage's
    /// `wall_ms` is its measured time. The extra `meta.*` stages record
    /// run mode and measured obs overhead (excluded from the regression
    /// diff); they merge into the same sorted key order as the `gate.*`
    /// stages so that baselines diff stably across runs.
    fn to_metrics_json(&self) -> String {
        let mut stages = self.stages.clone();
        stages.insert("meta.obs_overhead_pct", (self.overhead_pct.max(0.0), 1));
        stages.insert("meta.quick_mode", (if quick() { 1.0 } else { 0.0 }, 1));
        metrics_json(
            stages.iter().map(|(name, &(wall_ms, count))| {
                let m = StageMetrics {
                    wall_ms,
                    worker_ms: None,
                    count,
                };
                (*name, m)
            }),
            self.counters.iter().map(|(k, v)| (k.as_str(), *v)),
        )
    }
}

fn stage_map(doc: &jedule_xmlio::json::Json) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    if let Some(stages) = doc.get("stages").and_then(|s| s.as_obj()) {
        for (name, v) in stages {
            if let Some(ms) = v.get("wall_ms").and_then(|w| w.as_f64()) {
                m.insert(name.clone(), ms);
            }
        }
    }
    m
}

/// Compares live stages against the baseline file. Stages under 1 ms
/// are skipped (pure timer noise at that scale); `meta.*` rows carry
/// metadata, not measurements — except the mode marker, which must
/// match, and the overhead figure, which gets its own 3-point budget.
fn check(baseline_path: &str, gate: &Gate) -> Result<(), String> {
    let src = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e} (run `perfgate --update` or scripts/update-bench-baselines.sh)"))?;
    let doc = jedule_xmlio::json::parse(&src).map_err(|e| format!("{baseline_path}: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("jedule-metrics-v1") {
        return Err(format!("{baseline_path}: not a jedule-metrics-v1 file"));
    }
    let base = stage_map(&doc);
    let base_quick = base.get("meta.quick_mode").copied().unwrap_or(0.0) > 0.5;
    if base_quick != quick() {
        return Err(format!(
            "baseline {baseline_path} was recorded in {} mode but this is a {} run; \
             regenerate it in the matching mode",
            if base_quick { "quick" } else { "full" },
            if quick() { "quick" } else { "full" }
        ));
    }
    let tol = tolerance();
    let mut failures = Vec::new();
    for (name, &base_ms) in &base {
        if name.starts_with("meta.") || base_ms < 1.0 {
            continue;
        }
        match gate.stages.get(name.as_str()) {
            None => failures.push(format!("stage {name} disappeared from the gate")),
            Some(&(cur_ms, _)) => {
                let limit = base_ms * (1.0 + tol);
                if cur_ms > limit {
                    failures.push(format!(
                        "{name}: {cur_ms:.2} ms vs baseline {base_ms:.2} ms \
                         (+{:.0}%, allowed +{:.0}%)",
                        (cur_ms / base_ms - 1.0) * 100.0,
                        tol * 100.0
                    ));
                } else {
                    eprintln!(
                        "  ok  {name}: {cur_ms:.2} ms (baseline {base_ms:.2} ms, limit {limit:.2})"
                    );
                }
            }
        }
    }
    let base_overhead = base.get("meta.obs_overhead_pct").copied().unwrap_or(0.0);
    eprintln!(
        "  obs overhead: {:.2}% (baseline {base_overhead:.2}%)",
        gate.overhead_pct
    );
    if !quick() && gate.overhead_pct > 3.0 {
        failures.push(format!(
            "observability overhead {:.2}% exceeds the 3% budget",
            gate.overhead_pct
        ));
    }
    if failures.is_empty() {
        eprintln!(
            "perfgate: all stages within {:.0}% of baseline",
            tol * 100.0
        );
        Ok(())
    } else {
        Err(format!(
            "perf gate failed:\n  {}\nIf the regression is intended, refresh baselines with \
             scripts/update-bench-baselines.sh and commit the diff.",
            failures.join("\n  ")
        ))
    }
}

/// Cross-checks the published acceptance sections of the scale
/// baselines: every `<name>_speedup` must still meet `<name>_required`.
fn check_acceptance(repo_root: &std::path::Path) -> Result<(), String> {
    let mut failures = Vec::new();
    for file in [
        "BENCH_birdseye.json",
        "BENCH_ingest.json",
        "BENCH_serve.json",
    ] {
        let path = repo_root.join(file);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = jedule_xmlio::json::parse(&src).map_err(|e| format!("{file}: {e}"))?;
        let Some(acc) = doc.get("acceptance").and_then(|a| a.as_obj()) else {
            failures.push(format!("{file}: missing acceptance section"));
            continue;
        };
        for (key, v) in acc {
            let Some(req_key) = key
                .strip_suffix("_speedup")
                .map(|k| format!("{k}_required"))
            else {
                continue;
            };
            let (Some(speedup), Some(required)) =
                (v.as_f64(), acc.get(&req_key).and_then(|r| r.as_f64()))
            else {
                continue; // non-numeric entries explain themselves in prose
            };
            if speedup < required {
                failures.push(format!(
                    "{file}: {key} = {speedup} below required {required}"
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "acceptance check failed:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn main() -> std::process::ExitCode {
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let default_baseline = repo_root.join("BENCH_gate.json");

    let mut do_check = false;
    let mut do_update = false;
    let mut out_path: Option<String> = None;
    let mut baseline = default_baseline.to_string_lossy().into_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--check" => do_check = true,
            "--update" => do_update = true,
            "--out" => match argv.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("perfgate: --out requires a path");
                    return std::process::ExitCode::from(2);
                }
            },
            "--baseline" => match argv.next() {
                Some(p) => baseline = p,
                None => {
                    eprintln!("perfgate: --baseline requires a path");
                    return std::process::ExitCode::from(2);
                }
            },
            other => {
                eprintln!("perfgate: unknown argument {other:?}");
                return std::process::ExitCode::from(2);
            }
        }
    }

    let gate = measure();
    let json = gate.to_metrics_json();
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, &json) {
            eprintln!("perfgate: cannot write {p}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("wrote {p}");
    } else if !do_check && !do_update {
        print!("{json}");
    }

    if do_update {
        if let Err(e) = std::fs::write(&baseline, &json) {
            eprintln!("perfgate: cannot write {baseline}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("updated baseline {baseline}");
    }
    if do_check {
        if let Err(e) = check_acceptance(&repo_root) {
            eprintln!("perfgate: {e}");
            return std::process::ExitCode::FAILURE;
        }
        if let Err(e) = check(&baseline, &gate) {
            eprintln!("perfgate: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}
