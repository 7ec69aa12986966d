//! `jedule info` — validation and statistics (the "sanity checks" the
//! paper motivates the tool with).

use crate::args::{digest_file, load_schedule, Args};
use jedule_core::snap::{self, PACK_VERSION};
use jedule_core::stats::{idle_holes, schedule_stats};
use jedule_core::validate;
use jedule_xmlio::json::{obj, Json};

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut input: Option<String> = None;
    let mut as_json = false;
    let mut hole_min = 0.0f64;

    while let Some(a) = args.next() {
        match a {
            "--json" => as_json = true,
            "--holes" => hole_min = args.parse(a)?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            p => input = Some(p.to_string()),
        }
    }
    let input = input.ok_or("info needs an input schedule file")?;
    let schedule = load_schedule(&input)?;

    let issues = validate(&schedule);
    let stats = schedule_stats(&schedule);
    let holes = idle_holes(&schedule, hole_min.max(1e-9));
    let pack = pack_status(&input);

    if as_json {
        let per_cluster: Vec<Json> = stats
            .per_cluster
            .iter()
            .map(|c| {
                obj([
                    ("cluster", Json::Num(f64::from(c.cluster))),
                    ("utilization", Json::Num(c.utilization)),
                    ("idle_time", Json::Num(c.idle_time)),
                ])
            })
            .collect();
        let doc = obj([
            ("file", Json::Str(input.clone())),
            ("tasks", Json::Num(stats.task_count as f64)),
            ("clusters", Json::Num(schedule.clusters.len() as f64)),
            ("hosts", Json::Num(f64::from(schedule.total_hosts()))),
            ("makespan", Json::Num(stats.makespan)),
            ("total_area", Json::Num(stats.total_area)),
            ("utilization", Json::Num(stats.utilization)),
            ("holes", Json::Num(holes.len() as f64)),
            ("issues", Json::Num(issues.len() as f64)),
            ("per_cluster", Json::Arr(per_cluster)),
            (
                "pack",
                match &pack {
                    PackStatus::Absent => obj([("present", Json::Bool(false))]),
                    PackStatus::Ok { version, fresh } => obj([
                        ("present", Json::Bool(true)),
                        ("version", Json::Num(f64::from(*version))),
                        ("fresh", Json::Bool(*fresh)),
                    ]),
                    PackStatus::Invalid(e) => obj([
                        ("present", Json::Bool(true)),
                        ("error", Json::Str(e.clone())),
                    ]),
                },
            ),
        ]);
        println!("{}", doc.to_string_compact());
    } else {
        println!("schedule : {input}");
        println!("tasks    : {}", stats.task_count);
        println!(
            "clusters : {} ({} hosts total)",
            schedule.clusters.len(),
            schedule.total_hosts()
        );
        println!("makespan : {:.6}", stats.makespan);
        println!("area     : {:.6}", stats.total_area);
        println!("util     : {:.2} %", stats.utilization * 100.0);
        for c in &stats.per_cluster {
            println!(
                "  cluster {:>3}: utilization {:>6.2} %, idle {:.4}",
                c.cluster,
                c.utilization * 100.0,
                c.idle_time
            );
        }
        println!("idle holes (> {hole_min}s): {}", holes.len());
        match &pack {
            PackStatus::Absent => println!("pack     : none (`jedule pack` builds one)"),
            PackStatus::Ok { version, fresh } => println!(
                "pack     : v{version}, {}",
                if *fresh {
                    "fresh".to_string()
                } else if *version != PACK_VERSION {
                    format!("STALE (format changed; this build reads v{PACK_VERSION})")
                } else {
                    "STALE (input changed)".to_string()
                }
            ),
            PackStatus::Invalid(e) => println!("pack     : invalid ({e})"),
        }
        for (k, v) in schedule.meta.iter() {
            println!("meta     : {k} = {v}");
        }
        if issues.is_empty() {
            println!("validation: OK");
        } else {
            println!("validation: {} issue(s)", issues.len());
            for i in &issues {
                println!("  [{}] {}", if i.fatal { "FATAL" } else { "warn" }, i.error);
            }
            if issues.iter().any(|i| i.fatal) {
                return Err("schedule has fatal validation issues".into());
            }
        }
    }
    Ok(())
}

/// What `info` reports about the input's `.jpack` sidecar.
enum PackStatus {
    Absent,
    Ok { version: u32, fresh: bool },
    Invalid(String),
}

/// Header-only freshness probe of the input's sidecar: present/absent,
/// format version, and whether it is current — at [`PACK_VERSION`],
/// with a stored source digest that still matches the input bytes (a
/// stale pack is ignored and rebuilt by `--pack-sidecar` runs).
fn pack_status(input: &str) -> PackStatus {
    let sidecar = snap::sidecar_path(std::path::Path::new(input));
    if !sidecar.exists() {
        return PackStatus::Absent;
    }
    match snap::peek(&sidecar) {
        Ok(info) => {
            let fresh = info.version == PACK_VERSION
                && digest_file(input).is_ok_and(|d| d == info.source_digest);
            PackStatus::Ok {
                version: info.version,
                fresh,
            }
        }
        Err(e) => PackStatus::Invalid(e.to_string()),
    }
}
