//! Alternative schedule input format: CSV.
//!
//! The paper notes that Jedule can be extended "with a different parser …
//! not necessarily in XML". This dialect is convenient for spreadsheet and
//! awk pipelines:
//!
//! ```text
//! # comment lines start with '#'
//! cluster,0,cluster-0,8
//! meta,algorithm,cpa
//! task,<id>,<type>,<start>,<end>,<cluster>:<hosts>[;<cluster>:<hosts>...]
//! ```
//!
//! where `<hosts>` is a host-list expression like `0-3`, `5`, or `0-1+4-5`
//! (ranges joined by `+`).

use crate::error::IoError;
use crate::ingest::{self, Record};
use jedule_core::{Allocation, HostRange, HostSet, Schedule, Task};

/// Parses the host-list expression `0-3+7+9-10`.
pub fn parse_hostlist(expr: &str) -> Result<HostSet, IoError> {
    let mut set = HostSet::new();
    for part in expr.split('+') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let num = |s: &str, what| {
            s.trim()
                .parse::<u32>()
                .map_err(|_| IoError::number(what, part))
        };
        let (lo, hi) = match part.split_once('-') {
            Some((a, b)) => (num(a, "host range")?, num(b, "host range")?),
            None => {
                let h = num(part, "host")?;
                (h, h)
            }
        };
        if hi < lo {
            return Err(IoError::format(format!("descending host range {part:?}")));
        }
        let range = HostRange::checked(lo.into(), u64::from(hi - lo) + 1).ok_or_else(|| {
            IoError::format(format!(
                "host range {part:?} ends past host index {}",
                u32::MAX
            ))
        })?;
        set.insert_range(range);
    }
    Ok(set)
}

/// Formats a host set in the `+`-joined expression syntax.
pub fn format_hostlist(hosts: &HostSet) -> String {
    hosts
        .ranges()
        .iter()
        .map(|r| {
            if r.nb == 1 {
                r.start.to_string()
            } else {
                format!("{}-{}", r.start, r.end() - 1)
            }
        })
        .collect::<Vec<_>>()
        .join("+")
}

/// Parses one CSV line into a [`Record`] (`None` for blank/comment
/// lines). `ln` is the 1-based global line number used in errors.
fn csv_record(raw: &str, ln: usize) -> Result<Option<Record>, IoError> {
    let line = raw.trim();
    // Blank lines, `#` comments and XML-style `<!-- ... -->` banner
    // lines (as emitted by converters) carry no records.
    if line.is_empty() || line.starts_with('#') || crate::is_banner_comment(line) {
        return Ok(None);
    }
    let mut fields = line.split(',').map(str::trim);
    let record = fields.next().unwrap_or("");
    let ctx = |msg: &str| IoError::format(format!("line {ln}: {msg}"));
    match record {
        "cluster" => {
            let id: u32 = fields
                .next()
                .ok_or_else(|| ctx("cluster needs an id"))?
                .parse()
                .map_err(|_| ctx("bad cluster id"))?;
            let name = fields.next().ok_or_else(|| ctx("cluster needs a name"))?;
            let hosts: u32 = fields
                .next()
                .ok_or_else(|| ctx("cluster needs a host count"))?
                .parse()
                .map_err(|_| ctx("bad cluster host count"))?;
            Ok(Some(Record::Cluster {
                id,
                name: name.to_string(),
                hosts,
            }))
        }
        "meta" => {
            let k = fields.next().ok_or_else(|| ctx("meta needs a key"))?;
            let v = fields.next().unwrap_or("");
            Ok(Some(Record::Meta {
                key: k.to_string(),
                value: v.to_string(),
            }))
        }
        "task" => {
            let id = fields.next().ok_or_else(|| ctx("task needs an id"))?;
            let kind = fields.next().ok_or_else(|| ctx("task needs a type"))?;
            let start: f64 = fields
                .next()
                .ok_or_else(|| ctx("task needs a start time"))?
                .parse()
                .map_err(|_| ctx("bad start time"))?;
            let end: f64 = fields
                .next()
                .ok_or_else(|| ctx("task needs an end time"))?
                .parse()
                .map_err(|_| ctx("bad end time"))?;
            let allocs = fields.next().ok_or_else(|| ctx("task needs allocations"))?;
            let mut task = Task::new(id, kind, start, end);
            for spec in allocs.split(';') {
                let (c, hl) = spec
                    .split_once(':')
                    .ok_or_else(|| ctx("allocation must be cluster:hosts"))?;
                let cluster: u32 = c
                    .trim()
                    .parse()
                    .map_err(|_| ctx("bad allocation cluster id"))?;
                let hosts = parse_hostlist(hl).map_err(|e| match e {
                    IoError::Format(msg) => ctx(&msg),
                    e => ctx(&e.to_string()),
                })?;
                task.allocations.push(Allocation::new(cluster, hosts));
            }
            Ok(Some(Record::Task(task)))
        }
        other => Err(ctx(&format!("unknown record type {other:?}"))),
    }
}

/// Reads a schedule from CSV text.
pub fn read_schedule_csv(src: &str) -> Result<Schedule, IoError> {
    ingest::read_lines(src, 1, csv_record)
}

/// Parallel [`read_schedule_csv`]: chunked line-parallel ingest with the
/// workspace `threads` knob (`0` auto, `1` sequential, `n` workers).
/// Result and error reporting are identical to the sequential reader —
/// see the `ingest` module for why.
pub fn read_schedule_csv_parallel(src: &str, threads: usize) -> Result<Schedule, IoError> {
    ingest::read_lines(src, threads, csv_record)
}

/// Writes a schedule as CSV text.
pub fn write_schedule_csv(schedule: &Schedule) -> String {
    let mut out = String::from("# jedule schedule (CSV dialect)\n");
    for c in &schedule.clusters {
        out.push_str(&format!("cluster,{},{},{}\n", c.id, c.name, c.hosts));
    }
    for (k, v) in schedule.meta.iter() {
        out.push_str(&format!("meta,{k},{v}\n"));
    }
    for t in &schedule.tasks {
        let allocs = t
            .allocations
            .iter()
            .map(|a| format!("{}:{}", a.cluster, format_hostlist(&a.hosts)))
            .collect::<Vec<_>>()
            .join(";");
        out.push_str(&format!(
            "task,{},{},{},{},{}\n",
            t.id, t.kind, t.start, t.end, allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo
cluster,0,c0,8
cluster,1,c1,4
meta,alg,heft
task,t1,computation,0,2.5,0:0-7
task,t2,transfer,2.5,3.0,0:4-5;1:0-1
task,t3,computation,3,4,1:0+2-3
";

    #[test]
    fn parses_sample() {
        let s = read_schedule_csv(SAMPLE).unwrap();
        assert_eq!(s.clusters.len(), 2);
        assert_eq!(s.tasks.len(), 3);
        assert_eq!(s.meta.get("alg"), Some("heft"));
        let t2 = s.task_by_id("t2").unwrap();
        assert_eq!(t2.allocations.len(), 2);
        let t3 = s.task_by_id("t3").unwrap();
        assert_eq!(t3.resource_count(), 3);
        assert!(!t3.allocations[0].hosts.is_contiguous());
    }

    #[test]
    fn roundtrip() {
        let s = read_schedule_csv(SAMPLE).unwrap();
        let text = write_schedule_csv(&s);
        assert_eq!(read_schedule_csv(&text).unwrap(), s);
    }

    #[test]
    fn hostlist_expressions() {
        assert_eq!(parse_hostlist("0-3").unwrap(), HostSet::contiguous(0, 4));
        assert_eq!(parse_hostlist("5").unwrap(), HostSet::contiguous(5, 1));
        assert_eq!(
            parse_hostlist("0-1+4-5").unwrap(),
            HostSet::from_hosts([0, 1, 4, 5])
        );
        assert_eq!(
            format_hostlist(&HostSet::from_hosts([0, 1, 4, 5])),
            "0-1+4-5"
        );
    }

    #[test]
    fn bad_lines_report_line_numbers() {
        let err = read_schedule_csv("cluster,0,c,4\nbogus,1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        for (hosts, msg) in [
            ("5-2", "line 3: descending host range \"5-2\""),
            (
                "0-4294967295",
                "line 3: host range \"0-4294967295\" ends past host index 4294967295",
            ),
            ("x", "line 3: cannot parse host=\"x\" as a number"),
        ] {
            let src = format!("cluster,0,c,4\n# hosts\ntask,t,k,0,1,0:{hosts}\n");
            let err = read_schedule_csv(&src).unwrap_err().to_string();
            assert!(err.contains(msg), "{err}");
        }
    }

    #[test]
    fn descending_range_rejected() {
        assert!(parse_hostlist("5-2").is_err());
    }

    /// Host index `u32::MAX` would make the range end wrap, so it is an
    /// error in either form; the index below it is the last one.
    #[test]
    fn ranges_past_u32_max_rejected() {
        for expr in ["0-4294967295", "4294967295", "1+7-4294967295"] {
            let err = parse_hostlist(expr).unwrap_err().to_string();
            assert!(err.contains("ends past host index 4294967295"), "{err}");
        }
        assert_eq!(
            parse_hostlist("4294967294").unwrap(),
            HostSet::contiguous(u32::MAX - 1, 1)
        );
    }

    #[test]
    fn semantic_validation_applies() {
        let res = read_schedule_csv("cluster,0,c,2\ntask,t,x,0,1,0:0-7\n");
        assert!(res.is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = read_schedule_csv(SAMPLE).unwrap();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                read_schedule_csv_parallel(SAMPLE, threads).unwrap(),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_error_line_is_global() {
        let mut src = String::from("cluster,0,c,8\n");
        for i in 0..40 {
            src.push_str(&format!("task,t{i},x,0,1,0:0-3\n"));
        }
        src.push_str("bogus,1\n");
        for threads in [2usize, 5] {
            let err = read_schedule_csv_parallel(&src, threads).unwrap_err();
            assert!(err.to_string().contains("line 42"), "{err}");
        }
        // A bad host range in the last chunk names its global line.
        let src = src.replace("bogus,1\n", "task,w,x,0,1,0:7-3\n");
        for threads in [2usize, 5] {
            let err = read_schedule_csv_parallel(&src, threads).unwrap_err();
            assert!(
                err.to_string().contains("line 42: descending host range"),
                "{err}"
            );
        }
    }
}
