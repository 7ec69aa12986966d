//! Shared driver for the line-oriented readers (CSV, JSON lines), with a
//! sequential and a parallel chunked mode behind one entry point.
//!
//! Both formats are "one record per line": each line independently parses
//! to a [`Record`] (or to nothing, for blanks/comments), and the schedule
//! is the in-order application of the records to a `ScheduleBuilder`.
//! That makes them trivially chunkable — split the document at line
//! boundaries ([`jedule_core::line_chunks`]), parse chunks concurrently,
//! splice the record lists back in chunk order. Because application order
//! is preserved and every worker knows its chunk's global first line
//! number, the result (schedule, error, and error line number alike) is
//! identical to a sequential scan.

use crate::error::IoError;
use jedule_core::parallel::{map_chunks, text_workers};
use jedule_core::{line_chunks, obs, Schedule, ScheduleBuilder, Task};

/// One parsed line of a line-oriented schedule document.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    Cluster { id: u32, name: String, hosts: u32 },
    Meta { key: String, value: String },
    Task(Task),
}

fn apply(b: ScheduleBuilder, rec: Record) -> ScheduleBuilder {
    match rec {
        Record::Cluster { id, name, hosts } => b.cluster(id, name, hosts),
        Record::Meta { key, value } => b.meta(key, value),
        Record::Task(t) => b.task(t),
    }
}

/// Parses a line-oriented document by applying `parse_line(raw, ln)` to
/// every line (1-based global `ln`) and building the schedule from the
/// yielded records in document order.
///
/// `threads` follows the workspace knob convention: `0` = auto (all
/// cores, sequential for small inputs), `1` = strictly sequential, `n` =
/// exactly `n` workers. Every mode produces the same schedule, and a bad
/// line is reported with the same global line number in every mode: the
/// workers stop at their chunk's first error and chunks are spliced in
/// line order, so the first error seen is the sequential one.
pub(crate) fn read_lines<F>(src: &str, threads: usize, parse_line: F) -> Result<Schedule, IoError>
where
    F: Fn(&str, usize) -> Result<Option<Record>, IoError> + Sync,
{
    let workers = text_workers(threads, src.len());
    let mut b = ScheduleBuilder::new();
    if workers <= 1 {
        for (i, raw) in src.lines().enumerate() {
            if let Some(rec) = parse_line(raw, i + 1)? {
                b = apply(b, rec);
            }
        }
        return Ok(b.build()?);
    }

    let parts = map_chunks("ingest.chunk", &line_chunks(src, workers), |c| {
        let mut recs = Vec::new();
        for (off, raw) in c.text.lines().enumerate() {
            if let Some(rec) = parse_line(raw, c.first_line + off)? {
                recs.push(rec);
            }
        }
        Ok::<_, IoError>(recs)
    });
    {
        let _sp = obs::span("ingest.splice");
        for part in parts {
            for rec in part? {
                b = apply(b, rec);
            }
        }
    }
    Ok(b.build()?)
}
