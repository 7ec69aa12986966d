//! Standard Workload Format (SWF) parsing.
//!
//! The Parallel Workloads Archive stores traces as one line per job with
//! 18 whitespace-separated fields; header lines start with `;`. Missing
//! values are `-1`. Fields (1-based, per the PWA definition):
//!
//! ```text
//!  1 job number          7 used memory        13 group id
//!  2 submit time         8 requested procs    14 executable
//!  3 wait time           9 requested time     15 queue
//!  4 run time           10 requested memory   16 partition
//!  5 allocated procs    11 status             17 preceding job
//!  6 avg cpu time       12 user id            18 think time
//! ```

use jedule_core::parallel::{map_chunks, text_workers};
use jedule_core::{line_chunks, obs};
use std::fmt;
use std::io::BufRead;

/// One job record.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub id: i64,
    /// Seconds since trace start.
    pub submit: f64,
    pub wait: f64,
    pub run: f64,
    /// Allocated processors (falls back to requested when missing).
    pub procs: u32,
    pub user: i64,
    pub group: i64,
    pub queue: i64,
    pub status: i64,
}

impl Job {
    /// Start of execution.
    pub fn start(&self) -> f64 {
        self.submit + self.wait.max(0.0)
    }

    /// End of execution.
    pub fn end(&self) -> f64 {
        self.start() + self.run.max(0.0)
    }
}

/// Selected header metadata (`; Key: Value` lines).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwfHeader {
    pub computer: Option<String>,
    pub max_nodes: Option<u32>,
    pub max_procs: Option<u32>,
    pub raw: Vec<(String, String)>,
}

/// Parse error with line number.
#[derive(Debug)]
pub struct SwfError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SwfError {}

/// Parses one numeric SWF field. The `-1` missing marker and plain
/// unsigned integers — the overwhelming majority of SWF fields — skip
/// the general float machinery; everything else (decimals, exponents,
/// junk) falls through to `str::parse`. Up to 15 digits the integer fits
/// in 53 bits, so the `u64 → f64` conversion is exact and the result is
/// bit-identical to `tok.parse::<f64>().unwrap_or(-1.0)`.
fn parse_field(tok: &str) -> f64 {
    if tok == "-1" {
        return -1.0;
    }
    let b = tok.as_bytes();
    if !b.is_empty() && b.len() <= 15 && b.iter().all(u8::is_ascii_digit) {
        let mut v: u64 = 0;
        for &c in b {
            v = v * 10 + u64::from(c - b'0');
        }
        return v as f64;
    }
    tok.parse().unwrap_or(-1.0)
}

/// Parses one SWF line (header comment or job record) into the
/// accumulators. Tokenizes into a fixed-size buffer — no per-line heap
/// allocation on the job path.
fn parse_swf_line(
    raw: &str,
    ln: usize,
    header: &mut SwfHeader,
    jobs: &mut Vec<Job>,
) -> Result<(), SwfError> {
    let line = raw.trim();
    if line.is_empty() {
        return Ok(());
    }
    if let Some(comment) = line.strip_prefix(';') {
        if let Some((k, v)) = comment.split_once(':') {
            let key = k.trim().to_string();
            let value = v.trim().to_string();
            match key.as_str() {
                "Computer" => header.computer = Some(value.clone()),
                "MaxNodes" => header.max_nodes = value.parse().ok(),
                "MaxProcs" => header.max_procs = value.parse().ok(),
                _ => {}
            }
            header.raw.push((key, value));
        }
        return Ok(());
    }

    // The PWA definition has 18 fields; tolerate (and ignore) extras.
    let mut f: [&str; 18] = [""; 18];
    let mut n = 0usize;
    for tok in line.split_whitespace() {
        if n == f.len() {
            break;
        }
        f[n] = tok;
        n += 1;
    }
    if n < 5 {
        return Err(SwfError {
            line: ln,
            msg: format!("expected ≥5 fields, found {n}"),
        });
    }
    let get = |i: usize| -> f64 {
        if i < n {
            parse_field(f[i])
        } else {
            -1.0
        }
    };
    let id = get(0) as i64;
    let submit = get(1);
    let wait = get(2);
    let run = get(3);
    let mut procs = get(4);
    if procs <= 0.0 {
        procs = get(7); // fall back to requested processors
    }
    if procs <= 0.0 || run < 0.0 || submit < 0.0 {
        return Ok(()); // unusable record, skipped like other PWA consumers
    }
    jobs.push(Job {
        id,
        submit,
        wait: wait.max(0.0),
        run,
        procs: procs as u32,
        user: get(11) as i64,
        group: get(12) as i64,
        queue: get(14) as i64,
        status: get(10) as i64,
    });
    Ok(())
}

/// Parses SWF text into header metadata and jobs. Jobs with unusable
/// essential fields (no processors, negative run time with no wait) are
/// skipped rather than failing the whole trace, mirroring how PWA
/// consumers treat dirty records.
pub fn parse_swf(src: &str) -> Result<(SwfHeader, Vec<Job>), SwfError> {
    let _s = obs::span("ingest.swf");
    obs::count("ingest.bytes", src.len() as u64);
    let parsed = parse_swf_chunk(src, 1)?;
    obs::count("ingest.swf_jobs", parsed.1.len() as u64);
    Ok(parsed)
}

/// Parses one line-aligned chunk of an SWF document whose first line has
/// the given 1-based global line number. [`parse_swf`] is the
/// whole-document special case (`first_line == 1`).
fn parse_swf_chunk(text: &str, first_line: usize) -> Result<(SwfHeader, Vec<Job>), SwfError> {
    let mut header = SwfHeader::default();
    // A job line is ~60 bytes; pre-size to avoid regrowth on big traces.
    let mut jobs = Vec::with_capacity(text.len() / 60);
    for (off, raw) in text.lines().enumerate() {
        parse_swf_line(raw, first_line + off, &mut header, &mut jobs)?;
    }
    Ok((header, jobs))
}

/// Parallel [`parse_swf`]: splits `src` at line boundaries into
/// ~`threads` chunks, parses them concurrently, and splices the results
/// in order. Output is identical to the sequential parser — job order,
/// header-line handling (later `; Key: Value` lines overwrite earlier
/// ones, exactly as a sequential scan applies them), skipped dirty
/// records, and the global line number of the first error all match.
///
/// `threads` follows the workspace knob convention: `0` = auto (all
/// cores, falling back to sequential for small inputs), `1` = the
/// sequential code path, `n` = exactly `n` workers.
pub fn parse_swf_parallel(src: &str, threads: usize) -> Result<(SwfHeader, Vec<Job>), SwfError> {
    let workers = text_workers(threads, src.len());
    if workers <= 1 {
        return parse_swf(src);
    }
    let _s = obs::span("ingest.swf");
    obs::count("ingest.bytes", src.len() as u64);
    let parts = map_chunks("ingest.chunk", &line_chunks(src, workers), |c| {
        parse_swf_chunk(c.text, c.first_line)
    });

    // Splice in chunk order. Workers stop at their first bad line, and
    // chunks are ordered by line, so the first error seen here is the
    // error a sequential scan would have reported.
    let mut merged = SwfHeader::default();
    let mut jobs: Vec<Job> = Vec::new();
    for part in parts {
        let (h, j) = part?;
        // Replay raw header entries through the same per-line logic so
        // last-write-wins (and unparseable values resetting MaxNodes /
        // MaxProcs to None) behave exactly as in a sequential scan.
        for (k, v) in h.raw {
            match k.as_str() {
                "Computer" => merged.computer = Some(v.clone()),
                "MaxNodes" => merged.max_nodes = v.parse().ok(),
                "MaxProcs" => merged.max_procs = v.parse().ok(),
                _ => {}
            }
            merged.raw.push((k, v));
        }
        if jobs.is_empty() {
            jobs = j; // keep the (pre-sized) first chunk's buffer
        } else {
            jobs.extend(j);
        }
    }
    obs::count("ingest.swf_jobs", jobs.len() as u64);
    Ok((merged, jobs))
}

/// Streaming variant of [`parse_swf`]: reads line by line from any
/// buffered source, reusing one line buffer, so a million-job trace never
/// needs the whole file in memory at once.
pub fn parse_swf_reader<R: BufRead>(mut src: R) -> Result<(SwfHeader, Vec<Job>), SwfError> {
    let mut header = SwfHeader::default();
    let mut jobs = Vec::new();
    let mut buf = String::new();
    let mut ln = 0usize;
    loop {
        buf.clear();
        ln += 1;
        let n = src.read_line(&mut buf).map_err(|e| SwfError {
            line: ln,
            msg: format!("read error: {e}"),
        })?;
        if n == 0 {
            return Ok((header, jobs));
        }
        parse_swf_line(&buf, ln, &mut header, &mut jobs)?;
    }
}

/// Opens and streams an SWF trace from disk (see [`parse_swf_reader`]).
pub fn parse_swf_file(
    path: impl AsRef<std::path::Path>,
) -> Result<(SwfHeader, Vec<Job>), SwfError> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| SwfError {
        line: 0,
        msg: format!("cannot open {}: {e}", path.as_ref().display()),
    })?;
    parse_swf_reader(std::io::BufReader::new(file))
}

/// Keeps the jobs that *finished* within `[day_start, day_start + 86400)`
/// — the paper's "all jobs that finished on 02/02" selection. Takes the
/// vector by value and filters in place: on the million-job bird's-eye
/// path this drops the per-job clone the old `&[Job]` signature paid.
pub fn filter_finished_on_day(mut jobs: Vec<Job>, day_start: f64) -> Vec<Job> {
    jobs.retain(|j| {
        let e = j.end();
        e >= day_start && e < day_start + 86_400.0
    });
    jobs
}

/// Serializes jobs back to SWF (for round-trip tests and export).
///
/// Every header line the parser recorded (`SwfHeader.raw`) is emitted in
/// original order, so `; Note:`-style metadata survives a round-trip.
/// The Computer / MaxNodes / MaxProcs conveniences are written explicitly
/// only when set programmatically (i.e. absent from `raw`).
pub fn write_swf(header: &SwfHeader, jobs: &[Job]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let has = |key: &str| header.raw.iter().any(|(k, _)| k == key);
    if let Some(c) = &header.computer {
        if !has("Computer") {
            let _ = writeln!(out, "; Computer: {c}");
        }
    }
    if let Some(n) = header.max_nodes {
        if !has("MaxNodes") {
            let _ = writeln!(out, "; MaxNodes: {n}");
        }
    }
    if let Some(p) = header.max_procs {
        if !has("MaxProcs") {
            let _ = writeln!(out, "; MaxProcs: {p}");
        }
    }
    for (k, v) in &header.raw {
        let _ = writeln!(out, "; {k}: {v}");
    }
    for j in jobs {
        let _ = writeln!(
            out,
            "{} {} {} {} {} -1 -1 {} -1 -1 {} {} {} -1 {} -1 -1 -1",
            j.id, j.submit, j.wait, j.run, j.procs, j.procs, j.status, j.user, j.group, j.queue
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: LLNL Thunder
; MaxNodes: 1024
; MaxProcs: 4096
; Note: demo extract
1 0 10 3600 64 -1 -1 64 7200 -1 1 6447 5 -1 2 -1 -1 -1
2 100 0 1800 128 -1 -1 128 3600 -1 1 1234 5 -1 2 -1 -1 -1
3 200 50 -1 32 -1 -1 32 100 -1 0 9 9 -1 1 -1 -1 -1
4 300 0 60 -1 -1 -1 16 100 -1 1 7 7 -1 1 -1 -1 -1
";

    #[test]
    fn parses_header() {
        let (h, _) = parse_swf(SAMPLE).unwrap();
        assert_eq!(h.computer.as_deref(), Some("LLNL Thunder"));
        assert_eq!(h.max_nodes, Some(1024));
        assert_eq!(h.max_procs, Some(4096));
        assert!(h.raw.iter().any(|(k, _)| k == "Note"));
    }

    #[test]
    fn parses_jobs_and_skips_dirty() {
        let (_, jobs) = parse_swf(SAMPLE).unwrap();
        // Job 3 has run = -1 → skipped; job 4 falls back to requested 16.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[0].procs, 64);
        assert_eq!(jobs[0].user, 6447);
        assert_eq!(jobs[2].procs, 16);
    }

    #[test]
    fn start_end_math() {
        let (_, jobs) = parse_swf(SAMPLE).unwrap();
        assert_eq!(jobs[0].start(), 10.0);
        assert_eq!(jobs[0].end(), 3610.0);
    }

    #[test]
    fn malformed_line_errors_with_position() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn day_filter() {
        let mk = |submit: f64, run: f64| Job {
            id: 0,
            submit,
            wait: 0.0,
            run,
            procs: 1,
            user: 0,
            group: 0,
            queue: 0,
            status: 1,
        };
        let jobs = vec![
            mk(0.0, 100.0),       // ends day 0
            mk(86_000.0, 1000.0), // ends day 1
            mk(172_700.0, 200.0), // ends day 2
        ];
        assert_eq!(filter_finished_on_day(jobs.clone(), 0.0).len(), 1);
        assert_eq!(filter_finished_on_day(jobs.clone(), 86_400.0).len(), 1);
        let d1 = filter_finished_on_day(jobs, 86_400.0);
        assert_eq!(d1[0].submit, 86_000.0);
    }

    #[test]
    fn roundtrip_via_writer() {
        let (h, jobs) = parse_swf(SAMPLE).unwrap();
        let text = write_swf(&h, &jobs);
        let (h2, jobs2) = parse_swf(&text).unwrap();
        // The full header — including `; Note:`-style lines the old writer
        // dropped — must survive the round-trip, in order.
        assert_eq!(h2, h);
        assert_eq!(
            h2.raw.iter().find(|(k, _)| k == "Note"),
            Some(&("Note".to_string(), "demo extract".to_string()))
        );
        assert_eq!(jobs2, jobs);
    }

    #[test]
    fn writer_emits_programmatic_header_once() {
        // Parsed headers: big-3 come from raw, no duplicate lines.
        let (h, _) = parse_swf(SAMPLE).unwrap();
        let text = write_swf(&h, &[]);
        assert_eq!(text.matches("; Computer:").count(), 1);
        // Programmatic headers (empty raw) still serialize the big 3.
        let h = SwfHeader {
            computer: Some("X".into()),
            max_nodes: Some(4),
            max_procs: None,
            raw: Vec::new(),
        };
        let text = write_swf(&h, &[]);
        assert_eq!(text, "; Computer: X\n; MaxNodes: 4\n");
    }

    #[test]
    fn empty_input() {
        let (h, jobs) = parse_swf("").unwrap();
        assert!(jobs.is_empty());
        assert!(h.computer.is_none());
    }

    #[test]
    fn reader_matches_string_parser() {
        let (h_str, j_str) = parse_swf(SAMPLE).unwrap();
        let (h_rd, j_rd) = parse_swf_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(h_rd, h_str);
        assert_eq!(j_rd, j_str);
    }

    #[test]
    fn reader_reports_line_numbers() {
        let err = parse_swf_reader("; ok: header\n1 2 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn reader_handles_crlf_and_no_trailing_newline() {
        let src = "; Computer: X\r\n1 0 10 3600 64\r\n2 100 0 1800 128";
        let (h, jobs) = parse_swf_reader(src.as_bytes()).unwrap();
        assert_eq!(h.computer.as_deref(), Some("X"));
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].procs, 128);
    }

    #[test]
    fn extra_fields_tolerated() {
        let src = "1 0 10 3600 64 -1 -1 64 7200 -1 1 6447 5 -1 2 -1 -1 -1 99 99\n";
        let (_, jobs) = parse_swf(src).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].procs, 64);
    }

    #[test]
    fn fast_field_path_matches_parse() {
        for tok in [
            "-1",
            "0",
            "1",
            "42",
            "999999999999999",
            "1000000000000000",
            "18446744073709551616",
            "3.5",
            "-2",
            "1e3",
            "0.0",
            "junk",
            "",
            "007",
            "+5",
            "1.",
            "NaN-ish",
        ] {
            let slow = tok.parse::<f64>().unwrap_or(-1.0);
            let fast = parse_field(tok);
            assert!(
                fast == slow || (fast.is_nan() && slow.is_nan()),
                "token {tok:?}: fast {fast} vs parse {slow}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_on_sample() {
        let seq = parse_swf(SAMPLE).unwrap();
        for threads in [1usize, 2, 3, 4, 9] {
            let par = parse_swf_parallel(SAMPLE, threads).unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn parallel_error_line_is_global() {
        // The bad record lands in a late chunk; its reported line number
        // must still be the global one.
        let mut src = String::from("; Computer: X\n");
        for i in 0..100 {
            src.push_str(&format!("{i} 0 10 3600 64\n"));
        }
        src.push_str("bad line\n");
        let seq = parse_swf(&src).unwrap_err();
        assert_eq!(seq.line, 102);
        for threads in [2usize, 4, 7] {
            let par = parse_swf_parallel(&src, threads).unwrap_err();
            assert_eq!(par.line, seq.line, "threads {threads}");
        }
    }

    #[test]
    fn parallel_header_last_write_wins() {
        // Later header lines overwrite earlier ones even when they fall
        // into different chunks; an unparseable MaxNodes resets to None.
        let mut src = String::from("; MaxNodes: 10\n; Computer: A\n");
        for i in 0..50 {
            src.push_str(&format!("{i} 0 10 3600 64\n"));
        }
        src.push_str("; Computer: B\n; MaxNodes: bogus\n");
        let seq = parse_swf(&src).unwrap();
        assert_eq!(seq.0.computer.as_deref(), Some("B"));
        assert_eq!(seq.0.max_nodes, None);
        for threads in [2usize, 3, 8] {
            let par = parse_swf_parallel(&src, threads).unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }
}
