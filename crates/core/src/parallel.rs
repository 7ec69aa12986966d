//! Shared thread-count policy and fan-out for the parallel hot paths
//! (composite sweep, layout classification, LOD binning, rasterization,
//! PNG encoding, chunked ingest).
//!
//! Every parallel stage in the workspace takes a `threads` knob with the
//! same convention: `0` means "use all available parallelism", `1` forces
//! the sequential code path (byte-identical to the pre-parallel
//! implementation), and any other value is an explicit worker count.
//!
//! The "all available" case can be pinned from outside with the
//! `JEDULE_THREADS` environment variable (read once per process). CI
//! uses it to run the whole test suite through both the sequential and
//! the parallel code paths without touching any call site.
//!
//! [`map_chunks`] is the one fan-out: every parallel stage maps its
//! chunks through it, so worker threads, their trace spans and the
//! ordered join are written once.

use crate::obs;
use std::sync::OnceLock;

fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(v) = std::env::var("JEDULE_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves a `threads` knob to an actual worker count (≥ 1). A knob of
/// `0` resolves to `JEDULE_THREADS` when set, else the machine's
/// available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        auto_threads()
    }
}

/// Workers for a stage that splits an image of `rows` pixel rows into
/// bands. An explicit `threads` is honored, capped so every band holds a
/// row; auto mode (`0`) uses at most one worker per 64 rows, below which
/// a band costs more to set up than it saves.
pub fn row_workers(threads: usize, rows: usize) -> usize {
    if threads == 0 {
        effective_threads(0).min(rows / 64)
    } else {
        threads.min(rows)
    }
    .max(1)
}

/// Below this many bytes, auto mode keeps a line-oriented reader
/// sequential: chunking, spawning and splicing would cost more than the
/// workers save.
const PARALLEL_MIN_BYTES: usize = 1 << 20;

/// Workers for a line-oriented reader over `len` bytes of text: one in
/// auto mode (`0`) below 1 MiB, else [`effective_threads`]. An explicit
/// `threads ≥ 2` always chunks, which keeps the parallel path testable
/// on tiny inputs.
pub fn text_workers(threads: usize, len: usize) -> usize {
    if threads == 0 && len < PARALLEL_MIN_BYTES {
        1
    } else {
        effective_threads(threads)
    }
}

/// Maps `f` over `chunks` and returns the results in chunk order. A
/// single chunk runs inline on the calling thread. More chunks run on one
/// scoped worker each; every worker is attached to the caller's
/// [`obs`] collector inside a span named `span`, which nests under the
/// span open where `map_chunks` was called. A worker's panic resumes on
/// the caller.
pub fn map_chunks<T, R, F>(span: &'static str, chunks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if chunks.len() <= 1 {
        return chunks.iter().map(f).collect();
    }
    let handle = obs::handle();
    std::thread::scope(|s| {
        let workers: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let (handle, f) = (&handle, &f);
                s.spawn(move || {
                    let _att = handle.attach();
                    let _sp = obs::span_with(span, || format!("chunk {i}"));
                    f(chunk)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Splits `n` work items into at most `workers` contiguous chunk bounds
/// `(start, end)`, each non-empty, preserving order. Used so parallel
/// stages can merge worker results deterministically (chunks are always
/// formed and concatenated in index order, whatever the worker count).
pub fn chunk_bounds(n: usize, workers: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// One chunk of a line-oriented document: the text slice plus the
/// 1-based global line number of its first line, so chunk-local parsers
/// can report errors with the same positions a sequential scan would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineChunk<'a> {
    /// Global line number (1-based) of the chunk's first line.
    pub first_line: usize,
    /// The chunk text. Non-final chunks always end just after a `'\n'`.
    pub text: &'a str,
}

/// Splits `src` at line boundaries into at most `workers` contiguous,
/// non-empty chunks, in order, covering the whole string. Boundaries
/// fall only just after a `'\n'` byte, so every line — including its
/// `\r\n` ending — lives in exactly one chunk, and the concatenation of
/// `chunk.text.lines()` over all chunks equals `src.lines()` exactly
/// (a document without a trailing newline keeps its final partial line
/// in the last chunk). Each chunk carries the global line number of its
/// first line so chunk-local parsing can report exact positions.
pub fn line_chunks(src: &str, workers: usize) -> Vec<LineChunk<'_>> {
    let n = src.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1);
    let target = n.div_ceil(workers);
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut first_line = 1usize;
    while start < n {
        let mut end = (start + target).min(n);
        if end < n {
            // Extend to the next line boundary (just past the '\n').
            match bytes[end..].iter().position(|&b| b == b'\n') {
                Some(off) => end += off + 1,
                None => end = n,
            }
        }
        // '\n' is ASCII, so start/end are always char boundaries.
        out.push(LineChunk {
            first_line,
            text: &src[start..end],
        });
        first_line += bytes[start..end].iter().filter(|&&b| b == b'\n').count();
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves() {
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn map_chunks_keeps_chunk_order() {
        let chunks: Vec<usize> = (0..7).collect();
        let out = map_chunks("test.chunk", &chunks, |&i| {
            // Later chunks finish first.
            std::thread::sleep(std::time::Duration::from_millis((7 - i) as u64));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        assert!(map_chunks("test.chunk", &[] as &[usize], |&i| i).is_empty());
    }

    #[test]
    fn single_chunk_runs_inline_without_a_span() {
        let col = obs::Collector::new();
        let _g = col.install();
        let caller = std::thread::current().id();
        let out = map_chunks("test.chunk", &[5], |&x| (x, std::thread::current().id()));
        assert_eq!(out, vec![(5, caller)]);
        assert!(col.report().spans.is_empty());
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_chunks("test.chunk", &[1, 2, 3], |&x| {
                if x == 2 {
                    panic!("chunk two failed");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"chunk two failed"));
    }

    #[test]
    fn worker_spans_land_in_the_callers_collector() {
        let col = obs::Collector::new();
        let _g = col.install();
        let stage = obs::span("stage");
        let stage_id = stage.id();
        let caller = std::thread::current().id();
        let threads = map_chunks("test.chunk", &[0, 1, 2], |_| std::thread::current().id());
        drop(stage);
        assert!(threads.iter().all(|&t| t != caller));
        let rep = col.report();
        let workers: Vec<_> = rep
            .spans
            .iter()
            .filter(|s| s.name == "test.chunk")
            .collect();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|s| s.parent == stage_id));
    }

    #[test]
    fn worker_rules() {
        assert_eq!(row_workers(3, 2), 2);
        assert_eq!(row_workers(1, 1000), 1);
        assert_eq!(row_workers(0, 63), 1);
        assert_eq!(row_workers(0, 0), 1);
        assert_eq!(text_workers(0, PARALLEL_MIN_BYTES - 1), 1);
        assert_eq!(text_workers(2, 10), 2);
        assert_eq!(text_workers(0, PARALLEL_MIN_BYTES), effective_threads(0));
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        for n in [0usize, 1, 2, 5, 16, 100, 1024] {
            for w in [1usize, 2, 3, 4, 7, 8, 200] {
                let bounds = chunk_bounds(n, w);
                if n == 0 {
                    assert!(bounds.is_empty());
                    continue;
                }
                assert!(bounds.len() <= w.min(n));
                assert_eq!(bounds.first().unwrap().0, 0);
                assert_eq!(bounds.last().unwrap().1, n);
                for pair in bounds.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "contiguous");
                }
                for &(s, e) in &bounds {
                    assert!(e > s, "non-empty chunk");
                }
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let bounds = chunk_bounds(10, 3);
        let sizes: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn line_chunks_partition_lines_exactly() {
        let docs = [
            "",
            "one line, no newline",
            "a\nb\nc\n",
            "a\r\nb\r\nno trailing",
            "\n\n\n",
            "x\ny",
            "héllo ☃\nwörld\n𝄞 music",
        ];
        for src in docs {
            for workers in [1usize, 2, 3, 4, 7, 100] {
                let chunks = line_chunks(src, workers);
                if src.is_empty() {
                    assert!(chunks.is_empty());
                    continue;
                }
                assert!(chunks.len() <= workers);
                // Chunks concatenate back to the source.
                let joined: String = chunks.iter().map(|c| c.text).collect();
                assert_eq!(joined, src, "workers {workers}");
                // Lines partition exactly, and first_line is the running
                // global line number.
                let mut all_lines = Vec::new();
                let mut expect_first = 1usize;
                for c in &chunks {
                    assert!(!c.text.is_empty());
                    assert_eq!(c.first_line, expect_first, "src {src:?} workers {workers}");
                    let lines: Vec<&str> = c.text.lines().collect();
                    expect_first += lines.len();
                    all_lines.extend(lines);
                }
                assert_eq!(all_lines, src.lines().collect::<Vec<_>>());
                // Non-final chunks end on a line boundary.
                for c in &chunks[..chunks.len() - 1] {
                    assert!(c.text.ends_with('\n'));
                }
            }
        }
    }
}
