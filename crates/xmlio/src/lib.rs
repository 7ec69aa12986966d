//! # jedule-xmlio
//!
//! Input/output formats of the Jedule reproduction.
//!
//! Jedule is bundled with a parser for its custom XML input format and
//! "one can also extend Jedule with a different parser … not necessarily
//! in XML" (paper, §II-C1). Accordingly this crate provides:
//!
//! * `xml` — a from-scratch, dependency-free XML subset reader and writer
//!   (elements, attributes, comments, CDATA, character references). One
//!   iterative pull tokenizer borrows names and values from the source,
//!   caps nesting at [`xml::MAX_DEPTH`], and computes an error's
//!   line/column from its byte offset only when the error is built. It
//!   has two consumers: [`xml::parse`] builds the element tree for color
//!   maps, DAX and platform files, and `jedule_xml` reads schedules.
//! * `jedule_xml` — the Jedule schedule format of Fig. 1
//!   (`<node_statistics>` with `<node_property>`, `<configuration>`,
//!   `<host_lists>`, plus platform header and `<meta_info>`).
//!   [`read_schedule`] builds the schedule in the same single pass over
//!   the tokens, with no element tree, and rejects exactly what a walk
//!   over [`xml::parse`]'s tree rejects.
//! * `cmap_xml` — the color-map format of Fig. 2 (`<cmap>`, `<task>`,
//!   `<color type="fg|bg" rgb="RRGGBB">`, `<composite>`).
//! * `parser` — the pluggable [`ScheduleParser`] trait with a format
//!   registry, plus alternative built-in formats: a CSV dialect
//!   (`csvfmt`), JSON lines (`jsonl`, backed by the `json` mini-parser),
//!   and Chrome trace-event JSON (`chrome`) so profiles exported by
//!   `jedule --profile` can be rendered back as schedules.

pub mod chrome;
pub mod cmap_xml;
pub mod csvfmt;
pub mod error;
pub(crate) mod ingest;
pub mod jedule_xml;
pub mod json;
pub mod jsonl;
pub mod parser;
pub mod xml;

/// True for a whole-line XML-style comment (`<!-- ... -->`). Converter
/// tools prepend such banner lines to exports; the line-oriented CSV and
/// JSONL readers skip them like `#` comments so a banner never turns a
/// parsable file into a parse error (see `parser::parse_any`).
pub(crate) fn is_banner_comment(line: &str) -> bool {
    line.starts_with("<!--") && line.ends_with("-->")
}

pub use chrome::read_chrome_trace;
pub use cmap_xml::{read_colormap, write_colormap_string};
pub use csvfmt::{read_schedule_csv, read_schedule_csv_parallel, write_schedule_csv};
pub use error::IoError;
pub use jedule_xml::{read_schedule, read_schedule_file, write_schedule, write_schedule_string};
pub use jsonl::{read_schedule_jsonl, read_schedule_jsonl_parallel, write_schedule_jsonl};
pub use parser::{detect_format, parse_any, parse_any_parallel, Format, ScheduleParser};
