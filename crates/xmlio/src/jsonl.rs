//! Alternative schedule input format: JSON lines.
//!
//! One JSON object per line; the `rec` field selects the record type:
//!
//! ```text
//! {"rec":"cluster","id":0,"name":"c0","hosts":8}
//! {"rec":"meta","name":"alg","value":"cpa"}
//! {"rec":"task","id":"t1","type":"computation","start":0.0,"end":2.5,
//!  "allocations":[{"cluster":0,"hosts":[[0,8]]}]}
//! ```
//!
//! `hosts` is a list of `[start, nb]` ranges, mirroring the XML
//! `<hosts start nb/>` elements.

use crate::error::IoError;
use crate::ingest::{self, Record};
use crate::json::{obj, parse, Json};
use crate::xml::MAX_DEPTH;
use jedule_core::{Allocation, HostRange, HostSet, Schedule, Task};

fn field_str<'a>(v: &'a Json, key: &str, line: usize) -> Result<&'a str, IoError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| IoError::format(format!("line {line}: missing string field {key:?}")))
}

fn field_num(v: &Json, key: &str, line: usize) -> Result<f64, IoError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| IoError::format(format!("line {line}: missing numeric field {key:?}")))
}

/// Parses one JSONL line into a [`Record`] (`None` for blank/comment
/// lines). `ln` is the 1-based global line number used in errors.
///
/// The borrowed-slice fast path handles the overwhelmingly common
/// shapes without building a [`Json`] tree (no `BTreeMap`, no per-key
/// `String`); anything it does not fully recognize — escapes, odd
/// nesting, every error case — falls through to the generic parser, so
/// accepted inputs and error messages are identical either way
/// (property-tested below).
fn jsonl_record(raw: &str, ln: usize) -> Result<Option<Record>, IoError> {
    let line = raw.trim();
    // Blank lines, `#` comments and XML-style `<!-- ... -->` banner
    // lines (as emitted by converters) carry no records.
    if line.is_empty() || line.starts_with('#') || crate::is_banner_comment(line) {
        return Ok(None);
    }
    if let Some(rec) = fast::record(line) {
        return Ok(Some(rec));
    }
    generic_record(line, ln).map(Some)
}

/// The tree-building reference parser the fast path defers to.
fn generic_record(line: &str, ln: usize) -> Result<Record, IoError> {
    let v = parse(line)?;
    match field_str(&v, "rec", ln)? {
        "cluster" => {
            let id = field_num(&v, "id", ln)? as u32;
            let hosts = field_num(&v, "hosts", ln)? as u32;
            let name = v
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("cluster-{id}"));
            Ok(Record::Cluster { id, name, hosts })
        }
        "meta" => Ok(Record::Meta {
            key: field_str(&v, "name", ln)?.to_string(),
            value: field_str(&v, "value", ln)?.to_string(),
        }),
        "task" => {
            let mut task = Task::new(
                field_str(&v, "id", ln)?,
                field_str(&v, "type", ln)?,
                field_num(&v, "start", ln)?,
                field_num(&v, "end", ln)?,
            );
            let allocs = v.get("allocations").and_then(Json::as_arr).ok_or_else(|| {
                IoError::format(format!("line {ln}: task needs an allocations array"))
            })?;
            for a in allocs {
                let cluster = field_num(a, "cluster", ln)? as u32;
                let ranges = a.get("hosts").and_then(Json::as_arr).ok_or_else(|| {
                    IoError::format(format!("line {ln}: allocation needs a hosts array"))
                })?;
                let mut hosts = HostSet::new();
                for r in ranges {
                    let pair = r.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        IoError::format(format!("line {ln}: host range must be [start, nb]"))
                    })?;
                    let start = pair[0].as_f64().unwrap_or(-1.0);
                    let nb = pair[1].as_f64().unwrap_or(-1.0);
                    if start < 0.0 || nb < 0.0 {
                        return Err(IoError::format(format!(
                            "line {ln}: negative host range values"
                        )));
                    }
                    let range = HostRange::checked(start as u64, nb as u64).ok_or_else(|| {
                        IoError::format(format!(
                            "line {ln}: host range [{start}, {nb}] ends past host index {}",
                            u32::MAX
                        ))
                    })?;
                    hosts.insert_range(range);
                }
                task.allocations.push(Allocation::new(cluster, hosts));
            }
            if let Some(attrs) = v.get("attrs").and_then(Json::as_obj) {
                for (k, val) in attrs {
                    if let Some(s) = val.as_str() {
                        task.attrs.push((k.clone(), s.to_owned()));
                    }
                }
            }
            Ok(Record::Task(task))
        }
        other => Err(IoError::format(format!(
            "line {ln}: unknown record type {other:?}"
        ))),
    }
}

/// The allocation-lean line parser: scans the JSON object once with
/// borrowed string slices and builds the [`Record`] directly. Returns
/// `None` (→ the caller re-parses generically) for anything outside
/// the recognized subset: string escapes, duplicate known keys,
/// unexpected value shapes, and **every** case the generic path would
/// reject — so error reporting stays byte-identical.
mod fast {
    use super::*;

    pub fn record(line: &str) -> Option<Record> {
        let mut p = Scan {
            b: line.as_bytes(),
            i: 0,
        };
        // Collected fields; `Some` twice for the same key → bail so the
        // generic parser's last-wins semantics decide.
        let mut rec: Option<&str> = None;
        let mut id_str: Option<&str> = None;
        let mut id_num: Option<f64> = None;
        let mut kind: Option<&str> = None;
        let mut name: Option<&str> = None;
        let mut value: Option<&str> = None;
        let mut hosts_num: Option<f64> = None;
        let mut start: Option<f64> = None;
        let mut end: Option<f64> = None;
        let mut allocations: Option<Vec<Allocation>> = None;
        let mut attrs: Vec<(&str, &str)> = Vec::new();
        let mut saw_attrs = false;

        if !p.eat(b'{') {
            return None;
        }
        if !p.eat(b'}') {
            loop {
                let key = p.string()?;
                if !p.eat(b':') {
                    return None;
                }
                match key {
                    "rec" => set(&mut rec, p.string()?)?,
                    "id" => match p.peek()? {
                        b'"' => set(&mut id_str, p.string()?)?,
                        _ => set(&mut id_num, p.number()?)?,
                    },
                    "type" => set(&mut kind, p.string()?)?,
                    "name" => match p.peek()? {
                        b'"' => set(&mut name, p.string()?)?,
                        _ => p.skip_value(1)?, // non-string: generic treats as absent
                    },
                    "value" => set(&mut value, p.string()?)?,
                    "hosts" => match p.peek()? {
                        b'"' | b'[' | b'{' => p.skip_value(1)?, // not the cluster count
                        _ => set(&mut hosts_num, p.number()?)?,
                    },
                    "start" => set(&mut start, p.number()?)?,
                    "end" => set(&mut end, p.number()?)?,
                    "allocations" => {
                        if allocations.is_some() {
                            return None;
                        }
                        allocations = Some(p.allocations()?);
                    }
                    "attrs" => {
                        if saw_attrs {
                            return None;
                        }
                        saw_attrs = true;
                        match p.peek()? {
                            b'{' => p.attrs(&mut attrs)?,
                            _ => p.skip_value(1)?, // non-object: generic ignores it
                        }
                    }
                    _ => p.skip_value(1)?, // unknown fields are allowed and ignored
                }
                if p.eat(b',') {
                    continue;
                }
                if p.eat(b'}') {
                    break;
                }
                return None;
            }
        }
        p.ws();
        if p.i != p.b.len() {
            return None; // trailing content: generic reports it
        }

        match rec? {
            "cluster" => {
                let id = id_num? as u32;
                Some(Record::Cluster {
                    id,
                    name: name
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("cluster-{id}")),
                    hosts: hosts_num? as u32,
                })
            }
            "meta" => Some(Record::Meta {
                key: name?.to_string(),
                value: value?.to_string(),
            }),
            "task" => {
                let mut task = Task::new(id_str?, kind?, start?, end?);
                task.allocations = allocations?;
                // The generic path reads attrs out of a `BTreeMap`, so
                // they land sorted by key with duplicate keys collapsed
                // last-wins; replicate that exactly.
                attrs.sort_by_key(|&(k, _)| k);
                for (k, v) in attrs {
                    task.attrs.push((k.to_owned(), v.to_owned()));
                }
                Some(Record::Task(task))
            }
            _ => None,
        }
    }

    /// First write wins here — a second sighting of the same key bails
    /// the whole fast path (the generic parser's map semantics apply).
    fn set<T>(slot: &mut Option<T>, v: T) -> Option<()> {
        if slot.is_some() {
            return None;
        }
        *slot = Some(v);
        Some(())
    }

    struct Scan<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl<'a> Scan<'a> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.i += 1;
            }
        }

        /// Skips whitespace, then consumes `c` if it is next.
        fn eat(&mut self, c: u8) -> bool {
            self.ws();
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                return true;
            }
            false
        }

        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.b.get(self.i).copied()
        }

        /// A quoted string as a borrowed slice. Bails on escapes and on
        /// raw control characters (the generic parser owns both cases:
        /// unescaping needs an owned buffer, control chars are errors).
        fn string(&mut self) -> Option<&'a str> {
            if !self.eat(b'"') {
                return None;
            }
            let start = self.i;
            loop {
                match self.b.get(self.i)? {
                    b'"' => break,
                    b'\\' => return None,
                    c if *c < 0x20 => return None,
                    _ => self.i += 1,
                }
            }
            let s = &self.b[start..self.i];
            self.i += 1;
            // The line came in as &str, so any slice between ASCII
            // quotes is still valid UTF-8.
            std::str::from_utf8(s).ok()
        }

        /// A number, with the same accepted grammar and `f64` parse as
        /// the generic parser.
        fn number(&mut self) -> Option<f64> {
            self.ws();
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.b.get(self.i) == Some(&b'.') {
                self.i += 1;
                while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()?
                .parse()
                .ok()
        }

        /// `[{"cluster":n,"hosts":[[a,b],...]}, ...]` with unknown keys
        /// skipped. Bails on every malformed shape the generic parser
        /// rejects (missing fields, non-pair ranges, negative values).
        fn allocations(&mut self) -> Option<Vec<Allocation>> {
            if !self.eat(b'[') {
                return None;
            }
            let mut out = Vec::new();
            if self.eat(b']') {
                return Some(out);
            }
            loop {
                if !self.eat(b'{') {
                    return None;
                }
                let mut cluster: Option<f64> = None;
                let mut hosts: Option<HostSet> = None;
                if !self.eat(b'}') {
                    loop {
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return None;
                        }
                        match key {
                            "cluster" => set(&mut cluster, self.number()?)?,
                            "hosts" => {
                                if hosts.is_some() {
                                    return None;
                                }
                                hosts = Some(self.host_ranges()?);
                            }
                            _ => self.skip_value(3)?,
                        }
                        if self.eat(b',') {
                            continue;
                        }
                        if self.eat(b'}') {
                            break;
                        }
                        return None;
                    }
                }
                out.push(Allocation::new(cluster? as u32, hosts?));
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b']') {
                    return Some(out);
                }
                return None;
            }
        }

        /// `[[start, nb], ...]` into a [`HostSet`], bailing on negative
        /// values, on ranges past `u32::MAX` and on anything but
        /// two-number pairs.
        fn host_ranges(&mut self) -> Option<HostSet> {
            if !self.eat(b'[') {
                return None;
            }
            let mut hosts = HostSet::new();
            if self.eat(b']') {
                return Some(hosts);
            }
            loop {
                if !self.eat(b'[') {
                    return None;
                }
                let start = self.number()?;
                if !self.eat(b',') {
                    return None;
                }
                let nb = self.number()?;
                if !self.eat(b']') {
                    return None;
                }
                if start < 0.0 || nb < 0.0 {
                    return None;
                }
                hosts.insert_range(HostRange::checked(start as u64, nb as u64)?);
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b']') {
                    return Some(hosts);
                }
                return None;
            }
        }

        /// `{"k":"v", ...}`; string values collect (duplicate keys
        /// last-wins like a map insert), other values are skipped just
        /// like the generic path ignores them.
        fn attrs(&mut self, out: &mut Vec<(&'a str, &'a str)>) -> Option<()> {
            if !self.eat(b'{') {
                return None;
            }
            if self.eat(b'}') {
                return Some(());
            }
            loop {
                let key = self.string()?;
                if !self.eat(b':') {
                    return None;
                }
                if self.peek()? == b'"' {
                    let val = self.string()?;
                    match out.iter_mut().find(|(k, _)| *k == key) {
                        Some(slot) => slot.1 = val,
                        None => out.push((key, val)),
                    }
                } else {
                    self.skip_value(2)?;
                }
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b'}') {
                    return Some(());
                }
                return None;
            }
        }

        /// Skips one value of the recognized subset, nested inside
        /// `depth` arrays and objects; bails on anything the generic
        /// parser might still reject (escaped strings, bad literals,
        /// nesting past its cap) so validation always happens somewhere.
        fn skip_value(&mut self, depth: usize) -> Option<()> {
            let c = self.peek()?;
            if matches!(c, b'[' | b'{') && depth >= MAX_DEPTH {
                return None;
            }
            match c {
                b'"' => self.string().map(|_| ()),
                b'[' => {
                    self.i += 1;
                    if self.eat(b']') {
                        return Some(());
                    }
                    loop {
                        self.skip_value(depth + 1)?;
                        if self.eat(b',') {
                            continue;
                        }
                        if self.eat(b']') {
                            return Some(());
                        }
                        return None;
                    }
                }
                b'{' => {
                    self.i += 1;
                    if self.eat(b'}') {
                        return Some(());
                    }
                    loop {
                        self.string()?;
                        if !self.eat(b':') {
                            return None;
                        }
                        self.skip_value(depth + 1)?;
                        if self.eat(b',') {
                            continue;
                        }
                        if self.eat(b'}') {
                            return Some(());
                        }
                        return None;
                    }
                }
                b't' => self.lit(b"true"),
                b'f' => self.lit(b"false"),
                b'n' => self.lit(b"null"),
                _ => self.number().map(|_| ()),
            }
        }

        fn lit(&mut self, s: &[u8]) -> Option<()> {
            if self.b[self.i..].starts_with(s) {
                self.i += s.len();
                return Some(());
            }
            None
        }
    }
}

/// Reads a schedule from JSON-lines text.
pub fn read_schedule_jsonl(src: &str) -> Result<Schedule, IoError> {
    ingest::read_lines(src, 1, jsonl_record)
}

/// Parallel [`read_schedule_jsonl`]: chunked line-parallel ingest with
/// the workspace `threads` knob (`0` auto, `1` sequential, `n` workers).
/// Result and error reporting are identical to the sequential reader —
/// see the `ingest` module for why.
pub fn read_schedule_jsonl_parallel(src: &str, threads: usize) -> Result<Schedule, IoError> {
    ingest::read_lines(src, threads, jsonl_record)
}

/// Writes a schedule as JSON-lines text.
pub fn write_schedule_jsonl(schedule: &Schedule) -> String {
    let mut out = String::new();
    for c in &schedule.clusters {
        out.push_str(
            &obj([
                ("rec", Json::Str("cluster".into())),
                ("id", Json::Num(f64::from(c.id))),
                ("name", Json::Str(c.name.clone())),
                ("hosts", Json::Num(f64::from(c.hosts))),
            ])
            .to_string_compact(),
        );
        out.push('\n');
    }
    for (k, v) in schedule.meta.iter() {
        out.push_str(
            &obj([
                ("rec", Json::Str("meta".into())),
                ("name", Json::Str(k.into())),
                ("value", Json::Str(v.into())),
            ])
            .to_string_compact(),
        );
        out.push('\n');
    }
    for t in &schedule.tasks {
        let allocs: Vec<Json> = t
            .allocations
            .iter()
            .map(|a| {
                let ranges: Vec<Json> = a
                    .hosts
                    .ranges()
                    .iter()
                    .map(|r| {
                        Json::Arr(vec![
                            Json::Num(f64::from(r.start)),
                            Json::Num(f64::from(r.nb)),
                        ])
                    })
                    .collect();
                obj([
                    ("cluster", Json::Num(f64::from(a.cluster))),
                    ("hosts", Json::Arr(ranges)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("rec", Json::Str("task".into())),
            ("id", Json::Str(t.id.clone())),
            ("type", Json::Str(t.kind.clone())),
            ("start", Json::Num(t.start)),
            ("end", Json::Num(t.end)),
            ("allocations", Json::Arr(allocs)),
        ];
        if !t.attrs.is_empty() {
            fields.push((
                "attrs",
                Json::Obj(
                    t.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        out.push_str(&obj(fields).to_string_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::ScheduleBuilder;

    fn sample() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .meta("alg", "mcpa")
            .task(
                Task::new("a", "computation", 0.0, 1.5)
                    .on(Allocation::contiguous(0, 0, 4))
                    .with_attr("level", "2"),
            )
            .task(
                Task::new("b", "transfer", 1.5, 2.0)
                    .on(Allocation::new(0, HostSet::from_hosts([0, 2, 5]))),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let text = write_schedule_jsonl(&s);
        assert_eq!(read_schedule_jsonl(&text).unwrap(), s);
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let s = sample();
        let text = format!("# header\n\n{}", write_schedule_jsonl(&s));
        assert_eq!(read_schedule_jsonl(&text).unwrap(), s);
    }

    #[test]
    fn missing_fields_report_line() {
        let err = read_schedule_jsonl("{\"rec\":\"cluster\",\"id\":0}\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn unknown_record_rejected() {
        assert!(read_schedule_jsonl("{\"rec\":\"frob\"}\n").is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        let text = format!("# banner\n\n{}", write_schedule_jsonl(&sample()));
        let seq = read_schedule_jsonl(&text).unwrap();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                read_schedule_jsonl_parallel(&text, threads).unwrap(),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_error_line_is_global() {
        let mut src = String::from("{\"rec\":\"cluster\",\"id\":0,\"hosts\":4}\n");
        for i in 0..30 {
            src.push_str(&format!(
                "{{\"rec\":\"task\",\"id\":\"t{i}\",\"type\":\"x\",\"start\":0,\"end\":1,\"allocations\":[{{\"cluster\":0,\"hosts\":[[0,2]]}}]}}\n"
            ));
        }
        src.push_str("{\"rec\":\"frob\"}\n");
        for threads in [2usize, 6] {
            let err = read_schedule_jsonl_parallel(&src, threads).unwrap_err();
            assert!(err.to_string().contains("line 32"), "{err}");
        }
    }

    #[test]
    fn negative_host_range_rejected() {
        let line = r#"{"rec":"cluster","id":0,"hosts":4}
{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[{"cluster":0,"hosts":[[-1,2]]}]}"#;
        assert!(read_schedule_jsonl(line).is_err());
    }

    /// A range that ends past `u32::MAX`, or a value above it, is an
    /// error on both paths rather than a wrapped or saturated range;
    /// the last host index itself still parses alike on both.
    #[test]
    fn host_ranges_past_u32_max_rejected() {
        let task = |hosts: &str| {
            format!(
                r#"{{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[{{"cluster":0,"hosts":{hosts}}}]}}"#
            )
        };
        for hosts in ["[[4294967295,2]]", "[[4294967296,0]]", "[[0,1e30]]"] {
            let line = task(hosts);
            let err = generic_record(&line, 3).unwrap_err().to_string();
            assert!(
                err.contains("line 3") && err.contains("ends past host index 4294967295"),
                "{err}"
            );
            assert!(fast::record(&line).is_none(), "{line}");
        }
        let line = task("[[4294967294,1]]");
        assert_eq!(fast::record(&line), Some(generic_record(&line, 1).unwrap()));
    }

    /// Every line our writer emits takes the fast path, and the record
    /// it yields equals the generic parser's.
    #[test]
    fn fast_path_covers_writer_output_and_matches_generic() {
        for line in write_schedule_jsonl(&sample()).lines() {
            let f = fast::record(line).expect("writer output takes the fast path");
            assert_eq!(f, generic_record(line, 1).unwrap(), "{line}");
        }
    }

    /// Shapes the fast path must either bail on (→ `None`, generic
    /// decides) or parse exactly like the generic path: escapes,
    /// unknown/reordered fields, duplicate keys, nested junk, non-map
    /// attrs, missing names.
    #[test]
    fn fast_path_agrees_with_generic_on_edge_lines() {
        let lines = [
            // Escaped strings force the generic path.
            r#"{"rec":"task","id":"a\nb","type":"x","start":0,"end":1,"allocations":[]}"#,
            // Unknown fields of every shape are skipped.
            r#"{"rec":"cluster","id":1,"hosts":4,"extra":[1,{"k":null},true],"note":"hi"}"#,
            // Field order permuted; name after id.
            r#"{"hosts":2,"name":"n0","rec":"cluster","id":7}"#,
            // Missing cluster name falls back to the default.
            r#"{"rec":"cluster","id":3,"hosts":1}"#,
            // Non-string name: generic ignores it, default applies.
            r#"{"rec":"cluster","id":3,"hosts":1,"name":5}"#,
            // Attrs sorted by key, duplicates last-wins, non-strings skipped.
            r#"{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[],"attrs":{"z":"1","a":"2","z":"3","n":7}}"#,
            // Attrs not an object: ignored entirely.
            r#"{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[],"attrs":[1]}"#,
            // Allocation objects with extra keys; multiple ranges.
            r#"{"rec":"task","id":"t","type":"x","start":0.5,"end":1.5e1,"allocations":[{"cluster":2,"hosts":[[0,2],[5,1]],"why":"because"}]}"#,
            // Meta record.
            r#"{"rec":"meta","name":"alg","value":"cpa"}"#,
            // Whitespace everywhere.
            r#" { "rec" : "cluster" , "id" : 0 , "hosts" : 8 } "#,
        ];
        for line in lines {
            let generic = generic_record(line, 1).unwrap();
            if let Some(f) = fast::record(line) {
                assert_eq!(f, generic, "{line}");
            }
        }
    }

    /// Error lines must never be *accepted* by the fast path: whatever
    /// the generic parser rejects, the fast path bails on (or was never
    /// asked about), so the error surface is exactly the generic one.
    #[test]
    fn fast_path_never_accepts_generic_errors() {
        let deep = format!(
            r#"{{"rec":"cluster","id":0,"hosts":4,"x":{}{}}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        let bad = [
            deep.as_str(),
            r#"{"rec":"cluster","id":0}"#,
            r#"{"rec":"meta","name":"x"}"#,
            r#"{"rec":"task","id":"t","type":"x","start":0,"end":1}"#,
            r#"{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[{"cluster":0,"hosts":[[-1,2]]}]}"#,
            r#"{"rec":"task","id":"t","type":"x","start":0,"end":1,"allocations":[{"cluster":0,"hosts":[[1]]}]}"#,
            r#"{"rec":"frob"}"#,
            r#"{"rec":"task","id":"t","type":"x","start":"late","end":1,"allocations":[]}"#,
            r#"{"rec":"cluster","id":0,"hosts":4} trailing"#,
            r#"{"rec":"cluster","id":0,"hosts":4,"x":nulL}"#,
        ];
        for line in bad {
            assert!(generic_record(line, 1).is_err(), "{line}");
            assert!(fast::record(line).is_none(), "{line}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A JSONL-ish line generator biased toward near-valid records:
        /// random record types with random key/value pairs (including
        /// duplicates, wrong types, allocations/attrs bodies and junk),
        /// so the two parsers meet on valid, bail-worthy and invalid
        /// lines alike.
        fn arb_line() -> BoxedStrategy<String> {
            let key = prop_oneof![
                Just("id"),
                Just("type"),
                Just("name"),
                Just("value"),
                Just("hosts"),
                Just("start"),
                Just("end"),
                Just("junk"),
                Just("allocations"),
                Just("attrs"),
            ];
            let val = prop_oneof![
                proptest::string::string_regex("\"[a-z ]{0,6}\"").expect("valid regex"),
                proptest::string::string_regex("-?[0-9]{1,3}").expect("valid regex"),
                proptest::string::string_regex("[0-9]\\.[0-9]e[0-9]").expect("valid regex"),
                Just("null".to_string()),
                Just("true".to_string()),
                Just("[]".to_string()),
                Just("[[0,2]]".to_string()),
                Just("[{\"cluster\":0,\"hosts\":[[0,2]]}]".to_string()),
                Just("[{\"cluster\":1,\"hosts\":[[1,3],[5,1]],\"x\":9}]".to_string()),
                Just("{\"b\":\"y\",\"a\":\"x\",\"n\":3}".to_string()),
            ];
            let rec = prop_oneof![Just("task"), Just("cluster"), Just("meta"), Just("x")];
            (rec, proptest::collection::vec((key, val), 0..6))
                .prop_map(|(rec, fields)| {
                    let mut s = format!("{{\"rec\":\"{rec}\"");
                    for (k, v) in fields {
                        s.push_str(&format!(",\"{k}\":{v}"));
                    }
                    s.push('}');
                    s
                })
                .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn fast_agrees_with_generic(line in arb_line()) {
                match (fast::record(&line), generic_record(&line, 1)) {
                    (Some(f), Ok(g)) => prop_assert_eq!(f, g, "{}", line),
                    (Some(f), Err(e)) => {
                        panic!("fast accepted {line:?} as {f:?}, generic errors: {e}");
                    }
                    (None, _) => {} // fast bailed: generic is authoritative
                }
            }

            #[test]
            fn fast_never_panics(garbage in proptest::string::string_regex(".{0,120}").unwrap()) {
                let _ = fast::record(&garbage);
            }
        }
    }
}
