//! The Jedule schedule XML format (paper, Fig. 1 and §II-C).
//!
//! Document layout:
//!
//! ```xml
//! <jedule version="0.2">
//!   <jedule_meta>
//!     <info name="alg" value="cpa"/>
//!   </jedule_meta>
//!   <platform>
//!     <cluster id="0" name="cluster-0" hosts="8"/>
//!   </platform>
//!   <node_infos>
//!     <node_statistics>
//!       <node_property name="id" value="1"/>
//!       <node_property name="type" value="computation"/>
//!       <node_property name="start_time" value="0.000"/>
//!       <node_property name="end_time" value="0.310"/>
//!       <configuration>
//!         <conf_property name="cluster_id" value="0"/>
//!         <conf_property name="host_nb" value="8"/>
//!         <host_lists>
//!           <hosts start="0" nb="8"/>
//!         </host_lists>
//!       </configuration>
//!     </node_statistics>
//!   </node_infos>
//! </jedule>
//! ```
//!
//! A `<node_statistics>` may carry several `<configuration>` entries — e.g.
//! a communication between clusters (paper, Fig. 1 caption) — and
//! additional `<node_property>` entries are preserved as task attributes.
//! A `<meta_info>`/`<meta .../>` block (paper, §II-C2) is accepted as an
//! alias for `<jedule_meta>`.
//!
//! [`read_schedule`] is single-pass: it builds the schedule from the
//! tokens of the [`xml`] module's tokenizer as tags open and close, with
//! no element tree, even for §VI's traces of "more than 200,000
//! individual tasks". Like [`xml::parse`], it rejects nesting deeper than
//! [`xml::MAX_DEPTH`] with a positioned error. `tests/xml_reader_props.rs`
//! holds the tree walk it must agree with, error for error. The writer
//! builds an [`Element`] tree and serializes it.

use crate::error::IoError;
use crate::xml::{self, Element, Token, Tokenizer};
use jedule_core::validate::validate_strict;
use jedule_core::{Allocation, Cluster, HostRange, HostSet, MetaInfo, Schedule, Task};
use std::borrow::Cow;
use std::path::Path;

const KNOWN_PROPS: [&str; 4] = ["id", "type", "start_time", "end_time"];

fn parse_f64(field: &str, v: &str) -> Result<f64, IoError> {
    v.trim()
        .parse::<f64>()
        .map_err(|_| IoError::number(field, v))
}

fn parse_u32(field: &str, v: &str) -> Result<u32, IoError> {
    v.trim()
        .parse::<u32>()
        .map_err(|_| IoError::number(field, v))
}

/// Reads a schedule from Jedule XML text in one pass over the tokens of
/// [`xml`]'s tokenizer, with no element tree.
///
/// The result is the one a walk over [`xml::parse`]'s tree would give:
/// the same schedule, or the same error. A syntax error anywhere wins,
/// so the whole document is tokenized. Otherwise the first error of the
/// earliest check in this order is returned: the root name, the
/// `<jedule_meta>` entries, the `<meta_info>` entries, a missing
/// `<platform>`, `<cluster>` attributes, no clusters, the tasks in
/// document order, and last [`jedule_core::validate::validate_strict`].
/// Only direct children count, and only the first `<platform>`,
/// `<node_infos>` and per-configuration `<host_lists>`. A `<hosts>`
/// range whose end passes `u32::MAX` is a format error naming the task.
pub fn read_schedule(src: &str) -> Result<Schedule, IoError> {
    let mut tok = Tokenizer::new(src);
    let mut walk = Walk::default();
    while let Some(token) = tok.next()? {
        match token {
            Token::Start(name) => walk.start(name, tok.attrs()),
            Token::End => walk.end(),
            Token::Text(_) => {}
        }
    }
    walk.finish()
}

type Attrs<'a> = [(&'a str, Cow<'a, str>)];

fn attr<'s>(attrs: &'s Attrs, name: &str) -> Option<&'s str> {
    attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| &**v)
}

fn require<'s>(attrs: &'s Attrs, element: &str, name: &str) -> Result<&'s str, IoError> {
    attr(attrs, name).ok_or_else(|| xml::missing_attr(element, name))
}

/// The checks of the tree walk, in its order: at the end the error of
/// the earliest check is returned.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Rank {
    Root,
    JeduleMeta,
    MetaInfo,
    Platform,
    Cluster,
    NoCluster,
    Task,
}

/// What an open element is to the reader.
#[derive(Clone, Copy)]
enum Ctx {
    Root,
    /// `<jedule_meta>` or `<meta_info>`, by rank.
    Meta(Rank),
    Platform,
    NodeInfos,
    Task,
    Conf,
    HostLists,
    /// Checked for syntax only.
    Other,
}

/// The reader's state between tokens.
#[derive(Default)]
struct Walk {
    ctx: Vec<Ctx>,
    /// The first error of the earliest check so far.
    error: Option<(Rank, IoError)>,
    /// Entries of every `<jedule_meta>`, then of every `<meta_info>`.
    meta: [Vec<(String, String)>; 2],
    platform_seen: bool,
    node_infos_seen: bool,
    clusters: Vec<Cluster>,
    tasks: Vec<Task>,
    task: TaskState,
    conf: ConfState,
}

/// A `<node_statistics>` being read.
#[derive(Default)]
struct TaskState {
    id: Option<String>,
    kind: Option<String>,
    start: Option<f64>,
    end: Option<f64>,
    attrs: Vec<(String, String)>,
    allocations: Vec<Allocation>,
    /// The first `<node_property>` error.
    property_error: Option<IoError>,
    /// The first failing configuration's error; it may quote the task
    /// id, and the last `id` property wins, so it is built at the end.
    conf_error: Option<ConfError>,
}

/// A `<configuration>` being read.
#[derive(Default)]
struct ConfState {
    cluster: Option<u32>,
    host_nb: Option<u32>,
    ranges: Vec<HostRange>,
    host_lists_seen: bool,
    property_error: Option<IoError>,
    hosts_error: Option<ConfError>,
}

/// A configuration's error.
enum ConfError {
    /// An attribute or number error.
    Plain(IoError),
    /// A format error `task {id:?}: {0}`, built once the id is final.
    Quoting(String),
}

impl ConfError {
    fn for_task(self, id: &str) -> IoError {
        match self {
            ConfError::Plain(e) => e,
            ConfError::Quoting(msg) => IoError::format(format!("task {id:?}: {msg}")),
        }
    }
}

impl Walk {
    fn fail(&mut self, rank: Rank, e: IoError) {
        if self.error.as_ref().is_none_or(|(r, _)| rank < *r) {
            self.error = Some((rank, e));
        }
    }

    fn start(&mut self, name: &str, attrs: &Attrs) {
        let ctx = match self.ctx.last().copied() {
            None if name == "jedule" => Ctx::Root,
            None => {
                let e = format!("expected <jedule> root element, found <{name}>");
                self.fail(Rank::Root, IoError::format(e));
                Ctx::Other
            }
            Some(Ctx::Root) => match name {
                "jedule_meta" => Ctx::Meta(Rank::JeduleMeta),
                "meta_info" => Ctx::Meta(Rank::MetaInfo),
                "platform" if !self.platform_seen => {
                    self.platform_seen = true;
                    Ctx::Platform
                }
                "node_infos" if !self.node_infos_seen => {
                    self.node_infos_seen = true;
                    Ctx::NodeInfos
                }
                _ => Ctx::Other,
            },
            Some(Ctx::Meta(rank)) => {
                if name == "info" || name == "meta" {
                    match meta_entry(name, attrs) {
                        Ok(kv) => self.meta[usize::from(rank == Rank::MetaInfo)].push(kv),
                        Err(e) => self.fail(rank, e),
                    }
                }
                Ctx::Other
            }
            Some(Ctx::Platform) => {
                if name == "cluster" {
                    match cluster(attrs) {
                        Ok(c) => self.clusters.push(c),
                        Err(e) => self.fail(Rank::Cluster, e),
                    }
                }
                Ctx::Other
            }
            Some(Ctx::NodeInfos) if name == "node_statistics" => {
                self.task = TaskState::default();
                Ctx::Task
            }
            Some(Ctx::Task) => match name {
                "node_property" => {
                    if self.task.property_error.is_none() {
                        self.task.property_error = self.task.property(attrs).err();
                    }
                    Ctx::Other
                }
                "configuration" => {
                    self.conf = ConfState::default();
                    Ctx::Conf
                }
                _ => Ctx::Other,
            },
            Some(Ctx::Conf) => match name {
                "conf_property" => {
                    if self.conf.property_error.is_none() {
                        self.conf.property_error = self.conf.property(attrs).err();
                    }
                    Ctx::Other
                }
                "host_lists" if !self.conf.host_lists_seen => {
                    self.conf.host_lists_seen = true;
                    Ctx::HostLists
                }
                _ => Ctx::Other,
            },
            Some(Ctx::HostLists) => {
                if name == "hosts" && self.conf.hosts_error.is_none() {
                    self.conf.hosts_error = self.conf.hosts(attrs).err();
                }
                Ctx::Other
            }
            Some(_) => Ctx::Other,
        };
        self.ctx.push(ctx);
    }

    fn end(&mut self) {
        match self.ctx.pop() {
            Some(Ctx::Conf) => match std::mem::take(&mut self.conf).finish() {
                Ok(a) => self.task.allocations.push(a),
                Err(e) => {
                    self.task.conf_error.get_or_insert(e);
                }
            },
            Some(Ctx::Task) => match std::mem::take(&mut self.task).finish() {
                Ok(t) => self.tasks.push(t),
                Err(e) => self.fail(Rank::Task, e),
            },
            _ => {}
        }
    }

    fn finish(mut self) -> Result<Schedule, IoError> {
        if !self.platform_seen {
            self.fail(Rank::Platform, IoError::format("missing <platform> header"));
        } else if self.clusters.is_empty() {
            let e = IoError::format("a schedule requires at least one <cluster>");
            self.fail(Rank::NoCluster, e);
        }
        if let Some((_, e)) = self.error {
            return Err(e);
        }
        let mut meta = MetaInfo::new();
        for (k, v) in self.meta.into_iter().flatten() {
            meta.set(k, v);
        }
        let schedule = Schedule {
            clusters: self.clusters,
            tasks: self.tasks,
            meta,
        };
        validate_strict(&schedule)?;
        Ok(schedule)
    }
}

fn meta_entry(element: &str, attrs: &Attrs) -> Result<(String, String), IoError> {
    let name = require(attrs, element, "name")?;
    let value = require(attrs, element, "value")?;
    Ok((name.to_owned(), value.to_owned()))
}

fn cluster(attrs: &Attrs) -> Result<Cluster, IoError> {
    let id = parse_u32("cluster id", require(attrs, "cluster", "id")?)?;
    let hosts = parse_u32("cluster hosts", require(attrs, "cluster", "hosts")?)?;
    let name = attr(attrs, "name").map_or_else(|| format!("cluster-{id}"), str::to_owned);
    Ok(Cluster::new(id, name, hosts))
}

impl TaskState {
    fn property(&mut self, attrs: &Attrs) -> Result<(), IoError> {
        let name = require(attrs, "node_property", "name")?;
        let value = require(attrs, "node_property", "value")?;
        match name {
            "id" => self.id = Some(value.to_owned()),
            "type" => self.kind = Some(value.to_owned()),
            "start_time" => self.start = Some(parse_f64("start_time", value)?),
            "end_time" => self.end = Some(parse_f64("end_time", value)?),
            _ => self.attrs.push((name.to_owned(), value.to_owned())),
        }
        Ok(())
    }

    /// The task at `</node_statistics>`: property errors first, then a
    /// missing id, type, start or end, then the configurations in order.
    fn finish(self) -> Result<Task, IoError> {
        if let Some(e) = self.property_error {
            return Err(e);
        }
        let id = self
            .id
            .ok_or_else(|| IoError::format("<node_statistics> without id property"))?;
        let missing = |what: &str| IoError::format(format!("task {id:?} is missing {what}"));
        let kind = self.kind.ok_or_else(|| missing("a type property"))?;
        let start = self.start.ok_or_else(|| missing("a start_time property"))?;
        let end = self.end.ok_or_else(|| missing("an end_time property"))?;
        if let Some(e) = self.conf_error {
            return Err(e.for_task(&id));
        }
        Ok(Task {
            id,
            kind,
            start,
            end,
            allocations: self.allocations,
            attrs: self.attrs,
        })
    }
}

impl ConfState {
    fn property(&mut self, attrs: &Attrs) -> Result<(), IoError> {
        let name = require(attrs, "conf_property", "name")?;
        let value = require(attrs, "conf_property", "value")?;
        match name {
            "cluster_id" => self.cluster = Some(parse_u32("cluster_id", value)?),
            "host_nb" => self.host_nb = Some(parse_u32("host_nb", value)?),
            _ => {}
        }
        Ok(())
    }

    fn hosts(&mut self, attrs: &Attrs) -> Result<(), ConfError> {
        let plain = ConfError::Plain;
        let start = require(attrs, "hosts", "start").map_err(plain)?;
        let start = parse_u32("hosts start", start).map_err(plain)?;
        let nb = require(attrs, "hosts", "nb").map_err(plain)?;
        let nb = parse_u32("hosts nb", nb).map_err(plain)?;
        let range = HostRange::checked(start.into(), nb.into()).ok_or_else(|| {
            let max = u32::MAX;
            let msg = format!("<hosts start=\"{start}\" nb=\"{nb}\"> ends past host index {max}");
            ConfError::Quoting(msg)
        })?;
        self.ranges.push(range);
        Ok(())
    }

    /// The allocation at `</configuration>`: property errors first, then
    /// a missing cluster_id, then `<hosts>`, then the host_nb check (the
    /// paper's sanity check: requested and assigned processors agree).
    fn finish(self) -> Result<Allocation, ConfError> {
        if let Some(e) = self.property_error {
            return Err(ConfError::Plain(e));
        }
        let cluster = self
            .cluster
            .ok_or_else(|| ConfError::Quoting("configuration without cluster_id".to_string()))?;
        if let Some(e) = self.hosts_error {
            return Err(e);
        }
        let hosts = HostSet::from_ranges(self.ranges);
        if let Some(nb) = self.host_nb {
            let count = hosts.count();
            if count != nb {
                let msg = format!("host_nb={nb} but host list contains {count} hosts");
                return Err(ConfError::Quoting(msg));
            }
        }
        Ok(Allocation::new(cluster, hosts))
    }
}

/// Serializes a schedule to Jedule XML.
pub fn write_schedule_string(schedule: &Schedule) -> String {
    let mut root = Element::new("jedule").attr("version", "0.2");

    if !schedule.meta.is_empty() {
        let mut meta = Element::new("jedule_meta");
        for (k, v) in schedule.meta.iter() {
            meta = meta.child(Element::new("info").attr("name", k).attr("value", v));
        }
        root = root.child(meta);
    }

    let mut platform = Element::new("platform");
    for c in &schedule.clusters {
        platform = platform.child(
            Element::new("cluster")
                .attr("id", c.id.to_string())
                .attr("name", &c.name)
                .attr("hosts", c.hosts.to_string()),
        );
    }
    root = root.child(platform);

    let mut infos = Element::new("node_infos");
    for t in &schedule.tasks {
        let mut node = Element::new("node_statistics")
            .child(prop("id", &t.id))
            .child(prop("type", &t.kind))
            .child(prop("start_time", &format_time(t.start)))
            .child(prop("end_time", &format_time(t.end)));
        for (k, v) in &t.attrs {
            if !KNOWN_PROPS.contains(&k.as_str()) {
                node = node.child(prop(k, v));
            }
        }
        for a in &t.allocations {
            let mut conf = Element::new("configuration")
                .child(conf_prop("cluster_id", &a.cluster.to_string()))
                .child(conf_prop("host_nb", &a.hosts.count().to_string()));
            let mut hl = Element::new("host_lists");
            for r in a.hosts.ranges() {
                hl = hl.child(
                    Element::new("hosts")
                        .attr("start", r.start.to_string())
                        .attr("nb", r.nb.to_string()),
                );
            }
            conf = conf.child(hl);
            node = node.child(conf);
        }
        infos = infos.child(node);
    }
    root = root.child(infos);

    xml::write_document(&root)
}

fn format_time(t: f64) -> String {
    // Shortest representation that round-trips exactly.
    let mut s = format!("{t}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

fn prop(name: &str, value: &str) -> Element {
    Element::new("node_property")
        .attr("name", name)
        .attr("value", value)
}

fn conf_prop(name: &str, value: &str) -> Element {
    Element::new("conf_property")
        .attr("name", name)
        .attr("value", value)
}

/// Writes a schedule to a file.
pub fn write_schedule(schedule: &Schedule, path: impl AsRef<Path>) -> Result<(), IoError> {
    std::fs::write(path, write_schedule_string(schedule))?;
    Ok(())
}

/// Reads a schedule from a file.
pub fn read_schedule_file(path: impl AsRef<Path>) -> Result<Schedule, IoError> {
    let src = std::fs::read_to_string(path)?;
    read_schedule(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::ScheduleBuilder;

    fn sample() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(1, "c1", 4)
            .meta("mindelta", "-2")
            .meta("sort", "comm")
            .task(Task::new("1", "computation", 0.0, 0.31).on(Allocation::contiguous(0, 0, 8)))
            .task(
                Task::new("2", "transfer", 0.31, 0.5)
                    .on(Allocation::new(0, HostSet::from_hosts([1, 3, 5])))
                    .on(Allocation::contiguous(1, 0, 2))
                    .with_attr("note", "inter-cluster"),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_schedule() {
        let s = sample();
        let text = write_schedule_string(&s);
        let back = read_schedule(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn fig1_document_parses() {
        let src = r#"<jedule>
  <platform><cluster id="0" hosts="8"/></platform>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.000"/>
      <node_property name="end_time" value="0.310"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <conf_property name="host_nb" value="8"/>
        <host_lists>
          <hosts start="0" nb="8"/>
        </host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>"#;
        let s = read_schedule(src).unwrap();
        assert_eq!(s.clusters.len(), 1);
        assert_eq!(s.tasks.len(), 1);
        let t = &s.tasks[0];
        assert_eq!(t.id, "1");
        assert_eq!(t.kind, "computation");
        assert_eq!(t.start, 0.0);
        assert!((t.end - 0.31).abs() < 1e-12);
        assert_eq!(t.resource_count(), 8);
    }

    #[test]
    fn meta_info_alias_accepted() {
        let src = r#"<jedule>
  <meta_info>
    <meta name="mindelta" value="-2"/>
    <meta name="maxdelta" value="2"/>
    <meta name="sort" value="comm"/>
  </meta_info>
  <platform><cluster id="0" hosts="1"/></platform>
</jedule>"#;
        let s = read_schedule(src).unwrap();
        assert_eq!(s.meta.get("mindelta"), Some("-2"));
        assert_eq!(s.meta.get("maxdelta"), Some("2"));
        assert_eq!(s.meta.get("sort"), Some("comm"));
    }

    #[test]
    fn host_nb_mismatch_rejected() {
        let src = r#"<jedule>
  <platform><cluster id="0" hosts="8"/></platform>
  <node_infos><node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="t"/>
      <node_property name="start_time" value="0"/>
      <node_property name="end_time" value="1"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <conf_property name="host_nb" value="4"/>
        <host_lists><hosts start="0" nb="8"/></host_lists>
      </configuration>
  </node_statistics></node_infos>
</jedule>"#;
        let err = read_schedule(src).unwrap_err();
        assert!(err.to_string().contains("host_nb"), "{err}");
    }

    #[test]
    fn missing_platform_rejected() {
        assert!(read_schedule("<jedule/>").is_err());
        assert!(read_schedule("<jedule><platform/></jedule>").is_err());
    }

    #[test]
    fn wrong_root_rejected() {
        let err = read_schedule("<schedule/>").unwrap_err();
        assert!(err.to_string().contains("jedule"));
    }

    #[test]
    fn out_of_range_host_rejected_semantically() {
        let src = r#"<jedule>
  <platform><cluster id="0" hosts="4"/></platform>
  <node_infos><node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="t"/>
      <node_property name="start_time" value="0"/>
      <node_property name="end_time" value="1"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="2" nb="8"/></host_lists>
      </configuration>
  </node_statistics></node_infos>
</jedule>"#;
        assert!(matches!(read_schedule(src), Err(IoError::Core(_))));
    }

    #[test]
    fn extra_properties_preserved() {
        let s = sample();
        let back = read_schedule(&write_schedule_string(&s)).unwrap();
        let t = back.task_by_id("2").unwrap();
        assert_eq!(
            t.attrs,
            vec![("note".to_string(), "inter-cluster".to_string())]
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("jedule_xml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jed");
        let s = sample();
        write_schedule(&s, &path).unwrap();
        assert_eq!(read_schedule_file(&path).unwrap(), s);
    }

    /// 50 single-range tasks on two clusters, then one on a multi-range
    /// host set of one cluster plus a range of the other.
    fn large_sample() -> Schedule {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "c0", 64)
            .cluster(1, "c1", 8)
            .meta("alg", "single-pass");
        for i in 0..50 {
            let h = (i % 60) as u32;
            b = b.task(
                Task::new(
                    format!("t{i}"),
                    "computation",
                    f64::from(i),
                    f64::from(i) + 1.5,
                )
                .on(Allocation::contiguous(0, h, 4.min(64 - h)))
                .with_attr("idx", i.to_string()),
            );
        }
        b.task(
            Task::new("x", "transfer", 0.0, 1.0)
                .on(Allocation::new(0, HostSet::from_hosts([0, 5, 9])))
                .on(Allocation::contiguous(1, 0, 2)),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn multi_range_schedule_roundtrips_in_document_order() {
        let s = large_sample();
        let back = read_schedule(&write_schedule_string(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.tasks[0].id, "t0");
        assert_eq!(back.tasks[50].id, "x");
        assert_eq!(back.tasks[50].allocations[0].hosts.ranges().len(), 3);
    }

    #[test]
    fn comments_and_prolog_skipped() {
        let s = large_sample();
        let xml = write_schedule_string(&s);
        let spiced = format!(
            "<!-- head -->\n{}",
            xml.replacen("<node_infos>", "<!-- tasks below --><node_infos>", 1)
        );
        assert_eq!(read_schedule(&spiced).unwrap(), s);
    }

    #[test]
    fn large_document_reads() {
        let mut b = ScheduleBuilder::new().cluster(0, "c", 64);
        for i in 0..20_000 {
            b = b.simple_task(
                "computation",
                f64::from(i),
                f64::from(i) + 1.0,
                0,
                (i % 64) as u32,
                1,
            );
        }
        let s = b.build().unwrap();
        let back = read_schedule(&write_schedule_string(&s)).unwrap();
        assert_eq!(back.tasks.len(), 20_000);
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_document_errors() {
        // Every cut before the root's closing '>' loses the document; only
        // the trailing newline may go.
        let xml = write_schedule_string(&sample());
        let end = xml.trim_end().len();
        for n in (0..end).filter(|&n| xml.is_char_boundary(n)) {
            assert!(read_schedule(&xml[..n]).is_err(), "prefix {n} accepted");
        }
        assert!(read_schedule(&xml[..end]).is_ok());
        // Half a document is a syntax error with a position, not a
        // partial schedule.
        let err = read_schedule(&xml[..xml.len() / 2]).unwrap_err();
        assert!(err.to_string().starts_with("parse error at "), "{err}");
    }

    #[test]
    fn wrapped_hosts_range_is_rejected() {
        let src = r#"<jedule>
  <platform><cluster id="0" hosts="8"/></platform>
  <node_infos><node_statistics>
      <node_property name="id" value="w"/>
      <node_property name="type" value="t"/>
      <node_property name="start_time" value="0"/>
      <node_property name="end_time" value="1"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <conf_property name="host_nb" value="2"/>
        <host_lists><hosts start="4294967295" nb="2"/></host_lists>
      </configuration>
  </node_statistics></node_infos>
</jedule>"#;
        let err = read_schedule(src).unwrap_err().to_string();
        assert!(
            err.contains("task \"w\"") && err.contains("4294967295"),
            "{err}"
        );
    }

    #[test]
    fn time_format_roundtrips_exactly() {
        for t in [0.0, 0.31, 140.9, 1e-9, 12345.6789, 3.0] {
            let s: f64 = format_time(t).parse().unwrap();
            assert_eq!(s, t);
        }
    }
}
