//! The two consumers of the XML tokenizer against their specifications.
//!
//! `read_schedule` reads Jedule XML in one pass over the tokenizer's
//! tokens. Its specification is the tree walk it replaced, kept below
//! verbatim as `dom_reference` over `xml::parse`. For every document
//! nested at most `MAX_DEPTH` deep whose `<hosts>` ranges fit in `u32`,
//! both return the same schedule, or errors with the same text, syntax
//! errors at the same line and column. `IoError` has no `PartialEq`, so
//! results are compared by their `Debug` text.
//!
//! `xml::parse` builds its tree from the same tokens, so it cannot be
//! the tokenizer's oracle. Its specification is the recursive parser it
//! replaced, kept below verbatim as `recursive_parse`: the same tree or
//! the same error on every document.
//!
//! The corpus: writer output of arbitrary schedules (names and values
//! with markup characters, several clusters, multi-range host sets,
//! meta), the element trees of `proptests.rs`, hand-shaped documents for
//! each ordering rule of the walk, every truncation of those, and random
//! edits with markup bytes.

use jedule_core::{Allocation, HostRange, HostSet, Schedule, ScheduleBuilder, Task};
use jedule_xmlio::error::Pos;
use jedule_xmlio::xml::{self, Element, Node};
use jedule_xmlio::{read_schedule, write_schedule_string, IoError};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::borrow::Cow;

// ---------------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------------

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

/// The reference: the tree walk `read_schedule` was before it became
/// single-pass, verbatim but for its name.
fn dom_reference(src: &str) -> Result<Schedule, IoError> {
    let root = xml::parse(src)?;
    if root.name != "jedule" {
        return Err(IoError::format(format!(
            "expected <jedule> root element, found <{}>",
            root.name
        )));
    }
    let mut b = ScheduleBuilder::new();

    // Meta information: <jedule_meta><info .../> or <meta_info><meta .../>.
    for meta_el in root
        .find_all("jedule_meta")
        .chain(root.find_all("meta_info"))
    {
        for info in meta_el.elements() {
            if info.name == "info" || info.name == "meta" {
                b = b.meta(info.require_attr("name")?, info.require_attr("value")?);
            }
        }
    }

    // Platform header: at least one cluster is required (paper, §II-C1).
    let platform = root
        .find("platform")
        .ok_or_else(|| IoError::format("missing <platform> header"))?;
    let mut n_clusters = 0u32;
    for c in platform.find_all("cluster") {
        let id = parse_u32("cluster id", c.require_attr("id")?)?;
        let hosts = parse_u32("cluster hosts", c.require_attr("hosts")?)?;
        let name = c
            .get_attr("name")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("cluster-{id}"));
        b = b.cluster(id, name, hosts);
        n_clusters += 1;
    }
    if n_clusters == 0 {
        return Err(IoError::format(
            "a schedule requires at least one <cluster>",
        ));
    }

    // Tasks.
    if let Some(infos) = root.find("node_infos") {
        for node in infos.find_all("node_statistics") {
            b = b.task(read_task(node)?);
        }
    }

    Ok(b.build()?)
}

fn read_task(node: &Element) -> Result<Task, IoError> {
    let mut id: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut start: Option<f64> = None;
    let mut end: Option<f64> = None;
    let mut attrs: Vec<(String, String)> = Vec::new();

    for p in node.find_all("node_property") {
        let name = p.require_attr("name")?;
        let value = p.require_attr("value")?;
        match name {
            "id" => id = Some(value.to_owned()),
            "type" => kind = Some(value.to_owned()),
            "start_time" => start = Some(parse_f64("start_time", value)?),
            "end_time" => end = Some(parse_f64("end_time", value)?),
            _ => attrs.push((name.to_owned(), value.to_owned())),
        }
    }

    let id = id.ok_or_else(|| IoError::format("<node_statistics> without id property"))?;
    let missing = |what: &str| IoError::format(format!("task {id:?} is missing {what}"));
    let mut task = Task::new(
        id.clone(),
        kind.ok_or_else(|| missing("a type property"))?,
        start.ok_or_else(|| missing("a start_time property"))?,
        end.ok_or_else(|| missing("an end_time property"))?,
    );
    task.attrs = attrs;

    for conf in node.find_all("configuration") {
        let mut cluster: Option<u32> = None;
        let mut host_nb: Option<u32> = None;
        for p in conf.find_all("conf_property") {
            let name = p.require_attr("name")?;
            let value = p.require_attr("value")?;
            match name {
                "cluster_id" => cluster = Some(parse_u32("cluster_id", value)?),
                "host_nb" => host_nb = Some(parse_u32("host_nb", value)?),
                _ => {}
            }
        }
        let cluster = cluster.ok_or_else(|| {
            IoError::format(format!("task {id:?}: configuration without cluster_id"))
        })?;
        let mut hosts = HostSet::new();
        if let Some(hl) = conf.find("host_lists") {
            for h in hl.find_all("hosts") {
                let s = parse_u32("hosts start", h.require_attr("start")?)?;
                let nb = parse_u32("hosts nb", h.require_attr("nb")?)?;
                hosts.insert_range(HostRange::new(s, nb));
            }
        }
        // Sanity check mentioned in the paper's introduction: the number of
        // requested (host_nb) and assigned processors must agree.
        if let Some(nb) = host_nb {
            if hosts.count() != nb {
                return Err(IoError::format(format!(
                    "task {id:?}: host_nb={nb} but host list contains {} hosts",
                    hosts.count()
                )));
            }
        }
        task.allocations.push(Allocation::new(cluster, hosts));
    }

    Ok(task)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Asserts that `read_schedule` and the tree walk agree on `src`, and
/// returns whether both accepted it. A document with a `<hosts>` range
/// that wraps `u32` is outside the contract (the walk wraps it or, in a
/// debug build, panics) and is skipped.
fn schedules_agree(src: &str) -> bool {
    let new = read_schedule(src);
    if matches!(&new, Err(IoError::Format(m)) if m.contains("ends past host index")) {
        return false;
    }
    let new = format!("{new:?}");
    let reference = format!("{:?}", dom_reference(src));
    assert_eq!(new, reference, "schedule readers disagree on {src:?}");
    new.starts_with("Ok")
}

/// Asserts that `xml::parse` and the recursive parser agree on `src`.
fn trees_agree(src: &str) {
    let new = format!("{:?}", xml::parse(src));
    let reference = format!("{:?}", recursive_parse(src));
    assert_eq!(new, reference, "tree parsers disagree on {src:?}");
}

/// `doc`, every proper prefix of it, and `edits` random edits of it.
fn family<'d>(doc: &'d str, rng: &mut TestRng, edits: usize) -> Vec<Cow<'d, str>> {
    let prefixes = truncations(doc).map(Cow::Borrowed);
    let edited = random_edits(doc, rng, edits).into_iter().map(Cow::Owned);
    std::iter::once(Cow::Borrowed(doc))
        .chain(prefixes)
        .chain(edited)
        .collect()
}

/// Every proper prefix of `doc` that ends on a char boundary.
fn truncations(doc: &str) -> impl Iterator<Item = &str> {
    (0..doc.len())
        .filter(|&n| doc.is_char_boundary(n))
        .map(move |n| &doc[..n])
}

/// Bytes an edit inserts: the characters XML syntax turns on.
const MARKUP: &[u8] = b"<>/=\"'&;!?-[]";

/// `n` random edits of `doc`: delete a char, insert a markup byte,
/// replace a char with one, or duplicate or drop a span of up to 64
/// bytes.
fn random_edits(doc: &str, rng: &mut TestRng, n: usize) -> Vec<String> {
    let bounds: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
    // The first char boundary at or after byte `i`.
    let snap = |i: usize| {
        bounds
            .get(bounds.partition_point(|&b| b < i))
            .map_or(doc.len(), |&b| b)
    };
    (0..n)
        .map(|_| {
            let at = snap(rng.below(doc.len() as u64 + 1) as usize);
            let next = snap(at + 1);
            let byte = char::from(MARKUP[rng.below(MARKUP.len() as u64) as usize]);
            let span_end = snap(at + 1 + rng.below(64) as usize);
            match rng.below(5) {
                0 => format!("{}{}", &doc[..at], &doc[next..]),
                1 => format!("{}{byte}{}", &doc[..at], &doc[at..]),
                2 => format!("{}{byte}{}", &doc[..at], &doc[next..]),
                3 => format!("{}{}", &doc[..span_end], &doc[at..]),
                _ => format!("{}{}", &doc[..at], &doc[span_end..]),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

/// Short text dense in the characters XML escapes.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[<>&\"' a-z0-9é☃]{0,10}").expect("valid regex")
}

/// A task that may be invalid: empty or out-of-range allocations,
/// unknown clusters, negative or non-finite durations.
fn arb_task() -> impl Strategy<Value = Task> {
    (
        (arb_text(), arb_text()),
        (0u8..8, -5.0f64..50.0, 0.0f64..10.0),
        proptest::collection::vec((arb_text(), arb_text()), 0..3),
        proptest::collection::vec((0u32..4, proptest::collection::vec(0u32..12, 0..6)), 0..3),
    )
        .prop_map(|((id, kind), (shape, start, dur), attrs, allocations)| {
            let end = match shape {
                0 => start - dur - 0.5,
                1 => f64::NAN,
                _ => start + dur,
            };
            let mut t = Task::new(id, kind, start, end);
            for (k, v) in attrs {
                t = t.with_attr(k, v);
            }
            for (cluster, hosts) in allocations {
                t = t.on(Allocation::new(cluster, HostSet::from_hosts(hosts)));
            }
            t
        })
}

/// Schedules the writer can emit, valid or not.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        proptest::collection::vec((arb_text(), 1u32..10), 0..4),
        proptest::collection::vec((arb_text(), arb_text()), 0..3),
        proptest::collection::vec(arb_task(), 0..5),
    )
        .prop_map(|(clusters, meta, tasks)| {
            let mut b = ScheduleBuilder::new();
            for (i, (name, hosts)) in clusters.into_iter().enumerate() {
                b = b.cluster(i as u32, name, hosts);
            }
            for (k, v) in meta {
                b = b.meta(k, v);
            }
            for t in tasks {
                b = b.task(t);
            }
            b.build_unchecked()
        })
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z_][A-Za-z0-9_.-]{0,12}").expect("valid regex")
}

fn arb_element_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~àéü☃𝄞]{0,40}").expect("valid regex")
}

/// The element trees of `proptests.rs`.
fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_element_text()), 0..4),
        arb_element_text(),
    )
        .prop_map(|(name, attrs, text)| {
            let mut el = Element::new(name);
            el.attrs = attrs;
            if !text.trim().is_empty() {
                el = el.text_child(text);
            }
            el
        });
    if depth == 0 {
        leaf.boxed()
    } else {
        (
            leaf,
            proptest::collection::vec(arb_element(depth - 1), 0..3),
        )
            .prop_map(|(mut el, children)| {
                if !children.is_empty() {
                    el.children.clear();
                    for c in children {
                        el = el.child(c);
                    }
                }
                el
            })
            .boxed()
    }
}

/// A valid task element with the given id and one configuration.
fn task(id: &str, conf: &str) -> String {
    format!(
        r#"<node_statistics><node_property name="id" value="{id}"/><node_property name="type" value="t"/><node_property name="start_time" value="0"/><node_property name="end_time" value="1"/>{conf}</node_statistics>"#
    )
}

const CONF: &str = r#"<configuration><conf_property name="cluster_id" value="0"/><conf_property name="host_nb" value="2"/><host_lists><hosts start="0" nb="2"/></host_lists></configuration>"#;
const PLATFORM: &str = r#"<platform><cluster id="0" name="c0" hosts="4"/></platform>"#;

/// Documents shaped by hand for each ordering and selection rule of the
/// walk, and for every piece of syntax outside the writer's output.
fn hand_docs() -> Vec<String> {
    let ok = task("1", CONF);
    let jedule = |body: &str| format!("<jedule>{body}</jedule>");
    let mut docs = vec![
        // Syntax the writer never emits: prolog, DOCTYPE, comments,
        // PIs, CDATA, single quotes, entities in text and values.
        format!(
            "<?xml version='1.0'?>\n<!DOCTYPE jedule [ <!ELEMENT jedule ANY> ]>\n<!-- head -->\n\
             <jedule version='0.2'>text &amp; &#65;&#x42; <![CDATA[ <raw> & ]]><?pi x?>\n\
             <jedule_meta><!-- c --><info name='a&lt;b' value=\"&quot;q&apos;\"/></jedule_meta>\n\
             {PLATFORM}<node_infos>{ok}<!-- between -->{}</node_infos></jedule>\n<!-- tail --><?end?>",
            task("2&amp;3", CONF)
        ),
        // 1. The root name beats everything but syntax.
        "<schedule><platform/><node_infos><node_statistics/></node_infos></schedule>".into(),
        "<schedule/>".into(),
        // 2–3. <jedule_meta> entries before <meta_info> entries, and both
        // before the platform, whatever the document order.
        jedule(&format!(
            r#"<meta_info><meta name="m"/></meta_info><jedule_meta><info value="v"/></jedule_meta>{PLATFORM}"#
        )),
        jedule(&format!(
            r#"<jedule_meta><info name="a" value="1"/></jedule_meta><meta_info><meta value="x"/></meta_info><jedule_meta><info name="b"/></jedule_meta>{PLATFORM}"#
        )),
        jedule(r#"<node_infos><node_statistics/></node_infos><meta_info><info name="n"/></meta_info>"#),
        // Meta values: every <jedule_meta> first, then every <meta_info>;
        // a later key overwrites in place. Other children are skipped.
        jedule(&format!(
            r#"<meta_info><meta name="k" value="mi"/><other/></meta_info><jedule_meta><info name="k" value="jm"/><info name="j" value="1"/><x><info/></x></jedule_meta>{PLATFORM}"#
        )),
        // 4. A missing platform beats cluster and task errors.
        jedule(&format!("<node_infos>{}</node_infos>", task("1", "<configuration/>"))),
        jedule(r#"<x><platform><cluster id="0" hosts="1"/></platform></x>"#),
        // 5. Cluster attributes, in attribute order; the first of a
        // duplicated attribute wins; a missing name defaults.
        jedule(r#"<platform><cluster hosts="x"/></platform><node_infos><node_statistics/></node_infos>"#),
        jedule(r#"<platform><cluster id="x"/></platform>"#),
        jedule(r#"<platform><cluster id="0"/></platform>"#),
        jedule(r#"<platform><cluster id="0" hosts=" 7 "/><cluster id="1" hosts="-1"/></platform>"#),
        jedule(r#"<platform><cluster id="0" id="x" hosts="2" hosts="y"/></platform>"#),
        jedule(r#"<platform><cluster id="x" id="0" hosts="2"/></platform>"#),
        // 6. No clusters beats task errors; only the first <platform>
        // counts.
        jedule(&format!("<platform/><node_infos>{}</node_infos>", task("1", "<configuration/>"))),
        jedule(r#"<platform><x><cluster id="0" hosts="1"/></x></platform>"#),
        jedule(&format!(r#"{PLATFORM}<platform><cluster id="x"/></platform><node_infos>{ok}</node_infos>"#)),
        jedule(&format!(r#"<platform></platform>{PLATFORM}<node_infos>{ok}</node_infos>"#)),
        // 7. Tasks: only direct children of the first <node_infos>.
        jedule(&format!("{PLATFORM}<node_infos>{ok}</node_infos><node_infos><node_statistics/></node_infos>")),
        jedule(&format!("{PLATFORM}<node_infos><group><node_statistics/></group>{ok}</node_infos>")),
        jedule(&format!("{PLATFORM}<node_infos><node_statistics/>{}</node_infos>", task("2", "<configuration/>"))),
        // Inside a task: property errors, then id, type, start, end, then
        // the configurations in order.
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><configuration/><node_property name="start_time" value="soon"/><node_property name="id"/></node_statistics></node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><configuration/><node_property value="1"/></node_statistics></node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="type" value="t"/><configuration/></node_statistics></node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="id" value="1"/><node_property name="end_time" value="2"/><configuration/></node_statistics></node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="id" value="1"/><node_property name="type" value="t"/><node_property name="start_time" value="1"/></node_statistics></node_infos>"#
        )),
        // The last id wins and later messages quote it; extra properties
        // are kept in order, duplicates too; a name may decode to "id".
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="id" value="first"/><configuration/><node_property name="&#x69;d" value="last"/><node_property name="type" value="t"/><node_property name="start_time" value="0"/><node_property name="end_time" value="1"/></node_statistics></node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="id" value="1"/><node_property name="note" value="a"/><node_property name="note" value="b"/><node_property name="type" value="t"/><node_property name="start_time" value="0"/><node_property name="end_time" value="1"/><x><node_property name="id" value="2"/><configuration/></x>{CONF}</node_statistics></node_infos>"#
        )),
        // Inside a configuration: property errors, then cluster_id, then
        // <hosts> of the first <host_lists> only, then host_nb.
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><host_lists><hosts start="x"/></host_lists><conf_property name="host_nb" value="-"/></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><host_lists><hosts start="x"/></host_lists><conf_property name="host_nb" value="3"/></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="host_nb" value="3"/><host_lists><hosts start="0" nb="x"/></host_lists><conf_property name="cluster_id" value="0"/></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="cluster_id" value="0"/><conf_property name="host_nb" value="3"/><host_lists><hosts start="0" nb="2"/></host_lists><host_lists><hosts start="2" nb="1"/><hosts nb="1"/></host_lists></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="cluster_id" value="0"/><conf_property name="host_nb" value="6"/><host_lists><hosts start="0" nb="4"/><hosts start="2" nb="4"/><x><hosts start="9" nb="9"/></x></host_lists></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="cluster_id" value="0"/><conf_property name="host_nb" value="1"/></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", &format!(r#"{CONF}<configuration><conf_property name="host_nb" value="1"/></configuration><configuration><conf_property name="cluster_id" value="x"/></configuration>"#))
        )),
        // The first failing task wins.
        jedule(&format!(
            "{PLATFORM}<node_infos>{ok}{}{}</node_infos>",
            task("2", "<configuration/>"),
            task("3", r#"<configuration><conf_property name="cluster_id"/></configuration>"#)
        )),
        // 8. Validation: host out of range, unknown cluster, duplicate
        // cluster, negative duration; an empty allocation is only a
        // warning.
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="cluster_id" value="0"/><host_lists><hosts start="3" nb="2"/></host_lists></configuration>"#)
        )),
        jedule(&format!(
            "{PLATFORM}<node_infos>{}</node_infos>",
            task("1", r#"<configuration><conf_property name="cluster_id" value="5"/></configuration>"#)
        )),
        jedule(&format!(
            r#"<platform><cluster id="0" hosts="4"/><cluster id="0" hosts="2"/></platform><node_infos>{ok}</node_infos>"#
        )),
        jedule(&format!(
            r#"{PLATFORM}<node_infos><node_statistics><node_property name="id" value="1"/><node_property name="type" value="t"/><node_property name="start_time" value="2"/><node_property name="end_time" value="1"/></node_statistics></node_infos>"#
        )),
        // Syntax errors win over every earlier semantic error.
        "<schedule></schedule><junk/>".into(),
        jedule(&format!("{PLATFORM}<node_infos>{}</node_infos>&bogus;", task("1", "<configuration/>"))),
        jedule(&format!("<platform/>{ok}<a></b>")),
    ];
    // The writer's own layout of a schedule with every kind of content.
    let s = ScheduleBuilder::new()
        .cluster(0, "c<0>", 8)
        .cluster(1, "c&1", 4)
        .meta("alg", "a\"b'c")
        .task(
            Task::new("x", "transfer", 0.0, 1.5)
                .on(Allocation::new(0, HostSet::from_hosts([0, 2, 3, 7])))
                .on(Allocation::contiguous(1, 1, 2))
                .with_attr("note", "<&>"),
        )
        .build()
        .expect("valid");
    docs.push(write_schedule_string(&s));
    docs
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn hand_shaped_documents_agree() {
    let mut rng = TestRng::for_test("hand_shaped_documents_agree");
    let (mut compared, mut accepted) = (0, 0);
    for doc in hand_docs() {
        for src in family(&doc, &mut rng, 400) {
            trees_agree(&src);
            accepted += usize::from(schedules_agree(&src));
            compared += 1;
        }
    }
    eprintln!("{compared} hand-shaped documents agree, {accepted} accepted by both");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn writer_output_agrees(s in arb_schedule(), seed in any::<u64>()) {
        let doc = write_schedule_string(&s);
        for src in family(&doc, &mut TestRng::seed_from_u64(seed), 200) {
            trees_agree(&src);
            schedules_agree(&src);
        }
    }

    #[test]
    fn element_trees_agree(el in arb_element(3), seed in any::<u64>()) {
        let doc = xml::write_document(&el);
        for src in family(&doc, &mut TestRng::seed_from_u64(seed), 200) {
            trees_agree(&src);
        }
    }
}

/// The contract's first bound: elements nest at most `MAX_DEPTH` deep,
/// in the schedule reader as in `xml::parse`.
#[test]
fn nesting_past_max_depth_is_a_positioned_error() {
    let doc = |depth: usize| {
        let inner = depth - 2;
        format!(
            "<jedule>{PLATFORM}<x>{}{}</x></jedule>",
            "<y>".repeat(inner),
            "</y>".repeat(inner)
        )
    };
    assert!(read_schedule(&doc(xml::MAX_DEPTH)).is_ok());
    let over = doc(xml::MAX_DEPTH + 1);
    let col = over.find("<y>").unwrap() + 3 * (xml::MAX_DEPTH - 2) + 1;
    let expected = format!("parse error at 1:{col}: element <y> nested deeper than 1024 levels");
    assert_eq!(read_schedule(&over).unwrap_err().to_string(), expected);
    assert_eq!(xml::parse(&over).unwrap_err().to_string(), expected);
}

/// The contract's second bound: a `<hosts>` range whose end passes
/// `u32::MAX` is rejected, not wrapped. The tree walk wraps it, so these
/// documents are outside the comparison: it takes `start="4294967295"
/// nb="2"` on an 8-host cluster as host 0.
#[test]
fn wrapped_hosts_range_is_rejected_naming_the_task() {
    for (start, nb) in [(u32::MAX, 2), (u32::MAX, 1), (1, u32::MAX)] {
        let src = format!(
            "<jedule><platform><cluster id=\"0\" hosts=\"8\"/></platform><node_infos>{}</node_infos></jedule>",
            task(
                "wrap",
                &format!(
                    r#"<configuration><conf_property name="cluster_id" value="0"/><conf_property name="host_nb" value="{nb}"/><host_lists><hosts start="{start}" nb="{nb}"/></host_lists></configuration>"#
                )
            )
        );
        let err = read_schedule(&src).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            format!(
                "format error: task \"wrap\": <hosts start=\"{start}\" nb=\"{nb}\"> ends past host index 4294967295"
            )
        );
    }
    // The last host index itself is fine (and out of this cluster's range).
    let src = format!(
        "<jedule><platform><cluster id=\"0\" hosts=\"8\"/></platform><node_infos>{}</node_infos></jedule>",
        task("edge", r#"<configuration><conf_property name="cluster_id" value="0"/><host_lists><hosts start="4294967294" nb="1"/></host_lists></configuration>"#)
    );
    assert!(matches!(read_schedule(&src), Err(IoError::Core(_))));
}

// ---------------------------------------------------------------------------
// The reference for `xml::parse`
// ---------------------------------------------------------------------------

struct Scanner<'a> {
    bytes: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Self {
        Scanner {
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.i..].starts_with(s.as_bytes())
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), IoError> {
        if self.consume(s) {
            Ok(())
        } else {
            Err(IoError::xml(format!("expected {s:?}"), self.pos()))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Consumes until the delimiter string, returning the consumed slice
    /// (delimiter excluded but consumed).
    fn until(&mut self, delim: &str) -> Result<String, IoError> {
        let start = self.i;
        let at = self.pos();
        while self.peek().is_some() {
            if self.starts_with(delim) {
                let s = std::str::from_utf8(&self.bytes[start..self.i])
                    .map_err(|_| IoError::xml("invalid UTF-8", at))?
                    .to_owned();
                self.expect(delim)?;
                return Ok(s);
            }
            self.bump();
        }
        Err(IoError::xml(
            format!("unterminated section, expected {delim:?}"),
            at,
        ))
    }

    fn name(&mut self) -> Result<String, IoError> {
        let start = self.i;
        let at = self.pos();
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.bump();
        }
        if self.i == start {
            return Err(IoError::xml("expected a name", at));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.i])
            .map_err(|_| IoError::xml("invalid UTF-8 in name", at))?
            .to_owned())
    }
}
/// The recursive parser that `xml::parse` replaced, verbatim but for its
/// name and that of its entity decoder.
fn recursive_parse(src: &str) -> Result<Element, IoError> {
    let mut sc = Scanner::new(src);
    skip_misc(&mut sc)?;
    let at = sc.pos();
    if sc.peek() != Some(b'<') {
        return Err(IoError::xml("expected root element", at));
    }
    let root = parse_element(&mut sc)?;
    skip_misc(&mut sc)?;
    if sc.peek().is_some() {
        return Err(IoError::xml(
            "trailing content after root element",
            sc.pos(),
        ));
    }
    Ok(root)
}

/// Skips whitespace, comments, processing instructions and DOCTYPE.
fn skip_misc(sc: &mut Scanner) -> Result<(), IoError> {
    loop {
        sc.skip_ws();
        if sc.starts_with("<!--") {
            sc.expect("<!--")?;
            sc.until("-->")?;
        } else if sc.starts_with("<?") {
            sc.expect("<?")?;
            sc.until("?>")?;
        } else if sc.starts_with("<!DOCTYPE") || sc.starts_with("<!doctype") {
            // Skip until the matching '>', allowing one bracket nesting
            // level for an internal subset.
            for _ in 0..9 {
                sc.bump();
            }
            let mut depth = 0i32;
            loop {
                match sc.bump() {
                    Some(b'[') => depth += 1,
                    Some(b']') => depth -= 1,
                    Some(b'>') if depth <= 0 => break,
                    Some(_) => {}
                    None => return Err(IoError::xml("unterminated DOCTYPE", sc.pos())),
                }
            }
        } else {
            return Ok(());
        }
    }
}

fn parse_element(sc: &mut Scanner) -> Result<Element, IoError> {
    sc.expect("<")?;
    let name = sc.name()?;
    let mut el = Element::new(name);

    // Attributes.
    loop {
        sc.skip_ws();
        match sc.peek() {
            Some(b'/') => {
                sc.expect("/>")?;
                return Ok(el);
            }
            Some(b'>') => {
                sc.bump();
                break;
            }
            Some(_) => {
                let at = sc.pos();
                let aname = sc.name()?;
                sc.skip_ws();
                sc.expect("=")?;
                sc.skip_ws();
                let quote = match sc.bump() {
                    Some(q @ (b'"' | b'\'')) => q,
                    _ => return Err(IoError::xml("expected quoted attribute value", at)),
                };
                let raw = sc.until(if quote == b'"' { "\"" } else { "'" })?;
                el.attrs.push((aname, reference_unescape(&raw, at)?));
            }
            None => return Err(IoError::xml("unterminated start tag", sc.pos())),
        }
    }

    // Children.
    let mut text_buf = String::new();
    loop {
        if sc.starts_with("</") {
            flush_text(&mut el, &mut text_buf);
            sc.expect("</")?;
            let at = sc.pos();
            let close = sc.name()?;
            if close != el.name {
                return Err(IoError::xml(
                    format!("mismatched closing tag </{close}> for <{}>", el.name),
                    at,
                ));
            }
            sc.skip_ws();
            sc.expect(">")?;
            return Ok(el);
        } else if sc.starts_with("<!--") {
            sc.expect("<!--")?;
            sc.until("-->")?;
        } else if sc.starts_with("<![CDATA[") {
            sc.expect("<![CDATA[")?;
            let raw = sc.until("]]>")?;
            text_buf.push_str(&raw);
        } else if sc.starts_with("<?") {
            sc.expect("<?")?;
            sc.until("?>")?;
        } else if sc.starts_with("<") {
            flush_text(&mut el, &mut text_buf);
            let child = parse_element(sc)?;
            el.children.push(Node::Element(child));
        } else {
            let at = sc.pos();
            match sc.peek() {
                None => return Err(IoError::xml(format!("unclosed element <{}>", el.name), at)),
                Some(_) => {
                    let start = sc.i;
                    while sc.peek().is_some() && sc.peek() != Some(b'<') {
                        sc.bump();
                    }
                    let raw = std::str::from_utf8(&sc.bytes[start..sc.i])
                        .map_err(|_| IoError::xml("invalid UTF-8 in text", at))?;
                    text_buf.push_str(&reference_unescape(raw, at)?);
                }
            }
        }
    }
}

fn flush_text(el: &mut Element, buf: &mut String) {
    if !buf.trim().is_empty() {
        el.children.push(Node::Text(std::mem::take(buf)));
    } else {
        buf.clear();
    }
}

/// Decodes the predefined entities and numeric character references.
fn reference_unescape(raw: &str, at: Pos) -> Result<String, IoError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| IoError::xml("unterminated entity reference", at))?;
        let ent = &rest[1..end];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let v = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| IoError::xml(format!("bad character reference &{ent};"), at))?;
                out.push(
                    char::from_u32(v)
                        .ok_or_else(|| IoError::xml(format!("invalid code point &{ent};"), at))?,
                );
            }
            _ if ent.starts_with('#') => {
                let v: u32 = ent[1..]
                    .parse()
                    .map_err(|_| IoError::xml(format!("bad character reference &{ent};"), at))?;
                out.push(
                    char::from_u32(v)
                        .ok_or_else(|| IoError::xml(format!("invalid code point &{ent};"), at))?,
                );
            }
            _ => {
                return Err(IoError::xml(format!("unknown entity &{ent};"), at));
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}
