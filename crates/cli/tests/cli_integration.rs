//! End-to-end tests of the `jedule` binary, driving it exactly as a user
//! would (the paper's command-line batch mode, §II-D2).

use std::path::PathBuf;
use std::process::{Command, Output};

fn jedule(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jedule"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn jedule_with_stdin(args: &[&str], stdin: &str) -> Output {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_jedule"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin writes");
    child.wait_with_output().expect("binary exits")
}

/// A fresh directory per call: tests run in parallel and write files of
/// the same names (`demo.jed`, ...), so they must not share one.
fn tmp() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jedule_cli_it_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes a small demo schedule and returns its path.
fn demo_schedule(dir: &std::path::Path) -> PathBuf {
    let xml = r#"<jedule version="0.2">
  <jedule_meta><info name="alg" value="demo"/></jedule_meta>
  <platform>
    <cluster id="0" name="c0" hosts="8"/>
    <cluster id="1" name="c1" hosts="4"/>
  </platform>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.0"/>
      <node_property name="end_time" value="4.0"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="0" nb="8"/></host_lists>
      </configuration>
    </node_statistics>
    <node_statistics>
      <node_property name="id" value="2"/>
      <node_property name="type" value="transfer"/>
      <node_property name="start_time" value="3.0"/>
      <node_property name="end_time" value="5.0"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="2" nb="2"/></host_lists>
      </configuration>
      <configuration>
        <conf_property name="cluster_id" value="1"/>
        <host_lists><hosts start="0" nb="1"/></host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>"#;
    let path = dir.join("demo.jed");
    std::fs::write(&path, xml).expect("write demo");
    path
}

#[test]
fn help_prints_usage() {
    let out = jedule(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("render"));
    assert!(text.contains("interactive"));
    assert!(text.contains("html"), "help must list the html format");
    assert!(
        text.contains("/explore"),
        "help must list the explorer endpoint"
    );
    assert!(text.contains("/meta"), "help must list the meta endpoint");
}

#[test]
fn no_args_fails_with_usage() {
    let out = jedule(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = jedule(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn render_produces_each_format() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    for (fmt, magic) in [
        ("svg", &b"<svg"[..]),
        ("png", &b"\x89PNG"[..]),
        ("pdf", &b"%PDF"[..]),
        ("ppm", &b"P6"[..]),
    ] {
        let out_path = dir.join(format!("demo_out.{fmt}"));
        let out = jedule(&[
            "render",
            input.to_str().unwrap(),
            "-f",
            fmt,
            "-o",
            out_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{fmt}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&out_path).expect("output written");
        assert!(bytes.starts_with(magic), "{fmt} magic mismatch");
    }
}

#[test]
fn render_html_is_one_self_contained_file() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out_path = dir.join("demo_out.html");
    let out = jedule(&[
        "render",
        input.to_str().unwrap(),
        "-f",
        "html",
        "-o",
        out_path.to_str().unwrap(),
        "--title",
        "demo explorer",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let page = std::fs::read_to_string(&out_path).expect("output written");
    assert!(page.starts_with("<!DOCTYPE html>") || page.starts_with("<!doctype html>"));
    assert!(page.contains("demo explorer"));
    assert!(page.contains("<svg xmlns="), "the SVG scene is inlined");
    // Single-file discipline: no external fetches besides the SVG
    // namespace declaration, no leftover template placeholders.
    for line in page.lines() {
        let l = line.replace("xmlns=\"http://www.w3.org/2000/svg\"", "");
        assert!(
            !l.contains("http://") && !l.contains("https://"),
            "external URL: {line}"
        );
        assert!(!l.contains("src="), "external asset: {line}");
        assert!(!l.contains("@import"), "external stylesheet: {line}");
    }
    assert!(!page.contains("__JEDULE_"));
}

#[test]
fn render_ascii_to_stdout() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out = jedule(&["render", input.to_str().unwrap(), "-f", "ascii"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains('\n'));
}

#[test]
fn render_supports_jpeg() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out_path = dir.join("demo.jpg");
    let out = jedule(&[
        "render",
        input.to_str().unwrap(),
        "-f",
        "jpeg",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&out_path).unwrap();
    assert_eq!(&bytes[..2], &[0xff, 0xd8]); // SOI
    assert_eq!(&bytes[bytes.len() - 2..], &[0xff, 0xd9]); // EOI
}

#[test]
fn render_rejects_unknown_format() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out = jedule(&["render", input.to_str().unwrap(), "-f", "bmp"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown format"));
}

/// `pack`, `info`, `pack --check` and `render --pack-sidecar` agree on
/// one sidecar: the stored digest is that of the input's bytes, pack
/// renders equal text renders, a full-extent pack render gathers no
/// index while a windowed one culls through it, and an edited input is
/// reported stale and rebuilt.
#[test]
fn pack_sidecar_lifecycle() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    let out = jedule(&["pack", inp]);
    assert!(out.status.success());
    let digest = jedule_core::snap::source_digest(&std::fs::read(&input).unwrap());
    let note = String::from_utf8_lossy(&out.stderr);
    assert!(
        note.contains(&format!("source digest {digest:016x}")),
        "{note}"
    );
    assert!(jedule(&["pack", inp, "--check"]).status.success());
    let info = jedule(&["info", inp]);
    assert!(String::from_utf8_lossy(&info.stdout).contains("pack     : v2, fresh"));

    // Renders `input` to `name` with `extra` flags and `--timings`:
    // the output bytes and the timings report.
    let render = |extra: &[&str], name: &str| {
        let path = dir.join(name);
        let mut args = vec!["render", inp, "-o", path.to_str().unwrap(), "--timings"];
        args.extend_from_slice(extra);
        let out = jedule(&args);
        assert!(out.status.success(), "{args:?}");
        let timings = String::from_utf8_lossy(&out.stderr).into_owned();
        (std::fs::read(&path).unwrap(), timings)
    };
    let (text, _) = render(&[], "text.svg");
    let (packed, timings) = render(&["--pack-sidecar"], "packed.svg");
    assert_eq!(packed, text);
    assert!(timings.contains("ingest.digest") && timings.contains("pack.load"));
    assert!(!timings.contains("pack.index_gather"), "{timings}");

    let (text_w, _) = render(&["--window", "4.5", "9"], "text_w.svg");
    let (packed_w, timings) = render(&["--window", "4.5", "9", "--pack-sidecar"], "packed_w.svg");
    assert_eq!(packed_w, text_w);
    assert!(timings.contains("pack.index_gather"), "{timings}");
    let culled: usize = timings
        .lines()
        .find_map(|l| l.trim().strip_prefix("render.tasks_culled"))
        .and_then(|v| v.trim().parse().ok())
        .expect("culled counter reported");
    assert!(culled > 0, "{timings}");

    let mut edited = std::fs::read(&input).unwrap();
    edited.push(b'\n');
    std::fs::write(&input, edited).unwrap();
    let info = jedule(&["info", inp]);
    assert!(String::from_utf8_lossy(&info.stdout).contains("pack     : v2, STALE"));
    assert!(!jedule(&["pack", inp, "--check"]).status.success());
    let (rebuilt, _) = render(&["--pack-sidecar"], "rebuilt.svg");
    assert_eq!(rebuilt, text);
    assert!(jedule(&["pack", inp, "--check"]).status.success());
}

/// A sidecar of an older format version is stale, not corrupt, even when
/// its stored digests are current: `info` flags it, `pack --check`
/// fails naming the version, and a `--pack-sidecar` render rebuilds it
/// silently, at the current version, with the text render's bytes.
#[test]
fn older_version_sidecar_is_stale() {
    use jedule_core::snap::{self, PACK_VERSION};
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let sidecar = snap::sidecar_path(&input);
    let mut pack = std::fs::read(&sidecar).unwrap();
    pack[8..12].copy_from_slice(&(PACK_VERSION - 1).to_le_bytes());
    std::fs::write(&sidecar, &pack).unwrap();

    let info = jedule(&["info", inp]);
    let stdout = String::from_utf8_lossy(&info.stdout);
    assert!(
        stdout.contains(&format!("pack     : v{}, STALE", PACK_VERSION - 1)),
        "{stdout}"
    );
    let check = jedule(&["pack", inp, "--check"]);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("format v{}", PACK_VERSION - 1)),
        "{stderr}"
    );

    let text_svg = dir.join("text.svg");
    let packed_svg = dir.join("packed.svg");
    assert!(jedule(&["render", inp, "-o", text_svg.to_str().unwrap()])
        .status
        .success());
    let out = jedule(&[
        "render",
        inp,
        "--pack-sidecar",
        "-o",
        packed_svg.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("ignoring sidecar"), "{stderr}");
    assert_eq!(
        std::fs::read(&packed_svg).unwrap(),
        std::fs::read(&text_svg).unwrap()
    );
    assert_eq!(snap::peek(&sidecar).unwrap().version, PACK_VERSION);
    assert!(jedule(&["pack", inp, "--check"]).status.success());
}

#[test]
fn info_reports_stats_and_json() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out = jedule(&["info", input.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tasks    : 2"));
    assert!(text.contains("validation: OK"));

    let out = jedule(&["info", input.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'));
    assert!(text.contains("\"tasks\":2"));
}

#[test]
fn convert_roundtrips_formats() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let csv = dir.join("demo.csv");
    let jsonl = dir.join("demo.jsonl");
    let back = dir.join("back.jed");
    assert!(jedule(&[
        "convert",
        input.to_str().unwrap(),
        "-o",
        csv.to_str().unwrap()
    ])
    .status
    .success());
    assert!(jedule(&[
        "convert",
        csv.to_str().unwrap(),
        "-o",
        jsonl.to_str().unwrap()
    ])
    .status
    .success());
    assert!(jedule(&[
        "convert",
        jsonl.to_str().unwrap(),
        "-o",
        back.to_str().unwrap()
    ])
    .status
    .success());
    // Semantically identical after the full tour.
    let a = jedule_xmlio::read_schedule(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let b = jedule_xmlio::read_schedule(&std::fs::read_to_string(&back).unwrap()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn compare_two_schedules() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let out_svg = dir.join("cmp.svg");
    let out = jedule(&[
        "compare",
        input.to_str().unwrap(),
        input.to_str().unwrap(),
        "-o",
        out_svg.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan"));
    assert!(std::fs::read_to_string(&out_svg).unwrap().contains("<svg"));
}

#[test]
fn cmap_emits_fig2() {
    let out = jedule(&["cmap"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("standard_map"));
    assert!(text.contains("0000ff"));
    // And it parses back.
    assert!(jedule_xmlio::read_colormap(&text).is_ok());
}

#[test]
fn view_session_scripted() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let export = dir.join("view_export.svg");
    let script = format!("h\nz 0.5\ni 3.5 1\nc 1\nc all\ne {}\nq\n", export.display());
    let out = jedule_with_stdin(&["view", input.to_str().unwrap()], &script);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("task 1"), "inspect output missing: {text}");
    assert!(text.contains("exported"));
    assert!(std::fs::read_to_string(&export).unwrap().contains("<svg"));
}

#[test]
fn missing_file_reports_error() {
    let out = jedule(&["render", "/nonexistent/schedule.jed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn invalid_schedule_fails_info() {
    let dir = tmp();
    let path = dir.join("broken.jed");
    std::fs::write(
        &path,
        r#"<jedule><platform><cluster id="0" hosts="2"/></platform>
<node_infos><node_statistics>
  <node_property name="id" value="1"/>
  <node_property name="type" value="t"/>
  <node_property name="start_time" value="0"/>
  <node_property name="end_time" value="1"/>
  <configuration>
    <conf_property name="cluster_id" value="0"/>
    <host_lists><hosts start="0" nb="9"/></host_lists>
  </configuration>
</node_statistics></node_infos></jedule>"#,
    )
    .unwrap();
    let out = jedule(&["info", path.to_str().unwrap()]);
    assert!(!out.status.success());
}

/// `depth` nested `<a>` elements under a `root` element: a stack probe
/// for the XML readers, 1.4 MB at 200k levels.
fn deep_xml(root: &str, depth: usize) -> String {
    format!(
        "<{root}>{}{}</{root}>",
        "<a>".repeat(depth),
        "</a>".repeat(depth)
    )
}

/// Asserts a clean failure: exit status 1 (not a signal) with a
/// positioned parse error on stderr.
fn assert_parse_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{what}: {:?} {stderr}",
        out.status
    );
    assert!(stderr.contains("parse error at"), "{what}: {stderr}");
}

#[test]
fn deeply_nested_xml_fails_cleanly() {
    let dir = tmp();
    let deep_jed = dir.join("deep.jed");
    std::fs::write(&deep_jed, deep_xml("jedule", 200_000)).unwrap();
    let deep_cmap = dir.join("deep_cmap.xml");
    std::fs::write(&deep_cmap, deep_xml("cmap", 200_000)).unwrap();
    let demo = demo_schedule(&dir);
    let out_svg = dir.join("out.svg");
    let (deep_jed, deep_cmap, demo, out_svg) = (
        deep_jed.to_str().unwrap(),
        deep_cmap.to_str().unwrap(),
        demo.to_str().unwrap(),
        out_svg.to_str().unwrap(),
    );
    assert_parse_error(&jedule(&["info", deep_jed]), "info");
    assert_parse_error(&jedule(&["render", deep_jed, "-o", out_svg]), "render");
    assert_parse_error(
        &jedule(&["render", demo, "-c", deep_cmap, "-o", out_svg]),
        "render -c",
    );
}

/// JSON nested 200k levels deep — one JSONL line of brackets, and a
/// Chrome trace whose event list never closes — is a positioned parse
/// error, not a stack overflow.
#[test]
fn deeply_nested_json_fails_cleanly() {
    let dir = tmp();
    let depth = 200_000;
    let jsonl = dir.join("deep.jsonl");
    std::fs::write(
        &jsonl,
        format!("{}{}\n", "[".repeat(depth), "]".repeat(depth)),
    )
    .unwrap();
    let chrome = dir.join("deep.json");
    std::fs::write(&chrome, format!("{{\"traceEvents\":{}", "[".repeat(depth))).unwrap();
    for path in [&jsonl, &chrome] {
        let path = path.to_str().unwrap();
        assert_parse_error(&jedule(&["info", path]), path);
    }
}

#[test]
fn wrapped_hosts_range_fails_info() {
    let dir = tmp();
    let path = dir.join("wrapped.jed");
    std::fs::write(
        &path,
        r#"<jedule><platform><cluster id="0" hosts="8"/></platform>
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
</node_statistics></node_infos></jedule>"#,
    )
    .unwrap();
    let out = jedule(&["info", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("task \"w\""), "{stderr}");
}
