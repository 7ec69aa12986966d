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

/// A sidecar that is stale (the input changed) and corrupt too is
/// stale first: a `--pack-sidecar` render rebuilds it silently, at one
/// worker and at two (where the pack loads while the input digests).
#[test]
fn stale_and_corrupt_sidecar_rebuilds_silently() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let sidecar = jedule_core::snap::sidecar_path(&input);
    let mut pack = std::fs::read(&sidecar).unwrap();
    let mid = pack.len() / 2;
    pack[mid] ^= 0xff;
    let mut edited = std::fs::read(&input).unwrap();
    edited.push(b'\n');
    std::fs::write(&input, edited).unwrap();
    let text_svg = dir.join("text.svg");
    assert!(jedule(&["render", inp, "-o", text_svg.to_str().unwrap()])
        .status
        .success());
    for j in ["1", "2"] {
        std::fs::write(&sidecar, &pack).unwrap();
        let packed_svg = dir.join(format!("packed{j}.svg"));
        let out = jedule(&[
            "render",
            inp,
            "--pack-sidecar",
            "-j",
            j,
            "-o",
            packed_svg.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "-j {j}: {stderr}");
        assert!(!stderr.contains("ignoring sidecar"), "-j {j}: {stderr}");
        assert_eq!(
            std::fs::read(&packed_svg).unwrap(),
            std::fs::read(&text_svg).unwrap()
        );
        assert!(jedule(&["pack", inp, "--check"]).status.success(), "-j {j}");
    }
}

/// A fresh but corrupt sidecar is reported with the same message at one
/// worker and at two, then rebuilt; the figure is the text render's.
#[test]
fn corrupt_sidecar_is_reported_alike_at_any_worker_count() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let sidecar = jedule_core::snap::sidecar_path(&input);
    let mut pack = std::fs::read(&sidecar).unwrap();
    let mid = pack.len() / 2;
    pack[mid] ^= 0xff;
    let text_svg = dir.join("text.svg");
    assert!(jedule(&["render", inp, "-o", text_svg.to_str().unwrap()])
        .status
        .success());
    let reports: Vec<String> = ["1", "2"]
        .into_iter()
        .map(|j| {
            std::fs::write(&sidecar, &pack).unwrap();
            let packed_svg = dir.join(format!("packed{j}.svg"));
            let out = jedule(&[
                "render",
                inp,
                "--pack-sidecar",
                "-j",
                j,
                "-o",
                packed_svg.to_str().unwrap(),
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(out.status.success(), "-j {j}: {stderr}");
            assert_eq!(
                std::fs::read(&packed_svg).unwrap(),
                std::fs::read(&text_svg).unwrap()
            );
            stderr.lines().next().unwrap_or_default().to_string()
        })
        .collect();
    assert!(
        reports[0].contains("ignoring sidecar") && reports[0].contains("body digest mismatch"),
        "{}",
        reports[0]
    );
    assert_eq!(reports[0], reports[1]);
}

/// `pack --check` on a pack big enough to validate on several workers
/// names the same error at `-j 1` and `-j 2`: a bad index entry behind
/// a re-stamped body digest, and a plain flipped byte.
#[test]
fn pack_check_names_the_same_error_at_any_worker_count() {
    use jedule_core::snap::source_digest;
    let dir = tmp();
    let input = dir.join("wide.csv");
    let mut csv = String::from("cluster,0,c0,8\n");
    for i in 0..24_000u32 {
        csv.push_str(&format!("task,t{i},work,{i},{},0:{}\n", i + 3, i % 8));
    }
    std::fs::write(&input, csv).unwrap();
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let sidecar = jedule_core::snap::sidecar_path(&input);
    let pack = std::fs::read(&sidecar).unwrap();
    assert!(pack.len() >= 1 << 20, "{} bytes", pack.len());

    // The byte range of section `id` (header 48 B, then 24-byte table
    // entries `{id u32, pad u32, off u64, len u64}`).
    let section = |id: u32| {
        (0..24)
            .map(|i| 48 + 24 * i)
            .find(|&e| u32::from_le_bytes(pack[e..e + 4].try_into().unwrap()) == id)
            .map(|e| {
                let word = |at: usize| u64::from_le_bytes(pack[at..at + 8].try_into().unwrap());
                (word(e + 8) as usize, word(e + 16) as usize)
            })
            .unwrap()
    };
    let check = |bytes: &[u8]| -> Vec<String> {
        std::fs::write(&sidecar, bytes).unwrap();
        ["1", "2"]
            .into_iter()
            .map(|j| {
                let out = jedule(&["pack", inp, "--check", "-j", j]);
                assert_eq!(out.status.code(), Some(1), "-j {j}");
                String::from_utf8_lossy(&out.stderr).into_owned()
            })
            .collect()
    };

    // The last host index entry (section 17) names a task past the end.
    let (host_ids, host_len) = section(17);
    let mut bad = pack.clone();
    let at = host_ids + host_len - 4;
    bad[at..at + 4].copy_from_slice(&24_000u32.to_le_bytes());
    let body = source_digest(&bad[48..]);
    bad[24..32].copy_from_slice(&body.to_le_bytes());
    let reports = check(&bad);
    assert!(
        reports[0].contains("index host entries: task id 24000 out of range"),
        "{}",
        reports[0]
    );
    assert_eq!(reports[0], reports[1]);

    let mut flipped = pack.clone();
    flipped[pack.len() / 2] ^= 0x01;
    let reports = check(&flipped);
    assert!(
        reports[0].contains("body digest mismatch"),
        "{}",
        reports[0]
    );
    assert_eq!(reports[0], reports[1]);
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

/// `pack --check` reports its stages like every other command: the
/// metrics JSON records the pack load, and `--timings` prints the tree
/// after the verdict.
#[test]
fn pack_check_reports_timings_and_metrics() {
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let metrics = dir.join("check.json");
    let out = jedule(&[
        "pack",
        inp,
        "--check",
        "--timings",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("fresh"));
    assert!(stderr.contains("pack.load"), "{stderr}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"pack.load\""), "{json}");
}

/// `view --pack-sidecar` rereads (`r`) through the sidecar as startup
/// does: a fresh sidecar is loaded again with no text parse, and a
/// reread after the input is edited leaves a sidecar that is fresh for
/// the edited text.
#[test]
fn view_reread_goes_through_the_sidecar() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let dir = tmp();
    let input = demo_schedule(&dir);
    let inp = input.to_str().unwrap();
    assert!(jedule(&["pack", inp]).status.success());
    let metrics = dir.join("view.json");
    let m = metrics.to_str().unwrap();
    // Inspecting a task builds that task alone: neither startup, nor the
    // click, nor the reread materializes the pack.
    let out = jedule_with_stdin(
        &["view", inp, "--pack-sidecar", "--metrics-json", m],
        "i 3.5 1\nr\nq\n",
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("window"), "{stdout}");
    assert!(stdout.contains("task 1 [computation]"), "{stdout}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"pack.load\""), "{json}");
    assert!(!json.contains("ingest.parse"), "{json}");
    assert!(!json.contains("prepare.materialize"), "{json}");

    // Edit the input once the session has loaded it, then reread.
    let mut child = Command::new(env!("CARGO_BIN_EXE_jedule"))
        .args(["view", inp, "--pack-sidecar"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    while !line.contains("(h for help)") {
        line.clear();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "session ended");
    }
    let mut edited = std::fs::read(&input).unwrap();
    edited.push(b'\n');
    std::fs::write(&input, edited).unwrap();
    assert!(!jedule(&["pack", inp, "--check"]).status.success());
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"r\nq\n")
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let check = jedule(&["pack", inp, "--check"]);
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
}

/// Runs `info` on `name` holding `text` and expects exit 1 (not a
/// signal) with `message` on stderr.
fn assert_info_rejects(name: &str, text: &str, message: &str) {
    let dir = tmp();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    let out = jedule(&["info", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
    assert!(stderr.contains(message), "{name}: {stderr}");
}

/// The CSV range `0-4294967295` ends past the last `u32` host index: an
/// error, not a task with no hosts.
#[test]
fn wrapped_csv_hosts_range_fails_info() {
    assert_info_rejects(
        "wrapped.csv",
        "cluster,0,c0,8\ntask,w,t,0,1,0:0-4294967295\n",
        "host range \"0-4294967295\" ends past host index 4294967295",
    );
}

/// A JSONL range that ends past `u32::MAX`, or a value above it, is an
/// error, not a wrapped range that passes validation.
#[test]
fn wrapped_jsonl_hosts_range_fails_info() {
    for hosts in ["[[4294967295,2]]", "[[4294967296,1]]"] {
        assert_info_rejects(
            "wrapped.jsonl",
            &format!(
                "{{\"rec\":\"cluster\",\"id\":0,\"name\":\"c0\",\"hosts\":8}}\n\
                 {{\"rec\":\"task\",\"id\":\"w\",\"type\":\"t\",\"start\":0,\"end\":1,\
                 \"allocations\":[{{\"cluster\":0,\"hosts\":{hosts}}}]}}\n"
            ),
            "line 2: host range",
        );
    }
}

/// `--timings`, `--profile` and `--metrics-json` add up at any worker
/// count: `total` stays within the wall time measured around the
/// process, every span lies inside its parent (worker spans nest under
/// the stage that started them), and every stage's wall time is at most
/// its worker time. The input is large enough that the raster, deflate
/// and LOD band workers together outlast the process if counted twice.
#[test]
fn timings_and_metrics_add_up_at_any_worker_count() {
    use jedule_xmlio::json;
    let dir = tmp();
    let csv = dir.join("wide.csv");
    let mut text = String::from("cluster,0,c0,64\n");
    for i in 0..20_000u32 {
        let start = f64::from(i) * 0.05;
        let _ = std::fmt::Write::write_fmt(
            &mut text,
            format_args!(
                "task,t{i},k{},{start},{},0:{}\n",
                i % 3,
                start + 0.01,
                i % 64
            ),
        );
    }
    std::fs::write(&csv, text).unwrap();
    let xml = dir.join("wide.jed");
    let (csv, xml) = (csv.to_str().unwrap(), xml.to_str().unwrap());
    assert!(jedule(&["convert", csv, "-o", xml]).status.success());
    assert!(jedule(&["pack", xml]).status.success());
    let profile = dir.join("profile.json");
    let metrics = dir.join("metrics.json");
    let (p, m) = (profile.to_str().unwrap(), metrics.to_str().unwrap());
    let cases: [(&str, &[&str]); 2] =
        [("pack png", &["--pack-sidecar", "-f", "png"]), ("xml", &[])];
    for (what, extra) in cases {
        for j in ["1", "2"] {
            let out_file = dir.join("out");
            let mut args = vec!["render", xml, "-o", out_file.to_str().unwrap(), "-j", j];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["--timings", "--profile", p, "--metrics-json", m]);
            let t = std::time::Instant::now();
            let out = jedule(&args);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{what} -j {j}: {stderr}");

            let total: f64 = stderr
                .lines()
                .find_map(|l| l.strip_prefix("total"))
                .and_then(|l| l.trim().strip_suffix("ms"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("{what} -j {j}: no total in {stderr}"));
            assert!(
                total <= wall_ms,
                "{what} -j {j}: total {total} ms exceeds the process wall {wall_ms} ms\n{stderr}"
            );

            let trace = json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
            let events = trace.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
            let field = |ev: &json::Json, k: &str| ev.get(k).and_then(|v| v.as_f64()).unwrap();
            let arg = |ev: &json::Json, k: &str| ev.get("args").and_then(|a| a.get(k)?.as_f64());
            for ev in events {
                let Some(pid) = arg(ev, "parent") else {
                    continue;
                };
                let parent = events.iter().find(|e| arg(e, "id") == Some(pid)).unwrap();
                let (s, e) = (field(ev, "ts"), field(ev, "ts") + field(ev, "dur"));
                let (ps, pe) = (
                    field(parent, "ts"),
                    field(parent, "ts") + field(parent, "dur"),
                );
                // The trace prints microseconds with three decimals.
                assert!(
                    s + 0.01 >= ps && e <= pe + 0.01,
                    "{what} -j {j}: {:?} [{s}, {e}] escapes its parent {:?} [{ps}, {pe}]",
                    ev.get("name"),
                    parent.get("name")
                );
            }

            let doc = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            for (name, stage) in doc.get("stages").and_then(|s| s.as_obj()).unwrap() {
                let wall = stage.get("wall_ms").and_then(|v| v.as_f64()).unwrap();
                let worker = stage.get("worker_ms").and_then(|v| v.as_f64());
                assert!(
                    worker.is_some_and(|w| wall <= w),
                    "{what} -j {j}: {name} wall {wall} ms, worker {worker:?}"
                );
            }
        }
    }
}
