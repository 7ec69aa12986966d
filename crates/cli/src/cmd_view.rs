//! `jedule view` — the interactive mode (paper, §II-D1), terminal
//! edition.
//!
//! The original opens a Swing window; here the same interaction verbs
//! drive a [`jedule_core::ViewState`] over an ANSI rendering (see
//! DESIGN.md's substitution table):
//!
//! ```text
//! z <factor> [center]   zoom the time axis (0.5 = zoom in 2x)
//! p <dt> [dr]           pan by dt seconds / dr rows
//! w <t0> <t1>           zoom to an explicit time window
//! c <id> | c all        select one cluster / all clusters
//! i <t> <row>           inspect (click) the task at (t, row)
//! r                     reread the schedule file and redraw
//! e <file>              export the current view (format by extension)
//! g                     toggle gray-scale colors
//! q                     quit
//! ```

use crate::args::{load_schedule, Args};
use jedule_core::view::task_info;
use jedule_core::{AlignMode, HitTarget, PreparedSchedule, ViewState};
use jedule_render::{render_prepared, OutputFormat, RenderOptions};
use std::io::BufRead;

pub struct Session {
    path: String,
    /// The schedule plus its cached index/extent/kind bundle: every
    /// zoom/pan redraw reuses the prepared data instead of rebuilding it
    /// per frame (the whole point of the interactive mode staying fast
    /// on million-task traces).
    schedule: PreparedSchedule<'static>,
    view: ViewState,
    gray: bool,
    cmap: jedule_core::ColorMap,
}

impl Session {
    fn options(&self) -> RenderOptions {
        let mut o = RenderOptions::default()
            .with_format(OutputFormat::Ascii)
            .with_colormap(self.cmap.clone())
            .with_title(self.path.clone());
        if self.gray {
            o = o.grayscale();
        }
        o.cluster = self.view.cluster_filter;
        o.time_window = Some((self.view.viewport.t0, self.view.viewport.t1));
        o.align = AlignMode::Aligned;
        o
    }

    fn redraw(&self, out: &mut impl std::io::Write) {
        let bytes = render_prepared(&self.schedule, &self.options());
        let _ = out.write_all(&bytes);
        let vp = &self.view.viewport;
        let _ = writeln!(
            out,
            "[{}] window {:.4}..{:.4}  cluster {}  (h for help)",
            self.path,
            vp.t0,
            vp.t1,
            self.view
                .cluster_filter
                .map_or("all".to_string(), |c| c.to_string()),
        );
    }
}

/// Executes one command line against the session. Returns `false` on
/// quit. Extracted from the I/O loop so the interactive mode is unit-
/// testable.
pub fn execute(session: &mut Session, line: &str, out: &mut impl std::io::Write) -> bool {
    let mut it = line.split_whitespace();
    let Some(cmd) = it.next() else {
        return true;
    };
    let num = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok());
    match cmd {
        "q" | "quit" => return false,
        "h" | "help" => {
            let _ = writeln!(
                out,
                "z <f> [c] zoom | p <dt> [dr] pan | w <t0> <t1> window | c <id|all> cluster\n\
                 i <t> <row> inspect | r reread | e <file> export | g gray\n\
                 m <cmap.xml> load color map (paper: maps swappable on the fly) | q quit"
            );
        }
        "z" => {
            let f = num(it.next()).unwrap_or(0.5);
            let center = num(it.next())
                .unwrap_or((session.view.viewport.t0 + session.view.viewport.t1) / 2.0);
            session.view.zoom_time(f, center);
            session.redraw(out);
        }
        "p" => {
            let dt = num(it.next()).unwrap_or(0.0);
            let dr = num(it.next()).unwrap_or(0.0);
            session.view.pan(dt, dr);
            session.redraw(out);
        }
        "w" => {
            if let (Some(t0), Some(t1)) = (num(it.next()), num(it.next())) {
                let (r0, r1) = (session.view.viewport.r0, session.view.viewport.r1);
                session.view.zoom_rect(t0, t1, r0, r1);
            }
            session.redraw(out);
        }
        "c" => {
            match it.next() {
                Some("all") | None => session.view.select_cluster(None),
                Some(id) => {
                    if let Ok(v) = id.parse() {
                        session.view.select_cluster(Some(v));
                    }
                }
            }
            session.redraw(out);
        }
        "i" => {
            if let (Some(t), Some(row)) = (num(it.next()), num(it.next())) {
                match session.view.hit_test(&session.schedule, t, row) {
                    HitTarget::Task(idx) => {
                        let info = task_info(&session.schedule, idx);
                        let _ = writeln!(
                            out,
                            "task {} [{}]: start {:.4}, end {:.4}, duration {:.4}",
                            info.id, info.kind, info.start, info.end, info.duration
                        );
                        for (cid, name, hosts) in &info.resources {
                            let _ = writeln!(out, "  cluster {cid} ({name}): hosts {hosts}");
                        }
                        for (k, v) in &info.attrs {
                            let _ = writeln!(out, "  {k} = {v}");
                        }
                    }
                    HitTarget::Idle { cluster, host } => {
                        let _ = writeln!(out, "idle: cluster {cluster}, host {host}");
                    }
                    HitTarget::Nothing => {
                        let _ = writeln!(out, "nothing there");
                    }
                }
            } else {
                let _ = writeln!(out, "usage: i <t> <row>");
            }
        }
        "r" => {
            // "Jedule also supports fast rereads … of the current
            // schedule file" — rerun the simulation, press r, see the
            // new schedule.
            match load_schedule(&session.path) {
                Ok(s) => {
                    session.schedule = PreparedSchedule::new(s);
                    session.view = ViewState::fit(&session.schedule);
                    session.redraw(out);
                }
                Err(e) => {
                    let _ = writeln!(out, "reread failed: {e}");
                }
            }
        }
        "e" => {
            if let Some(file) = it.next() {
                let format = std::path::Path::new(file)
                    .extension()
                    .and_then(|e| e.to_str())
                    .and_then(OutputFormat::parse)
                    .unwrap_or(OutputFormat::Png);
                let mut o = session.options();
                o.format = format;
                match std::fs::write(file, render_prepared(&session.schedule, &o)) {
                    Ok(()) => {
                        let _ = writeln!(out, "exported {file}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "export failed: {e}");
                    }
                }
            }
        }
        "g" => {
            session.gray = !session.gray;
            session.redraw(out);
        }
        "m" => {
            // "Color maps can also be changed on the fly" (paper, §IX).
            match it.next() {
                Some(file) => match std::fs::read_to_string(file)
                    .map_err(|e| e.to_string())
                    .and_then(|src| jedule_xmlio::read_colormap(&src).map_err(|e| e.to_string()))
                {
                    Ok(map) => {
                        session.cmap = map;
                        session.redraw(out);
                    }
                    Err(e) => {
                        let _ = writeln!(out, "cannot load color map: {e}");
                    }
                },
                None => {
                    session.cmap = jedule_core::ColorMap::standard();
                    session.redraw(out);
                }
            }
        }
        other => {
            let _ = writeln!(out, "unknown command {other:?}; h for help");
        }
    }
    true
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut input: Option<String> = None;
    let mut pack_sidecar = false;
    let mut sink = crate::obs_cli::ObsSink::default();
    while let Some(a) = args.next() {
        match a {
            "--pack-sidecar" => pack_sidecar = true,
            flag if sink.accept(flag, &mut args)? => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if input.is_some() {
                    return Err(format!("unexpected extra argument {positional:?}"));
                }
                input = Some(positional.to_string());
            }
        }
    }
    let input = input.ok_or("view needs an input schedule file")?;
    // The collector stays installed for the whole interactive session;
    // exports are written when the session ends (q / EOF).
    let _obs = sink.arm();
    let schedule = {
        let _s = jedule_core::obs::span("ingest");
        if pack_sidecar {
            crate::args::load_prepared_sidecar(&input, 1)?
        } else {
            PreparedSchedule::new(load_schedule(&input)?)
        }
    };
    // Build the index/extent caches up front so even the very first
    // zoom or pan is served warm.
    schedule.warm();
    let view = ViewState::fit(&schedule);
    let mut session = Session {
        path: input,
        schedule,
        view,
        gray: false,
        cmap: jedule_core::ColorMap::standard(),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    session.redraw(&mut out);

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !execute(&mut session, &line, &mut out) {
            break;
        }
    }
    sink.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::{Allocation, ScheduleBuilder, Task};

    fn session() -> Session {
        let schedule = ScheduleBuilder::new()
            .cluster(0, "c0", 4)
            .task(Task::new("a", "computation", 0.0, 10.0).on(Allocation::contiguous(0, 0, 4)))
            .build()
            .unwrap();
        let schedule = PreparedSchedule::new(schedule);
        let view = ViewState::fit(&schedule);
        Session {
            path: "/nonexistent.jed".into(),
            schedule,
            view,
            gray: false,
            cmap: jedule_core::ColorMap::standard(),
        }
    }

    fn run_cmd(s: &mut Session, cmd: &str) -> (bool, String) {
        let mut out = Vec::new();
        let more = execute(s, cmd, &mut out);
        (more, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn quit_stops_loop() {
        let mut s = session();
        assert!(!run_cmd(&mut s, "q").0);
        assert!(run_cmd(&mut s, "").0);
    }

    #[test]
    fn zoom_changes_window() {
        let mut s = session();
        let before = s.view.viewport.time_span();
        run_cmd(&mut s, "z 0.5");
        assert!(s.view.viewport.time_span() < before);
    }

    #[test]
    fn inspect_prints_task_details() {
        let mut s = session();
        let (_, out) = run_cmd(&mut s, "i 5 1");
        assert!(out.contains("task a"), "{out}");
        assert!(out.contains("hosts 0-3"), "{out}");
    }

    #[test]
    fn inspect_misses_politely() {
        let mut s = session();
        let (_, out) = run_cmd(&mut s, "i 5 99");
        assert!(out.contains("nothing"), "{out}");
    }

    #[test]
    fn cluster_selection_roundtrip() {
        let mut s = session();
        run_cmd(&mut s, "c 0");
        assert_eq!(s.view.cluster_filter, Some(0));
        run_cmd(&mut s, "c all");
        assert_eq!(s.view.cluster_filter, None);
    }

    #[test]
    fn reread_of_missing_file_reports() {
        let mut s = session();
        let (more, out) = run_cmd(&mut s, "r");
        assert!(more);
        assert!(out.contains("reread failed"), "{out}");
    }

    #[test]
    fn gray_toggles() {
        let mut s = session();
        run_cmd(&mut s, "g");
        assert!(s.gray);
        run_cmd(&mut s, "g");
        assert!(!s.gray);
    }

    #[test]
    fn export_writes_file() {
        let mut s = session();
        let dir = std::env::temp_dir().join("jedule_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("view.svg");
        let (_, out) = run_cmd(&mut s, &format!("e {}", path.display()));
        assert!(out.contains("exported"), "{out}");
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn help_lists_commands() {
        let mut s = session();
        let (_, out) = run_cmd(&mut s, "h");
        assert!(out.contains("zoom") && out.contains("inspect"));
    }

    #[test]
    fn unknown_command_hint() {
        let mut s = session();
        let (_, out) = run_cmd(&mut s, "bogus");
        assert!(out.contains("unknown command"));
    }
}
