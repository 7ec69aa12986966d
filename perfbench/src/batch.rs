//! In-process batch renders: the reference figure the CLI's output is
//! checked against, and the traced run that times each layer's public
//! call in the order `jedule render` makes them.

use crate::{arg, json_list, ms};
use jedule_core::{snap, PreparedSchedule};
use jedule_render::{layout_prepared, png, raster, OutputFormat, RenderOptions};
use std::path::Path;
use std::time::Instant;

/// The options `jedule render <input> -f png` renders with.
fn png_options() -> RenderOptions {
    RenderOptions::default().with_format(OutputFormat::Png)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn parse(src: &str, path: &Path, threads: usize) -> Result<jedule_core::Schedule, String> {
    jedule_xmlio::parse_any_parallel(src, Some(path), threads)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `render-ref <input> <out.png>`: renders the input's text (never a
/// sidecar) with `render_prepared` and writes the PNG.
pub fn render_ref(args: &[String]) -> Result<(), String> {
    let input: String = arg(args, 0, "input")?;
    let out: String = arg(args, 1, "out.png")?;
    let path = Path::new(&input);
    let opts = png_options();
    let prep = PreparedSchedule::new(parse(&read(path)?, path, opts.threads)?);
    let bytes = jedule_render::render_prepared(&prep, &opts);
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{{\"png_bytes\":{}}}", bytes.len());
    Ok(())
}

/// Per-op samples of every timed call, in milliseconds. A layer the
/// path does not touch keeps an empty list.
#[derive(Default)]
struct Samples {
    op: Vec<f64>,
    read: Vec<f64>,
    parse: Vec<f64>,
    digest: Vec<f64>,
    pack_load: Vec<f64>,
    prepare: Vec<f64>,
    layout: Vec<f64>,
    raster: Vec<f64>,
    png: Vec<f64>,
}

/// Times `f`, appending its duration to `into`.
fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    into.push(ms(t.elapsed()));
    out
}

/// `trace-batch <input> <pack:0|1> <seconds> <min-ops> <ref.png>`:
/// repeats the `jedule render -f png` pipeline in-process for at least
/// `seconds` and `min-ops` ops, timing each public call:
///
/// read → `parse_any_parallel` (text) or `source_digest`,
/// `load_if_fresh` + `from_pack` (pack) → `PreparedSchedule::new` +
/// `warm` → `layout_prepared` → `rasterize_threads` → `encode_with`,
/// then the output write. An op whose PNG differs from the reference
/// counts as failed.
pub fn trace_batch(args: &[String]) -> Result<(), String> {
    let input: String = arg(args, 0, "input")?;
    let pack: u8 = arg(args, 1, "pack")?;
    let seconds: f64 = arg(args, 2, "seconds")?;
    let min_ops: usize = arg(args, 3, "min-ops")?;
    let ref_png: String = arg(args, 4, "ref.png")?;
    let expect = std::fs::read(&ref_png).map_err(|e| format!("cannot read {ref_png}: {e}"))?;
    let path = Path::new(&input);
    let out = format!("{input}.traced.png");
    let opts = png_options();

    let mut s = Samples::default();
    let (mut failed, mut input_bytes, mut canvas_bytes) = (0usize, 0usize, 0usize);
    let mut stats = None;
    let start = Instant::now();
    while s.op.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let op = Instant::now();
        let src = timed(&mut s.read, || read(path))?;
        let prep = if pack == 1 {
            let digest = timed(&mut s.digest, || snap::source_digest(src.as_bytes()));
            let packed = timed(&mut s.pack_load, || {
                snap::load_if_fresh(&snap::sidecar_path(path), digest)
                    .map(|p| p.map(PreparedSchedule::from_pack))
            })
            .map_err(|e| format!("sidecar: {e}"))?
            .ok_or("sidecar is stale")?;
            timed(&mut s.prepare, || prep_warm(packed))
        } else {
            let schedule = timed(&mut s.parse, || parse(&src, path, opts.threads))?;
            timed(&mut s.prepare, || {
                prep_warm(PreparedSchedule::new(schedule))
            })
        };
        let scene = timed(&mut s.layout, || layout_prepared(&prep, &opts));
        let canvas = timed(&mut s.raster, || {
            raster::rasterize_threads(&scene, opts.threads)
        });
        let bytes = timed(&mut s.png, || png::encode_with(&canvas, opts.threads));
        std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
        failed += usize::from(bytes != expect);
        input_bytes = src.len();
        canvas_bytes = canvas.width * canvas.height * 3;
        stats = Some(scene.stats);
        drop((bytes, canvas, scene, prep, src));
        s.op.push(ms(op.elapsed()));
    }
    let stats = stats.ok_or("no op ran")?;
    println!(
        "{{\"ops\":{},\"failed\":{failed},\"input_bytes\":{input_bytes},\
         \"canvas_bytes\":{canvas_bytes},\"tasks_direct\":{},\"tasks_lod_binned\":{},\
         \"lod_strips\":{},\"tasks_culled\":{},\"op_ms\":{},\"read_ms\":{},\"parse_ms\":{},\
         \"digest_ms\":{},\"pack_load_ms\":{},\"prepare_ms\":{},\"layout_ms\":{},\
         \"raster_ms\":{},\"png_ms\":{}}}",
        s.op.len(),
        stats.lod_direct,
        stats.lod_aggregated,
        stats.lod_strips,
        stats.culled,
        json_list(&s.op),
        json_list(&s.read),
        json_list(&s.parse),
        json_list(&s.digest),
        json_list(&s.pack_load),
        json_list(&s.prepare),
        json_list(&s.layout),
        json_list(&s.raster),
        json_list(&s.png),
    );
    Ok(())
}

/// Builds every derived cache a render touches, so that work is timed
/// as prepare rather than inside layout.
fn prep_warm(prep: PreparedSchedule) -> PreparedSchedule {
    prep.warm();
    prep
}
