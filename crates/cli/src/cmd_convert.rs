//! `jedule convert` — translate between the supported schedule formats
//! (the output format is picked from the output file extension).

use crate::args::{load_schedule, Args};
use jedule_xmlio::{csvfmt, jedule_xml, jsonl};

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;

    while let Some(a) = args.next() {
        match a {
            "-o" | "--output" => output = Some(args.value(a)?.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            p => input = Some(p.to_string()),
        }
    }
    let input = input.ok_or("convert needs an input schedule file")?;
    let output = output.ok_or("convert needs -o <output>")?;
    let schedule = load_schedule(&input, 1)?;

    let ext = std::path::Path::new(&output)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let text = match ext {
        "jed" | "xml" | "jedule" => jedule_xml::write_schedule_string(&schedule),
        "csv" => csvfmt::write_schedule_csv(&schedule),
        "jsonl" | "ndjson" => jsonl::write_schedule_jsonl(&schedule),
        other => {
            return Err(format!(
                "unknown output extension {other:?} (use .jed/.xml, .csv or .jsonl)"
            ))
        }
    };
    std::fs::write(&output, text).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!("wrote {output}");
    Ok(())
}
