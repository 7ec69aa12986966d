//! # jedule
//!
//! A Rust reproduction of **Jedule: A Tool for Visualizing Schedules of
//! Parallel Applications** (Hunold, Hoffmann, Suter; PSTI/ICPP-W 2010),
//! including every substrate its case studies depend on.
//!
//! ```
//! use jedule::prelude::*;
//!
//! // Build a schedule like the paper's Fig. 1 task ...
//! let schedule = ScheduleBuilder::new()
//!     .cluster(0, "cluster-0", 8)
//!     .task(Task::new("1", "computation", 0.0, 0.310)
//!         .on(Allocation::contiguous(0, 0, 8)))
//!     .build()
//!     .unwrap();
//!
//! // ... and render it with the Fig. 2 standard color map.
//! let svg = jedule::render::render(
//!     &schedule,
//!     &RenderOptions::default().with_title("quickstart"),
//! );
//! assert!(String::from_utf8(svg).unwrap().contains("<svg"));
//! ```
//!
//! Crate map (one module per sub-crate):
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`core`] | schedule model, color maps, composites, views | §II |
//! | [`xmlio`] | Jedule XML, color-map XML, CSV/JSONL parsers | §II-C |
//! | [`render`] | layout engine; SVG/PNG/PPM/PDF/ANSI back-ends | §II-D |
//! | [`platform`] | cluster/backbone platform models | §V (Fig. 7) |
//! | [`simx`] | discrete-event simulator (SimGrid substitute) | §III, §V |
//! | [`dag`] | moldable-task DAGs, generators, Montage | §III–§V |
//! | [`sched`] | CPA/MCPA/MCPA2, CRA multi-DAG, HEFT, backfilling | §III–§V |
//! | [`taskpool`] | task-pool runtime + quicksort + NUMA simulator | §VI |
//! | [`workloads`] | SWF traces, synthetic Thunder day | §VII |

pub use jedule_core as core;
pub use jedule_dag as dag;
pub use jedule_platform as platform;
pub use jedule_render as render;
pub use jedule_sched as sched;
pub use jedule_simx as simx;
pub use jedule_taskpool as taskpool;
pub use jedule_workloads as workloads;
pub use jedule_xmlio as xmlio;

/// The most common imports in one place.
pub mod prelude {
    pub use jedule_core::{
        AlignMode, Allocation, Cluster, Color, ColorMap, ColorPair, HostRange, HostSet,
        PreparedSchedule, Schedule, ScheduleBuilder, Task, ViewState,
    };
    pub use jedule_render::{render, render_to_file, OutputFormat, RenderOptions};
    pub use jedule_xmlio::{read_schedule, write_schedule_string};
}
