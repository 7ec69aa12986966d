//! # jedule-core
//!
//! Core data model of the Jedule reproduction.
//!
//! Jedule (Hunold, Hoffmann, Suter; PSTI 2010) visualizes *task schedules* of
//! parallel applications as Gantt charts. This crate provides the
//! platform-independent model the original Java tool builds on:
//!
//! * [`Schedule`], [`Task`], [`Cluster`] — schedules are sets of tasks, each
//!   spanning one or more (possibly non-contiguous) resources of one or more
//!   disjoint clusters (`model`).
//! * [`ColorMap`] — user-defined per-type foreground/background colors with
//!   composite rules and grayscale conversion (`colormap`).
//! * Composite-task computation for overlapping tasks (`composite`).
//! * Scaled vs. aligned multi-cluster time alignment (`align`).
//! * Utilization / idle-time statistics (`stats`).
//! * [`ScheduleIndex`] — per-cluster / per-host interval index answering
//!   "which tasks intersect `[t0, t1]` on this row?" in `O(log n + k)`
//!   (`index`), backing window culling, statistics and the composite sweep.
//! * [`ViewState`] — the interactive-mode semantics (zoom, pan, cluster
//!   selection, hit-testing, task inspection) as a pure model (`view`).
//! * Schedule validation (`validate`).
//! * Observability — hierarchical spans, counters, Chrome-trace and
//!   metrics-JSON export — shared by every crate in the workspace (`obs`).
//!
//! The XML input format of the paper lives in `jedule-xmlio`; rendering
//! back-ends live in `jedule-render`.

pub mod align;
pub mod builder;
pub mod color;
pub mod colormap;
pub mod columns;
pub mod composite;
pub mod diff;
pub mod error;
pub mod hostset;
pub mod index;
pub mod model;
pub mod obs;
pub mod parallel;
pub mod prepared;
pub mod snap;
pub mod stats;
pub mod transform;
pub mod validate;
pub mod view;

pub use align::{AlignMode, TimeExtent};
pub use builder::ScheduleBuilder;
pub use color::Color;
pub use colormap::{ColorMap, ColorPair, CompositeRule};
pub use columns::{Seg, TaskColumns};
pub use composite::{composite_tasks, CompositeOptions};
pub use diff::{diff_schedules, ScheduleDiff, TaskChange};
pub use error::CoreError;
pub use hostset::{HostRange, HostSet};
pub use index::{ClusterIndex, IndexEntry, IntervalSeq, ScheduleIndex};
pub use model::{Allocation, Cluster, MetaInfo, Schedule, Task};
pub use obs::{Collector, ObsReport, Registry, SpanRecord};
pub use parallel::{effective_threads, line_chunks, LineChunk};
pub use prepared::PreparedSchedule;
pub use snap::{PackError, PackInfo, PackedSchedule};
pub use stats::{ClusterStats, Hole, ScheduleStats};
pub use transform::{filter_types, filter_window, merge, normalize, scale_time, shift_time};
pub use validate::{validate, ValidationIssue};
pub use view::{HitTarget, TaskInfo, ViewState, Viewport};
