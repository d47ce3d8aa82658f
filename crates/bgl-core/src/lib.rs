//! # bgl — the BGL system facade and experiment harness
//!
//! Ties the substrates together into the five systems the paper evaluates
//! (§5.1) and the harness that regenerates every table and figure:
//!
//! * [`config`] — system configurations: partitioner, cache, ordering,
//!   isolation, framework efficiency factors;
//! * [`systems`] — presets: **BGL**, **BGL w/o isolation**, **DGL-like**,
//!   **Euler-like**, **PyG-like**, **PaGraph-like**, each expressed as an
//!   ablation of the same substrate (see DESIGN.md for the mapping);
//! * [`measure`] — drives the real data path (partition → distributed
//!   store → sampling → cache) for a batch stream, derives a
//!   [`bgl_exec::StageProfile`], solves or skips isolation, and simulates
//!   end-to-end throughput on the device models;
//! * [`experiments`] — one function per paper table/figure;
//! * [`report`] — text tables and JSON output for EXPERIMENTS.md.
//!
//! ## Quickstart
//!
//! ```no_run
//! use bgl::config::ModelKind;
//! use bgl::experiments::ExperimentCtx;
//! use bgl::systems::SystemKind;
//!
//! let ctx = ExperimentCtx::small();
//! let row = ctx.throughput(
//!     bgl::experiments::DatasetId::Products,
//!     SystemKind::Bgl,
//!     ModelKind::GraphSage,
//!     4,
//! );
//! println!("BGL @4 GPUs: {:.0} samples/s", row.samples_per_sec);
//! ```

pub mod config;
pub mod experiments;
pub mod measure;
pub mod profiler;
pub mod report;
pub mod systems;

pub use bgl_graph::{FeatureBlock, FeaturePrecision};
pub use config::SystemConfig;
pub use measure::{measure_data_path, DataPathTrace, MeasuredSystem};
pub use profiler::{CacheScalingSample, MeasuredProfile};
pub use systems::SystemKind;
