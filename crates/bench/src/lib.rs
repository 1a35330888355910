//! The reproduction harness: profiles, table runners, and renderers for
//! every table and figure in the paper's evaluation section.
//!
//! The `reproduce` binary drives this library; each `tableN`/`figureN`
//! function returns both a human-readable text block and a JSON artifact so
//! `EXPERIMENTS.md` can cite machine-checkable numbers.

pub mod profile;
pub mod render;
pub mod tables;

pub use profile::Profile;
pub use render::Table;
pub use tables::{
    figure5, figure6, render_table2, render_table3, render_table4, render_table5, table1,
    table2_data, table4_data, table6, table7, Artifact,
};
