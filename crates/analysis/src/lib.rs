//! # permea-analysis — the paper's experimental study, end to end
//!
//! Orchestrates the full reproduction of Sections 7–8:
//!
//! * [`study`] — runs the campaign (4 000 injections per input signal in the
//!   full configuration), estimates the permeability matrix, computes every
//!   derived measure, builds all trees and paths,
//! * [`tables`] — renders Tables 1–4,
//! * [`figures`] — renders Figs. 9–12 (and the Fig. 2–5 five-module example
//!   via [`fivemod`]),
//! * [`checks`] — machine-checkable versions of observations OB1–OB6 and
//!   the path census, comparing this reproduction's *shape* against the
//!   paper,
//! * [`report`] — writes everything to an artifact directory,
//! * [`explorer`] — assembles the self-contained interactive
//!   `explorer.html` page (`--html-out`).
//!
//! The `study` binary (`cargo run -p permea-analysis --bin study`) runs the
//! whole pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod exit;
pub mod explorer;
pub mod figures;
pub mod fivemod;
pub mod placement_experiment;
pub mod report;
pub mod sensitivity;
pub mod service;
pub mod study;
pub mod tables;
pub mod validation;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::checks::{run_shape_checks, ShapeCheck};
    pub use crate::study::{Study, StudyConfig, StudyOutput};
    pub use permea_target::arrestment::ArrestmentFactory;
}

pub use prelude::*;
