//! Workload generation for the Sprite migration evaluation.
//!
//! Reproduces the load the original system faced: diurnal user activity at
//! workstation consoles ([`ActivityTrace`], calibrated to the thesis's
//! 65-70% daytime / ~80% off-hours idle fractions), Zhou-style heavy-tailed
//! process lifetimes ([`LifetimeModel`]), and the two coarse-grained
//! application families the evaluation measures: parallel compilations
//! ([`CompileWorkload`]) and independent simulation sweeps
//! ([`simulation_batch`]).

#![warn(missing_docs)]

mod activity;
mod jobs;

pub use activity::{
    fraction_idle, hour_of, is_weekend, is_working_hours, ActivityEvent, ActivityModel,
    ActivityTrace, DAY, HOUR, WEEK,
};
pub use jobs::{simulation_batch, CompileJob, CompileWorkload, LifetimeModel, SimulationJob};
