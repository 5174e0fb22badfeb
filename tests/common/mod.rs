//! Helpers shared by the root integration suites.

pub mod relink;
