//! Test-side support shared by integration tests.

pub mod reference_peer;
