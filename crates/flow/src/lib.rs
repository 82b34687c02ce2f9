//! `fabric-flow` — information-flow taint analysis for chaincode
//! private-data leakage.
//!
//! The paper's attacks all reduce to one root cause: private-collection
//! data flowing to a less-private sink. `fabric-lint` checks the
//! *configuration* preconditions (PDC001–PDC009); this crate analyzes
//! the *chaincode*. It derives a security [`Label`] lattice from the
//! collection definitions (label = member-org set, public state = ⊥),
//! runs each registered entry point through a shadow-tracking
//! [`TaintStub`] over a deterministic input corpus and per-identity
//! matrix, and reports every flow that loses confidentiality:
//!
//! | rule | flow |
//! |---|---|
//! | `PDC012` | private data → public world state |
//! | `PDC013` | private data → chaincode event |
//! | `PDC014` | private data → response payload of a non-member client |
//! | `PDC015` | stricter collection → laxer collection (downgrade) |
//! | `PDC016` | low-entropy commitment (brute-forceable PR_Hash) |
//! | `PDC017` | endorsement nondeterminism (rwset divergence) |
//!
//! Findings carry a rendered source→sink flow path and reuse the
//! `fabric-lint` registry and renderers, so they land in the same
//! text/JSON/SARIF reports — and [`analyze_targets_with`] fans out over
//! targets with the same deterministic stride the corpus scanner uses.

mod driver;
mod lattice;
mod registry;
mod taint;

pub use driver::{
    analyze_target, analyze_targets, analyze_targets_with, ArgSpec, EntryPoint, FlowTarget,
};
pub use lattice::Label;
pub use registry::{channel_orgs, sample_registry};
pub use taint::{
    carries, client_identity, input_token, sentinel_for, TaintRun, TaintStub, SEED_KEY,
};
