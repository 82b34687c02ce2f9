//! The paper's attacks: fake PDC results injection (§IV-A) and private
//! data leakage (§IV-B), plus the experiment harness that reproduces the
//! evaluation of §V-A/§V-B and Table II.
//!
//! The attack surface is exactly the three misuse cases:
//!
//! 1. PDC non-member peers can endorse PDC transactions (write-only needs
//!    no private state; reads are forged via `GetPrivateDataHash`);
//! 2. PDC transactions are validated with the chaincode-level endorsement
//!    policy (`MAJORITY Endorsement` by default), which does not
//!    distinguish members from non-members;
//! 3. the proposal-response `payload` rides through ordering in plaintext
//!    and lands in every peer's local blockchain.
//!
//! Nothing in this crate bypasses the simulator's integrity checks: the
//! attacks only use the public APIs a real malicious organization has —
//! installing customized chaincode on its own peers, choosing which peers
//! endorse, and reading its own copy of the ledger.

mod collusion;
mod lab;
mod leakage;
mod mal_client;
mod table2;

pub use collusion::ColludingGuardedPdc;
pub use lab::{
    build_lab, run_all, run_attack, AttackKind, AttackLab, AttackOutcome, ChaincodePolicy,
    LabConfig,
};
pub use leakage::{
    extract_payload_leaks, run_read_leakage_scenario, run_write_leakage_scenario, LeakScenario,
    LeakedRecord,
};
pub use mal_client::MaliciousClient;
pub use table2::{render_table2, run_table2, Table2Cell, Table2Row};
