//! The paper's §V-A attack experiments, end to end: all four fake PDC
//! results injection attacks, under the default `MAJORITY Endorsement`
//! policy and under the proposed defenses, then the whole of Table II.
//!
//! It asserts what it prints: every attack succeeds under the default
//! policy and fails `ENDORSEMENT_POLICY_FAILURE` under the defenses.
//! `tests/attack_matrix.rs` asserts Table II's cells.
//!
//! Run with `cargo run -p fabric-pdc --example attack_demo`.

use fabric_pdc::attacks::{render_table2, run_all, run_table2, AttackOutcome, LabConfig};
use fabric_pdc::prelude::*;

fn print_outcomes(outcomes: &[AttackOutcome]) {
    for outcome in outcomes {
        println!(
            "{:<14} attack {}: {}",
            outcome.kind.label(),
            if outcome.succeeded {
                "SUCCEEDS"
            } else {
                "fails  "
            },
            outcome.note
        );
    }
}

fn main() {
    println!("=== Fake PDC results injection vs. the default MAJORITY policy ===\n");
    let undefended = run_all(&LabConfig::default());
    print_outcomes(&undefended);
    for outcome in &undefended {
        assert!(outcome.succeeded, "{:?} succeeds", outcome.kind);
    }

    println!("\n=== Same attacks vs. the paper's defenses (Feature 1 + non-member filter) ===\n");
    let defended = run_all(&LabConfig {
        collection_policy: Some("AND('Org1MSP.peer','Org2MSP.peer')".to_string()),
        defense: DefenseConfig {
            collection_policy_for_reads: true,
            filter_non_member_endorsers: true,
            ..DefenseConfig::original()
        },
        seed: 77,
        ..LabConfig::default()
    });
    print_outcomes(&defended);
    for outcome in &defended {
        assert!(!outcome.succeeded, "{:?} fails", outcome.kind);
        assert_eq!(
            outcome.validation_code,
            Some(TxValidationCode::EndorsementPolicyFailure),
            "{:?}",
            outcome.kind
        );
    }

    println!("\n=== Full Table II reproduction ===\n");
    let rows = run_table2(2021);
    println!("{}", render_table2(&rows));
}
