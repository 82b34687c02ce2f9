//! The built-in analysis registry: every runnable sample chaincode with
//! its deployment definition and entry-point corpus.
//!
//! Flow analysis needs *executable* chaincode — unlike the text scanner,
//! it drives real invocations through the stub. The registry pairs each
//! sample in `fabric_chaincode::samples` with the definition it ships
//! with and the deterministic inputs that exercise its functions; the
//! `analyze lint --flow` subcommand and the self-analysis regression
//! tests both run over exactly this set.

use crate::flow::{ArgSpec, EntryPoint, FlowTarget};
use fabric_chaincode::samples::{
    Guard, GuardedPdc, LeakyEscrow, SaccPrivate, SaccPrivateFixed, SecuredTrade,
};
use fabric_chaincode::ChaincodeDefinition;
use fabric_types::{CollectionConfig, OrgId};
use std::sync::Arc;

/// The analysis channel: three organizations, so every sample collection
/// has at least one non-member (the PDC014 recipient axis and the PDC017
/// peer axis need one).
pub fn channel_orgs() -> Vec<OrgId> {
    vec![
        OrgId::new("Org1MSP"),
        OrgId::new("Org2MSP"),
        OrgId::new("Org3MSP"),
    ]
}

/// Every built-in sample as a [`FlowTarget`], in name order.
pub fn sample_registry() -> Vec<FlowTarget> {
    let key = || ArgSpec::SeedKey;
    let mut targets = vec![
        FlowTarget {
            name: "guarded".into(),
            uri: "sample:guarded".into(),
            chaincode: Arc::new(GuardedPdc::new("PDC1", Guard::LessThan(15), Guard::Always)),
            definition: ChaincodeDefinition::new("guarded").with_collection(
                CollectionConfig::membership_of(
                    "PDC1",
                    &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
                ),
            ),
            entry_points: vec![
                EntryPoint::new("read", [key()]),
                // 5 passes the `< 15` write guard; a literal input, so the
                // committed value is exempt from PDC016 (client entropy).
                EntryPoint::new("write", [key(), ArgSpec::Literal("5")]),
                EntryPoint::new("add", [key(), ArgSpec::Literal("2")]),
                EntryPoint::new("delete", [key()]),
            ],
            channel_orgs: channel_orgs(),
        },
        FlowTarget {
            name: "leaky_escrow".into(),
            uri: "sample:leaky_escrow".into(),
            chaincode: Arc::new(LeakyEscrow::default()),
            definition: LeakyEscrow::default_definition(),
            entry_points: vec![
                EntryPoint::new("publish", [key()]),
                EntryPoint::new("announce", [key()]),
                EntryPoint::new("peek", [key()]),
                EntryPoint::new("mirror", [key()]),
                EntryPoint::new("settle", [key()]),
                EntryPoint::new("stamp", [key()]),
            ],
            channel_orgs: channel_orgs(),
        },
        FlowTarget {
            name: "sacc".into(),
            uri: "sample:sacc".into(),
            chaincode: Arc::new(SaccPrivate::default()),
            definition: sacc_definition(),
            entry_points: vec![
                EntryPoint::new("set", [key(), ArgSpec::Input]),
                EntryPoint::new("get", [key()]),
            ],
            channel_orgs: channel_orgs(),
        },
        FlowTarget {
            name: "sacc_fixed".into(),
            uri: "sample:sacc_fixed".into(),
            chaincode: Arc::new(SaccPrivateFixed::default()),
            definition: sacc_definition(),
            entry_points: vec![
                EntryPoint::new("set", [key()]).with_transient("value", ArgSpec::Input),
                EntryPoint::new("get", [key()]),
            ],
            channel_orgs: channel_orgs(),
        },
        FlowTarget {
            name: "secured_trade".into(),
            uri: "sample:secured_trade".into(),
            chaincode: Arc::new(SecuredTrade::new("sellerCollection")),
            definition: ChaincodeDefinition::new("trade")
                .with_endorsement_policy("ANY Endorsement")
                .with_collection(
                    CollectionConfig::membership_of("sellerCollection", &[OrgId::new("Org1MSP")])
                        .with_endorsement_policy("OR('Org1MSP.peer')"),
                ),
            entry_points: vec![
                EntryPoint::new("offer", [key()]).with_transient("appraisal", ArgSpec::Input),
                EntryPoint::new("verify", [key()]).with_transient("claimed", ArgSpec::Input),
                EntryPoint::new("exists", [key()]),
            ],
            channel_orgs: channel_orgs(),
        },
    ];
    targets.sort_by(|a, b| a.name.cmp(&b.name));
    targets
}

/// The definition both sacc variants deploy with (the paper's project
/// used a single-org `demo` collection).
fn sacc_definition() -> ChaincodeDefinition {
    ChaincodeDefinition::new("sacc").with_collection(CollectionConfig::membership_of(
        "demo",
        &[OrgId::new("Org1MSP")],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_named_uniquely() {
        let targets = sample_registry();
        let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
        assert!(names.contains(&"leaky_escrow"));
    }

    #[test]
    fn every_target_has_entry_points_and_a_channel() {
        for t in sample_registry() {
            assert!(!t.entry_points.is_empty(), "{}", t.name);
            assert_eq!(t.channel_orgs, channel_orgs(), "{}", t.name);
            assert!(t.definition.collections().next().is_some(), "{}", t.name);
        }
    }
}
