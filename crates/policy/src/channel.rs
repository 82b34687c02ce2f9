//! The channel's per-organization sub-policies, which implicitMeta
//! policies resolve by name.

use crate::ast::{Principal, PrincipalRole, SignaturePolicy};
use fabric_types::{OrgId, Role};
use std::collections::{BTreeMap, BTreeSet};

/// The sub-policies each organization of a channel defines in the channel
/// configuration (`configtx.yaml`), keyed by sub-policy name and
/// organization. An implicitMeta policy such as `MAJORITY Endorsement`
/// resolves its name here, by the rule the crate documentation states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPolicies {
    /// Every org on the channel, whether it defines a name or not.
    pub(crate) orgs: BTreeSet<OrgId>,
    /// Name first, so that resolving a policy is one lookup, not one per
    /// org. Every org here is in `orgs`.
    pub(crate) named: BTreeMap<String, BTreeMap<OrgId, SignaturePolicy>>,
}

impl ChannelPolicies {
    /// Builds the Fabric default: each org defines one sub-policy,
    /// `Endorsement`, as `OR('<org>.peer')` — any peer of the org can
    /// endorse for it.
    pub fn default_for(orgs: &[OrgId]) -> Self {
        let endorsement = orgs
            .iter()
            .map(|org| {
                let peer = Principal::new(org.clone(), PrincipalRole::Exact(Role::Peer));
                let policy = SignaturePolicy::Or(vec![SignaturePolicy::Principal(peer)]);
                (org.clone(), policy)
            })
            .collect();
        ChannelPolicies {
            orgs: orgs.iter().cloned().collect(),
            named: BTreeMap::from([("Endorsement".into(), endorsement)]),
        }
    }

    /// Whether `org` is an organization of this channel.
    pub fn has_org(&self, org: &OrgId) -> bool {
        self.orgs.contains(org)
    }

    /// Whether some organization of this channel defines a sub-policy
    /// named `name`; an implicitMeta policy over any other name is never
    /// satisfied.
    pub fn defines(&self, name: &str) -> bool {
        self.sub_policies(name).next().is_some()
    }

    /// The sub-policies named `name`, one per org that defines it.
    pub(crate) fn sub_policies(&self, name: &str) -> impl Iterator<Item = &SignaturePolicy> {
        self.named.get(name).into_iter().flat_map(BTreeMap::values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;
    use fabric_types::Identity;

    #[test]
    fn default_sub_policy_accepts_any_org_peer() {
        let orgs = vec![OrgId::new("Org1MSP"), OrgId::new("Org2MSP")];
        let policies = ChannelPolicies::default_for(&orgs);
        assert_eq!(policies.orgs.len(), 2);
        let p1 = Identity::new(
            "Org1MSP",
            Role::Peer,
            Keypair::generate_from_seed(1).public_key(),
        );
        let endorsement = |org: &OrgId| &policies.named["Endorsement"][org];
        assert!(endorsement(&orgs[0]).satisfied_by(std::slice::from_ref(&p1)));
        assert!(!endorsement(&orgs[1]).satisfied_by(std::slice::from_ref(&p1)));
        assert_eq!(
            endorsement(&orgs[0]),
            &SignaturePolicy::parse("OR('Org1MSP.peer')").unwrap()
        );
        assert!(policies.has_org(&orgs[1]) && !policies.has_org(&OrgId::new("Org3MSP")));
        assert!(policies.defines("Endorsement") && !policies.defines("Endorsment"));
        assert!(!ChannelPolicies::default_for(&[]).defines("Endorsement"));
    }
}
