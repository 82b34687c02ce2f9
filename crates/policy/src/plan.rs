//! Endorsement planning: which peers must sign so a policy passes.
//!
//! Fabric's *service discovery* answers this for client SDKs; here the
//! same question is answered combinatorially over the simulator's
//! identities. The planner is also a measurement tool for the paper's
//! attacks: the **cheapest** satisfying set under `MAJORITY Endorsement`
//! routinely consists of PDC non-members, which is exactly why the default
//! policy is dangerous (Use Case 2).

use crate::ast::{Policy, SignaturePolicy};
use crate::channel::ChannelPolicies;
use fabric_types::Identity;

/// Finds a minimum-cardinality subset of `available` identities that
/// satisfies `policy`, or `None` when even the full set fails.
///
/// Deterministic: among equal-size sets, the one earliest in `available`
/// order wins. Exponential in the worst case, fine for channel-sized
/// inputs (Fabric channels have tens of peers, not thousands).
pub fn minimal_endorsement_set(
    policy: &SignaturePolicy,
    available: &[Identity],
) -> Option<Vec<Identity>> {
    minimal_set(available, |subset| policy.satisfied_by(subset))
}

/// [`minimal_endorsement_set`] for either policy family, resolving
/// implicitMeta sub-policies by name in `channel`.
pub fn minimal_endorsement_set_for(
    policy: &Policy,
    channel: &ChannelPolicies,
    available: &[Identity],
) -> Option<Vec<Identity>> {
    minimal_set(available, |subset| policy.evaluate(channel, subset))
}

/// The size-ordered search behind both planners: the first subset of
/// `available`, smallest first and in lexicographic index order, that
/// `satisfies`.
fn minimal_set(
    available: &[Identity],
    satisfies: impl Fn(&[Identity]) -> bool,
) -> Option<Vec<Identity>> {
    if !satisfies(available) {
        return None;
    }
    for size in 1..=available.len() {
        let mut found = None;
        for_each_combination(available.len(), size, &mut |combo| {
            if found.is_some() {
                return;
            }
            let subset: Vec<Identity> = combo.iter().map(|&i| available[i].clone()).collect();
            if satisfies(&subset) {
                found = Some(subset);
            }
        });
        if found.is_some() {
            return found;
        }
    }
    // `available` itself satisfied the predicate, so some subset (at worst
    // the whole set) must have been found above.
    Some(available.to_vec())
}

/// Calls `f` with each `k`-combination of `0..n` in lexicographic order.
fn for_each_combination(n: usize, k: usize, f: &mut dyn FnMut(&[usize])) {
    if k > n {
        return;
    }
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        f(&combo);
        // Advance.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if combo[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;
    use fabric_types::{OrgId, Role};

    fn peer(org: &str, seed: u64) -> Identity {
        Identity::new(
            org,
            Role::Peer,
            Keypair::generate_from_seed(seed).public_key(),
        )
    }

    fn channel_peers() -> Vec<Identity> {
        (1..=5)
            .map(|i| peer(&format!("Org{i}MSP"), 700 + i))
            .collect()
    }

    fn five_org_channel() -> ChannelPolicies {
        let orgs: Vec<OrgId> = (1..=5).map(|i| OrgId::new(format!("Org{i}MSP"))).collect();
        ChannelPolicies::default_for(&orgs)
    }

    #[test]
    fn and_needs_both_named_orgs() {
        let policy = SignaturePolicy::parse("AND('Org1MSP.peer','Org2MSP.peer')").unwrap();
        let plan = minimal_endorsement_set(&policy, &channel_peers()).unwrap();
        assert_eq!(plan.len(), 2);
        let orgs: Vec<String> = plan.iter().map(|p| p.org.to_string()).collect();
        assert_eq!(orgs, vec!["Org1MSP", "Org2MSP"]);
    }

    #[test]
    fn or_needs_exactly_one() {
        let policy = SignaturePolicy::parse("OR('Org3MSP.peer','Org4MSP.peer')").unwrap();
        let plan = minimal_endorsement_set(&policy, &channel_peers()).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].org, OrgId::new("Org3MSP"));
    }

    #[test]
    fn out_of_picks_cheapest_k() {
        let policy = SignaturePolicy::parse(
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer','Org5MSP.peer')",
        )
        .unwrap();
        let plan = minimal_endorsement_set(&policy, &channel_peers()).unwrap();
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn unsatisfiable_returns_none() {
        let policy = SignaturePolicy::parse("AND('Org9MSP.peer','Org1MSP.peer')").unwrap();
        assert!(minimal_endorsement_set(&policy, &channel_peers()).is_none());
    }

    #[test]
    fn majority_meta_plan_is_strict_majority() {
        let channel = five_org_channel();
        let policy = Policy::parse("MAJORITY Endorsement").unwrap();
        let plan = minimal_endorsement_set_for(&policy, &channel, &channel_peers()).unwrap();
        assert_eq!(plan.len(), 3, "3 of 5 is the strict majority");
    }

    #[test]
    fn majority_plan_can_be_all_non_members_of_a_pdc() {
        // The planner exposes the paper's point: under MAJORITY on a 5-org
        // channel with PDC = {org1, org2}, a valid minimal plan can consist
        // entirely of non-members (org3, org4, org5).
        let channel = five_org_channel();
        let policy = Policy::parse("MAJORITY Endorsement").unwrap();
        // Only non-member peers are "available" (an attacker's view).
        let non_members: Vec<Identity> = (3..=5)
            .map(|i| peer(&format!("Org{i}MSP"), 800 + i))
            .collect();
        let plan = minimal_endorsement_set_for(&policy, &channel, &non_members).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan
            .iter()
            .all(|p| p.org != OrgId::new("Org1MSP") && p.org != OrgId::new("Org2MSP")));
    }

    #[test]
    fn plan_is_deterministic() {
        let policy =
            SignaturePolicy::parse("OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')")
                .unwrap();
        let a = minimal_endorsement_set(&policy, &channel_peers()).unwrap();
        let b = minimal_endorsement_set(&policy, &channel_peers()).unwrap();
        assert_eq!(a, b);
    }
}
