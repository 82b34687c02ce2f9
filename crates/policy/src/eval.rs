//! The policy evaluator: the one backtracking search every evaluation
//! entry point ([`SignaturePolicy::satisfied_by`],
//! [`crate::ImplicitMetaPolicy::evaluate`], [`crate::Policy::evaluate`] and
//! their `_refs`/`_set` forms) runs.
//!
//! It runs once per policy per peer per transaction, so it uses no heap:
//! the endorsers are de-duplicated once into an [`EndorserSet`], and both
//! the goals still to satisfy and the identities already spent are lists
//! linked through the search's own stack frames.

use crate::ast::SignaturePolicy;
use fabric_types::Identity;

/// Identities an [`EndorserSet`] holds without touching the heap; real
/// transactions carry a handful of endorsements.
const INLINE: usize = 16;

/// The distinct endorsers of one transaction, borrowed from it.
///
/// Duplicate identities (same public key) count once, as in Fabric. Build
/// the set once per transaction and evaluate every applicable policy
/// against it.
#[derive(Debug)]
pub struct EndorserSet<'a> {
    inline: [Option<&'a Identity>; INLINE],
    /// The identities past the first [`INLINE`].
    spill: Vec<&'a Identity>,
    len: usize,
}

impl<'a> EndorserSet<'a> {
    /// Number of distinct identities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no identity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct identities, in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Identity> + '_ {
        let inline = &self.inline[..self.len.min(INLINE)];
        inline.iter().flatten().chain(&self.spill).copied()
    }

    fn insert(&mut self, identity: &'a Identity) {
        if self.iter().any(|i| i.public_key == identity.public_key) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(identity),
            None => self.spill.push(identity),
        }
        self.len += 1;
    }
}

impl<'a> FromIterator<&'a Identity> for EndorserSet<'a> {
    fn from_iter<I: IntoIterator<Item = &'a Identity>>(endorsers: I) -> Self {
        let mut set = EndorserSet {
            inline: [None; INLINE],
            spill: Vec::new(),
            len: 0,
        };
        for identity in endorsers {
            set.insert(identity);
        }
        set
    }
}

/// The goals still to satisfy, next one first.
struct Goals<'a> {
    head: &'a SignaturePolicy,
    rest: Option<&'a Goals<'a>>,
}

/// Positions in the endorser set that a principal has already taken.
struct Used<'a> {
    index: usize,
    rest: Option<&'a Used<'a>>,
}

impl Used<'_> {
    fn contains(&self, index: usize) -> bool {
        self.index == index || self.rest.is_some_and(|r| r.contains(index))
    }
}

/// Whether `endorsers` satisfy `policy`, each identity serving at most one
/// principal.
pub(crate) fn satisfied(policy: &SignaturePolicy, endorsers: &EndorserSet<'_>) -> bool {
    let goals = Goals {
        head: policy,
        rest: None,
    };
    satisfy(Some(&goals), endorsers, None)
}

/// Backtracking satisfaction of a conjunction of goals, using each
/// identity not in `used` at most once.
fn satisfy(goals: Option<&Goals<'_>>, ids: &EndorserSet<'_>, used: Option<&Used<'_>>) -> bool {
    let Some(&Goals { head, rest }) = goals else {
        return true;
    };
    match head {
        SignaturePolicy::Principal(p) => ids.iter().enumerate().any(|(index, id)| {
            p.matches(id)
                && !used.is_some_and(|u| u.contains(index))
                && satisfy(rest, ids, Some(&Used { index, rest: used }))
        }),
        SignaturePolicy::And(children) => choose(children, children.len(), rest, ids, used),
        SignaturePolicy::Or(children) => children.iter().any(|head| {
            let goals = Goals { head, rest };
            satisfy(Some(&goals), ids, used)
        }),
        SignaturePolicy::OutOf(n, children) => choose(children, *n as usize, rest, ids, used),
    }
}

/// Whether some `n` of `children`, and then `rest`, can be satisfied.
/// Taking the last child or leaving it, recursively, visits every
/// `n`-combination with the chosen children queued in their own order.
fn choose(
    children: &[SignaturePolicy],
    n: usize,
    rest: Option<&Goals<'_>>,
    ids: &EndorserSet<'_>,
    used: Option<&Used<'_>>,
) -> bool {
    if n == 0 {
        return satisfy(rest, ids, used);
    }
    if n > children.len() {
        return false;
    }
    let (head, init) = children.split_last().expect("n > 0 children remain");
    let taken = Goals { head, rest };
    choose(init, n - 1, Some(&taken), ids, used) || choose(init, n, rest, ids, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Principal, PrincipalRole};
    use fabric_crypto::Keypair;
    use fabric_types::Role;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The evaluator this module replaced, verbatim: a fresh goal `Vec` per
    /// `And`/`Or`/`OutOf` node and every `n`-combination materialized.
    mod oracle {
        use super::{Identity, SignaturePolicy};

        pub fn satisfied_by_refs(policy: &SignaturePolicy, endorsers: &[&Identity]) -> bool {
            let mut unique: Vec<&Identity> = Vec::new();
            for &e in endorsers {
                if !unique.iter().any(|u| u.public_key == e.public_key) {
                    unique.push(e);
                }
            }
            let mut used = vec![false; unique.len()];
            satisfy_all(&[policy], &unique, &mut used)
        }

        /// Backtracking satisfaction of a conjunction of policy goals using each
        /// identity at most once.
        fn satisfy_all(
            goals: &[&SignaturePolicy],
            ids: &[&Identity],
            used: &mut Vec<bool>,
        ) -> bool {
            let Some((first, rest)) = goals.split_first() else {
                return true;
            };
            match first {
                SignaturePolicy::Principal(p) => {
                    for i in 0..ids.len() {
                        if !used[i] && p.matches(ids[i]) {
                            used[i] = true;
                            if satisfy_all(rest, ids, used) {
                                return true;
                            }
                            used[i] = false;
                        }
                    }
                    false
                }
                SignaturePolicy::And(children) => {
                    let mut new_goals: Vec<&SignaturePolicy> = children.iter().collect();
                    new_goals.extend_from_slice(rest);
                    satisfy_all(&new_goals, ids, used)
                }
                SignaturePolicy::Or(children) => children.iter().any(|c| {
                    let mut new_goals: Vec<&SignaturePolicy> = vec![c];
                    new_goals.extend_from_slice(rest);
                    satisfy_all(&new_goals, ids, used)
                }),
                SignaturePolicy::OutOf(n, children) => {
                    let n = *n as usize;
                    if n == 0 {
                        return satisfy_all(rest, ids, used);
                    }
                    if n > children.len() {
                        return false;
                    }
                    // Try every n-combination of children (sizes are small in
                    // practice; policies rarely exceed a handful of branches).
                    combinations(children.len(), n).into_iter().any(|combo| {
                        let mut new_goals: Vec<&SignaturePolicy> =
                            combo.iter().map(|&i| &children[i]).collect();
                        new_goals.extend_from_slice(rest);
                        satisfy_all(&new_goals, ids, used)
                    })
                }
            }
        }

        /// All `k`-combinations of `0..n`, in lexicographic order.
        pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
            let mut out = Vec::new();
            let mut combo: Vec<usize> = (0..k).collect();
            loop {
                out.push(combo.clone());
                // Advance to the next combination.
                let mut i = k;
                loop {
                    if i == 0 {
                        return out;
                    }
                    i -= 1;
                    if combo[i] != i + n - k {
                        break;
                    }
                    if i == 0 {
                        return out;
                    }
                }
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
            }
        }
    }

    const ORGS: [&str; 4] = ["Org1MSP", "Org2MSP", "Org3MSP", "Org4MSP"];
    const ROLES: [Role; 3] = [Role::Peer, Role::Client, Role::Admin];

    fn identity(org: usize, role: usize, key: u64) -> Identity {
        Identity::new(
            ORGS[org],
            ROLES[role],
            Keypair::generate_from_seed(key).public_key(),
        )
    }

    /// Random policy trees: nesting up to `depth`, one to three children
    /// per node, `OutOf` thresholds from 0 to one past the child count.
    /// `leaves` caps the principals of a tree, because an unsatisfiable
    /// conjunction costs the oracle a search exponential in them.
    struct PolicyTree {
        depth: u32,
        leaves: usize,
    }

    impl PolicyTree {
        fn node(&self, rng: &mut TestRng, depth: u32, leaves: &mut usize) -> SignaturePolicy {
            if depth == 0 || *leaves <= 1 || rng.ratio(1, 4) {
                *leaves = leaves.saturating_sub(1);
                let role = match rng.below(4) {
                    3 => PrincipalRole::Member,
                    r => PrincipalRole::Exact(ROLES[r as usize]),
                };
                let org = ORGS[rng.usize_in(0, ORGS.len() - 1)];
                return SignaturePolicy::Principal(Principal::new(org, role));
            }
            let children: Vec<SignaturePolicy> = (0..rng.usize_in(1, 3))
                .map_while(|_| (*leaves > 0).then(|| self.node(rng, depth - 1, leaves)))
                .collect();
            match rng.below(3) {
                0 => SignaturePolicy::And(children),
                1 => SignaturePolicy::Or(children),
                _ => {
                    let n = rng.usize_in(0, children.len() + 1);
                    SignaturePolicy::OutOf(n as u32, children)
                }
            }
        }
    }

    impl Strategy for PolicyTree {
        type Value = SignaturePolicy;

        fn generate(&self, rng: &mut TestRng) -> SignaturePolicy {
            let mut leaves = self.leaves;
            self.node(rng, self.depth, &mut leaves)
        }
    }

    /// Endorser lists of 0–40 entries drawn from 24 certificates (every
    /// org × role, twice), so that duplicates occur and the distinct count
    /// falls on both sides of the inline capacity.
    fn endorser_lists() -> impl Strategy<Value = Vec<Identity>> {
        proptest::collection::vec(0..24usize, 0..=40).prop_map(|keys| {
            keys.into_iter()
                .map(|key| identity(key % 4, key / 4 % 3, key as u64))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn evaluator_agrees_with_the_replaced_one(
            policy in PolicyTree { depth: 4, leaves: 7 },
            endorsers in endorser_lists(),
        ) {
            let refs: Vec<&Identity> = endorsers.iter().collect();
            let expected = oracle::satisfied_by_refs(&policy, &refs);
            prop_assert_eq!(
                policy.satisfied_by_set(&refs.iter().copied().collect()),
                expected,
                "{policy} over {refs:?}"
            );
            prop_assert_eq!(policy.satisfied_by(&endorsers), expected);
        }
    }

    #[test]
    fn set_counts_duplicates_once_in_first_seen_order() {
        let ids = [identity(0, 0, 1), identity(1, 0, 2), identity(0, 0, 1)];
        let set: EndorserSet<'_> = ids.iter().collect();
        assert_eq!(set.len(), 2);
        assert!(set.iter().eq([&ids[0], &ids[1]]));
        assert!(EndorserSet::from_iter([]).is_empty());
    }

    /// `AND` of `count` Org1 peers: needs that many distinct identities.
    fn and_of(count: usize) -> SignaturePolicy {
        let peer = Principal::new(ORGS[0], PrincipalRole::Exact(Role::Peer));
        SignaturePolicy::And(vec![SignaturePolicy::Principal(peer); count])
    }

    #[test]
    fn spill_boundary_keeps_every_identity() {
        let ids: Vec<Identity> = (0..40).map(|key| identity(0, 0, key)).collect();
        for count in [15, 16, 17, 18, 40] {
            let refs: Vec<&Identity> = ids[..count].iter().collect();
            let set: EndorserSet<'_> = refs.iter().copied().collect();
            assert_eq!(set.len(), count);
            assert!(set.iter().eq(refs.iter().copied()));
            // Every one of the `count` peers can serve a principal.
            assert!(and_of(count).satisfied_by_set(&set), "{count} of {count}");
            assert!(oracle::satisfied_by_refs(&and_of(count), &refs));
        }
    }

    #[test]
    fn spilled_identities_are_deduplicated_and_matched() {
        // 16 Org1 peers fill the inline part; the only Org2 peer is the
        // 17th distinct identity, seen again as the 18th entry.
        let mut ids: Vec<Identity> = (0..16).map(|key| identity(0, 0, key)).collect();
        ids.push(identity(1, 0, 100));
        ids.push(identity(1, 0, 100));
        let org2 = Principal::new(ORGS[1], PrincipalRole::Exact(Role::Peer));
        let one = SignaturePolicy::Principal(org2);
        let two = SignaturePolicy::And(vec![one.clone(), one.clone()]);
        assert_eq!(ids.iter().collect::<EndorserSet<'_>>().len(), 17);
        assert!(one.satisfied_by(&ids));
        assert!(!two.satisfied_by(&ids), "a duplicate cannot serve twice");
    }

    #[test]
    fn out_of_edge_thresholds() {
        let p = |org: usize| {
            SignaturePolicy::Principal(Principal::new(ORGS[org], PrincipalRole::Member))
        };
        let none = EndorserSet::from_iter([]);
        assert!(SignaturePolicy::OutOf(0, vec![p(0), p(1)]).satisfied_by_set(&none));
        assert!(SignaturePolicy::OutOf(0, vec![]).satisfied_by_set(&none));
        assert!(SignaturePolicy::And(vec![]).satisfied_by_set(&none));
        assert!(!SignaturePolicy::Or(vec![]).satisfied_by_set(&none));
        let ids = [identity(0, 0, 1), identity(1, 0, 2)];
        assert!(!SignaturePolicy::OutOf(3, vec![p(0), p(1)]).satisfied_by(&ids));
        assert!(SignaturePolicy::OutOf(2, vec![p(0), p(1)]).satisfied_by(&ids));
    }

    #[test]
    fn oracle_combinations_enumerate_all() {
        assert_eq!(oracle::combinations(4, 2).len(), 6);
        assert_eq!(oracle::combinations(5, 3).len(), 10);
        assert_eq!(oracle::combinations(3, 3), vec![vec![0, 1, 2]]);
    }
}
