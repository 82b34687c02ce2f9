//! The correctness checks every run makes before it reports a number.

use crate::driver::Round;
use crate::sut::{self, LedgerView, Pipeline};
use crate::workload::Spec;

/// Checks the round's accounting against the ledgers of every peer.
/// Returns one line per violated check; empty means correct.
pub fn check<P: Pipeline>(p: &P, spec: &Spec, round: &Round) -> Vec<String> {
    check_view(&sut::ledger_view(p, round.first_block), spec, round)
}

/// [`check`] on an already read ledger view.
pub fn check_view(view: &LedgerView, spec: &Spec, round: &Round) -> Vec<String> {
    let mut errors = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };

    require(
        view.heights.iter().all(|h| *h == view.heights[0])
            && view.tips.iter().all(|t| *t == view.tips[0]),
        format!("peers disagree on height or tip: {:?}", view.heights),
    );
    for (name, intact) in view.names.iter().zip(&view.chains_verify) {
        require(*intact, format!("{name}: block store fails verify_chain"));
    }
    for member in [true, false] {
        let mut group = view.digests.iter().filter(|(m, _)| *m == member);
        if let Some((_, first)) = group.next() {
            require(
                group.all(|(_, d)| d == first),
                format!("state digests differ among peers with member={member}"),
            );
        }
    }
    require(
        view.validity_agrees,
        "peers wrote different validity vectors".to_string(),
    );

    let accounted = round.ok()
        + round.wrong_replies
        + round.rejected_endorse
        + round.mvcc_conflict
        + round.invalid_other
        + round.unresolved;
    require(
        round.offered == accounted,
        format!("offered {} != accounted {accounted}", round.offered),
    );
    let scheduled = spec.ops_in(round.offer_ticks);
    require(
        round.offered == scheduled,
        format!("offered {} != scheduled {scheduled}", round.offered),
    );
    // Every op the driver counted OK is Valid in every peer's validity
    // vector: the vectors agree (above) and the first peer's tallies match.
    require(
        (view.valid, view.mvcc_conflict, view.invalid_other)
            == (round.ok_txs, round.mvcc_conflict, round.invalid_other),
        format!(
            "ledger holds {} valid / {} mvcc / {} other, driver resolved {} / {} / {}",
            view.valid,
            view.mvcc_conflict,
            view.invalid_other,
            round.ok_txs,
            round.mvcc_conflict,
            round.invalid_other
        ),
    );
    require(
        round.commit_latency_ticks.len() as u64 == round.ok_txs,
        "one latency sample per valid transaction".to_string(),
    );
    require(
        view.non_member_violations == 0,
        format!(
            "{} seeded keys leak to (or lack a hash at) a non-member peer",
            view.non_member_violations
        ),
    );
    if spec.hardened {
        require(
            view.plaintext_payloads == 0,
            format!(
                "{} committed transactions carry a plaintext payload under Feature 2",
                view.plaintext_payloads
            ),
        );
    }
    errors
}
