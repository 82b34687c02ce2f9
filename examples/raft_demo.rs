//! The ordering-service substrate on its own: a 5-node Raft cluster
//! electing leaders, replicating entries, and surviving a partition. It
//! asserts what it shows, so a broken election or replication path exits
//! non-zero.
//!
//! Run with `cargo run -p fabric-pdc --example raft_demo`.

use fabric_pdc::raft::Cluster;

fn main() {
    let mut cluster = Cluster::new(5, 99);
    let leader = cluster.run_until_leader(1000).expect("leader elected");
    let first_term = cluster.node(leader).term();
    println!(
        "leader elected: node {leader} (term {})",
        cluster.node(leader).term()
    );

    for i in 0..3u8 {
        cluster.propose(leader, vec![i]).expect("leader accepts");
    }
    cluster.run_ticks(50);
    println!(
        "after replication, every node committed {:?}",
        cluster.committed(1)
    );

    // Partition the leader with one follower away from the other three.
    let minority: Vec<u64> = vec![leader, if leader == 1 { 2 } else { 1 }];
    let majority: Vec<u64> = cluster
        .node_ids()
        .into_iter()
        .filter(|n| !minority.contains(n))
        .collect();
    println!("partitioning minority {minority:?} from majority {majority:?}");
    cluster.partition(&minority, &majority);
    let _ = cluster.propose(leader, b"lost-entry".to_vec());
    cluster.run_ticks(100);

    let new_leader = cluster.leader().expect("majority side elects");
    let new_term = cluster.node(new_leader).term();
    println!("majority side elected node {new_leader} (term {new_term})");
    assert!(majority.contains(&new_leader), "leader from the majority");
    assert!(new_term > first_term, "the new leader's term is higher");
    cluster
        .propose(new_leader, b"committed-entry".to_vec())
        .unwrap();
    cluster.run_ticks(50);

    println!("healing the partition ...");
    cluster.heal();
    cluster.run_ticks(100);

    let expected: Vec<&[u8]> = vec![&[0], &[1], &[2], b"committed-entry"];
    for id in cluster.node_ids() {
        let committed = cluster.committed(id);
        let log: Vec<String> = committed
            .iter()
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .collect();
        println!("node {id} committed: {log:?}");
        let committed: Vec<&[u8]> = committed.iter().map(|c| &c[..]).collect();
        assert_eq!(committed, expected, "node {id}");
        assert!(!committed.contains(&&b"lost-entry"[..]), "node {id}");
    }
    println!("note: the minority's uncommitted 'lost-entry' was discarded, as Raft requires");
}
