//! Loopback integration tests for the TCP backend: the same collectives
//! the in-process tests exercise, plus cross-backend byte-count parity.

use pivot_trace::Counter;
use pivot_transport::tcp::run_parties_tcp;
use pivot_transport::{run_parties_with, Endpoint, FaultInjector, FaultPlan, NetConfig};

#[test]
fn tcp_point_to_point_and_broadcast() {
    let results = run_parties_tcp(3, NetConfig::default(), |ep| {
        if ep.id() == 0 {
            ep.broadcast(&"over tcp".to_string());
            ep.send(2, &7u64);
            (String::from("root"), 0u64)
        } else {
            let hello = ep.recv::<String>(0);
            let extra = if ep.id() == 2 { ep.recv::<u64>(0) } else { 0 };
            (hello, extra)
        }
    });
    assert_eq!(results[1].0, "over tcp");
    assert_eq!(results[2], ("over tcp".to_string(), 7));
}

#[test]
fn tcp_collectives_match_in_process_semantics() {
    let results = run_parties_tcp(3, NetConfig::default(), |ep| {
        let all = ep.exchange_all(&(ep.id() as u64 * 10));
        let gathered = ep.gather(1, &(ep.id() as u64));
        let scattered = ep.scatter(
            0,
            if ep.id() == 0 {
                Some(vec![100u64, 200, 300])
            } else {
                None
            }
            .as_deref(),
        );
        (all, gathered, scattered)
    });
    for (id, (all, gathered, scattered)) in results.iter().enumerate() {
        assert_eq!(all, &vec![0, 10, 20]);
        assert_eq!(gathered.is_some(), id == 1);
        assert_eq!(*scattered, 100 * (id as u64 + 1));
    }
    assert_eq!(results[1].1, Some(vec![0, 1, 2]));
}

#[test]
fn tcp_byte_counts_match_in_process_backend() {
    // Same protocol, both backends: the endpoint counts payload bytes only
    // (framing is transport-internal), so counts must agree bit-for-bit.
    let protocol = |ep: &pivot_transport::Endpoint| {
        let _ = ep.exchange_all(&vec![ep.id() as u64; 5]);
        if ep.id() == 0 {
            ep.send(1, &vec![1u8, 2, 3]);
        } else if ep.id() == 1 {
            let _: Vec<u8> = ep.recv(0);
        }
        let c = ep.counters();
        (c.get(Counter::BytesSent), c.get(Counter::BytesReceived))
    };
    let in_process = run_parties_with(3, NetConfig::default(), |ep| protocol(&ep));
    let over_tcp = run_parties_tcp(3, NetConfig::default(), |ep| protocol(&ep));
    assert_eq!(in_process, over_tcp);
    assert!(in_process[0].0 > 0);
}

#[test]
fn tcp_many_large_frames_both_directions() {
    // Both parties stream 200 KiB at each other before either reads —
    // exercises the writer-thread queue that prevents send/send deadlock.
    let results = run_parties_tcp(2, NetConfig::default(), |ep| {
        let peer = 1 - ep.id();
        let payload = vec![ep.id() as u64; 25_000]; // 200 KB per message
        ep.send(peer, &payload);
        ep.send(peer, &payload);
        let a: Vec<u64> = ep.recv(peer);
        let b: Vec<u64> = ep.recv(peer);
        assert_eq!(a, vec![peer as u64; 25_000]);
        assert_eq!(b, a);
        ep.counters().get(Counter::BytesReceived)
    });
    assert_eq!(results[0], results[1]);
}

#[test]
fn tcp_mesh_scales_to_five_parties() {
    let results = run_parties_tcp(5, NetConfig::default(), |ep| {
        ep.exchange_all(&(ep.id() as u64)).iter().sum::<u64>()
    });
    assert_eq!(results, vec![10; 5]);
}

#[test]
fn one_fault_plan_has_one_outcome_on_both_backends() {
    // Each round's envelope carries one 136-byte member plus 16 bytes of
    // framing: the drop fires on party 0's second envelope to party 1,
    // the delay on party 1's third envelope to party 2.
    let plan = FaultPlan::parse(&[
        "drop_link 0-1 at_bytes=300".into(),
        "delay_spike 1-2 at_bytes=400 ms=20".into(),
    ])
    .unwrap();
    let protocol = |ep: Endpoint| {
        ep.set_fault_injector(FaultInjector::new(ep.id(), 3, &plan));
        let sums: Vec<u64> = (0..8u64)
            .map(|round| {
                let all = ep.exchange_all(&vec![ep.id() as u64 * 100 + round; 16]);
                all.iter().flatten().sum()
            })
            .collect();
        let c = ep.counters();
        (
            sums,
            c.get(Counter::BytesSent),
            c.get(Counter::BytesReceived),
            c.get(Counter::FaultsInjected),
            c.get(Counter::Reconnects),
            c.get(Counter::ReplayedFrames),
        )
    };
    let in_process = run_parties_with(3, NetConfig::default(), protocol);
    let over_tcp = run_parties_tcp(3, NetConfig::default(), protocol);
    for (party, (a, b)) in in_process.iter().zip(&over_tcp).enumerate() {
        assert_eq!(
            (&a.0, a.1, a.2),
            (&b.0, b.1, b.2),
            "party {party} results and bytes"
        );
        assert_eq!(a.3, b.3, "party {party} faults_injected");
    }
    assert_eq!(
        in_process.iter().map(|r| r.3).collect::<Vec<_>>(),
        vec![1, 1, 0]
    );
    for (backend, runs) in [("in-process", &in_process), ("tcp", &over_tcp)] {
        let (reconnects, replayed) = (runs[0].4, runs[0].5);
        assert!(
            reconnects >= 1,
            "{backend}: party 0 reconnects {reconnects}"
        );
        assert!(replayed >= 1, "{backend}: party 0 replayed {replayed}");
    }
}
