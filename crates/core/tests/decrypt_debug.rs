//! Minimal reproduction harness for joint decryption inside PartyContext.

use pivot_bignum::BigUint;
use pivot_core::{config::PivotParams, decrypt, party::PartyContext};
use pivot_data::{Dataset, Task, VerticalView};
use pivot_trace::Counter;
use pivot_transport::run_parties;

fn toy_view(client: usize, m: usize) -> VerticalView {
    let data = Dataset::new(
        vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        vec![0.0, 1.0],
        Task::Classification { classes: 2 },
    );
    let part = pivot_data::partition_vertically(&data, m, 0);
    part.views[client].clone()
}

#[test]
fn joint_decrypt_round_trip() {
    let params = PivotParams {
        keysize: 128,
        ..Default::default()
    };
    let results = run_parties(2, |ep| {
        let view = toy_view(ep.id(), 2);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        // One party encrypts; everyone must hold the identical ciphertext.
        let ct = if ctx.id() == 0 {
            let ct = ctx.pk.encrypt(&BigUint::from_u64(12345), &mut ctx.rng);
            ctx.ep.broadcast(&ct);
            ct
        } else {
            ctx.ep.recv(0)
        };
        let out = decrypt::joint_decrypt_vec(&mut ctx, std::slice::from_ref(&ct));
        out[0].to_u64()
    });
    assert_eq!(results, vec![Some(12345), Some(12345)]);
}

#[test]
fn setup_times_its_phase_without_the_runner() {
    // The phase clock needs no trace collector: a context built outside
    // the CLI runner still times its set-up phase into the registry.
    let setup = pivot_trace::PHASES
        .iter()
        .position(|&p| p == "setup")
        .unwrap();
    let cells = run_parties(2, |ep| {
        let ctx = PartyContext::setup(
            &ep,
            toy_view(ep.id(), 2),
            PivotParams {
                keysize: 128,
                ..Default::default()
            },
        );
        ctx.counters.snapshot().cells(Counter::PhaseNs).to_vec()
    });
    for party in cells {
        assert!(party[setup] > 0);
        assert!(party
            .iter()
            .enumerate()
            .all(|(i, &ns)| i == setup || ns == 0));
    }
}
