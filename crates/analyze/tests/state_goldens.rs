//! Exact state counts of every model the analyzer explores exhaustively:
//! the protocol machines and their mutants (Pass 3), and the exhaustive
//! interleaving cross-checks of the schedule pass (Pass 1). A count that
//! moves means the search now walks a different state space than the one
//! these goldens were taken from.

use gcs_analyze::explore::explore;
use gcs_analyze::protocol::{
    DecisionProtocol, DecisionVariant, HelloMesh, PipelineWindow, WindowVariant,
};
use gcs_analyze::schedules;
use gcs_analyze::verify::check_deadlock_exhaustive;

fn assert_counts(got: Vec<(String, usize)>, want: &[(&str, usize)]) {
    let want: Vec<(String, usize)> = want.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(got, want);
}

#[test]
fn protocol_machine_state_counts() {
    let mut got = Vec::new();
    for p in [2usize, 3, 4] {
        for forged in [false, true] {
            let r = explore(&HelloMesh {
                p,
                mutant_double_accept: false,
                forged,
            });
            got.push((r.machine, r.states));
        }
        let r = explore(&DecisionProtocol {
            p,
            variant: DecisionVariant::Real,
        });
        got.push((r.machine, r.states));
    }
    for buckets in [2usize, 3] {
        for window in [1usize, 2] {
            let r = explore(&PipelineWindow {
                buckets,
                window,
                variant: WindowVariant::Real,
            });
            got.push((r.machine, r.states));
        }
    }
    assert_counts(
        got,
        &[
            ("hello-handshake/p2", 3),
            ("hello-handshake/p2+forged", 18),
            ("adaptive-decisions/p2/Real", 10),
            ("hello-handshake/p3", 21),
            ("hello-handshake/p3+forged", 140),
            ("adaptive-decisions/p3/Real", 30),
            ("hello-handshake/p4", 315),
            ("hello-handshake/p4+forged", 2160),
            ("adaptive-decisions/p4/Real", 100),
            ("pipeline-window/buckets2-w1/Real", 7),
            ("pipeline-window/buckets2-w2/Real", 10),
            ("pipeline-window/buckets3-w1/Real", 10),
            ("pipeline-window/buckets3-w2/Real", 16),
        ],
    );
}

#[test]
fn protocol_mutant_state_counts() {
    let results = [
        explore(&HelloMesh {
            p: 3,
            mutant_double_accept: true,
            forged: true,
        }),
        explore(&DecisionProtocol {
            p: 2,
            variant: DecisionVariant::SkipEmptyBroadcast,
        }),
        explore(&DecisionProtocol {
            p: 3,
            variant: DecisionVariant::DecideLocally,
        }),
        explore(&PipelineWindow {
            buckets: 3,
            window: 1,
            variant: WindowVariant::NoWindowCheck,
        }),
        explore(&PipelineWindow {
            buckets: 3,
            window: 2,
            variant: WindowVariant::PopNewest,
        }),
    ];
    let got = results.into_iter().map(|r| (r.machine, r.states)).collect();
    assert_counts(
        got,
        &[
            ("hello-handshake/p3+forged+mutant-double-accept", 140),
            ("adaptive-decisions/p2/SkipEmptyBroadcast", 8),
            ("adaptive-decisions/p3/DecideLocally", 30),
            ("pipeline-window/buckets3-w1/NoWindowCheck", 20),
            ("pipeline-window/buckets3-w2/PopNewest", 27),
        ],
    );
}

#[test]
fn exhaustive_cross_check_state_counts() {
    let got = [
        schedules::ring_all_reduce(2, &[0, 1], &[5]),
        schedules::ring_all_reduce(3, &[0, 1, 2], &[4]),
        schedules::broadcast(4, 1),
        schedules::comm_engine_pipeline(2, 1, 2, 2),
        schedules::comm_engine_pipeline(2, 2, 3, 1),
    ]
    .into_iter()
    .map(|s| {
        let states = check_deadlock_exhaustive(&s).expect("deadlock-free");
        (s.name, states)
    })
    .collect();
    assert_counts(
        got,
        &[
            ("ring-all-reduce p=2 members=[0, 1] lens=[5]", 15),
            ("ring-all-reduce p=3 members=[0, 1, 2] lens=[4]", 129),
            ("broadcast p=4 root=1", 13),
            ("comm-engine p=2 depth=1 jobs=2 n=2", 95),
            ("comm-engine p=2 depth=2 jobs=3 n=1", 609),
        ],
    );
}
