//! Wire plans: how many bytes each method puts on the network, and through
//! which collective.

use gcs_compress::registry::MethodConfig;
use gcs_models::ModelSpec;

/// Which collective a communication round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Ring all-reduce (associative aggregation).
    AllReduce,
    /// All-gather (non-associative aggregation; traffic grows with `p`).
    AllGather,
}

/// One communication round of a compression method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPlan {
    /// Bytes contributed per worker in this round.
    pub bytes: usize,
    /// Collective the round runs through.
    pub collective: Collective,
}

/// The full per-iteration communication plan of a method on a model.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlan {
    /// Rounds in order. syncSGD has one all-reduce round (bucketing is
    /// handled separately by the overlap simulator); PowerSGD has two.
    pub rounds: Vec<RoundPlan>,
}

impl WirePlan {
    /// Total bytes per worker across rounds (what the compression ratio is
    /// computed from).
    pub fn total_bytes(&self) -> usize {
        self.rounds.iter().map(|r| r.bytes).sum()
    }

    /// Compression ratio versus raw `f32` gradients.
    pub fn compression_ratio(&self, model: &ModelSpec) -> f64 {
        model.size_bytes() as f64 / self.total_bytes().max(1) as f64
    }

    /// Whether every round is all-reduce compatible.
    pub fn is_all_reducible(&self) -> bool {
        self.rounds
            .iter()
            .all(|r| r.collective == Collective::AllReduce)
    }
}

/// Builds the wire plan for `method` on `model`.
///
/// For layer-wise methods the per-layer compressed sizes (from the actual
/// compressor implementations) are summed; PowerSGD's two factors are
/// split into their two all-reduce rounds.
///
/// # Panics
///
/// Panics if the method configuration is invalid (rank 0 etc.) — validate
/// configs with [`MethodConfig::build`] first if they come from user input.
pub fn wire_plan(method: &MethodConfig, model: &ModelSpec) -> WirePlan {
    match method {
        MethodConfig::SyncSgd => WirePlan {
            rounds: vec![RoundPlan {
                bytes: model.size_bytes(),
                collective: Collective::AllReduce,
            }],
        },
        MethodConfig::PowerSgd { rank } => {
            assert!(*rank > 0, "invalid PowerSGD rank");
            let (mut p_bytes, mut q_bytes) = (0usize, 0usize);
            for layer in &model.layers {
                let (m, n) = layer.shape.matricized();
                let r = (*rank).min(m).min(n).max(1);
                p_bytes += m * r * 4;
                q_bytes += n * r * 4;
            }
            WirePlan {
                rounds: vec![
                    RoundPlan {
                        bytes: p_bytes,
                        collective: Collective::AllReduce,
                    },
                    RoundPlan {
                        bytes: q_bytes,
                        collective: Collective::AllReduce,
                    },
                ],
            }
        }
        other => {
            #[expect(
                clippy::expect_used,
                reason = "documented panic contract (see `# Panics` above): callers validate user-supplied configs with MethodConfig::build"
            )]
            let compressor = other.build().expect("valid method config");
            let bytes: usize = model
                .layers
                .iter()
                .map(|l| compressor.compressed_bytes(&l.shape))
                .sum();
            let collective = if compressor.properties().all_reducible {
                Collective::AllReduce
            } else {
                Collective::AllGather
            };
            WirePlan {
                rounds: vec![RoundPlan { bytes, collective }],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_models::presets;

    #[test]
    fn syncsgd_moves_full_gradient_via_allreduce() {
        let m = presets::resnet50();
        let plan = wire_plan(&MethodConfig::SyncSgd, &m);
        assert_eq!(plan.total_bytes(), m.size_bytes());
        assert!(plan.is_all_reducible());
        assert!((plan.compression_ratio(&m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn powersgd_rank4_gives_about_60x_on_resnet50() {
        // The paper: "PowerSGD provides around 60x compression when using
        // Rank-4 for ResNet-50".
        let m = presets::resnet50();
        let plan = wire_plan(&MethodConfig::PowerSgd { rank: 4 }, &m);
        assert_eq!(plan.rounds.len(), 2);
        assert!(plan.is_all_reducible());
        let ratio = plan.compression_ratio(&m);
        assert!((40.0..90.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn signsgd_is_about_32x_and_gathered() {
        let m = presets::resnet101();
        let plan = wire_plan(&MethodConfig::SignSgd, &m);
        assert!(!plan.is_all_reducible());
        let ratio = plan.compression_ratio(&m);
        assert!((28.0..33.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn topk_bytes_track_ratio() {
        let m = presets::bert_base();
        let one = wire_plan(&MethodConfig::TopK { ratio: 0.01 }, &m);
        let ten = wire_plan(&MethodConfig::TopK { ratio: 0.10 }, &m);
        assert!(!one.is_all_reducible());
        let r = ten.total_bytes() as f64 / one.total_bytes() as f64;
        assert!((r - 10.0).abs() < 0.5, "scaling {r}");
    }

    #[test]
    fn fp16_is_exactly_2x() {
        let m = presets::resnet50();
        let plan = wire_plan(&MethodConfig::Fp16, &m);
        assert_eq!(plan.total_bytes(), m.size_bytes() / 2);
        assert!(plan.is_all_reducible());
    }

    #[test]
    fn powersgd_rank_ordering_in_bytes() {
        let m = presets::resnet50();
        let b = |r| wire_plan(&MethodConfig::PowerSgd { rank: r }, &m).total_bytes();
        assert!(b(4) < b(8));
        assert!(b(8) < b(16));
    }
}
