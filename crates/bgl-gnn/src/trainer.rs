//! End-to-end training driver for the accuracy experiments (Table 5,
//! Fig. 16): ordering → sampling → feature gather → train step, plus
//! sampled-inference evaluation on the test split.

use crate::{make_model, GnnModel, ModelKind};
use bgl_graph::Dataset;
use bgl_sampler::{NeighborSampler, TrainOrdering};
use bgl_tensor::{Adam, Matrix};
use rand::prelude::*;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub model: ModelKind,
    pub hidden: usize,
    pub num_layers: usize,
    pub fanouts: Vec<usize>,
    pub batch_size: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // The paper's hyper-parameters (§5.1) scaled to CPU: 3 layers, 128
        // hidden, fanout {15,10,5}, Adam.
        TrainConfig {
            model: ModelKind::GraphSage,
            hidden: 128,
            num_layers: 3,
            fanouts: vec![15, 10, 5],
            batch_size: 1000,
            epochs: 10,
            lr: 3e-3,
            seed: 1,
        }
    }
}

/// Per-epoch record.
#[derive(Clone, Debug)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_loss: f32,
    pub train_acc: f64,
    pub test_acc: f64,
}

/// A full training run's history.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// Final test accuracy (0 if no epochs ran).
    pub fn final_test_acc(&self) -> f64 {
        self.epochs.last().map(|e| e.test_acc).unwrap_or(0.0)
    }

    /// Best test accuracy over the run.
    pub fn best_test_acc(&self) -> f64 {
        self.epochs.iter().map(|e| e.test_acc).fold(0.0, f64::max)
    }
}

/// Drives training of one model on one dataset under one ordering.
pub struct Trainer<'a> {
    pub dataset: &'a Dataset,
    pub config: TrainConfig,
}

impl<'a> Trainer<'a> {
    pub fn new(dataset: &'a Dataset, config: TrainConfig) -> Self {
        assert_eq!(
            config.fanouts.len(),
            config.num_layers,
            "need one fanout per layer"
        );
        Trainer { dataset, config }
    }

    /// Run the full training loop under `ordering`, evaluating test
    /// accuracy after every epoch.
    pub fn run(&self, ordering: &dyn TrainOrdering) -> TrainHistory {
        let cfg = &self.config;
        let ds = self.dataset;
        let mut model = make_model(
            cfg.model,
            ds.features.dim(),
            cfg.hidden,
            ds.num_classes,
            cfg.num_layers,
            cfg.seed,
        );
        let mut opt = Adam::new(cfg.lr);
        let sampler = NeighborSampler::new(cfg.fanouts.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A);
        let mut history = TrainHistory::default();
        for epoch in 0..cfg.epochs {
            let batches =
                ordering.epoch_batches(&ds.graph, &ds.split.train, cfg.batch_size, epoch);
            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut count = 0usize;
            for seeds in &batches {
                let batch = sampler.sample(&ds.graph, seeds, &mut rng);
                let input = gather_input(ds, &batch.blocks[0].src_nodes);
                let labels: Vec<u16> =
                    seeds.iter().map(|&v| ds.labels[v as usize]).collect();
                let (loss, acc) =
                    model.train_step(&batch, &input, &labels, &mut opt);
                loss_sum += loss as f64;
                acc_sum += acc;
                count += 1;
            }
            let test_acc = self.evaluate(model.as_mut(), &mut rng);
            history.epochs.push(EpochStats {
                epoch,
                train_loss: (loss_sum / count.max(1) as f64) as f32,
                train_acc: acc_sum / count.max(1) as f64,
                test_acc,
            });
        }
        history
    }

    /// Sampled inference on the test split.
    pub fn evaluate(&self, model: &mut dyn GnnModel, rng: &mut StdRng) -> f64 {
        let ds = self.dataset;
        let sampler = NeighborSampler::new(self.config.fanouts.clone());
        let mut correct = 0usize;
        let mut total = 0usize;
        for seeds in ds.split.test.chunks(self.config.batch_size.max(1)) {
            let batch = sampler.sample(&ds.graph, seeds, rng);
            let input = gather_input(ds, &batch.blocks[0].src_nodes);
            let logits = model.forward(&batch, &input);
            let labels: Vec<u16> = seeds.iter().map(|&v| ds.labels[v as usize]).collect();
            let acc = bgl_tensor::ops::accuracy(&logits, &labels);
            correct += (acc * seeds.len() as f64).round() as usize;
            total += seeds.len();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// Gather input-frontier features into a matrix.
pub fn gather_input(ds: &Dataset, nodes: &[bgl_graph::NodeId]) -> Matrix {
    Matrix::from_vec(nodes.len(), ds.features.dim(), ds.features.gather(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::DatasetSpec;
    use bgl_sampler::{ProximityAware, RandomShuffle};

    fn small_ds() -> Dataset {
        DatasetSpec::products_like().with_nodes(1 << 10).build()
    }

    fn quick_cfg(model: ModelKind) -> TrainConfig {
        TrainConfig {
            model,
            hidden: 16,
            num_layers: 2,
            fanouts: vec![5, 5],
            batch_size: 32,
            epochs: 3,
            lr: 5e-3,
            seed: 7,
        }
    }

    #[test]
    fn training_learns_above_chance() {
        let ds = small_ds();
        let trainer = Trainer::new(&ds, quick_cfg(ModelKind::GraphSage));
        let hist = trainer.run(&RandomShuffle::new(1));
        assert_eq!(hist.epochs.len(), 3);
        let chance = 1.0 / ds.num_classes as f64;
        assert!(
            hist.final_test_acc() > chance * 3.0,
            "test acc {:.3} not above chance {:.3}",
            hist.final_test_acc(),
            chance
        );
    }

    #[test]
    fn loss_decreases_across_epochs() {
        let ds = small_ds();
        let trainer = Trainer::new(&ds, quick_cfg(ModelKind::Gcn));
        let hist = trainer.run(&RandomShuffle::new(1));
        let first = hist.epochs.first().unwrap().train_loss;
        let last = hist.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss {} -> {}", first, last);
    }

    #[test]
    fn evaluate_survives_nan_logits() {
        // Regression: a diverged training step used to poison evaluation —
        // `accuracy` folded with `partial_cmp(..).unwrap()` and panicked on
        // the first NaN logit. A NaN row must instead score as a wrong
        // prediction so the epoch loop keeps running.
        struct NanModel {
            dims: Vec<usize>,
        }
        impl crate::GnnModel for NanModel {
            fn kind(&self) -> ModelKind {
                ModelKind::Gcn
            }
            fn dims(&self) -> &[usize] {
                &self.dims
            }
            fn forward(
                &mut self,
                batch: &bgl_sampler::MiniBatch,
                _input: &Matrix,
            ) -> Matrix {
                let classes = *self.dims.last().unwrap();
                let rows = batch.blocks.last().unwrap().dst_nodes.len();
                Matrix::from_vec(rows, classes, vec![f32::NAN; rows * classes])
            }
            fn backward(&mut self, _grad_logits: &Matrix) {}
            fn load_param_vec(&mut self, _flat: &[f32]) {}
            fn apply(&mut self, _opt: &mut dyn bgl_tensor::Optimizer) {}
            fn param_vec(&self) -> Vec<f32> {
                Vec::new()
            }
        }

        let ds = small_ds();
        let trainer = Trainer::new(&ds, quick_cfg(ModelKind::Gcn));
        let mut model = NanModel { dims: vec![ds.features.dim(), 16, ds.num_classes] };
        let mut rng = StdRng::seed_from_u64(7);
        let acc = trainer.evaluate(&mut model, &mut rng);
        assert!(acc.is_finite());
        assert!(acc < 0.5, "all-NaN logits must not look accurate: {}", acc);
    }

    #[test]
    fn proximity_ordering_reaches_similar_accuracy() {
        // The paper's Table 5 claim at laptop scale: PO ≈ random shuffle.
        let ds = small_ds();
        let trainer = Trainer::new(&ds, quick_cfg(ModelKind::GraphSage));
        let rs = trainer.run(&RandomShuffle::new(3)).final_test_acc();
        let po = trainer
            .run(&ProximityAware::for_batch(4, 32, 3))
            .final_test_acc();
        assert!(
            (rs - po).abs() < 0.12,
            "orderings diverged: random {:.3} vs proximity {:.3}",
            rs,
            po
        );
    }
}
