//! Adam optimization with the paper's linearly decaying learning-rate
//! schedule and one-epoch warmup.

use std::collections::HashMap;
use std::fmt;

use emba_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::param::Module;

/// Adam (Kingma & Ba, 2015) with optional decoupled weight decay.
///
/// Per-parameter first/second-moment state is keyed by [`crate::Param::id`],
/// so one optimizer instance can be reused across any module whose parameter
/// set is stable.
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u64,
    state: HashMap<u64, Moments>,
}

struct Moments {
    m: Tensor,
    v: Tensor,
}

/// Serializable snapshot of one parameter's Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MomentPair {
    /// First-moment (mean) estimate.
    pub m: Tensor,
    /// Second-moment (uncentered variance) estimate.
    pub v: Tensor,
}

/// Serializable snapshot of an [`Adam`] instance, captured against one
/// module.
///
/// Moments are recorded in **module visit order**, not by [`crate::Param::id`]:
/// parameter ids come from a process-global counter and are different in
/// every process, so an id-keyed snapshot could never be restored after a
/// restart. Visit order is the same deterministic order the checkpoint
/// format already relies on.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdamState {
    /// Completed optimizer steps (drives bias correction).
    pub step: u64,
    /// Per-parameter moments in module visit order. Parameters the optimizer
    /// has never updated snapshot as zero moments, which is exactly the state
    /// lazy initialization would give them.
    pub moments: Vec<MomentPair>,
}

/// Error returned by [`Adam::load_state`] when a snapshot does not fit the
/// module it is being restored against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdamStateError(String);

impl fmt::Display for AdamStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "optimizer state mismatch: {}", self.0)
    }
}

impl std::error::Error for AdamStateError {}

impl Adam {
    /// Adam with the conventional betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
            state: HashMap::new(),
        }
    }

    /// Enables decoupled (AdamW-style) weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Captures the optimizer's state against `module`, in visit order.
    ///
    /// Restoring the result with [`Adam::load_state`] into a fresh `Adam`
    /// driving an identically shaped module makes the next [`Adam::step`]
    /// bit-identical to what this instance would have computed.
    pub fn state(&self, module: &dyn Module) -> AdamState {
        let mut moments = Vec::new();
        module.visit(&mut |p| {
            let (rows, cols) = p.value.shape();
            moments.push(match self.state.get(&p.id()) {
                Some(mo) => MomentPair { m: mo.m.clone(), v: mo.v.clone() },
                // Never stepped: lazy init would start from zeros.
                None => MomentPair { m: Tensor::zeros(rows, cols), v: Tensor::zeros(rows, cols) },
            });
        });
        AdamState { step: self.step, moments }
    }

    /// Restores a snapshot captured by [`Adam::state`], re-keying the
    /// moments onto `module`'s current parameter ids.
    ///
    /// Any previous state of this instance is discarded. Fails (leaving the
    /// optimizer untouched) if the snapshot's parameter count or any moment
    /// shape disagrees with the module.
    pub fn load_state(&mut self, module: &dyn Module, state: &AdamState) -> Result<(), AdamStateError> {
        let mut keyed = Vec::with_capacity(state.moments.len());
        let mut idx = 0usize;
        let mut error = None;
        module.visit(&mut |p| {
            if error.is_some() {
                return;
            }
            match state.moments.get(idx) {
                Some(mo) if mo.m.shape() == p.value.shape() && mo.v.shape() == p.value.shape() => {
                    keyed.push((p.id(), Moments { m: mo.m.clone(), v: mo.v.clone() }));
                }
                Some(mo) => {
                    error = Some(AdamStateError(format!(
                        "parameter {idx}: snapshot moments {:?}/{:?} vs value {:?}",
                        mo.m.shape(),
                        mo.v.shape(),
                        p.value.shape()
                    )))
                }
                None => error = Some(AdamStateError(format!("snapshot ends at parameter {idx}"))),
            }
            idx += 1;
        });
        if let Some(e) = error {
            return Err(e);
        }
        if idx != state.moments.len() {
            return Err(AdamStateError(format!(
                "snapshot has {} moments for {idx} parameters",
                state.moments.len()
            )));
        }
        self.step = state.step;
        self.state = keyed.into_iter().collect();
        Ok(())
    }

    /// Applies one update to every parameter of `module` using its
    /// accumulated gradients, then leaves the gradients untouched (callers
    /// zero them at the start of the next accumulation window).
    pub fn step(&mut self, module: &mut dyn Module, lr: f32) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let state = &mut self.state;

        module.visit_mut(&mut |p| {
            let (rows, cols) = p.value.shape();
            let moments = state.entry(p.id()).or_insert_with(|| Moments {
                m: Tensor::zeros(rows, cols),
                v: Tensor::zeros(rows, cols),
            });
            debug_assert_eq!(moments.m.shape(), p.value.shape(), "optimizer state shape drift");

            let m = moments.m.data_mut();
            let v = moments.v.data_mut();
            let grad = p.grad.data();
            let value = p.value.data_mut();
            for i in 0..grad.len() {
                let gi = grad[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
                v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                let mut update = mhat / (vhat.sqrt() + eps);
                if wd > 0.0 {
                    update += wd * value[i];
                }
                value[i] -= lr * update;
            }
        });
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper's learning-rate schedule: linear warmup for the first epoch,
/// then linear decay to zero at `total_steps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub base_lr: f32,
    /// Steps spent warming up (one epoch in the paper).
    pub warmup_steps: u64,
    /// Total optimization steps over the whole run.
    pub total_steps: u64,
}

impl LinearSchedule {
    /// Creates a schedule; `total_steps` is clamped to at least
    /// `warmup_steps + 1` so the decay phase is non-empty.
    pub fn new(base_lr: f32, warmup_steps: u64, total_steps: u64) -> Self {
        Self {
            base_lr,
            warmup_steps,
            total_steps: total_steps.max(warmup_steps + 1),
        }
    }

    /// Learning rate at `step` (0-based). Never NaN: a schedule whose decay
    /// phase is empty (possible through direct construction of the public
    /// fields, which bypasses the [`LinearSchedule::new`] clamp) reports a
    /// zero rate once warmup is over instead of dividing by zero.
    pub fn lr(&self, step: u64) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            self.base_lr * (step + 1) as f32 / self.warmup_steps as f32
        } else {
            let decay_span = self.total_steps.saturating_sub(self.warmup_steps);
            if decay_span == 0 {
                return 0.0;
            }
            let remaining = self.total_steps.saturating_sub(step) as f32;
            self.base_lr * (remaining / decay_span as f32).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::param::Module;
    use emba_tensor::{Graph, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize ||W||^2 from a random start; Adam should cut the norm by
        // an order of magnitude in a few hundred steps.
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(3, 3, &mut rng);
        let start_norm = lin.weight.value.norm();
        let mut adam = Adam::new();
        for _ in 0..300 {
            lin.zero_grads();
            let g = Graph::new();
            let w = lin.weight.bind(&g);
            let sq = g.mul(w, w);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            lin.accumulate_gradients(&grads);
            adam.step(&mut lin, 1e-2);
        }
        assert!(lin.weight.value.norm() < start_norm / 10.0);
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn adam_fits_a_linear_map() {
        // Learn y = x * T for a fixed target T from squared error.
        let mut rng = StdRng::seed_from_u64(1);
        let target = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let mut lin = Linear::new(2, 2, &mut rng);
        let mut adam = Adam::new();
        let xs = Tensor::rand_normal(16, 2, 0.0, 1.0, &mut rng);
        let ys = xs.matmul(&target);
        for _ in 0..400 {
            lin.zero_grads();
            let g = Graph::new();
            let x = g.leaf(xs.clone());
            let pred = lin.forward(&g, x);
            let diff = g.sub(pred, g.leaf(ys.clone()));
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            lin.accumulate_gradients(&grads);
            adam.step(&mut lin, 5e-2);
        }
        let err = lin.weight.value.sub(&target).norm();
        assert!(err < 0.1, "weight error {err} too large");
    }

    #[test]
    fn weight_decay_shrinks_untouched_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.weight.value = Tensor::ones(2, 2);
        let before = lin.weight.value.norm();
        let mut adam = Adam::new().with_weight_decay(0.1);
        // Zero gradients: only decay acts.
        lin.zero_grads();
        for _ in 0..10 {
            adam.step(&mut lin, 1e-2);
        }
        assert!(lin.weight.value.norm() < before);
    }

    /// One deterministic training step: squared-error fit of a fixed target.
    fn descend(lin: &mut Linear, adam: &mut Adam, lr: f32) {
        lin.zero_grads();
        let g = Graph::new();
        let w = lin.weight.bind(&g);
        let sq = g.mul(w, w);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        lin.accumulate_gradients(&grads);
        adam.step(lin, lr);
    }

    #[test]
    fn state_roundtrip_reproduces_next_step_bit_exactly() {
        // Train a module for a while, snapshot optimizer + params, keep
        // training the original; a twin restored from the snapshot must
        // produce bit-identical parameters at every subsequent step.
        let mut rng = StdRng::seed_from_u64(9);
        let mut lin = Linear::new(4, 3, &mut rng);
        let mut adam = Adam::new();
        for _ in 0..25 {
            descend(&mut lin, &mut adam, 3e-3);
        }
        let params = lin.state();
        let snapshot = adam.state(&lin);
        assert_eq!(snapshot.step, 25);
        assert_eq!(snapshot.moments.len(), 2, "weight + bias");

        // Serialize through JSON: the durable store's exact path.
        let json = serde_json::to_string(&snapshot).unwrap();
        let restored: AdamState = serde_json::from_str(&json).unwrap();

        let mut rng2 = StdRng::seed_from_u64(1234);
        let mut twin = Linear::new(4, 3, &mut rng2); // different init, overwritten
        twin.load_state(&params);
        let mut twin_adam = Adam::new();
        twin_adam.load_state(&twin, &restored).unwrap();
        assert_eq!(twin_adam.steps(), 25);

        for step in 0..10 {
            descend(&mut lin, &mut adam, 3e-3);
            descend(&mut twin, &mut twin_adam, 3e-3);
            assert_eq!(
                lin.weight.value.data(),
                twin.weight.value.data(),
                "divergence at resumed step {step}"
            );
            assert_eq!(lin.bias.value.data(), twin.bias.value.data());
        }
    }

    #[test]
    fn unstepped_parameters_snapshot_as_zero_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(2, 2, &mut rng);
        let adam = Adam::new();
        let s = adam.state(&lin);
        assert_eq!(s.step, 0);
        assert!(s.moments.iter().all(|mo| {
            mo.m.data().iter().all(|&x| x == 0.0) && mo.v.data().iter().all(|&x| x == 0.0)
        }));
    }

    #[test]
    fn load_state_rejects_mismatched_snapshots() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lin = Linear::new(2, 2, &mut rng);
        let mut adam = Adam::new();
        adam.step(&mut lin, 1e-3);

        // Too short.
        let mut short = adam.state(&lin);
        short.moments.pop();
        assert!(adam.load_state(&lin, &short).is_err());

        // Too long.
        let mut long = adam.state(&lin);
        long.moments.push(MomentPair { m: Tensor::zeros(1, 1), v: Tensor::zeros(1, 1) });
        assert!(adam.load_state(&lin, &long).is_err());

        // Wrong shape.
        let mut wrong = adam.state(&lin);
        wrong.moments[0].m = Tensor::zeros(3, 3);
        let err = adam.load_state(&lin, &wrong).unwrap_err();
        assert!(err.to_string().contains("optimizer state mismatch"));

        // The optimizer still works after rejected loads.
        adam.step(&mut lin, 1e-3);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    fn schedule_warms_up_then_decays() {
        let s = LinearSchedule::new(1e-3, 10, 100);
        assert!(s.lr(0) < s.lr(9));
        assert!((s.lr(9) - 1e-3).abs() < 1e-9);
        assert!(s.lr(50) < s.lr(10));
        assert!(s.lr(99) > 0.0);
        assert_eq!(s.lr(100), 0.0);
        assert_eq!(s.lr(200), 0.0);
    }

    #[test]
    fn schedule_without_warmup_starts_at_base() {
        let s = LinearSchedule::new(2e-4, 0, 50);
        assert!((s.lr(0) - 2e-4).abs() < 1e-9);
    }

    #[test]
    fn direct_construction_with_empty_decay_span_never_yields_nan() {
        // Public fields allow bypassing `new()`'s clamp; before the lr()
        // guard this divided zero by zero past warmup and fed NaN to Adam.
        let s = LinearSchedule {
            base_lr: 1e-3,
            warmup_steps: 10,
            total_steps: 10,
        };
        for step in [0, 5, 9, 10, 11, 1000] {
            assert!(s.lr(step).is_finite(), "lr({step}) = {}", s.lr(step));
        }
        // Warmup still ramps; the exhausted decay phase pins the rate to 0.
        assert!(s.lr(0) > 0.0);
        assert_eq!(s.lr(10), 0.0);
        assert_eq!(s.lr(1000), 0.0);
    }

    #[test]
    fn zero_step_schedule_is_all_zero() {
        let s = LinearSchedule {
            base_lr: 1.0,
            warmup_steps: 0,
            total_steps: 0,
        };
        assert_eq!(s.lr(0), 0.0);
        assert_eq!(s.lr(7), 0.0);
    }
}
