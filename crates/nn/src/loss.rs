//! The paper's two loss formulations (§4.3).
//!
//! * [`softmax_regression`] — the proposed loss (Eq. 6): one score per
//!   candidate VPP, softmax over the whole candidate group, negative log
//!   likelihood of the true candidate. Its gradient (Eq. 7) weighs the
//!   highest-scoring negative exponentially and balances positive/negative
//!   mass exactly, which is the paper's core training contribution.
//! * [`two_class`] — the conventional per-candidate two-class classification
//!   baseline (Eq. 3) that the paper ablates against in Fig. 5: every
//!   candidate is classified connect/non-connect independently and the loss is
//!   averaged, which dilutes the positive sample `1/n` and lets outlying
//!   negatives dominate the argmax at inference.

use crate::tensor::Tensor;

/// Numerically stable softmax of a flat slice — shared by the losses here
/// and by ranked-inference confidence reporting in `deepsplit-core`.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut p = vec![0.0; xs.len()];
    softmax_into(xs, &mut p);
    p
}

/// [`softmax`] of `xs`, written into `p`.
fn softmax_into(xs: &[f32], p: &mut [f32]) {
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    for (e, &x) in p.iter_mut().zip(xs) {
        *e = (x - max).exp();
    }
    let sum: f32 = p.iter().sum();
    for e in p.iter_mut() {
        *e /= sum;
    }
}

/// Softmax regression loss (paper Eq. 6) over a candidate group.
///
/// `scores` is `[n, 1]` (one score per candidate VPP of the same sink
/// fragment), `target` is the index of the positive VPP. Returns
/// `(loss, gradient)` with the gradient shaped like `scores` (Eq. 7:
/// `softmax(s) - one_hot(target)`).
///
/// # Panics
///
/// Panics if `target` is out of range or `scores` is not `[n, 1]`.
pub fn softmax_regression(scores: &Tensor, target: usize) -> (f32, Tensor) {
    let (n, c) = scores.dims2();
    assert_eq!(c, 1, "softmax regression expects [n, 1] scores");
    let mut grad = Tensor::zeros(&[n, 1]);
    let loss = softmax_regression_into(scores.data(), target, grad.data_mut());
    (loss, grad)
}

/// [`softmax_regression`] over the `n` scores of a flat slice: returns the
/// loss and writes the gradient into `grad` (`n` values). The same bits.
///
/// # Panics
///
/// Panics if `target` is out of range or `grad` is not as long as `scores`.
pub fn softmax_regression_into(scores: &[f32], target: usize, grad: &mut [f32]) -> f32 {
    assert!(target < scores.len(), "target out of range");
    assert_eq!(grad.len(), scores.len(), "one gradient per score");
    softmax_into(scores, grad);
    let loss = -grad[target].max(1e-30).ln();
    for (j, g) in grad.iter_mut().enumerate() {
        *g -= if j == target { 1.0 } else { 0.0 };
    }
    loss
}

/// Two-class classification loss (paper Eq. 3) over a candidate group.
///
/// `scores` is `[n, 2]`: column 0 is the non-connection score `s⁻`, column 1
/// the connection score `s⁺`. The loss averages an independent two-way softmax
/// cross-entropy per candidate: the target candidate is labelled *connect*,
/// all others *non-connect*. Returns `(loss, gradient)` (paper Eq. 4).
///
/// # Panics
///
/// Panics if `target` is out of range or `scores` is not `[n, 2]`.
pub fn two_class(scores: &Tensor, target: usize) -> (f32, Tensor) {
    let (n, c) = scores.dims2();
    assert_eq!(c, 2, "two-class loss expects [n, 2] scores");
    let mut grad = Tensor::zeros(&[n, 2]);
    let loss = two_class_into(scores.data(), target, grad.data_mut());
    (loss, grad)
}

/// [`two_class`] over the `[n, 2]` scores of a flat slice: returns the loss
/// and writes the gradient into `grad` (`2n` values). The same bits.
///
/// # Panics
///
/// Panics if `target` is out of range or `grad` is not as long as `scores`.
pub fn two_class_into(scores: &[f32], target: usize, grad: &mut [f32]) -> f32 {
    let n = scores.len() / 2;
    assert!(target < n, "target out of range");
    assert_eq!(grad.len(), scores.len(), "one gradient per score");
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    let mut p = [0.0f32; 2];
    for (j, (s, g)) in scores
        .chunks_exact(2)
        .zip(grad.chunks_exact_mut(2))
        .enumerate()
    {
        softmax_into(s, &mut p);
        let (p_neg, p_pos) = (p[0], p[1]);
        if j == target {
            loss -= inv_n * p_pos.max(1e-30).ln();
            g[0] = inv_n * p_neg; // d/ds⁻ of -log p⁺
            g[1] = -inv_n * p_neg; // = inv_n (p⁺ - 1)
        } else {
            loss -= inv_n * p_neg.max(1e-30).ln();
            g[0] = -inv_n * p_pos;
            g[1] = inv_n * p_pos;
        }
    }
    loss
}

/// Connection probabilities for ranking under the two-class model
/// (`p⁺` per candidate; the argmax of these implements paper Eq. 2).
pub fn two_class_probabilities(scores: &Tensor) -> Vec<f32> {
    let (n, c) = scores.dims2();
    assert_eq!(c, 2, "expects [n, 2] scores");
    (0..n)
        .map(|j| {
            let p = softmax(&scores.data()[j * 2..j * 2 + 2]);
            p[1]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(
        loss_fn: impl Fn(&Tensor) -> f32,
        scores: &Tensor,
        grad: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        for idx in 0..scores.numel() {
            let mut sp = scores.clone();
            sp.data_mut()[idx] += eps;
            let mut sm = scores.clone();
            sm.data_mut()[idx] -= eps;
            let num = (loss_fn(&sp) - loss_fn(&sm)) / (2.0 * eps);
            let ana = grad.data()[idx];
            assert!(
                (num - ana).abs() < tol,
                "grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn softmax_regression_gradient_matches_finite_difference() {
        let scores = Tensor::from_vec(&[4, 1], vec![0.2, -1.0, 0.7, 0.1]);
        let (_, grad) = softmax_regression(&scores, 2);
        finite_diff(|s| softmax_regression(s, 2).0, &scores, &grad, 1e-3, 1e-3);
    }

    #[test]
    fn two_class_gradient_matches_finite_difference() {
        let scores = Tensor::from_vec(&[3, 2], vec![0.2, -1.0, 0.7, 0.1, -0.3, 0.5]);
        let (_, grad) = two_class(&scores, 1);
        finite_diff(|s| two_class(s, 1).0, &scores, &grad, 1e-3, 1e-3);
    }

    #[test]
    fn softmax_regression_prefers_target() {
        // Loss decreases as the target score rises.
        let low = Tensor::from_vec(&[3, 1], vec![0.0, 0.0, 0.0]);
        let high = Tensor::from_vec(&[3, 1], vec![0.0, 3.0, 0.0]);
        assert!(softmax_regression(&high, 1).0 < softmax_regression(&low, 1).0);
    }

    #[test]
    fn softmax_regression_gradient_balances_classes() {
        // Positive and negative gradient mass cancel exactly (the paper's
        // imbalance-free property).
        let scores = Tensor::from_vec(&[5, 1], vec![0.3, 1.2, -0.7, 0.0, 2.0]);
        let (_, grad) = softmax_regression(&scores, 0);
        let total: f32 = grad.data().iter().sum();
        assert!(total.abs() < 1e-6, "gradient sums to {total}");
    }

    #[test]
    fn two_class_positive_grad_bounded() {
        // The paper's critique: each negative contributes at most 1/n to the
        // gradient, so one outlier cannot be corrected strongly.
        let n = 10;
        let mut data = vec![0.0f32; n * 2];
        data[5 * 2 + 1] = 10.0; // outlying negative prediction
        let scores = Tensor::from_vec(&[n, 2], data);
        let (_, grad) = two_class(&scores, 0);
        for g in grad.data() {
            assert!(g.abs() <= 1.0 / n as f32 + 1e-6);
        }
    }

    #[test]
    fn probabilities_sum_per_candidate() {
        let scores = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, -1.0, -2.0]);
        let p = two_class_probabilities(&scores);
        assert!(p[0] > 0.5 && p[1] < 0.5);
    }

    #[test]
    fn stable_under_large_scores() {
        let scores = Tensor::from_vec(&[3, 1], vec![1000.0, 999.0, -1000.0]);
        let (loss, grad) = softmax_regression(&scores, 0);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }
}
