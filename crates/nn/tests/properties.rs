//! Property-based tests for the deep-learning framework: tensor algebra laws,
//! loss-function invariants, and gradient correctness on random layers.

use deepsplit_nn::init::Initializer;
use deepsplit_nn::layers::{Conv2d, Layer, Linear, Params, ResBlock};
use deepsplit_nn::loss::{softmax_regression, two_class};
use deepsplit_nn::tensor::Tensor;
use proptest::prelude::*;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v))
}

fn transposed(t: &Tensor) -> Tensor {
    let (rows, cols) = t.dims2();
    let mut out = Tensor::zeros(&[cols, rows]);
    for i in 0..rows {
        for j in 0..cols {
            out.data_mut()[j * rows + i] = t.data()[i * cols + j];
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributive(a in arb_tensor(3, 4), b in arb_tensor(3, 4), c in arb_tensor(4, 2)) {
        let mut ab = a.clone();
        ab.add_assign(&b);
        let lhs = ab.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    /// Transposed matmul variants agree with the direct product bit for bit:
    /// all three add the same products in the same order.
    #[test]
    fn matmul_transpose_identities(a in arb_tensor(3, 4), b in arb_tensor(4, 2)) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let direct = a.matmul(&b);
        // a = (aᵀ)ᵀ: build aᵀ explicitly and use t_matmul.
        let at = transposed(&a);
        prop_assert_eq!(bits(&direct), bits(&at.t_matmul(&b)));
        // b = (bᵀ)ᵀ: build bᵀ explicitly and use matmul_t.
        let bt = transposed(&b);
        prop_assert_eq!(bits(&direct), bits(&a.matmul_t(&bt)));
    }

    /// concat_cols ∘ split_cols is the identity.
    #[test]
    fn concat_split_identity(a in arb_tensor(4, 3), b in arb_tensor(4, 5)) {
        let joined = Tensor::concat_cols(&[&a, &b]);
        let parts = joined.split_cols(&[3, 5]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }

    /// The softmax regression gradient sums to zero (class balance, the
    /// paper's key property) and is negative only at the target.
    #[test]
    fn softmax_regression_gradient_structure(
        scores in proptest::collection::vec(-5.0f32..5.0, 2..12),
        target_raw in any::<usize>()
    ) {
        let n = scores.len();
        let target = target_raw % n;
        let t = Tensor::from_vec(&[n, 1], scores);
        let (loss, grad) = softmax_regression(&t, target);
        prop_assert!(loss >= 0.0);
        let sum: f32 = grad.data().iter().sum();
        prop_assert!(sum.abs() < 1e-4, "gradient sum {}", sum);
        for (j, &g) in grad.data().iter().enumerate() {
            if j == target {
                prop_assert!(g <= 0.0);
            } else {
                prop_assert!(g >= 0.0);
            }
        }
    }

    /// Two-class per-candidate gradients are bounded by 1/n — the imbalance
    /// weakness the paper identifies (Eq. 4).
    #[test]
    fn two_class_gradient_bounded(
        scores in proptest::collection::vec(-5.0f32..5.0, 2..12),
        target_raw in any::<usize>()
    ) {
        let n = scores.len() / 2;
        prop_assume!(n >= 1);
        let target = target_raw % n;
        let t = Tensor::from_vec(&[n, 2], scores[..n * 2].to_vec());
        let (_, grad) = two_class(&t, target);
        for &g in grad.data() {
            prop_assert!(g.abs() <= 1.0 / n as f32 + 1e-5);
        }
    }

    /// Linear layers are, in fact, linear: f(x+y) - f(y) = f(x) - f(0).
    #[test]
    fn linear_layer_linearity(x in arb_tensor(2, 5), y in arb_tensor(2, 5), seed in any::<u64>()) {
        let mut init = Initializer::new(seed);
        let layer = Linear::new(5, 3, &mut init);
        let mut xy = x.clone();
        xy.add_assign(&y);
        let f_xy = layer.infer(&xy);
        let f_y = layer.infer(&y);
        let f_x = layer.infer(&x);
        let f_0 = layer.infer(&Tensor::zeros(&[2, 5]));
        for i in 0..f_xy.numel() {
            let lhs = f_xy.data()[i] - f_y.data()[i];
            let rhs = f_x.data()[i] - f_0.data()[i];
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }

    /// A zeroed residual block is the identity for any input.
    #[test]
    fn zero_resblock_is_identity(x in arb_tensor(3, 6), seed in any::<u64>()) {
        let mut init = Initializer::new(seed);
        let mut block = ResBlock::new(6, &mut init);
        block.visit_params(&mut |p| p.value.fill_zero());
        let y = block.infer(&x);
        prop_assert_eq!(y, x);
    }

    /// Convolution backward matches finite differences on random inputs.
    #[test]
    fn conv_gradcheck_random(seed in any::<u64>()) {
        let mut init = Initializer::new(seed);
        let conv = Conv2d::new(2, 2, 3, 1, &mut init);
        let x = init.uniform(&[2 * 5 * 5], 1.0).reshape(&[1, 2, 5, 5]);
        let (y, tape) = conv.forward(x.clone());
        let ones = y.map(|_| 1.0);
        let gx = conv.backward(tape, ones, &[1], &mut Vec::new());
        let eps = 1e-2f32;
        for idx in [0usize, 12, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (conv.infer(&xp).sum() - conv.infer(&xm).sum()) / (2.0 * eps);
            let ana = gx.data()[idx];
            prop_assert!((num - ana).abs() < 2e-2 * (1.0 + num.abs()), "{} vs {}", num, ana);
        }
    }
}
