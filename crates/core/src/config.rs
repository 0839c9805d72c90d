//! Attack configuration (paper §5 experimental setup).

use serde::{Deserialize, Serialize};

/// Configuration of the deep-learning attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Candidate VPPs per sink fragment (paper: 31).
    pub candidates: usize,
    /// Image side length in pixels (paper: 99).
    pub image_px: usize,
    /// Pixel sizes of the three image scales in µm (paper: 0.05/0.1/0.2).
    pub image_scales_um: Vec<f64>,
    /// Use image-based features (Fig. 5 ablates this off).
    pub use_images: bool,
    /// Use the two-class loss instead of softmax regression (Fig. 5 ablation).
    pub two_class: bool,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (paper: 1e-3).
    pub learning_rate: f64,
    /// LR decay factor (paper: 0.6).
    pub lr_decay: f64,
    /// Epochs between decays (paper: 20).
    pub lr_decay_every: usize,
    /// Mini-batch size in sink-fragment samples.
    pub batch_size: usize,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// RNG seed for weights and shuffling.
    pub seed: u64,
    /// Cap on candidate sources pre-filtered by the spatial index before the
    /// paper's criteria are applied (keeps very large designs tractable; the
    /// paper's criteria are then applied within this pool).
    pub prefilter_pool: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig::paper()
    }
}

impl AttackConfig {
    /// The paper's settings: n = 31 candidates, 99×99 images at
    /// 0.05/0.1/0.2 µm per pixel, lr 1e-3 decayed ×0.6 every 20 epochs.
    pub fn paper() -> AttackConfig {
        AttackConfig {
            candidates: 31,
            image_px: 99,
            image_scales_um: vec![0.05, 0.1, 0.2],
            use_images: true,
            two_class: false,
            epochs: 60,
            learning_rate: 1e-3,
            lr_decay: 0.6,
            lr_decay_every: 20,
            batch_size: 16,
            threads: 0,
            seed: 1,
            prefilter_pool: 192,
        }
    }

    /// A CPU-friendly profile: smaller images, fewer candidates and epochs.
    /// Architecture, losses and schedule are identical; only resolution and
    /// scale shrink. The bench binaries print the profile behind each table.
    pub fn fast() -> AttackConfig {
        AttackConfig {
            candidates: 15,
            image_px: 17,
            image_scales_um: vec![0.1, 0.3, 0.9],
            epochs: 12,
            batch_size: 8,
            prefilter_pool: 96,
            ..AttackConfig::paper()
        }
    }

    /// Number of image channels for an FEOL with `m` layers:
    /// `2m` layer-bit planes per scale, scales stacked.
    pub fn image_channels(&self, feol_layers: u8) -> usize {
        2 * feol_layers as usize * self.image_scales_um.len()
    }

    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            deepsplit_nn::parallel::default_threads()
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = AttackConfig::paper();
        assert_eq!(c.candidates, 31);
        assert_eq!(c.image_px, 99);
        assert_eq!(c.image_scales_um, vec![0.05, 0.1, 0.2]);
        assert!((c.learning_rate - 1e-3).abs() < 1e-12);
        assert!((c.lr_decay - 0.6).abs() < 1e-12);
        assert_eq!(c.lr_decay_every, 20);
    }

    #[test]
    fn channels_scale_with_split_layer() {
        let c = AttackConfig::paper();
        assert_eq!(c.image_channels(1), 6); // M1 split: 2 planes × 3 scales
        assert_eq!(c.image_channels(3), 18); // M3 split: 6 planes × 3 scales
    }

    #[test]
    fn fast_profile_is_smaller() {
        let f = AttackConfig::fast();
        let p = AttackConfig::paper();
        assert!(f.image_px < p.image_px);
        assert!(f.candidates < p.candidates);
        assert_eq!(f.lr_decay, p.lr_decay, "schedule unchanged");
    }
}
