"""From-scratch 3D segmentation networks for lung CT volumes.

Dense (B, C, D, H, W) tensors over numpy, hand-written forward/backward
kernels certified by finite differences, two UNet-style architectures
(attention-gated residual for lung fields, window-attention for nodule
blocks), a BCE+Dice objective, a MetaImage-based CT preprocessing pipeline,
and a deterministic training loop.
"""

from .tensor import Tensor5
from .ops import BatchNormState, ConvSpec, LayerParams
from .autograd import Var, no_grad, run_backward
from .networks import (GatedResidualUNet3d, NetworkConfig,
                       WindowAttentionUNet3d, build_network, predict_volume)
from .losses import (LossValue, SegMetrics, bce_loss, combined_loss,
                     dice_loss, export_heatmap, seg_metrics)
from .data import (Sample, SplitManifest, crop_about_median,
                   crop_nodule_block, load_mhd, make_phantom, resize_inplane,
                   split_dataset, window_intensity, write_mhd)
from .train import AdamState, TrainState, adam_step, evaluate, train
from .gradcheck import GradReport, check_gradients, finite_diff_grad

__version__ = "0.1.0"
