"""From-scratch 3D segmentation networks for lung CT volumes.

Dense (B, C, D, H, W) tensors over numpy, hand-written forward/backward
kernels certified by finite differences, two UNet-style architectures
(attention-gated residual for lung fields, window-attention for nodule
blocks), a BCE+Dice objective, a MetaImage-based CT preprocessing pipeline,
and a deterministic training loop.
"""
