#ifndef UV_FEATURES_IMAGE_ENCODER_H_
#define UV_FEATURES_IMAGE_ENCODER_H_

#include <array>
#include <cstdint>

#include "tensor/forward_ops.h"
#include "tensor/tensor.h"

namespace uv::features {

// Frozen convolutional feature extractor standing in for the paper's
// ImageNet-pretrained VGG16 (with top FC layers removed). Like VGG16 in the
// paper, it is *not* trained with the detector: it is seeded once,
// independent of any city, and used purely as a fixed feature map.
//
// Architecture: [conv3x3 -> relu -> maxpool2]x3 over 3 x S x S tiles, then a
// fixed random projection of the flattened activation to `out_dim`.
// The paper's 4096-d output is reachable via out_dim=4096; the default 256
// keeps laptop-scale runtime (see DESIGN.md section 1).
//
// Encoding never has a backward pass, so it runs the raw forward kernels
// that ag::Conv2d and ag::MaxPool2d take their values from, image by image
// with per-worker scratch, and builds no autograd node. A row depends only
// on its own image: any chunking of the input gives the same bytes.
class ConvEncoder {
 public:
  struct Options {
    int image_size = 32;
    int out_dim = 256;
    uint64_t seed = 7;   // Plays the role of "ImageNet pretraining".
    int batch_size = 256;  // Images per projection chunk (below 1: 1).
  };

  // One conv3x3 -> relu -> maxpool2 stage: w is out_c x (in_c*9), b is
  // 1 x out_c, and `packed` holds both as Conv2dForwardImage reads them
  // (frozen, so packed once at construction).
  struct Layer {
    Conv2dSpec spec;
    Tensor w;
    Tensor b;
    Tensor packed;
  };

  explicit ConvEncoder(const Options& options);

  // Encodes (N x 3*S*S) raw tiles into (N x out_dim) features.
  Tensor Encode(const Tensor& images) const;

  int out_dim() const { return options_.out_dim; }
  int batch_size() const { return options_.batch_size; }
  // The frozen weights, for reference checks.
  const std::array<Layer, 3>& layers() const { return layers_; }
  const Tensor& projection() const { return proj_; }

 private:
  Options options_;
  std::array<Layer, 3> layers_;
  Tensor proj_;  // flat_dim x out_dim.
};

// Per-channel histogram equalization, the preprocessing UVLens applies to
// satellite imagery before its CNN backbone (paper Appendix I-A).
Tensor HistogramEqualize(const Tensor& images, int channels);

}  // namespace uv::features

#endif  // UV_FEATURES_IMAGE_ENCODER_H_
