#include "dataflow/layer.h"

#include <algorithm>
#include <cmath>

namespace cnpu {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2D:
      return "conv2d";
    case OpKind::kDepthwiseConv:
      return "depthwise";
    case OpKind::kTransposedConv:
      return "transposed_conv";
    case OpKind::kGemm:
      return "gemm";
    case OpKind::kElementwise:
      return "elementwise";
    case OpKind::kPool:
      return "pool";
  }
  return "unknown";
}

double LayerDesc::effective_taps() const {
  const double taps = static_cast<double>(r) * static_cast<double>(s);
  if (kind == OpKind::kTransposedConv) {
    // Only 1/stride^2 of input positions exist in the upsampled grid, so each
    // output accumulates taps/stride^2 products on average.
    // Squared in double: an int64 product overflows for strides a bundle
    // may carry, and below that the two round alike.
    const double up = static_cast<double>(stride);
    return std::max(1.0, taps / (up * up));
  }
  return taps;
}

double LayerDesc::macs() const {
  const double outs = output_elems();
  switch (kind) {
    case OpKind::kConv2D:
      return outs * static_cast<double>(c) * static_cast<double>(r) *
             static_cast<double>(s);
    case OpKind::kDepthwiseConv:
      return outs * static_cast<double>(r) * static_cast<double>(s);
    case OpKind::kTransposedConv:
      return outs * static_cast<double>(c) * effective_taps();
    case OpKind::kGemm:
      return outs * static_cast<double>(c);
    case OpKind::kElementwise:
      return outs;  // one op per element
    case OpKind::kPool:
      return outs * static_cast<double>(r) * static_cast<double>(s);
  }
  return 0.0;
}

double LayerDesc::output_elems() const {
  return static_cast<double>(k) * static_cast<double>(y) *
         static_cast<double>(x);
}

double LayerDesc::output_bytes() const {
  return output_elems() * static_cast<double>(kActivationBytesPerElem);
}

double LayerDesc::input_elems() const {
  switch (kind) {
    case OpKind::kConv2D:
    case OpKind::kPool: {
      const double in_y = static_cast<double>(y) * static_cast<double>(stride);
      const double in_x = static_cast<double>(x) * static_cast<double>(stride);
      const double in_ch =
          kind == OpKind::kPool ? static_cast<double>(k) : static_cast<double>(c);
      return in_ch * in_y * in_x;
    }
    case OpKind::kDepthwiseConv: {
      const double in_y = static_cast<double>(y) * static_cast<double>(stride);
      const double in_x = static_cast<double>(x) * static_cast<double>(stride);
      return static_cast<double>(k) * in_y * in_x;
    }
    case OpKind::kTransposedConv: {
      const double in_y = static_cast<double>(y) / static_cast<double>(stride);
      const double in_x = static_cast<double>(x) / static_cast<double>(stride);
      return static_cast<double>(c) * in_y * in_x;
    }
    case OpKind::kGemm:
      return static_cast<double>(c) * static_cast<double>(y) *
             static_cast<double>(x);
    case OpKind::kElementwise:
      return 2.0 * output_elems();  // binary ops dominate (residual adds)
  }
  return 0.0;
}

double LayerDesc::weight_elems() const {
  switch (kind) {
    case OpKind::kConv2D:
    case OpKind::kTransposedConv:
      return static_cast<double>(k) * static_cast<double>(c) *
             static_cast<double>(r) * static_cast<double>(s);
    case OpKind::kDepthwiseConv:
      return static_cast<double>(k) * static_cast<double>(r) *
             static_cast<double>(s);
    case OpKind::kGemm:
      return static_cast<double>(k) * static_cast<double>(c);
    case OpKind::kElementwise:
    case OpKind::kPool:
      return 0.0;
  }
  return 0.0;
}

bool LayerDesc::has_weights() const { return weight_elems() > 0.0; }

std::string LayerDesc::validate() const {
  if (name.empty()) return "layer name must not be empty";
  if (k < 1 || c < 1 || y < 1 || x < 1 || r < 1 || s < 1)
    return name + ": all dims must be >= 1";
  if (stride < 1) return name + ": stride must be >= 1";
  if (heads < 1) return name + ": heads must be >= 1";
  if (heads > 1 && kind != OpKind::kGemm)
    return name + ": heads only meaningful for GEMM ops";
  if (heads > 1 && k % heads != 0)
    return name + ": K must divide evenly across heads";
  if (kind == OpKind::kTransposedConv && (y % stride != 0 || x % stride != 0))
    return name + ": transposed-conv output must be a multiple of upsampling";
  return "";
}

LayerDesc conv2d(std::string name, std::int64_t in_c, std::int64_t out_k,
                 std::int64_t out_y, std::int64_t out_x, std::int64_t kernel,
                 std::int64_t stride) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kConv2D;
  l.k = out_k;
  l.c = in_c;
  l.y = out_y;
  l.x = out_x;
  l.r = kernel;
  l.s = kernel;
  l.stride = stride;
  return l;
}

LayerDesc pointwise(std::string name, std::int64_t in_c, std::int64_t out_k,
                    std::int64_t out_y, std::int64_t out_x) {
  return conv2d(std::move(name), in_c, out_k, out_y, out_x, /*kernel=*/1);
}

LayerDesc depthwise(std::string name, std::int64_t channels, std::int64_t out_y,
                    std::int64_t out_x, std::int64_t kernel,
                    std::int64_t stride) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kDepthwiseConv;
  l.k = channels;
  l.c = 1;
  l.y = out_y;
  l.x = out_x;
  l.r = kernel;
  l.s = kernel;
  l.stride = stride;
  return l;
}

LayerDesc transposed_conv(std::string name, std::int64_t in_c, std::int64_t out_k,
                          std::int64_t out_y, std::int64_t out_x,
                          std::int64_t kernel, std::int64_t up) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kTransposedConv;
  l.k = out_k;
  l.c = in_c;
  l.y = out_y;
  l.x = out_x;
  l.r = kernel;
  l.s = kernel;
  l.stride = up;
  return l;
}

LayerDesc gemm(std::string name, std::int64_t tokens, std::int64_t in_f,
               std::int64_t out_f, int heads) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kGemm;
  l.k = out_f;
  l.c = in_f;
  l.y = tokens;
  l.x = 1;
  l.heads = heads;
  return l;
}

LayerDesc attention_matmul(std::string name, std::int64_t tokens,
                           std::int64_t red, std::int64_t out_f, int heads) {
  LayerDesc l = gemm(std::move(name), tokens, red, out_f * heads, heads);
  l.streaming_weights = true;
  return l;
}

LayerDesc elementwise(std::string name, std::int64_t channels, std::int64_t out_y,
                      std::int64_t out_x) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kElementwise;
  l.k = channels;
  l.y = out_y;
  l.x = out_x;
  return l;
}

LayerDesc pool(std::string name, std::int64_t channels, std::int64_t out_y,
               std::int64_t out_x, std::int64_t kernel, std::int64_t stride) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = OpKind::kPool;
  l.k = channels;
  l.c = 1;
  l.y = out_y;
  l.x = out_x;
  l.r = kernel;
  l.s = kernel;
  l.stride = stride;
  return l;
}

LayerDesc shard_layer(const LayerDesc& layer, int n, int index) {
  LayerDesc shard = layer;
  if (n <= 1) return shard;
  const std::int64_t rows = layer.y;
  const std::int64_t base = rows / n;
  const std::int64_t extra = rows % n;
  shard.y = base + (index < extra ? 1 : 0);
  shard.y = std::max<std::int64_t>(shard.y, 1);
  shard.name = layer.name + "[shard " + std::to_string(index) + "/" +
               std::to_string(n) + "]";
  return shard;
}

double total_macs(const std::vector<LayerDesc>& layers) {
  double acc = 0.0;
  for (const auto& l : layers) acc += l.macs();
  return acc;
}

}  // namespace cnpu
