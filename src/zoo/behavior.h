#pragma once

// Split behavior/action recognizer (Fig. 7).
//
// Local device: ResNet block 1 -> per-frame features -> LSTM 1 -> FC1 ->
// Output 1 with an entropy gate. When the gate is uncertain, the block-1
// feature map is shipped to the analysis server, which runs ResNet blocks
// 2-3 -> LSTM 2 -> FC2 -> Output 2. Per Fig. 8, every residual block uses a
// convolutional shortcut. Both exits train jointly on labeled clips.

#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "zoo/resnet_block.h"

namespace metro::zoo {

/// Capacity knobs for the Fig. 7 architecture.
struct BehaviorConfig {
  int frame_size = 16;     ///< square frames
  int channels = 3;        ///< RGB street-camera frames; the 3->8 channel,
                           ///< /2 spatial block-1 cut point then *compresses*
                           ///< (shipping features beats shipping raw frames)
  int clip_length = 6;     ///< frames per clip (T)
  int num_classes = 5;     ///< behavior categories
  int block1_channels = 8;
  int block2_channels = 12;
  int block3_channels = 16;
  int lstm1_hidden = 16;
  int lstm2_hidden = 24;
  ShortcutKind shortcut = ShortcutKind::kConv;  ///< Fig. 8 design choice
};

/// One labeled video clip: T frames of (H, W, C) stacked into a single
/// (T, H, W, C) tensor.
struct Clip {
  nn::Tensor frames;
  int label = 0;
};

/// Result of a gated inference on one clip.
struct BehaviorPrediction {
  int label = 0;
  float entropy = 0;       ///< entropy of the exit used
  bool used_server = false;
  std::vector<float> probs;
};

/// The Fig. 7 split CNN+LSTM model, held as three Sequential halves that
/// train and run inference through the same layers.
class SplitBehaviorNet {
 public:
  SplitBehaviorNet(const BehaviorConfig& config, Rng& rng);

  const BehaviorConfig& config() const { return config_; }

  /// Local path on a batch of clips: returns exit-1 logits (N, classes).
  /// `frames` is (N*T, H, W, C), clip-major (each clip's T frames in order).
  nn::Tensor LocalLogits(const nn::Tensor& frames, bool training);

  /// Server path continuing from the block-1 feature map (N*T, h, w, c1).
  nn::Tensor ServerLogits(const nn::Tensor& block1_out, bool training);

  /// Joint training step (CE on both exits); returns combined loss.
  float TrainStep(const std::vector<Clip>& batch, nn::Optimizer& opt);

  /// Gated inference on one clip: accept exit 1 iff its entropy is at most
  /// `entropy_threshold` (nats), else run the server path.
  /// (The paper's prose says "higher than a predefined threshold" for
  /// *accepting* output 1, but entropy is an uncertainty measure — accepting
  /// high-entropy outputs would keep the *least* confident results local; we
  /// implement the evidently intended gate.)
  BehaviorPrediction Predict(const Clip& clip, float entropy_threshold);

  /// Exit-1 logits plus the block-1 feature map for one clip — used by the
  /// fog pipeline, which makes the offload decision itself.
  struct LocalPass {
    nn::Tensor logits;      ///< (1, classes)
    nn::Tensor block1_out;  ///< (T, h, w, c1)
    float entropy = 0;
  };
  LocalPass RunLocal(const Clip& clip);

  /// Server-side classification of a shipped feature map.
  std::vector<float> RunServer(const nn::Tensor& block1_out);

  std::vector<nn::Param*> Params();

  /// Checkpoint buffers (BatchNorm running stats) across all blocks.
  std::vector<nn::Tensor*> Buffers();

  /// Bytes of the block-1 feature map for one clip.
  std::size_t FeatureMapBytes() const;

  std::size_t LocalMacs() const;   ///< block1 + LSTM1 + FC1 for one clip
  std::size_t ServerMacs() const;  ///< blocks 2-3 + LSTM2 + FC2 for one clip

  /// The three halves, exposed so BehaviorSession can plan them.
  nn::Sequential& block1_net() { return block1_; }
  nn::Sequential& local_tail_net() { return local_tail_; }
  nn::Sequential& server_net() { return server_; }
  const nn::Shape& block1_out_shape() const { return block1_out_shape_; }

 private:
  BehaviorConfig config_;
  nn::Sequential block1_;      ///< ResNet block 1 (the cut point)
  nn::Sequential local_tail_;  ///< GAP -> LSTM 1 -> FC1
  nn::Sequential server_;      ///< blocks 2-3 -> GAP -> LSTM 2 -> FC2
  nn::Shape block1_out_shape_;  // for one frame
};

}  // namespace metro::zoo
