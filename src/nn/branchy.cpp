#include "nn/branchy.hpp"

#include <algorithm>
#include <utility>

namespace adapex {

void BranchyModel::add_block(std::unique_ptr<Sequential> block) {
  ADAPEX_CHECK(block != nullptr, "null block");
  blocks_.push_back(std::move(block));
}

void BranchyModel::add_exit(int after_block, std::unique_ptr<Sequential> head) {
  ADAPEX_CHECK(head != nullptr, "null exit head");
  ADAPEX_CHECK(after_block >= 0 &&
                   after_block + 1 < static_cast<int>(blocks_.size()),
               "exit must attach after an intermediate backbone block");
  exits_.push_back(ExitBranch{after_block, std::move(head)});
  std::stable_sort(exits_.begin(), exits_.end(),
                   [](const ExitBranch& a, const ExitBranch& b) {
                     return a.after_block < b.after_block;
                   });
}

std::vector<Tensor> BranchyModel::forward(const Tensor& input, bool train) {
  ADAPEX_CHECK(!blocks_.empty(), "model has no blocks");
  std::vector<Tensor> outputs(num_outputs());
  Tensor x = input;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    x = blocks_[b]->forward(x, train);
    for (std::size_t e = 0; e < exits_.size(); ++e) {
      if (exits_[e].after_block == static_cast<int>(b)) {
        outputs[e] = exits_[e].head->forward(x, train);
      }
    }
  }
  outputs.back() = std::move(x);
  return outputs;
}

void BranchyModel::backward(const std::vector<Tensor>& grad_logits) {
  ADAPEX_CHECK(grad_logits.size() == num_outputs(),
               "gradient count must match output count");
  // Backpropagate each exit head first, collecting the gradient it injects
  // at its attachment point.
  std::vector<Tensor> exit_grad(exits_.size());
  for (std::size_t e = 0; e < exits_.size(); ++e) {
    exit_grad[e] = exits_[e].head->backward(grad_logits[e]);
  }
  // Walk the backbone in reverse, merging exit gradients at block outputs.
  // Nobody reads the gradient w.r.t. the model input, so block 0 runs
  // backward_params: its first layer skips its input-gradient work.
  Tensor g = grad_logits.back();
  for (int b = static_cast<int>(blocks_.size()) - 1; b >= 0; --b) {
    for (std::size_t e = 0; e < exits_.size(); ++e) {
      if (exits_[e].after_block == b) g.add_(exit_grad[e]);
    }
    if (b == 0) {
      blocks_.front()->backward_params(g);
    } else {
      g = blocks_[static_cast<std::size_t>(b)]->backward(g);
    }
  }
}

std::vector<Param*> BranchyModel::params() {
  std::vector<Param*> all;
  for (auto& block : blocks_) {
    for (Param* p : block->params()) all.push_back(p);
  }
  for (auto& exit : exits_) {
    for (Param* p : exit.head->params()) all.push_back(p);
  }
  return all;
}

std::vector<const Param*> BranchyModel::params() const {
  std::vector<const Param*> all;
  for (const auto& block : blocks_) {
    for (const Param* p : std::as_const(*block).params()) all.push_back(p);
  }
  for (const auto& exit : exits_) {
    for (const Param* p : std::as_const(*exit.head).params()) all.push_back(p);
  }
  return all;
}

BranchyModel BranchyModel::clone() const {
  BranchyModel copy;
  for (const auto& block : blocks_) {
    auto cloned = block->clone();
    copy.blocks_.push_back(std::unique_ptr<Sequential>(
        static_cast<Sequential*>(cloned.release())));
  }
  for (const auto& exit : exits_) {
    auto cloned = exit.head->clone();
    copy.exits_.push_back(ExitBranch{
        exit.after_block, std::unique_ptr<Sequential>(static_cast<Sequential*>(
                              cloned.release()))});
  }
  return copy;
}

}  // namespace adapex
