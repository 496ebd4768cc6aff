#include "pruning/pruning.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace adapex {

std::vector<float> filter_l1_norms(const QuantConv2d& conv) {
  const Tensor& w = conv.weight().value;
  const int filters = w.dim(0);
  const std::size_t per_filter = w.numel() / static_cast<std::size_t>(filters);
  std::vector<float> norms(static_cast<std::size_t>(filters), 0.0f);
  for (int f = 0; f < filters; ++f) {
    const float* src = w.data() + static_cast<std::size_t>(f) * per_filter;
    float acc = 0.0f;
    for (std::size_t i = 0; i < per_filter; ++i) acc += std::abs(src[i]);
    norms[static_cast<std::size_t>(f)] = acc;
  }
  return norms;
}

std::vector<int> lowest_l1_filters(const QuantConv2d& conv, int count) {
  const auto norms = filter_l1_norms(conv);
  std::vector<int> order(norms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return norms[static_cast<std::size_t>(a)] < norms[static_cast<std::size_t>(b)];
  });
  order.resize(static_cast<std::size_t>(std::max(count, 0)));
  std::sort(order.begin(), order.end());
  return order;
}

namespace {

/// Keep-list complement of a removal list over [0, n).
std::vector<int> keep_from_removed(int n, const std::vector<int>& removed) {
  std::vector<int> keep;
  keep.reserve(static_cast<std::size_t>(n) - removed.size());
  std::size_t r = 0;
  for (int i = 0; i < n; ++i) {
    if (r < removed.size() && removed[r] == i) {
      ++r;
    } else {
      keep.push_back(i);
    }
  }
  return keep;
}

/// Removes output filters (rows) of a conv weight.
void slice_conv_out(QuantConv2d& conv, const std::vector<int>& keep) {
  const Tensor& w = conv.weight().value;
  const int cin = w.dim(1), k = w.dim(2);
  const std::size_t per_filter = static_cast<std::size_t>(cin) * k * k;
  Tensor nw({static_cast<int>(keep.size()), cin, k, k});
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const float* src =
        w.data() + static_cast<std::size_t>(keep[i]) * per_filter;
    std::copy(src, src + per_filter, nw.data() + i * per_filter);
  }
  conv.set_weight(std::move(nw));
}

/// Removes input channels (columns) of a conv weight.
void slice_conv_in(QuantConv2d& conv, const std::vector<int>& keep) {
  const Tensor& w = conv.weight().value;
  const int f = w.dim(0), k = w.dim(2);
  const std::size_t plane = static_cast<std::size_t>(k) * k;
  Tensor nw({f, static_cast<int>(keep.size()), k, k});
  for (int fi = 0; fi < f; ++fi) {
    for (std::size_t ci = 0; ci < keep.size(); ++ci) {
      const float* src =
          w.data() + (static_cast<std::size_t>(fi) * w.dim(1) +
                      static_cast<std::size_t>(keep[ci])) *
                         plane;
      std::copy(src, src + plane,
                nw.data() + (static_cast<std::size_t>(fi) * keep.size() + ci) *
                                plane);
    }
  }
  conv.set_weight(std::move(nw));
}

/// Removes input features (columns) of an fc weight.
void slice_fc_in(QuantLinear& fc, const std::vector<int>& keep_features) {
  const Tensor& w = fc.weight().value;
  const int out = w.dim(0);
  Tensor nw({out, static_cast<int>(keep_features.size())});
  for (int o = 0; o < out; ++o) {
    const float* src = w.data() + static_cast<std::size_t>(o) * w.dim(1);
    float* dst = nw.data() + static_cast<std::size_t>(o) * keep_features.size();
    for (std::size_t i = 0; i < keep_features.size(); ++i) {
      dst[i] = src[static_cast<std::size_t>(keep_features[i])];
    }
  }
  fc.set_weight(std::move(nw));
}

/// Channel keep-list -> flattened-feature keep-list ([C, H, W] layout).
std::vector<int> feature_keep(const std::vector<int>& keep_channels,
                              int spatial_multiplier) {
  std::vector<int> features;
  features.reserve(keep_channels.size() *
                   static_cast<std::size_t>(spatial_multiplier));
  for (int c : keep_channels) {
    for (int s = 0; s < spatial_multiplier; ++s) {
      features.push_back(c * spatial_multiplier + s);
    }
  }
  return features;
}

/// Slices the BatchNorm that immediately follows a conv inside its block.
void slice_following_batchnorm(Sequential& seq, int conv_index,
                               const std::vector<int>& keep) {
  for (std::size_t i = static_cast<std::size_t>(conv_index) + 1; i < seq.size();
       ++i) {
    const LayerKind kind = seq.layer(i).kind();
    if (kind == LayerKind::kBatchNorm) {
      static_cast<BatchNorm&>(seq.layer(i)).slice_channels(keep);
      return;
    }
    if (kind == LayerKind::kConv || kind == LayerKind::kLinear) return;
  }
}

/// A consumer of a produced channel set: the compute layer that reads it.
/// feature_multiplier: flattened features per input channel (1 for conv,
/// spatial^2 for fc after flatten) — used for input-slice surgery.
/// width_multiplier: matrix-width elements per input channel (k^2 for conv,
/// spatial^2 for fc) — used for the SIMD divisibility constraint, since
/// FINN's SIMD divides the full matrix width.
struct Consumer {
  std::size_t site_index;
  int feature_multiplier;
  int width_multiplier;
};

}  // namespace

PruneReport prune_model(BranchyModel& model, const PruneOptions& options,
                        ModelWalk* walk_out) {
  ADAPEX_CHECK(options.rate >= 0.0 && options.rate < 1.0,
               "pruning rate must be in [0, 1)");
  auto sites =
      walk_compute_layers(model, options.in_channels, options.image_size);
  validate_folding(sites, options.folding);

  // Consumers of each site's output, resolved on the unpruned geometry.
  // Walk order guarantees backbone sites are contiguous and in dataflow
  // order, followed by exit sites grouped per exit.
  std::vector<std::vector<Consumer>> consumers(sites.size());
  auto make_consumer = [&](std::size_t producer, std::size_t consumer) {
    ADAPEX_ASSERT(sites[consumer].in_channels %
                      sites[producer].out_channels ==
                  0);
    const int feat =
        sites[consumer].in_channels / sites[producer].out_channels;
    const int width = sites[consumer].is_conv
                          ? sites[consumer].kernel * sites[consumer].kernel
                          : feat;
    return Consumer{consumer, feat, width};
  };
  for (std::size_t i = 0; i + 1 < sites.size(); ++i) {
    const bool same_backbone = sites[i].loc == SiteLoc::kBackbone &&
                               sites[i + 1].loc == SiteLoc::kBackbone;
    const bool same_exit = sites[i].loc == SiteLoc::kExit &&
                           sites[i + 1].loc == SiteLoc::kExit &&
                           sites[i].group == sites[i + 1].group;
    if (same_backbone || same_exit) {
      consumers[i].push_back(make_consumer(i, i + 1));
    }
  }
  // Exit heads consume the output of the last conv of the block they tap.
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    const int block = model.exit(e).after_block;
    // Producer: last conv site in backbone group `block`.
    std::size_t producer = sites.size();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (sites[i].loc == SiteLoc::kBackbone && sites[i].group == block &&
          sites[i].is_conv) {
        producer = i;
      }
    }
    ADAPEX_CHECK(producer < sites.size(),
                 "exit taps a block with no conv layer");
    // Consumer: first compute site of exit e.
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (sites[i].loc == SiteLoc::kExit &&
          sites[i].group == static_cast<int>(e)) {
        consumers[producer].push_back(make_consumer(producer, i));
        break;
      }
    }
  }

  PruneReport report;
  report.requested_rate = options.rate;
  long total_original = 0, total_removed = 0;

  for (std::size_t i = 0; i < sites.size(); ++i) {
    auto& site = sites[i];
    if (!site.is_conv) continue;
    if (site.loc == SiteLoc::kExit && !options.prune_exits) continue;
    if (!options.only_layer.empty() && site.name != options.only_layer) {
      continue;
    }

    auto& conv = static_cast<QuantConv2d&>(*site.layer);
    const int n = conv.out_channels();
    const int pe = options.folding.folds[i].pe;
    int r = static_cast<int>(std::lround(options.rate * n));
    const int r_target = r;
    // Decrease r until every divisibility constraint holds and at least PE
    // filters survive.
    auto feasible = [&](int removed) {
      const int remaining = n - removed;
      if (remaining < pe || remaining < 1) return false;
      if (remaining % pe != 0) return false;
      for (const Consumer& c : consumers[i]) {
        const int simd = options.folding.folds[c.site_index].simd;
        if ((remaining * c.width_multiplier) % simd != 0) return false;
      }
      return true;
    };
    if (options.ignore_dataflow_constraints) {
      // Naive pruning (ablation): take the target, only keeping >= 1 filter.
      r = std::min(r_target, n - 1);
    } else {
      while (r > 0 && !feasible(r)) --r;
      if (!feasible(r)) r = 0;  // r == 0 must be feasible; keep layer intact.
    }

    PrunedLayer entry;
    entry.name = site.name;
    entry.original_filters = n;
    entry.removed = r;
    entry.remaining = n - r;
    entry.constrained = r != r_target;
    report.layers.push_back(entry);
    total_original += n;
    total_removed += r;
    if (r == 0) continue;

    const std::vector<int> removed = lowest_l1_filters(conv, r);
    const std::vector<int> keep = keep_from_removed(n, removed);
    slice_conv_out(conv, keep);
    slice_following_batchnorm(*site.container, site.layer_index, keep);
    for (const Consumer& c : consumers[i]) {
      auto& dst = sites[c.site_index];
      if (dst.is_conv) {
        slice_conv_in(static_cast<QuantConv2d&>(*dst.layer), keep);
      } else {
        slice_fc_in(static_cast<QuantLinear&>(*dst.layer),
                    feature_keep(keep, c.feature_multiplier));
      }
    }
  }

  report.achieved_rate =
      total_original > 0
          ? static_cast<double>(total_removed) / static_cast<double>(total_original)
          : 0.0;

  // The dataflow-aware guarantee: the user's folding must still validate
  // against the pruned model. Skipped in the naive-pruning ablation, whose
  // entire point is that this validation would fail.
  if (options.ignore_dataflow_constraints && walk_out == nullptr) {
    return report;
  }
  ModelWalk walk = walk_model(model, options.in_channels, options.image_size);
  if (!options.ignore_dataflow_constraints) {
    walk.findings.throw_if_errors();
    validate_folding(walk.sites, options.folding);
  }
  if (walk_out != nullptr) *walk_out = std::move(walk);
  return report;
}

}  // namespace adapex
