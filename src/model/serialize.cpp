#include "model/serialize.hpp"

#include <cstring>

#include "common/json.hpp"

namespace adapex {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'P', 'X'};
constexpr std::uint32_t kVersion = 1;

void append_tensor(std::vector<float>& blob, const Tensor& t) {
  blob.insert(blob.end(), t.data(), t.data() + t.numel());
}

/// Describes one layer and appends its state to the blob.
Json describe_layer(const Layer& layer, std::vector<float>& blob) {
  Json j = Json::object();
  switch (layer.kind()) {
    case LayerKind::kConv: {
      const auto& conv = static_cast<const QuantConv2d&>(layer);
      j["kind"] = "conv";
      j["in"] = conv.in_channels();
      j["out"] = conv.out_channels();
      j["k"] = conv.kernel();
      j["wbits"] = conv.weight_bits();
      append_tensor(blob, conv.weight().value);
      break;
    }
    case LayerKind::kLinear: {
      const auto& fc = static_cast<const QuantLinear&>(layer);
      j["kind"] = "linear";
      j["in"] = fc.in_features();
      j["out"] = fc.out_features();
      j["wbits"] = fc.weight_bits();
      append_tensor(blob, fc.weight().value);
      break;
    }
    case LayerKind::kBatchNorm: {
      const auto& bn = static_cast<const BatchNorm&>(layer);
      j["kind"] = "batchnorm";
      j["channels"] = bn.channels();
      append_tensor(blob, bn.gamma());
      append_tensor(blob, bn.beta());
      append_tensor(blob, bn.running_mean());
      append_tensor(blob, bn.running_var());
      break;
    }
    case LayerKind::kActQuant: {
      const auto& act = static_cast<const ActQuant&>(layer);
      j["kind"] = "actquant";
      j["bits"] = act.bits();
      blob.push_back(act.scale());
      break;
    }
    case LayerKind::kMaxPool: {
      const auto& pool = static_cast<const MaxPool2d&>(layer);
      j["kind"] = "maxpool";
      j["k"] = pool.kernel();
      j["stride"] = pool.stride();
      break;
    }
    case LayerKind::kFlatten:
      j["kind"] = "flatten";
      break;
  }
  return j;
}

Json describe_sequential(const Sequential& seq, std::vector<float>& blob) {
  Json layers = Json::array();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    layers.push_back(describe_layer(seq.layer(i), blob));
  }
  return layers;
}

/// Reads `count` floats from the blob cursor.
Tensor read_tensor(const float*& cursor, const float* end,
                   std::vector<int> shape) {
  const std::size_t count = Tensor::numel_of(shape);
  ADAPEX_CHECK(cursor + count <= end, "model blob truncated");
  Tensor t(std::move(shape),
           std::vector<float>(cursor, cursor + count));
  cursor += count;
  return t;
}

std::unique_ptr<Layer> rebuild_layer(const Json& j, const float*& cursor,
                                     const float* end) {
  const std::string kind = j.at("kind").as_string();
  Rng dummy(0);
  if (kind == "conv") {
    const int in = j.at("in").as_int<int>();
    const int out = j.at("out").as_int<int>();
    const int k = j.at("k").as_int<int>();
    auto conv = std::make_unique<QuantConv2d>(
        in, out, k, j.at("wbits").as_int<int>(), dummy);
    conv->set_weight(read_tensor(cursor, end, {out, in, k, k}));
    return conv;
  }
  if (kind == "linear") {
    const int in = j.at("in").as_int<int>();
    const int out = j.at("out").as_int<int>();
    auto fc = std::make_unique<QuantLinear>(
        in, out, j.at("wbits").as_int<int>(), dummy);
    fc->set_weight(read_tensor(cursor, end, {out, in}));
    return fc;
  }
  if (kind == "batchnorm") {
    const int ch = j.at("channels").as_int<int>();
    auto bn = std::make_unique<BatchNorm>(ch);
    Tensor gamma = read_tensor(cursor, end, {ch});
    Tensor beta = read_tensor(cursor, end, {ch});
    Tensor mean = read_tensor(cursor, end, {ch});
    Tensor var = read_tensor(cursor, end, {ch});
    bn->set_state(std::move(gamma), std::move(beta), std::move(mean),
                  std::move(var));
    return bn;
  }
  if (kind == "actquant") {
    auto act =
        std::make_unique<ActQuant>(j.at("bits").as_int<int>());
    ADAPEX_CHECK(cursor < end, "model blob truncated");
    act->set_scale(*cursor++);
    return act;
  }
  if (kind == "maxpool") {
    return std::make_unique<MaxPool2d>(
        j.at("k").as_int<int>(),
        j.at("stride").as_int<int>());
  }
  if (kind == "flatten") {
    return std::make_unique<Flatten>();
  }
  throw ParseError("unknown layer kind in model file: " + kind);
}

std::unique_ptr<Sequential> rebuild_sequential(const Json& layers,
                                               const float*& cursor,
                                               const float* end) {
  auto seq = std::make_unique<Sequential>();
  for (const auto& j : layers.as_array()) {
    seq->append(rebuild_layer(j, cursor, end));
  }
  return seq;
}

}  // namespace

std::string serialize_model(const BranchyModel& model) {
  std::vector<float> blob;
  Json header = Json::object();
  Json blocks = Json::array();
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    blocks.push_back(describe_sequential(model.block(b), blob));
  }
  header["blocks"] = std::move(blocks);
  Json exits = Json::array();
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    Json exit = Json::object();
    exit["after_block"] = model.exit(e).after_block;
    exit["head"] = describe_sequential(*model.exit(e).head, blob);
    exits.push_back(std::move(exit));
  }
  header["exits"] = std::move(exits);
  header["blob_floats"] = blob.size();

  const std::string header_text = header.dump();
  std::string out;
  out.append(kMagic, 4);
  std::uint32_t version = kVersion;
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  std::uint64_t header_len = header_text.size();
  out.append(reinterpret_cast<const char*>(&header_len), sizeof(header_len));
  out.append(header_text);
  out.append(reinterpret_cast<const char*>(blob.data()),
             blob.size() * sizeof(float));
  return out;
}

BranchyModel deserialize_model(const std::string& bytes) {
  constexpr std::size_t kPrefix = 4 + sizeof(std::uint32_t) + sizeof(std::uint64_t);
  ADAPEX_CHECK(bytes.size() >= kPrefix, "model file too short");
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw ParseError("not an AdaPEx model file (bad magic)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kVersion) {
    throw ParseError("unsupported model file version " +
                     std::to_string(version));
  }
  std::uint64_t header_len = 0;
  std::memcpy(&header_len, bytes.data() + 8, sizeof(header_len));
  ADAPEX_CHECK(bytes.size() >= kPrefix + header_len, "model header truncated");
  const Json header =
      Json::parse(bytes.substr(kPrefix, static_cast<std::size_t>(header_len)));

  const std::size_t blob_bytes = bytes.size() - kPrefix -
                                 static_cast<std::size_t>(header_len);
  ADAPEX_CHECK(blob_bytes % sizeof(float) == 0, "model blob misaligned");
  const std::size_t blob_floats = blob_bytes / sizeof(float);
  ADAPEX_CHECK(blob_floats ==
                   header.at("blob_floats").as_int<std::size_t>(),
               "model blob size mismatch");
  std::vector<float> blob(blob_floats);
  std::memcpy(blob.data(),
              bytes.data() + kPrefix + static_cast<std::size_t>(header_len),
              blob_bytes);

  const float* cursor = blob.data();
  const float* end = blob.data() + blob.size();
  BranchyModel model;
  for (const auto& block : header.at("blocks").as_array()) {
    model.add_block(rebuild_sequential(block, cursor, end));
  }
  for (const auto& exit : header.at("exits").as_array()) {
    model.add_exit(exit.at("after_block").as_int<int>(),
                   rebuild_sequential(exit.at("head"), cursor, end));
  }
  ADAPEX_CHECK(cursor == end, "model blob has trailing data");
  return model;
}

void save_model(const BranchyModel& model, const std::string& path) {
  write_file(path, serialize_model(model));
}

BranchyModel load_model(const std::string& path) {
  return deserialize_model(read_file(path));
}

}  // namespace adapex
