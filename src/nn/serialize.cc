#include "nn/serialize.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/crc32.h"

namespace newsdiff::nn {

namespace {
constexpr const char* kModelMagic = "newsdiff-model";
constexpr int kModelVersion = 2;
constexpr const char* kTrainMagic = "newsdiff-train";
constexpr int kTrainVersion = 1;

FileIo& Io(FileIo* io) { return io != nullptr ? *io : DefaultFileIo(); }

void AppendMatrix(const la::Matrix& m, std::string* out) {
  char buf[40];
  const auto& data = m.data();
  for (size_t i = 0; i < data.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", data[i]);
    *out += buf;
    *out += (i + 1) % 8 == 0 || i + 1 == data.size() ? '\n' : ' ';
  }
}

/// The parameter section shared by the weights file and the training
/// checkpoint: count, then per-parameter header + row-major values.
std::string ModelBody(Model& model) {
  std::vector<Param> params = model.Parameters();
  std::string body = std::to_string(params.size()) + "\n";
  for (const Param& p : params) {
    body += p.name + " " + std::to_string(p.value->rows()) + " " +
            std::to_string(p.value->cols()) + "\n";
    AppendMatrix(*p.value, &body);
  }
  return body;
}

Status ReadModelBody(Model& model, std::istream& in, const std::string& path) {
  size_t count = 0;
  if (!(in >> count)) return Status::ParseError("missing parameter count");
  std::vector<Param> params = model.Parameters();
  if (count != params.size()) {
    return Status::FailedPrecondition(
        "architecture mismatch: file has " + std::to_string(count) +
        " parameters, model has " + std::to_string(params.size()));
  }
  for (Param& p : params) {
    std::string name;
    size_t rows = 0, cols = 0;
    if (!(in >> name >> rows >> cols)) {
      return Status::ParseError("truncated parameter header in " + path);
    }
    if (name != p.name || rows != p.value->rows() ||
        cols != p.value->cols()) {
      return Status::FailedPrecondition(
          "parameter mismatch: expected " + p.name + " " +
          std::to_string(p.value->rows()) + "x" +
          std::to_string(p.value->cols()) + ", file has " + name + " " +
          std::to_string(rows) + "x" + std::to_string(cols));
    }
    for (double& v : p.value->data()) {
      if (!(in >> v)) {
        return Status::ParseError("truncated parameter data in " + path);
      }
    }
  }
  return Status::OK();
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

Status SaveWeights(Model& model, const std::string& path, FileIo* io) {
  std::string payload = std::string(kModelMagic) + " " +
                        std::to_string(kModelVersion) + "\n" +
                        ModelBody(model);
  return WriteFileAtomic(Io(io), path, WithTrailer(std::move(payload)));
}

Status LoadWeights(Model& model, const std::string& path, FileIo* io) {
  StatusOr<std::string> contents = Io(io).ReadFile(path);
  if (!contents.ok()) return contents.status();
  StatusOr<std::string> payload = CheckTrailer(*contents, path);
  if (!payload.ok()) return payload.status();

  std::istringstream in(*payload);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kModelMagic) {
    return Status::ParseError("not a newsdiff model file: " + path);
  }
  if (version != kModelVersion) {
    return Status::ParseError("unsupported model version " +
                              std::to_string(version));
  }
  return ReadModelBody(model, in, path);
}

Status SaveTrainingCheckpoint(Model& model, Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path, FileIo* io) {
  std::string payload = std::string(kTrainMagic) + " " +
                        std::to_string(kTrainVersion) + "\n";
  payload += ModelBody(model);

  payload += "rng";
  for (uint64_t word : state.rng.s) payload += " " + std::to_string(word);
  payload += " " + std::to_string(state.rng.has_cached_gaussian ? 1 : 0) +
             " " + std::to_string(DoubleBits(state.rng.cached_gaussian)) +
             "\n";
  payload += "fit " + std::to_string(state.epochs_done) + " " +
             std::to_string(DoubleBits(state.best_loss)) + " " +
             std::to_string(state.have_best ? 1 : 0) + " " +
             std::to_string(state.epochs_without_improvement) + " " +
             std::to_string(DoubleBits(state.lr_scale)) + " " +
             std::to_string(state.rollbacks) + "\n";

  std::vector<la::Matrix> opt_state = optimizer.ExportState(model.Parameters());
  payload += "optstate " + std::to_string(opt_state.size()) + "\n";
  for (const la::Matrix& m : opt_state) {
    payload += std::to_string(m.rows()) + " " + std::to_string(m.cols()) +
               "\n";
    AppendMatrix(m, &payload);
  }
  return WriteFileAtomic(Io(io), path, WithTrailer(std::move(payload)));
}

StatusOr<TrainingState> LoadTrainingCheckpoint(Model& model,
                                               Optimizer& optimizer,
                                               const std::string& path,
                                               FileIo* io) {
  StatusOr<std::string> contents = Io(io).ReadFile(path);
  if (!contents.ok()) return contents.status();
  StatusOr<std::string> payload = CheckTrailer(*contents, path);
  if (!payload.ok()) return payload.status();

  std::istringstream in(*payload);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kTrainMagic) {
    return Status::ParseError("not a training checkpoint: " + path);
  }
  if (version != kTrainVersion) {
    return Status::ParseError("unsupported checkpoint version " +
                              std::to_string(version));
  }
  NEWSDIFF_RETURN_IF_ERROR(ReadModelBody(model, in, path));

  TrainingState state;
  std::string tag;
  uint64_t has_cached = 0, cached_bits = 0;
  if (!(in >> tag) || tag != "rng") {
    return Status::ParseError("missing rng section in " + path);
  }
  for (uint64_t& word : state.rng.s) {
    if (!(in >> word)) return Status::ParseError("truncated rng state");
  }
  if (!(in >> has_cached >> cached_bits)) {
    return Status::ParseError("truncated rng state");
  }
  state.rng.has_cached_gaussian = has_cached != 0;
  state.rng.cached_gaussian = BitsToDouble(cached_bits);

  uint64_t best_bits = 0, have_best = 0, scale_bits = 0;
  if (!(in >> tag) || tag != "fit" || !(in >> state.epochs_done) ||
      !(in >> best_bits >> have_best >> state.epochs_without_improvement) ||
      !(in >> scale_bits >> state.rollbacks)) {
    return Status::ParseError("truncated fit section in " + path);
  }
  state.best_loss = BitsToDouble(best_bits);
  state.have_best = have_best != 0;
  state.lr_scale = BitsToDouble(scale_bits);

  size_t opt_count = 0;
  if (!(in >> tag) || tag != "optstate" || !(in >> opt_count)) {
    return Status::ParseError("missing optimizer state in " + path);
  }
  // Bounded by the architecture check below (ImportState); this guard just
  // keeps a corrupt count from driving a huge allocation loop.
  if (opt_count > (1u << 20)) {
    return Status::ParseError("implausible optimizer state count");
  }
  state.optimizer_state.reserve(opt_count);
  for (size_t i = 0; i < opt_count; ++i) {
    size_t rows = 0, cols = 0;
    if (!(in >> rows >> cols) || rows > (1u << 24) || cols > (1u << 24)) {
      return Status::ParseError("truncated optimizer state header");
    }
    la::Matrix m(rows, cols);
    for (double& v : m.data()) {
      if (!(in >> v)) return Status::ParseError("truncated optimizer state");
    }
    state.optimizer_state.push_back(std::move(m));
  }
  NEWSDIFF_RETURN_IF_ERROR(
      optimizer.ImportState(model.Parameters(), state.optimizer_state));
  return state;
}

}  // namespace newsdiff::nn
