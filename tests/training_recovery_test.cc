// Self-healing training: divergence rollback with learning-rate backoff,
// checksummed atomic training checkpoints, and deterministic resume that
// reproduces an uninterrupted run bit-for-bit.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "datagen/faults.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/serialize.h"

namespace newsdiff::nn {
namespace {

namespace fs = std::filesystem;

void MakeBlobs(size_t per_class, size_t classes, size_t dim, uint64_t seed,
               la::Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->Resize(per_class * classes, dim);
  y->assign(per_class * classes, 0);
  size_t row = 0;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      double* out = x->RowPtr(row);
      for (size_t d = 0; d < dim; ++d) {
        double center = (d % classes == c) ? 3.0 : 0.0;
        out[d] = rng.Gaussian(center, 0.5);
      }
      (*y)[row] = static_cast<int>(c);
      ++row;
    }
  }
}

Model MakeModel(uint64_t seed = 5) {
  Rng rng(seed);
  Model m(4);
  m.Add(std::make_unique<Dense>(4, 8, rng));
  m.Add(std::make_unique<Activation>(ActivationKind::kRelu));
  m.Add(std::make_unique<Dense>(8, 2, rng));
  return m;
}

std::vector<double> FlattenParams(Model& m) {
  std::vector<double> out;
  for (const Param& p : m.Parameters()) {
    out.insert(out.end(), p.value->data().begin(), p.value->data().end());
  }
  return out;
}

bool AllFinite(Model& m) {
  for (const Param& p : m.Parameters()) {
    for (double v : p.value->data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

class TrainingRecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_training_recovery_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    MakeBlobs(40, 2, 4, 21, &x_, &y_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ckpt() const { return (dir_ / "train.ckpt").string(); }

  FitOptions BaseFit() const {
    FitOptions fit;
    fit.epochs = 6;
    fit.batch_size = 16;
    fit.seed = 77;
    fit.early_stopping.enabled = false;
    fit.recovery.enabled = true;
    return fit;
  }

  fs::path dir_;
  la::Matrix x_;
  std::vector<int> y_;
};

TEST_F(TrainingRecoveryFixture, InjectedNanEpochRolledBackAndHealed) {
  Model model = MakeModel();
  Sgd sgd({0.1, 0.0});
  FitOptions fit = BaseFit();
  bool injected = false;
  fit.recovery.corrupt_epoch_hook = [&](size_t epoch) {
    if (epoch == 2 && !injected) {
      injected = true;
      return true;
    }
    return false;
  };
  StatusOr<FitHistory> h = model.Fit(x_, y_, sgd, fit);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_TRUE(injected);
  EXPECT_EQ(h->rollbacks, 1u);
  EXPECT_DOUBLE_EQ(h->final_lr_scale, 0.5);
  EXPECT_EQ(h->epochs_run, fit.epochs);
  for (double loss : h->train_loss) EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(AllFinite(model))
      << "NaN poisoning leaked into the final weights";
}

TEST_F(TrainingRecoveryFixture, ExplodingLossBackedOffUntilTrainable) {
  Model model = MakeModel();
  // Absurd step size with momentum and no clipping: the first attempts blow
  // the loss past the explosion threshold (or to inf outright) until the
  // backoff has halved the rate into finite territory.
  Sgd sgd({1e6, 0.9});
  FitOptions fit = BaseFit();
  fit.clip_norm = 0.0;
  fit.recovery.explode_factor = 2.0;
  fit.recovery.max_rollbacks = 40;
  StatusOr<FitHistory> h = model.Fit(x_, y_, sgd, fit);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_GT(h->rollbacks, 0u);
  EXPECT_LT(h->final_lr_scale, 1.0);
  EXPECT_EQ(h->epochs_run, fit.epochs);
  ASSERT_FALSE(h->train_loss.empty());
  for (double loss : h->train_loss) EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(AllFinite(model));
}

TEST_F(TrainingRecoveryFixture, UnhealableDivergenceGivesUpWithError) {
  Model model = MakeModel();
  Sgd sgd({0.1, 0.0});
  FitOptions fit = BaseFit();
  fit.recovery.max_rollbacks = 3;
  fit.recovery.corrupt_epoch_hook = [](size_t) { return true; };  // always
  StatusOr<FitHistory> h = model.Fit(x_, y_, sgd, fit);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInternal);
}

TEST_F(TrainingRecoveryFixture, ResumeReproducesUninterruptedRunExactly) {
  FitOptions fit = BaseFit();
  fit.epochs = 8;

  // Uninterrupted reference run. ADADELTA keeps two state slots per
  // parameter, so a resume that dropped the optimizer state would diverge.
  Model reference = MakeModel();
  Adadelta ref_opt(AdadeltaOptions{});
  StatusOr<FitHistory> ref = reference.Fit(x_, y_, ref_opt, fit);
  ASSERT_TRUE(ref.ok());

  // Interrupted run: 4 epochs, checkpointing each one, then the process
  // "dies" (the Model object is discarded).
  {
    Model first_half = MakeModel();
    Adadelta opt(AdadeltaOptions{});
    FitOptions half = fit;
    half.epochs = 4;
    half.recovery.checkpoint_path = ckpt();
    StatusOr<FitHistory> h = first_half.Fit(x_, y_, opt, half);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->checkpoints_written, 4u);
  }

  // Restarted process: fresh model + fresh optimizer at the original
  // learning rate, resuming from the checkpoint.
  Model resumed = MakeModel();
  Adadelta res_opt(AdadeltaOptions{});
  FitOptions resume = fit;
  resume.recovery.checkpoint_path = ckpt();
  resume.recovery.resume = true;
  StatusOr<FitHistory> h = resumed.Fit(x_, y_, res_opt, resume);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->resumed_from_epoch, 4u);
  EXPECT_EQ(h->epochs_run, 8u);

  std::vector<double> want = FlattenParams(reference);
  std::vector<double> got = FlattenParams(resumed);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "weight " << i << " differs after resume";
  }
}

TEST_F(TrainingRecoveryFixture, CheckpointEveryNWritesExpectedCount) {
  Model model = MakeModel();
  Sgd sgd({0.1, 0.0});
  FitOptions fit = BaseFit();
  fit.epochs = 5;
  fit.recovery.checkpoint_path = ckpt();
  fit.recovery.checkpoint_every = 2;
  StatusOr<FitHistory> h = model.Fit(x_, y_, sgd, fit);
  ASSERT_TRUE(h.ok());
  // Epochs 2 and 4, plus the final epoch regardless of cadence.
  EXPECT_EQ(h->checkpoints_written, 3u);
  EXPECT_TRUE(fs::exists(ckpt()));
  EXPECT_FALSE(fs::exists(ckpt() + ".tmp")) << "temp file leaked";
}

TEST_F(TrainingRecoveryFixture, DamagedCheckpointIgnoredTrainsFromScratch) {
  {
    Model model = MakeModel();
    Sgd sgd({0.1, 0.0});
    FitOptions fit = BaseFit();
    fit.recovery.checkpoint_path = ckpt();
    ASSERT_TRUE(model.Fit(x_, y_, sgd, fit).ok());
  }
  // Truncate the checkpoint: the CRC trailer must reject it.
  std::string bytes;
  {
    std::ifstream in(ckpt(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(ckpt(), std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }

  Model model = MakeModel();
  Sgd sgd({0.1, 0.0});
  FitOptions fit = BaseFit();
  fit.recovery.checkpoint_path = ckpt();
  fit.recovery.resume = true;
  StatusOr<FitHistory> h = model.Fit(x_, y_, sgd, fit);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->resumed_from_epoch, 0u) << "damaged checkpoint was trusted";
  EXPECT_EQ(h->epochs_run, fit.epochs);
}

TEST_F(TrainingRecoveryFixture, TruncatedOrFlippedWeightsFileRejected) {
  const std::string path = (dir_ / "weights.txt").string();
  Model model = MakeModel();
  ASSERT_TRUE(SaveWeights(model, path).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - bytes.size() / 3);
  }
  Model reload1 = MakeModel();
  Status truncated = LoadWeights(reload1, path);
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), StatusCode::kParseError);

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x08;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  Model reload2 = MakeModel();
  Status damaged = LoadWeights(reload2, path);
  EXPECT_FALSE(damaged.ok());
  EXPECT_NE(damaged.message().find("checksum"), std::string::npos)
      << damaged.ToString();

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Model reload3 = MakeModel();
  EXPECT_TRUE(LoadWeights(reload3, path).ok());
}

TEST_F(TrainingRecoveryFixture, SaveWeightsRenameFailureLeavesOldFileIntact) {
  const std::string path = (dir_ / "weights.txt").string();
  Model original = MakeModel(5);
  ASSERT_TRUE(SaveWeights(original, path).ok());
  std::vector<double> want = FlattenParams(original);

  Model replacement = MakeModel(99);
  datagen::StorageFaultOptions fopts;
  fopts.rename_failure_rate = 1.0;
  datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
  EXPECT_FALSE(SaveWeights(replacement, path, &faulty).ok());

  // The interrupted save never touched the committed file.
  Model reloaded = MakeModel(5);
  ASSERT_TRUE(LoadWeights(reloaded, path).ok());
  std::vector<double> got = FlattenParams(reloaded);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

}  // namespace
}  // namespace newsdiff::nn
