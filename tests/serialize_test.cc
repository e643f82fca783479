#include "nn/serialize.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "nn/architectures.h"

namespace newsdiff::nn {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(SerializeTest, SaveLoadRoundTripPreservesOutputs) {
  MlpConfig cfg;
  cfg.input_size = 6;
  cfg.hidden_sizes = {8};
  cfg.seed = 3;
  Model model = BuildMlp(cfg);
  Rng rng(4);
  la::Matrix x = la::Matrix::Random(4, 6, -1.0, 1.0, rng);
  la::Matrix before = model.Forward(x);

  std::string path = TempPath("newsdiff_model_test.txt");
  ASSERT_TRUE(SaveWeights(model, path).ok());

  MlpConfig other = cfg;
  other.seed = 999;  // different init
  Model restored = BuildMlp(other);
  ASSERT_TRUE(LoadWeights(restored, path).ok());
  la::Matrix after = restored.Forward(x);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-12);
  }
  fs::remove(path);
}

TEST(SerializeTest, CnnRoundTrip) {
  CnnConfig cfg;
  cfg.input_size = 20;
  cfg.filters = 3;
  cfg.kernel_size = 4;
  cfg.pool_size = 2;
  cfg.dense_size = 6;
  Model model = BuildCnn(cfg);
  std::string path = TempPath("newsdiff_cnn_test.txt");
  ASSERT_TRUE(SaveWeights(model, path).ok());
  Model restored = BuildCnn(cfg);
  ASSERT_TRUE(LoadWeights(restored, path).ok());
  Rng rng(5);
  la::Matrix x = la::Matrix::Random(2, 20, -1.0, 1.0, rng);
  la::Matrix a = model.Forward(x);
  la::Matrix b = restored.Forward(x);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-12);
  }
  fs::remove(path);
}

TEST(SerializeTest, ArchitectureMismatchRejected) {
  MlpConfig small;
  small.input_size = 6;
  small.hidden_sizes = {8};
  Model model = BuildMlp(small);
  std::string path = TempPath("newsdiff_mismatch_test.txt");
  ASSERT_TRUE(SaveWeights(model, path).ok());

  MlpConfig bigger = small;
  bigger.hidden_sizes = {16};
  Model other = BuildMlp(bigger);
  Status s = LoadWeights(other, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  MlpConfig deeper = small;
  deeper.hidden_sizes = {8, 8};
  Model third = BuildMlp(deeper);
  EXPECT_FALSE(LoadWeights(third, path).ok());
  fs::remove(path);
}

TEST(SerializeTest, MalformedFilesRejected) {
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {4};
  Model model = BuildMlp(cfg);
  std::string path = TempPath("newsdiff_bad_model.txt");
  {
    std::ofstream out(path);
    out << "not-a-model 1\n";
  }
  EXPECT_FALSE(LoadWeights(model, path).ok());
  {
    std::ofstream out(path);
    out << "newsdiff-model 99\n4\n";
  }
  EXPECT_FALSE(LoadWeights(model, path).ok());
  {
    std::ofstream out(path);
    out << "newsdiff-model 1\n4\ndense.w 4 4\n1 2 3\n";  // truncated
  }
  EXPECT_FALSE(LoadWeights(model, path).ok());
  EXPECT_FALSE(LoadWeights(model, "/no/such/dir/model.txt").ok());
  EXPECT_FALSE(SaveWeights(model, "/no/such/dir/model.txt").ok());
  fs::remove(path);
}

TEST(SerializeTest, OnlyVersionTwoWithItsTrailerLoads) {
  // A version-1 file (the same layout without the crc trailer) is no
  // longer read: nothing writes it, and it cannot be checked.
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {4};
  Model model = BuildMlp(cfg);
  std::string path = TempPath("newsdiff_v1_model.txt");
  ASSERT_TRUE(SaveWeights(model, path).ok());
  std::string v2;
  {
    std::ifstream in(path, std::ios::binary);
    v2.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(v2.rfind("newsdiff-model 2\n", 0), 0u);
  const std::string v1 =
      "newsdiff-model 1\n" +
      v2.substr(v2.find('\n') + 1, v2.rfind("crc ") - v2.find('\n') - 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << v1;
  }
  EXPECT_FALSE(LoadWeights(model, path).ok());
  fs::remove(path);
}

TEST(SerializeTest, CheckpointResumeContinuesTraining) {
  // Train a bit, checkpoint, reload, continue: loss keeps going down from
  // where it stopped (the paper's §4.9 incremental-training pattern).
  Rng rng(6);
  la::Matrix x = la::Matrix::Random(60, 6, -1.0, 1.0, rng);
  std::vector<int> y(60);
  for (size_t i = 0; i < 60; ++i) {
    y[i] = x(i, 0) + x(i, 1) > 0.0 ? 1 : 0;
  }
  MlpConfig cfg;
  cfg.input_size = 6;
  cfg.hidden_sizes = {8};
  cfg.num_classes = 2;
  Model model = BuildMlp(cfg);
  Sgd sgd({0.2, 0.0});
  FitOptions fit;
  fit.epochs = 10;
  fit.batch_size = 20;
  fit.early_stopping.enabled = false;
  auto first = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(first.ok());
  double loss_after_first = first->train_loss.back();

  std::string path = TempPath("newsdiff_resume_test.txt");
  ASSERT_TRUE(SaveWeights(model, path).ok());
  Model resumed = BuildMlp(cfg);
  ASSERT_TRUE(LoadWeights(resumed, path).ok());
  Sgd sgd2({0.2, 0.0});
  auto second = resumed.Fit(x, y, sgd2, fit);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->train_loss.back(), loss_after_first + 0.05);
  fs::remove(path);
}

}  // namespace
}  // namespace newsdiff::nn
