#include "nn/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/time.h"
#include "la/vector_ops.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace newsdiff::nn {

Model& Model::Add(std::unique_ptr<Layer> layer) {
  size_t in = layers_.empty() ? input_size_ : output_size_;
  output_size_ = layer->OutputSize(in);
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::SetParallelism(const Parallelism& par) {
  for (auto& layer : layers_) layer->set_parallelism(par);
}

void Model::BindInferenceCache(la::PackedWeightCache* cache,
                               uint64_t version) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->BindInferenceCache(InferenceCacheBinding{cache, i, version});
  }
}

size_t Model::ParameterCount() {
  size_t n = 0;
  for (const Param& p : AllParams()) n += p.value->size();
  return n;
}

la::Matrix Model::Forward(const la::Matrix& x, bool training) {
  if (layers_.empty()) return x;
  // The first layer reads `x` directly — the h = x copy the old loop paid
  // existed only to unify the iteration. Later shape-preserving layers
  // (activations, inference dropout) transform h in place when not
  // training; ForwardInPlace is bitwise-identical to Forward by contract.
  la::Matrix h = layers_.front()->Forward(x, training);
  for (size_t i = 1; i < layers_.size(); ++i) {
    if (!training && layers_[i]->ForwardInPlace(&h)) continue;
    h = layers_[i]->Forward(h, training);
  }
  return h;
}

la::Matrix Model::PredictProba(const la::Matrix& x) {
  la::Matrix probs = Forward(x, /*training=*/false);
  SoftmaxInPlace(&probs);
  return probs;
}

std::vector<int> Model::Predict(const la::Matrix& x) {
  return ArgmaxRows(Forward(x, /*training=*/false));
}

std::vector<Param> Model::AllParams() {
  std::vector<Param> params;
  for (auto& layer : layers_) {
    for (Param& p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::pair<double, double> Model::Evaluate(const la::Matrix& x,
                                          const std::vector<int>& labels) {
  la::Matrix logits = Forward(x, /*training=*/false);
  LossResult lr = SoftmaxCrossEntropy(logits, labels);
  std::vector<int> pred = ArgmaxRows(logits);
  return {lr.loss, Accuracy(labels, pred)};
}

StatusOr<FitHistory> Model::Fit(const la::Matrix& x,
                                const std::vector<int>& labels,
                                Optimizer& optimizer,
                                const FitOptions& options) {
  if (x.rows() != labels.size()) {
    return Status::InvalidArgument("x rows != label count");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (x.cols() != input_size_) {
    return Status::InvalidArgument("x cols != model input size");
  }
  if (layers_.empty()) {
    return Status::FailedPrecondition("model has no layers");
  }
  for (int label : labels) {
    if (label < 0 || static_cast<size_t>(label) >= output_size_) {
      return Status::InvalidArgument("label out of range");
    }
  }
  for (auto& layer : layers_) layer->set_parallelism(options.parallelism);

  // Optional validation split: last fraction of the (pre-shuffle) data.
  size_t n = x.rows();
  size_t n_val = static_cast<size_t>(options.validation_split *
                                     static_cast<double>(n));
  size_t n_train = n - n_val;
  if (n_train == 0) {
    return Status::InvalidArgument("validation_split leaves no training data");
  }

  la::Matrix val_x;
  std::vector<int> val_y;
  if (n_val > 0) {
    val_x.Resize(n_val, x.cols());
    val_y.resize(n_val);
    for (size_t i = 0; i < n_val; ++i) {
      std::copy(x.RowPtr(n_train + i), x.RowPtr(n_train + i) + x.cols(),
                val_x.RowPtr(i));
      val_y[i] = labels[n_train + i];
    }
  }

  Rng rng(options.seed);
  std::vector<size_t> order(n_train);

  FitHistory history;
  WallTimer total_timer;
  double best_loss = 0.0;
  bool have_best = false;
  size_t epochs_without_improvement = 0;

  const RecoveryOptions& recovery = options.recovery;
  double lr_scale = 1.0;
  double first_good_loss = 0.0;
  bool have_first_good_loss = false;
  size_t start_epoch = 0;

  // Resume: pick the training loop back up exactly where the checkpoint
  // left it — weights, optimizer accumulators, shuffle RNG, early-stopping
  // counters, and the learning-rate backoff (the caller passes the
  // optimizer at its original rate).
  if (recovery.enabled && recovery.resume && !recovery.checkpoint_path.empty()) {
    FileIo& io = recovery.io != nullptr ? *recovery.io : DefaultFileIo();
    if (io.Exists(recovery.checkpoint_path)) {
      StatusOr<TrainingState> loaded = LoadTrainingCheckpoint(
          *this, optimizer, recovery.checkpoint_path, recovery.io);
      if (loaded.ok()) {
        start_epoch = loaded->epochs_done;
        best_loss = loaded->best_loss;
        have_best = loaded->have_best;
        epochs_without_improvement = loaded->epochs_without_improvement;
        lr_scale = loaded->lr_scale;
        history.rollbacks = loaded->rollbacks;
        if (lr_scale != 1.0) optimizer.ScaleLearningRate(lr_scale);
        rng.RestoreState(loaded->rng);
        history.resumed_from_epoch = start_epoch;
        NEWSDIFF_LOG(Info) << "fit: resumed from "
                           << recovery.checkpoint_path << " at epoch "
                           << start_epoch;
      } else {
        NEWSDIFF_LOG(Warning)
            << "fit: ignoring damaged checkpoint "
            << recovery.checkpoint_path << ": " << loaded.status().message();
      }
    }
  }

  // The rollback snapshot: last good epoch's full state (initially the
  // starting state). Cheap relative to an epoch of matmuls.
  std::vector<Param> all_params = AllParams();
  std::vector<la::Matrix> good_weights;
  std::vector<la::Matrix> good_opt_state;
  Rng::State good_rng;
  auto take_snapshot = [&]() {
    good_weights.clear();
    for (const Param& p : all_params) good_weights.push_back(*p.value);
    good_opt_state = optimizer.ExportState(all_params);
    good_rng = rng.SaveState();
  };
  auto restore_snapshot = [&]() {
    for (size_t i = 0; i < all_params.size(); ++i) {
      *all_params[i].value = good_weights[i];
    }
    optimizer.ImportState(all_params, good_opt_state);
    rng.RestoreState(good_rng);
  };
  auto params_finite = [&]() {
    for (const Param& p : all_params) {
      for (double v : p.value->data()) {
        if (!std::isfinite(v)) return false;
      }
    }
    return true;
  };
  if (recovery.enabled) take_snapshot();

  auto persist_checkpoint = [&](size_t epochs_done) {
    if (!recovery.enabled || recovery.checkpoint_path.empty()) return;
    size_t every = std::max<size_t>(1, recovery.checkpoint_every);
    if (epochs_done % every != 0 && epochs_done != options.epochs) return;
    TrainingState state;
    state.epochs_done = epochs_done;
    state.best_loss = best_loss;
    state.have_best = have_best;
    state.epochs_without_improvement = epochs_without_improvement;
    state.lr_scale = lr_scale;
    state.rollbacks = history.rollbacks;
    state.rng = rng.SaveState();
    Status saved = SaveTrainingCheckpoint(*this, optimizer, state,
                                          recovery.checkpoint_path,
                                          recovery.io);
    if (saved.ok()) {
      ++history.checkpoints_written;
    } else {
      // Training outlives a sick checkpoint disk; rollback still works
      // from the in-memory snapshot.
      NEWSDIFF_LOG(Warning) << "fit: checkpoint failed: " << saved.message();
    }
  };

  const size_t batch = std::max<size_t>(1, options.batch_size);
  la::Matrix bx;
  std::vector<int> by;

  size_t epoch = start_epoch;
  while (epoch < options.epochs) {
    WallTimer epoch_timer;
    // Derive the epoch's order from the identity so a restored RNG state
    // is all that rollback/resume needs to reproduce the shuffle.
    std::iota(order.begin(), order.end(), 0);
    if (options.shuffle) rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t correct = 0;
    bool batch_loss_nonfinite = false;

    for (size_t start = 0; start < n_train; start += batch) {
      size_t sz = std::min(batch, n_train - start);
      bx.Resize(sz, x.cols());
      by.resize(sz);
      for (size_t i = 0; i < sz; ++i) {
        size_t src = order[start + i];
        std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(), bx.RowPtr(i));
        by[i] = labels[src];
      }
      la::Matrix logits = Forward(bx, /*training=*/true);
      LossResult lr = SoftmaxCrossEntropy(logits, by);
      epoch_loss += lr.loss * static_cast<double>(sz);
      std::vector<int> pred = ArgmaxRows(logits);
      for (size_t i = 0; i < sz; ++i) {
        if (pred[i] == by[i]) ++correct;
      }
      if (recovery.enabled && !std::isfinite(lr.loss)) {
        // The rest of the epoch can only propagate the damage; cut to the
        // rollback instead of finishing it.
        batch_loss_nonfinite = true;
        break;
      }
      la::Matrix grad = lr.grad;
      for (size_t li = layers_.size(); li-- > 0;) {
        grad = layers_[li]->Backward(grad);
      }
      std::vector<Param> params = AllParams();
      if (options.clip_norm > 0.0) {
        double sq = 0.0;
        for (const Param& p : params) {
          // DotN's init seed keeps one accumulation chain across all
          // params, matching the legacy single-loop sum bitwise.
          const double* g = p.grad->data().data();
          sq = la::DotN(g, g, p.grad->size(), sq);
        }
        double norm = std::sqrt(sq);
        if (norm > options.clip_norm) {
          double scale = options.clip_norm / norm;
          for (const Param& p : params) p.grad->Scale(scale);
        }
      }
      optimizer.Step(params);
    }

    epoch_loss /= static_cast<double>(n_train);

    if (recovery.enabled && recovery.corrupt_epoch_hook &&
        recovery.corrupt_epoch_hook(epoch)) {
      all_params[0].value->Fill(std::nan(""));
    }

    bool diverged =
        recovery.enabled &&
        (batch_loss_nonfinite || !std::isfinite(epoch_loss) ||
         (have_first_good_loss &&
          epoch_loss > recovery.explode_factor *
                           std::max(first_good_loss, 1e-12)) ||
         !params_finite());
    if (diverged) {
      ++history.rollbacks;
      if (history.rollbacks > recovery.max_rollbacks) {
        return Status::Internal(
            "training diverged: " + std::to_string(history.rollbacks - 1) +
            " rollbacks exhausted (lr scale " + std::to_string(lr_scale) +
            "); the data or architecture, not the step size, is the problem");
      }
      restore_snapshot();
      optimizer.ScaleLearningRate(recovery.lr_backoff);
      lr_scale *= recovery.lr_backoff;
      NEWSDIFF_LOG(Warning) << "fit: epoch " << (epoch + 1)
                            << " diverged; rolled back, lr scale now "
                            << lr_scale;
      continue;  // re-run the same epoch at the smaller step
    }

    double epoch_acc =
        static_cast<double>(correct) / static_cast<double>(n_train);
    history.train_loss.push_back(epoch_loss);
    history.train_accuracy.push_back(epoch_acc);
    if (n_val > 0) {
      auto [vl, va] = Evaluate(val_x, val_y);
      history.val_loss.push_back(vl);
      history.val_accuracy.push_back(va);
    }
    history.epoch_millis.push_back(epoch_timer.ElapsedMillis());
    history.epochs_run = epoch + 1;
    if (!have_first_good_loss && std::isfinite(epoch_loss)) {
      first_good_loss = epoch_loss;
      have_first_good_loss = true;
    }

    if (options.verbose_every > 0 && (epoch + 1) % options.verbose_every == 0) {
      NEWSDIFF_LOG(Info) << "epoch " << (epoch + 1) << " loss=" << epoch_loss
                         << " acc=" << epoch_acc;
    }

    bool stop = false;
    if (options.early_stopping.enabled) {
      if (!have_best ||
          best_loss - epoch_loss > options.early_stopping.min_delta) {
        best_loss = epoch_loss;
        have_best = true;
        epochs_without_improvement = 0;
      } else {
        ++epochs_without_improvement;
        if (epochs_without_improvement >= options.early_stopping.patience) {
          history.stopped_early = true;
          stop = true;
        }
      }
    } else if (!have_best) {
      best_loss = epoch_loss;
      have_best = true;
    }

    if (recovery.enabled) take_snapshot();
    ++epoch;
    persist_checkpoint(epoch);
    if (stop) break;
  }

  history.final_lr_scale = lr_scale;
  history.total_seconds = total_timer.ElapsedSeconds();
  return history;
}

std::string Model::Summary() {
  std::string out = "Model(input=" + std::to_string(input_size_) + ")\n";
  size_t in = input_size_;
  for (auto& layer : layers_) {
    size_t next = layer->OutputSize(in);
    size_t params = 0;
    for (const Param& p : layer->Params()) params += p.value->size();
    out += "  " + layer->Name() + ": " + std::to_string(in) + " -> " +
           std::to_string(next) + " (" + std::to_string(params) +
           " params)\n";
    in = next;
  }
  return out;
}

}  // namespace newsdiff::nn
