// Adaptive ARIMA predictor (paper §3.1 / §5.1).
//
// Wraps ArimaModel in the Predictor interface with the paper's adaptation
// scheme: coefficients are re-estimated every `refit_every` observations
// (N_Arima = 1000 in the paper) on a sliding history window, so the model
// tracks the changing WAN. Until the first successful fit — and whenever a
// candidate fit is non-stationary or non-invertible, or validates worse
// than the running mean — the predictor keeps its previous model, or falls
// back to MEAN, which is also the paper's cold-start behaviour for
// windowed predictors.
#pragma once

#include <optional>
#include <vector>

#include "forecast/arima/arima_model.hpp"
#include "forecast/arima/hannan_rissanen.hpp"
#include "forecast/predictor.hpp"

namespace fdqos::forecast {

struct ArimaPredictorConfig {
  std::size_t refit_every = 1000;  // N_Arima
  std::size_t min_fit = 64;        // observations required before first fit
  std::size_t max_history = 8192;  // sliding fit window bound
  // Reject a candidate whose replayed one-step msqerr exceeds this multiple
  // of the MEAN predictor's msqerr on the same window (guards against
  // unstable/degenerate fits poisoning the timeout).
  double acceptance_factor = 2.0;
};

class ArimaPredictor final : public Predictor {
 public:
  explicit ArimaPredictor(ArimaOrder order, ArimaPredictorConfig config = {});

  void observe(double obs) override;
  double predict() const override;
  std::size_t observation_count() const override { return n_; }
  const std::string& name() const override { return name_; }
  std::unique_ptr<Predictor> make_fresh() const override;

  bool has_model() const { return model_.has_value(); }
  std::size_t refit_count() const { return refits_; }
  std::size_t refit_rejections() const { return rejections_; }
  const ArimaOrder& order() const { return order_; }

 private:
  void maybe_refit();
  std::span<const double> fit_window() const;

  std::string name_;
  ArimaOrder order_;
  ArimaPredictorConfig config_;
  std::vector<double> history_;
  std::size_t n_ = 0;
  double mean_ = 0.0;  // running-mean fallback
  std::optional<ArimaModel> model_;
  std::size_t refits_ = 0;
  std::size_t rejections_ = 0;
};

// True iff the fit's AR part is stationary and its MA part invertible.
// A refit failing either would forecast with growing oscillations (the AR
// recursion, or the residual feedback through the MA terms, diverges), so
// the predictor rejects it. Exposed for tests/validation.
bool coefficients_admissible(const ArimaCoefficients& coeffs);

// One-step msqerr of `model` when primed fresh and replayed over `series`;
// the first `warmup` points are not scored. Exposed for tests/validation.
double replay_msqerr(ArimaModel model, std::span<const double> series,
                     std::size_t warmup = 10);

}  // namespace fdqos::forecast
