#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace keystone {

namespace {
uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // The first four outputs of a SplitMix64 generator seeded with `seed`.
  for (auto& s : state_) {
    s = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-order bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextIndex(uint64_t n) {
  KS_CHECK_GT(n, 0u);
  // Rejection-free modulo bias is negligible for the workload sizes used
  // here, but use Lemire's multiply-shift reduction for uniformity anyway.
  const __uint128_t m =
      static_cast<__uint128_t>(NextU64()) * static_cast<__uint128_t>(n);
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

void Rng::FillGaussian(std::vector<double>* out) {
  for (auto& v : *out) v = NextGaussian();
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace keystone
