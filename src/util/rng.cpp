#include "util/rng.hpp"

#include <cmath>

namespace haystack::util {

std::uint64_t Pcg32::poisson(double mean) noexcept {
  return poisson(mean, std::exp(-mean));
}

std::uint64_t Pcg32::poisson(double mean, double limit) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) return poisson_after(next(), limit);
  // Gaussian approximation, adequate for large means used in traffic volume.
  const double sample = mean + std::sqrt(mean) * normal();
  return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(sample));
}

std::uint64_t Pcg32::poisson_after(std::uint32_t first,
                                   double limit) noexcept {
  // Knuth: multiply uniforms until the product drops below e^-mean. The
  // first product, 1.0 times the first uniform, is that uniform exactly.
  double product = static_cast<double>(first) * 0x1p-32;
  std::uint64_t count = 1;
  while (product > limit) {
    product *= uniform();
    ++count;
  }
  return count - 1;
}

std::uint64_t Pcg32::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  const double u = 1.0 - uniform();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

double Pcg32::exponential(double mean) noexcept {
  const double u = 1.0 - uniform();  // avoid log(0)
  return -mean * std::log(u);
}

double Pcg32::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Pcg32::normal() noexcept {
  // Box-Muller; discard the second variate to stay stateless.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace haystack::util
