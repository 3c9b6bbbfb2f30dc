#include "core/energy_model.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eas::core {

double pairwise_energy_saving(double ti, double tj,
                              const disk::DiskPowerParams& p) {
  EAS_REQUIRE_MSG(tj >= ti, "successor precedes request: " << tj << " < " << ti);
  return PairwiseEnergy(p).saving(ti, tj);
}

double pairwise_energy_consumption(double ti, double tj,
                                   const disk::DiskPowerParams& p) {
  return p.max_request_energy() - pairwise_energy_saving(ti, tj, p);
}

double marginal_energy_cost(const disk::DiskStatus& s, double now,
                            const disk::DiskPowerParams& p) {
  return CostModel(p).energy(s, now);
}

double composite_cost(const disk::DiskStatus& s, double now,
                      const disk::DiskPowerParams& p, const CostParams& cp) {
  return CostModel(p, cp).cost(s, now);
}

}  // namespace eas::core
