// The paper's energy accounting: Eq. 3 (pairwise energy saving X(i,j,k)),
// Eq. 5 (marginal disk energy E(d_k)) and Eq. 6 (composite cost C(d_k)).
//
// Conventions (§3.1.1): a request's energy consumption is the energy its
// scheduled disk burns from the request's service time until the successor
// request arrives on that disk; its energy *saving* is the per-request
// ceiling E_up + E_down + T_B·P_I minus that consumption. All three worked
// cases of Lemma 1 collapse into the closed form implemented here.
#pragma once

#include <algorithm>

#include "disk/disk.hpp"
#include "disk/params.hpp"
#include "util/ids.hpp"

namespace eas::core {

/// Eq. 3: energy saving X(i,j,k) when request at time `ti` is scheduled on a
/// disk whose next request arrives at `tj` (>= ti).
///
///   X = E_up + E_down + (T_B - (tj - ti)) * P_I   if tj - ti < T_B+T_up+T_down
///   X = 0                                          otherwise
///
/// The value is clamped at 0: the paper's footnote 4 notes X >= 0 whenever
/// spin power >= idle power, and clamping keeps degenerate power models safe.
double pairwise_energy_saving(double ti, double tj,
                              const disk::DiskPowerParams& p);

/// Lemma 1 counterpart: the energy *consumed* by a request whose successor
/// arrives dt seconds later (the ceiling minus the saving).
double pairwise_energy_consumption(double ti, double tj,
                                   const disk::DiskPowerParams& p);

/// Eq. 3 and Lemma 1 with the power-model constants (window, E_up/down,
/// T_B, P_I, ceiling) derived once instead of per call: the one home of
/// the formula, so both free functions above return exactly what these
/// members do. Loops that price many pairs under one model hold one.
class PairwiseEnergy {
 public:
  explicit PairwiseEnergy(const disk::DiskPowerParams& p)
      : window_(p.saving_window_seconds()),
        transition_(p.transition_energy()),
        breakeven_(p.breakeven_seconds()),
        idle_(p.idle_watts),
        ceiling_(p.max_request_energy()) {}

  /// X(ti, tj); requires tj >= ti (tj = +inf means "no successor").
  double saving(double ti, double tj) const {
    const double dt = tj - ti;
    if (dt >= window_) return 0.0;
    return std::max(0.0, transition_ + (breakeven_ - dt) * idle_);
  }

  /// The ceiling minus the saving.
  double consumption(double ti, double tj) const {
    return ceiling_ - saving(ti, tj);
  }

 private:
  double window_;
  double transition_;
  double breakeven_;
  double idle_;
  double ceiling_;
};

/// Eq. 5: the additional energy E(d_k) incurred by routing a request to the
/// disk right now:
///   active / spin-up  -> 0                 (rides on already-sunk energy)
///   standby/spin-down -> E_up/down + T_B·P_I   (a full wake cycle)
///   idle              -> (T_now - T_last)·P_I  (idle window extension)
/// For an idle disk that has never served a request, the start of the idle
/// period stands in for T_last.
double marginal_energy_cost(const disk::DiskStatus& s, double now,
                            const disk::DiskPowerParams& p);

/// Eq. 6/7 parameters. alpha = 1 optimises energy only; alpha = 0 response
/// time only; beta scales joules against queue depth. The paper settles on
/// (0.2, 100) as the balanced operating point (Appendix A.2).
struct CostParams {
  double alpha = 0.2;
  double beta = 100.0;
};

/// Eq. 6: C(d_k) = E(d_k)·alpha/beta + P(d_k)·(1-alpha), with P(d_k) the
/// disk's current queue depth (Eq. 7).
double composite_cost(const disk::DiskStatus& s, double now,
                      const disk::DiskPowerParams& p, const CostParams& cp);

}  // namespace eas::core
