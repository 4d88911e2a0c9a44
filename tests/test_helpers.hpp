// Shared fixtures for the model/exp/plan/dcsim test suites: reduced
// campaigns computed once per process.
#pragma once

#include "exp/campaign.hpp"

namespace wavm3::testing {

/// A reduced m01-m02 campaign (3 runs, extreme sweep points), computed
/// once and shared by all tests in the binary.
inline const exp::CampaignResult& fast_campaign_m() {
  static const exp::CampaignResult campaign = [] {
    return exp::run_campaign(exp::testbed_m(), exp::fast_campaign_options(), 42);
  }();
  return campaign;
}

/// A reduced o1-o2 campaign for cross-testbed tests.
inline const exp::CampaignResult& fast_campaign_o() {
  static const exp::CampaignResult campaign = [] {
    return exp::run_campaign(exp::testbed_o(), exp::fast_campaign_options(), 43);
  }();
  return campaign;
}

}  // namespace wavm3::testing
