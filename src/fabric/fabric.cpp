#include "fabric/fabric.hpp"

#include <stdexcept>

namespace odcm::fabric {

Fabric::Fabric(sim::Engine& engine, FabricConfig config)
    : engine_(engine), config_(config), rng_(config.seed) {
  if (config_.nodes == 0) {
    throw std::invalid_argument("Fabric: node count must be positive");
  }
  hcas_.reserve(config_.nodes);
  shm_domains_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    // LID 0 is reserved (invalid) in InfiniBand; number HCAs from 1.
    hcas_.push_back(std::make_unique<Hca>(*this, n, static_cast<Lid>(n + 1)));
    shm_domains_.push_back(std::make_unique<ShmDomain>(*this, n));
  }
}

Hca& Fabric::hca(NodeId node) {
  if (node >= hcas_.size()) {
    throw std::out_of_range("Fabric::hca: bad node id");
  }
  return *hcas_[node];
}

Hca& Fabric::hca_by_lid(Lid lid) {
  if (lid == 0 || lid > hcas_.size()) {
    throw std::out_of_range("Fabric::hca_by_lid: bad lid");
  }
  return *hcas_[lid - 1];
}

ShmDomain& Fabric::shm_domain(NodeId node) {
  if (node >= shm_domains_.size()) {
    throw std::out_of_range("Fabric::shm_domain: bad node id");
  }
  return *shm_domains_[node];
}

sim::Time Fabric::transfer_latency(Lid src, Lid dst,
                                   std::size_t bytes) const {
  if (src == dst) {
    return kLoopbackLatency +
           static_cast<sim::Time>(static_cast<double>(bytes) /
                                  kLoopbackBytesPerNs);
  }
  return kHcaTxOverhead + kWireLatency +
         static_cast<sim::Time>(static_cast<double>(bytes) / kBytesPerNs);
}

}  // namespace odcm::fabric
